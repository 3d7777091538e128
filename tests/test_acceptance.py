"""Acceptance suite: one test per acceptance criterion, each printing a
single PASS/FAIL line (with its runtime) to the real stdout so the verdicts
are visible regardless of pytest's capture settings."""

import functools
import json
import math
import os
import sys
import time

import numpy as np
import pytest

import chiraldrain as cd
from chiraldrain import entanglement as ent
from chiraldrain import lattice as lat
from chiraldrain import spectral as sp
from chiraldrain import steady, symmetry

from fixtures import certification_fixtures, chiral_fixtures, random_chain

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def _emit(cid, label, verdict, elapsed):
    sys.__stdout__.write(f"ACCEPTANCE {cid} ({label}): {verdict} [{elapsed:.2f}s]\n")
    sys.__stdout__.flush()


def criterion(cid, label, budget):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                assert elapsed < budget, f"criterion {cid} exceeded its {budget}s budget"
            except BaseException:
                _emit(cid, label, "FAIL", time.perf_counter() - start)
                raise
            _emit(cid, label, "PASS", elapsed)

        return wrapper

    return deco


def solve(lattice, drain, gamma, r, loss=0.0):
    return steady.steady_state(
        lattice, steady.DrainSpec(drain, gamma, steady.SqueezedNoise(r), loss)
    )


@criterion(1, "two-mode closed-form oracle", budget=1.0)
def test_criterion_1_two_mode_oracle():
    j = 1.0
    for v in (0.0, 0.5, 1.0):
        for gamma in (0.5, 1.0, 3.0):
            for r in (0.3, 1.0):
                lattice = lat.build_chain(2, j, [v / 2, -v / 2])
                state = solve(lattice, 0, gamma, r)
                noise = steady.SqueezedNoise(r)
                den = 4 * j**2 + v**2 - 1j * gamma * v
                expect = np.array(
                    [
                        [(4 * j**2 - 1j * gamma * v) / den, 2 * j * v / den],
                        [2 * j * v / den, -4 * j**2 / den],
                    ]
                )
                ratios = state.anomalous / noise.anomalous
                assert np.abs(ratios - expect).max() < 1e-8
                assert np.abs(state.normal - noise.nbar * np.eye(2)).max() < 1e-8
                c2 = np.cosh(2 * r) ** 2
                mu = np.sqrt(
                    ((4 * j**2 + v**2) ** 2 + gamma**2 * v**2)
                    / ((4 * j**2 + v**2 * c2) ** 2 + gamma**2 * v**2 * c2)
                )
                assert abs(steady.purity(state) - mu) < 1e-8


@criterion(2, "chiral product states on chains", budget=5.0)
def test_criterion_2_chain_product_states():
    gamma, r = 1.0, 1.0
    noise = steady.SqueezedNoise(r)
    checked = 0
    for n in range(3, 13):
        for lattice in (lat.build_chain(n), random_chain(n)):
            eig = sp.diagonalize(lattice)
            labels = np.array([s.sublattice for s in lattice.sites])
            for drain in range(n):
                coupling = sp.drain_couplings(eig, drain, gamma)
                if coupling.dark:
                    continue
                state = solve(lattice, drain, gamma, r)
                signs = (-1.0) ** (labels + labels[drain])
                assert np.abs(state.normal - noise.nbar * np.eye(n)).max() < 1e-8
                expect = noise.anomalous * np.diag(signs)
                assert np.abs(state.anomalous - expect).max() < 1e-8
                assert abs(steady.purity(state) - 1.0) < 1e-8
                checked += 1
    assert checked > 50


@criterion(3, "symmetry certification of extracted sigma", budget=10.0)
def test_criterion_3_sigma_certification():
    for name, lattice, drain in certification_fixtures():
        coupling = sp.drain_couplings(sp.diagonalize(lattice), drain, 1.0)
        pairing = sp.chiral_pairing(coupling)
        sigma = steady.extract_sigma(coupling, pairing)
        h = lattice.hamiltonian
        norm = np.abs(coupling.eig.energies).max()
        m = sigma.matrix
        ph = np.abs(m.conj().T @ h @ m + h.conj()).max()
        assert ph < 1e-9 * norm, name
        unit = np.zeros(lattice.n_sites)
        unit[drain] = 1.0
        assert np.abs(m[:, drain] - unit).max() < 1e-9, name


@criterion(4, "flux-lattice correlation structure", budget=30.0)
def test_criterion_4_hofstadter_patterns():
    flux, gamma, r = np.pi / 2, 3.0, 1.0
    hof = lat.build_hofstadter(4, 1.0, flux)
    noise = steady.SqueezedNoise(r)
    msq = abs(noise.anomalous)
    named = {
        (2, 0): symmetry.sigma_hofstadter("z0", 4, flux),
        (0, 2): symmetry.sigma_hofstadter("0z", 4, flux),
        (2, 2): symmetry.sigma_hofstadter("zz", 4, flux),
    }
    for coord, sigma in named.items():
        drain = hof.site_index(coord)
        coupling = sp.drain_couplings(sp.diagonalize(hof), drain, gamma)
        assert coupling.dark == (), coord
        state = solve(hof, drain, gamma, r)
        support = np.abs(state.anomalous) > 1e-8 * msq
        pattern = np.abs(sigma.matrix) > 0.5
        # each site correlates with exactly its mirror partner
        assert (support.sum(axis=0) == 1).all(), coord
        assert np.array_equal(support, pattern), coord
        off = np.abs(state.anomalous[~pattern]).max()
        assert off < 1e-8 * msq, coord
        assert abs(steady.purity(state) - 1.0) < 1e-8, coord

    drain = hof.site_index((2, 4))
    state = solve(hof, drain, gamma, r)
    dense_count = (np.abs(state.anomalous) > 1e-8 * msq).sum()
    assert dense_count > 500  # complex pattern, far beyond one partner per site
    assert abs(steady.purity(state) - 1.0) < 1e-8


@criterion(5, "dynamical spectrum and dark censuses", budget=10.0)
def test_criterion_5_dynamical_spectrum():
    for name, lattice, drain in chiral_fixtures():
        gamma = 1.7
        coupling = sp.drain_couplings(sp.diagonalize(lattice), drain, gamma)
        spectrum = sp.dynamical_spectrum(coupling)
        bright = ~spectrum.is_dark
        assert (spectrum.eigenvalues[bright].imag < -1e-12 * gamma).all(), name
        assert np.nanmax(spectrum.residuals) < 1e-8, name

    chain_coupling = sp.drain_couplings(sp.diagonalize(lat.build_chain(3)), 1, 1.0)
    assert len(chain_coupling.dark) == 1

    with open(os.path.join(DATA_DIR, "hofstadter_dark_census.json")) as fh:
        census = json.load(fh)
    hof = lat.build_hofstadter(4, 1.0, np.pi / 2)
    coupling = sp.drain_couplings(
        sp.diagonalize(hof), hof.site_index(tuple(census["drain_coord"])), 3.0
    )
    assert len(coupling.dark) == census["dark_count"]
    assert len(coupling.dark) > 10


@criterion(6, "beta-mode vacuum", budget=5.0)
def test_criterion_6_beta_vacuum():
    gamma, r, phi = 1.7, 1.0, 0.4
    noise = steady.SqueezedNoise(r, phi)
    for name, lattice, drain in chiral_fixtures():
        coupling = sp.drain_couplings(sp.diagonalize(lattice), drain, gamma)
        pairing = sp.chiral_pairing(coupling)
        state = steady.steady_state(
            lattice, steady.DrainSpec(drain, gamma, noise)
        )
        report = steady.beta_occupations(state, coupling, pairing, noise)
        assert report.max_normal < 1e-9, name
        assert report.max_anomalous < 1e-9, name


@criterion(7, "entanglement calibration", budget=30.0)
def test_criterion_7_entanglement():
    for r in (0.1, 0.5, 1.0, 2.0):
        noise = steady.SqueezedNoise(r)
        tms = steady.CovarianceState(
            normal=noise.nbar * np.eye(2, dtype=complex),
            anomalous=noise.anomalous * np.array([[0, 1], [1, 0]], dtype=complex),
        )
        assert abs(ent.log_negativity(tms, 0, 1) - 2 * r) < 1e-8

    r = 1.0
    hof = lat.build_hofstadter(4, 1.0, np.pi / 2)
    drain = hof.site_index((2, 2))
    state = solve(hof, drain, 3.0, r)
    for other in range(81):
        if other != drain:
            assert ent.log_negativity(state, drain, other) < 1e-8

    per_pair = [
        ent.log_negativity(state, hof.site_index((x, y)), hof.site_index((y, x)))
        for x in range(-4, 5)
        for y in range(-4, 5)
        if x != y
    ]
    assert max(per_pair) - min(per_pair) < 1e-8
    expected = np.log(np.sqrt(2.0)) * 2 * r
    assert abs(ent.mirrored_pair_average(state, hof) - expected) < 1e-8


@criterion("8a", "disorder robustness trend", budget=600.0)
def test_criterion_8a_disorder_trend():
    gamma, r, seed = 3.0, 1.0, 123
    variances = [1e-8, 1e-7, 1e-6, 1e-5]
    hof = lat.build_hofstadter(4, 1.0, np.pi / 2)
    drain = hof.site_index((2, 2))
    means = []
    for vi, variance in enumerate(variances):
        values = []
        for k in range(20):
            child = int(
                np.random.SeedSequence(entropy=seed, spawn_key=(vi, k)).generate_state(
                    1, np.uint64
                )[0]
            )
            noisy = lat.add_disorder(hof, variance, child, exclude=(drain,))
            state = solve(noisy, drain, gamma, r)
            values.append(ent.mirrored_pair_average(state, noisy))
            assert steady.purity(state) < 1.0 - 1e-6
        means.append(float(np.mean(values)))
    assert all(a > b for a, b in zip(means, means[1:])), means


@criterion("8b", "loss robustness trend", budget=600.0)
def test_criterion_8b_loss_trend():
    gamma, r = 3.0, 1.0
    losses = [0.0, 1e-3, 1e-2, 1e-1]
    hof = lat.build_hofstadter(4, 1.0, np.pi / 2)
    drain = hof.site_index((2, 2))
    values = []
    for loss in losses:
        state = solve(hof, drain, gamma, r, loss=loss)
        values.append(ent.mirrored_pair_average(state, hof))
    assert all(a > b for a, b in zip(values, values[1:])), values
    # regression threshold: half the clean entanglement must survive 0.1% loss
    assert values[1] > 0.5 * values[0], (
        f"retention at loss 1e-3 is {values[1] / values[0]:.3f}"
    )


@criterion(9, "zero-flux analytic oracle", budget=5.0)
def test_criterion_9_zero_flux_oracle():
    for m in (1, 2, 3):
        analytic = symmetry.phi_zero_eigenmodes(m)
        numeric = sp.diagonalize(lat.build_hofstadter(m, 1.0, 0.0))
        scale = np.abs(analytic.energies).max()
        for group in sp.degenerate_groups(analytic.energies, 1e-9 * scale):
            idx = list(group)
            assert np.allclose(
                analytic.energies[idx], numeric.energies[idx], atol=1e-9 * scale
            )
            pa = analytic.modes[:, idx] @ analytic.modes[:, idx].conj().T
            pn = numeric.modes[:, idx] @ numeric.modes[:, idx].conj().T
            assert np.abs(pa - pn).max() < 1e-9


@criterion(10, "relaxation toward the steady state", budget=30.0)
def test_criterion_10_relaxation_rate():
    lattice = lat.build_chain(3)
    spec = steady.DrainSpec(0, 1.0, steady.SqueezedNoise(1.0))
    target = steady.steady_state(lattice, spec)
    coupling = sp.drain_couplings(sp.diagonalize(lattice), 0, 1.0)
    rate = sp.dynamical_spectrum(coupling).min_bright_decay

    vacuum = steady.CovarianceState(
        normal=np.zeros((3, 3), complex), anomalous=np.zeros((3, 3), complex)
    )
    t_final = 20.0 / rate
    traj = steady.evolve(lattice, spec, vacuum, t_final, dt=0.02, n_samples=400)
    dist = np.array(
        [
            math.sqrt(
                (np.abs(s.normal - target.normal) ** 2).sum()
                + (np.abs(s.anomalous - target.anomalous) ** 2).sum()
            )
            for s in traj.states
        ]
    )
    assert dist[-1] < 1e-6
    window = (dist > 1e-7 * dist[0]) & (dist < 1e-2 * dist[0])
    assert window.sum() > 50
    slope = np.polyfit(traj.times[window], np.log(dist[window]), 1)[0]
    assert abs(-slope - rate) < 0.05 * rate
