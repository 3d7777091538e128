import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from chiraldrain import lattice as lat
from chiraldrain import spectral as sp

from fixtures import (
    certification_fixtures,
    chiral_fixtures,
    count_factorizations,
    factorization_counts,
    inversion_chain,
)


def coupled(lattice, drain, gamma=1.0):
    return sp.drain_couplings(sp.diagonalize(lattice), drain, gamma)


class TestDiagonalize:
    def test_three_site_chain(self):
        eig = sp.diagonalize(lat.build_chain(3))
        assert np.allclose(eig.energies, [-math.sqrt(2), 0, math.sqrt(2)], atol=1e-12)
        zero_mode = eig.modes[:, 1]
        assert np.allclose(np.abs(zero_mode), [1 / math.sqrt(2), 0, 1 / math.sqrt(2)], atol=1e-12)

    def test_single_site_potential(self):
        eig = sp.diagonalize(lat.build_chain(1, potentials=[5.0]))
        assert np.allclose(eig.energies, [5.0])
        assert np.allclose(np.abs(eig.modes), [[1.0]])

    def test_zero_flux_degeneracies_flagged(self):
        eig = sp.diagonalize(lat.build_hofstadter(1, 1.0, 0.0))
        # the (k,q)/(q,k) shells of the 3x3 zero-flux lattice are degenerate
        assert eig.degenerate
        grouped = {i for g in eig.degenerate for i in g}
        assert len(grouped) >= 6

    @pytest.mark.parametrize("case", chiral_fixtures(), ids=[c[0] for c in chiral_fixtures()])
    def test_invariants_on_corpus(self, case):
        name, lattice, drain = case
        eig = sp.diagonalize(lattice)
        n = lattice.n_sites
        assert np.all(np.diff(eig.energies) >= 0)
        ortho = np.abs(eig.modes.conj().T @ eig.modes - np.eye(n)).max()
        assert ortho < 1e-10
        scale = max(np.abs(eig.energies).max(), 1.0)
        assert eig.residual < 1e-10 * scale


def _sublattice_cases():
    cases = [(f"chain-{n}", lat.build_chain(n)) for n in range(2, 13)]
    # unequal sublattices: 3 against 7 and 7 against 2 sites force zero modes
    for name, labels, seed in (
        ("bipartite-3-7", [0, 1, 1, 0, 1, 1, 1, 0, 1, 1], 4),
        ("bipartite-7-2", [0, 0, 1, 0, 0, 0, 1, 0, 0], 7),
    ):
        cases.append((name, lat.build_bipartite_random(labels, seed=seed)))
    fluxes = (("0", 0.0), ("pi3", np.pi / 3), ("2pi5", 2 * np.pi / 5), ("pi2", np.pi / 2))
    for m in (2, 8, 12):
        for label, flux in fluxes:
            cases.append((f"hofstadter-{2 * m + 1}-{label}", lat.build_hofstadter(m, 1.0, flux)))
    return cases


def _with_bond(lattice, i, j, value):
    h = lattice.hamiltonian.copy()
    h[i, j] += value
    h[j, i] += np.conj(value)
    return lat.Lattice(h, lattice.sites, lattice.model)


class TestSublatticeRoute:
    """Lattices whose sublattice blocks of H vanish are diagonalized from the
    SVD of their hopping block; ``eigh`` of the same matrix is the oracle."""

    @pytest.mark.parametrize("case", _sublattice_cases(), ids=lambda c: c[0])
    def test_matches_eigh(self, case, monkeypatch):
        _, lattice = case
        calls = count_factorizations(monkeypatch)
        eig = sp.diagonalize(lattice)
        assert factorization_counts(calls) == {"svd": 1}
        monkeypatch.undo()
        h, n = lattice.hamiltonian, lattice.n_sites
        energies, modes = np.linalg.eigh(h)
        scale = max(1.0, np.abs(energies).max())
        assert np.abs(eig.energies - energies).max() <= 1e-14 * scale
        assert np.all(np.diff(eig.energies) >= 0)
        assert eig.residual <= 1e-14 * scale
        assert np.abs(eig.modes.conj().T @ eig.modes - np.eye(n)).max() <= 1e-14
        labels = lattice.sublattice_labels
        imbalance = abs(int((labels == 0).sum()) - int((labels == 1).sum()))
        assert (eig.energies == 0).sum() >= imbalance
        # each degenerate cluster spans the oracle's subspace: the weight its
        # modes leave outside that subspace bounds the projector difference,
        # and a backward-stable pair of solvers keeps it within eps |H| / gap
        weight = np.abs(modes.conj().T @ eig.modes) ** 2
        for group in sp.degenerate_groups(energies, sp.DEGENERACY_RTOL * scale):
            outside = np.ones(n, dtype=bool)
            outside[group] = False
            if outside.any():
                gap = np.abs(energies[outside, None] - energies[group]).min()
                leak = np.sqrt(weight[np.ix_(outside, group)].sum())
                assert leak * gap <= 1e-14 * scale

    @pytest.mark.parametrize(
        "lattice",
        [
            inversion_chain(),
            lat.add_disorder(lat.build_hofstadter(2, 1.0, np.pi / 2), 0.1, seed=1, exclude=(12,)),
            _with_bond(lat.build_chain(4), 0, 2, 0.3),
            _with_bond(lat.build_chain(5), 1, 3, 0.3j),
            lat.Lattice(lat.build_chain(4).hamiltonian, tuple(lat.Site(i) for i in range(4))),
        ],
        ids=[
            "inversion-chain",
            "disordered-hofstadter",
            "bond-inside-sublattice-0",
            "bond-inside-sublattice-1",
            "unlabelled",
        ],
    )
    def test_other_lattices_take_eigh(self, lattice, monkeypatch):
        calls = count_factorizations(monkeypatch)
        eig = sp.diagonalize(lattice)
        assert factorization_counts(calls) == {"eigh": 1}
        assert eig.residual <= 1e-14 * max(1.0, np.abs(eig.energies).max())


class TestDrainCouplings:
    def test_end_drain_rates(self):
        gamma = 1.8
        cpl = coupled(lat.build_chain(3), 0, gamma)
        assert np.allclose(cpl.rates, [gamma / 4, gamma / 2, gamma / 4], atol=1e-12)
        assert cpl.dark == ()

    def test_center_drain_dark_zero_mode(self):
        cpl = coupled(lat.build_chain(3), 1)
        assert cpl.dark == (1,)
        assert cpl.rates[1] == 0.0

    def test_completeness(self):
        for name, lattice, drain in chiral_fixtures():
            cpl = coupled(lattice, drain, 2.5)
            assert abs(cpl.rates.sum() - 2.5) < 1e-10 * 2.5, name

    @pytest.mark.parametrize(
        "case",
        certification_fixtures() + (("hofstadter-1.1-3", lat.build_hofstadter(2, 1.0, 1.1), 3),),
        ids=lambda c: c[0],
    )
    def test_phase_convention(self, case):
        _, lattice, drain = case
        cpl = coupled(lattice, drain, 1.0)
        amps = cpl.eig.modes[drain, cpl.bright]
        assert np.all(np.abs(amps.imag) <= 1e-15 * np.abs(amps))
        assert (amps.real > 0).all()

    @pytest.mark.parametrize(
        "half_size, flux",
        [(h, 0.0) for h in range(1, 9)] + [(8, np.pi / 3)],
        ids=lambda v: f"{v:.3g}",
    )
    def test_degenerate_rotation_single_bright(self, half_size, flux):
        # zero-flux lattices have degenerate shells at every drain; the
        # 17x17 pi/3 lattice has 19 degenerate groups
        lattice = lat.build_hofstadter(half_size, 1.0, flux)
        eig = sp.diagonalize(lattice)
        assert eig.degenerate
        cpl = sp.drain_couplings(eig, lattice.site_index((1, min(2, half_size))), 1.0)
        for group in cpl.eig.degenerate:
            bright_in_group = [i for i in group if i not in cpl.dark]
            assert len(bright_in_group) <= 1
        assert abs(cpl.rates.sum() - 1.0) < 1e-10
        # the rotated basis still reconstructs the matrix, within the residual
        # it reports: the measured one plus the largest group spread
        scale = max(np.abs(eig.energies).max(), 1.0)
        recon = np.abs(
            lattice.hamiltonian
            - (cpl.eig.modes * cpl.eig.energies) @ cpl.eig.modes.conj().T
        ).max()
        assert recon <= cpl.eig.residual + 4 * np.finfo(float).eps * scale
        assert recon < 1e-10 * scale

    def test_drain_out_of_range(self):
        with pytest.raises(IndexError):
            coupled(lat.build_chain(3), 7)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            coupled(lat.build_chain(3), 0, -1.0)


class TestChiralPairing:
    def test_bipartite_random_pairs_cleanly(self):
        lattice = lat.build_bipartite_random([0, 1] * 4, seed=21)
        for drain in range(8):
            cpl = coupled(lattice, drain)
            pairing = sp.chiral_pairing(cpl)
            assert pairing.energy_defect < 1e-10
            assert pairing.amplitude_defect < 1e-10

    def test_two_mode_detuned(self):
        v, j = 0.8, 1.0
        lattice = lat.build_chain(2, j, [v / 2, -v / 2])
        cpl = coupled(lattice, 0)
        pairing = sp.chiral_pairing(cpl)
        expected = math.sqrt(j**2 + v**2 / 4)
        assert np.allclose(np.abs(cpl.eig.energies), expected)
        assert pairing.energy_defect < 1e-12
        # the detuned doublet is mixed, so the drain amplitudes differ
        assert pairing.amplitude_defect > 0.05

    def test_single_site_self_paired(self):
        cpl = coupled(lat.build_chain(1), 0)
        pairing = sp.chiral_pairing(cpl)
        assert pairing.partner[0] == 0
        assert pairing.energy_defect == 0.0
        assert pairing.amplitude_defect == 0.0

    def test_odd_leftover_reported_not_raised(self):
        lattice = lat.build_chain(3, 1.0, [1.0, 2.0, 3.0])  # asymmetric spectrum
        pairing = sp.chiral_pairing(coupled(lattice, 0))
        assert pairing.energy_defect > 0.1
        assert np.array_equal(pairing.partner[pairing.partner], np.arange(3))

    def test_degenerate_doublets_pair_dark_with_dark(self):
        hof = lat.build_hofstadter(4, 1.0, 2 * np.pi / 5)
        cpl = coupled(hof, hof.site_index((2, 2)), 3.0)
        assert len(cpl.dark) == 8
        pairing = sp.chiral_pairing(cpl)
        dark = set(cpl.dark)
        for i in range(hof.n_sites):
            assert (i in dark) == (pairing.partner[i] in dark)
        assert pairing.amplitude_defect < 1e-10

    @pytest.mark.parametrize("case", chiral_fixtures(), ids=[c[0] for c in chiral_fixtures()])
    def test_corpus_defects_small(self, case):
        name, lattice, drain = case
        pairing = sp.chiral_pairing(coupled(lattice, drain))
        scale = max(np.abs(sp.diagonalize(lattice).energies).max(), 1.0)
        assert pairing.energy_defect < 1e-10 * scale
        assert pairing.amplitude_defect < 1e-10


class TestDynamicalMatrix:
    def test_single_site(self):
        gamma = 0.7
        cpl = coupled(lat.build_chain(1, potentials=[2.0]), 0, gamma)
        a = sp.dynamical_matrix(cpl)
        assert np.allclose(a, [[2.0 - 0.5j * gamma]])

    def test_gamma_zero_diagonal(self):
        cpl = coupled(lat.build_chain(3), 0, 0.0)
        a = sp.dynamical_matrix(cpl)
        assert np.allclose(a, np.diag(cpl.eig.energies))

    def test_antihermitian_part_rank_one(self):
        cpl = coupled(lat.build_chain(3), 0, 1.0)
        a = sp.dynamical_matrix(cpl)
        sv = np.linalg.svd(a - a.conj().T, compute_uv=False)
        assert sv[0] > 1e-3
        assert sv[1] < 1e-14 * sv[0]

    def test_dark_rows_decoupled(self):
        cpl = coupled(lat.build_chain(3), 1, 1.0)
        a = sp.dynamical_matrix(cpl)
        assert np.abs(a[1, [0, 2]]).max() == 0.0
        assert np.abs(a[[0, 2], 1]).max() == 0.0
        assert a[1, 1] == cpl.eig.energies[1]


class TestDynamicalSpectrum:
    def test_single_site_exact(self):
        gamma = 0.9
        cpl = coupled(lat.build_chain(1, potentials=[1.5]), 0, gamma)
        spec = sp.dynamical_spectrum(cpl)
        assert np.allclose(spec.eigenvalues, [1.5 - 0.5j * gamma])
        assert spec.residuals[0] < 1e-14

    @pytest.mark.parametrize("case", chiral_fixtures(), ids=[c[0] for c in chiral_fixtures()])
    def test_bright_decay_and_consistency(self, case):
        name, lattice, drain = case
        cpl = coupled(lattice, drain, 1.7)
        spec = sp.dynamical_spectrum(cpl)
        bright = ~spec.is_dark
        assert (spec.eigenvalues[bright].imag < -1e-12 * 1.7).all()
        assert np.nanmax(spec.residuals) < 1e-8
        assert spec.min_bright_decay > 0

    def test_center_drain_dark_eigenvalue_exact_zero(self):
        cpl = coupled(lat.build_chain(3), 1, 1.0)
        spec = sp.dynamical_spectrum(cpl)
        dark_values = spec.eigenvalues[spec.is_dark]
        assert dark_values.size == 1
        # the dark eigenvalue is the bare zero-mode energy, bit-exactly
        assert dark_values[0] == cpl.eig.energies[1]
        assert abs(dark_values[0]) < 1e-14
        assert np.isnan(spec.residuals[spec.is_dark]).all()

    def test_eigenvalue_trace_preserved(self):
        cpl = coupled(lat.build_chain(5), 0, 2.0)
        a = sp.dynamical_matrix(cpl)
        spec = sp.dynamical_spectrum(cpl)
        assert np.isclose(spec.eigenvalues.sum(), np.trace(a))

    def test_report_serializable(self):
        import json

        cpl = coupled(lat.build_chain(3), 1, 1.0)
        spec = sp.dynamical_spectrum(cpl)
        text = json.dumps(sp.spectrum_report(cpl, spec))
        assert "dark_modes" in text

    def test_no_dense_eig(self, monkeypatch):
        calls = []
        eig = np.linalg.eig

        def counted(a):
            calls.append(1)
            return eig(a)

        monkeypatch.setattr(np.linalg, "eig", counted)
        hof = lat.build_hofstadter(4, 1.0, np.pi / 2)
        cpl = coupled(hof, hof.site_index((2, 2)), 3.0)
        sp.dynamical_spectrum(cpl)
        assert calls == []

    def test_residual_flags_wrong_root(self, monkeypatch):
        hof = lat.build_hofstadter(4, 1.0, np.pi / 2)
        cpl = coupled(hof, hof.site_index((2, 2)), 3.0)
        assert np.nanmax(sp.dynamical_spectrum(cpl).residuals) < 1e-12
        roots = sp._secular_roots
        monkeypatch.setattr(
            sp, "_secular_roots", lambda eps, half: roots(eps, half) * (1 + 1e-6)
        )
        # one part in a million off every root is far above check's 1e-8 gate
        assert np.nanmin(sp.dynamical_spectrum(cpl).residuals) > 1e-8

    @pytest.mark.parametrize("case", certification_fixtures()[-3:], ids=lambda c: c[0])
    def test_dense_matrix_argument_is_ignored(self, case):
        _, lattice, drain = case
        cpl = coupled(lattice, drain, 1.7)
        legacy = sp.dynamical_spectrum(sp.dynamical_matrix(cpl), cpl)
        for spec in (sp.dynamical_spectrum(cpl), sp.dynamical_spectrum(coupling=cpl)):
            for field in ("eigenvalues", "is_dark", "residuals", "modes"):
                assert np.array_equal(getattr(spec, field), getattr(legacy, field), equal_nan=True)
        with pytest.raises(TypeError, match="DrainCoupling"):
            sp.dynamical_spectrum(sp.dynamical_matrix(cpl))

    def test_unconverged_roots_raise(self, monkeypatch):
        monkeypatch.setattr(sp, "SECULAR_MAX_SWEEPS", 1)
        hof = lat.build_hofstadter(4, 1.0, np.pi / 2)
        cpl = coupled(hof, hof.site_index((2, 2)), 3.0)
        with pytest.raises(sp.SolverError, match=r"\d+ of 81 roots did not converge"):
            sp.dynamical_spectrum(cpl)


def polish_eigenvalue(lam, half_rates, energies, steps=3):
    """Newton-polish one dense eigenvalue on the secular equation, rejecting
    any step that does not reduce |h|."""
    scale = max(float(np.abs(energies).max()), 1.0)
    for _ in range(steps):
        diff = lam - energies
        if np.abs(diff).min() == 0.0:
            break
        f = -1j * np.sum(half_rates / diff) - 1.0
        fp = 1j * np.sum(half_rates / diff**2)
        if fp == 0.0:
            break
        step = f / fp
        if not np.isfinite(step) or abs(step) > 1e-3 * scale:
            break
        new = lam - step
        diff_new = new - energies
        if np.abs(diff_new).min() == 0.0:
            break
        if abs(-1j * np.sum(half_rates / diff_new) - 1.0) >= abs(f):
            break
        lam = new
    return lam


def assert_matches_dense_eig(coupling):
    """dynamical_spectrum against a dense eig of the bright block, polished."""
    a = sp.dynamical_matrix(coupling)
    spec = sp.dynamical_spectrum(coupling)
    bright = coupling.bright
    nb = int(bright.sum())
    sub = a[np.ix_(bright, bright)]
    norm = np.linalg.norm(sub, 2)
    vals, vecs = np.linalg.eig(sub)
    half_rates, energies = 0.5 * coupling.rates[bright], coupling.eig.energies[bright]
    vals = np.array([polish_eigenvalue(v, half_rates, energies) for v in vals])

    lam, u = spec.eigenvalues[:nb], spec.modes[bright][:, :nb]
    assert not spec.is_dark[:nb].any()
    assert np.all(np.diff(lam.real) >= 0)
    _, match = linear_sum_assignment(np.abs(lam[:, None] - vals[None, :]))
    assert np.abs(lam - vals[match]).max() <= 1e-12 * max(1.0, norm)
    assert np.linalg.norm(sub @ u - u * lam, axis=0).max() <= 1e-12 * norm
    overlap = np.abs(np.einsum("jk,jk->k", vecs[:, match].conj(), u))
    assert overlap.min() >= 1 - 1e-10
    # LAPACK's convention: unit 2-norm, largest-modulus component real positive
    assert np.allclose(np.linalg.norm(u, axis=0), 1.0, rtol=0, atol=1e-14)
    # (up to rounding among components of equal modulus)
    real_peak = np.where(u.imag == 0, u.real, 0.0).max(axis=0)
    assert np.all(real_peak >= (1 - 1e-12) * np.abs(u).max(axis=0))
    assert np.array_equal(spec.eigenvalues[nb:], coupling.eig.energies[list(coupling.dark)])


ORACLE_GAMMAS = (0.01, 1.7, 100.0)


class TestDenseOracle:
    @pytest.mark.parametrize("gamma", ORACLE_GAMMAS)
    @pytest.mark.parametrize("case", chiral_fixtures(), ids=[c[0] for c in chiral_fixtures()])
    def test_corpus(self, case, gamma):
        name, lattice, drain = case
        assert_matches_dense_eig(coupled(lattice, drain, gamma))

    @pytest.mark.parametrize("gamma", ORACLE_GAMMAS)
    def test_dark_mode_drains(self, gamma):
        assert_matches_dense_eig(coupled(lat.build_chain(3), 1, gamma))
        hof = lat.build_hofstadter(12, 1.0, np.pi / 2)
        cpl = coupled(hof, hof.site_index((0, 0)), gamma)
        assert cpl.dark
        assert_matches_dense_eig(cpl)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=12),
        bipartite=st.booleans(),
        drain=st.integers(min_value=0, max_value=11),
        gamma=st.sampled_from(ORACLE_GAMMAS),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_random_lattices(self, n, bipartite, drain, gamma, seed):
        rng = np.random.default_rng(seed)
        if bipartite:
            labels = np.arange(n) % 2
            lattice = lat.build_bipartite_random(rng.permutation(labels), seed=seed)
        else:
            lattice = lat.build_chain(n, rng.uniform(0.2, 2.0, n - 1), rng.uniform(-1, 1, n))
        assert_matches_dense_eig(coupled(lattice, drain % n, gamma))


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=9),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_pairing_involution_property(n, seed):
    rng = np.random.default_rng(seed)
    lattice = lat.build_chain(n, rng.uniform(0.2, 2.0, n - 1), rng.uniform(-1, 1, n))
    pairing = sp.chiral_pairing(coupled(lattice, 0))
    assert np.array_equal(pairing.partner[pairing.partner], np.arange(n))


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=9),
    drain=st.integers(min_value=0, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_completeness_property(n, drain, seed):
    rng = np.random.default_rng(seed)
    lattice = lat.build_chain(n, rng.uniform(0.2, 2.0, n - 1), rng.uniform(-1, 1, n))
    cpl = coupled(lattice, drain % n, 1.0)
    assert abs(cpl.rates.sum() - 1.0) < 1e-10
