import io
import json
import pickle

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from chiraldrain import lattice as lat
from chiraldrain import spectral as sp
from chiraldrain import steady

from fixtures import (
    certification_fixtures,
    chiral_fixtures,
    count_calls,
    count_factorizations,
    factorization_counts,
    fresh_python,
    inversion_chain,
)

CORPUS = chiral_fixtures()
CORPUS_IDS = [c[0] for c in CORPUS]


def two_mode_lattice(v, j=1.0):
    return lat.build_chain(2, j, [v / 2, -v / 2])


def two_mode_ratios(v, j, gamma):
    """Stationary anomalous correlators of the detuned dimer, in units of
    the reservoir anomalous strength (solved by hand from the 2x2 moment
    equations)."""
    den = 4 * j**2 + v**2 - 1j * gamma * v
    return {
        (0, 0): (4 * j**2 - 1j * gamma * v) / den,
        (1, 1): -4 * j**2 / den,
        (0, 1): 2 * j * v / den,
    }


def two_mode_purity(v, j, gamma, r):
    c2 = np.cosh(2 * r) ** 2
    return np.sqrt(
        ((4 * j**2 + v**2) ** 2 + gamma**2 * v**2)
        / ((4 * j**2 + v**2 * c2) ** 2 + gamma**2 * v**2 * c2)
    )


def solve(lattice, drain, gamma=1.0, r=1.0, phi=0.0, loss=0.0):
    spec = steady.DrainSpec(drain, gamma, steady.SqueezedNoise(r, phi), loss)
    return steady.steady_state(lattice, spec)


def coupling_and_pairing(lattice, drain, gamma=1.0):
    cpl = sp.drain_couplings(sp.diagonalize(lattice), drain, gamma)
    return cpl, sp.chiral_pairing(cpl)


def product_logger(products):
    """An array type that appends the operand shapes of each matrix product
    it enters to ``products``; the arrays computed from it log too."""

    class Logged(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            plain = lambda xs: [x.view(np.ndarray) if isinstance(x, Logged) else x for x in xs]
            inputs = plain(inputs)
            if "out" in kwargs:
                kwargs["out"] = tuple(plain(kwargs["out"]))
            if ufunc is np.matmul:
                products.append([np.shape(x) for x in inputs])
            result = getattr(ufunc, method)(*inputs, **kwargs)
            return result.view(Logged) if isinstance(result, np.ndarray) else result

    return Logged


class TestSqueezedNoise:
    def test_values(self):
        noise = steady.SqueezedNoise(r=1.0, phi=0.3)
        assert np.isclose(noise.nbar, np.sinh(1.0) ** 2)
        assert np.isclose(
            noise.anomalous, np.exp(0.3j) * np.cosh(1.0) * np.sinh(1.0)
        )

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            steady.SqueezedNoise(r=-0.1)

    @settings(max_examples=50, deadline=None)
    @given(
        r=st.floats(min_value=0.0, max_value=5.0),
        phi=st.floats(min_value=-10.0, max_value=10.0),
    )
    def test_correlator_identity(self, r, phi):
        noise = steady.SqueezedNoise(r, phi)
        assert abs(abs(noise.anomalous) ** 2 - noise.nbar * (noise.nbar + 1)) < 1e-14 * (
            1 + noise.nbar**2
        )


class TestSteadyState:
    def test_unsqueezed_vacuum(self):
        state = solve(lat.build_chain(4), 0, gamma=1.3, r=0.0)
        assert np.abs(state.normal).max() < 1e-12
        assert np.abs(state.anomalous).max() < 1e-12

    @pytest.mark.parametrize("v,j,gamma,r", [
        (1.0, 1.0, 1.0, 0.5),
        (0.5, 1.0, 3.0, 1.0),
        (1.0, 2.0, 0.5, 0.3),
    ])
    def test_two_mode_closed_forms(self, v, j, gamma, r):
        state = solve(two_mode_lattice(v, j), 0, gamma, r)
        noise = steady.SqueezedNoise(r)
        ratios = two_mode_ratios(v, j, gamma)
        for (a, b), expect in ratios.items():
            assert abs(state.anomalous[a, b] / noise.anomalous - expect) < 1e-10
        assert np.allclose(state.normal, noise.nbar * np.eye(2), atol=1e-10)
        assert abs(steady.purity(state) - two_mode_purity(v, j, gamma, r)) < 1e-10

    def test_three_site_product_state(self):
        r = 1.0
        state = solve(lat.build_chain(3), 0, gamma=1.0, r=r)
        noise = steady.SqueezedNoise(r)
        assert np.abs(state.normal - noise.nbar * np.eye(3)).max() < 1e-10
        expect = noise.anomalous * np.diag([1.0, -1.0, 1.0])
        assert np.abs(state.anomalous - expect).max() < 1e-10

    def test_squeezing_angle_carried(self):
        phi = 0.7
        state = solve(lat.build_chain(3), 0, gamma=1.0, r=0.8, phi=phi)
        noise = steady.SqueezedNoise(0.8, phi)
        assert abs(state.anomalous[0, 0] - noise.anomalous) < 1e-10

    @pytest.mark.parametrize("case", CORPUS, ids=CORPUS_IDS)
    def test_residual_small_on_corpus(self, case):
        name, lattice, drain = case
        state = solve(lattice, drain, gamma=1.7, r=0.9)
        assert state.residual < 1e-9 * 1.7

    @pytest.mark.parametrize("case", CORPUS, ids=CORPUS_IDS)
    def test_matches_chiral_closed_form(self, case):
        name, lattice, drain = case
        gamma, r = 1.7, 0.9
        state = solve(lattice, drain, gamma, r)
        noise = steady.SqueezedNoise(r)
        cpl, pairing = coupling_and_pairing(lattice, drain, gamma)
        closed = steady.analytic_chiral_state(cpl, pairing, noise)
        tol = 1e-8 * (1 + abs(noise.anomalous))
        assert np.abs(state.normal - closed.normal).max() < tol
        assert np.abs(state.anomalous - closed.anomalous).max() < tol

    def test_dark_modes_rejected_without_loss(self):
        with pytest.raises(steady.DarkModeError) as err:
            solve(lat.build_chain(3), 1)
        assert err.value.dark == (1,)
        assert "1" in str(err.value)
        # process pools carry the error back from their workers by pickle
        back = pickle.loads(pickle.dumps(err.value))
        assert type(back) is steady.DarkModeError
        assert back.dark == err.value.dark and str(back) == str(err.value)

    def test_dark_modes_allowed_with_loss(self):
        state = solve(lat.build_chain(3), 1, loss=0.05)
        assert state.residual < 1e-9
        # loss dilutes the occupation below the lossless plateau
        assert 0 < state.normal[0, 0].real < np.sinh(1.0) ** 2

    def test_gamma_zero_rejected(self):
        with pytest.raises(ValueError):
            solve(lat.build_chain(2), 0, gamma=0.0)

    def test_effectively_dark_mode_rejected(self):
        # a tiny potential un-darkens the center-drain zero mode just enough
        # to pass the per-mode census while leaving its relaxation rate far
        # below anything double precision can equilibrate
        lattice = lat.build_chain(3, 1.0, [2e-5, 0.0, 0.0])
        cpl = sp.drain_couplings(sp.diagonalize(lattice), 1, 1.0)
        assert cpl.dark == ()
        with pytest.raises(sp.SolverError, match="effectively dark"):
            solve(lattice, 1, gamma=1.0)
        # with internal loss the same system solves cleanly
        state = solve(lattice, 1, gamma=1.0, loss=1e-3)
        assert state.residual < 1e-9

    def test_loss_reduces_purity(self):
        lossy = solve(lat.build_chain(4), 0, gamma=1.0, r=0.8, loss=0.02)
        assert steady.purity(lossy) < 1.0 - 1e-6

    @pytest.mark.parametrize("case", CORPUS[:6] + CORPUS[-4:], ids=CORPUS_IDS[:6] + CORPUS_IDS[-4:])
    def test_physicality(self, case):
        name, lattice, drain = case
        state = solve(lattice, drain, gamma=2.0, r=1.2)
        assert state.physicality_margin() > -1e-8

    def test_physicality_with_loss_and_disorder(self):
        lattice = lat.add_disorder(lat.build_chain(6), 0.1, seed=4, exclude=(0,))
        state = solve(lattice, 0, gamma=1.0, r=1.0, loss=0.01)
        assert state.physicality_margin() > -1e-8

    def test_desk_scale_lossy_solve(self):
        # 19x19 lattice: the quarter-flux spectrum at this size carries exact
        # degeneracies, so only the lossy steady state is well posed
        hof = lat.build_hofstadter(9, 1.0, np.pi / 2)
        drain = hof.site_index((2, 2))
        state = solve(hof, drain, gamma=3.0, r=1.0, loss=1e-3)
        assert state.n_modes == 361
        assert state.residual < 1e-9 * 3.0
        assert state.physicality_margin() > -1e-8

    def test_spectral_and_schur_paths_agree(self):
        lattice = lat.build_chain(5, [0.7, 1.2, 0.4, 1.5])
        system = steady.DrainedSystem(lattice, 0, 1.0)
        noise = steady.SqueezedNoise(0.8)
        # the closed-form basis passes the selector, so the Schur path is forced
        assert system._eigenbasis[2] <= steady._CONDITION_LIMIT
        z, z_inv, t = system._schur
        for loss in (0.0, 0.05):
            fast = system._solver(loss)
            assert fast.t.ndim == 1
            slow = steady._MomentSolver(fast.drift, 0, z, z_inv, t - 0.5 * loss * np.eye(5))
            for c, kind in ((noise.anomalous, "anomalous"), (noise.nbar, "normal")):
                assert np.abs(fast.moments(c, kind)[0] - slow.moments(c, kind)[0]).max() < 1e-10

    @pytest.mark.parametrize("loss", [0.0, 1e-3])
    @pytest.mark.parametrize("case", CORPUS, ids=CORPUS_IDS)
    def test_reported_residual_is_the_two_product_residual(self, case, loss):
        # the solver forms D X + X D^T as P + P^T with P = D X; the dense
        # two-product form of the same moments must agree, so it cannot under-report
        name, lattice, drain = case
        gamma, noise = 3.0, steady.SqueezedNoise(1.0, 0.3)
        state = solve(lattice, drain, gamma, 1.0, 0.3, loss)
        d = steady._drift_matrix(lattice, drain, gamma, loss)
        qn, qm = steady._diffusion(lattice.n_sites, drain, gamma, noise)
        dense = max(
            np.abs(d @ state.anomalous + state.anomalous @ d.T + qm).max(),
            np.abs(d.conj() @ state.normal + state.normal @ d.T + qn).max(),
        )
        assert abs(state.residual - dense) <= 1e-15 * gamma * max(abs(noise.anomalous), noise.nbar)

    def test_lossy_solve_makes_sixteen_matrix_products(self, monkeypatch):
        products = []
        Logged = product_logger(products)
        make_solver = steady.DrainedSystem._solver

        def logged_solver(system, site_loss):
            solver = make_solver(system, site_loss)
            solver.drift, solver.basis, solver.basis_inv = (
                a.view(Logged) for a in (solver.drift, solver.basis, solver.basis_inv)
            )
            return solver

        monkeypatch.setattr(steady.DrainedSystem, "_solver", logged_solver)
        dense = count_factorizations(monkeypatch)
        system = steady.DrainedSystem(lat.build_hofstadter(4, 1.0, np.pi / 2), 60, 3.0)
        state = system.steady_state(steady.SqueezedNoise(1.0, 0.3), site_loss=1e-3)
        assert system._solver(1e-3).t.ndim == 1
        # per equation: 2 for the rank-one solve, 4 for the correction, 1 per residual
        assert products == [[(81, 81), (81, 81)]] * 16
        assert factorization_counts(dense) == {"svd": 1}
        assert state.residual < 1e-12


def sylvester_reference(lattice, drain, gamma, noise, loss):
    """Bartels-Stewart moments of the drift at this loss, built from scratch."""
    n = lattice.n_sites
    d = -1j * lattice.hamiltonian - 0.5 * loss * np.eye(n)
    d[drain, drain] -= 0.5 * gamma
    q = np.zeros((n, n), dtype=complex)
    q[drain, drain] = gamma
    m = scipy.linalg.solve_sylvester(d, d.T, -noise.anomalous * q)
    nrm = scipy.linalg.solve_sylvester(d.conj(), d.T, -noise.nbar * q)
    return nrm, m


class RefinedSylvester:
    """Oracle moments: Bartels-Stewart solves, each refined by two steps.

    The solves are those of ``scipy.linalg.solve_sylvester`` (Schur forms,
    LAPACK ``trsyl``), except that every solve shares the one Schur form
    ``D0 = Z T Z^dag`` of the loss-free drift: loss shifts ``T`` by
    ``-loss/2`` and keeps ``Z``, and ``conj(D)``, the Schur form that
    ``solve_sylvester`` takes of ``(D^T)^dag``, has the factors ``conj(T)``
    and ``conj(Z)``.
    """

    def __init__(self, lattice, drain, gamma):
        n = lattice.n_sites
        self.d0 = -1j * lattice.hamiltonian.astype(complex)
        self.d0[drain, drain] -= 0.5 * gamma
        self.t0, self.z = scipy.linalg.schur(self.d0, output="complex")
        self.q = np.zeros((n, n), dtype=complex)
        self.q[drain, drain] = gamma

    def moments(self, noise, loss):
        shift = 0.5 * loss * np.eye(len(self.q))
        d, t = self.d0 - shift, self.t0 - shift
        s, v = t.conj(), self.z.conj()

        def refined(left, r, u, q):
            def solve(c):
                y, scale, info = scipy.linalg.lapack.ztrsyl(
                    r, s, u.conj().T @ c @ v, tranb="C"
                )
                assert info >= 0
                return u @ (scale * y) @ v.conj().T

            x = solve(-q)
            for _ in range(2):
                x = x + solve(-(left @ x + x @ d.T + q))
            return x

        normal = refined(d.conj(), s, v, noise.nbar * self.q)
        anomalous = refined(d, t, self.z, noise.anomalous * self.q)
        return normal, anomalous


def relative_gap(state, normal, anomalous):
    return max(
        np.abs(state.normal - normal).max() / np.abs(normal).max(),
        np.abs(state.anomalous - anomalous).max() / np.abs(anomalous).max(),
    )


class TestDrainedSystem:
    @pytest.mark.parametrize(
        "lattice, drain, losses",
        [
            # drained at (2, 2), site 60
            (lat.build_hofstadter(4, 1.0, np.pi / 2), 60, (1e-4, 1e-3, 1e-2, 1e-1)),
            # a dark mode: the loss-free drift is exactly singular
            (lat.build_chain(3), 1, (0.05,)),
        ],
        ids=["hofstadter-9x9", "dark-chain"],
    )
    def test_one_factorization_matches_sylvester_at_every_loss(
        self, monkeypatch, lattice, drain, losses
    ):
        calls = count_factorizations(monkeypatch)
        gamma, noise = 3.0, steady.SqueezedNoise(1.0, 0.3)
        system = steady.DrainedSystem(lattice, drain, gamma)
        for loss in losses:
            state = system.steady_state(noise, site_loss=loss)
            normal, anomalous = sylvester_reference(lattice, drain, gamma, noise, loss)
            # the slowest relaxation rate is about the loss, so the forward error
            # of any backward-stable solve grows like eps / loss: both routes
            # differ by 5.3e-12 at loss 1e-4, with a fresh eig per loss too
            assert relative_gap(state, normal, anomalous) <= max(1e-12, 1e-15 / loss)
        # the drift eigenbasis comes in closed form from the one SVD that
        # diagonalizes the (bipartite) lattice
        assert factorization_counts(calls) == {"svd": 1}

    @pytest.mark.parametrize("loss", [0.0, 0.01])
    def test_exceptional_point_takes_schur_path(self, loss):
        # gamma = 4 puts the drained dimer's two dynamical eigenvalues on one
        # Jordan block: u^T u = 0 there, so the closed-form V^-1 is wrong
        lattice, gamma, noise = lat.build_chain(2), 4.0, steady.SqueezedNoise(1.0, 0.3)
        system = steady.DrainedSystem(lattice, 0, gamma)
        state = system.steady_state(noise, site_loss=loss)
        assert system._eigenbasis[2] > steady._CONDITION_LIMIT
        assert system._solver(loss).t.ndim == 2  # the triangular Schur factor
        normal, anomalous = sylvester_reference(lattice, 0, gamma, noise, loss)
        assert relative_gap(state, normal, anomalous) <= 1e-12

    @pytest.mark.parametrize("loss", [0.0, 0.01])
    @pytest.mark.parametrize("offset", [1e-9, -1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3])
    def test_near_exceptional_point_matches_sylvester(self, offset, loss):
        # just off gamma = 4 the eigenvalue condition number max 1/|u^T u| runs
        # from 4.5e4 down to 45; the limit sends the first four offsets to the
        # Schur basis and the last three to the closed form, and either must
        # meet the oracle
        lattice, gamma = lat.build_chain(2), 4.0 + offset
        noise = steady.SqueezedNoise(1.0, 0.3)
        system = steady.DrainedSystem(lattice, 0, gamma)
        state = system.steady_state(noise, site_loss=loss)
        assert system._solver(loss).t.ndim == (2 if abs(offset) <= 1e-6 else 1)
        normal, anomalous = sylvester_reference(lattice, 0, gamma, noise, loss)
        assert relative_gap(state, normal, anomalous) <= 1e-12

    @pytest.mark.parametrize(
        "lattice, drain, gamma, basis_products, solve_products",
        [
            # V and V^-1, then the solve's 16 products, all with the logged modes
            (lat.build_hofstadter(4, 1.0, np.pi / 2), 60, 3.0, 2, 16),
            # the exceptional point: the Schur route solves with Z, not the modes
            (lat.build_chain(2), 0, 4.0, 0, 0),
        ],
        ids=["eigenbasis", "schur"],
    )
    def test_coupling_and_route_make_no_square_product(
        self, monkeypatch, lattice, drain, gamma, basis_products, solve_products
    ):
        # every array computed from the eigenmodes of H logs its N x N products
        products = []
        Logged = product_logger(products)
        diagonalize = steady.diagonalize

        def logged_diagonalize(lattice):
            eig = diagonalize(lattice)
            return sp.EigenSystem(
                eig.energies, eig.modes.view(Logged), eig.residual, eig.degenerate
            )

        monkeypatch.setattr(steady, "diagonalize", logged_diagonalize)
        n = lattice.n_sites
        square = lambda: [p for p in products if p == [(n, n), (n, n)]]
        system = steady.DrainedSystem(lattice, drain, gamma)
        assert isinstance(system.coupling.eig.modes, Logged)
        system.spectrum
        assert square() == []
        vecs, vecs_inv, _ = system._eigenbasis
        assert (vecs is None, vecs_inv is None) == (basis_products == 0,) * 2
        assert square() == [[(n, n), (n, n)]] * basis_products
        system.steady_state(steady.SqueezedNoise(1.0, 0.3), site_loss=1e-3)
        assert len(square()) == basis_products + solve_products

    def test_spectrum_builds_no_dense_dynamical_matrix(self, monkeypatch):
        dense = []
        for module in (sp, steady):  # a name imported into steady escapes a patch of sp
            monkeypatch.setattr(module, "dynamical_matrix", dense.append, raising=False)
        hof = lat.build_hofstadter(2, 1.0, np.pi / 2)
        system = steady.DrainedSystem(hof, hof.site_index((2, 2)), 3.0)
        system.steady_state(steady.SqueezedNoise(0.5), site_loss=1e-3)
        assert dense == []

    def test_schur_route_loads_scipy_on_first_use(self):
        # this process imported SciPy long ago; a new one starts without it
        out = fresh_python(
            "import sys\n"
            "from chiraldrain import lattice as lat, steady\n"
            "noise = steady.SqueezedNoise(1.0, 0.3)\n"
            "steady.DrainedSystem(lat.build_chain(2), 0, 3.0).steady_state(noise, 0.01)\n"
            "spectral_only = 'scipy' not in sys.modules\n"
            "system = steady.DrainedSystem(lat.build_chain(2), 0, 4.0)\n"
            "state = system.steady_state(noise, site_loss=0.01)\n"
            "import numpy as np, scipy.linalg\n"
            "d = steady._drift_matrix(system.lattice, 0, 4.0, 0.01)\n"
            "q = np.zeros((2, 2), complex)\n"
            "q[0, 0] = 4.0\n"
            "m = scipy.linalg.solve_sylvester(d, d.T, -noise.anomalous * q)\n"
            "n = scipy.linalg.solve_sylvester(d.conj(), d.T, -noise.nbar * q)\n"
            "gap = max(abs(state.anomalous - m).max() / abs(m).max(),\n"
            "          abs(state.normal - n).max() / abs(n).max())\n"
            "print(spectral_only, system._solver(0.01).t.ndim, float(gap))\n"
        )
        spectral_only, t_ndim, gap = out.split()
        assert spectral_only == "True" and t_ndim == "2"
        assert float(gap) <= 1e-12

    def test_schur_form_is_factored_once_per_system(self, monkeypatch):
        schur = count_calls(monkeypatch, scipy.linalg, "schur")
        lattice, gamma, noise = lat.build_chain(2), 4.0, steady.SqueezedNoise(1.0, 0.3)
        system = steady.DrainedSystem(lattice, 0, gamma)
        losses = (0.0, 0.01, 0.1)
        states = [system.steady_state(noise, site_loss=loss) for loss in losses]
        assert len(schur) == 1
        for state, loss in zip(states, losses):
            normal, anomalous = sylvester_reference(lattice, 0, gamma, noise, loss)
            assert relative_gap(state, normal, anomalous) <= 1e-12

    @pytest.mark.parametrize("gamma", [0.01, 3.0, 100.0])
    @pytest.mark.parametrize(
        "lattice, site",
        [
            (lat.build_chain(3), 1),
            (lat.build_hofstadter(8, 1.0, np.pi / 3), (2, 2)),
            (lat.add_disorder(lat.build_hofstadter(8, 1.0, np.pi / 2), 1e-3, 3, (180,)), (2, 2)),
        ],
        ids=["dark-chain", "17x17-pi/3", "17x17-pi/2-disordered"],
    )
    def test_matches_refined_sylvester_on_corpus(self, lattice, site, gamma):
        # the dark centre of the 3-site chain, and (2, 2), site 180, of the
        # 17x17 lattices: 61 dark modes at flux pi/3, none once disordered
        drain = lattice.site_index(site)
        noise = steady.SqueezedNoise(1.0, 0.3)
        system = steady.DrainedSystem(lattice, drain, gamma)
        oracle = RefinedSylvester(lattice, drain, gamma)
        for loss in (1e-4, 1e-2, 1e-1):
            state = system.steady_state(noise, site_loss=loss)
            assert relative_gap(state, *oracle.moments(noise, loss)) <= 1e-12

    def test_matches_refined_sylvester_with_dark_modes_25x25(self):
        # drain (0, 0) of the quarter-flux 25x25 lattice leaves 468 dark modes
        lattice = lat.build_hofstadter(12, 1.0, np.pi / 2)
        drain, gamma, loss = lattice.site_index((0, 0)), 3.0, 1e-4
        noise = steady.SqueezedNoise(1.0, 0.3)
        state = steady.steady_state(lattice, steady.DrainSpec(drain, gamma, noise, loss))
        oracle = RefinedSylvester(lattice, drain, gamma)
        assert relative_gap(state, *oracle.moments(noise, loss)) <= 1e-12

    def test_refined_sylvester_oracle_is_solve_sylvester(self):
        lattice, noise, loss = lat.build_chain(5, [0.7, 1.2, 0.4, 1.5]), steady.SqueezedNoise(0.8), 0.05
        normal, anomalous = RefinedSylvester(lattice, 0, 1.0).moments(noise, loss)
        ref_normal, ref_anomalous = sylvester_reference(lattice, 0, 1.0, noise, loss)
        assert np.abs(normal - ref_normal).max() < 1e-14
        assert np.abs(anomalous - ref_anomalous).max() < 1e-14

    def test_reused_system_matches_fresh_one(self):
        # the factorization is the only state a system carries between solves
        lattice = lat.build_hofstadter(2, 1.0, np.pi / 2)
        noise = steady.SqueezedNoise(0.7)
        system = steady.DrainedSystem(lattice, 24, 2.0)
        for loss in (0.3, 0.0, 1e-3):
            state = system.steady_state(noise, site_loss=loss)
            fresh = steady.steady_state(lattice, steady.DrainSpec(24, 2.0, noise, loss))
            assert np.array_equal(state.normal, fresh.normal)
            assert np.array_equal(state.anomalous, fresh.anomalous)

    def test_lossless_checks_run_on_each_solve(self):
        system = steady.DrainedSystem(lat.build_chain(3), 1, 1.0)
        noise = steady.SqueezedNoise(1.0)
        assert system.steady_state(noise, site_loss=0.05).residual < 1e-9
        with pytest.raises(steady.DarkModeError):
            system.steady_state(noise)
        assert system.steady_state(noise, site_loss=0.1).residual < 1e-9

    def test_negative_loss_rejected(self):
        system = steady.DrainedSystem(lat.build_chain(2), 0, 1.0)
        with pytest.raises(ValueError, match="site_loss"):
            system.steady_state(steady.SqueezedNoise(1.0), -0.1)


class TestExtractSigma:
    @pytest.mark.parametrize("case", CORPUS, ids=CORPUS_IDS)
    def test_unitary_symmetric_drain_column(self, case):
        name, lattice, drain = case
        cpl, pairing = coupling_and_pairing(lattice, drain)
        sigma = steady.extract_sigma(cpl, pairing)
        assert sigma.unitarity_defect() < 1e-9
        assert sigma.symmetry_defect() < 1e-9
        unit = np.zeros(lattice.n_sites)
        unit[drain] = 1.0
        assert np.abs(sigma.matrix[:, drain] - unit).max() < 1e-9

    def test_bipartite_chain_gives_alternating_signs(self):
        cpl, pairing = coupling_and_pairing(lat.build_chain(4), 0)
        sigma = steady.extract_sigma(cpl, pairing)
        assert np.abs(sigma.matrix - np.diag([1.0, -1.0, 1.0, -1.0])).max() < 1e-10

    def test_inversion_model_gives_antidiagonal(self):
        cpl, pairing = coupling_and_pairing(inversion_chain(), 2)
        sigma = steady.extract_sigma(cpl, pairing)
        assert np.abs(sigma.matrix - np.eye(5)[::-1]).max() < 1e-10

    def test_refuses_invalid_pairing(self):
        lattice = lat.build_chain(2, 1.0, [0.4, -0.1])  # asymmetric spectrum
        cpl, pairing = coupling_and_pairing(lattice, 0)
        with pytest.raises(steady.PairingError):
            steady.extract_sigma(cpl, pairing)


def phase_carrying_reference(cpl, pairing):
    """``sigma`` and the bright dynamical modes from the formulas that carry
    the drain phases ``phi_j = arg psi_j[drain]`` (zero for dark modes):
    ``sigma = sum_j exp(-i(phi_j + phi_partner(j))) psi_partner(j) psi_j^T`` and
    ``u_k,j ~ s_j / (eps_j - lambda_k)`` with ``s = exp(-i phi) sqrt(Gbar)``."""
    modes, bright, p = cpl.eig.modes, cpl.bright, pairing.partner
    phi = np.where(bright, np.angle(modes[cpl.drain]), 0.0)
    sigma = (modes[:, p] * np.exp(-1j * (phi + phi[p]))) @ modes.T
    s = (np.exp(-1j * phi) * np.sqrt(cpl.rates))[bright]
    energies = cpl.eig.energies[bright]
    delta = sp._secular_roots(energies, 0.5 * cpl.rates[bright])
    order = np.argsort((energies + delta).real, kind="stable")
    vecs = s / sp._anchored_gaps(energies, delta, order)
    # the phase sits on the first component within PEAK_RTOL of the largest
    mags = np.abs(vecs)
    first = np.argmax(mags >= (1 - sp.PEAK_RTOL) * mags.max(axis=1, keepdims=True), axis=1)
    peak = (np.arange(len(vecs)), first)
    vecs *= (vecs[peak].conj() / np.abs(vecs[peak]) / np.linalg.norm(vecs, axis=1))[:, None]
    return sigma, vecs.T


def _flux_625():
    hof = lat.build_hofstadter(12, 1.0, np.pi / 2)
    return [(f"hofstadter-625-{c}", hof, hof.site_index(c)) for c in [(2, 2), (0, 0)]]


class TestRealGauge:
    @pytest.mark.parametrize(
        "case", list(certification_fixtures()) + _flux_625(), ids=lambda c: c[0]
    )
    def test_matches_phase_carrying_formulas(self, case):
        _, lattice, drain = case
        cpl, pairing = coupling_and_pairing(lattice, drain, 3.0)
        sigma, vecs = phase_carrying_reference(cpl, pairing)
        assert np.abs(steady.extract_sigma(cpl, pairing).matrix - sigma).max() <= 1e-14
        nb = vecs.shape[1]
        modes = sp.dynamical_spectrum(cpl).modes
        assert np.abs(modes[cpl.bright, :nb] - vecs).max() <= 1e-14


class TestAnalyticChiralState:
    def test_r_zero_is_vacuum(self):
        cpl, pairing = coupling_and_pairing(lat.build_chain(4), 0)
        state = steady.analytic_chiral_state(cpl, pairing, steady.SqueezedNoise(0.0))
        assert np.abs(state.normal).max() == 0
        assert np.abs(state.anomalous).max() == 0

    def test_refuses_bad_pairing(self):
        lattice = lat.build_chain(2, 1.0, [0.4, -0.1])  # not chiral
        cpl, pairing = coupling_and_pairing(lattice, 0)
        with pytest.raises(steady.PairingError):
            steady.analytic_chiral_state(cpl, pairing, steady.SqueezedNoise(0.5))

    def test_refuses_dark_modes(self):
        cpl, pairing = coupling_and_pairing(lat.build_chain(3), 1)
        with pytest.raises(steady.DarkModeError):
            steady.analytic_chiral_state(cpl, pairing, steady.SqueezedNoise(0.5))


class TestQuadratureCovariance:
    def test_marginals_are_rows_and_columns_of_full_matrix(self):
        state = solve(lat.build_hofstadter(1, 1.0, np.pi / 2), 4, loss=0.05)
        full = steady.quadrature_covariance(state)
        assert full.shape == (18, 18)
        sites = np.array([[[0, 4], [8, 3]], [[5, 1], [2, 7]], [[6, 6], [1, 0]]])
        marginals = steady.quadrature_covariance(state, sites)
        assert marginals.shape == (3, 2, 4, 4)
        for idx in np.ndindex(sites.shape[:-1]):
            rows = np.concatenate([sites[idx], sites[idx] + 9])
            assert np.array_equal(marginals[idx], full[np.ix_(rows, rows)])
        rows = [2, 5, 7, 11, 14, 16]
        triple = steady.quadrature_covariance(state, [2, 5, 7])
        assert np.array_equal(triple, full[np.ix_(rows, rows)])


class TestPurity:
    def test_vacuum(self):
        state = steady.CovarianceState(
            normal=np.zeros((3, 3), dtype=complex),
            anomalous=np.zeros((3, 3), dtype=complex),
        )
        assert steady.purity(state) == 1.0

    def test_two_mode_formula(self):
        v, j, gamma, r = 1.0, 1.0, 1.0, 0.5
        state = solve(two_mode_lattice(v, j), 0, gamma, r)
        assert abs(steady.purity(state) - two_mode_purity(v, j, gamma, r)) < 1e-12

    def test_pure_at_zero_detuning(self):
        state = solve(two_mode_lattice(0.0), 0, gamma=1.0, r=1.3)
        assert abs(steady.purity(state) - 1.0) < 1e-10

    def test_unphysical_rejected(self):
        bogus = steady.CovarianceState(
            normal=-0.4 * np.eye(2, dtype=complex),
            anomalous=np.zeros((2, 2), dtype=complex),
        )
        with pytest.raises(ValueError):
            steady.purity(bogus)


class TestBetaOccupations:
    @pytest.mark.parametrize("case", CORPUS, ids=CORPUS_IDS)
    def test_closed_form_is_beta_vacuum(self, case):
        name, lattice, drain = case
        noise = steady.SqueezedNoise(0.9)
        cpl, pairing = coupling_and_pairing(lattice, drain)
        state = steady.analytic_chiral_state(cpl, pairing, noise)
        report = steady.beta_occupations(state, cpl, pairing, noise)
        assert report.max_normal < 1e-12
        assert report.max_anomalous < 1e-12

    @pytest.mark.parametrize("case", CORPUS, ids=CORPUS_IDS)
    def test_solver_state_is_beta_vacuum(self, case):
        name, lattice, drain = case
        noise = steady.SqueezedNoise(1.0, 0.4)
        cpl, pairing = coupling_and_pairing(lattice, drain, 1.7)
        state = solve(lattice, drain, 1.7, 1.0, 0.4)
        report = steady.beta_occupations(state, cpl, pairing, noise)
        assert report.max_normal < 1e-9
        assert report.max_anomalous < 1e-9

    def test_detuned_dimer_not_beta_vacuum(self):
        v, j, gamma, r = 0.4, 1.0, 1.0, 0.6
        noise = steady.SqueezedNoise(r)
        lattice = two_mode_lattice(v, j)
        cpl, pairing = coupling_and_pairing(lattice, 0, gamma)
        state = solve(lattice, 0, gamma, r)
        report = steady.beta_occupations(state, cpl, pairing, noise)
        scale = abs(noise.anomalous) * v / j
        assert 0.02 * scale < report.max_anomalous < 5 * scale


class TestEvolve:
    def test_steady_state_is_fixed_point(self):
        lattice = lat.build_chain(3)
        spec = steady.DrainSpec(0, 1.0, steady.SqueezedNoise(1.0))
        fixed = steady.steady_state(lattice, spec)
        traj = steady.evolve(lattice, spec, fixed, t_final=5.0, dt=0.02)
        last = traj.states[-1]
        assert np.abs(last.normal - fixed.normal).max() < 1e-8
        assert np.abs(last.anomalous - fixed.anomalous).max() < 1e-8

    def test_closed_dynamics_conserves_number(self):
        lattice = lat.build_chain(4)
        spec = steady.DrainSpec(0, 0.0, steady.SqueezedNoise(0.0))
        n0 = np.diag([0.3, 0.1, 0.0, 0.2]).astype(complex)
        initial = steady.CovarianceState(normal=n0, anomalous=np.zeros((4, 4), complex))
        traj = steady.evolve(lattice, spec, initial, t_final=8.0, dt=0.02)
        totals = [np.trace(s.normal).real for s in traj.states]
        assert max(abs(t - 0.6) for t in totals) < 1e-8

    def test_converges_to_steady_state(self):
        lattice = lat.build_chain(3)
        spec = steady.DrainSpec(0, 1.0, steady.SqueezedNoise(1.0))
        target = steady.steady_state(lattice, spec)
        vacuum = steady.CovarianceState(
            normal=np.zeros((3, 3), complex), anomalous=np.zeros((3, 3), complex)
        )
        cpl = sp.drain_couplings(sp.diagonalize(lattice), 0, 1.0)
        rate = sp.dynamical_spectrum(cpl).min_bright_decay
        t_final = 20.0 / rate
        traj = steady.evolve(lattice, spec, vacuum, t_final, dt=0.05)
        final = traj.states[-1]
        dist = max(
            np.abs(final.normal - target.normal).max(),
            np.abs(final.anomalous - target.anomalous).max(),
        )
        assert dist < 1e-6

    def test_coarse_step_rejected(self):
        lattice = lat.build_chain(3)
        spec = steady.DrainSpec(0, 1.0, steady.SqueezedNoise(1.0))
        vacuum = steady.CovarianceState(
            normal=np.zeros((3, 3), complex), anomalous=np.zeros((3, 3), complex)
        )
        with pytest.raises(ValueError):
            steady.evolve(lattice, spec, vacuum, t_final=1.0, dt=1.0)


class TestSerialization:
    def test_roundtrip(self):
        state = solve(lat.build_chain(3), 0, 1.0, 0.7, 0.2)
        import json

        data = json.loads(json.dumps(steady.state_to_dict(state)))
        back = steady.state_from_dict(data)
        assert np.array_equal(back.normal, state.normal)
        assert np.array_equal(back.anomalous, state.anomalous)

    def test_streamed_json_matches_dict_route(self):
        import io
        import json

        state = solve(lat.build_hofstadter(1, 1.0, np.pi / 2), 4, 1.0, 0.7, 0.2, loss=0.1)
        fh = io.StringIO()
        steady.write_state_json(state, fh)
        assert fh.getvalue() == json.dumps(steady.state_to_dict(state))
        data = steady.state_to_dict(state)
        # the old per-entry encoding, kept as the reference
        for key in ("normal", "anomalous"):
            matrix = getattr(state, key)
            assert data[key] == [[[v.real, v.imag] for v in row] for row in matrix]


def dict_route(state):
    return json.dumps(steady.state_to_dict(state))


def streamed(state):
    fh = io.StringIO()
    steady.write_state_json(state, fh)
    return fh.getvalue()


TINY = np.finfo(float).tiny
FLOAT_KINDS = {
    "finite": st.floats(allow_nan=False, allow_infinity=False),
    "subnormal": st.floats(min_value=-TINY, max_value=TINY, exclude_min=True, exclude_max=True),
    "signed-zero": st.sampled_from([0.0, -0.0]) | st.floats(-2.0, 2.0),
    "nonfinite": st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0]) | st.floats(),
}


@st.composite
def moment_matrices(draw, n):
    """A complex matrix of n rows: arbitrary (of any width), or square and
    mirrored exactly, as solver moment matrices are, or up to signs."""
    mirror = draw(st.sampled_from(["none", "symmetric", "hermitian", "negated"]))
    m = draw(st.integers(0, 12)) if mirror == "none" else n
    floats = st.lists(draw(st.sampled_from(list(FLOAT_KINDS.values()))), min_size=2 * n * m,
                      max_size=2 * n * m)
    x = np.array(draw(floats), dtype=float).view(complex).reshape(n, m)
    i, j = np.tril_indices(n, -1)
    if mirror == "symmetric":
        x[i, j] = x[j, i]
    elif mirror == "hermitian":
        # the solver's symmetrization: mirrored off-diagonal zeros are +0.0 twice
        with np.errstate(invalid="ignore", over="ignore"):
            x = 0.5 * (x + x.conj().T)
    elif mirror == "negated":
        # each lower float is its mirror or its mirror negated, -0.0 for 0.0 too
        flip = np.array(draw(st.lists(st.booleans(), min_size=2 * len(i), max_size=2 * len(i))))
        upper = x[j, i].view(float).ravel()
        x[i, j] = np.where(flip, -upper, upper).view(complex)
    return x


class TestStreamedEncoding:
    """write_state_json formats mirrored floats once and writes the dict route's bytes."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(0, 12))
    def test_matches_dict_route_byte_for_byte(self, data, n):
        state = steady.CovarianceState(
            normal=data.draw(moment_matrices(n)),
            anomalous=data.draw(moment_matrices(n)),
            residual=data.draw(st.floats()),
        )
        assert streamed(state) == dict_route(state)

    def test_lossy_solver_state_17x17(self):
        hof = lat.build_hofstadter(8, 1.0, np.pi / 3)
        state = solve(hof, hof.site_index((2, 2)), 3.0, 1.0, 0.3, loss=1e-3)
        assert streamed(state) == dict_route(state)

    def test_closed_form_state(self):
        hof = lat.build_hofstadter(4, 1.0, np.pi / 2)
        cpl, pairing = coupling_and_pairing(hof, hof.site_index((2, 2)), 3.0)
        state = steady.analytic_chiral_state(cpl, pairing, steady.SqueezedNoise(0.8, 0.5))
        assert streamed(state) == dict_route(state)

    def test_mirrored_floats_are_formatted_once(self, monkeypatch):
        formatted = []
        json_floats = steady._json_floats

        def count(values):
            formatted.append(values.size)
            return json_floats(values)

        monkeypatch.setattr(steady, "_json_floats", count)
        hof = lat.build_hofstadter(4, 1.0, np.pi / 2)
        state = solve(hof, hof.site_index((2, 2)), 3.0, 0.8, loss=1e-3)
        assert streamed(state) == dict_route(state)
        # re and im of the entries on and above the diagonal of both matrices
        assert sum(formatted) == 2 * 81 * 82
