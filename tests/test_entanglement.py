import re

import mpmath
import numpy as np
import pytest

from chiraldrain import entanglement as ent
from chiraldrain import lattice as lat
from chiraldrain import steady, symmetry

from fixtures import chiral_fixtures, inversion_chain

CORPUS = chiral_fixtures()
CORPUS_IDS = [c[0] for c in CORPUS]


def vacuum(n):
    z = np.zeros((n, n), dtype=complex)
    return steady.CovarianceState(normal=z, anomalous=z.copy())


def ideal_tms(r, phi=0.0):
    """Two-mode squeezed state built directly from its mode correlators."""
    noise = steady.SqueezedNoise(r, phi)
    normal = noise.nbar * np.eye(2, dtype=complex)
    anomalous = noise.anomalous * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return steady.CovarianceState(normal=normal, anomalous=anomalous)


def negativity_from_determinants(cov):
    """Independent route to the smallest PT symplectic eigenvalue, through
    the local/global determinants of the two-mode covariance."""
    a = np.linalg.det(cov[:2, :2])
    b = np.linalg.det(cov[2:, 2:])
    c = np.linalg.det(cov[:2, 2:])
    d = np.linalg.det(cov)
    s = a + b - 2 * c
    nu2 = (s - np.sqrt(s**2 - 4 * d)) / 2
    return max(0.0, -np.log(2.0 * np.sqrt(nu2)))


def negativity_from_eigenvalues(cov):
    """The smallest PT symplectic eigenvalue as min |eig(i Omega sigma^PT)|,
    in the interleaved (x_m, p_m, x_n, p_n) ordering."""
    omega = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    nu = np.abs(np.linalg.eigvals(1j * omega @ flip @ cov @ flip)).min()
    return max(0.0, -np.log(2.0 * nu))


def negativity_mpmath(cov, dps=40):
    """The determinant route evaluated with ``dps`` digits on the same doubles,
    so the square root of a vanishing discriminant costs nothing."""
    with mpmath.workdps(dps):
        c = mpmath.matrix(cov.tolist())
        delta = mpmath.det(c[0:2, 0:2]) + mpmath.det(c[2:4, 2:4]) - 2 * mpmath.det(c[0:2, 2:4])
        nu = mpmath.sqrt((delta - mpmath.sqrt(delta**2 - 4 * mpmath.det(c))) / 2)
        return float(max(0, -mpmath.log(2 * nu)))


def mirrored_pairs(hof):
    half = int(round(np.sqrt(hof.n_sites))) // 2
    coords = range(-half, half + 1)
    return [
        (hof.site_index((x, y)), hof.site_index((y, x))) for x in coords for y in coords if x != y
    ]


def hofstadter_state(r=1.0, loss=0.0):
    hof = lat.build_hofstadter(4, 1.0, np.pi / 2)
    drain = hof.site_index((2, 2))
    spec = steady.DrainSpec(drain, 3.0, steady.SqueezedNoise(r), loss)
    return hof, drain, steady.steady_state(hof, spec)


class TestReducedCovariance:
    def test_vacuum(self):
        red = ent.reduced_covariance(vacuum(4), 0, 2)
        assert np.array_equal(red.cov, 0.5 * np.eye(4))

    def test_unpaired_sites_thermal_blocks(self):
        # sites that are neither self-paired nor mutual partners carry
        # thermal-looking marginals with no cross correlations
        hof, drain, state = hofstadter_state(r=1.0)
        m = hof.site_index((0, 2))
        n = hof.site_index((1, 3))  # partners (2,0) and (3,1): all distinct
        red = ent.reduced_covariance(state, m, n)
        c = np.cosh(2.0) / 2
        assert np.abs(red.cov - c * np.eye(4)).max() < 1e-8 * np.cosh(2.0)

    def test_inversion_pair_is_two_mode_squeezed(self):
        r = 0.8
        chain = inversion_chain()
        state = steady.steady_state(
            chain, steady.DrainSpec(2, 1.0, steady.SqueezedNoise(r))
        )
        red = ent.reduced_covariance(state, 0, 4)
        c, s = np.cosh(2 * r) / 2, np.sinh(2 * r) / 2
        expect = np.array(
            [[c, 0, s, 0], [0, c, 0, -s], [s, 0, c, 0], [0, -s, 0, c]]
        )
        assert np.abs(red.cov - expect).max() < 1e-9

    def test_same_site_rejected(self):
        with pytest.raises(ValueError):
            ent.reduced_covariance(vacuum(3), 1, 1)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            ent.reduced_covariance(vacuum(3), 0, 5)


class TestLogNegativity:
    def test_vacuum_zero(self):
        assert ent.log_negativity(vacuum(3), 0, 1) == 0.0

    @pytest.mark.parametrize("r", [0.1, 0.5, 1.0, 2.0])
    def test_ideal_tms_equals_twice_r(self, r):
        assert abs(ent.log_negativity(ideal_tms(r), 0, 1) - 2 * r) < 1e-8

    def test_angle_does_not_change_negativity(self):
        for phi in (0.0, 0.7, 2.5):
            assert abs(ent.log_negativity(ideal_tms(0.6, phi), 0, 1) - 1.2) < 1e-10

    def test_symmetric_in_arguments(self):
        hof, drain, state = hofstadter_state()
        m, n = hof.site_index((1, 2)), hof.site_index((2, 1))
        assert ent.log_negativity(state, m, n) == ent.log_negativity(state, n, m)

    def test_product_state_zero(self):
        # bipartite chain steady state: every site in a local squeezed state
        chain = lat.build_chain(4)
        state = steady.steady_state(
            chain, steady.DrainSpec(0, 1.0, steady.SqueezedNoise(1.0))
        )
        for m in range(4):
            for n in range(m + 1, 4):
                assert ent.log_negativity(state, m, n) < 1e-10

    def test_agrees_with_determinant_route(self):
        hof, drain, state = hofstadter_state(r=0.9, loss=0.01)
        pairs = [((1, 2), (2, 1)), ((0, 2), (2, 0)), ((-3, 1), (1, -3)), ((0, 1), (2, 3))]
        for ca, cb in pairs:
            m, n = hof.site_index(ca), hof.site_index(cb)
            mine = ent.log_negativity(state, m, n)
            cov = ent.reduced_covariance(state, m, n).cov
            assert abs(mine - negativity_from_determinants(cov)) < 1e-9
            assert abs(mine - negativity_from_eigenvalues(cov)) < 1e-9

    def test_matches_mpmath_where_the_spectrum_is_degenerate(self):
        # the drain site is pure and uncorrelated with every other site, so
        # nu_+ = nu_- there: the local-invariant route read 5.3e-9 on this state
        hof, drain, state = hofstadter_state()
        squeezed = [steady.SqueezedNoise(r, phi) for r, phi in ((1.0, 0.3), (2.0, -1.1))]
        product = steady.CovarianceState(
            normal=np.diag([s.nbar for s in squeezed]).astype(complex),
            anomalous=np.diag([s.anomalous for s in squeezed]),
        )
        cases = [(state, drain, other) for other in range(hof.n_sites) if other != drain]
        for st, m, n in cases + [(product, 0, 1)]:
            cov = ent.reduced_covariance(st, min(m, n), max(m, n)).cov
            assert abs(ent.log_negativity(st, m, n) - negativity_mpmath(cov)) <= 1e-13

    @pytest.mark.parametrize("case", CORPUS[:4] + CORPUS[-2:], ids=CORPUS_IDS[:4] + CORPUS_IDS[-2:])
    def test_drain_site_unentangled(self, case):
        name, lattice, drain = case
        state = steady.steady_state(
            lattice, steady.DrainSpec(drain, 1.5, steady.SqueezedNoise(1.0))
        )
        for other in range(lattice.n_sites):
            if other != drain:
                assert ent.log_negativity(state, drain, other) < 1e-8


class TestMirroredPairAverage:
    def test_vacuum_zero(self):
        hof = lat.build_hofstadter(1)
        assert ent.mirrored_pair_average(vacuum(9), hof) == 0.0

    def test_clean_lattice_value_and_spread(self):
        r = 1.0
        hof, drain, state = hofstadter_state(r)
        values = [
            ent.log_negativity(state, hof.site_index((x, y)), hof.site_index((y, x)))
            for x in range(-4, 5)
            for y in range(-4, 5)
            if x != y
        ]
        assert max(values) - min(values) < 1e-8
        expect = np.log(np.sqrt(2.0)) * 2 * r
        assert abs(ent.mirrored_pair_average(state, hof) - expect) < 1e-8

    def test_loss_decreases_average(self):
        clean = hofstadter_state(1.0)[2]
        lossy = hofstadter_state(1.0, loss=1e-2)[2]
        hof = lat.build_hofstadter(4, 1.0, np.pi / 2)
        assert ent.mirrored_pair_average(lossy, hof) < ent.mirrored_pair_average(
            clean, hof
        )

    def test_batched_average_matches_per_pair_routes(self):
        hof, drain, state = hofstadter_state(r=0.9, loss=0.01)
        pairs = mirrored_pairs(hof)
        assert len(pairs) == 72
        per_pair = sum(ent.log_negativity(state, m, n) for m, n in pairs)
        oracle = sum(
            negativity_from_eigenvalues(ent.reduced_covariance(state, m, n).cov) for m, n in pairs
        )
        average = ent.mirrored_pair_average(state, hof)
        assert average > 0.01
        for total in (per_pair, oracle):
            expect = np.log(np.sqrt(2.0)) / (81 - 9) * total
            assert abs(average - expect) < 1e-12 * expect

    def test_unphysical_marginal_rejected(self):
        # anomalous correlations on a mirrored pair with no occupation to
        # support them: |<a_m a_n>|^2 > <adag_m a_m><adag_n a_n + 1>
        hof = lat.build_hofstadter(1)
        m, n = hof.site_index((1, 0)), hof.site_index((0, 1))
        anomalous = np.zeros((9, 9), dtype=complex)
        anomalous[m, n] = anomalous[n, m] = 0.3
        state = steady.CovarianceState(normal=np.zeros((9, 9), dtype=complex), anomalous=anomalous)
        pair = re.escape(f"pair {(min(m, n), max(m, n))}")
        with pytest.raises(ValueError, match=pair):
            ent.log_negativity(state, n, m)
        with pytest.raises(ValueError, match=pair):
            ent.mirrored_pair_average(state, hof)

    def test_non_square_rejected(self):
        chain = lat.build_chain(4)
        with pytest.raises(ValueError):
            ent.mirrored_pair_average(vacuum(4), chain)


class TestNullifiers:
    def test_zero_squeezing_gives_zero_matrix(self):
        sigma = symmetry.sigma_hofstadter("zz", 2, np.pi / 2)
        nm = ent.nullifier_matrix(sigma, steady.SqueezedNoise(0.0))
        assert np.abs(nm.matrix).max() == 0.0

    def test_real_sigma_gives_zero_matrix(self):
        sigma = symmetry.sigma_bipartite([0, 1, 0, 1])
        nm = ent.nullifier_matrix(sigma, steady.SqueezedNoise(1.0, 0.0))
        assert np.abs(nm.matrix).max() == 0.0

    def test_flux_sigma_gives_nonzero_matrix(self):
        sigma = symmetry.sigma_hofstadter("zz", 4, np.pi / 2)
        nm = ent.nullifier_matrix(sigma, steady.SqueezedNoise(1.0))
        assert np.abs(nm.matrix).max() > 0.1

    def test_vacuum_variances_are_half(self):
        nm = ent.NullifierMatrix(matrix=np.zeros((3, 3)), r=0.0, phi=0.0)
        assert np.allclose(ent.nullifier_variances(vacuum(3), nm), 0.5)

    def test_zero_matrix_gives_momentum_variance(self):
        state = ideal_tms(0.7)
        nm = ent.NullifierMatrix(matrix=np.zeros((2, 2)), r=0.0, phi=0.0)
        var = ent.nullifier_variances(state, nm)
        assert np.allclose(var, 0.5 + np.sinh(0.7) ** 2)

    def test_chiral_state_variances_partially_squeezed(self):
        # Documented numerical outcome for the printed nullifier formula on
        # the diagonal-drain flux lattice: the best combinations reach the
        # ideal squeezed variance exp(-2r)/2 but most sites do not drop
        # below vacuum, so the formula does not nullify the state globally.
        r = 1.0
        hof, drain, state = hofstadter_state(r)
        sigma = symmetry.sigma_hofstadter("zz", 4, np.pi / 2)
        nm = ent.nullifier_matrix(sigma, steady.SqueezedNoise(r))
        var = ent.nullifier_variances(state, nm)
        assert var.shape == (81,)
        assert np.isfinite(var).all()
        assert abs(var.min() - np.exp(-2 * r) / 2) < 1e-9
        below = (var < 0.5 - 1e-9).sum()
        assert 0 < below < 81
