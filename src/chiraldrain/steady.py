"""Exact Gaussian steady states of the drained lattice.

The Langevin dynamics of the site operators is linear,

    da/dt = D a + noise,    D = -iH - (Gamma/2) P_drain - (loss/2) I,

so the stationary second moments solve a pair of Sylvester equations.  With
``H = Psi diag(eps) Psi^dag`` the drift is ``Psi (-iA - (loss/2) I) Psi^dag``,
and :mod:`spectral` diagonalizes the diagonal-plus-rank-one ``A`` from its
secular equation, so a :class:`DrainedSystem` gets the drift eigenbasis in
closed form from one diagonalization of ``H``.  The diffusion acts on the
drain site alone, so each equation is solved from that rank-one term by
dividing by eigenvalue sums in that frame, then corrected once against the
true drift.  A Bartels-Stewart (Schur) basis takes over at and near
exceptional points, where the closed-form inverse fails; that route alone
imports SciPy (``schur`` and LAPACK ``ztrsyl``), so every other solve runs
on NumPy.  Loss only shifts the eigenvalues, or the Schur factor's diagonal,
so one system serves every loss value.

The state is stored as the normal matrix ``<adag_m a_n>`` and the anomalous
matrix ``<a_m a_n>``.  The quadrature convention throughout the package is
``x = (a + adag)/sqrt(2)``, ``p = (a - adag)/(i sqrt(2))`` with vacuum
variance 1/2, which fixes the purity and negativity formulas used downstream.

When the lattice pairs its eigenmodes chirally at the drain, the steady
state is also available in closed form: uniform occupation ``sinh^2 r`` on
every site and anomalous correlations ``M * sigma`` with ``sigma`` the
unitary symmetric pairing matrix built from the eigenmodes.  Comparing the
two routes, and transforming into the Bogoliubov basis whose joint vacuum
the chiral steady state is, are the main consistency checks this module
offers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import Lattice
from .spectral import (
    PAIRING_TOL,
    ChiralPairing,
    DrainCoupling,
    DynamicalSpectrum,
    SolverError,
    diagonalize,
    drain_couplings,
    dynamical_spectrum,
)
from .symmetry import SymmetryMatrix

__all__ = [
    "SqueezedNoise",
    "DrainSpec",
    "CovarianceState",
    "Trajectory",
    "DarkModeError",
    "PairingError",
    "DrainedSystem",
    "steady_state",
    "analytic_chiral_state",
    "extract_sigma",
    "purity",
    "log_purity",
    "beta_occupations",
    "BetaModeReport",
    "evolve",
    "quadrature_covariance",
    "symplectic_form",
    "state_to_dict",
    "state_from_dict",
    "write_state_json",
]

VACUUM_VARIANCE = 0.5


class DarkModeError(ValueError):
    """The requested operation needs a dark-mode-free drain."""

    def __init__(self, dark: tuple[int, ...], message: str):
        super().__init__(message)
        self.dark = dark

    def __reduce__(self):
        # the default replays only the message; process pools need the round trip
        return type(self), (self.dark, str(self))


class PairingError(ValueError):
    """The chiral pairing defects exceed the pairing rule (``ChiralPairing.holds``)."""


@dataclass(frozen=True)
class SqueezedNoise:
    """Squeezed-vacuum reservoir parameters.

    The white-noise correlators carry occupation ``nbar = sinh^2 r`` and
    anomalous strength ``anomalous = exp(i*phi) cosh r sinh r``, which
    satisfy ``|anomalous|^2 = nbar (nbar + 1)`` identically.
    """

    r: float
    phi: float = 0.0

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("squeezing parameter r must be >= 0")

    @property
    def nbar(self) -> float:
        return float(np.sinh(self.r) ** 2)

    @property
    def anomalous(self) -> complex:
        return complex(np.exp(1j * self.phi) * np.cosh(self.r) * np.sinh(self.r))


@dataclass(frozen=True)
class DrainSpec:
    """Drain site, coupling rate, reservoir squeezing, optional uniform loss."""

    drain: int
    gamma: float
    noise: SqueezedNoise
    site_loss: float = 0.0

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if self.site_loss < 0:
            raise ValueError("site_loss must be >= 0")


@dataclass(frozen=True)
class CovarianceState:
    """Second moments of a zero-mean Gaussian state of N sites.

    ``normal[m, n] = <adag_m a_n>`` (Hermitian, positive) and
    ``anomalous[m, n] = <a_m a_n>`` (symmetric).  ``residual`` records the
    max-norm defect of the stationarity equations for solver outputs.
    """

    normal: np.ndarray
    anomalous: np.ndarray
    residual: float = 0.0

    def __post_init__(self):
        self.normal.setflags(write=False)
        self.anomalous.setflags(write=False)

    @property
    def n_modes(self) -> int:
        return self.normal.shape[0]

    def physicality_margin(self) -> float:
        """Smallest eigenvalue of C + (i/2) Omega; >= 0 for physical states."""
        c = quadrature_covariance(self)
        omega = symplectic_form(self.n_modes)
        return float(np.linalg.eigvalsh(c + 0.5j * omega).min())


def symplectic_form(n_modes: int) -> np.ndarray:
    """Symplectic form in (x_1..x_N, p_1..p_N) ordering."""
    eye = np.eye(n_modes)
    zero = np.zeros((n_modes, n_modes))
    return np.block([[zero, eye], [-eye, zero]])


def quadrature_covariance(state: CovarianceState, sites=None) -> np.ndarray:
    """Real symmetrized covariance in (x..., p...) ordering: the full 2N x 2N
    matrix, or for ``sites`` of shape ``(..., k)`` the ``(..., 2k, 2k)``
    marginals, the rows and columns of the full matrix for those sites."""
    normal, anomalous = state.normal, state.anomalous
    if sites is None:
        half = VACUUM_VARIANCE * np.eye(state.n_modes)
    else:
        sites = np.asarray(sites)
        rows, cols = sites[..., :, None], sites[..., None, :]
        normal, anomalous = normal[rows, cols], anomalous[rows, cols]
        half = VACUUM_VARIANCE * (rows == cols)
    re_n, im_n = normal.real, normal.imag
    re_m, im_m = anomalous.real, anomalous.imag
    return np.block(
        [
            [half + re_n + re_m, im_m + im_n],
            [im_m - im_n, half + re_n - re_m],
        ]
    )


def _drift_matrix(
    lattice: Lattice, drain: int, gamma: float, site_loss: float = 0.0
) -> np.ndarray:
    n = lattice.n_sites
    d = -1j * lattice.hamiltonian.astype(complex)
    d -= 0.5 * site_loss * np.eye(n)
    d[drain, drain] -= 0.5 * gamma
    return d


def _diffusion(
    n_sites: int, drain: int, gamma: float, noise: SqueezedNoise
) -> tuple[np.ndarray, np.ndarray]:
    qn = np.zeros((n_sites, n_sites), dtype=complex)
    qm = np.zeros((n_sites, n_sites), dtype=complex)
    qn[drain, drain] = gamma * noise.nbar
    qm[drain, drain] = gamma * noise.anomalous
    return qn, qm


# Past this eigenvalue condition number max_k 1/|u_k^T u_k| (unit-norm u_k,
# its own left eigenvector as A is complex symmetric) a Schur basis replaces
# the closed-form one.  The drained dimer at gamma = 4 + offset reads
#     offset   1e-9    -1e-8   1e-7   1e-6   1e-5   1e-4
#     kappa    44721   14142   4472   1414   447    141
# and its closed form fails up to 1e-7; flux lattices read 1.0-3.7, chains <= 5.
_CONDITION_LIMIT = 1e3


class _MomentSolver:
    """Solves ``D X + X D^T = -c P`` ("anomalous") and ``conj(D) X + X D^T =
    -c P`` ("normal") for one drift ``D = B T B^-1``, ``P`` the drain projector.

    ``t`` holds the eigenvalues of ``D`` (``B`` its eigenvectors) or its
    upper-triangular Schur factor (``B`` unitary).  With ``B'`` = ``B``, or
    ``conj(B)`` for the normal equation, ``X = B' Y B^T`` turns a right-hand
    side ``F`` into ``T' Y + Y T^T = B'^-1 F B^-T``.  For the rank-one ``c P``
    that needs only the drain column ``g`` of ``B^-1``; one correction against
    the true drift follows.
    """

    def __init__(self, drift: np.ndarray, drain: int, basis, basis_inv, t: np.ndarray):
        self.drift, self.drain = drift, drain
        self.basis, self.basis_inv, self.t = basis, basis_inv, t
        if t.ndim == 1:
            self._den = {"anomalous": t[:, None] + t, "normal": t.conj()[:, None] + t}
            scale = max(np.abs(t).max(), 1e-300)
            if min(np.abs(den).min() for den in self._den.values()) < 1e-15 * scale:
                raise SolverError(
                    "drift is singular for the moment equations; the steady "
                    "state is not unique (undamped mode pair)"
                )

    def _frame_solve(self, rhs: np.ndarray, kind: str) -> np.ndarray:
        if self.t.ndim == 1:
            return rhs / self._den[kind]
        import scipy.linalg  # only the Schur route needs SciPy

        left = self.t if kind == "anomalous" else self.t.conj()
        y, scale, _ = scipy.linalg.lapack.ztrsyl(left, self.t.conj(), rhs, tranb="C")
        return y / scale

    def moments(self, c: complex, kind: str) -> tuple[np.ndarray, float]:
        """The (anomalous or normal) moments for diffusion ``c P`` and the
        max-norm of their stationarity residual."""
        side = np.conj if kind == "normal" else np.asanyarray  # B -> B', D -> D'
        b, b_inv = self.basis, self.basis_inv
        left, left_inv, drift = side(b), side(b_inv), side(self.drift)

        def solve(rhs):
            x = left @ self._frame_solve(rhs, kind) @ b.T
            return 0.5 * (x + side(x).T)

        def residual(x):
            # x is exactly (Hermitian-)symmetric, so X D^T is side(D' X)^T
            p = drift @ x
            res = p + side(p).T
            res[self.drain, self.drain] += c
            return res

        g = b_inv[:, self.drain]
        x = solve(-c * np.outer(side(g), g))
        x = x + solve(-(left_inv @ residual(x) @ b_inv.T))
        return x, float(np.abs(residual(x)).max())


class DrainedSystem:
    """A lattice drained at one site with rate ``gamma``, solvable at any loss.

    Built on first use from one ``diagonalize`` of the lattice: the drain
    :attr:`coupling` and the secular :attr:`spectrum` of ``A = diag(eps) -
    (i/2) s s^T``.  ``A`` is complex symmetric (``s``, the drain amplitudes,
    is real in the coupling's gauge), so its eigenvectors ``U`` scaled to
    ``u_k^T u_k = 1`` give the drift eigenbasis ``V = Psi U``, its inverse
    ``U^T Psi^dag`` and, at loss ``kappa``, eigenvalues ``mu = -i lambda -
    kappa/2``.  Each moment equation is solved from its rank-one diffusion in
    that basis, ``M = V [-Gamma anom g_k g_l / (mu_k + mu_l)] V^T`` with
    ``g = V^-1 e_drain`` (dark modes have ``g_k = 0``), then corrected once
    against the true drift.  Past ``_CONDITION_LIMIT`` of ``max_k 1/|u_k^T
    u_k|`` (at or near an exceptional point) ``V`` is not formed and the same
    steps run in the Schur basis of the loss-free drift, factored once per
    system.
    """

    def __init__(self, lattice: Lattice, drain: int, gamma: float):
        self.lattice = lattice
        self.drain = drain
        self.gamma = gamma

    @cached_property
    def coupling(self) -> DrainCoupling:
        """Eigenmodes of the lattice coupled to the drain."""
        return drain_couplings(diagonalize(self.lattice), self.drain, self.gamma)

    @cached_property
    def spectrum(self) -> DynamicalSpectrum:
        """Secular spectrum of the dynamical matrix of :attr:`coupling`."""
        return dynamical_spectrum(self.coupling)

    @cached_property
    def _eigenbasis(self):
        """``(V, V^-1, kappa)``, with V and V^-1 None past the limit."""
        u = self.spectrum.modes
        utu = np.einsum("ij,ij->j", u, u)
        kappa = float(1.0 / np.abs(utu).min())
        if kappa > _CONDITION_LIMIT:
            return None, None, kappa
        u = u / np.sqrt(utu)
        psi = self.coupling.eig.modes
        return psi @ u, u.T @ psi.conj().T, kappa

    @cached_property
    def _schur(self):
        """``(Z, Z^dag, T)``: the complex Schur form ``Z T Z^dag`` of the loss-free drift."""
        import scipy.linalg  # only the Schur route needs SciPy

        drift = _drift_matrix(self.lattice, self.drain, self.gamma)
        t, z = scipy.linalg.schur(drift, output="complex")
        return z, z.conj().T, t

    def _solver(self, site_loss: float) -> _MomentSolver:
        drift = _drift_matrix(self.lattice, self.drain, self.gamma, site_loss)
        vecs, vecs_inv, _ = self._eigenbasis
        if vecs is not None:
            mu = -1j * self.spectrum.eigenvalues - 0.5 * site_loss
            return _MomentSolver(drift, self.drain, vecs, vecs_inv, mu)
        z, z_inv, t = self._schur
        return _MomentSolver(drift, self.drain, z, z_inv, t - 0.5 * site_loss * np.eye(len(t)))

    def steady_state(self, noise: SqueezedNoise, site_loss: float = 0.0) -> CovarianceState:
        """Stationary second moments at uniform internal loss ``site_loss``.

        Solves ``D M + M D^T + Gamma*anom*P = 0`` for the anomalous matrix and
        ``conj(D) N + N D^T + Gamma*nbar*P = 0`` for the normal matrix, where
        ``P`` projects on the drain site.  Internal loss enters the drift
        only: its vacuum noise carries no normally-ordered diffusion.

        Without internal loss the drift is singular whenever a mode decouples
        from the drain, so dark modes are detected first and reported by
        index.
        """
        if self.gamma <= 0:
            raise ValueError("steady_state needs gamma > 0")
        if site_loss < 0:
            raise ValueError("site_loss must be >= 0")
        if site_loss == 0.0:
            dark = self.coupling.dark
            if dark:
                raise DarkModeError(
                    dark,
                    f"modes {list(dark)} are dark at drain {self.drain}; "
                    "the steady state is not unique (add site_loss or move the drain)",
                )
            # near-degenerate doublets can hybridize into modes whose relaxation
            # rate falls far below any individual drain rate; below this floor
            # the stationary moments are not resolvable in double precision
            slowest = self.spectrum.min_bright_decay
            if slowest < 1e-10 * self.gamma:
                raise SolverError(
                    f"slowest relaxation rate {slowest:.3e} is below 1e-10 * gamma: "
                    "an effectively dark mode makes the steady state numerically "
                    "unreachable (add site_loss or move the drain)"
                )
        solver = self._solver(site_loss)
        m, res_m = solver.moments(self.gamma * noise.anomalous, "anomalous")
        n, res_n = solver.moments(self.gamma * noise.nbar, "normal")
        residual = max(res_m, res_n)
        if residual > 1e-9 * self.gamma:
            raise SolverError(
                f"stationarity residual {residual:.3e} exceeds 1e-9 * gamma"
            )
        return CovarianceState(normal=n, anomalous=m, residual=residual)


def steady_state(lattice: Lattice, spec: DrainSpec) -> CovarianceState:
    """Stationary second moments of the drained lattice: one solve of a fresh
    :class:`DrainedSystem` (see :meth:`DrainedSystem.steady_state`)."""
    return DrainedSystem(lattice, spec.drain, spec.gamma).steady_state(
        spec.noise, spec.site_loss
    )


def extract_sigma(coupling: DrainCoupling, pairing: ChiralPairing) -> SymmetryMatrix:
    """Pairing matrix of the chiral steady state, built from the eigenmodes.

    ``sigma[m, n] = sum_j psi_j[n] psi_partner(j)[m]``, the eigenmodes taken
    in the coupling's gauge, where every bright drain amplitude is real
    positive and so carries no phase.  For a valid chiral system this matrix
    is unitary, symmetric, and has the drain column of the identity.  Raises
    :class:`PairingError` unless ``pairing.holds``.  Dark modes are allowed as
    long as the pairing maps them onto each other (their phase convention
    drops out of every certified property), but the matrix is then
    basis-dependent within the degenerate subspaces.
    """
    if not pairing.holds:
        raise PairingError(
            "chiral pairing defects too large: "
            f"energy {pairing.energy_defect:.3e} (tol {pairing.energy_tol:.3e}), "
            f"amplitude {pairing.amplitude_defect:.3e} (tol {PAIRING_TOL:.3e})"
        )
    modes = coupling.eig.modes
    sigma = modes[:, pairing.partner] @ modes.T
    return SymmetryMatrix(matrix=sigma, provenance="from_eigenmodes", drain=coupling.drain)


def analytic_chiral_state(
    coupling: DrainCoupling, pairing: ChiralPairing, noise: SqueezedNoise
) -> CovarianceState:
    """Closed-form steady state of a chiral, dark-mode-free lattice.

    Every site holds ``nbar`` photons and the anomalous correlations are
    ``anomalous * sigma`` with ``sigma`` from :func:`extract_sigma`.  Refuses
    (with the defect report) when the pairing does not hold, or when dark
    modes make the steady state non-unique.
    """
    if coupling.dark:
        raise DarkModeError(
            coupling.dark,
            f"modes {list(coupling.dark)} are dark: the chiral closed form "
            "only describes the unique dark-mode-free steady state",
        )
    sigma = extract_sigma(coupling, pairing)
    n_sites = coupling.n_modes
    return CovarianceState(
        normal=noise.nbar * np.eye(n_sites, dtype=complex),
        anomalous=noise.anomalous * sigma.matrix,
        residual=0.0,
    )


def log_purity(state: CovarianceState) -> float:
    """Natural log of the Gaussian purity, ``-N ln 2 - ln(det C)/2``; 0 for pure states."""
    c = quadrature_covariance(state)
    sign, logdet = np.linalg.slogdet(c)
    if sign <= 0:
        raise ValueError("covariance has non-positive determinant; state is unphysical")
    log_mu = float(-state.n_modes * np.log(2.0) - 0.5 * logdet)
    if np.exp(log_mu) > 1.0 + 1e-8:
        raise ValueError(f"purity {np.exp(log_mu)} > 1; covariance is unphysical")
    return min(log_mu, 0.0)


def purity(state: CovarianceState) -> float:
    """Gaussian purity ``2^-N / sqrt(det C)``; 1 exactly for pure states."""
    return float(np.exp(log_purity(state)))


@dataclass(frozen=True)
class BetaModeReport:
    """Occupations of the Bogoliubov modes that should annihilate the state.

    For a chiral dark-mode-free steady state both maxima vanish: the state
    is the joint vacuum of the ``beta`` modes.
    """

    normal: np.ndarray
    anomalous: np.ndarray

    def __post_init__(self):
        self.normal.setflags(write=False)
        self.anomalous.setflags(write=False)

    @property
    def max_normal(self) -> float:
        return float(np.abs(self.normal).max())

    @property
    def max_anomalous(self) -> float:
        return float(np.abs(self.anomalous).max())


def beta_occupations(
    state: CovarianceState,
    coupling: DrainCoupling,
    pairing: ChiralPairing,
    noise: SqueezedNoise,
) -> BetaModeReport:
    """Transform a state into the Bogoliubov basis of the chiral pairing.

    ``beta_i = cosh r b_i - exp(i phi) sinh r bdag_partner(i)``, with ``b``
    the eigenmodes in the coupling's gauge (real positive drain amplitudes);
    the report carries the full ``<betadag beta>`` and ``<beta beta>``
    matrices, whose maxima measure the distance from the joint beta vacuum.
    """
    modes = coupling.eig.modes
    # eigenmode-basis moments: b = Psi^dag a
    nb = modes.T @ state.normal @ modes.conj()
    mb = modes.conj().T @ state.anomalous @ modes.conj()
    p = pairing.partner
    chi = np.exp(1j * noise.phi)
    ch, sh = np.cosh(noise.r), np.sinh(noise.r)
    eye = np.eye(coupling.n_modes)

    nb_pp = nb[np.ix_(p, p)]
    mb_p_rows = mb[p, :]
    mbc = mb.conj()

    beta_normal = (
        ch**2 * nb
        - ch * sh * chi * mbc[p, :].T
        - ch * sh * np.conj(chi) * mb_p_rows
        + sh**2 * (eye + nb_pp.T)
    )
    # delta_{i, partner(j)}, symmetric because the pairing is an involution
    delta_ip = (p[:, None] == np.arange(coupling.n_modes)[None, :]).astype(float)
    beta_anomalous = (
        ch**2 * mb
        - ch * sh * chi * (delta_ip + nb[p, :].T + nb[p, :])
        + sh**2 * chi**2 * mbc[np.ix_(p, p)].T
    )
    return BetaModeReport(normal=beta_normal, anomalous=beta_anomalous)


@dataclass(frozen=True)
class Trajectory:
    """Sampled covariance evolution: ``states[k]`` holds at ``times[k]``."""

    times: np.ndarray
    states: tuple[CovarianceState, ...]

    def __post_init__(self):
        self.times.setflags(write=False)


def evolve(
    lattice: Lattice,
    spec: DrainSpec,
    initial: CovarianceState,
    t_final: float,
    dt: float,
    n_samples: int = 200,
) -> Trajectory:
    """Integrate the covariance equations with a fixed-step RK4 scheme.

    ``dt`` must resolve the drift: ``dt * ||D||_2 < 0.1``.  With no dark
    modes the trajectory converges to :func:`steady_state`; with ``gamma=0``
    and no loss the total photon number is conserved.
    """
    if t_final < 0 or dt <= 0:
        raise ValueError("need t_final >= 0 and dt > 0")
    d = _drift_matrix(lattice, spec.drain, spec.gamma, spec.site_loss)
    dnorm = float(np.linalg.norm(d, 2))
    if dt * dnorm >= 0.1:
        raise ValueError(
            f"dt too coarse: dt * ||D|| = {dt * dnorm:.3f} must stay below 0.1"
        )
    qn, qm = _diffusion(lattice.n_sites, spec.drain, spec.gamma, spec.noise)
    dc = d.conj()
    dt_arr = d.T

    def rhs(n, m):
        return dc @ n + n @ dt_arr + qn, d @ m + m @ dt_arr + qm

    if t_final == 0:
        return Trajectory(
            times=np.zeros(1),
            states=(CovarianceState(normal=initial.normal.copy(),
                                    anomalous=initial.anomalous.copy()),),
        )
    n_steps = max(1, int(np.ceil(t_final / dt)))
    dt = t_final / n_steps
    sample_every = max(1, n_steps // max(1, n_samples - 1))
    bound = 1e3 * max(
        1.0,
        spec.noise.nbar,
        abs(spec.noise.anomalous),
        float(np.abs(initial.normal).max()),
        float(np.abs(initial.anomalous).max()),
    )

    n = initial.normal.astype(complex).copy()
    m = initial.anomalous.astype(complex).copy()
    times = [0.0]
    states = [CovarianceState(normal=n.copy(), anomalous=m.copy())]
    for step in range(1, n_steps + 1):
        k1n, k1m = rhs(n, m)
        k2n, k2m = rhs(n + 0.5 * dt * k1n, m + 0.5 * dt * k1m)
        k3n, k3m = rhs(n + 0.5 * dt * k2n, m + 0.5 * dt * k2m)
        k4n, k4m = rhs(n + dt * k3n, m + dt * k3m)
        n = n + (dt / 6.0) * (k1n + 2 * k2n + 2 * k3n + k4n)
        m = m + (dt / 6.0) * (k1m + 2 * k2m + 2 * k3m + k4m)
        if max(np.abs(n).max(), np.abs(m).max()) > bound:
            raise SolverError(
                f"covariance integration unstable at step {step}; reduce dt"
            )
        if step % sample_every == 0 or step == n_steps:
            times.append(step * dt)
            states.append(
                CovarianceState(
                    normal=0.5 * (n + n.conj().T), anomalous=0.5 * (m + m.T)
                )
            )
    return Trajectory(times=np.asarray(times), states=tuple(states))


def _pairs(mat: np.ndarray) -> np.ndarray:
    """A complex matrix as an (n, m, 2) array of its re, im floats."""
    return np.ascontiguousarray(mat, dtype=complex).view(float).reshape(*mat.shape, 2)


def state_to_dict(state: CovarianceState) -> dict:
    """JSON-ready form with complex entries encoded as [re, im] pairs."""
    return {
        "n_modes": state.n_modes,
        "normal": _pairs(state.normal).tolist(),
        "anomalous": _pairs(state.anomalous).tolist(),
        "residual": state.residual,
    }


_SIGN_BIT = np.int64(-(2**63))


def _json_floats(values: np.ndarray) -> list[str]:
    """``json.dumps``'s spelling of each float: its repr, or NaN/Infinity."""
    text = list(map(float.__repr__, values.tolist()))
    for k in np.flatnonzero(~np.isfinite(values)):
        text[k] = json.dumps(values[k].item())
    return text


def _write_matrix(mat: np.ndarray, fh) -> None:
    """Write a complex matrix as JSON rows of [re, im] pairs, taking the text
    of each float below the diagonal from its mirror's where it can."""
    n, m = mat.shape
    floats = _pairs(mat)
    bits = floats.view(np.int64)
    upper = np.empty((n, m, 2), object)  # texts that later rows still mirror
    row = "[%s]" % ", ".join(["[%s, %s]"] * m)
    for i in range(n):
        k = i if i < m else 0  # entries (i, j < k) have a mirror (j, i)
        upper[i, k:] = np.array(_json_floats(floats[i, k:].ravel()), object).reshape(-1, 2)
        values = []
        if k:
            low, low_bits, mirror_bits = upper[:k, i].copy(), bits[i, :k], bits[:k, i]
            # repr(-x) is repr(x) with its sign toggled for every finite x, -0.0 too
            negated = (low_bits == (mirror_bits ^ _SIGN_BIT)) & np.isfinite(floats[:k, i])
            rest = (low_bits != mirror_bits) & ~negated
            low[negated] = [t[1:] if t[0] == "-" else "-" + t for t in low[negated]]
            low[rest] = _json_floats(floats[i, :k][rest])
            upper[:k, i] = None
            values = low.ravel().tolist()
        fh.write((", " + row if i else row) % tuple(values + upper[i, k:].ravel().tolist()))


def write_state_json(state: CovarianceState, fh) -> None:
    """Write ``json.dumps(state_to_dict(state))`` to a text file, one matrix
    row at a time.

    The moment matrices are structured: the anomalous one is symmetric and
    the normal one Hermitian, to the last bit for solver states, whose
    solves end by symmetrizing.  So the floats on and above the diagonal are
    formatted once each, and a float below it that is bitwise equal to its
    mirror reuses the mirror's text, while one bitwise equal to the mirror's
    negation (the imaginary parts of a Hermitian matrix) takes that text with
    its leading ``-`` toggled.  ``repr(-x)`` is ``repr(x)`` with the sign
    toggled for every finite ``x``, so the bytes are those of the
    ``json.dumps`` route for any state.  Every other float below the diagonal
    is formatted on its own, and NaN and infinities keep ``json``'s
    spellings.  Only the texts that later rows still mirror are held.
    """
    fh.write('{"n_modes": %s' % json.dumps(state.n_modes))
    for key, mat in (("normal", state.normal), ("anomalous", state.anomalous)):
        fh.write(', "%s": [' % key)
        _write_matrix(mat, fh)
        fh.write("]")
    fh.write(', "residual": %s}' % json.dumps(state.residual))


def state_from_dict(data: dict) -> CovarianceState:
    def decode(rows):
        return np.array([[complex(re, im) for re, im in row] for row in rows])

    return CovarianceState(
        normal=decode(data["normal"]),
        anomalous=decode(data["anomalous"]),
        residual=float(data.get("residual", 0.0)),
    )
