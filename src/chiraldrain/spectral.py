"""Eigenmode analysis of a drained lattice.

Diagonalizes the lattice matrix (from the SVD of its hopping block when no
bond or on-site term lies inside either sublattice), characterizes how each
eigenmode couples to the drain site (including the dark modes that decouple
entirely), pairs modes of opposite energy, and builds the non-Hermitian
matrix that generates the first-moment dynamics.  The complex eigenvalues
``lambda = nu - i*gamma/2`` of that matrix are checked against the scalar
consistency condition

    sum_j (Gbar_j / 2) / (gamma/2 + i*(nu - eps_j)) = 1,

which every bright eigenvalue must satisfy.

One drain site makes the dynamical matrix diagonal plus rank one,
``diag(eps) - (i/2) s s^T`` with ``s = sqrt(Gbar)`` (the drain amplitudes,
real positive in the working gauge), so no dense factorization is needed: the
bright eigenvalues are the roots of the consistency condition itself (its
secular equation), found together by Aberth-Ehrlich iteration with each
root stored as its offset ``delta_k = lambda_k - eps_k`` from its own pole,
and the right eigenvectors have the closed form ``s_j / (eps_j - lambda_k)``.
Anchoring keeps full relative precision for nearly-dark modes, whose roots
sit closer to their poles than ``lambda_k`` can resolve in floating point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import Lattice

__all__ = [
    "EigenSystem",
    "DrainCoupling",
    "ChiralPairing",
    "DynamicalSpectrum",
    "SolverError",
    "diagonalize",
    "drain_couplings",
    "chiral_pairing",
    "dynamical_matrix",
    "dynamical_spectrum",
    "degenerate_groups",
    "spectrum_report",
]

# Modes closer in energy than this (relative to the spectral radius) are
# treated as one degenerate subspace.
DEGENERACY_RTOL = 1e-9
# A mode is dark when its drain rate falls below DARK_TOL * Gamma / N.
DARK_TOL = 1e-10
# Chiral pairing holds when max|eps_i + eps_partner(i)| is at most
# PAIRING_TOL * max(1, max|eps|) and partners' drain amplitudes agree to
# PAIRING_TOL; energies below the same scale count as zero modes.
PAIRING_TOL = 1e-8
# A secular root is converged once an Aberth step moves it by at most
# SECULAR_RTOL times its distance to its pole; SolverError past the sweep cap.
SECULAR_RTOL = 1e-10
SECULAR_MAX_SWEEPS = 100
# A dynamical mode's phase is fixed on its first component whose modulus is
# within PEAK_RTOL of the largest: a +-symmetric spectrum makes exact ties,
# which a plain argmax would break by rounding.
PEAK_RTOL = 1e-8


class SolverError(RuntimeError):
    """A dense linear-algebra routine failed or lost too much accuracy."""


@dataclass(frozen=True)
class EigenSystem:
    """Orthonormal eigenbasis of a lattice matrix, sorted by energy.

    ``modes[:, i]`` is the wavefunction of energy ``energies[i]``;
    ``residual`` bounds the max-norm reconstruction defect (see
    :func:`drain_couplings`) and ``degenerate`` lists the index groups of
    flagged degenerate subspaces.
    """

    energies: np.ndarray
    modes: np.ndarray
    residual: float
    degenerate: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        self.energies.setflags(write=False)
        self.modes.setflags(write=False)

    @property
    def n_modes(self) -> int:
        return self.energies.size


@dataclass(frozen=True)
class DrainCoupling:
    """Per-mode coupling to the drain site.

    ``eig`` is the working eigenbasis: within every degenerate subspace the
    basis has been rotated so one mode carries the whole drain weight and
    the rest are exactly dark, and every bright mode's global phase is fixed
    to make its drain amplitude real positive, so ``sqrt(rates)`` is the
    drain amplitude itself and no phase is carried.  ``rates`` holds
    ``Gbar_i = |psi_i[n0]|^2 * Gamma`` with dark entries zeroed.
    """

    eig: EigenSystem
    drain: int
    gamma: float
    rates: np.ndarray
    dark: tuple[int, ...]

    def __post_init__(self):
        self.rates.setflags(write=False)

    @property
    def n_modes(self) -> int:
        return self.eig.n_modes

    @property
    def bright(self) -> np.ndarray:
        mask = np.ones(self.n_modes, dtype=bool)
        mask[list(self.dark)] = False
        return mask


@dataclass(frozen=True)
class ChiralPairing:
    """Involutive pairing of modes with opposite energies.

    ``partner[i]`` is the mode paired with ``i`` (itself for zero modes);
    the defects measure how badly the spectrum violates the pairing:
    ``energy_defect = max |eps_i + eps_partner|`` and ``amplitude_defect``
    the worst mismatch of drain-amplitude magnitudes within a pair.
    ``energy_tol`` is ``PAIRING_TOL * max(1, max|eps|)``.
    """

    partner: np.ndarray
    energy_defect: float
    amplitude_defect: float
    energy_tol: float

    def __post_init__(self):
        self.partner.setflags(write=False)
        p = self.partner
        if not np.array_equal(p[p], np.arange(p.size)):
            raise ValueError("pairing is not an involution")

    @property
    def holds(self) -> bool:
        """Both defects within the pairing rule (see ``PAIRING_TOL``)."""
        return self.energy_defect <= self.energy_tol and self.amplitude_defect <= PAIRING_TOL


def degenerate_groups(energies: np.ndarray, threshold: float) -> list[list[int]]:
    """Cluster sorted energies into groups separated by less than threshold."""
    groups: list[list[int]] = []
    start = 0
    n = energies.size
    for i in range(1, n + 1):
        if i == n or energies[i] - energies[i - 1] > threshold:
            groups.append(list(range(start, i)))
            start = i
    return groups


def _eigensystem(h: np.ndarray, energies: np.ndarray, modes: np.ndarray) -> EigenSystem:
    """Eigenbasis of ``h``, its defect, and the flagged degenerate subspaces."""
    residual = float(np.abs(h - (modes * energies) @ modes.conj().T).max())
    scale = max(float(np.abs(energies).max()), 1e-300)
    groups = degenerate_groups(energies, DEGENERACY_RTOL * scale)
    flagged = tuple(tuple(g) for g in groups if len(g) > 1)
    return EigenSystem(energies=energies, modes=modes, residual=residual, degenerate=flagged)


def _sublattice_split(lattice: Lattice) -> np.ndarray | None:
    """Mask of the sublattice-0 sites when ``H`` has no bond inside either
    sublattice (both diagonal blocks exactly zero), else ``None``."""
    labels = lattice.sublattice_labels
    if labels is None:
        return None
    a = labels == 0
    if a.all() or not a.any():
        return None
    h = lattice.hamiltonian
    if h[np.ix_(a, a)].any() or h[np.ix_(~a, ~a)].any():
        return None
    return a


def _chiral_modes(h: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of ``H = [[0, C], [C^dag, 0]]`` from the SVD ``C = U S V^dag``.

    Each singular triple gives energies ``-s`` and ``+s`` with modes
    ``(u, -v)/sqrt(2)`` and ``(u, v)/sqrt(2)``; the ``|N_A - N_B|`` singular
    vectors of the larger side that ``C`` does not reach are zero modes.
    Singular values come in descending order, so ``[-s, 0..., s reversed]``
    is already ascending.
    """
    b = ~a
    u, s, vh = np.linalg.svd(h[np.ix_(a, b)])
    v = vh.conj().T
    n, k = h.shape[0], s.size
    energies = np.concatenate([-s, np.zeros(n - 2 * k), s[::-1]])
    neg = np.arange(k)
    pos, zero = n - 1 - neg, np.arange(k, n - k)
    u_half, v_half = np.sqrt(0.5) * u[:, :k], np.sqrt(0.5) * v[:, :k]
    modes = np.zeros(h.shape, dtype=complex)
    modes[np.ix_(a, neg)] = modes[np.ix_(a, pos)] = u_half
    modes[np.ix_(b, pos)] = v_half
    modes[np.ix_(b, neg)] = -v_half
    if u.shape[1] > k:  # C^dag annihilates the rest of U
        modes[np.ix_(a, zero)] = u[:, k:]
    else:  # C annihilates the rest of V (none when N_A = N_B)
        modes[np.ix_(b, zero)] = v[:, k:]
    return energies, modes


def diagonalize(lattice: Lattice) -> EigenSystem:
    """Full eigendecomposition of the lattice matrix, energies ascending.

    A lattice whose sublattice labels split ``H`` into ``[[0, C], [C^dag, 0]]``
    (no bond inside either sublattice, no on-site potential) is diagonalized
    from the SVD of its ``N_A x N_B`` hopping block ``C``: energies ``+-s``
    and modes ``(u, +-v)/sqrt(2)``, plus ``|N_A - N_B|`` exact zero modes.
    Every other lattice, disordered ones included, goes through ``eigh`` of
    the full matrix.  Either way the reconstruction residual is measured.
    """
    h = lattice.hamiltonian
    a = _sublattice_split(lattice)
    try:
        energies, modes = np.linalg.eigh(h) if a is None else _chiral_modes(h, a)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"eigendecomposition failed: {exc}") from exc
    return _eigensystem(h, energies, modes)


def _rotate_degenerate(modes: np.ndarray, drain: int, groups) -> np.ndarray:
    """Within each degenerate group, concentrate the drain weight on one mode."""
    out = modes.copy()
    for group in groups:
        amps = out[drain, group]
        weight = np.linalg.norm(amps)
        if weight == 0.0:
            continue
        m = len(group)
        u = amps.conj() / weight
        q, _ = np.linalg.qr(np.column_stack([u, np.eye(m, dtype=complex)]))
        # qr fixes the first column only up to phase; align it with u exactly
        align = np.vdot(q[:, 0], u)
        q[:, 0] = q[:, 0] * (align / abs(align))
        out[:, group] = out[:, group] @ q
    return out


def drain_couplings(eig: EigenSystem, drain: int, gamma: float) -> DrainCoupling:
    """Couple an eigenbasis to the drain and classify dark modes.

    Mode ``i`` is flagged dark when ``Gbar_i < DARK_TOL * gamma / N``.
    Degenerate subspaces are first rotated so that at most one mode per
    subspace is bright; the completeness sum ``sum_i Gbar_i = gamma`` is
    preserved by that rotation.  It moves ``Psi E Psi^dag`` by at most the
    largest group spread ``E[g[-1]] - E[g[0]]``, added to ``eig.residual``.
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    n = eig.n_modes
    if not 0 <= drain < n:
        raise IndexError(f"drain index {drain} out of range 0..{n - 1}")

    modes = _rotate_degenerate(eig.modes, drain, eig.degenerate)
    ref = modes[drain, :].copy()
    dark_mask = np.abs(ref) ** 2 * gamma < DARK_TOL * gamma / max(n, 1)

    # fix global phases: bright modes real positive at the drain, dark modes
    # real positive at their first largest component; np.hypot, not np.abs,
    # whose vectorized modulus can differ in the last bit and move the outputs
    dark = np.nonzero(dark_mask)[0]
    ref[dark] = modes[np.argmax(np.abs(modes[:, dark]), axis=0), dark]
    mag = np.hypot(ref.real, ref.imag)
    fix = mag > 0
    modes[:, fix] *= ref[fix].conj() / mag[fix]

    rates = np.where(dark_mask, 0.0, np.abs(modes[drain, :]) ** 2 * gamma)
    energies = eig.energies
    spread = max((energies[g[-1]] - energies[g[0]] for g in eig.degenerate), default=0.0)
    rotated = EigenSystem(
        energies=energies.copy(),
        modes=modes,
        residual=eig.residual + float(spread),
        degenerate=eig.degenerate,
    )
    return DrainCoupling(
        eig=rotated,
        drain=drain,
        gamma=gamma,
        rates=rates,
        dark=tuple(int(i) for i in dark),
    )


def chiral_pairing(coupling: DrainCoupling) -> ChiralPairing:
    """Greedily pair modes of opposite energy and report the defects.

    Modes with ``|eps|`` below the pairing's ``energy_tol`` are self-paired;
    the rest are matched from the spectrum edges inward, breaking energy ties
    so that equally-coupled partners line up.  An unpairable leftover is
    self-paired and shows up as an energy defect of ``2|eps|`` rather than an
    exception.
    """
    energies = coupling.eig.energies
    n = energies.size
    tol = PAIRING_TOL * max(1.0, float(np.abs(energies).max()))
    # Order degenerate clusters so the inward sweep pairs bright with bright
    # and dark with dark: bright first on the negative side, bright last on
    # the positive side.
    order = np.arange(n)
    for group in coupling.eig.degenerate:
        cluster = np.asarray(group)
        rates = coupling.rates[cluster]
        key = -rates if energies[cluster].mean() < 0 else rates
        order[cluster] = cluster[np.argsort(key, kind="stable")]
    partner = np.full(n, -1, dtype=int)
    energy_defect = 0.0
    i, j = 0, n - 1
    while i <= j:
        a, b = order[i], order[j]
        if abs(energies[a]) < tol:
            partner[a] = a
            energy_defect = max(energy_defect, 2 * abs(energies[a]))
            i += 1
            continue
        if abs(energies[b]) < tol:
            partner[b] = b
            energy_defect = max(energy_defect, 2 * abs(energies[b]))
            j -= 1
            continue
        if i == j:
            partner[a] = a
            energy_defect = max(energy_defect, 2 * abs(energies[a]))
            break
        partner[a] = b
        partner[b] = a
        energy_defect = max(energy_defect, abs(energies[a] + energies[b]))
        i += 1
        j -= 1
    mags = np.sqrt(coupling.rates / coupling.gamma) if coupling.gamma > 0 else np.abs(
        coupling.eig.modes[coupling.drain, :]
    )
    amplitude_defect = float(np.abs(mags - mags[partner]).max()) if n else 0.0
    return ChiralPairing(
        partner=partner,
        energy_defect=float(energy_defect),
        amplitude_defect=amplitude_defect,
        energy_tol=tol,
    )


def dynamical_matrix(coupling: DrainCoupling) -> np.ndarray:
    """Generator of the first-moment dynamics in the eigenmode basis.

    ``A[i, j] = delta_ij eps_i - (i/2) sqrt(Gbar_i Gbar_j)``, complex
    symmetric because the drain amplitudes are real positive; dark modes
    have zero rate, so their rows and columns decouple with ``A[i, i] = eps_i``.
    """
    s = np.sqrt(coupling.rates)
    return np.diag(coupling.eig.energies.astype(complex)) - 0.5j * np.outer(s, s)


@dataclass(frozen=True)
class DynamicalSpectrum:
    """Eigenvalues ``lambda = nu - i*gamma/2`` of the dynamical matrix.

    Bright eigenvalues come first, ordered by real part, then the dark ones.
    Dark eigenvalues are the bare energies, exactly; every bright
    eigenvalue carries its consistency-condition residual (``nan`` for dark
    entries, where the condition does not apply), evaluated at the root's
    offset from its pole rather than at the rounded ``lambda``.
    ``modes[:, k]`` is the right eigenvector, of unit 2-norm with its
    largest-modulus component (the first one within ``PEAK_RTOL`` of it)
    real positive.
    """

    eigenvalues: np.ndarray
    is_dark: np.ndarray
    residuals: np.ndarray
    modes: np.ndarray

    def __post_init__(self):
        for arr in (self.eigenvalues, self.is_dark, self.residuals, self.modes):
            arr.setflags(write=False)

    @property
    def decay_rates(self) -> np.ndarray:
        """gamma_k = -2 Im(lambda_k) for every eigenvalue."""
        return -2.0 * self.eigenvalues.imag

    @property
    def min_bright_decay(self) -> float:
        """Smallest relaxation rate among bright modes: the slow bottleneck."""
        bright = ~self.is_dark
        if not bright.any():
            return np.inf
        return float(self.decay_rates[bright].min())


def _anchored_gaps(energies: np.ndarray, delta: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``lambda_k - eps_j`` as ``(eps_k - eps_j) + delta_k`` for the roots in ``rows``.

    For ``j = k`` this is ``delta_k`` itself, not ``(eps_k + delta_k) - eps_k``,
    so a root within ``|delta_k| << |eps_k|`` of its pole keeps full relative
    precision in its distance to that pole.
    """
    return (energies[rows, None] - energies[None, :]) + delta[rows, None]


def _secular_roots(energies: np.ndarray, half_rates: np.ndarray) -> np.ndarray:
    """Offsets ``delta_k = lambda_k - eps_k`` of the roots of the secular equation.

    ``h(lambda) = 1 + i sum_j a_j / (lambda - eps_j)`` with ``a_j = Gbar_j / 2``
    has one root per pole ``eps_k``; all of them are refined together by
    Aberth-Ehrlich sweeps.  Root ``k`` starts at the root of its one-pole
    model ``1 + i a_k / delta + i r_k`` with the other poles frozen at
    ``r_k = sum_{j != k} a_j / (eps_k - eps_j)``: ``delta_k = -i a_k`` at weak
    coupling, between the poles at strong coupling.  The start is tilted by
    ``1e-3`` of its size along the real axis, because the sweeps commute with
    the chiral map ``lambda -> -conj(lambda)``, and a mirror-symmetric pair of
    starts could never separate onto two roots on the imaginary axis.

    The correction
    ``h / (h (sum_j 1/(lambda_k - eps_j) - sum_{m != k} 1/(lambda_k - lambda_m)) + h')``
    is Newton's step on ``det(lambda - A) / prod_{m != k} (lambda - lambda_m)``,
    and carries no division by ``h``, so it is zero at an exact root.  A root
    leaves the sweeps once a step moved it by at most ``SECULAR_RTOL |delta_k|``.
    """
    nb = energies.size
    pole_inv = energies[:, None] - energies[None, :]
    np.fill_diagonal(pole_inv, np.inf)
    np.reciprocal(pole_inv, out=pole_inv)
    delta = (1e-3 - 1j) * half_rates / (1.0 + 1j * (pole_inv @ half_rates))
    del pole_inv
    active = np.arange(nb)
    for _ in range(SECULAR_MAX_SWEEPS):
        gaps = _anchored_gaps(energies, delta, active)
        inv = 1.0 / gaps
        h = 1.0 + 1j * (inv @ half_rates)
        # lambda_k - lambda_m = (lambda_k - eps_m) - delta_m; the own root
        # (m = k) is excluded by an infinite gap
        gaps -= delta
        gaps[np.arange(active.size), active] = np.inf
        repulsion = inv.sum(axis=1) - np.reciprocal(gaps, out=gaps).sum(axis=1)
        dh = -1j * (np.square(inv, out=inv) @ half_rates)
        corr = h / (h * repulsion + dh)
        delta[active] -= corr
        # written so that a NaN step keeps its root active
        active = active[~(np.abs(corr) <= SECULAR_RTOL * np.abs(delta[active]))]
        if not active.size:
            return delta
    raise SolverError(
        f"secular equation: {active.size} of {nb} roots did not converge "
        f"in {SECULAR_MAX_SWEEPS} Aberth sweeps"
    )


def _peak_components(vecs: np.ndarray) -> np.ndarray:
    """Per row, the first component within ``PEAK_RTOL`` of the row's largest modulus."""
    mags = np.abs(vecs)
    return np.argmax(mags >= (1.0 - PEAK_RTOL) * mags.max(axis=1, keepdims=True), axis=1)


def dynamical_spectrum(
    a_matrix: np.ndarray | DrainCoupling | None = None,
    coupling: DrainCoupling | None = None,
) -> DynamicalSpectrum:
    """Diagonalize the dynamical matrix, keeping dark eigenvalues exact.

    The dark block is diagonal by construction, so it is deflated and its
    eigenvalues reported as the bare mode energies.  The bright block is
    ``diag(eps) - (i/2) s s^T``, diagonal plus rank one: its eigenvalues are
    the roots of the consistency condition (its secular equation), found by
    ``_secular_roots`` as offsets from their own poles, and its right
    eigenvectors have the closed form ``u_k,j ~ s_j / (eps_j - lambda_k)``,
    normalized to unit 2-norm with the largest-modulus component real
    positive (the LAPACK convention; ties within ``PEAK_RTOL`` go to the
    first component).  Eigenvectors and consistency
    residuals are evaluated at the anchored roots, so a root next to a
    nearly-dark pole is not rounded to ``eps_k + delta_k`` first.

    Call it as ``dynamical_spectrum(coupling)``.  The two-argument form
    ``dynamical_spectrum(a_matrix, coupling)`` is deprecated: ``a_matrix``,
    the dense ``dynamical_matrix(coupling)``, is ignored, since the structure
    is read from ``coupling``.
    """
    if coupling is None:
        coupling = a_matrix
    if not isinstance(coupling, DrainCoupling):
        raise TypeError("dynamical_spectrum needs a DrainCoupling")
    n = coupling.n_modes
    bright = coupling.bright
    energies = coupling.eig.energies
    eigenvalues = np.zeros(n, dtype=complex)
    residuals = np.full(n, np.nan)
    modes = np.zeros((n, n), dtype=complex)
    is_dark = np.zeros(n, dtype=bool)

    dark = np.nonzero(~bright)[0]
    nb = n - dark.size
    eigenvalues[nb:] = energies[dark]
    modes[dark, np.arange(nb, n)] = 1.0
    is_dark[nb:] = True

    s = np.sqrt(coupling.rates)
    if nb:
        half_rates = 0.5 * coupling.rates[bright]
        bright_energies = energies[bright]
        delta = _secular_roots(bright_energies, half_rates)
        vals = bright_energies + delta
        order = np.argsort(vals.real, kind="stable")
        inv = np.reciprocal(_anchored_gaps(bright_energies, delta, order))
        # |sum_j a_j / (i (lambda_k - eps_j)) - 1|, the consistency condition
        residuals[:nb] = np.abs(-1j * (inv @ half_rates) - 1.0)
        # row k becomes u_k,j ~ s_j / (eps_j - lambda_k), then is normalized
        vecs = np.multiply(inv, s[bright], out=inv)
        peak = (np.arange(nb), _peak_components(vecs))
        vecs *= (vecs[peak].conj() / np.abs(vecs[peak]) / np.linalg.norm(vecs, axis=1))[:, None]
        vecs[peak] = vecs[peak].real
        eigenvalues[:nb] = vals[order]
        modes[np.ix_(bright, range(nb))] = vecs.T

    return DynamicalSpectrum(
        eigenvalues=eigenvalues, is_dark=is_dark, residuals=residuals, modes=modes
    )


def spectrum_report(coupling: DrainCoupling, spectrum: DynamicalSpectrum) -> dict:
    """JSON-ready summary of the mode structure at a drain."""
    return {
        "drain": coupling.drain,
        "gamma": coupling.gamma,
        "energies": coupling.eig.energies.tolist(),
        "drain_rates": coupling.rates.tolist(),
        "dark_modes": list(coupling.dark),
        "dynamical_eigenvalues": [
            {"nu": float(v.real), "gamma": float(-2 * v.imag)} for v in spectrum.eigenvalues
        ],
        "consistency_residuals": [
            None if np.isnan(r) else float(r) for r in spectrum.residuals
        ],
        "min_bright_decay": None
        if np.isinf(spectrum.min_bright_decay)
        else spectrum.min_bright_decay,
    }
