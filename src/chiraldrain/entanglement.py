"""Two-site entanglement and nullifier structure of Gaussian states.

Entanglement between two sites is measured by the logarithmic negativity
``E_N = max(0, -ln(2*nu))`` where ``nu`` is the smallest symplectic
eigenvalue of the partially transposed two-mode covariance ``C^PT`` (natural
log, vacuum variance 1/2).  It is read off the Hermitian ``L^T (i Omega) L``,
whose eigenvalues are ``+-nu`` for the Cholesky factor ``C^PT = L L^T``, and
not from the local invariants: their discriminant ``(nu_+^2 - nu_-^2)^2``
vanishes for degenerate spectra, where its square root turns rounding into
errors near 1e-8 (uncorrelated pure sites).  For the square-lattice
steady states whose pairing matrix maps (x, y) to (y, x), the headline
figure of merit is the average of ``E_N`` over all mirrored pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import Lattice
from .steady import CovarianceState, SqueezedNoise, quadrature_covariance, symplectic_form
from .symmetry import SymmetryMatrix

__all__ = [
    "TwoModeCovariance",
    "NullifierMatrix",
    "reduced_covariance",
    "log_negativity",
    "mirrored_pair_average",
    "nullifier_matrix",
    "nullifier_variances",
]

# Interleaved (x_m, p_m, x_n, p_n) symplectic form for two modes.
_OMEGA4 = np.kron(np.eye(2), symplectic_form(1))
# Reorders quadrature_covariance's (x_m, x_n, p_m, p_n) into that order; an involution.
_INTERLEAVE = [0, 2, 1, 3]
# Sign pattern of the partial transposition p_n -> -p_n on a covariance in that order.
_TRANSPOSE_SIGNS = np.outer([1, 1, 1, -1], [1, 1, 1, -1])


@dataclass(frozen=True)
class TwoModeCovariance:
    """4x4 quadrature covariance of a site pair, in (x_m, p_m, x_n, p_n) order."""

    cov: np.ndarray
    pair: tuple[int, int]

    def __post_init__(self):
        self.cov.setflags(write=False)

    def physicality_margin(self) -> float:
        return float(np.linalg.eigvalsh(self.cov + 0.5j * _OMEGA4).min())


def reduced_covariance(state: CovarianceState, m: int, n: int) -> TwoModeCovariance:
    """Exact two-mode marginal of a Gaussian state."""
    n_modes = state.n_modes
    if m == n:
        raise ValueError("need two distinct sites")
    for idx in (m, n):
        if not 0 <= idx < n_modes:
            raise IndexError(f"site {idx} out of range 0..{n_modes - 1}")
    cov = quadrature_covariance(state, [m, n])[np.ix_(_INTERLEAVE, _INTERLEAVE)]
    return TwoModeCovariance(cov=cov, pair=(m, n))


def _log_negativities(cov: np.ndarray, pairs: list) -> np.ndarray:
    """Logarithmic negativity of each pair marginal in a ``(P, 4, 4)`` stack.

    ``pairs[k]`` names the sites of ``cov[k]``; the first pair whose marginal
    is unphysical is named in the ValueError raised for it.
    """
    margins = np.linalg.eigvalsh(cov + 0.5j * _OMEGA4).min(axis=1)
    bad = np.flatnonzero(margins < -1e-8)
    if bad.size:
        raise ValueError(
            f"two-mode covariance of pair {tuple(pairs[bad[0]])} is unphysical "
            f"(margin {margins[bad[0]]:.3e})"
        )
    # partial transposition flips p_n; the Hermitian L^T (i Omega) L of the
    # Cholesky factor C^PT = L L^T has the eigenvalues +-nu
    chol = np.linalg.cholesky(cov * _TRANSPOSE_SIGNS)
    nu = np.linalg.eigvalsh(np.swapaxes(chol, 1, 2) @ (1j * _OMEGA4) @ chol)[:, 2]
    return np.maximum(0.0, -np.log(2.0 * nu))


def log_negativity(state: CovarianceState, m: int, n: int) -> float:
    """Logarithmic negativity of the (m, n) marginal.

    Computed on the canonically ordered pair, so ``E_N(m, n) == E_N(n, m)``
    exactly.  Raises when the marginal itself is unphysical.
    """
    reduced = reduced_covariance(state, min(m, n), max(m, n))
    return float(_log_negativities(reduced.cov[None], [reduced.pair])[0])


def _square_grid(lattice: Lattice) -> dict[tuple[int, int], int]:
    coords = {}
    for s in lattice.sites:
        if s.coord is None or len(s.coord) != 2:
            raise ValueError("mirrored-pair average needs 2D coordinates on every site")
        coords[s.coord] = s.index
    side = int(round(np.sqrt(lattice.n_sites)))
    if side * side != lattice.n_sites:
        raise ValueError(f"{lattice.n_sites} sites do not form a square grid")
    half = (side - 1) // 2
    expected = {(x, y) for x in range(-half, half + 1) for y in range(-half, half + 1)}
    if set(coords) != expected or side != 2 * half + 1:
        raise ValueError("sites do not cover a centered (2M+1)x(2M+1) grid")
    return coords


def mirrored_pair_average(state: CovarianceState, lattice: Lattice) -> float:
    """Entanglement per mirrored pair on a centered square lattice.

    ``ln(sqrt(2)) / (N - sqrt(N)) * sum_{x != y} E_N[(x, y), (y, x)]``, the
    ordered sum running over all off-diagonal coordinates, so each
    unordered mirrored pair is counted twice.
    """
    coords = _square_grid(lattice)
    n = lattice.n_sites
    # one canonically ordered (m < n) row per unordered pair, counted twice below
    pairs = np.sort([(idx, coords[(y, x)]) for (x, y), idx in coords.items() if x > y], axis=1)
    cov = quadrature_covariance(state, pairs)[:, _INTERLEAVE][:, :, _INTERLEAVE]
    total = 2.0 * _log_negativities(cov, pairs.tolist()).sum()
    return float(np.log(np.sqrt(2.0)) / (n - np.sqrt(n)) * total)


@dataclass(frozen=True)
class NullifierMatrix:
    """Candidate nullifier coefficients ``p_m - sum_n A[m, n] x_n``.

    Built deterministically from a pairing matrix and the squeezing as
    ``(I + tanh r Re[e^{i phi} sigma]) (tanh r Im[e^{i phi} sigma])``.
    """

    matrix: np.ndarray
    r: float
    phi: float

    def __post_init__(self):
        self.matrix.setflags(write=False)


def nullifier_matrix(sigma: SymmetryMatrix, noise: SqueezedNoise) -> NullifierMatrix:
    """Evaluate the graph-state nullifier formula for a pairing matrix."""
    t = np.tanh(noise.r)
    rotated = np.exp(1j * noise.phi) * sigma.matrix
    mat = (np.eye(sigma.n_sites) + t * rotated.real) @ (t * rotated.imag)
    return NullifierMatrix(matrix=mat, r=noise.r, phi=noise.phi)


def nullifier_variances(state: CovarianceState, nullifier: NullifierMatrix) -> np.ndarray:
    """Variance of each candidate nullifier in the given Gaussian state.

    With a correct nullifier matrix the variances drop below the vacuum
    value 1/2; with the zero matrix they are just the momentum variances.
    """
    a = nullifier.matrix
    n = state.n_modes
    if a.shape != (n, n):
        raise ValueError(f"nullifier is {a.shape}, state has {n} modes")
    # each nullifier is the row of [-A, I] acting on (x..., p...)
    rows = np.hstack([-a, np.eye(n)])
    return ((rows @ quadrature_covariance(state)) * rows).sum(axis=1)
