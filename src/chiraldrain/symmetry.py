"""Named symmetry matrices and certification of the chiral relation.

A unitary symmetric matrix ``sigma`` certifies the generalized chiral
structure of a lattice matrix ``H`` through one of two equivalent-looking
relations:

* particle-hole form: ``sigma^dag H sigma = -conj(H)`` -- the form tied to
  the steady-state correlations, whose drain column must additionally be a
  unit vector;
* chiral form: ``sigma^dag H sigma = -H`` -- the time-reversal-symmetric
  variant, which coincides with the first whenever ``H`` is real.

Both residuals are always reported; a certification passes when either
relation holds (together with unitarity and symmetry of ``sigma``, and the
drain-column constraint when a drain is specified).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import Lattice, Site, build_hofstadter, hofstadter_sites
from .spectral import EigenSystem, _eigensystem

__all__ = [
    "SymmetryMatrix",
    "SymmetryReport",
    "sigma_bipartite",
    "sigma_inversion",
    "sigma_hofstadter",
    "check_symmetry",
    "phi_zero_eigenmodes",
]

PASS_RTOL = 1e-9

HOFSTADTER_VARIANTS = ("z0", "0z", "zz")


@dataclass(frozen=True)
class SymmetryMatrix:
    """A candidate symmetry matrix with its construction provenance.

    ``drain`` records the site family the matrix is tied to, when any: the
    drain column of a steady-state pairing matrix is constrained to the
    corresponding unit vector.
    """

    matrix: np.ndarray
    provenance: str
    drain: int | None = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"sigma must be square, got {m.shape}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n_sites(self) -> int:
        return self.matrix.shape[0]

    def unitarity_defect(self) -> float:
        m = self.matrix
        return float(np.abs(m @ m.conj().T - np.eye(self.n_sites)).max())

    def symmetry_defect(self) -> float:
        return float(np.abs(self.matrix - self.matrix.T).max())


def sigma_bipartite(sublattice) -> SymmetryMatrix:
    """Diagonal sign matrix ``diag((-1)^s_n)`` from sublattice labels."""
    labels = np.asarray(sublattice, dtype=int)
    if labels.ndim != 1 or labels.size == 0:
        raise ValueError("sublattice labels must form a non-empty 1D sequence")
    signs = np.where(labels % 2 == 0, 1.0, -1.0)
    return SymmetryMatrix(matrix=np.diag(signs).astype(complex), provenance="bipartite")


def sigma_inversion(
    sites: tuple[Site, ...],
    signed: bool = False,
    center: tuple[int, ...] | None = None,
) -> SymmetryMatrix:
    """Inversion (reflection through a fixed site) as a permutation matrix.

    ``sigma[m, n] = delta(coord_m, 2*center - coord_n)``, optionally signed
    by the sublattice label, ``(-1)^s_n``.  The site set must be closed
    under the reflection and contain the fixed point.
    """
    coords = [s.coord for s in sites]
    if any(c is None for c in coords):
        raise ValueError("inversion needs coordinates on every site")
    dim = len(coords[0])
    if center is None:
        center = tuple(0 for _ in range(dim))
    index = {c: i for i, c in enumerate(coords)}
    if tuple(center) not in index:
        raise ValueError(f"no site at the inversion center {tuple(center)}")
    n = len(sites)
    sigma = np.zeros((n, n), dtype=complex)
    labels = [s.sublattice for s in sites]
    if signed and any(l is None for l in labels):
        raise ValueError("signed inversion needs sublattice labels")
    for s in sites:
        mirrored = tuple(2 * c0 - c for c0, c in zip(center, s.coord))
        if mirrored not in index:
            raise ValueError(f"site set is not closed under inversion: {s.coord} -> {mirrored}")
        sign = (-1.0) ** labels[s.index] if signed else 1.0
        sigma[index[mirrored], s.index] = sign
    provenance = "bipartite_inversion" if signed else "inversion"
    return SymmetryMatrix(matrix=sigma, provenance=provenance, drain=index[tuple(center)])


def sigma_hofstadter(variant: str, half_size: int, flux: float = 0.0) -> SymmetryMatrix:
    """The three high-symmetry-drain pairing matrices of the flux lattice.

    Keyed by the drain-site family on the (2M+1)x(2M+1) grid (site ordering
    as produced by :func:`chiraldrain.lattice.build_hofstadter`):

    * ``"z0"`` -- drain on the x axis: y-mirror with sign ``(-1)^(x+y)``;
    * ``"0z"`` -- drain on the y axis: x-mirror with sign ``(-1)^(x+y)``;
    * ``"zz"`` -- drain on the diagonal: (x,y) -> (y,x) with
      ``(-1)^(x+y) exp(i*flux*x*y)``.
    """
    if variant not in HOFSTADTER_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {HOFSTADTER_VARIANTS}")
    sites = hofstadter_sites(half_size)
    index = {s.coord: s.index for s in sites}
    n = len(sites)
    sigma = np.zeros((n, n), dtype=complex)
    for s in sites:
        x, y = s.coord
        sign = (-1.0) ** (x + y)
        if variant == "z0":
            sigma[index[(x, -y)], s.index] = sign
        elif variant == "0z":
            sigma[index[(-x, y)], s.index] = sign
        else:
            sigma[index[(y, x)], s.index] = sign * np.exp(1j * flux * x * y)
    return SymmetryMatrix(matrix=sigma, provenance=f"hofstadter_{variant}")


@dataclass(frozen=True)
class SymmetryReport:
    """Residuals and verdict of a symmetry certification.

    ``relation`` names the relation that held ("particle_hole" or
    "chiral"), or is None when neither did.
    """

    provenance: str
    particle_hole_residual: float
    chiral_residual: float
    unitarity_residual: float
    symmetry_residual: float
    drain_residual: float | None
    tolerance: float
    passed: bool
    relation: str | None

    def to_dict(self) -> dict:
        return {
            "provenance": self.provenance,
            "particle_hole_residual": self.particle_hole_residual,
            "chiral_residual": self.chiral_residual,
            "unitarity_residual": self.unitarity_residual,
            "symmetry_residual": self.symmetry_residual,
            "drain_residual": self.drain_residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "relation": self.relation,
        }


def check_symmetry(
    sigma: SymmetryMatrix, lattice: Lattice, drain: int | None = None
) -> SymmetryReport:
    """Certify a candidate sigma against a lattice matrix.

    Reports max-norm residuals of both symmetry relations, the unitarity and
    symmetry of sigma itself, and (when ``drain`` is given) the deviation of
    the drain column from the unit vector.  A PASS needs unitarity,
    symmetry, at least one relation, and the drain constraint, all below
    ``PASS_RTOL * max(1, |H|)`` (plain ``PASS_RTOL`` for the sigma-only
    checks), which the report records as ``tolerance``.
    """
    h = lattice.hamiltonian
    if sigma.n_sites != lattice.n_sites:
        raise ValueError(
            f"sigma is {sigma.n_sites}x{sigma.n_sites} but the lattice has "
            f"{lattice.n_sites} sites"
        )
    m = sigma.matrix
    transformed = m.conj().T @ h @ m
    ph = float(np.abs(transformed + h.conj()).max())
    chiral = float(np.abs(transformed + h).max())
    unit = sigma.unitarity_defect()
    symm = sigma.symmetry_defect()
    scale = max(1.0, float(np.abs(h).max()))
    drain_res = None
    if drain is not None:
        drain = lattice.site_index(drain)
        e = np.zeros(lattice.n_sites)
        e[drain] = 1.0
        drain_res = float(np.abs(m[:, drain] - e).max())
    ph_ok = ph <= PASS_RTOL * scale
    chiral_ok = chiral <= PASS_RTOL * scale
    relation = "particle_hole" if ph_ok else ("chiral" if chiral_ok else None)
    passed = (
        unit <= PASS_RTOL
        and symm <= PASS_RTOL
        and relation is not None
        and (drain_res is None or drain_res <= PASS_RTOL)
    )
    return SymmetryReport(
        provenance=sigma.provenance,
        particle_hole_residual=ph,
        chiral_residual=chiral,
        unitarity_residual=unit,
        symmetry_residual=symm,
        drain_residual=drain_res,
        tolerance=PASS_RTOL,
        passed=passed,
        relation=relation,
    )


def phi_zero_eigenmodes(half_size: int, hopping: float = 1.0) -> EigenSystem:
    """Analytic eigenbasis of the zero-flux square lattice.

    The modes are products of open-chain standing waves,
    ``sin(k(x+M+1)) sin(q(y+M+1)) / (M+1)`` for
    ``k, q = pi/(2(M+1)) * {1, ..., 2M+1}``, with energies
    ``-2J(cos k + cos q)``.  The spectrum is highly degenerate, so
    comparisons against numerics should go through spectral projectors.
    """
    if half_size < 1:
        raise ValueError("half_size must be >= 1")
    m = half_size
    sites = hofstadter_sites(m)
    length = 2 * m + 1
    ks = np.pi / (2 * (m + 1)) * np.arange(1, 2 * m + 2)
    xs = np.array([s.coord[0] for s in sites])
    ys = np.array([s.coord[1] for s in sites])
    n = length * length
    modes = np.zeros((n, n), dtype=complex)
    energies = np.zeros(n)
    col = 0
    for k in ks:
        for q in ks:
            modes[:, col] = np.sin(k * (xs + m + 1)) * np.sin(q * (ys + m + 1)) / (m + 1)
            energies[col] = -2.0 * hopping * (np.cos(k) + np.cos(q))
            col += 1
    order = np.argsort(energies, kind="stable")
    energies = energies[order]
    modes = modes[:, order]
    h = build_hofstadter(m, hopping, 0.0).hamiltonian
    return _eigensystem(h, energies, modes)
