"""Construction and validation of finite tight-binding lattices.

A lattice is a Hermitian matrix ``H`` over a set of sites: diagonal entries
are on-site potentials, off-diagonal entries are hopping amplitudes.  All
energies are expressed in units of the nominal hopping scale ``J = 1``; the
drain and loss rates used elsewhere in the package share those units.

Builders are pure functions of their parameters (and seed, where one is
taken), and every returned :class:`Lattice` is immutable, so values can be
shared freely across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Site",
    "Lattice",
    "LatticeDiagnostics",
    "build_chain",
    "build_hofstadter",
    "build_bipartite_random",
    "add_disorder",
    "validate",
    "hofstadter_sites",
    "lattice_to_dict",
    "lattice_from_dict",
    "save_lattice",
    "load_lattice",
]

# Builders guarantee hermiticity to this tolerance, relative to max(1, |H|).
HERMITICITY_RTOL = 1e-12
# validate() counts an off-diagonal entry as a bond above this, relative to max(1, |H|).
BOND_RTOL = 1e-12


@dataclass(frozen=True)
class Site:
    """A single lattice site: a contiguous index plus optional geometry.

    ``coord`` is an integer coordinate tuple (any dimension) and
    ``sublattice`` a binary label for bipartite structures.  Either may be
    absent for abstract site sets.
    """

    index: int
    coord: tuple[int, ...] | None = None
    sublattice: int | None = None


@dataclass(frozen=True)
class Lattice:
    """A finite tight-binding lattice with Hermitian matrix ``hamiltonian``.

    ``sites`` carries per-site metadata in index order and ``model`` records
    the builder name and parameters, so that any lattice can be rebuilt or
    serialized with full provenance.
    """

    hamiltonian: np.ndarray
    sites: tuple[Site, ...]
    model: dict = field(default_factory=dict)

    def __post_init__(self):
        h = np.array(self.hamiltonian, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError(f"hamiltonian must be square, got shape {h.shape}")
        if len(self.sites) != h.shape[0]:
            raise ValueError(
                f"{len(self.sites)} sites for a {h.shape[0]}x{h.shape[0]} matrix"
            )
        if [s.index for s in self.sites] != list(range(h.shape[0])):
            raise ValueError("site indices must be 0..N-1 in order")
        labels = [s.sublattice for s in self.sites]
        if any(l is not None for l in labels) and any(l is None for l in labels):
            raise ValueError("sublattice labels must cover every site or none")
        scale = max(1.0, np.abs(h).max()) if h.size else 1.0
        defect = np.abs(h - h.conj().T).max() if h.size else 0.0
        if defect > HERMITICITY_RTOL * scale:
            raise ValueError(f"matrix is not Hermitian: defect {defect:.3e}")
        h.setflags(write=False)
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "sites", tuple(self.sites))

    @property
    def n_sites(self) -> int:
        return self.hamiltonian.shape[0]

    @cached_property
    def coord_index(self) -> dict[tuple[int, ...], int]:
        """Map from coordinate tuple to site index (coordinate sites only)."""
        return {s.coord: s.index for s in self.sites if s.coord is not None}

    def site_index(self, site: int | Sequence[int]) -> int:
        """Resolve a site given either its index or its coordinate."""
        if isinstance(site, (int, np.integer)):
            idx = int(site)
            if not 0 <= idx < self.n_sites:
                raise IndexError(f"site index {idx} out of range 0..{self.n_sites - 1}")
            return idx
        key = tuple(int(c) for c in site)
        try:
            return self.coord_index[key]
        except KeyError:
            raise KeyError(f"no site at coordinate {key}") from None

    @property
    def sublattice_labels(self) -> np.ndarray | None:
        if self.sites and self.sites[0].sublattice is not None:
            return np.array([s.sublattice for s in self.sites], dtype=int)
        return None


def _as_bond_values(value, n_bonds: int, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(value))
    if arr.size == 1:
        return np.full(n_bonds, complex(arr[0]))
    if arr.size != n_bonds:
        raise ValueError(f"{name} needs 1 or {n_bonds} values, got {arr.size}")
    return arr.astype(complex)


def build_chain(n_sites: int, hopping=1.0, potentials=None) -> Lattice:
    """Open 1D chain with nearest-neighbour hopping.

    ``hopping`` is the bond strength J (uniform scalar, or one value per
    bond); the matrix element for bond ``i`` is ``-hopping[i]``.
    ``potentials`` fills the diagonal (default zero).  Sublattice labels
    alternate 0, 1, 0, ... along the chain.
    """
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    hop = _as_bond_values(hopping, n_sites - 1, "hopping") if n_sites > 1 else np.array([])
    if potentials is None:
        pot = np.zeros(n_sites)
    else:
        pot = np.asarray(potentials, dtype=float)
        if pot.shape != (n_sites,):
            raise ValueError(f"potentials needs {n_sites} values, got {pot.shape}")
    h = np.diag(pot.astype(complex))
    for i, j_bond in enumerate(hop):
        h[i, i + 1] = -j_bond
        h[i + 1, i] = -np.conj(j_bond)
    sites = tuple(Site(i, coord=(i,), sublattice=i % 2) for i in range(n_sites))
    model = {
        "name": "chain",
        "n_sites": n_sites,
        "hopping": [[v.real, v.imag] for v in hop],
        "potentials": pot.tolist(),
    }
    return Lattice(h, sites, model)


def hofstadter_sites(half_size: int) -> tuple[Site, ...]:
    """Site enumeration of the (2M+1)x(2M+1) square lattice.

    Sites are ordered row-major over (x, y) with x varying fastest and
    x, y in [-M, M]; the sublattice label is the coordinate parity.
    """
    m = half_size
    sites = []
    idx = 0
    for y in range(-m, m + 1):
        for x in range(-m, m + 1):
            sites.append(Site(idx, coord=(x, y), sublattice=(x + y) % 2))
            idx += 1
    return tuple(sites)


def build_hofstadter(half_size: int, hopping: float = 1.0, flux: float = 0.0) -> Lattice:
    """Square lattice with a uniform synthetic flux per plaquette.

    Open boundary conditions on a (2M+1)x(2M+1) grid; x-bonds carry ``-J``
    and y-bonds ``-J exp(i*flux*x)``, so each plaquette encloses phase
    ``flux``.  On-site potentials are zero.
    """
    if half_size < 1:
        raise ValueError("half_size must be >= 1")
    sites = hofstadter_sites(half_size)
    index = {s.coord: s.index for s in sites}
    n = len(sites)
    h = np.zeros((n, n), dtype=complex)
    for s in sites:
        x, y = s.coord
        if (x + 1, y) in index:
            h[index[(x + 1, y)], s.index] += -hopping
            h[s.index, index[(x + 1, y)]] += -hopping
        if (x, y + 1) in index:
            t = -hopping * np.exp(1j * flux * x)
            h[index[(x, y + 1)], s.index] += t
            h[s.index, index[(x, y + 1)]] += np.conj(t)
    model = {"name": "hofstadter", "half_size": half_size, "hopping": hopping, "flux": flux}
    return Lattice(h, sites, model)


def build_bipartite_random(
    sublattice: Sequence[int],
    seed: int,
    amplitude: float = 1.0,
    bonds: Iterable[tuple[int, int]] | None = None,
) -> Lattice:
    """Random real hopping between two sublattices.

    Entries are drawn i.i.d. from ``[-amplitude, amplitude]`` for every
    coupled (A, B) pair; by default all cross-sublattice pairs are coupled.
    Pass ``bonds`` to restrict to an explicit bond list (each bond must
    connect the two sublattices).  The spectrum of any output is symmetric
    about zero.
    """
    labels = np.asarray(sublattice, dtype=int)
    if labels.ndim != 1 or labels.size == 0:
        raise ValueError("sublattice must be a non-empty 1D label sequence")
    if not set(np.unique(labels)) <= {0, 1}:
        raise ValueError("sublattice labels must be 0 or 1")
    if 0 not in labels or 1 not in labels:
        raise ValueError("both sublattices must be non-empty")
    n = labels.size
    if bonds is None:
        bonds = [(a, b) for a in range(n) for b in range(a + 1, n) if labels[a] != labels[b]]
    else:
        bonds = [(min(a, b), max(a, b)) for a, b in bonds]
        for a, b in bonds:
            if labels[a] == labels[b]:
                raise ValueError(f"bond ({a}, {b}) does not connect the sublattices")
    rng = np.random.default_rng(seed)
    h = np.zeros((n, n), dtype=complex)
    for a, b in bonds:
        val = rng.uniform(-amplitude, amplitude)
        h[a, b] = val
        h[b, a] = val
    sites = tuple(Site(i, sublattice=int(labels[i])) for i in range(n))
    model = {
        "name": "bipartite_random",
        "sublattice": labels.tolist(),
        "seed": int(seed),
        "amplitude": float(amplitude),
        "bonds": [list(b) for b in bonds],
    }
    return Lattice(h, sites, model)


def add_disorder(
    lattice: Lattice,
    variance: float,
    seed: int,
    exclude: Iterable[int] = (),
) -> Lattice:
    """Return a copy of ``lattice`` with random on-site potentials added.

    Potentials are i.i.d. uniform with zero mean and the requested variance,
    i.e. drawn from ``[-sqrt(3*variance), sqrt(3*variance)]``; sites in
    ``exclude`` (typically the drain) are left untouched.  The draw is
    reproducible from ``seed``.
    """
    if variance < 0:
        raise ValueError("variance must be >= 0")
    n = lattice.n_sites
    width = np.sqrt(3.0 * variance)
    rng = np.random.default_rng(seed)
    v = rng.uniform(-width, width, n)
    for idx in exclude:
        v[lattice.site_index(idx)] = 0.0
    h = lattice.hamiltonian + np.diag(v.astype(complex))
    model = dict(lattice.model)
    model["disorder"] = {
        "variance": float(variance),
        "seed": int(seed),
        "excluded": sorted(lattice.site_index(i) for i in exclude),
    }
    return Lattice(h, lattice.sites, model)


@dataclass(frozen=True)
class LatticeDiagnostics:
    """Report from :func:`validate`: hermiticity, connectivity, bandwidth."""

    n_sites: int
    hermiticity_defect: float
    connected: bool
    bandwidth: int


def validate(lattice: Lattice | np.ndarray) -> LatticeDiagnostics:
    """Diagnose a lattice matrix without modifying it.

    Reports the max-norm hermiticity defect, whether the hopping graph is
    connected (edges are off-diagonal entries above ``BOND_RTOL`` relative
    to the matrix scale), and the matrix bandwidth.  Accepts either a
    :class:`Lattice` or a raw square matrix, so that matrices too corrupted
    to construct a lattice can still be diagnosed.
    """
    h = lattice.hamiltonian if isinstance(lattice, Lattice) else np.asarray(lattice)
    n = h.shape[0]
    defect = float(np.abs(h - h.conj().T).max()) if n else 0.0
    scale = max(1.0, float(np.abs(h).max())) if n else 1.0
    adj = np.abs(h) > BOND_RTOL * scale
    np.fill_diagonal(adj, False)
    seen = np.zeros(n, dtype=bool)
    if n:
        stack = [0]
        seen[0] = True
        while stack:
            i = stack.pop()
            for j in np.nonzero(adj[i])[0]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
    rows, cols = np.nonzero(adj)
    bandwidth = int(np.abs(rows - cols).max()) if rows.size else 0
    return LatticeDiagnostics(
        n_sites=n,
        hermiticity_defect=defect,
        connected=bool(seen.all()),
        bandwidth=bandwidth,
    )


def lattice_to_dict(lattice: Lattice) -> dict:
    """JSON-ready form of a lattice; round-trips exactly."""
    h = lattice.hamiltonian
    n = lattice.n_sites
    hoppings = []
    for m in range(n):
        for k in range(m + 1, n):
            if h[m, k] != 0:
                hoppings.append([m, k, h[m, k].real, h[m, k].imag])
    sites = []
    for s in lattice.sites:
        entry: dict = {"index": s.index}
        if s.coord is not None:
            entry["coord"] = list(s.coord)
        if s.sublattice is not None:
            entry["sublattice"] = s.sublattice
        sites.append(entry)
    return {
        "n_sites": n,
        "sites": sites,
        "hoppings": hoppings,
        "potentials": np.real(np.diag(h)).tolist(),
        "model": lattice.model,
    }


def lattice_from_dict(data: dict) -> Lattice:
    n = data["n_sites"]
    h = np.zeros((n, n), dtype=complex)
    for m, k, re, im in data["hoppings"]:
        h[m, k] = complex(re, im)
        h[k, m] = complex(re, -im)
    h[np.diag_indices(n)] = data["potentials"]
    sites = tuple(
        Site(
            index=s["index"],
            coord=tuple(s["coord"]) if "coord" in s else None,
            sublattice=s.get("sublattice"),
        )
        for s in data["sites"]
    )
    return Lattice(h, sites, data.get("model", {}))


def save_lattice(lattice: Lattice, path) -> None:
    with open(path, "w") as fh:
        json.dump(lattice_to_dict(lattice), fh, indent=1)


def load_lattice(path) -> Lattice:
    with open(path) as fh:
        return lattice_from_dict(json.load(fh))
