"""Shared lattice fixtures for the test suite.

``chiral_fixtures`` lists dark-mode-free chiral systems (lattice + drain)
whose steady states are pure and given by the closed form;
``certification_fixtures`` adds chiral systems that do carry dark modes,
usable for symmetry certification but not for unique steady states.
``count_calls`` records the calls of a monkeypatched function and
``count_factorizations`` those of every dense NumPy factorization;
``fresh_python`` runs code in a new interpreter, which has imported nothing.
"""

from __future__ import annotations

import os
import subprocess
import sys
from functools import lru_cache

import numpy as np

import chiraldrain
from chiraldrain import (
    Lattice,
    build_bipartite_random,
    build_chain,
    build_hofstadter,
)

INVERSION_HOPPINGS = [0.9, 1.3, -1.3, -0.9]
INVERSION_POTENTIALS = [0.4, -0.7, 0.0, 0.7, -0.4]


def random_chain(n: int) -> Lattice:
    rng = np.random.default_rng(n)
    return build_chain(n, rng.uniform(0.5, 1.5, n - 1))


def inversion_chain() -> Lattice:
    """5-site chain whose inversion about the center flips H to -conj(H)."""
    return build_chain(5, INVERSION_HOPPINGS, INVERSION_POTENTIALS)


@lru_cache(maxsize=1)
def chiral_fixtures() -> tuple[tuple[str, Lattice, int], ...]:
    out = []
    for n in range(3, 13):
        out.append((f"chain-uniform-{n}", build_chain(n), 0))
    for n in range(4, 13):
        out.append((f"chain-random-{n}", random_chain(n), 0))
    out.append(
        ("bipartite-random-6", build_bipartite_random([0, 1, 0, 1, 1, 0], seed=3), 0)
    )
    out.append(("inversion-5", inversion_chain(), 2))
    hof = build_hofstadter(4, 1.0, np.pi / 2)
    for coord in [(0, 2), (2, 0), (2, 2), (2, 4)]:
        out.append((f"hofstadter-pi2-{coord}", hof, hof.site_index(coord)))
    return tuple(out)


@lru_cache(maxsize=1)
def certification_fixtures() -> tuple[tuple[str, Lattice, int], ...]:
    out = list(chiral_fixtures())
    hof = build_hofstadter(4, 1.0, 2 * np.pi / 5)
    for coord in [(2, 2), (1, 2)]:
        out.append((f"hofstadter-2pi5-{coord}", hof, hof.site_index(coord)))
    return tuple(out)


def count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` for this test and return the list its calls append to."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


DENSE_FACTORIZATIONS = ("eig", "eigh", "svd", "cond", "inv")


def count_factorizations(monkeypatch):
    """Call lists of the dense ``numpy.linalg`` factorizations, by name."""
    return {name: count_calls(monkeypatch, np.linalg, name) for name in DENSE_FACTORIZATIONS}


def factorization_counts(calls) -> dict:
    """Calls made per factorization, leaving out those never called."""
    return {name: len(c) for name, c in calls.items() if c}


def fresh_python(code: str, cwd=None) -> str:
    """Run ``code`` in a new interpreter that imports this suite's chiraldrain;
    return its stdout."""
    src = os.path.dirname(os.path.dirname(chiraldrain.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
