"""Output checks for the benchmark, computed independently of the solver.

Stationarity is measured directly on the Langevin drift built from the
lattice Hamiltonian, purity from the quadrature covariance, and sweep values
against a Bartels-Stewart solve (a complex Schur form and LAPACK ``trsyl``)
that shares no code with chiraldrain's moment solver.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np
import scipy.linalg


class CheckFailed(Exception):
    """An operation's output is wrong or missing; the message is the reason."""


def drift(h: np.ndarray, drain: int, gamma: float, loss: float) -> np.ndarray:
    d = -1j * np.asarray(h, dtype=complex) - 0.5 * loss * np.eye(h.shape[0])
    d[drain, drain] -= 0.5 * gamma
    return d


def anomalous_strength(r: float) -> float:
    return math.cosh(r) * math.sinh(r)


def stationarity_error(h, drain, gamma, loss, r, normal, anomalous) -> float:
    """Max-norm residual of both moment equations over gamma * |M| (phi = 0)."""
    d = drift(h, drain, gamma, loss)
    qn = gamma * math.sinh(r) ** 2
    qm = gamma * anomalous_strength(r)
    res_m = d @ anomalous + anomalous @ d.T
    res_m[drain, drain] += qm
    res_n = d.conj() @ normal + normal @ d.T
    res_n[drain, drain] += qn
    return max(np.abs(res_m).max(), np.abs(res_n).max()) / (gamma * anomalous_strength(r))


def purity(normal: np.ndarray, anomalous: np.ndarray) -> float:
    """Gaussian purity 2^-N / sqrt(det C) of the symmetrized quadrature covariance."""
    n = normal.shape[0]
    half = 0.5 * np.eye(n)
    c = np.block(
        [
            [half + normal.real + anomalous.real, anomalous.imag + normal.imag],
            [anomalous.imag - normal.imag, half + normal.real - anomalous.real],
        ]
    )
    sign, logdet = np.linalg.slogdet(c)
    if sign <= 0:
        raise CheckFailed("quadrature covariance is not positive definite")
    return math.exp(-n * math.log(2.0) - 0.5 * logdet)


def read_state(path) -> tuple[np.ndarray, np.ndarray]:
    try:
        with open(path) as fh:
            data = json.load(fh)
        pairs = [np.asarray(data[key], dtype=float) for key in ("normal", "anomalous")]
    except (OSError, ValueError, KeyError) as exc:
        raise CheckFailed(f"state.json unreadable: {exc}") from exc
    normal, anomalous = (p[..., 0] + 1j * p[..., 1] for p in pairs)
    return normal, anomalous


def read_sweep(path, values: list[float], ensemble: int) -> list[tuple[float, int, float]]:
    """Rows of sweep.csv as (axis value, realization seed, ebar_n)."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        body = [(float(a), int(s), float(e)) for a, s, e in rows[1:]]
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"sweep.csv does not parse: {exc}") from exc
    if len(rows[0]) != 3 or rows[0][2] != "ebar_n":
        raise CheckFailed(f"sweep.csv header is {rows[0]}")
    expected = [v for v in values for _ in range(ensemble)]
    if len(body) != len(expected):
        raise CheckFailed(f"sweep.csv has {len(body)} rows, expected {len(expected)}")
    for (value, _, ebar), want in zip(body, expected):
        if not math.isclose(value, want, rel_tol=1e-8) or not math.isfinite(ebar) or ebar < 0:
            raise CheckFailed(f"sweep.csv row ({value}, {ebar}) is wrong for value {want}")
    return body


def read_summary(path, values: list[float], ensemble: int) -> list[float]:
    """``mean_ebar_n`` of each axis value in sweep_summary.json, at full precision."""
    try:
        with open(path) as fh:
            points = json.load(fh)["points"]
        body = [(float(p["value"]), int(p["n_realizations"]), float(p["mean_ebar_n"]))
                for p in points]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CheckFailed(f"sweep_summary.json unreadable: {exc}") from exc
    if [(v, n) for v, n, _ in body] != [(v, ensemble) for v in values]:
        raise CheckFailed(f"sweep_summary.json points {[(v, n) for v, n, _ in body]} are wrong")
    return [mean for _, _, mean in body]


def reference_ebars(lattice, drain: int, gamma: float, losses, r: float) -> list[float]:
    """Mirrored-pair entanglement of Bartels-Stewart steady states, one per uniform loss.

    A uniform loss shifts the drift by a multiple of the identity, so one
    complex Schur form d0 = U T U^H of the lossless drift serves every loss:
    with V = conj(U), d^T = V conj(T)^H V^H and conj(d) = V conj(T) V^H, and
    each moment equation becomes a triangular Sylvester equation.
    """
    from chiraldrain.entanglement import mirrored_pair_average
    from chiraldrain.steady import CovarianceState

    d0 = drift(lattice.hamiltonian, drain, gamma, 0.0)
    t0, u = scipy.linalg.schur(d0, output="complex")
    qm = np.zeros_like(d0)
    qn = np.zeros_like(d0)
    qm[drain, drain] = gamma * anomalous_strength(r)
    qn[drain, drain] = gamma * math.sinh(r) ** 2
    rhs_m = -(u.conj().T @ qm @ u.conj())
    rhs_n = -(u.T @ qn @ u.conj())
    ebars = []
    for loss in losses:
        t = t0 - 0.5 * loss * np.eye(t0.shape[0])
        m = u @ _trsyl(t, t.conj(), rhs_m) @ u.T
        n = u.conj() @ _trsyl(t.conj(), t.conj(), rhs_n) @ u.T
        state = CovarianceState(normal=0.5 * (n + n.conj().T), anomalous=0.5 * (m + m.T))
        ebars.append(mirrored_pair_average(state, lattice))
    return ebars


def _trsyl(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """X with A X + X B^H = C for upper triangular A and B."""
    x, scale, info = scipy.linalg.lapack.ztrsyl(a, b, c, trana="N", tranb="C")
    if info < 0:
        raise ValueError(f"ztrsyl argument {-info} is invalid")
    return x / scale


def relative_gap(value: float, reference: float) -> float:
    return abs(value - reference) / max(abs(reference), 1e-300)
