"""Child process of the benchmark: runs operations in a warm interpreter.

``library``: a library workload's closed loop, untraced.
``trace``:   one warm-up operation, then pairs of one untraced and one traced
             operation, for any workload;
             CLI workloads run ``cli.main(argv)`` in this process, sweeps at
             ``--jobs 1`` because spans in pool workers are not collected.
Results go to the JSON file named by ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from checks import CheckFailed
from tracer import Tracer


def warm_up_blas() -> None:
    """Start the BLAS thread pool and page in LAPACK before any timing."""
    a = np.random.default_rng(0).standard_normal((300, 300))
    np.linalg.eig(a @ a)
    np.linalg.eigh(a + a.T)


def library_op(workload, lattice, drain) -> dict:
    """Time one library operation, then check what it produced."""
    out: dict = {}
    error = None
    start = time.perf_counter()
    try:
        workload.run(lattice, drain, out)
    except Exception as exc:  # every raise is a failed operation, reported by reason
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    rel_err = check_error = None
    try:
        rel_err = float(workload.check_outputs(lattice, drain, out))
    except CheckFailed as exc:
        check_error = str(exc)
    return {
        "wall_s": wall,
        "error": error,
        "check_error": check_error,
        "rel_err": rel_err,
        "solves": workload.completed_solves(out),
        "output_bytes": workload.output_bytes(out),
    }


def cli_op(workload, seed: int, out: Path) -> dict:
    """``cli.main(argv)`` in this process, at ``--jobs 1`` so every span is collected here."""
    from chiraldrain import cli

    argv = workload.argv(seed, out, jobs=1)
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "error": None if code == 0 else f"cli.main exited with {code}",
        "output_bytes": workloads.dir_bytes(out),
        "out": str(out),
    }


def run_library(args) -> dict:
    workload = workloads.get(args.workload, args.smoke)
    lattice, drain = workloads.build_lattice(workload.half_size)
    ops = []
    while workloads.more_operations([op["wall_s"] for op in ops], args.seconds):
        ops.append(library_op(workload, lattice, drain))
    return {"ops": ops}


def _observed_residual(spectrum) -> float:
    res = spectrum.residuals[~np.isnan(spectrum.residuals)]
    return float(res.max()) if res.size else 0.0


OBSERVERS = {
    "spectral.dynamical_spectrum": _observed_residual,
    "steady.steady_state": lambda state: float(state.residual),
}


def run_trace(args) -> dict:
    workload = workloads.get(args.workload, args.smoke)
    work = Path(args.work)
    if workload.cli:
        def one(i, tag):
            return cli_op(workload, args.seed, work / f"{tag}{i}")
    else:
        lattice, drain = workloads.build_lattice(workload.half_size)

        def one(i, tag):
            return library_op(workload, lattice, drain)

    # the first operation in a process is slower (allocator and page faults)
    warm = one(0, "warmup")
    if workload.cli:
        shutil.rmtree(warm["out"], ignore_errors=True)
    tracer = Tracer()
    pairs = []
    spent = [warm["wall_s"]]
    while len(spent) == 1 or sum(spent) + spent[-1] <= args.seconds:
        i = len(pairs)
        pair = {}
        # alternate which of the two runs first, so order effects cancel
        for tag in ("untraced", "traced") if i % 2 == 0 else ("traced", "untraced"):
            if tag == "traced":
                tracer.op = i
                tracer.install(OBSERVERS)
            try:
                pair[tag] = one(i, tag)
            finally:
                tracer.uninstall()
        pairs.append(pair)
        spent.append(pair["untraced"]["wall_s"] + pair["traced"]["wall_s"])
    return {"pairs": pairs, "spans": tracer.spans}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=["library", "trace"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    warm_up_blas()
    result = run_library(args) if args.mode == "library" else run_trace(args)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
