"""Benchmark for chiraldrain: time the paper's three jobs and check every output.

    python3 perfbench/run.py --workload steady-625 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the package is imported from
``src/``.  ``--trace 0`` runs the workload in a closed loop with one client
for ``--seconds`` seconds of operation time and prints the end-to-end
metrics; ``--trace 1`` runs pairs of untraced and traced operations and
prints the per-layer metrics.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans
and per-operation records are written to ``.perfbench_out/`` when the run
ends.  See ``perfbench/README.md`` for the workloads, metrics and the
defects the first runs showed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import scipy

import tracer
import workloads
from checks import CheckFailed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RESULTS = ROOT / ".perfbench_out"
# A run must end within 180 s; every child gets what is left of this.
RUN_DEADLINE_S = 170.0
SETUP_PROBES = 5
SETUP_PROBE = (
    "import numpy as np, chiraldrain; "
    "a = np.arange(40000.0).reshape(200, 200) % 7; np.linalg.eigh(a + a.T)"
)
# Relative errors below double-precision epsilon read as full precision.
EPS = 2.0**-52
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GOTO_NUM_THREADS")

END_TO_END = {
    "wall_s": "s",
    "solves_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "output_mb": "MiB",
    "accuracy_digits": "digits",
}
# per-layer metric -> (figure from tracer.per_operation or the run, unit)
PER_LAYER = {
    "lattice.self_s": ("lattice.self_s", "s"),
    "lattice.calls": ("lattice.calls", "count"),
    "lattice.add_disorder_s": ("lattice.add_disorder_s", "s"),
    "lattice.add_disorder_calls": ("lattice.add_disorder_calls", "count"),
    "lattice.from_dict_s": ("lattice.lattice_from_dict_s", "s"),
    "lattice.from_dict_calls": ("lattice.lattice_from_dict_calls", "count"),
    "spectral.self_s": ("spectral.self_s", "s"),
    "spectral.calls": ("spectral.calls", "count"),
    "spectral.diagonalize_s": ("spectral.diagonalize_s", "s"),
    "spectral.diagonalize_calls": ("spectral.diagonalize_calls", "count"),
    "spectral.drain_couplings_s": ("spectral.drain_couplings_s", "s"),
    "spectral.chiral_pairing_s": ("spectral.chiral_pairing_s", "s"),
    "spectral.dynamical_spectrum_s": ("spectral.dynamical_spectrum_s", "s"),
    "spectral.dense_factorizations": ("spectral.dense_factorizations", "count"),
    "spectral.max_consistency_residual": ("spectral.dynamical_spectrum_value", "1"),
    "steady.self_s": ("steady.self_s", "s"),
    "steady.calls": ("steady.calls", "count"),
    "steady.steady_state_s": ("steady.steady_state_s", "s"),
    "steady.steady_state_calls": ("steady.steady_state_calls", "count"),
    "steady.steady_state_errors": ("steady.steady_state_errors", "count"),
    "steady.dense_factorizations": ("steady.dense_factorizations", "count"),
    "steady.analytic_chiral_state_s": ("steady.analytic_chiral_state_s", "s"),
    "steady.extract_sigma_s": ("steady.extract_sigma_s", "s"),
    "steady.purity_s": ("steady.purity_s", "s"),
    "steady.state_to_dict_s": ("steady.state_to_dict_s", "s"),
    "steady.residual": ("steady.steady_state_value", "1"),
    "symmetry.self_s": ("symmetry.self_s", "s"),
    "symmetry.calls": ("symmetry.calls", "count"),
    "symmetry.check_symmetry_s": ("symmetry.check_symmetry_s", "s"),
    "entanglement.self_s": ("entanglement.self_s", "s"),
    "entanglement.calls": ("entanglement.calls", "count"),
    "entanglement.mirrored_pair_average_s": ("entanglement.mirrored_pair_average_s", "s"),
    "entanglement.log_negativity_calls": ("entanglement.log_negativity_calls", "count"),
    "cli.self_s": ("cli.self_s", "s"),
    "cli.calls": ("cli.calls", "count"),
    "cli.main_s": ("cli.main_s", "s"),
    "cli.output_bytes": ("output_bytes", "B"),
    "cli.pool_efficiency": ("pool_efficiency", "1"),
    "trace.untraced_wall_s": ("untraced_wall_s", "s"),
    "trace.traced_wall_s": ("traced_wall_s", "s"),
    "trace.overhead_s": ("overhead_s", "s"),
}
# Printed by every traced run but kept out of the metrics object: they read 0
# on every workload listed in BENCHMARK.json (no disorder, no pool, no
# failing solve there).
UNLISTED = ("lattice.add_disorder_s", "lattice.add_disorder_calls",
            "steady.steady_state_errors", "cli.pool_efficiency")


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise TimeoutError("the run used up its time budget")
        return left


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(BENCH), env.get("PYTHONPATH")) if p
    )
    return env


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _stop_group(pgid: int) -> None:
    """Kill what is left of a child's process group and wait until it is gone."""
    if not _group_alive(pgid):
        return
    _kill_group(pgid)
    limit = time.monotonic() + 10.0
    while _group_alive(pgid) and time.monotonic() < limit:
        time.sleep(0.05)


def spawn(argv: list[str], log: Path, deadline: Deadline) -> tuple[float, int, int]:
    """Run a child in its own process group; return (wall s, exit code, peak RSS KiB)."""
    timeout = deadline.left()
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=fh, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
            env=child_env(), cwd=ROOT, start_new_session=True,
        )
    watchdog = threading.Timer(timeout, _kill_group, (proc.pid,))
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _stop_group(proc.pid)
    deadline.left()
    return wall, proc.returncode, usage.ru_maxrss


def _last_line(path: Path) -> str:
    lines = path.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def run_cli(argv: list[str], out: Path, deadline: Deadline) -> dict:
    """One fresh ``python -m chiraldrain`` process writing into ``out``."""
    shutil.rmtree(out, ignore_errors=True)
    log = out.with_suffix(".log")
    wall, code, rss = spawn([sys.executable, "-m", "chiraldrain", *argv], log, deadline)
    return {
        "wall_s": wall,
        "error": None if code == 0 else f"exit code {code}: {_last_line(log)}",
        "rss_kib": rss,
        "output_bytes": workloads.dir_bytes(out) if out.exists() else 0,
    }


def run_worker(mode: str, args, work: Path, deadline: Deadline) -> tuple[dict, int]:
    result = work / f"{mode}.json"
    argv = [
        sys.executable, str(BENCH / "worker.py"), mode, "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--work", str(work), "--result", str(result),
    ] + (["--smoke"] if args.smoke else [])
    log = work / f"{mode}.log"
    _, code, rss = spawn(argv, log, deadline)
    if code != 0:
        raise RuntimeError(f"{mode} worker exited with {code}: {_last_line(log)}")
    with open(result) as fh:
        return json.load(fh), rss


def check_cli_op(workload, op: dict, out: Path, ref: dict) -> None:
    """Check one CLI operation's output in place; a run without output fails the check."""
    try:
        op["rel_err"] = workload.check(out, ref)
        op["check_error"] = None
    except (CheckFailed, OSError) as exc:
        op["rel_err"] = None
        op["check_error"] = str(exc)
    failed = op["error"] or op["check_error"]
    op["solves"] = 0 if failed else workload.solves
    shutil.rmtree(out, ignore_errors=True)


def setup_time(work: Path, deadline: Deadline) -> float:
    """Fresh process: import chiraldrain and finish the first BLAS call."""
    wall, code, _ = spawn([sys.executable, "-c", SETUP_PROBE], work / "setup.log", deadline)
    if code != 0:
        raise RuntimeError(f"set-up probe exited with {code}: {_last_line(work / 'setup.log')}")
    return wall


def measure(workload, args, work: Path, deadline: Deadline) -> tuple[dict, dict]:
    """Closed loop with one client, untraced; returns (metrics, record)."""
    setup = [setup_time(work, deadline) for _ in range(1 if args.smoke else SETUP_PROBES)]
    notes = []
    if workload.cli:
        ref = workload.prepare(args.seed, work, lambda a, o: run_cli(a, o, deadline))
        if "note" in ref:
            notes.append(ref["note"])
        ops = []
        while workloads.more_operations([op["wall_s"] for op in ops], args.seconds):
            out = work / f"op{len(ops)}"
            op = run_cli(workload.argv(args.seed, out), out, deadline)
            check_cli_op(workload, op, out, ref)
            ops.append(op)
        rss = [op["rss_kib"] for op in ops]
    else:
        result, worker_rss = run_worker("library", args, work, deadline)
        ops = result["ops"]
        rss = [worker_rss]
    walls = [op["wall_s"] for op in ops]
    errs = [op["rel_err"] for op in ops if op["rel_err"] is not None]
    metrics = {
        "wall_s": statistics.median(walls),
        "solves_per_s": sum(op["solves"] for op in ops) / sum(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss) / 1024.0,
        "output_mb": statistics.median(op["output_bytes"] for op in ops) / 2**20,
        "accuracy_digits": -math.log10(max(max(errs), EPS)) if errs else 0.0,
    }
    samples = {
        "wall_s": f"median of {len(walls)} ops, min {min(walls):.4g}, max {max(walls):.4g}",
        "solves_per_s": f"{sum(op['solves'] for op in ops)} solves in {sum(walls):.4g} s",
        "setup_s": f"median of {len(setup)} fresh processes, min {min(setup):.4g}, "
                   f"max {max(setup):.4g}",
        "peak_rss_mb": f"median of {len(rss)} processes (os.wait4)",
        "output_mb": f"median of {len(ops)} ops",
        "accuracy_digits": f"worst of {len(errs)} checked ops",
    }
    return metrics, {"ops": ops, "setup_s": setup, "samples": samples, "notes": notes}


def trace(workload, args, work: Path, deadline: Deadline) -> tuple[dict, dict]:
    """Untraced/traced operation pairs in a warm worker; returns (metrics, record)."""
    result, _ = run_worker("trace", args, work, deadline)
    pairs, spans = result["pairs"], result["spans"]
    ops = [op for pair in pairs for op in (pair["untraced"], pair["traced"])]
    notes = []
    if workload.cli:
        ref = workload.prepare(args.seed, work, lambda a, o: run_cli(a, o, deadline))
        if "note" in ref:
            notes.append(ref["note"])
        for op in ops:
            check_cli_op(workload, op, Path(op["out"]), ref)
    figures = tracer.median_over_operations(tracer.per_operation(spans, len(pairs)))
    traced = [p["traced"]["wall_s"] for p in pairs]
    untraced = [p["untraced"]["wall_s"] for p in pairs]
    figures["traced_wall_s"] = statistics.median(traced)
    figures["untraced_wall_s"] = statistics.median(untraced)
    figures["overhead_s"] = statistics.median(t - u for t, u in zip(traced, untraced))
    figures["output_bytes"] = statistics.median(p["traced"]["output_bytes"] for p in pairs)
    busy = figures.get("cli.sweep_point_s", 0.0)
    pool_note = "0: this workload runs no process pool"
    figures["pool_efficiency"] = 0.0
    if busy > 0 and workload.jobs > 1:
        # the real operation, at its own --jobs, as the denominator
        out = work / "pool"
        op = run_cli(workload.argv(args.seed, out), out, deadline)
        check_cli_op(workload, op, out, ref)
        ops.append(op)
        jobs = workload.jobs
        figures["pool_efficiency"] = busy / (jobs * op["wall_s"])
        pool_note = (
            f"serial realization busy time {busy:.4g} s over {jobs} workers x "
            f"{op['wall_s']:.4g} s wall at --jobs {jobs}"
        )
    metrics = {name: float(figures.get(source, 0.0)) for name, (source, _) in PER_LAYER.items()}
    extra = {name: metrics.pop(name) for name in UNLISTED}
    notes += [
        f"{len(pairs)} untraced/traced pairs in one process, after one untimed warm-up "
        "operation; per-layer figures are medians over traced operations",
        "<module>.<function>_s is inclusive time, <layer>.self_s excludes child spans; "
        "dense factorizations count against the innermost open span",
        f"tracing overhead = traced wall - untraced wall = {figures['overhead_s']:.4g} s",
        f"pool efficiency: {pool_note}",
    ]
    if workload.cli and workload.jobs > 1:
        notes.append(
            f"traced at --jobs 1 instead of --jobs {workload.jobs}: spans in pool "
            "workers are not collected"
        )
    record = {"ops": ops, "pairs": pairs, "spans": spans, "notes": notes, "unlisted": extra}
    return metrics, record


def _git_commit() -> str:
    """Commit of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "python": platform.python_version(),
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_one(args) -> tuple[dict, dict, dict]:
    """One workload run; returns (result JSON, metric units, record)."""
    workload = workloads.get(args.workload, args.smoke)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    deadline = Deadline(RUN_DEADLINE_S)
    try:
        if args.trace:
            metrics, record = trace(workload, args, work, deadline)
            units = {
                name: unit for name, (_, unit) in PER_LAYER.items() if name not in UNLISTED
            }
        else:
            metrics, record = measure(workload, args, work, deadline)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    reasons: dict[str, list[int]] = {}
    for i, op in enumerate(record["ops"]):
        check = op.get("check_error")
        reason = "; ".join(filter(None, (op["error"], check and "check: " + check)))
        if reason:
            reasons.setdefault(reason, []).append(i)
    record["failures"] = [f"ops {ops}: {reason}" for reason, ops in reasons.items()]
    result = {
        "correct": not any(op.get("check_error") for op in record["ops"]),
        "attempted": len(record["ops"]),
        "failed": sum(len(ops) for ops in reasons.values()),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return result, units, record


def report(args, result: dict, record: dict, env: dict) -> None:
    print(f"chiraldrain benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}" + (", smoke" if args.smoke else ""))
    print("environment: " + json.dumps(env, sort_keys=True))
    samples = record.get("samples", {})
    for name, metric in result["metrics"].items():
        note = samples.get(name, "")
        print(f"  {name:40s} {metric['value']:<14.6g} {metric['unit']:8s} {note}")
    for name, value in record.get("unlisted", {}).items():
        print(f"  {name:40s} {value:<14.6g} {PER_LAYER[name][1]:8s} not in BENCHMARK.json")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'failed_ratio':40s} {failed / attempted:<14.6g} {'1':8s} "
          f"{failed} of {attempted} operations failed")
    for line in record["failures"]:
        print(f"  failure: {line}")
    for line in record.get("notes", []):
        print(f"  note: {line}")


def save(args, result: dict, record: dict, env: dict) -> Path:
    RESULTS.mkdir(exist_ok=True)
    kind = "trace" if args.trace else "result"
    path = RESULTS / f"{args.workload}-seed{args.seed}-{kind}.json"
    with open(path, "w") as fh:
        json.dump({"environment": env, "result": result, **record}, fh)
    return path


def smoke(args) -> int:
    """Every workload at half-size 2, one operation, untraced and traced."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for name in workloads.WORKLOADS:
        for traced in (0, 1):
            sub = argparse.Namespace(
                workload=name, seed=args.seed, seconds=0.0, trace=traced, smoke=True
            )
            result, units, record = run_one(sub)
            report(sub, result, record, {})
            if units != declared[traced]:
                problems.append(f"{name} trace {traced}: metrics differ from BENCHMARK.json")
            for metric, entry in result["metrics"].items():
                if not isinstance(entry["value"], float) or not math.isfinite(entry["value"]):
                    problems.append(f"{name} trace {traced}: {metric} is {entry['value']!r}")
            if not result["correct"]:
                problems.append(f"{name} trace {traced}: an output check failed")
    for line in problems:
        print(f"smoke problem: {line}")
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at half-size 2 for one operation")
    args = parser.parse_args(argv)
    if not (SRC / "chiraldrain" / "__init__.py").is_file():
        print(f"error: no chiraldrain sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    env = environment(args)
    try:
        result, _, record = run_one(args)
    except (CheckFailed, RuntimeError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    path = save(args, result, record, env)
    report(args, result, record, env)
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
