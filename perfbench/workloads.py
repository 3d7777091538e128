"""The benchmark's workloads: their inputs, one operation each, and its output check.

All of them use a Hofstadter lattice at flux pi/2 drained at site (2,2) with
Gamma = 3 and squeezing r = 1.  A CLI workload runs one fresh
``python -m chiraldrain`` process per operation; a library workload runs
its pipeline in a warm process.  Each check returns the operation's worst
relative error and raises ``CheckFailed`` with a reason when the output is
wrong.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
from pathlib import Path

from checks import (
    CheckFailed,
    anomalous_strength,
    purity,
    read_state,
    read_summary,
    read_sweep,
    reference_ebars,
    relative_gap,
    stationarity_error,
)

FLUX = math.pi / 2
DRAIN = (2, 2)
GAMMA = 3.0
SQUEEZE = 1.0
STEADY_LOSS = 1e-3
LOSS_VALUES = ["%.6g" % (1e-4 * 1000 ** (k / 9)) for k in range(10)]
DISORDER_VALUES = ["1e-8", "1e-7", "1e-6", "1e-5"]
DISORDER_ENSEMBLE = 20
# Largest accepted residual over gamma*|M|, and sweep deviation from the reference:
# full precision in sweep_summary.json, 9 digits in sweep.csv.
STATIONARITY_TOL = 1e-9
SWEEP_TOL = 1e-6
CLOSED_FORM_TOL = 1e-8


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def more_operations(walls: list[float], seconds: float) -> bool:
    """Closed-loop rule: start another operation while it should end within ``seconds``."""
    return not walls or sum(walls) + statistics.median(walls) <= seconds


def build_lattice(half_size: int):
    from chiraldrain.lattice import build_hofstadter

    lattice = build_hofstadter(half_size, 1.0, FLUX)
    return lattice, lattice.site_index(DRAIN)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    half_size: int
    why: str
    solves: int = 1
    cli: bool = True
    jobs: int = 1

    def common_args(self, seed: int, out: Path) -> list[str]:
        return [
            "--half-size", str(self.half_size), "--flux", "0.5pi",
            "--drain", "%d,%d" % DRAIN, "--gamma", repr(GAMMA),
            "--squeeze", repr(SQUEEZE), "--seed", str(seed), "--out", str(out),
        ]

    def argv(self, seed: int, out: Path, jobs: int | None = None) -> list[str]:
        raise NotImplementedError

    def prepare(self, seed: int, work: Path, run_cli) -> dict:
        """Untimed reference data the per-operation checks compare against."""
        return {}

    def check(self, out: Path, ref: dict) -> float:
        raise NotImplementedError


class SteadyWorkload(Workload):
    def argv(self, seed, out, jobs=None):
        argv = ["steady", *self.common_args(seed, out), "--loss", repr(STEADY_LOSS)]
        # the default slice reference (4,1) lies outside lattices smaller than 9x9
        return argv + (["--reference-site", "1,1"] if self.half_size < 4 else [])

    def prepare(self, seed, work, run_cli):
        lattice, drain = build_lattice(self.half_size)
        return {"h": lattice.hamiltonian, "drain": drain}

    def check(self, out, ref):
        for name in ("heatmap.csv", "slice.csv", "resolved_config.json"):
            if not (out / name).is_file():
                raise CheckFailed(f"{name} missing")
        normal, anomalous = read_state(out / "state.json")
        err = stationarity_error(
            ref["h"], ref["drain"], GAMMA, STEADY_LOSS, SQUEEZE, normal, anomalous
        )
        if not err <= STATIONARITY_TOL:
            raise CheckFailed(f"stationarity residual {err:.3e} of state.json > {STATIONARITY_TOL}")
        mu = purity(normal, anomalous)
        if mu > 1.0 + 1e-8:
            raise CheckFailed(f"purity {mu!r} > 1")
        return err


class LossSweepWorkload(Workload):
    def argv(self, seed, out, jobs=None):
        return ["sweep", "--axis", "loss", "--values", ",".join(LOSS_VALUES),
                "--jobs", "1", *self.common_args(seed, out)]

    def prepare(self, seed, work, run_cli):
        """Bartels-Stewart values for every loss value."""
        lattice, drain = build_lattice(self.half_size)
        losses = [float(v) for v in LOSS_VALUES]
        return {"refs": reference_ebars(lattice, drain, GAMMA, losses, SQUEEZE)}

    def check(self, out, ref):
        return _compare_sweep(out, [float(v) for v in LOSS_VALUES], 1, ref["refs"])


class DisorderSweepWorkload(Workload):
    def argv(self, seed, out, jobs=None):
        return ["sweep", "--axis", "disorder", "--values", ",".join(DISORDER_VALUES),
                "--ensemble", str(DISORDER_ENSEMBLE), "--jobs", str(jobs or self.jobs),
                *self.common_args(seed, out)]

    def prepare(self, seed, work, run_cli):
        """A ``--jobs 1`` run and Bartels-Stewart values for every realization."""
        from chiraldrain.lattice import add_disorder

        out = work / "jobs1"
        result = run_cli(self.argv(seed, out, jobs=1), out)
        note = f"untimed --jobs 1 reference run took {result['wall_s']:.4g} s"
        if result["error"]:
            return {"error": result["error"], "note": note}
        values = [float(v) for v in DISORDER_VALUES]
        rows = read_sweep(out / "sweep.csv", values, DISORDER_ENSEMBLE)
        base, drain = build_lattice(self.half_size)
        refs = [
            reference_ebars(
                add_disorder(base, value, seed, exclude=(drain,)), drain, GAMMA, [0.0], SQUEEZE
            )[0]
            for value, seed, _ in rows
        ]
        return {"csv": (out / "sweep.csv").read_bytes(), "refs": refs, "note": note}

    def check(self, out, ref):
        if "error" in ref:
            raise CheckFailed(f"the --jobs 1 reference run failed: {ref['error']}")
        if (out / "sweep.csv").read_bytes() != ref["csv"]:
            raise CheckFailed("sweep.csv differs from the --jobs 1 run")
        values = [float(v) for v in DISORDER_VALUES]
        return _compare_sweep(out, values, DISORDER_ENSEMBLE, ref["refs"])


def _compare_sweep(out: Path, values: list[float], ensemble: int, refs: list[float]) -> float:
    """Check sweep.csv rows and sweep_summary.json means against the references.

    Returns the worst relative gap of the full-precision means; the CSV's
    9 significant digits only bound its rows near 1e-9.
    """
    rows = read_sweep(out / "sweep.csv", values, ensemble)
    for row, ((_, _, ebar), reference) in enumerate(zip(rows, refs)):
        gap = relative_gap(ebar, reference)
        if not gap <= SWEEP_TOL:
            raise CheckFailed(
                f"ebar_n {ebar!r} in sweep.csv row {row} is off the reference "
                f"{reference!r} by {gap:.3e} (relative)"
            )
    worst = 0.0
    means = read_summary(out / "sweep_summary.json", values, ensemble)
    for i, mean in enumerate(means):
        reference = statistics.fmean(refs[i * ensemble:(i + 1) * ensemble])
        gap = relative_gap(mean, reference)
        if not gap <= SWEEP_TOL:
            raise CheckFailed(
                f"mean_ebar_n {mean!r} at value {values[i]} is off the reference "
                f"{reference!r} by {gap:.3e} (relative)"
            )
        worst = max(worst, gap)
    return worst


@dataclasses.dataclass(frozen=True)
class CertifyWorkload(Workload):
    """Library pipeline on the lossless lattice: certify sigma, closed form, then solve.

    With ``solve`` false the lossless ``steady_state`` is left out.
    """

    cli: bool = False
    solve: bool = True

    def run(self, lattice, drain, out: dict) -> None:
        """One operation; fills ``out`` as it goes, so a raise keeps earlier results."""
        from chiraldrain import spectral, steady, symmetry

        noise = steady.SqueezedNoise(r=SQUEEZE)
        coupling = spectral.drain_couplings(spectral.diagonalize(lattice), drain, GAMMA)
        out["pairing"] = pairing = spectral.chiral_pairing(coupling)
        out["spectrum"] = spectral.dynamical_spectrum(spectral.dynamical_matrix(coupling), coupling)
        out["sigma"] = sigma = steady.extract_sigma(coupling, pairing)
        out["report"] = symmetry.check_symmetry(sigma, lattice, drain=drain)
        out["closed"] = closed = steady.analytic_chiral_state(coupling, pairing, noise)
        out["purity"] = steady.purity(closed)
        if self.solve:
            out["state"] = steady.steady_state(lattice, steady.DrainSpec(drain, GAMMA, noise))

    def check_outputs(self, lattice, drain, out: dict) -> float:
        """Worst relative error of what the operation produced; raises on a violation."""
        if "closed" not in out:
            raise CheckFailed("no closed-form state was produced")
        h = lattice.hamiltonian
        scale = max(1.0, float(abs(h).max()))
        report, pairing, closed = out["report"], out["pairing"], out["closed"]
        if not report.passed:
            raise CheckFailed(f"sigma does not certify: {report.to_dict()}")
        relation = min(report.particle_hole_residual, report.chiral_residual) / scale
        stationary = stationarity_error(
            h, drain, GAMMA, 0.0, SQUEEZE, closed.normal, closed.anomalous
        )
        if not stationary <= CLOSED_FORM_TOL:
            raise CheckFailed(f"closed-form stationarity residual {stationary:.3e}")
        errors = [
            relation, report.unitarity_residual, report.symmetry_residual,
            report.drain_residual, pairing.energy_defect / scale, pairing.amplitude_defect,
            stationary,
        ]
        mu = purity(closed.normal, closed.anomalous)
        errors.append(abs(mu - 1.0))
        if not abs(mu - 1.0) <= CLOSED_FORM_TOL:
            raise CheckFailed(f"closed-form purity {mu!r} is not 1 +- {CLOSED_FORM_TOL}")
        if "state" in out:
            state = out["state"]
            gap = max(
                abs(state.normal - closed.normal).max(),
                abs(state.anomalous - closed.anomalous).max(),
            ) / anomalous_strength(SQUEEZE)
            errors.append(gap)
            if not gap <= CLOSED_FORM_TOL:
                raise CheckFailed(f"steady_state is off the closed form by {gap:.3e}")
        return max(errors)

    def completed_solves(self, out: dict) -> int:
        return ("closed" in out) + ("state" in out)

    @staticmethod
    def output_bytes(out: dict) -> int:
        """Bytes of the arrays the pipeline hands back."""
        total = 0
        for key in ("spectrum", "sigma", "closed", "state"):
            obj = out.get(key)
            for field in dataclasses.fields(obj) if obj is not None else ():
                total += getattr(getattr(obj, field.name), "nbytes", 0)
        return total


WORKLOADS = {
    wl.name: wl
    for wl in (
        SteadyWorkload(
            "steady-625", 12,
            "one large lossy solve via the CLI; O(N^3) kernels and JSON encoding at their biggest",
        ),
        CertifyWorkload(
            "certify-625", 12,
            "in-process certification, closed form and lossless solve; no output encoding",
        ),
        CertifyWorkload(
            "certify-closed-625", 12,
            "in-process sigma certification and closed form without the lossless solve",
            solve=False,
        ),
        LossSweepWorkload(
            "sweep-loss-289", 8,
            "ten serial solves of one Hamiltonian; the only case where a factorization could be reused",
            solves=len(LOSS_VALUES),
        ),
        DisorderSweepWorkload(
            "sweep-disorder-81", 4,
            "80 small solves of distinct Hamiltonians at --jobs 2; pool, disorder and negativity costs",
            solves=len(DISORDER_VALUES) * DISORDER_ENSEMBLE,
            jobs=2,
        ),
    )
}


def get(name: str, smoke: bool = False) -> Workload:
    workload = WORKLOADS[name]
    return dataclasses.replace(workload, half_size=2) if smoke else workload
