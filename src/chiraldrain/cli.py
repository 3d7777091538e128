"""Command-line workflows: build lattices, solve steady states, certify
symmetries, and run disorder/loss sweeps.

Every command resolves its parameters from (CLI flags, optional --config
JSON, built-in defaults), writes the fully resolved configuration next to
its outputs, and is deterministic given that configuration and the seed.
Exit codes: 0 success, 1 certification failure, 2 usage or schema error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import contextmanager, nullcontext

import numpy as np

from . import entanglement, lattice as lat, spectral, steady, symmetry

JOBS_ENV_VAR = "CHIRAL_DRAIN_JOBS"

DEFAULTS = {
    "model": "hofstadter",
    "sites": 3,
    "hopping": "1.0",
    "potentials": None,
    "half_size": 4,
    "flux": "0.5pi",
    "labels": "0,1,0,1",
    "amplitude": 1.0,
    "disorder_variance": 0.0,
    "drain": None,
    "gamma": 3.0,
    "squeeze": 1.0,
    "angle": 0.0,
    "loss": 0.0,
    "seed": 0,
    "out": ".",
    "format": "json",
    "reference_site": None,
    "sigma": "eigenmodes",
    "axis": "loss",
    "values": "0,1e-3,1e-2,1e-1",
    "ensemble": None,
}


class UsageError(Exception):
    """Bad flag value or malformed config; maps to exit code 2."""


def _parse_flux(text) -> float:
    """Flux in radians, accepting plain numbers and multiples of pi ("0.5pi")."""
    if isinstance(text, (int, float)):
        return float(text)
    s = str(text).strip().lower().replace(" ", "")
    try:
        if s.endswith("pi"):
            head = s[:-2]
            return float(head) * np.pi if head not in ("", "+", "-") else float(head + "1") * np.pi
        return float(s)
    except ValueError:
        raise UsageError(f"cannot parse flux {text!r}: use radians or a multiple like '0.5pi'")


def _parse_floats(text, name) -> list[float]:
    try:
        return [float(tok) for tok in str(text).split(",") if tok.strip() != ""]
    except ValueError:
        raise UsageError(f"cannot parse {name} {text!r}: expected comma-separated numbers")


def _parse_site(text, lattice: lat.Lattice) -> int:
    if text is None:
        raise UsageError("a drain site is required")
    s = str(text).strip()
    try:
        if "," in s:
            coord = tuple(int(tok) for tok in s.split(","))
            return lattice.site_index(coord)
        return lattice.site_index(int(s))
    except (ValueError, KeyError, IndexError) as exc:
        raise UsageError(f"bad site {text!r}: {exc}")


def _site_label(site: lat.Site) -> str:
    if site.coord is not None and len(site.coord) == 2:
        return f"({site.coord[0]},{site.coord[1]})"
    return str(site.index)


class _Config:
    """Merged view of CLI args, config-file entries, and defaults."""

    def __init__(self, args: argparse.Namespace, allowed: set[str]):
        self.values = {k: v for k, v in vars(args).items() if k not in ("func", "command")}
        path = self.values.pop("config", None)
        if path:
            try:
                with open(path) as fh:
                    data = json.load(fh)
            except OSError as exc:
                raise UsageError(f"cannot read config {path}: {exc}")
            except json.JSONDecodeError as exc:
                raise UsageError(f"config {path} is not valid JSON: {exc}")
            if not isinstance(data, dict):
                raise UsageError(f"config {path} must hold a JSON object")
            for key, value in data.items():
                if key == "command":
                    # a resolved_config.json names the command that wrote it
                    if value != args.command:
                        raise UsageError(
                            f"config {path} is for command {value!r}, not {args.command!r}"
                        )
                    continue
                if key not in allowed:
                    raise UsageError(f"config key {key!r} is not valid for this command")
                if self.values.get(key) is None:
                    self.values[key] = value
        self.resolved: dict = {}

    def get(self, key, fallback=None):
        value = self.values.get(key)
        if value is None:
            value = DEFAULTS.get(key) if fallback is None else fallback
        self.resolved[key] = value
        return value


_MODEL_KEYS = {
    "model", "lattice", "sites", "hopping", "potentials", "half_size", "flux",
    "labels", "amplitude", "disorder_variance", "seed",
}
_DRAIN_KEYS = {"drain", "gamma", "squeeze", "angle", "loss"}
_GLOBAL_KEYS = {"out", "format", "jobs"}


def _resolve_lattice(cfg: _Config) -> lat.Lattice:
    """The lattice of --lattice or --model, before any disorder."""
    path = cfg.get("lattice", fallback="")
    if path:
        try:
            lattice = lat.load_lattice(path)
        except OSError as exc:
            raise UsageError(f"cannot read lattice {path}: {exc}")
    else:
        model = cfg.get("model")
        if model == "chain":
            hopping = _parse_floats(cfg.get("hopping"), "hopping")
            n = int(cfg.get("sites"))
            pot_text = cfg.get("potentials", fallback="")
            potentials = _parse_floats(pot_text, "potentials") if pot_text else None
            lattice = lat.build_chain(
                n, hopping[0] if len(hopping) == 1 else hopping, potentials
            )
        elif model == "hofstadter":
            lattice = lat.build_hofstadter(
                int(cfg.get("half_size")), 1.0, _parse_flux(cfg.get("flux"))
            )
        elif model == "bipartite-random":
            labels = [int(v) for v in _parse_floats(cfg.get("labels"), "labels")]
            lattice = lat.build_bipartite_random(
                labels, int(cfg.get("seed")), float(cfg.get("amplitude"))
            )
        else:
            raise UsageError(f"unknown model {model!r}")
    return lattice


def _add_disorder(cfg: _Config, lattice: lat.Lattice, drain_text) -> lat.Lattice:
    """``lattice`` with the configured seeded on-site disorder, which spares
    the drain site ``drain_text`` (if not None)."""
    variance = float(cfg.get("disorder_variance"))
    if variance > 0.0:
        exclude = () if drain_text is None else (_parse_site(drain_text, lattice),)
        lattice = lat.add_disorder(lattice, variance, int(cfg.get("seed")), exclude)
    return lattice


def _resolve_drained(cfg: _Config) -> tuple[lat.Lattice, steady.DrainSpec]:
    """The drained lattice and its drain; disorder spares the drain site
    whether it was given or defaulted."""
    lattice = _resolve_lattice(cfg)
    drain_text = cfg.get("drain")
    if drain_text is None:
        drain_text = "2,2" if lattice.model.get("name") == "hofstadter" else "0"
        cfg.resolved["drain"] = drain_text
    lattice = _add_disorder(cfg, lattice, drain_text)
    noise = steady.SqueezedNoise(r=float(cfg.get("squeeze")), phi=float(cfg.get("angle")))
    return lattice, steady.DrainSpec(
        drain=_parse_site(drain_text, lattice),
        gamma=float(cfg.get("gamma")),
        noise=noise,
        site_loss=float(cfg.get("loss")),
    )


def _out_dir(cfg: _Config) -> str:
    out = str(cfg.get("out"))
    os.makedirs(out, exist_ok=True)
    return out


def _emit_config(cfg: _Config, out: str, command: str) -> None:
    payload = {"command": command}
    payload.update({k: v for k, v in sorted(cfg.resolved.items()) if k != "func"})
    with open(os.path.join(out, "resolved_config.json"), "w") as fh:
        json.dump(payload, fh, indent=1)


def cmd_build(args) -> int:
    cfg = _Config(args, _MODEL_KEYS | _GLOBAL_KEYS | {"drain"})
    lattice = _add_disorder(cfg, _resolve_lattice(cfg), cfg.get("drain"))
    out = _out_dir(cfg)
    path = os.path.join(out, "lattice.json")
    lat.save_lattice(lattice, path)
    report = lat.validate(lattice)
    _emit_config(cfg, out, "build")
    print(f"wrote {path}")
    print(
        f"sites={report.n_sites} hermiticity_defect={report.hermiticity_defect:.3e} "
        f"connected={report.connected} bandwidth={report.bandwidth}"
    )
    return 0


def _csv_label(text: str) -> str:
    """A label as csv.writer quotes it by default, e.g. '"(1,2)"'."""
    if any(c in text for c in ',"\r\n'):
        return '"%s"' % text.replace('"', '""')
    return text


def _write_labelled_csv(path, header, labels, values):
    """The bytes csv.writer gives for ``header`` and the rows
    ``[label, "%.9g" % v, ...]``, formatted with one % operation per row."""
    line = "%s" + ",%.9g" * values.shape[1] + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(
            line % (_csv_label(label), *row) for label, row in zip(labels, values.tolist())
        )


def cmd_steady(args) -> int:
    cfg = _Config(args, _MODEL_KEYS | _DRAIN_KEYS | _GLOBAL_KEYS | {"reference_site"})
    lattice, spec = _resolve_drained(cfg)
    ref_text = cfg.get("reference_site")
    if ref_text is None:
        model = lattice.model
        # (4,1) where the grid has it, the last column's (M,1) below 9x9
        ref_text = f"{min(4, model['half_size'])},1" if model.get("name") == "hofstadter" else "0"
        cfg.resolved["reference_site"] = ref_text
    ref = _parse_site(ref_text, lattice)
    out = _out_dir(cfg)

    system = steady.DrainedSystem(lattice, spec.drain, spec.gamma)
    coupling, spectrum = system.coupling, system.spectrum
    state = system.steady_state(spec.noise, spec.site_loss)
    log_mu = steady.log_purity(state)  # an unphysical state writes no files

    with open(os.path.join(out, "state.json"), "w") as fh:
        steady.write_state_json(state, fh)

    r = spec.noise.r
    scale = np.cosh(r) * np.sinh(r) if r > 0 else 1.0
    labels = [_site_label(s) for s in lattice.sites]
    _write_labelled_csv(
        os.path.join(out, "heatmap.csv"), [""] + labels, labels,
        np.abs(state.anomalous) / scale,
    )
    _write_labelled_csv(
        os.path.join(out, "slice.csv"), ["site", "abs_anomalous_scaled"], labels,
        np.abs(state.anomalous[ref, :, None]) / scale,
    )

    _emit_config(cfg, out, "steady")
    print(f"wrote state.json, heatmap.csv, slice.csv in {out}")
    print(
        f"purity={np.exp(log_mu):.12g} log_purity={log_mu:.12g} dark_modes={len(coupling.dark)} "
        f"min_relaxation_rate={spectrum.min_bright_decay:.6g} "
        f"solver_residual={state.residual:.3e}"
    )
    return 0


def cmd_spectrum(args) -> int:
    cfg = _Config(args, _MODEL_KEYS | _DRAIN_KEYS | _GLOBAL_KEYS)
    lattice, spec = _resolve_drained(cfg)
    out = _out_dir(cfg)
    system = steady.DrainedSystem(lattice, spec.drain, spec.gamma)
    coupling, spectrum = system.coupling, system.spectrum
    report = spectral.spectrum_report(coupling, spectrum)
    with open(os.path.join(out, "spectrum.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    if cfg.get("format") == "csv":
        with open(os.path.join(out, "spectrum.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "energy", "drain_rate", "dark", "nu", "gamma", "residual"])
            for i in range(coupling.n_modes):
                lam = spectrum.eigenvalues[i]
                res = spectrum.residuals[i]
                writer.writerow(
                    [
                        i,
                        "%.9g" % coupling.eig.energies[i],
                        "%.9g" % coupling.rates[i],
                        int(i in coupling.dark),
                        "%.9g" % lam.real,
                        "%.9g" % (-2 * lam.imag),
                        "" if np.isnan(res) else "%.9g" % res,
                    ]
                )
    _emit_config(cfg, out, "spectrum")
    print(f"wrote spectrum report in {out}")
    print(
        f"dark_modes={len(coupling.dark)} "
        f"min_relaxation_rate={spectrum.min_bright_decay:.6g}"
    )
    return 0


_SIGMA_CHOICES = (
    "bipartite",
    "inversion",
    "inversion-signed",
    "hofstadter-z0",
    "hofstadter-0z",
    "hofstadter-zz",
    "eigenmodes",
)


def _named_sigma(kind: str, lattice: lat.Lattice) -> symmetry.SymmetryMatrix:
    if kind == "bipartite":
        labels = lattice.sublattice_labels
        if labels is None:
            raise UsageError("lattice has no sublattice labels")
        return symmetry.sigma_bipartite(labels)
    if kind in ("inversion", "inversion-signed"):
        return symmetry.sigma_inversion(lattice.sites, signed=kind.endswith("signed"))
    if kind.startswith("hofstadter-"):
        model = lattice.model
        if model.get("name") != "hofstadter":
            raise UsageError(f"{kind} needs a hofstadter lattice")
        return symmetry.sigma_hofstadter(
            kind.split("-", 1)[1], int(model["half_size"]), float(model["flux"])
        )
    raise UsageError(f"unknown sigma {kind!r}")


def cmd_check(args) -> int:
    cfg = _Config(args, _MODEL_KEYS | _DRAIN_KEYS | _GLOBAL_KEYS | {"sigma"})
    lattice, spec = _resolve_drained(cfg)
    out = _out_dir(cfg)
    system = steady.DrainedSystem(lattice, spec.drain, spec.gamma)
    coupling, spectrum = system.coupling, system.spectrum
    pairing = spectral.chiral_pairing(coupling)
    kind = cfg.get("sigma")
    if kind == "eigenmodes":
        try:
            sigma = steady.extract_sigma(coupling, pairing)
        except (steady.DarkModeError, steady.PairingError) as exc:
            _emit_config(cfg, out, "check")
            print(f"cannot build sigma from eigenmodes: {exc}")
            print("overall: FAIL")
            return 1
    else:
        sigma = _named_sigma(kind, lattice)
    report = symmetry.check_symmetry(sigma, lattice, drain=spec.drain)

    max_residual = float(np.nanmax(spectrum.residuals)) if coupling.bright.any() else 0.0
    passed = report.passed and pairing.holds and max_residual < 1e-8
    payload = report.to_dict()
    payload.update(
        {
            "pairing_energy_defect": pairing.energy_defect,
            "pairing_amplitude_defect": pairing.amplitude_defect,
            "dark_count": len(coupling.dark),
            "dark_modes": list(coupling.dark),
            "max_consistency_residual": max_residual,
            "overall_pass": passed,
        }
    )
    with open(os.path.join(out, "certification.json"), "w") as fh:
        json.dump(payload, fh, indent=1)
    _emit_config(cfg, out, "check")
    print(
        f"symmetry: {'PASS' if report.passed else 'FAIL'} "
        f"(relation={report.relation}, ph={report.particle_hole_residual:.3e}, "
        f"chiral={report.chiral_residual:.3e}, drain="
        + (f"{report.drain_residual:.3e}" if report.drain_residual is not None else "n/a")
        + ")"
    )
    print(
        f"pairing defects: energy={pairing.energy_defect:.3e} "
        f"amplitude={pairing.amplitude_defect:.3e}"
    )
    print(f"dark modes: {len(coupling.dark)}")
    print(f"max consistency residual: {max_residual:.3e}")
    print("overall: " + ("PASS" if passed else "FAIL"))
    return 0 if passed else 1


def _realization_seed(base_seed: int, value_index: int, realization: int) -> int:
    seq = np.random.SeedSequence(entropy=base_seed, spawn_key=(value_index, realization))
    return int(seq.generate_state(1, np.uint64)[0])


# What every sweep task shares: set once per pool worker by the executor's
# initializer, and in-process for a serial sweep.
_sweep_base: dict = {}


def _init_sweep(lattice, drain, gamma, noise) -> None:
    """Install the sweep's base lattice (its dict form in pool workers) and its
    drained system in this process."""
    if isinstance(lattice, dict):
        lattice = lat.lattice_from_dict(lattice)
    _sweep_base.update(
        lattice=lattice, drain=drain, gamma=gamma, noise=noise,
        system=steady.DrainedSystem(lattice, drain, gamma),
    )


def _sweep_point(task) -> float:
    """Mirrored-pair entanglement of one sweep realization ``(axis, value, seed)``;
    module-level so process pools can pickle it."""
    axis, value, seed = task
    lattice, drain = _sweep_base["lattice"], _sweep_base["drain"]
    if axis == "disorder":
        lattice = lat.add_disorder(lattice, value, seed, exclude=(drain,))
        system, loss = steady.DrainedSystem(lattice, drain, _sweep_base["gamma"]), 0.0
    else:
        system, loss = _sweep_base["system"], value
    state = system.steady_state(_sweep_base["noise"], site_loss=loss)
    return entanglement.mirrored_pair_average(state, lattice)


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def _sweep_pool(jobs: int, initargs):
    """A process pool of ``jobs`` spawned sweep workers with one BLAS thread each.

    Forked workers would inherit the parent's BLAS thread pool, so ``jobs``
    workers would run ``jobs`` times as many threads as the machine has cores.
    Spawned workers load BLAS afresh and read the thread variables, which are
    set to 1 while the pool runs; the caller's environment is restored after.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        with ProcessPoolExecutor(
            max_workers=jobs, mp_context=multiprocessing.get_context("spawn"),
            initializer=_init_sweep, initargs=initargs,
        ) as pool:
            yield pool
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def cmd_sweep(args) -> int:
    cfg = _Config(
        args, _MODEL_KEYS | _DRAIN_KEYS | _GLOBAL_KEYS | {"axis", "values", "ensemble"}
    )
    lattice, spec = _resolve_drained(cfg)
    out = _out_dir(cfg)
    axis = cfg.get("axis")
    if axis not in ("disorder", "loss"):
        raise UsageError(f"axis must be 'disorder' or 'loss', got {axis!r}")
    values = _parse_floats(cfg.get("values"), "values")
    if any(v < 0 for v in values):
        raise UsageError("axis values must be nonnegative")
    ensemble = cfg.get("ensemble", fallback=20 if axis == "disorder" else 1)
    ensemble = int(ensemble)
    if ensemble < 1:
        raise UsageError(f"ensemble must be >= 1, got {ensemble}")
    # every realization keeps the base lattice's sites, so one check covers them
    entanglement._square_grid(lattice)
    seed = int(cfg.get("seed"))
    jobs = cfg.values.get("jobs")
    if jobs is None:
        jobs = int(os.environ.get(JOBS_ENV_VAR, "1"))
    jobs = max(1, int(jobs))
    cfg.resolved["jobs"] = jobs

    drain_label = _site_label(lattice.sites[spec.drain])
    tasks = [
        (axis, value, _realization_seed(seed, vi, k) if axis == "disorder" else seed)
        for vi, value in enumerate(values)
        for k in range(ensemble)
    ]
    base = (spec.drain, spec.gamma, spec.noise)
    results = []
    try:
        with _sweep_pool(
            jobs, (lat.lattice_to_dict(lattice), *base)
        ) if jobs > 1 else nullcontext() as pool:
            if pool is None:
                _init_sweep(lattice, *base)
            # results arrive in task order, so tasks[len(results)] is the one that failed
            for result in (pool.map if pool else map)(_sweep_point, tasks):
                results.append(result)
    except (steady.DarkModeError, spectral.SolverError) as exc:
        _, value, rseed = tasks[len(results)]
        raise spectral.SolverError(
            f"sweep realization failed (realization seed {rseed}, value {value}): {exc}"
        ) from exc
    finally:
        _sweep_base.clear()

    axis_column = "disorder_variance" if axis == "disorder" else "gamma_loss"
    csv_path = os.path.join(out, "sweep.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([axis_column, "realization_seed", "ebar_n"])
        for (_, value, rseed), ebar in zip(tasks, results):
            writer.writerow(["%.9g" % value, rseed, "%.9g" % ebar])
    summary = []
    for vi, value in enumerate(values):
        chunk = results[vi * ensemble:(vi + 1) * ensemble]
        mean = float(np.mean(chunk))
        stderr = float(np.std(chunk, ddof=1) / np.sqrt(len(chunk))) if len(chunk) > 1 else 0.0
        summary.append(
            {"value": value, "mean_ebar_n": mean, "stderr": stderr, "n_realizations": ensemble}
        )
    with open(os.path.join(out, "sweep_summary.json"), "w") as fh:
        json.dump({"axis": axis, "points": summary}, fh, indent=1)
    _emit_config(cfg, out, "sweep")
    print(f"wrote sweep.csv and sweep_summary.json in {out} (drain {drain_label})")
    for point in summary:
        print(
            f"  {axis_column}={point['value']:.6g}: "
            f"ebar_n={point['mean_ebar_n']:.6g} +- {point['stderr']:.2g}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file with defaults for any flag")
    common.add_argument("--out", help="output directory (default: current)")
    common.add_argument("--seed", type=int, help="RNG seed (default 0)")
    common.add_argument("--format", choices=["json", "csv"], dest="format")
    common.add_argument("--jobs", type=int, help=f"parallel workers (default ${JOBS_ENV_VAR} or 1)")

    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--model", choices=["chain", "hofstadter", "bipartite-random"])
    model.add_argument("--lattice", help="read the lattice from a JSON file instead")
    model.add_argument("--sites", type=int, help="chain length")
    model.add_argument("--hopping", help="chain hopping (scalar or comma list)")
    model.add_argument("--potentials", help="chain on-site potentials (comma list)")
    model.add_argument("--half-size", dest="half_size", type=int, help="hofstadter half size M")
    model.add_argument("--flux", help="hofstadter flux (radians or e.g. '0.5pi')")
    model.add_argument("--labels", help="bipartite sublattice labels (comma list)")
    model.add_argument("--amplitude", type=float, help="bipartite hopping amplitude")
    model.add_argument(
        "--disorder-variance", dest="disorder_variance", type=float,
        help="add seeded on-site disorder of this variance",
    )

    drain = argparse.ArgumentParser(add_help=False)
    drain.add_argument("--drain", help="drain site: index or 'x,y'")
    drain.add_argument("--gamma", type=float, help="drain coupling rate (units of J)")
    drain.add_argument("--squeeze", type=float, help="squeezing parameter r")
    drain.add_argument("--angle", type=float, help="squeezing angle phi")
    drain.add_argument("--loss", type=float, help="uniform per-site loss rate")

    parser = argparse.ArgumentParser(
        prog="chiraldrain",
        description="Gaussian steady states of bosonic lattices with a squeezed drain",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("build", parents=[common, model], help="build and save a lattice").set_defaults(
        func=cmd_build
    )
    p_steady = sub.add_parser(
        "steady", parents=[common, model, drain], help="solve and export the steady state"
    )
    p_steady.add_argument("--reference-site", dest="reference_site", help="slice reference site")
    p_steady.set_defaults(func=cmd_steady)
    sub.add_parser(
        "spectrum", parents=[common, model, drain], help="export the dynamical spectrum"
    ).set_defaults(func=cmd_spectrum)
    p_check = sub.add_parser(
        "check", parents=[common, model, drain], help="certify the chiral symmetry"
    )
    p_check.add_argument("--sigma", choices=_SIGMA_CHOICES, help="symmetry matrix to test")
    p_check.set_defaults(func=cmd_check)
    p_sweep = sub.add_parser(
        "sweep", parents=[common, model, drain], help="disorder or loss robustness sweep"
    )
    p_sweep.add_argument("--axis", choices=["disorder", "loss"])
    p_sweep.add_argument("--values", help="comma-separated axis values")
    p_sweep.add_argument("--ensemble", type=int, help="realizations per value")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (steady.DarkModeError, steady.PairingError, spectral.SolverError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
