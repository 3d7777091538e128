import csv
import io
import json
import os
import re
from contextlib import contextmanager

import numpy as np
import pytest

from chiraldrain import cli
from chiraldrain import lattice as lat
from chiraldrain import spectral, steady

from fixtures import count_calls, count_factorizations, factorization_counts, fresh_python


def run(*args):
    return cli.main(list(args))


def assert_one_svd(calls):
    # flux lattices have no bond inside a sublattice: one SVD of the hopping block
    assert factorization_counts(calls) == {"svd": 1}


class TestBuild:
    def test_hofstadter_fig2(self, tmp_path):
        code = run(
            "build", "--model", "hofstadter", "--half-size", "4",
            "--flux", "0.5pi", "--out", str(tmp_path),
        )
        assert code == 0
        lattice = lat.load_lattice(tmp_path / "lattice.json")
        assert lattice.n_sites == 81
        assert np.isclose(lattice.model["flux"], np.pi / 2)
        assert (tmp_path / "resolved_config.json").exists()

    def test_chain(self, tmp_path):
        assert run("build", "--model", "chain", "--sites", "3", "--out", str(tmp_path)) == 0
        assert lat.load_lattice(tmp_path / "lattice.json").n_sites == 3

    def test_malformed_flux_exits_2(self, tmp_path):
        code = run(
            "build", "--model", "hofstadter", "--flux", "half-a-pie", "--out", str(tmp_path)
        )
        assert code == 2

    def test_unknown_command_exits_2(self):
        assert run("frobnicate") == 2

    def test_help_exits_0(self):
        assert run("--help") == 0


class TestFluxParsing:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("0.5pi", np.pi / 2), ("pi", np.pi), ("-pi", -np.pi),
            ("2pi", 2 * np.pi), ("1.25", 1.25), (" 0.4 PI ", 0.4 * np.pi),
        ],
    )
    def test_accepted(self, text, value):
        assert np.isclose(cli._parse_flux(text), value)

    @pytest.mark.parametrize("text", ["", "pie", "0.5pix", "pi/2"])
    def test_rejected(self, text):
        with pytest.raises(cli.UsageError):
            cli._parse_flux(text)


class TestSteady:
    def test_chain_outputs(self, tmp_path, capsys):
        code = run(
            "steady", "--model", "chain", "--sites", "3", "--drain", "0",
            "--gamma", "1.0", "--squeeze", "1.0", "--out", str(tmp_path),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "purity=1" in out
        assert "dark_modes=0" in out
        state = json.load(open(tmp_path / "state.json"))
        assert state["n_modes"] == 3
        rows = list(csv.reader(open(tmp_path / "heatmap.csv")))
        assert rows[0][1:] == ["0", "1", "2"]
        assert float(rows[1][1]) == pytest.approx(1.0, abs=1e-9)

    def test_log_purity_printed_next_to_purity(self, tmp_path, capsys):
        code = run(
            "steady", "--model", "chain", "--sites", "4", "--drain", "0", "--gamma", "1.0",
            "--squeeze", "0.8", "--loss", "0.02", "--out", str(tmp_path),
        )
        assert code == 0
        values = dict(re.findall(r"(\w+)=(\S+)", capsys.readouterr().out))
        log_mu = float(values["log_purity"])
        assert log_mu < -1e-6
        assert np.exp(log_mu) == pytest.approx(float(values["purity"]), rel=1e-11)

    def test_unphysical_state_writes_no_files(self, tmp_path, monkeypatch):
        def unphysical(state):
            raise ValueError("covariance is unphysical")

        monkeypatch.setattr(steady, "log_purity", unphysical)
        code = run(
            "steady", "--model", "chain", "--sites", "4", "--drain", "0",
            "--loss", "0.02", "--out", str(tmp_path),
        )
        assert code == 2
        assert not (tmp_path / "state.json").exists()
        assert list(tmp_path.iterdir()) == []

    def test_zero_squeezing_zero_heatmap(self, tmp_path):
        run(
            "steady", "--model", "chain", "--sites", "3", "--drain", "0",
            "--squeeze", "0", "--gamma", "1.0", "--out", str(tmp_path),
        )
        rows = list(csv.reader(open(tmp_path / "heatmap.csv")))
        values = [float(v) for row in rows[1:] for v in row[1:]]
        assert max(values) < 1e-12

    def test_dark_modes_exit_3(self, tmp_path, capsys):
        code = run(
            "steady", "--model", "chain", "--sites", "3", "--drain", "1",
            "--gamma", "1.0", "--out", str(tmp_path),
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "dark" in err and "1" in err

    def test_hofstadter_defaults(self, tmp_path, capsys):
        code = run("steady", "--out", str(tmp_path))
        assert code == 0
        out = capsys.readouterr().out
        assert "dark_modes=0" in out
        config = json.load(open(tmp_path / "resolved_config.json"))
        assert config["drain"] == "2,2"
        assert config["gamma"] == 3.0
        rows = list(csv.reader(open(tmp_path / "slice.csv")))
        assert rows[0] == ["site", "abs_anomalous_scaled"]
        assert len(rows) == 82

    def test_small_flux_lattice_defaults_reference_site_onto_grid(self, tmp_path):
        assert run("steady", "--half-size", "2", "--out", str(tmp_path)) == 0
        assert json.load(open(tmp_path / "resolved_config.json"))["reference_site"] == "2,1"
        assert len(list(csv.reader(open(tmp_path / "slice.csv")))) == 26

    def test_bad_reference_site_exits_2_before_solving(self, tmp_path, monkeypatch):
        solves = count_calls(monkeypatch, steady.DrainedSystem, "steady_state")
        out = tmp_path / "out"
        code = run("steady", "--half-size", "2", "--reference-site", "9,9", "--out", str(out))
        assert code == 2
        assert solves == []
        assert not (out / "state.json").exists()

    def test_disorder_spares_the_default_drain(self, tmp_path):
        args = ("steady", "--half-size", "2", "--disorder-variance", "0.1", "--seed", "1",
                "--loss", "1e-2")
        assert run(*args, "--out", str(tmp_path / "default")) == 0
        assert run(*args, "--drain", "2,2", "--out", str(tmp_path / "given")) == 0
        default, given = (tmp_path / out / "state.json" for out in ("default", "given"))
        assert default.read_bytes() == given.read_bytes()

    def test_one_dense_factorization(self, tmp_path, monkeypatch):
        # the spectrum comes from its secular equation and the drift eigenbasis
        # from the spectrum in closed form: diagonalizing H is the only
        # factorization, also for the lossless solve with its dark-mode census
        for loss in ("1e-3", "0"):
            calls = count_factorizations(monkeypatch)
            assert run("steady", "--half-size", "4", "--loss", loss, "--out", str(tmp_path)) == 0
            assert_one_svd(calls)


class TestSteadyOutputs:
    """state.json, heatmap.csv and slice.csv against the library's encoders."""

    def test_files_match_reference_encoders(self, tmp_path, monkeypatch):
        solved = []
        solve = steady.DrainedSystem.steady_state

        def keep(*args, **kwargs):
            solved.append(solve(*args, **kwargs))
            return solved[-1]

        monkeypatch.setattr(steady.DrainedSystem, "steady_state", keep)
        code = run(
            "steady", "--half-size", "2", "--drain", "2,2", "--squeeze", "0.8",
            "--loss", "0.01", "--reference-site", "1,-1", "--out", str(tmp_path),
        )
        assert code == 0
        (state,) = solved
        text = (tmp_path / "state.json").read_text()
        assert text == json.dumps(steady.state_to_dict(state))

        lattice = lat.build_hofstadter(2, 1.0, np.pi / 2)
        labels = [f"({s.coord[0]},{s.coord[1]})" for s in lattice.sites]
        scaled = np.abs(state.anomalous) / (np.cosh(0.8) * np.sinh(0.8))
        heatmap, slice_ = io.StringIO(newline=""), io.StringIO(newline="")
        writer = csv.writer(heatmap)
        writer.writerow([""] + labels)
        for label, row in zip(labels, scaled):
            writer.writerow([label] + ["%.9g" % v for v in row])
        writer = csv.writer(slice_)
        writer.writerow(["site", "abs_anomalous_scaled"])
        for label, value in zip(labels, scaled[lattice.site_index((1, -1))]):
            writer.writerow([label, "%.9g" % value])
        assert (tmp_path / "heatmap.csv").read_bytes() == heatmap.getvalue().encode()
        assert (tmp_path / "slice.csv").read_bytes() == slice_.getvalue().encode()


class TestSpectrum:
    def test_json_and_csv(self, tmp_path):
        code = run(
            "spectrum", "--model", "chain", "--sites", "3", "--drain", "1",
            "--gamma", "1.0", "--format", "csv", "--out", str(tmp_path),
        )
        assert code == 0
        report = json.load(open(tmp_path / "spectrum.json"))
        assert report["dark_modes"] == [1]
        assert len(report["energies"]) == 3
        rows = list(csv.reader(open(tmp_path / "spectrum.csv")))
        assert len(rows) == 4

    def test_one_dense_factorization(self, tmp_path, monkeypatch):
        calls = count_factorizations(monkeypatch)
        assert run("spectrum", "--half-size", "4", "--out", str(tmp_path)) == 0
        assert_one_svd(calls)

    def test_unconverged_roots_exit_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(spectral, "SECULAR_MAX_SWEEPS", 1)
        code = run("spectrum", "--half-size", "4", "--drain", "2,2", "--out", str(tmp_path))
        assert code == 3
        assert "of 81 roots did not converge" in capsys.readouterr().err


class TestCheck:
    def test_one_dense_factorization(self, tmp_path, monkeypatch):
        calls = count_factorizations(monkeypatch)
        assert run("check", "--half-size", "4", "--out", str(tmp_path)) == 0
        assert_one_svd(calls)

    def test_hofstadter_bipartite_passes(self, tmp_path, capsys):
        code = run(
            "check", "--sigma", "bipartite", "--drain", "2,2", "--out", str(tmp_path)
        )
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_uniform_potential_fails(self, tmp_path, capsys):
        code = run(
            "check", "--model", "chain", "--sites", "4", "--potentials",
            "0.4,0.4,0.4,0.4", "--sigma", "bipartite", "--drain", "0",
            "--out", str(tmp_path),
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_center_drain_census_flagged(self, tmp_path):
        code = run("check", "--sigma", "bipartite", "--drain", "0,0", "--out", str(tmp_path))
        report = json.load(open(tmp_path / "certification.json"))
        census = json.load(open("tests/data/hofstadter_dark_census.json"))
        assert report["dark_count"] == census["dark_count"]
        assert code == 0  # chirality holds; dark modes are reported, not fatal

    def test_eigenmode_sigma_passes(self, tmp_path):
        code = run(
            "check", "--model", "chain", "--sites", "5", "--drain", "0",
            "--sigma", "eigenmodes", "--out", str(tmp_path),
        )
        assert code == 0
        report = json.load(open(tmp_path / "certification.json"))
        assert report["relation"] == "particle_hole"
        assert report["drain_residual"] < 1e-9

    def test_eigenmode_sigma_on_non_chiral_fails(self, tmp_path, capsys):
        code = run(
            "check", "--model", "chain", "--sites", "2", "--potentials",
            "0.4,-0.1", "--drain", "0", "--sigma", "eigenmodes",
            "--out", str(tmp_path),
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_sigma_needs_matching_lattice(self, tmp_path):
        code = run(
            "check", "--model", "bipartite-random", "--labels", "0,1,0,1",
            "--sigma", "hofstadter-zz", "--drain", "0", "--out", str(tmp_path),
        )
        assert code == 2

    def test_lattice_file_input(self, tmp_path):
        assert run("build", "--model", "chain", "--sites", "5", "--out", str(tmp_path)) == 0
        code = run(
            "steady", "--lattice", str(tmp_path / "lattice.json"), "--drain", "0",
            "--gamma", "1.0", "--squeeze", "0.5", "--out", str(tmp_path / "run"),
        )
        assert code == 0
        state = json.load(open(tmp_path / "run" / "state.json"))
        assert state["n_modes"] == 5

    def test_consistency_on_17x17_flux_lattice(self, tmp_path, capsys):
        # the slowest bright root lies ~1e-10 from its pole, so evaluating the
        # residual at the rounded eigenvalue would read ~1e-6
        code = run("check", "--half-size", "8", "--drain", "2,2", "--out", str(tmp_path))
        assert code == 0
        assert "overall: PASS" in capsys.readouterr().out
        report = json.load(open(tmp_path / "certification.json"))
        assert report["max_consistency_residual"] < 1e-8

    def test_missing_lattice_file_exits_2(self, tmp_path):
        code = run(
            "steady", "--lattice", str(tmp_path / "nope.json"), "--out", str(tmp_path)
        )
        assert code == 2


class TestSweep:
    def sweep_args(self, out, seed="7"):
        return (
            "sweep", "--model", "hofstadter", "--half-size", "1", "--flux", "0.5pi",
            "--drain", "1,1", "--gamma", "1.0", "--squeeze", "0.5",
            "--axis", "loss", "--values", "1e-2,1e-1", "--ensemble", "2",
            "--seed", seed, "--out", out,
        )

    def test_loss_sweep_runs(self, tmp_path):
        assert run(*self.sweep_args(str(tmp_path))) == 0
        rows = list(csv.reader(open(tmp_path / "sweep.csv")))
        assert rows[0] == ["gamma_loss", "realization_seed", "ebar_n"]
        assert len(rows) == 5
        summary = json.load(open(tmp_path / "sweep_summary.json"))
        assert len(summary["points"]) == 2
        means = [p["mean_ebar_n"] for p in summary["points"]]
        assert means[0] > means[1]

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(*self.sweep_args(str(a))) == 0
        assert run(*self.sweep_args(str(b))) == 0
        assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()

    def test_disorder_sweep_excludes_drain(self, tmp_path):
        code = run(
            "sweep", "--model", "hofstadter", "--half-size", "1", "--flux", "0.5pi",
            "--drain", "1,1", "--gamma", "1.0", "--squeeze", "0.5",
            "--axis", "disorder", "--values", "1e-4", "--ensemble", "3",
            "--seed", "3", "--out", str(tmp_path),
        )
        assert code == 0
        rows = list(csv.reader(open(tmp_path / "sweep.csv")))
        seeds = {row[1] for row in rows[1:]}
        assert len(seeds) == 3  # one derived seed per realization

    def test_parallel_jobs_match_serial(self, tmp_path):
        serial, parallel = tmp_path / "s", tmp_path / "p"
        assert run(*self.sweep_args(str(serial))) == 0
        assert run(*self.sweep_args(str(parallel)), "--jobs", "2") == 0
        assert (serial / "sweep.csv").read_bytes() == (parallel / "sweep.csv").read_bytes()

    def test_serial_sweep_skips_the_lattice_dict(self, tmp_path, monkeypatch):
        calls = [count_calls(monkeypatch, lat, name)
                 for name in ("lattice_to_dict", "lattice_from_dict")]
        assert run(*self.sweep_args(str(tmp_path)), "--jobs", "1") == 0
        assert calls == [[], []]

    def test_pool_workers_run_one_blas_thread(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        before = dict(os.environ)
        seen = []
        pool = cli._sweep_pool

        @contextmanager
        def probed(jobs, initargs):
            with pool(jobs, initargs) as workers:
                seen.extend(workers.map(os.getenv, cli._BLAS_THREAD_VARS))
                yield workers

        monkeypatch.setattr(cli, "_sweep_pool", probed)
        assert run(*self.sweep_args(str(tmp_path / "ok")), "--jobs", "2") == 0
        assert seen == ["1", "1", "1"]
        assert dict(os.environ) == before
        # a failing realization (a dark mode at loss 0) leaves it unchanged too
        code = run(
            "sweep", "--half-size", "1", "--drain", "1,1", "--axis", "disorder",
            "--values", "0", "--ensemble", "2", "--jobs", "2", "--out", str(tmp_path / "dark"),
        )
        assert code == 3
        assert dict(os.environ) == before

    def test_negative_values_rejected(self, tmp_path):
        code = run(
            "sweep", "--axis", "loss", "--values", "-0.1", "--out", str(tmp_path)
        )
        assert code == 2

    @pytest.mark.parametrize(
        "model, failing_value",
        [
            (("--half-size", "1", "--drain", "1,1", "--values", "0"), 0),
            # both realizations at 1e-2 solve; the first one at 0 must be named
            (("--half-size", "1", "--drain", "1,1", "--values", "1e-2,0"), 1),
        ],
        ids=["first-task", "after-successes"],
    )
    def test_dark_mode_failure_names_seed_at_any_job_count(
        self, tmp_path, capsys, model, failing_value
    ):
        errors = []
        for jobs in ("1", "2"):
            code = run(
                "sweep", *model, "--axis", "disorder", "--ensemble", "2",
                "--jobs", jobs, "--out", str(tmp_path / jobs),
            )
            assert code == 3
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        seed = cli._realization_seed(0, failing_value, 0)
        assert f"(realization seed {seed}, value 0.0)" in errors[0] and "dark" in errors[0]

    def test_loss_sweep_factorizes_once(self, tmp_path, monkeypatch):
        calls = count_factorizations(monkeypatch)
        args = list(self.sweep_args(str(tmp_path)))
        args[args.index("--values") + 1] = "1e-3,1e-2,1e-1,0.5"
        args[args.index("--ensemble") + 1] = "1"
        assert run(*args, "--jobs", "1") == 0
        assert_one_svd(calls)

    def test_disorder_sweep_factorizes_each_realization(self, tmp_path, monkeypatch):
        calls = count_factorizations(monkeypatch)
        code = run(
            "sweep", "--half-size", "1", "--drain", "1,1", "--axis", "disorder",
            "--values", "1e-4,1e-3", "--ensemble", "2", "--jobs", "1", "--out", str(tmp_path),
        )
        assert code == 0
        # on-site disorder fills the sublattice blocks: one eigh per realization
        assert factorization_counts(calls) == {"eigh": 4}

    def test_loss_sweep_checks_each_shifted_solve(self, tmp_path, capsys):
        # drain (1,1) of the 3x3 lattice leaves a dark mode: the loss-free drift
        # is singular, the solve at 0.05 is not, and the lossless one is refused
        code = run(
            "sweep", "--half-size", "1", "--drain", "1,1", "--axis", "loss",
            "--values", "0.05,0", "--out", str(tmp_path),
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "value 0.0)" in err and "dark" in err

    def test_grid_checked_before_any_solve(self, tmp_path, capsys, monkeypatch):
        calls = count_calls(monkeypatch, steady.DrainedSystem, "steady_state")
        code = run(
            "sweep", "--model", "chain", "--sites", "3", "--drain", "1",
            "--axis", "disorder", "--values", "1e-2,0", "--ensemble", "2",
            "--out", str(tmp_path),
        )
        assert code == 2
        assert "mirrored-pair average needs 2D coordinates" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "sweep.csv").exists()

    def test_ensemble_below_one_rejected(self, tmp_path):
        code = run(
            "sweep", "--axis", "loss", "--values", "0.1", "--ensemble", "0",
            "--out", str(tmp_path),
        )
        assert code == 2
        assert not (tmp_path / "sweep_summary.json").exists()

    def test_zero_variance_matches_clean_value(self, tmp_path):
        code = run(
            "sweep", "--axis", "disorder", "--values", "0", "--ensemble", "2",
            "--seed", "5", "--out", str(tmp_path),
        )
        assert code == 0
        rows = list(csv.reader(open(tmp_path / "sweep.csv")))
        clean = np.log(np.sqrt(2.0)) * 2.0  # default squeezing r = 1
        for row in rows[1:]:
            assert float(row[2]) == pytest.approx(clean, abs=1e-8)


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"model": "chain", "sites": 4}))
        code = run("build", "--config", str(config), "--out", str(tmp_path))
        assert code == 0
        assert lat.load_lattice(tmp_path / "lattice.json").n_sites == 4

    def test_cli_overrides_config(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"model": "chain", "sites": 4}))
        run("build", "--config", str(config), "--sites", "6", "--out", str(tmp_path))
        assert lat.load_lattice(tmp_path / "lattice.json").n_sites == 6

    def test_unknown_key_exits_2(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"model": "chain", "frobnication": 3}))
        assert run("build", "--config", str(config), "--out", str(tmp_path)) == 2

    def test_malformed_json_exits_2(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text("{not json")
        assert run("build", "--config", str(config), "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize(
        "args",
        [
            ("steady", "--half-size", "2", "--disorder-variance", "0.1", "--seed", "1",
             "--loss", "1e-2"),
            ("spectrum", "--half-size", "2", "--format", "csv"),
            ("check", "--half-size", "2"),
            ("sweep", "--half-size", "1", "--drain", "1,1", "--values", "1e-2,1e-1"),
            # build has no --drain flag: its drain, spared by the disorder,
            # comes from a config file
            ("build", {"half_size": 2, "disorder_variance": 0.01, "drain": "1,1", "seed": 3}),
        ],
        ids=lambda args: args[0],
    )
    def test_resolved_config_reproduces_every_output(self, tmp_path, args):
        first, second = tmp_path / "first", tmp_path / "second"
        if isinstance(args[-1], dict):
            given = tmp_path / "given.json"
            given.write_text(json.dumps(args[-1]))
            args = (args[0], "--config", str(given))
        assert run(*args, "--out", str(first)) == 0
        config = str(first / "resolved_config.json")
        assert run(args[0], "--config", config, "--out", str(second)) == 0
        names = sorted(os.listdir(first))
        assert names == sorted(os.listdir(second))
        for name in names:
            old, new = (first / name).read_bytes(), (second / name).read_bytes()
            if name == "resolved_config.json":
                old, new = (dict(json.loads(text), out=None) for text in (old, new))
            assert old == new, name

    def test_config_of_another_command_exits_2(self, tmp_path):
        assert run("build", "--model", "chain", "--sites", "3", "--out", str(tmp_path)) == 0
        config = str(tmp_path / "resolved_config.json")
        assert run("steady", "--config", config, "--out", str(tmp_path / "s")) == 2


class TestJobsEnvVar:
    def test_env_var_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.JOBS_ENV_VAR, "2")
        args = (
            "sweep", "--model", "hofstadter", "--half-size", "1", "--flux", "0.5pi",
            "--drain", "1,1", "--gamma", "1.0", "--squeeze", "0.5",
            "--axis", "loss", "--values", "1e-2", "--ensemble", "1",
            "--out", str(tmp_path),
        )
        assert run(*args) == 0
        config = json.load(open(tmp_path / "resolved_config.json"))
        assert config["jobs"] == 2


def test_commands_import_no_scipy_or_process_pool(tmp_path):
    # SciPy serves the Schur route alone, and the pool modules --jobs > 1 alone
    out = fresh_python(
        "import sys\n"
        "import chiraldrain\n"
        "from chiraldrain import cli\n"
        "lean = lambda: 'loaded=%s' % sorted(m for m in sys.modules if m.split('.')[0]\n"
        "                                    in ('scipy', 'multiprocessing', 'concurrent'))\n"
        "print(lean())\n"
        "common = ['--half-size', '2', '--loss', '1e-3']\n"
        "for argv in (['steady', '--reference-site', '1,1'], ['spectrum'], ['check'],\n"
        "             ['sweep', '--jobs', '1']):\n"
        "    assert cli.main(argv + common + ['--out', argv[0]]) == 0, argv\n"
        "    print(lean())\n",
        cwd=tmp_path,
    )
    assert [line for line in out.splitlines() if line.startswith("loaded=")] == ["loaded=[]"] * 5
