import hashlib
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import make_grid, stenotic_column
from vasosim import acoustics, cli, hemogrid, synthdata
from vasosim.errors import ConfigurationError
from vasosim.hemogrid import RadiiField


def write_config(path, sections):
    lines = []
    for section, kv in sections.items():
        lines.append(f"[{section}]")
        for k, v in kv.items():
            lines.append(f"{k} = {v}")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


SMALL = {
    "grid": {"nx": 32, "nt": 50, "dx": 1e-3, "dt": 2e-6},
    "scenario": {"sessions": 2, "severity": 0.5, "noise_rms": 0.0,
                 "stenosis_center": 16, "stenosis_width": 2.0},
    "solver": {"max_iter": 5},
    "risk": {"horizon": 4},
}


# SHA-256 of the pipeline's result files for PINNED_PIPELINE and seed 5,
# recorded with numpy 2.4 on x86-64. With noise and 40 iterations the
# solutions depend on every solver step, so a mismatch means the
# inversion's arithmetic changed, not only its speed.
PINNED_PIPELINE = {
    **SMALL,
    "scenario": {**SMALL["scenario"], "noise_rms": 0.01},
    "solver": {"max_iter": 40},
}
PINNED_PIPELINE_DIGESTS = {
    "results.json":
        "8659eace78b299db32f7476d58245fa0def0bad464b931c0b5c6790c9c2a9e95",
    "alerts.jsonl":
        "50b6f9f228aaecdf1052a10693c4ba10de1ecef9d9468af80b806a84c2c3fac8",
    "solution_0000.json":
        "b69393243b2a1cdbfd9a3f61df890b7d1df6bd5c3c48967a16360b12512b4280",
    "solution_0001.json":
        "d119a6dc601c21ccb3b012becc542a96361bfb749483f596f89dc7382fa36309",
}


# Sections and keys load_config does not declare: an unknown section, a
# misspelt key, a key deleted earlier and the five keys nothing read.
UNDECLARED = {
    "section": "[solverr]\nmax_iter = 3\n",
    "empty-section": "[solverr]\n",
    "misspelt": "[solver]\nmax_iters = 3\n",
    "fd_step": "[solver]\nfd_step = 1e-6\n",
    "mu": "[model]\nmu = 3.5e-3\n",
    "rho": "[model]\nrho = 1060\n",
    "c0": "[model]\nc0 = 1540\n",
    "amp_reflected": "[pulse]\namp_reflected = 0.0\n",
    "solver-name": "[solver]\nname = gauss-descent\n",
    "default-section": "[DEFAULT]\nmax_iter = 3\n",
}


@pytest.fixture
def small_config(tmp_path):
    return write_config(tmp_path / "cfg.ini", SMALL)


class TestLoadConfig:
    def test_defaults_without_file(self, monkeypatch):
        monkeypatch.delenv(cli.DEFAULT_CONFIG_ENV, raising=False)
        cfg = cli.load_config(None)
        assert cfg.grid.nx == 64
        assert cfg.provider_name == "logistic"

    def test_env_var_fallback(self, tmp_path, monkeypatch):
        path = write_config(tmp_path / "env.ini", {"grid": {"nx": 16}})
        monkeypatch.setenv(cli.DEFAULT_CONFIG_ENV, path)
        assert cli.load_config(None).grid.nx == 16

    def test_missing_file(self):
        with pytest.raises(ConfigurationError):
            cli.load_config("/does/not/exist.ini")

    def test_bad_value(self, tmp_path):
        path = write_config(tmp_path / "bad.ini", {"grid": {"nx": "banana"}})
        with pytest.raises(ConfigurationError):
            cli.load_config(path)

    def test_unknown_provider(self, tmp_path):
        path = write_config(tmp_path / "bad.ini",
                            {"risk": {"provider": "oracle"}})
        with pytest.raises(ConfigurationError):
            cli.load_config(path)

    def test_llm_requires_endpoint(self, tmp_path):
        path = write_config(tmp_path / "bad.ini",
                            {"risk": {"provider": "llm"}})
        with pytest.raises(ConfigurationError):
            cli.load_config(path)

    def test_unstable_grid_rejected(self, tmp_path):
        path = write_config(tmp_path / "bad.ini",
                            {"grid": {"dt": 1.0}})
        with pytest.raises(ConfigurationError):
            cli.load_config(path)

    def test_overrides_win(self, small_config):
        cfg = cli.load_config(small_config,
                              overrides={("solver", "lambda"): "0.5"})
        assert cfg.lam == 0.5

    @pytest.mark.parametrize("text", UNDECLARED.values(), ids=UNDECLARED)
    def test_undeclared_rejected(self, tmp_path, text):
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        with pytest.raises(ConfigurationError, match="unknown config"):
            cli.load_config(str(path))

    def test_undeclared_override_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown config"):
            cli.load_config(None, overrides={("solver", "name"): "x"})

    def test_readme_example_loads(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "readme.ini"
        path.write_text(example)
        cfg = cli.load_config(str(path))
        assert (cfg.grid.nx, cfg.sessions, cfg.horizon) == (64, 3, 24)


class TestExitCodes:
    def test_malformed_config_no_partial_output(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("nx = 3\n")  # key before any section header
        out = tmp_path / "out"
        code = cli.main(["--config", str(bad), "--out", str(out), "simulate"])
        assert code == cli.EXIT_CONFIG
        assert not out.exists()

    def test_periodic_inlet_rejected(self, tmp_path):
        # periodic ends have no inlet cell, so the waveform would be dropped
        cfg_path = write_config(tmp_path / "p.ini", {
            **SMALL,
            "simulate": {"bc": "periodic", "inlet_amplitude": 300.0},
        })
        out = tmp_path / "out"
        code = cli.main(["--config", cfg_path, "--out", str(out), "simulate"])
        assert code == cli.EXIT_CONFIG
        assert not out.exists()

    def test_missing_input_file(self, small_config, tmp_path):
        code = cli.main(["--config", small_config,
                         "--out", str(tmp_path / "out"),
                         "invert", str(tmp_path / "missing.csv")])
        assert code == cli.EXIT_CONFIG

    def test_solver_flag_removed(self, small_config, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main(["--config", small_config, "--solver", "gauss-descent",
                      "--out", str(out), "simulate"])
        assert exc.value.code == cli.EXIT_CONFIG
        assert not out.exists()

    def test_flags_set_their_keys(self, tmp_path, monkeypatch):
        seen = {}

        def load_config(path, overrides):
            seen.update(overrides)
            raise ConfigurationError("stop before running")

        monkeypatch.setattr(cli, "load_config", load_config)
        code = cli.main(["--seed", "7", "--provider", "llm",
                         "--endpoint", "http://h/", "--lambda", "0.5",
                         "--max-iter", "9", "--out", str(tmp_path / "out"),
                         "simulate"])
        assert code == cli.EXIT_CONFIG
        assert seen == {("scenario", "seed"): "7",
                        ("risk", "provider"): "llm",
                        ("risk", "endpoint"): "http://h/",
                        ("solver", "lambda"): "0.5",
                        ("solver", "max_iter"): "9"}

    @pytest.mark.parametrize("text", UNDECLARED.values(), ids=UNDECLARED)
    def test_undeclared_exits_before_output(self, tmp_path, text):
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        out = tmp_path / "out"
        code = cli.main(["--config", str(path), "--out", str(out),
                         "pipeline"])
        assert code == cli.EXIT_CONFIG
        assert not out.exists()

    def test_provider_down(self, small_config, tmp_path):
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"stenosis_index": 0.5}))
        cfg_path = write_config(tmp_path / "llm.ini", {
            **SMALL,
            "risk": {"horizon": 4, "provider": "llm",
                     "endpoint": "http://127.0.0.1:1/", "timeout": 0.2},
        })
        code = cli.main(["--config", cfg_path, "--out", str(tmp_path / "out"),
                        "assess", str(report)])
        assert code == cli.EXIT_PROVIDER

    def test_non_convergence(self, small_config, tmp_path):
        cfg = cli.load_config(small_config)
        truth = stenotic_column(cfg.model, 32, 16, 2.0, 0.3)
        trace = acoustics.synthesize_echo(truth, cfg.pulse, cfg.grid,
                                          cfg.model, fs=cfg.fs,
                                          duration=cfg.duration)
        echo_path = tmp_path / "echo.csv"
        acoustics.write_echo_csv(echo_path, trace)
        # 1 iteration at the default tight gradient tolerance cannot finish
        cfg_path = write_config(tmp_path / "tight.ini",
                                {**SMALL, "solver": {"max_iter": 1}})
        code = cli.main(["--config", cfg_path, "--out", str(tmp_path / "out"),
                         "invert", str(echo_path)])
        assert code == cli.EXIT_NOT_CONVERGED
        # the solution file is still written for inspection
        assert (tmp_path / "out" / "solution.json").exists()

    def _radii_csv(self, tmp_path, edit):
        radii = np.full((32, 2), 2e-3)
        path = tmp_path / "radii.csv"
        hemogrid.write_radii_csv(path, RadiiField(values=radii,
                                                  grid=make_grid(32, nt=2)))
        lines = path.read_text().splitlines()
        lines[-1] = edit(lines[-1])
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("edit", [
        lambda row: "abc," + row.split(",", 1)[1],
        lambda row: row.rsplit(",", 1)[0],
        lambda row: "inf," + row.split(",", 1)[1],
    ], ids=["non-numeric", "short-row", "non-finite"])
    def test_bad_radii_body(self, small_config, tmp_path, edit):
        path = self._radii_csv(tmp_path, edit)
        code = cli.main(["--config", small_config,
                         "--out", str(tmp_path / "out"), "echo", str(path)])
        assert code == cli.EXIT_CONFIG

    def test_non_numeric_echo_body(self, small_config, tmp_path):
        trace = acoustics.EchoTrace(samples=np.zeros(8), fs=8e5)
        path = tmp_path / "echo.csv"
        acoustics.write_echo_csv(path, trace)
        text = path.read_text().replace(",0.0\n", ",xyz\n", 1)
        path.write_text(text)
        code = cli.main(["--config", small_config,
                         "--out", str(tmp_path / "out"), "invert", str(path)])
        assert code == cli.EXIT_CONFIG

    def _uniform_echo(self, small_config, tmp_path):
        cfg = cli.load_config(small_config)
        trace = acoustics.synthesize_echo(
            np.full(32, cfg.model.r0), cfg.pulse, cfg.grid, cfg.model,
            fs=cfg.fs, duration=cfg.duration)
        path = tmp_path / "echo.csv"
        acoustics.write_echo_csv(path, trace)
        return path

    @pytest.mark.parametrize("edit", [
        lambda text: text.replace(",0.0\n", ",nan\n", 1),
        lambda text: text.replace(",0.0\n", ",inf\n", 1),
        lambda text: re.sub(r"fs=\S+", "fs=inf", text, count=1),
    ], ids=["nan-sample", "inf-sample", "inf-fs"])
    def test_non_finite_echo(self, small_config, tmp_path, capsys, edit):
        path = self._uniform_echo(small_config, tmp_path)
        text = path.read_text()
        assert edit(text) != text
        path.write_text(edit(text))
        out = tmp_path / "out"
        code = cli.main(["--config", small_config, "--out", str(out),
                         "invert", str(path)])
        assert code == cli.EXIT_CONFIG
        assert "non-finite number" in capsys.readouterr().err
        assert not (out / "solution.json").exists()

    def test_non_finite_radii_header(self, small_config, tmp_path, capsys):
        path = self._radii_csv(tmp_path, lambda row: row)
        header, body = path.read_text().split("\n", 1)
        nx, nt, _, dt = header.split(",")
        path.write_text(f"{nx},{nt},inf,{dt}\n{body}")  # dx = inf
        code = cli.main(["--config", small_config,
                         "--out", str(tmp_path / "out"), "echo", str(path)])
        assert code == cli.EXIT_CONFIG
        assert "non-finite number" in capsys.readouterr().err

    def test_numerical_error_exit(self, small_config, tmp_path, capsys):
        # a finite sample the reader accepts, but whose square overflows
        # the objective; numpy's overflow warning would be raised as an
        # error under the test suite's filterwarnings setting
        path = self._uniform_echo(small_config, tmp_path)
        lines = path.read_text().splitlines()
        mid = len(lines) // 2  # inside the bursts' span, so it enters g
        lines[mid] = lines[mid].split(",")[0] + ",1e308"
        path.write_text("\n".join(lines) + "\n")
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli.main(["--config", small_config,
                             "--out", str(tmp_path / "out"),
                             "invert", str(path)])
        assert code == cli.EXIT_NOT_CONVERGED
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("numerical failure: non-finite")


class TestSimulate:
    def test_quiescent_run(self, small_config, tmp_path):
        out = tmp_path / "out"
        code = cli.main(["--config", small_config, "--out", str(out),
                         "simulate"])
        assert code == 0
        summary = json.loads((out / "flow_summary.json").read_text())
        assert summary["min_radius_m"] == pytest.approx(2e-3, rel=1e-12)
        assert summary["max_radius_m"] == pytest.approx(2e-3, rel=1e-12)
        assert summary["volume_drift_rel"] < 1e-12

    def test_pulsatile_periodic_conserves_volume(self, tmp_path):
        cfg_path = write_config(tmp_path / "p.ini", {
            **SMALL,
            "simulate": {"bc": "periodic", "inlet_amplitude": 0.0},
        })
        out = tmp_path / "out"
        assert cli.main(["--config", cfg_path, "--out", str(out),
                         "simulate"]) == 0
        summary = json.loads((out / "flow_summary.json").read_text())
        assert summary["volume_drift_rel"] < 1e-8

    def test_pulsatile_inlet_run(self, tmp_path):
        cfg_path = write_config(tmp_path / "p.ini", {
            **SMALL,
            "simulate": {"inlet_amplitude": 10.0},
        })
        out = tmp_path / "out"
        assert cli.main(["--config", cfg_path, "--out", str(out),
                         "simulate"]) == 0
        field = hemogrid.read_radii_csv(out / "radii.csv")
        assert np.all(np.isfinite(field.values))
        assert np.any(field.values != field.values[0, 0])


class TestEcho:
    def test_uniform_radii_give_silent_trace(self, small_config, tmp_path):
        out = tmp_path / "out"
        cli.main(["--config", small_config, "--out", str(out), "simulate"])
        code = cli.main(["--config", small_config, "--out", str(out),
                         "echo", str(out / "radii.csv")])
        assert code == 0
        trace = acoustics.read_echo_csv(out / "echo.csv")
        assert np.max(np.abs(trace.samples)) < 1e-12

    def test_step_arrival_time(self, small_config, tmp_path):
        cfg = cli.load_config(small_config)
        radii = np.where(np.arange(32) < 16, 2e-3, 1.6e-3)
        field = RadiiField(values=radii[:, None], grid=make_grid(32))
        radii_path = tmp_path / "radii.csv"
        hemogrid.write_radii_csv(radii_path, field)
        out = tmp_path / "out"
        assert cli.main(["--config", small_config, "--out", str(out),
                         "echo", str(radii_path)]) == 0
        trace = acoustics.read_echo_csv(out / "echo.csv")
        t = trace.t0 + np.arange(trace.samples.size) / trace.fs
        t_peak = t[np.argmax(np.abs(trace.samples))]
        f0 = cfg.pulse.omega / (2 * np.pi)
        expected = 2 * 16 * 1e-3 / cfg.pulse.c + 2.5 / f0  # burst center
        assert t_peak == pytest.approx(expected, abs=3e-6)

    def test_column_out_of_range(self, small_config, tmp_path):
        out = tmp_path / "out"
        cli.main(["--config", small_config, "--out", str(out), "simulate"])
        code = cli.main(["--config", small_config, "--out", str(out),
                         "echo", str(out / "radii.csv"), "--column", "999"])
        assert code == cli.EXIT_CONFIG


class TestInvert:
    def test_exact_prior_match_converges(self, small_config, tmp_path):
        cfg = cli.load_config(small_config)
        uniform = np.full(32, cfg.model.r0)
        trace = acoustics.synthesize_echo(uniform, cfg.pulse, cfg.grid,
                                          cfg.model, fs=cfg.fs,
                                          duration=cfg.duration)
        echo_path = tmp_path / "echo.csv"
        acoustics.write_echo_csv(echo_path, trace)
        out = tmp_path / "out"
        code = cli.main(["--config", small_config, "--out", str(out),
                         "invert", str(echo_path)])
        assert code == 0
        sol = json.loads((out / "solution.json").read_text())
        assert sol["converged"]
        assert np.allclose(sol["radii_m"], cfg.model.r0)

    def test_strong_regularization_returns_prior(self, small_config, tmp_path):
        cfg = cli.load_config(small_config)
        truth = stenotic_column(cfg.model, 32, 16, 2.0, 0.3)
        trace = acoustics.synthesize_echo(truth, cfg.pulse, cfg.grid,
                                          cfg.model, fs=cfg.fs,
                                          duration=cfg.duration)
        echo_path = tmp_path / "echo.csv"
        acoustics.write_echo_csv(echo_path, trace)
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "pen.ini", {
            **SMALL, "solver": {"max_iter": 100, "lambda": 1e10}})
        cli.main(["--config", cfg_path, "--out", str(out),
                  "invert", str(echo_path)])
        sol = json.loads((out / "solution.json").read_text())
        assert np.allclose(sol["radii_m"], cfg.model.r0, rtol=1e-3)


class TestAssess:
    def test_default_logistic(self, small_config, tmp_path):
        report = tmp_path / "report.json"
        report.write_text(json.dumps({
            "stenosis_index": 0.9, "density_fractional_change": 0.2,
            "session_id": "s1", "timestamp": 0.0}))
        out = tmp_path / "out"
        assert cli.main(["--config", small_config, "--out", str(out),
                         "assess", str(report)]) == 0
        lines = (out / "probs.csv").read_text().splitlines()
        assert lines[0] == "step,prob"
        assert len(lines) == 1 + 1 + 4  # header, step 0, horizon 4
        tte = json.loads((out / "tte.json").read_text())
        # horizon feature decays, so the peak is the first future step
        assert tte["tte_step"] == 1
        assert 0 <= tte["prob_now"] <= 1
        assert tte["alert"]["severity"] in ("info", "warn", "critical")

    def test_constant_provider(self, small_config, tmp_path):
        cfg = cli.load_config(small_config)
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"stenosis_index": 0.1}))
        tte, curve, _ = cli.cmd_assess(cfg, report, tmp_path / "out",
                                       provider=lambda r, i: 0.3)
        assert tte.tte_step == 1  # flat curve ties break to the first step
        assert curve.prob_now == 0.3

    def test_peaked_provider(self, small_config, tmp_path):
        cfg = cli.load_config(small_config)
        cfg.horizon = 10
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"stenosis_index": 0.1}))
        tte, _, payload = cli.cmd_assess(
            cfg, report, tmp_path / "out",
            provider=lambda r, i: 0.9 if i == 7 else 0.1)
        assert tte.tte_step == 7
        assert tte.max_prob == 0.9
        assert payload.severity == "info"  # low now, peak far out


class TestGenDataAndPipeline:
    def test_gen_data_readable(self, small_config, tmp_path):
        out = tmp_path / "data"
        assert cli.main(["--config", small_config, "--out", str(out),
                         "gen-data"]) == 0
        sessions = synthdata.read_dataset(out)
        assert len(sessions) == 2

    def test_pipeline_outputs(self, small_config, tmp_path):
        out = tmp_path / "run"
        assert cli.main(["--config", small_config, "--out", str(out),
                         "pipeline"]) == 0
        results = json.loads((out / "results.json").read_text())
        assert len(results) == 2
        manifest = json.loads((out / "pipeline_manifest.json").read_text())
        for rel in manifest["checksums"]:
            assert (out / rel).exists()
        for rec in results:
            assert 0 <= rec["prob_now"] <= 1
            assert rec["tte"]["tte_step"] >= 1

    def test_results_record_solver_outcome(self, small_config, tmp_path):
        out = tmp_path / "run"
        assert cli.main(["--config", small_config, "--out", str(out),
                         "pipeline"]) == 0
        for rec in json.loads((out / "results.json").read_text()):
            assert type(rec["converged"]) is bool
            assert type(rec["iterations"]) is int
            sol = json.loads((out / rec["solution_file"]).read_text())
            assert rec["converged"] == sol["converged"]
            assert rec["iterations"] == sol["iterations"]

    def test_non_converged_sessions_reported(self, small_config, tmp_path,
                                             capsys):
        out = tmp_path / "run"
        # results.json records the outcome, so the exit code stays 0
        assert cli.main(["--config", small_config, "--out", str(out),
                         "pipeline"]) == 0
        results = json.loads((out / "results.json").read_text())
        expected = [f"session {rec['session']}: inversion did not converge "
                    f"in {rec['iterations']} iterations"
                    for rec in results if not rec["converged"]]
        assert expected  # max_iter = 5 stops every session early
        assert capsys.readouterr().err.splitlines() == expected

    def test_invert_matches_pipeline_solution(self, small_config, tmp_path):
        cfg = cli.load_config(small_config)
        run = tmp_path / "run"
        _, results = cli.cmd_pipeline(cfg, str(run))
        for rec in results:
            echo = run / "dataset" / f"session_{rec['session']:04d}_echo.csv"
            path, _ = cli.cmd_invert(cfg, str(echo),
                                     str(tmp_path / f"inv{rec['session']}"))
            with open(path, "rb") as fh:
                assert fh.read() == (run / rec["solution_file"]).read_bytes()

    def test_pipeline_bytes_pinned(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.ini", PINNED_PIPELINE)
        out = tmp_path / "run"
        assert cli.main(["--config", cfg, "--seed", "5", "--out", str(out),
                         "pipeline"]) == 0
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in out.iterdir() if p.is_file()
                   and p.name != "pipeline_manifest.json"}
        assert digests == PINNED_PIPELINE_DIGESTS

    def test_pipeline_deterministic(self, small_config, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert cli.main(["--config", small_config, "--seed", "42",
                             "--out", str(out), "pipeline"]) == 0
        ma = json.loads((a / "pipeline_manifest.json").read_text())
        mb = json.loads((b / "pipeline_manifest.json").read_text())
        assert ma == mb
