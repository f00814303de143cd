import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import make_grid, stenotic_column
from vasosim import acoustics, cli, hemogrid, inversion, risk, synthdata
from vasosim.errors import ConfigurationError, EstimationError
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
# recorded with numpy 2.4 on x86-64. With noise the solutions depend on
# every Levenberg-Marquardt trial and on the discrepancy principle's
# lambda, so a mismatch means the inversion's arithmetic changed, not only
# its speed.
PINNED_PIPELINE = {
    **SMALL,
    "scenario": {**SMALL["scenario"], "noise_rms": 0.01},
    "solver": {"max_iter": 40},
}
PINNED_PIPELINE_DIGESTS = {
    "results.json":
        "0d929968d2981a99f35fe5b4540e950778e4e84964784d5e4a65690615ea7482",
    "alerts.jsonl":
        "ee0d0bff7c7b21bc9ef4371794bff76bbd241c1dcf28ec9bd390a265508750e9",
    "solution_0000.json":
        "6aa36d68cab66596c634aee3f7cf9a5d335bdc785fcb1af7736b2d510f613e7d",
    "solution_0001.json":
        "4f43324739e7c2c498e87a3211486e61dbf7a206ae581eada7f4bcc78a31726c",
}


# SHA-256 of `vasosim simulate`'s files for PINNED_SIMULATE, recorded with
# numpy 2.4 on x86-64: the inlet drives every step of the flow loop.
PINNED_SIMULATE = {**SMALL, "simulate": {"inlet_amplitude": 10.0}}
PINNED_SIMULATE_DIGESTS = {
    "radii.csv":
        "f068e8ffdb126edb8b4db58a5f22b31081d239105e315f347d4209457be8c8c5",
    "flow_summary.json":
        "9e8c2ef90bf9a9ee3f576269628f7913a066a6a4eb4fcb4221e2304681607c68",
}


# Sections and keys load_config does not declare: an unknown section, a
# misspelt key, keys deleted earlier and the five keys nothing read.
UNDECLARED = {
    "section": "[solverr]\nmax_iter = 3\n",
    "empty-section": "[solverr]\n",
    "misspelt": "[solver]\nmax_iters = 3\n",
    "fd_step": "[solver]\nfd_step = 1e-6\n",
    "step_tol": "[solver]\nstep_tol = 1e-12\n",
    "mu": "[model]\nmu = 3.5e-3\n",
    "rho": "[model]\nrho = 1060\n",
    "c0": "[model]\nc0 = 1540\n",
    "amp_reflected": "[pulse]\namp_reflected = 0.0\n",
    "solver-name": "[solver]\nname = gauss-descent\n",
    "bc": "[simulate]\nbc = periodic\n",
    "default-section": "[DEFAULT]\nmax_iter = 3\n",
}


# [scenario] values ScenarioSpec rejects, each set on SMALL
BAD_SCENARIO = {
    "severity": {"severity": 1.5},
    "kind": {"kind": "no-such-kind"},
    "sessions": {"sessions": 0},
    "geometry": {"stenosis_center": 2},
    "noise_rms": {"noise_rms": -0.1},
    "stenosis_width": {"stenosis_width": 0.0},
}


# float keys set to a value that is not finite, each set on SMALL
NON_FINITE = {
    "step_seconds": ("risk", "step_seconds", "nan"),
    "omega": ("pulse", "omega", "nan"),
    "c": ("pulse", "c", "nan"),
    "s_max": ("grid", "s_max", "nan"),
    "bias": ("risk", "bias", "nan"),
    "w_density": ("risk", "w_density", "inf"),
}


# keys set to a value outside their range, each set on SMALL
OUT_OF_RANGE = {
    "lambda": ("solver", "lambda", "-1"),
    "horizon": ("risk", "horizon", "0"),
    "timeout-negative": ("risk", "timeout", "-1"),
    "timeout-zero": ("risk", "timeout", "0"),
    "step_seconds-negative": ("risk", "step_seconds", "-1"),
    "step_seconds-zero": ("risk", "step_seconds", "0"),
}


# inputs each command rejects with exit 2: a file name and its text
REJECTED_INPUT = {
    "echo-no-header": ("echo", "radii.csv", "1,2\n3,4\n"),
    "invert-no-header": ("invert", "echo.csv", "1,2\n3,4\n"),
    # a well-formed echo too short for the grid's round trip
    "invert-short-echo": ("invert", "echo.csv",
                          "# fs=800000.0 session=x\nt_s,p_pa\n"
                          "0.0,0.0\n1.25e-06,0.0\n"),
    "assess-nan-timestamp": ("assess", "report.json",
                             '{"stenosis_index": 0.3, "timestamp": NaN}'),
}

# the default grid's Nyquist rate, 1 / (2 dt)
NYQUIST_HZ = 1 / (2 * 2e-6)


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

    @pytest.mark.parametrize("command", [["assess", "report.json"],
                                         ["pipeline"]],
                             ids=lambda command: command[0])
    def test_llm_endpoint_not_http_exits_before_output(self, tmp_path,
                                                        capsys, command):
        out = tmp_path / "out"
        code = cli.main(["--provider", "llm", "--endpoint", "127.0.0.1:1",
                         "--out", str(out), *command])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    def test_llm_config_builds_no_provider(self, tmp_path, monkeypatch):
        # the endpoint is checked without a connection, credentials or a
        # provider; the command builds its one provider itself
        built = []
        monkeypatch.setattr(risk.LlmProvider, "__init__",
                            lambda self, *args, **kwargs: built.append(args))
        cfg = cli.load_config(write_config(tmp_path / "llm.ini", {
            "risk": {"provider": "llm", "endpoint": "http://127.0.0.1:1/"}}))
        assert cfg.endpoint == "http://127.0.0.1:1/"
        assert built == []

    def test_unstable_grid_rejected(self, tmp_path):
        path = write_config(tmp_path / "bad.ini",
                            {"grid": {"dt": 1.0}})
        with pytest.raises(ConfigurationError):
            cli.load_config(path)

    def test_inlet_frequency_up_to_nyquist(self, tmp_path):
        path = write_config(tmp_path / "cfg.ini", {
            "simulate": {"inlet_frequency": -NYQUIST_HZ}})
        assert cli.load_config(path).inlet_frequency == -NYQUIST_HZ

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

    @pytest.mark.parametrize("command", ["pipeline", "gen-data"])
    @pytest.mark.parametrize("bad", BAD_SCENARIO.values(), ids=BAD_SCENARIO)
    def test_bad_scenario_exits_before_output(self, tmp_path, command, bad):
        path = write_config(tmp_path / "cfg.ini", {
            **SMALL, "scenario": {**SMALL["scenario"], **bad}})
        out = tmp_path / "out"
        code = cli.main(["--config", path, "--out", str(out), command])
        assert code == cli.EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("section, key, text", NON_FINITE.values(),
                             ids=NON_FINITE)
    def test_non_finite_exits_before_output(self, tmp_path, capsys, section,
                                            key, text):
        path = write_config(tmp_path / "cfg.ini", {
            **SMALL, section: {**SMALL.get(section, {}), key: text}})
        out = tmp_path / "out"
        code = cli.main(["--config", path, "--out", str(out), "pipeline"])
        assert code == cli.EXIT_CONFIG
        assert f"[{section}] {key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section, key, text", OUT_OF_RANGE.values(),
                             ids=OUT_OF_RANGE)
    def test_out_of_range_exits_before_output(self, tmp_path, capsys,
                                              section, key, text):
        path = write_config(tmp_path / "cfg.ini", {
            **SMALL, section: {**SMALL.get(section, {}), key: text}})
        out = tmp_path / "out"
        code = cli.main(["--config", path, "--out", str(out), "pipeline"])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"[{section}] {key}" in err
        assert not out.exists()

    # every command but gen-data and pipeline, with its positional input;
    # no input file exists, so only load_config can have failed
    OTHER_COMMANDS = [["simulate"], ["echo", "radii.csv"],
                      ["invert", "echo.csv"], ["assess", "report.json"]]

    @pytest.mark.parametrize("command", OTHER_COMMANDS,
                             ids=lambda command: command[0])
    @pytest.mark.parametrize(
        "bad", [v for k, v in BAD_SCENARIO.items() if k != "geometry"],
        ids=[k for k in BAD_SCENARIO if k != "geometry"])
    def test_bad_scenario_rejected_by_every_command(self, tmp_path, capsys,
                                                    command, bad):
        path = write_config(tmp_path / "cfg.ini", {
            **SMALL, "scenario": {**SMALL["scenario"], **bad}})
        out = tmp_path / "out"
        code = cli.main(["--config", path, "--out", str(out), *command])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    @pytest.mark.parametrize("command, name, text", REJECTED_INPUT.values(),
                             ids=REJECTED_INPUT)
    def test_rejected_input_writes_nothing(self, small_config, tmp_path,
                                           capsys, command, name, text):
        path = tmp_path / name
        path.write_text(text)
        out = tmp_path / "out"
        code = cli.main(["--config", small_config, "--out", str(out),
                         command, str(path)])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("input error:")
        assert not out.exists()

    @pytest.mark.parametrize(
        "frequency", ["1e308", repr(math.nextafter(NYQUIST_HZ, math.inf))],
        ids=["1e308", "above-nyquist"])
    def test_inlet_frequency_above_nyquist(self, tmp_path, capsys,
                                           frequency):
        path = write_config(tmp_path / "cfg.ini", {"simulate": {
            "inlet_amplitude": 1.0, "inlet_frequency": frequency}})
        out = tmp_path / "out"
        code = cli.main(["--config", path, "--out", str(out), "simulate"])
        assert code == cli.EXIT_CONFIG
        assert "[simulate] inlet_frequency" in capsys.readouterr().err
        assert not out.exists()

    def test_simulation_failure(self, tmp_path, capsys):
        # at the default grid, this inlet pressure empties the first cells
        path = write_config(tmp_path / "cfg.ini",
                            {"simulate": {"inlet_amplitude": -1e6}})
        out = tmp_path / "out"
        code = cli.main(["--config", path, "--out", str(out), "simulate"])
        assert code == cli.EXIT_SIMULATION
        assert capsys.readouterr().err.splitlines() == [
            "simulation failed at step 2: inlet pressure collapses the "
            "lumen at step 2"]
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


    def test_non_finite_start_not_converged(self, small_config, tmp_path,
                                            capsys):
        # a sample before the first burst arrives adds nothing to the
        # gradient, which is zero at the uniform prior, but its square
        # overflows the starting objective (numpy's overflow warning is
        # silenced as in test_numerical_error_exit)
        path = self._uniform_echo(small_config, tmp_path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].split(",")[0] + ",1e308"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        with np.errstate(over="ignore"):
            code = cli.main(["--config", small_config, "--out", str(out),
                             "invert", str(path)])
        assert code == cli.EXIT_NOT_CONVERGED
        [line] = capsys.readouterr().err.splitlines()
        assert line == ("numerical failure: non-finite objective at the "
                        "start point")
        for written in out.rglob("*"):
            assert "Infinity" not in written.read_text()


def test_module_entry_warns_nothing():
    # the package must not import cli before runpy runs it as __main__
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run(
        [sys.executable, "-W", "error", "-m", "vasosim.cli", "--help"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert "RuntimeWarning" not in run.stderr


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

    def test_simulate_bytes_pinned(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.ini", PINNED_SIMULATE)
        out = tmp_path / "out"
        assert cli.main(["--config", cfg, "--out", str(out), "simulate"]) == 0
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in out.iterdir()}
        assert digests == PINNED_SIMULATE_DIGESTS


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

    def test_dataset_echo_is_echo_of_dataset_radii(self, tmp_path):
        # gen-data and echo share one synthesis path: without noise, echo on
        # a dataset radii file writes the dataset's echo after the header
        config = write_config(tmp_path / "clean.ini",
                              {"scenario": {"noise_rms": 0.0}})
        out = tmp_path / "out"
        assert cli.main(["--config", config, "--out", str(out),
                         "pipeline"]) == 0
        dataset = out / "dataset"
        assert cli.main(["--config", config, "--out", str(tmp_path / "echo"),
                         "echo", str(dataset / "session_0002_radii.csv")]) == 0
        body = (tmp_path / "echo" / "echo.csv").read_text().split("\n", 1)[1]
        expected = (dataset / "session_0002_echo.csv").read_text()
        assert body == expected.split("\n", 1)[1]

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

    def test_lambda_search_out_of_solves(self, tmp_path, monkeypatch):
        # one solve at lambda = 1 misses the discrepancy target for this
        # echo, so the search stops unconverged
        monkeypatch.delenv(cli.DEFAULT_CONFIG_ENV, raising=False)
        monkeypatch.setattr(inversion, "MAX_LAMBDA_SOLVES", 1)
        data = tmp_path / "data"
        assert cli.main(["--out", str(data), "gen-data"]) == 0
        out = tmp_path / "out"
        code = cli.main(["--out", str(out), "invert",
                         str(data / "session_0002_echo.csv")])
        assert code == cli.EXIT_NOT_CONVERGED
        sol = json.loads((out / "solution.json").read_text())
        assert not sol["converged"]
        assert sol["lambda"] == 1.0


class TestAssess:
    @pytest.mark.parametrize("text", [
        '[1, 2]', '{"stenosis_index": "0.3"}', '{"radii_m": []}',
        '{"stenosis_index": 0.3, "timestamp": NaN}',
        '{"radii_m": [0.001, 1%s]}' % ("0" * 400),
        '{"stenosis_index": 0.3, "session_id": NaN}',
        '{"stenosis_index": 0.3, "converged": "no"}',
        '{"radii_m": [0.002, -0.001, 0.002]}',
        '{"radii_m": [0.002, 0.0, 0.002]}'],
        ids=["list", "string-index", "empty-radii", "nan-timestamp",
             "int-beyond-float", "nan-session-id", "string-converged",
             "negative-radius", "zero-radius"])
    def test_not_a_report(self, small_config, tmp_path, capsys, text):
        report = tmp_path / "report.json"
        report.write_text(text)
        code = cli.main(["--config", small_config, "--out",
                         str(tmp_path / "out"), "assess", str(report)])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("input error:")
        assert not (tmp_path / "out").exists()

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

    def test_outputs_are_strict_json(self, tmp_path, monkeypatch):
        # json.dump writes NaN and Infinity, which strict parsers reject
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        monkeypatch.delenv(cli.DEFAULT_CONFIG_ENV, raising=False)
        run = tmp_path / "run"
        assert cli.main(["--out", str(run), "pipeline"]) == 0
        assert cli.main(["--out", str(tmp_path / "assess"), "assess",
                         str(run / "solution_0002.json")]) == 0
        paths = sorted(tmp_path.rglob("*.json")) \
            + sorted(tmp_path.rglob("*.jsonl"))
        assert len(paths) == 8  # 3 solutions and each command's files
        for path in paths:
            text = path.read_text()
            for doc in text.splitlines() if path.suffix == ".jsonl" \
                    else [text]:
                json.loads(doc, parse_constant=reject)

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

    def test_assess_solution_matches_pipeline_session0(self, tmp_path,
                                                      monkeypatch):
        # session 0 is its own ToF reference, so its density is the 0.0
        # that assess defaults to; the logistic provider reads no ToF,
        # timestamp or session id, so both paths give the same risk
        monkeypatch.delenv(cli.DEFAULT_CONFIG_ENV, raising=False)
        cfg = cli.load_config(None)
        for seed in (0, 1, 7):
            run = tmp_path / f"seed{seed}"
            _, results = cli.cmd_pipeline(cfg, str(run), seed=seed)
            tte, curve, payload = cli.cmd_assess(
                cfg, str(run / results[0]["solution_file"]),
                str(run / "assess"))
            assert curve.prob_now == results[0]["prob_now"], seed
            assert tte.tte_step == results[0]["tte"]["tte_step"], seed
            assert tte.max_prob == results[0]["tte"]["max_prob"], seed
            assert payload.severity == results[0]["severity"], seed

    def test_tof_reference_is_first_found(self, tmp_path, monkeypatch):
        cfg = cli.load_config(write_config(tmp_path / "cfg.ini", {
            **SMALL, "scenario": {**SMALL["scenario"], "sessions": 3}}))
        estimate_tof, likelihood_curve = (acoustics.estimate_tof,
                                          risk.likelihood_curve)
        tofs, reports = {}, []

        def fail_first(incident, echo):
            if echo.session_id == "s0000":
                raise EstimationError("no peak")
            tof = estimate_tof(incident, echo)
            tofs[echo.session_id] = tof.tof
            return tof

        def record(report, *args, **kwargs):
            reports.append(report)
            return likelihood_curve(report, *args, **kwargs)

        monkeypatch.setattr(acoustics, "estimate_tof", fail_first)
        monkeypatch.setattr(risk, "likelihood_curve", record)
        cli.cmd_pipeline(cfg, str(tmp_path / "run"))
        assert [r.session_id for r in reports] == ["s0000", "s0001", "s0002"]
        assert reports[0].tof == 0.0
        assert reports[0].density_fractional_change == 0.0
        assert reports[1].tof == tofs["s0001"] > 0
        assert reports[1].density_fractional_change == 0.0
        assert reports[2].density_fractional_change == \
            (tofs["s0002"] / tofs["s0001"]) ** 2 - 1

    def test_pipeline_bytes_pinned(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.ini", PINNED_PIPELINE)
        out = tmp_path / "run"
        assert cli.main(["--config", cfg, "--seed", "5", "--out", str(out),
                         "pipeline"]) == 0
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in out.iterdir() if p.is_file()
                   and p.name != "pipeline_manifest.json"}
        assert digests == PINNED_PIPELINE_DIGESTS

    def test_default_depth_tracks_truth(self, tmp_path, monkeypatch):
        # the run users launch: built-in defaults, 1% noise, and lambda from
        # the discrepancy principle
        monkeypatch.delenv(cli.DEFAULT_CONFIG_ENV, raising=False)
        cfg = cli.load_config(None)
        errors = []
        for seed in range(6):
            out = tmp_path / f"seed{seed}"
            _, results = cli.cmd_pipeline(cfg, str(out), seed=seed)
            truth = synthdata.read_dataset(out / "dataset")
            for rec, sess in zip(results, truth):
                assert rec["converged"], (seed, rec["session"])
                depth = 1.0 - float(np.min(sess.radii_truth)) / cfg.model.r0
                errors.append(abs(rec["stenosis_index"] - depth))
        assert np.mean(errors) < 0.10

    def test_rerun_lists_only_its_files(self, tmp_path):
        # three sessions that all alert, then two that raise none: the
        # second run into the used directory writes what a fresh one does
        def config(name, sessions, **risk_keys):
            return write_config(tmp_path / name, {
                **SMALL, "scenario": {**SMALL["scenario"], "sessions": sessions},
                "risk": {**SMALL["risk"], **risk_keys}})

        used, fresh = tmp_path / "used", tmp_path / "fresh"
        assert cli.main(["--config", config("alert.ini", 3, bias=20.0),
                         "--out", str(used), "pipeline"]) == 0
        assert len((used / "alerts.jsonl").read_text().splitlines()) == 3
        quiet = config("quiet.ini", 2, bias=-20.0, w_density=0.0)
        for out in (used, fresh):
            assert cli.main(["--config", quiet, "--out", str(out),
                             "pipeline"]) == 0
        for name in ("pipeline_manifest.json", "alerts.jsonl"):
            assert (used / name).read_bytes() == (fresh / name).read_bytes()
        assert (fresh / "alerts.jsonl").read_bytes() == b""
        # the earlier run's files stay on disk, unlisted
        assert (used / "solution_0002.json").exists()
        listed = json.loads((fresh / "pipeline_manifest.json").read_text())
        assert sorted(listed["checksums"]) == sorted(
            str(p.relative_to(fresh)) for p in fresh.rglob("*")
            if p.is_file() and p.name != "pipeline_manifest.json")

    def test_failed_rerun_leaves_no_stale_manifest(self, small_config,
                                                   tmp_path):
        # the rerun rewrites the dataset and a solution, then fails at its
        # provider; no manifest may certify the files it overwrote
        out = tmp_path / "run"
        assert cli.main(["--config", small_config, "--seed", "0",
                         "--out", str(out), "pipeline"]) == 0
        code = cli.main(["--config", small_config, "--seed", "9",
                         "--provider", "llm",
                         "--endpoint", "http://127.0.0.1:1/",
                         "--out", str(out), "pipeline"])
        assert code == cli.EXIT_PROVIDER
        manifest = out / "pipeline_manifest.json"
        if manifest.exists():
            checksums = json.loads(manifest.read_text())["checksums"]
            assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in checksums} == checksums

    def test_alerts_are_the_written_records(self, tmp_path):
        # at severity 0.7 the deepest session alerts; at 0.5 the default
        # weights leave its label-1 session at "info"
        cfg = cli.load_config(write_config(tmp_path / "cfg.ini", {
            **SMALL, "scenario": {**SMALL["scenario"], "sessions": 3,
                                  "severity": 0.7}}))
        out = tmp_path / "run"
        _, results = cli.cmd_pipeline(cfg, str(out))
        alerts = [json.loads(line) for line in
                  (out / "alerts.jsonl").read_text().splitlines()]
        written = [rec for rec in results if rec["alert_written"]]
        # session 0 has no stenosis yet, so the run alerts on some only
        assert 0 < len(written) < len(results)
        assert [a["session_id"] for a in alerts] == \
            [f"s{rec['session']:04d}" for rec in written]
        for alert, rec in zip(alerts, written):
            assert alert["severity"] == rec["severity"] != "info"
            assert alert["prob_now"] == rec["prob_now"]
            assert alert["tte_step"] == rec["tte"]["tte_step"]
            assert alert["max_prob"] == rec["tte"]["max_prob"]
            assert alert["timestamp"] == rec["session"] * cfg.step_seconds

    def test_pipeline_deterministic(self, small_config, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert cli.main(["--config", small_config, "--seed", "42",
                             "--out", str(out), "pipeline"]) == 0
        ma = json.loads((a / "pipeline_manifest.json").read_text())
        mb = json.loads((b / "pipeline_manifest.json").read_text())
        assert ma == mb
