"""Command-line pipeline: simulate, echo, invert, assess, gen-data, pipeline.

Exit codes are stable: 0 success, 2 input/config error, 3 simulation
failure, 4 inversion did not converge or hit a non-finite value, 5
provider failure. Config files are INI-style key/value sections, each
section and key declared in :data:`KEYS`; all are validated before any
output file is written. simulate, echo, invert and assess make their
output directory only once they have results to write.
"""
from __future__ import annotations

import argparse
import configparser
import contextlib
import inspect
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import acoustics, hemogrid, inversion, risk, synthdata
from .acoustics import PulseSpec
from .errors import (
    ConfigurationError,
    DomainError,
    EstimationError,
    NumericalError,
    ProviderError,
    SimulationError,
)
from .hemogrid import ArteryModel, Grid
from .inversion import InverseProblem, SolverOptions
from .risk import AlertPolicy
from .synthdata import ScenarioSpec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SIMULATION = 3
EXIT_NOT_CONVERGED = 4
EXIT_PROVIDER = 5

DEFAULT_CONFIG_ENV = "VASOSIM_CONFIG"


class Key(NamedTuple):
    """A config key: the type its text is cast to, its default (None:
    derived, from other keys by load_config or, for [solver] lambda, from
    the echo by the discrepancy principle) and the flag that sets it."""

    cast: type
    default: object
    flag: str | None = None


# the remote provider's own defaults, which [risk] timeout and step_seconds take
_LLM = inspect.signature(risk.LlmProvider).parameters

# Every configuration key, declared once with its default: KEYS[section][key].
# A default that is a dataclass field's or a parameter's is read from there;
# load_config rejects any section or key not declared here.
KEYS = {
    "model": {name: Key(float, getattr(ArteryModel, name))
              for name in ("r0", "beta", "p_ext", "alpha", "re")},
    "grid": {"nx": Key(int, 64), "nt": Key(int, 200), "dx": Key(float, 1e-3),
             "dt": Key(float, 2e-6), "s_max": Key(float, Grid.s_max),
             "cfl": Key(float, Grid.cfl)},
    "pulse": {"omega": Key(float, 2 * np.pi * 1e5),
              "amp_forward": Key(float, 1.0),
              "c": Key(float, ArteryModel.c0),
              "fs": Key(float, None), "duration": Key(float, None)},
    "solver": {"max_iter": Key(int, SolverOptions.max_iter, "--max-iter"),
               "grad_tol": Key(float, SolverOptions.grad_tol),
               "lambda": Key(float, InverseProblem.lam, "--lambda")},
    "risk": {"provider": Key(str, "logistic", "--provider"),
             "endpoint": Key(str, "", "--endpoint"),
             "timeout": Key(float, _LLM["timeout"].default),
             "horizon": Key(int, ScenarioSpec.horizon),
             "step_seconds": Key(float, _LLM["step_seconds"].default),
             "critical_prob": Key(float, AlertPolicy.critical_prob),
             "critical_horizon": Key(int, AlertPolicy.critical_horizon),
             "warn_prob": Key(float, AlertPolicy.warn_prob),
             "w_stenosis": Key(float, 6.0), "w_density": Key(float, 2.0),
             "w_horizon": Key(float, 1.0), "bias": Key(float, -4.0),
             "horizon_decay": Key(float, 0.2)},
    "scenario": {"kind": Key(str, "progressive-occlusion"),
                 "severity": Key(float, 0.5),
                 "stenosis_center": Key(int, None),
                 "stenosis_width": Key(float, ScenarioSpec.stenosis_width),
                 "noise_rms": Key(float, 0.01), "sessions": Key(int, 3),
                 "seed": Key(int, ScenarioSpec.seed, "--seed")},
    "simulate": {"inlet_amplitude": Key(float, 0.0),
                 "inlet_frequency": Key(float, 0.0)},
}


@dataclass
class RunConfig:
    model: ArteryModel
    grid: Grid
    pulse: PulseSpec
    solver_options: SolverOptions
    lam: float | None  # None: the discrepancy principle picks lambda
    provider_name: str
    endpoint: str
    timeout: float
    horizon: int
    step_seconds: float
    policy: AlertPolicy
    weights: tuple
    bias: float
    horizon_decay: float
    fs: float
    duration: float
    scenario_kind: str
    severity: float
    stenosis_center: int
    stenosis_width: float
    noise_rms: float
    sessions: int
    seed: int
    inlet_amplitude: float
    inlet_frequency: float


def load_config(path=None, overrides=None):
    """Parse and fully validate a run configuration.

    ``overrides`` maps ``(section, key)`` to a value that wins over the
    file's. Raises ConfigurationError on any malformed or out-of-range
    value and on any section or key that :data:`KEYS` does not declare;
    callers map that to exit code 2 before touching the filesystem.
    The ``[scenario]`` values are checked here for every command, save
    whether the stenosis fits the grid: that is checked where a command
    builds its :class:`ScenarioSpec`, also before any output.
    """
    parser = configparser.ConfigParser()
    if path is None:
        path = os.environ.get(DEFAULT_CONFIG_ENV)
    if path is not None and not os.path.exists(path):
        raise ConfigurationError(f"config file not found: {path}")
    try:
        if path is not None:
            parser.read(path)
        # iterating the parser includes its DEFAULT section
        given = {(section, key): text for section in parser
                 for key, text in parser.items(section)}
    except configparser.Error as exc:
        raise ConfigurationError(f"malformed config {path}: {exc}") from exc
    for section in parser.sections():
        if section not in KEYS:
            raise ConfigurationError(f"unknown config section [{section}]")
    # section -> {key: value}; below, each key that goes elsewhere is
    # popped, and the rest fill RunConfig fields of the same name
    v = {section: {key: decl.default for key, decl in keys.items()}
         for section, keys in KEYS.items()}
    for (section, key), text in {**given, **(overrides or {})}.items():
        if key not in v.get(section, ()):
            raise ConfigurationError(f"unknown config key [{section}] {key}")
        try:
            value = KEYS[section][key].cast(text)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{text!r} is not finite")
        except (ValueError, TypeError) as exc:
            raise ConfigurationError(
                f"bad value for [{section}] {key}: {exc}") from exc
        v[section][key] = value
    pulse, rsk, scenario = v["pulse"], v["risk"], v["scenario"]
    try:
        grid = Grid(**v["grid"])
        fs, duration = pulse.pop("fs"), pulse.pop("duration")
        pulse = PulseSpec.axial(amp_reflected=0.0, **pulse)
        default_fs, default_duration = synthdata.echo_timing(pulse, grid)
        fs = default_fs if fs is None else fs
        duration = default_duration if duration is None else duration
        lam = v["solver"].pop("lambda")
        if lam is not None and not lam >= 0:
            raise ConfigurationError("[solver] lambda must be nonnegative")
        provider_name = rsk.pop("provider")
        if provider_name not in ("logistic", "llm"):
            raise ConfigurationError(f"unknown provider {provider_name!r}")
        policy = AlertPolicy(**{name: rsk.pop(name) for name in (
            "critical_prob", "critical_horizon", "warn_prob")})
        weights = tuple(rsk.pop(name)
                        for name in ("w_stenosis", "w_density", "w_horizon"))
        synthdata.check_scenario(
            scenario["kind"], scenario["severity"], scenario["sessions"],
            scenario["noise_rms"], scenario["stenosis_width"])
        if scenario["stenosis_center"] is None:
            scenario["stenosis_center"] = grid.nx // 2
        cfg = RunConfig(
            model=ArteryModel(**v["model"]), grid=grid, pulse=pulse,
            solver_options=SolverOptions(**v["solver"]), lam=lam,
            provider_name=provider_name, policy=policy, weights=weights,
            fs=fs, duration=duration, scenario_kind=scenario.pop("kind"),
            **rsk, **scenario, **v["simulate"])
        if cfg.horizon < 1:
            raise ConfigurationError("[risk] horizon must be >= 1")
        for key in ("timeout", "step_seconds"):
            if not getattr(cfg, key) > 0:
                raise ConfigurationError(f"[risk] {key} must be positive")
        if abs(cfg.inlet_frequency) > 1 / (2 * grid.dt):
            raise ConfigurationError(
                "[simulate] inlet_frequency must not exceed the grid's "
                f"Nyquist rate 1/(2 dt) = {1 / (2 * grid.dt):g} Hz")
        if provider_name == "llm":
            risk.check_endpoint(cfg.endpoint)
    except DomainError as exc:
        raise ConfigurationError(str(exc)) from exc
    return cfg


def _make_provider(cfg: RunConfig):
    if cfg.provider_name == "logistic":
        return risk.logistic_provider(cfg.weights, cfg.bias, cfg.horizon_decay)
    return risk.llm_provider(cfg.endpoint, timeout=cfg.timeout,
                             step_seconds=cfg.step_seconds)


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# commands

def cmd_simulate(cfg: RunConfig, out_dir):
    g = cfg.grid
    freq = cfg.inlet_frequency or 1.0 / (g.nt * g.dt)
    inlet = cfg.inlet_amplitude * np.sin(
        2 * np.pi * freq * np.arange(g.nt) * g.dt)
    radii_field, states = hemogrid.solve_flow(cfg.model, g, inlet=inlet)
    os.makedirs(out_dir, exist_ok=True)
    radii_path = os.path.join(out_dir, "radii.csv")
    hemogrid.write_radii_csv(radii_path, radii_field)
    volumes = np.array([float(np.sum(s.area)) * g.dx for s in states])
    summary = {
        "min_radius_m": float(np.min(radii_field.values)),
        "max_radius_m": float(np.max(radii_field.values)),
        "volume_drift_rel": float(np.max(np.abs(volumes - volumes[0]))
                                  / volumes[0]),
        "steps": g.nt,
    }
    _write_json(os.path.join(out_dir, "flow_summary.json"), summary)
    return radii_path, summary


def cmd_echo(cfg: RunConfig, radii_path, out_dir, column=-1):
    radii_field = hemogrid.read_radii_csv(radii_path, s_max=cfg.grid.s_max,
                                          cfl=1.0)
    nt = radii_field.grid.nt
    j = column if column >= 0 else nt + column
    if not 0 <= j < nt:
        raise ConfigurationError(f"column {column} out of range for nt={nt}")
    grid = radii_field.grid
    trace = acoustics.synthesize_echo(radii_field.column(j), cfg.pulse, grid,
                                      cfg.model, fs=cfg.fs,
                                      duration=max(cfg.duration,
                                                   2 * grid.nx * grid.dx / cfg.pulse.c))
    os.makedirs(out_dir, exist_ok=True)
    echo_path = os.path.join(out_dir, "echo.csv")
    acoustics.write_echo_csv(echo_path, trace)
    return echo_path


def _invert(cfg: RunConfig, observed):
    """The solution record of the radii behind ``observed``."""
    problem = InverseProblem(
        observed=observed, pulse=cfg.pulse, grid=cfg.grid, model=cfg.model,
        lam=cfg.lam)
    solver = inversion.get_solver(inversion.SOLVER_NAME)
    return solver(problem, cfg.solver_options).to_dict()


def cmd_invert(cfg: RunConfig, echo_path, out_dir):
    record = _invert(cfg, acoustics.read_echo_csv(echo_path))
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "solution.json")
    _write_json(path, record)
    return path, record


def _is_number(value):
    """A number a float holds finitely: json.load also reads NaN, Infinity
    and ints beyond the float range."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _report(cfg: RunConfig, record):
    """The provider's report from a JSON record: a report with its
    ``stenosis_index``, or an ``invert`` solution, whose ``radii_m`` give
    the index. Every other feature is read from the report's keys.
    Raises ConfigurationError on a record that is neither, or on a key of
    the wrong type."""
    if not isinstance(record, dict):
        raise ConfigurationError("a report must be a JSON object")

    def read(key, default, valid=_is_number, kind="a number"):
        value = record.get(key, default)
        if not valid(value):
            raise ConfigurationError(
                f"report key {key!r} must be {kind}, not {value!r}")
        return value

    if "radii_m" in record:
        radii = record["radii_m"]
        if not (isinstance(radii, list) and radii
                and all(map(_is_number, radii))):
            raise ConfigurationError(
                "radii_m must be a nonempty list of numbers")
        radii = np.asarray(radii, dtype=float)
        stenosis = float(np.clip(1.0 - np.min(radii) / cfg.model.r0, 0.0, 1.0))
    else:
        stenosis = read("stenosis_index", None)
    return risk.BiophysicsReport(
        stenosis_index=stenosis,
        density_fractional_change=read("density_fractional_change", 0.0),
        tof=read("tof_s", 0.0),
        timestamp=read("timestamp", 0.0),
        session_id=read("session_id", "cli",
                        lambda v: isinstance(v, str), "a string"),
        residual_norm=read("residual_norm", 0.0),
        converged=read("converged", True,
                       lambda v: isinstance(v, bool), "a boolean"),
    )


def _assess(cfg: RunConfig, report, provider):
    """Likelihood curve, time to episode and alert for one report."""
    curve = risk.likelihood_curve(report, provider, cfg.horizon)
    tte = risk.compute_tte(curve, cfg.step_seconds)
    payload = risk.dispatch_alert(
        tte, curve.prob_now, cfg.policy,
        session_id=report.session_id, timestamp=report.timestamp,
        recommendation=getattr(provider, "last_recommendation", None))
    return tte, curve, payload


def cmd_assess(cfg: RunConfig, input_path, out_dir, provider=None):
    with open(input_path) as fh:
        report = _report(cfg, json.load(fh))
    if provider is None:
        provider = _make_provider(cfg)
    tte, curve, payload = _assess(cfg, report, provider)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "probs.csv"), "w") as fh:
        fh.write("step,prob\n")
        fh.write(f"0,{curve.prob_now!r}\n")
        for i, p in enumerate(curve.probs, start=1):
            fh.write(f"{i},{p!r}\n")
    _write_json(os.path.join(out_dir, "tte.json"),
                {**tte.to_dict(), "prob_now": curve.prob_now,
                 "alert": payload.to_dict()})
    return tte, curve, payload


def cmd_gen_data(cfg: RunConfig, out_dir, seed=None):
    spec = ScenarioSpec(
        kind=cfg.scenario_kind, grid=cfg.grid, model=cfg.model,
        pulse=cfg.pulse, severity=cfg.severity,
        stenosis_center=cfg.stenosis_center,
        stenosis_width=cfg.stenosis_width, noise_rms=cfg.noise_rms,
        seed=cfg.seed if seed is None else seed, sessions=cfg.sessions,
        fs=cfg.fs, duration=cfg.duration, horizon=cfg.horizon)
    sessions = synthdata.generate_scenario(spec)
    manifest = synthdata.write_dataset(sessions, out_dir, spec=spec)
    return spec, sessions, manifest


def cmd_pipeline(cfg: RunConfig, out_dir, seed=None):
    """generate -> invert each generated echo -> assess, one manifest.

    alerts.jsonl holds each alert that is not "info"; the manifest lists
    the files this run wrote, not what an earlier run left in ``out_dir``.
    An earlier run's manifest goes first, so a run that fails part way
    leaves none that certifies files it overwrote.
    """
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(out_dir, "pipeline_manifest.json"))
    # no makedirs of out_dir first: cmd_gen_data checks [scenario] before it
    # writes anything, and making the dataset directory makes out_dir too
    spec, sessions, data_manifest = cmd_gen_data(
        cfg, os.path.join(out_dir, "dataset"), seed=seed)
    provider = _make_provider(cfg)
    incident = acoustics.incident_pulse(spec.pulse, spec.fs, spec.duration)

    # the first session whose ToF is found is the density reference
    tof_ref = None
    results, alerts = [], []
    for sess in sessions:
        sol_name = f"solution_{sess.session_index:04d}.json"
        solution = _invert(cfg, sess.echo)
        _write_json(os.path.join(out_dir, sol_name), solution)
        try:
            tof = acoustics.estimate_tof(incident, sess.echo)
        except EstimationError:
            tof = None
        tof_ref = tof_ref or tof
        if tof is not None and tof_ref.tof > 0 and tof.tof > 0:
            density = acoustics.density_change(tof_ref, tof).fractional_change
        else:
            density = 0.0
        report = _report(cfg, {
            **solution, "density_fractional_change": density,
            "tof_s": 0.0 if tof is None else tof.tof,
            "timestamp": sess.session_index * cfg.step_seconds,
            "session_id": sess.echo.session_id})
        tte, curve, payload = _assess(cfg, report, provider)
        alert_written = payload.severity != "info"
        if alert_written:
            alerts.append(json.dumps(payload.to_dict(), sort_keys=True) + "\n")
        results.append({
            "session": sess.session_index,
            "label_v": sess.label_v,
            "stenosis_index": report.stenosis_index,
            "converged": solution["converged"],
            "iterations": solution["iterations"],
            "prob_now": curve.prob_now,
            "tte": tte.to_dict(),
            "severity": payload.severity,
            "alert_written": alert_written,
            "solution_file": sol_name,
        })
    _write_json(os.path.join(out_dir, "results.json"), results)
    with open(os.path.join(out_dir, "alerts.jsonl"), "w") as fh:
        fh.writelines(alerts)

    # write_dataset hashed the dataset's CSVs as it wrote them; their
    # digests are in its manifest.json, which is hashed here
    written = ["dataset/manifest.json",
               *(rec["solution_file"] for rec in results),
               "results.json", "alerts.jsonl"]
    checksums = {name: synthdata._sha256(os.path.join(out_dir, name))
                 for name in written}
    checksums.update((f"dataset/{name}", digest)
                     for name, digest in data_manifest["checksums"].items())
    manifest = {"format_version": synthdata.FORMAT_VERSION,
                "seed": spec.seed, "checksums": checksums}
    _write_json(os.path.join(out_dir, "pipeline_manifest.json"), manifest)
    return manifest, results


# ---------------------------------------------------------------------------
# argument parsing and dispatch

def build_parser():
    parser = argparse.ArgumentParser(
        prog="vasosim",
        description="Arterial flow simulation, echo inversion and episode "
                    "risk pipeline")
    parser.add_argument("--config", help="INI config path "
                        f"(default ${DEFAULT_CONFIG_ENV})")
    for section, keys in KEYS.items():
        for key, decl in keys.items():
            if decl.flag:
                parser.add_argument(decl.flag, dest=decl.flag,
                                    metavar=key.upper(),
                                    help=f"set [{section}] {key}")
    parser.add_argument("--out", default="out", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate")
    p = sub.add_parser("echo")
    p.add_argument("radii_path")
    p.add_argument("--column", type=int, default=-1)
    p = sub.add_parser("invert")
    p.add_argument("echo_path")
    p = sub.add_parser("assess")
    p.add_argument("input_path")
    sub.add_parser("gen-data")
    sub.add_parser("pipeline")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    flags = vars(args)
    overrides = {(section, key): flags[decl.flag]
                 for section, keys in KEYS.items()
                 for key, decl in keys.items()
                 if flags.get(decl.flag) is not None}
    try:
        cfg = load_config(args.config, overrides=overrides)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "simulate":
            cmd_simulate(cfg, args.out)
        elif args.command == "echo":
            cmd_echo(cfg, args.radii_path, args.out, column=args.column)
        elif args.command == "invert":
            _, record = cmd_invert(cfg, args.echo_path, args.out)
            if not record["converged"]:
                print("inversion did not converge", file=sys.stderr)
                return EXIT_NOT_CONVERGED
        elif args.command == "assess":
            cmd_assess(cfg, args.input_path, args.out)
        elif args.command == "gen-data":
            cmd_gen_data(cfg, args.out)
        elif args.command == "pipeline":
            _, results = cmd_pipeline(cfg, args.out)
            for rec in results:
                if not rec["converged"]:
                    print(f"session {rec['session']}: inversion did not "
                          f"converge in {rec['iterations']} iterations",
                          file=sys.stderr)
    except SimulationError as exc:
        print(f"simulation failed at step {exc.step_index}: {exc}",
              file=sys.stderr)
        return EXIT_SIMULATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except ProviderError as exc:
        print(f"provider failure: {exc}", file=sys.stderr)
        return EXIT_PROVIDER
    except (ConfigurationError, DomainError, FileNotFoundError,
            json.JSONDecodeError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
