#!/usr/bin/env python3
"""vasosim benchmark: closed-loop workloads through the ``cli.cmd_*`` entry points.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One caller issues the next command call only after the previous one has
returned, and stops issuing calls when the next one would end after S
seconds (the first call always runs). Inputs derive from ``--seed`` only;
call k uses scenario seed N * 1000000 + k. Every call's output is checked.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs each call twice on the same seed, once untraced and once
with the layer functions wrapped (see spans.py), checks that both give
byte-identical outputs and that every wrapped attribute is restored, and
reports per-layer metrics per command call. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the names and units match BENCHMARK.json. Outputs, spans and
the stub's state stay under ``.perfbench-work/`` in the working tree.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import urllib.request

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPS = 5

# Acceptance-test pipeline size at the default noise level. Workloads whose
# calls do no inversion run it once, untimed, so that every workload reports
# depth_err; pipeline-default takes depth_err from its own first call.
PROBE_INI = ("[grid]\nnx = 32\nnt = 50\n"
             "[scenario]\nsessions = 3\nseverity = 0.6\n"
             "stenosis_center = 16\nstenosis_width = 2.0\n"
             "[solver]\nmax_iter = 40\n[risk]\nhorizon = 6\n")


def import_vasosim():
    """Import the package from ./src of the working tree, nowhere else."""
    pkg = os.path.join(SRC, "vasosim")
    if not os.path.isfile(os.path.join(pkg, "cli.py")):
        sys.exit(f"perfbench: no vasosim sources at {pkg}; "
                 "run from the repository root")
    sys.path.insert(0, SRC)
    import vasosim
    if os.path.dirname(os.path.abspath(vasosim.__file__)) != pkg:
        sys.exit(f"perfbench: imported vasosim from {vasosim.__file__}")


import_vasosim()
from vasosim import cli, inversion, risk, synthdata  # noqa: E402

import spans  # noqa: E402


class CheckFailed(Exception):
    pass


def require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def tree_digests(path):
    return {os.path.relpath(os.path.join(root, name), path):
            sha256(os.path.join(root, name))
            for root, _, files in os.walk(path) for name in files}


def load_ini(text, work, name):
    path = os.path.join(work, name)
    with open(path, "w") as fh:
        fh.write(text)
    return cli.load_config(path)


def call_seed(seed, k):
    return seed * 1_000_000 + k


def check_pipeline(cfg, out, manifest, results):
    """Checks one pipeline output; returns its mean stenosis-depth error."""
    with open(os.path.join(out, "pipeline_manifest.json")) as fh:
        on_disk = json.load(fh)
    require(on_disk == manifest, "pipeline_manifest.json differs from return")
    for rel, digest in on_disk["checksums"].items():
        require(sha256(os.path.join(out, rel)) == digest, f"{rel}: digest")
    with open(os.path.join(out, "results.json")) as fh:
        records = json.load(fh)
    require(records == results, "results.json differs from return")
    require(len(records) == cfg.sessions, "one record per session")
    r_min, r_max = next(f.default for f in dataclasses.fields(
        inversion.InverseProblem) if f.name == "bounds")
    truth = synthdata.read_dataset(os.path.join(out, "dataset"))
    errors = []
    for rec, sess in zip(records, truth):
        require(rec["session"] == sess.session_index, "session order")
        require(all(math.isfinite(v) for v in (
            rec["stenosis_index"], rec["prob_now"], rec["tte"]["max_prob"])),
            "non-finite result")
        with open(os.path.join(out, rec["solution_file"])) as fh:
            radii = json.load(fh)["radii_m"]
        require(len(radii) == cfg.grid.nx
                and all(r_min <= r <= r_max for r in radii),
                "solution radii outside bounds")
        depth = 1.0 - float(min(sess.radii_truth)) / cfg.model.r0
        errors.append(abs(rec["stenosis_index"] - depth))
    return statistics.fmean(errors)


class Workload:
    """One workload: set-up, one command call, and its output check."""

    remote = False  # whether the risk provider is the HTTP stub

    def __init__(self, seed, work):
        self.seed = seed
        self.work = work

    def setup(self):
        raise NotImplementedError

    def call(self, k, out):
        """Runs command call k into out; returns (sessions, result)."""
        raise NotImplementedError

    def check(self, k, out, result):
        """Raises CheckFailed; returns a depth error or None."""
        raise NotImplementedError

    def http_stats(self):
        """POSTs served and handler seconds of the provider stub, if any."""
        return {"requests": 0, "handler_s": 0.0}

    def close(self):
        pass


class PipelineDefault(Workload):
    name = "pipeline-default"

    def setup(self):
        self.cfg = cli.load_config(None)
        warm = dataclasses.replace(
            self.cfg, solver_options=inversion.SolverOptions(max_iter=1))
        cli.cmd_pipeline(warm, fresh(os.path.join(self.work, "warmup")),
                         seed=self.seed)

    def call(self, k, out):
        manifest, results = cli.cmd_pipeline(self.cfg, out,
                                             seed=call_seed(self.seed, k))
        return self.cfg.sessions, (manifest, results)

    def check(self, k, out, result):
        return check_pipeline(self.cfg, out, *result)


class GenDataLarge(Workload):
    name = "gen-data-large"
    ini = "[grid]\nnx = 128\nnt = 2000\n[scenario]\nsessions = 10\n"

    def setup(self):
        self.cfg = load_ini(self.ini, self.work, "gen-data.ini")
        cli.cmd_gen_data(dataclasses.replace(self.cfg, sessions=1),
                         fresh(os.path.join(self.work, "warmup")),
                         seed=self.seed)

    def call(self, k, out):
        _, sessions, _ = cli.cmd_gen_data(self.cfg, out,
                                          seed=call_seed(self.seed, k))
        return self.cfg.sessions, sessions

    def check(self, k, out, sessions):
        loaded = synthdata.read_dataset(out)
        require(len(loaded) == len(sessions) == self.cfg.sessions,
                "session count")

        def same(a, b):
            return a.dtype == b.dtype and a.shape == b.shape \
                and a.tobytes() == b.tobytes()

        for got, want in zip(loaded, sessions):
            require(got.session_index == want.session_index
                    and same(got.radii_truth, want.radii_truth)
                    and same(got.echo.samples, want.echo.samples),
                    f"session {want.session_index} does not round-trip")


class AssessRemote(Workload):
    name = "assess-remote"
    remote = True
    reports = 64
    densities = (0.0, 0.01, -0.02, 0.05)

    def setup(self):
        base = cli.load_config(None)
        self.stub = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "stub.py"),
             *map(repr, (*base.weights, base.bias, base.horizon_decay))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT)
        self.url = f"http://127.0.0.1:{int(self.stub.stdout.readline())}/"
        self.cfg = cli.load_config(None, overrides={
            ("risk", "provider"): "llm", ("risk", "endpoint"): self.url})
        rng = random.Random(self.seed)
        self.paths, self.expected = [], []
        for i in range(self.reports):
            path = os.path.join(self.work, f"report_{i:03d}.json")
            with open(path, "w") as fh:
                json.dump({"stenosis_index": rng.random(),
                           "density_fractional_change":
                               rng.choice(self.densities),
                           "tof_s": 4e-5, "timestamp": 3600.0 * i,
                           "session_id": f"r{i:03d}"}, fh)
            ref = fresh(os.path.join(self.work, "reference"))
            tte, _, _ = cli.cmd_assess(
                self.cfg, path, ref, provider=risk.logistic_provider(
                    self.cfg.weights, self.cfg.bias, self.cfg.horizon_decay))
            with open(os.path.join(ref, "probs.csv"), "rb") as fh:
                self.expected.append((fh.read(), tte.tte_step))
            self.paths.append(path)
        cli.cmd_assess(self.cfg, self.paths[0],
                       fresh(os.path.join(self.work, "warmup")))

    def call(self, k, out):
        return 1, cli.cmd_assess(self.cfg, self.paths[k % self.reports], out)

    def check(self, k, out, result):
        probs, tte_step = self.expected[k % self.reports]
        with open(os.path.join(out, "probs.csv"), "rb") as fh:
            require(fh.read() == probs, "probs.csv differs from reference")
        with open(os.path.join(out, "tte.json")) as fh:
            require(json.load(fh)["tte_step"] == tte_step == result[0].tte_step,
                    "tte_step differs from reference")

    def http_stats(self):
        with urllib.request.urlopen(self.url + "stats", timeout=10) as resp:
            return json.load(resp)

    def close(self):
        stub = getattr(self, "stub", None)
        if stub is None:
            return
        stub.stdin.close()
        try:
            stub.wait(timeout=10)
        except subprocess.TimeoutExpired:
            stub.kill()
            stub.wait()
        stub.stdout.close()
        self.stub = None


WORKLOADS = {w.name: w for w in (PipelineDefault, GenDataLarge, AssessRemote)}


class Loop:
    """Closed loop of checked calls, until the next would end past `seconds`."""

    def __init__(self, workload, seconds):
        self.workload = workload
        self.seconds = seconds
        self.start = time.perf_counter()
        self.k = 0
        self.failed = 0

    def more(self):
        elapsed = time.perf_counter() - self.start
        return self.k == 0 or elapsed + elapsed / self.k <= self.seconds

    def call(self, out):
        """One timed, checked call k into out; returns (seconds, sessions,
        depth error), sessions None when the call raised or failed its check."""
        k = self.k
        fresh(out)
        t0 = time.perf_counter()
        try:
            sessions, result = self.workload.call(k, out)
        except Exception:
            dt = time.perf_counter() - t0
            self.fail(f"call {k} raised")
            return dt, None, None
        dt = time.perf_counter() - t0
        try:
            err = self.workload.check(k, out, result)
        except Exception:
            self.fail(f"call {k} failed its check")
            return dt, None, None
        return dt, sessions, err

    def fail(self, what):
        self.failed += 1
        if self.failed <= 3:
            print(f"perfbench: {what}", file=sys.stderr)
            traceback.print_exc()


def measure_setup(cls, seed, work):
    """Median over SETUP_REPS of process start + imports + workload set-up."""
    times = []
    for i in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import vasosim.cli"], cwd=ROOT,
                       env=dict(os.environ, PYTHONPATH=SRC), check=True)
        workload = cls(seed, work)
        try:
            workload.setup()
        except BaseException:
            workload.close()
            raise
        times.append(time.perf_counter() - t0)
        if i < SETUP_REPS - 1:
            workload.close()
    return statistics.median(times), workload


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def probe_depth_err(workload):
    cfg = load_ini(PROBE_INI, workload.work, "probe.ini")
    out = fresh(os.path.join(workload.work, "probe"))
    manifest, results = cli.cmd_pipeline(cfg, out, seed=workload.seed)
    return check_pipeline(cfg, out, manifest, results)


def run_untraced(workload, seconds, setup_s):
    """End-to-end metrics; p50/p90 are over every call, failed ones too."""
    loop = Loop(workload, seconds)
    times, sessions, depth_err = [], 0, None
    out = os.path.join(workload.work, "out")
    while loop.more():
        dt, n, err = loop.call(out)
        times.append(dt)
        if n is not None:
            sessions += n
            if loop.k == 0:
                depth_err = err
        loop.k += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = loop.k
    if depth_err is None:
        attempted += 1
        try:
            depth_err = probe_depth_err(workload)
        except Exception:
            loop.fail("depth probe failed")
            depth_err = 1.0  # the largest possible error
    p90 = statistics.quantiles(times, n=10)[-1] if len(times) > 1 else times[0]
    return attempted, loop.failed, {
        "setup_s": metric(setup_s, "s"),
        "sessions_per_s": metric(sessions / sum(times), "1/s"),
        "call_s_p50": metric(statistics.median(times), "s"),
        "call_s_p90": metric(p90, "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "depth_err": metric(depth_err, "frac"),
    }


def run_traced(workload, seconds):
    """Pairs of untraced and traced calls on one seed; per-layer metrics."""
    tracer = spans.Tracer()
    loop = Loop(workload, seconds)
    untraced_s = traced_s = 0.0
    http = {"requests": 0, "handler_s": 0.0}
    written = 0
    while loop.more():
        dt_u, n_u, _ = loop.call(os.path.join(workload.work, "untraced"))
        before = workload.http_stats()
        tracer.call_id = loop.k
        spans.install(tracer)
        try:
            dt_t, n_t, _ = loop.call(os.path.join(workload.work, "traced"))
        finally:
            unrestored = tracer.restore()
        after = workload.http_stats()
        for key in http:
            http[key] += after[key] - before[key]
        untraced_s += dt_u
        traced_s += dt_t
        written += spans.dir_bytes(os.path.join(workload.work, "traced"))
        identical = tree_digests(os.path.join(workload.work, "untraced")) \
            == tree_digests(os.path.join(workload.work, "traced"))
        if unrestored or (not identical and None not in (n_u, n_t)):
            loop.failed += 1
            print(f"perfbench: call {loop.k}: unrestored {unrestored}, "
                  f"identical outputs {identical}", file=sys.stderr)
        loop.k += 1
    tracer.dump(os.path.join(workload.work, "trace.jsonl"))
    return loop.k * 2, loop.failed, layer_metrics(
        tracer, loop.k, http, written, untraced_s, traced_s,
        loop.failed / (loop.k * 2), workload.remote)


def layer_metrics(tr, n, http, written, untraced_s, traced_s, failed_frac,
                  remote):
    """Per-layer metrics per traced command call (n calls) unless noted."""
    calls = {name: tot[0] for name, tot in tr.totals.items()}
    secs = {name: tot[1] for name, tot in tr.totals.items()}

    def per_call(name):
        return calls.get(name, 0) / n

    def ratio(a, b):
        return a / b if b else 0.0

    solves = calls.get("inversion.solve", 0)
    # invert_radii evaluates the gradient once at the start and once after
    # each accepted step, and the objective once at the start and once per
    # line-search trial
    accepted = tr.parents[("inversion.gradient", "inversion.solve")] - solves
    trials = tr.parents[("inversion.objective", "inversion.solve")] - solves
    provider_failed = sum(v for (name, _), v in tr.errors.items()
                          if name == "risk.provider")
    provider_ok = calls.get("risk.provider", 0) - provider_failed
    m = {}
    for name in ("inversion.solve", "inversion.gradient", "inversion.objective",
                 "acoustics.estimate_tof", "hemogrid.solve_flow",
                 "risk.likelihood_curve"):
        m[name + ".calls"] = metric(per_call(name), "count")
        m[name + ".s"] = metric(secs.get(name, 0.0) / n, "s")
    m["inversion.iterations"] = metric(
        ratio(tr.stats["inversion.iterations"], solves), "count")
    m["inversion.converged_frac"] = metric(
        ratio(tr.stats["inversion.converged"], solves), "frac")
    m["inversion.linesearch.accept_ratio"] = metric(ratio(accepted, trials),
                                                    "ratio")
    m["acoustics.synthesize_echo.calls"] = metric(
        per_call("acoustics.synthesize_echo"), "count")
    m["acoustics.synthesize_echo.us"] = metric(1e6 * ratio(
        secs.get("acoustics.synthesize_echo", 0.0),
        calls.get("acoustics.synthesize_echo", 0)), "us")
    m["acoustics.estimate_tof.low_confidence"] = metric(
        tr.errors[("acoustics.estimate_tof", "LowConfidenceError")] / n,
        "count")
    m["hemogrid.step_us"] = metric(1e6 * ratio(
        secs.get("hemogrid.solve_flow", 0.0), tr.stats["hemogrid.steps"]), "us")
    m["hemogrid.states_mb"] = metric(1e-6 * ratio(
        tr.stats["hemogrid.states_bytes"], calls.get("hemogrid.solve_flow", 0)),
        "MB-computed")
    m["risk.provider.calls"] = metric(per_call("risk.provider"), "count")
    m["risk.provider.us"] = metric(1e6 * ratio(
        secs.get("risk.provider", 0.0), calls.get("risk.provider", 0)), "us")
    m["risk.provider.failed"] = metric(provider_failed / n, "count")
    m["risk.http.requests"] = metric(http["requests"] / n, "count")
    m["risk.http.retries"] = metric(
        (http["requests"] - provider_ok) / n if remote else 0.0, "count")
    m["risk.http.server_s"] = metric(http["handler_s"] / n, "s")
    for name in ("generate_scenario", "write_dataset", "read_dataset"):
        m[f"synthdata.{name}.s"] = metric(
            secs.get(f"synthdata.{name}", 0.0) / n, "s")
    for name in ("write_dataset", "read_dataset"):
        m[f"synthdata.{name}.bytes"] = metric(
            tr.stats[f"synthdata.{name}.bytes"] / n, "bytes")
    m["cli.call_s"] = metric(traced_s / n, "s")
    m["cli.self_s"] = metric(sum(tot[2] for name, tot in tr.totals.items()
                                 if name.startswith("cli.")) / n, "s")
    m["cli.bytes_written"] = metric(
        (written - tr.stats["synthdata.write_dataset.bytes"]) / n, "bytes")
    m["trace.overhead_frac"] = metric((traced_s - untraced_s) / untraced_s,
                                      "frac")
    m["failed_frac"] = metric(failed_frac, "frac")
    return m


def context():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    # requests scans the whole environment on every request, so its size
    # shows in assess-remote's call time
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "environ_vars": len(os.environ)}


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print(json.dumps({"context": context()}), flush=True)
    cls = WORKLOADS[args.workload]
    work = fresh(os.path.join(ROOT, ".perfbench-work", args.workload))
    os.environ.pop(cli.DEFAULT_CONFIG_ENV, None)
    if args.trace:
        workload = cls(args.seed, work)
    else:
        setup_s, workload = measure_setup(cls, args.seed, work)
    try:
        if args.trace:
            workload.setup()
            attempted, failed, metrics = run_traced(workload, args.seconds)
        else:
            attempted, failed, metrics = run_untraced(workload, args.seconds,
                                                      setup_s)
    finally:
        workload.close()
    declared = declared_metrics(args.trace)
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != declared:
        sys.exit(f"perfbench: metrics {got} do not match BENCHMARK.json "
                 f"{declared}")
    ok = failed == 0 and all(math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)


if __name__ == "__main__":
    main()
