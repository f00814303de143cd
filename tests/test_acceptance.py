"""End-to-end acceptance gate.

Each test checks one numbered release criterion at its stated tolerance
and prints a single PASS/FAIL line (run with ``pytest -s`` to see them
for passing tests too).
"""
import json
import math
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from conftest import make_grid, stenotic_column
from test_acoustics import (
    _band_limited_signal,
    _compact_signal,
    _fractional_delay,
    _linear_shift,
    residual_box,
)
from test_hemogrid import TestContinuity as _ContinuityOracles
from vasosim import acoustics as ac
from vasosim import cli
from vasosim import hemogrid as hg
from vasosim import inversion as inv
from vasosim import risk
from vasosim.errors import ProtocolError, ProviderTimeoutError


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} ({label}): FAIL")
        raise
    print(f"criterion {number:2d} ({label}): PASS")


class TestAcceptance:
    def test_01_volume_conservation(self):
        with criterion(1, "volume conservation, periodic, 1000 steps"):
            start = time.perf_counter()
            rng = np.random.default_rng(2)
            nx = 256
            g = make_grid(nx, dx=1.0 / nx, dt=1e-3, s_max=1.0)
            state = hg.FlowState(area=1 + rng.uniform(0, 0.5, nx),
                                 velocity=rng.uniform(-0.5, 0.5, nx),
                                 pressure=np.zeros(nx))
            vol0 = state.area.sum() * g.dx
            for _ in range(1000):
                state = hg.step_continuity(state, g, bc="periodic")
            drift = abs(state.area.sum() * g.dx - vol0) / vol0
            elapsed = time.perf_counter() - start
            assert drift < 1e-8
            assert elapsed < 5.0

    def test_02_advection_oracle(self):
        with criterion(2, "advection vs analytic shift"):
            coarse = _ContinuityOracles.advection_error(256, cfl=0.5)
            fine = _ContinuityOracles.advection_error(512, cfl=0.5)
            assert coarse < 0.02
            assert coarse / fine >= 1.8

    def test_03_momentum_hand_step(self):
        with criterion(3, "momentum hand-computed Euler step"):
            model = hg.ArteryModel(alpha=math.sqrt(10), re=100.0)
            nx = 16
            g = make_grid(nx, dx=1.0, dt=0.01, s_max=1.0)
            p = 0.1 * np.arange(nx) * g.dx
            st0 = hg.FlowState(area=np.ones(nx), velocity=np.zeros(nx),
                               pressure=p)
            st1 = hg.step_momentum(st0, g, model, bc="fixed")
            assert np.max(np.abs(st1.velocity[1:-1] - (-0.01))) < 1e-14

    def test_04_wave_equation_residual(self):
        with criterion(4, "wave-equation residual of valid pulses"):
            c = 1540.0
            pulses = [ac.PulseSpec.axial(omega=2 * np.pi * f, amp_forward=1.0,
                                         amp_reflected=b, c=c)
                      for f in (5e4, 1e5, 5e5) for b in (0.0, 0.5)]
            for kx_frac in (0.3, 0.8):
                omega = 2 * np.pi * 2e5
                k = omega / c
                pulses.append(ac.PulseSpec(
                    omega=omega, amp_forward=1.0, amp_reflected=0.2,
                    k_x=kx_frac * k, k_r=math.sqrt(1 - kx_frac**2) * k, c=c))
            for p in pulses:
                assert ac.wave_equation_residual(p, **residual_box(p)) < 1e-3
            good = pulses[0]
            bad = ac.PulseSpec.unchecked(
                omega=good.omega * 1.1, amp_forward=1.0, amp_reflected=0.0,
                k_x=good.k_x, k_r=good.k_r, c=good.c)
            assert ac.wave_equation_residual(bad, **residual_box(good)) > 0.05

    def test_05_tof_recovery(self):
        with criterion(5, "time-of-flight recovery"):
            rng = np.random.default_rng(19)
            sig = _compact_signal(rng, 2048, 1.0, margin=200)
            delayed = _linear_shift(sig, 37)
            tof = ac.estimate_tof(ac.EchoTrace(samples=sig, fs=1.0),
                                  ac.EchoTrace(samples=delayed, fs=1.0))
            assert tof.tof == 37.0
            fs = 1.0
            for _ in range(100):
                ref = _band_limited_signal(rng, 4096, fs)
                d = rng.uniform(5, 50)
                echo = _fractional_delay(ref, d, fs)
                tof = ac.estimate_tof(ac.EchoTrace(samples=ref, fs=fs),
                                      ac.EchoTrace(samples=echo, fs=fs))
                assert abs(tof.tof * fs - d) < 0.1

    def test_06_density_arithmetic(self):
        with criterion(6, "density-change arithmetic"):
            ref = ac.ToFMeasurement(tof=1.0, peak_correlation=1.0)
            new = ac.ToFMeasurement(tof=1.1, peak_correlation=1.0)
            est = ac.density_change(ref, new)
            assert abs(est.ratio - 1.21) < 1e-12
            rng = np.random.default_rng(11)
            for _ in range(1000):
                a = ac.ToFMeasurement(tof=rng.uniform(0.5, 2.0),
                                      peak_correlation=1.0)
                b = ac.ToFMeasurement(tof=rng.uniform(0.5, 2.0),
                                      peak_correlation=1.0)
                forward = ac.density_change(a, b).ratio
                backward = ac.density_change(b, a).ratio
                assert forward * backward == pytest.approx(1.0, rel=1e-12)

    def _make_problem(self, model, pulse, truth, lam=1e-4, noise=0.0, seed=0):
        nx = truth.size
        grid = make_grid(nx)
        fs = 8e5
        obs = ac.synthesize_echo(truth, pulse, grid, model, fs=fs,
                                 duration=2.4 * nx * grid.dx / pulse.c)
        samples = obs.samples
        if noise > 0:
            rng = np.random.default_rng(seed)
            rms = np.sqrt(np.mean(samples**2))
            samples = samples + rng.normal(0, noise * rms, samples.size)
        return inv.InverseProblem(
            observed=ac.EchoTrace(samples=samples, fs=fs), pulse=pulse,
            grid=grid, model=model, lam=lam)

    def test_07_gradient_check(self, model, pulse):
        with criterion(7, "adjoint vs central finite-difference gradient"):
            start = time.perf_counter()
            rng = np.random.default_rng(0)
            options = inv.SolverOptions(fd_step=3e-8)
            for _ in range(20):
                truth = model.r0 * (1 + 0.15 * rng.uniform(-1, 1, 16))
                problem = self._make_problem(model, pulse, truth)
                x = model.r0 * (1 + 0.1 * rng.uniform(-1, 1, 16))
                gf = inv.gradient(x, problem, options)
                gc = inv.central_gradient(x, problem, options)
                denom = np.maximum(np.abs(gc), 1e-6 * np.max(np.abs(gc)))
                assert np.max(np.abs(gf - gc) / denom) < 1e-4
            assert time.perf_counter() - start < 30.0

    def test_08_inversion_recovery(self, model, pulse):
        with criterion(8, "stenosis recovery from echo"):
            truth = stenotic_column(model, 64, 32, 2.0, 0.2)
            start = time.perf_counter()
            sol = inv.invert_radii(self._make_problem(model, pulse, truth))
            elapsed = time.perf_counter() - start
            err = np.linalg.norm(sol.radii - truth) / np.linalg.norm(truth)
            assert err < 0.05
            assert elapsed < 60.0
            noisy = inv.invert_radii(self._make_problem(
                model, pulse, truth, noise=0.01, seed=123))
            err = np.linalg.norm(noisy.radii - truth) / np.linalg.norm(truth)
            assert err < 0.10

    def test_09_tte_brute_force(self):
        with criterion(9, "time-to-episode argmax equivalence"):
            rng = np.random.default_rng(7)
            for _ in range(1000):
                h = int(rng.integers(1, 25))
                # quantized levels so exact ties occur regularly
                probs = rng.integers(0, 10, h) / 10.0
                curve = risk.EpisodeLikelihood(probs=probs, prob_now=0.0,
                                               horizon=h)
                tte = risk.compute_tte(curve, 1.0)
                best = min(i + 1 for i in range(h)
                           if probs[i] == probs.max())
                assert tte.tte_step == best

    def test_10_provider_protocol(self):
        with criterion(10, "remote provider protocol contract"):
            responses = {"mode": "ok"}

            class Handler(BaseHTTPRequestHandler):
                def do_POST(self):
                    body = json.loads(self.rfile.read(
                        int(self.headers["Content-Length"])))
                    assert body["features"]["stenosis_index"] == 0.4
                    if responses["mode"] == "slow":
                        time.sleep(0.5)
                    payload = {"probability": "high"} \
                        if responses["mode"] == "bad" \
                        else {"probability": 0.42}
                    data = json.dumps(payload).encode()
                    self.send_response(200)
                    self.send_header("Content-Length", str(len(data)))
                    self.end_headers()
                    self.wfile.write(data)

                def log_message(self, *args):
                    pass

            server = HTTPServer(("127.0.0.1", 0), Handler)
            threading.Thread(target=server.serve_forever, daemon=True).start()
            url = f"http://127.0.0.1:{server.server_address[1]}/"
            report = risk.BiophysicsReport(
                stenosis_index=0.4, density_fractional_change=0.1,
                tof=4e-5, timestamp=0.0, session_id="s0")
            try:
                ok = risk.llm_provider(url, timeout=2.0)
                assert ok(report, 1) == 0.42
                responses["mode"] = "bad"
                with pytest.raises(ProtocolError):
                    risk.llm_provider(url, timeout=2.0)(report, 1)
                responses["mode"] = "slow"
                slow = risk.llm_provider(url, timeout=0.05, max_retries=1,
                                         backoff=0.01)
                with pytest.raises(ProviderTimeoutError):
                    slow(report, 1)
            finally:
                server.shutdown()
                server.server_close()

    PIPELINE_INI = (
        "[grid]\nnx = 32\nnt = 50\ndx = 1e-3\ndt = 2e-6\n"
        "[scenario]\nsessions = 3\nseverity = 0.6\nnoise_rms = 0.0\n"
        "stenosis_center = 16\nstenosis_width = 2.0\n"
        "[solver]\nmax_iter = 40\n"
        "[risk]\nhorizon = 6\n"
    )

    def test_11_pipeline_determinism(self, tmp_path):
        with criterion(11, "pipeline manifest determinism"):
            ini = tmp_path / "cfg.ini"
            ini.write_text(self.PIPELINE_INI)
            cfg = cli.load_config(str(ini))
            m1, _ = cli.cmd_pipeline(cfg, str(tmp_path / "a"), seed=42)
            m2, _ = cli.cmd_pipeline(cfg, str(tmp_path / "b"), seed=42)
            assert m1["checksums"] == m2["checksums"]

    def test_12_pipeline_signal(self, tmp_path):
        with criterion(12, "progressive occlusion raises current risk"):
            ini = tmp_path / "cfg.ini"
            ini.write_text(self.PIPELINE_INI)
            cfg = cli.load_config(str(ini))
            for seed in range(10):
                out = tmp_path / f"seed{seed}"
                _, results = cli.cmd_pipeline(cfg, str(out), seed=seed)
                assert results[-1]["prob_now"] > results[0]["prob_now"]
                for rec in results:
                    crossed = (rec["prob_now"] >= cfg.policy.critical_prob
                               or (rec["tte"]["tte_step"]
                                   <= cfg.policy.critical_horizon
                                   and rec["tte"]["max_prob"]
                                   >= cfg.policy.warn_prob))
                    assert (rec["severity"] == "critical") == crossed
