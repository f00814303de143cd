import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_grid
from vasosim import acoustics as ac
from vasosim.errors import (
    ConfigurationError,
    DomainError,
    EstimationError,
    LowConfidenceError,
)


def residual_steps(pulse, frac=100):
    """Per-axis steps of one hundredth of the relevant wavelength."""
    lam_t = 2 * np.pi / pulse.omega
    lam_x = 2 * np.pi / pulse.k_x if pulse.k_x > 0 else pulse.c * lam_t
    lam_r = 2 * np.pi / pulse.k_r if pulse.k_r > 0 else pulse.c * lam_t
    return (lam_x / frac, lam_r / frac, lam_t / frac)


def residual_box(pulse):
    hx, hr, ht = residual_steps(pulse)
    return dict(x_range=(0.0, 10 * hx), r_range=(0.0, 10 * hr),
                t_range=(0.0, 10 * ht), steps=(hx, hr, ht))


class TestPulseSpec:
    def test_dispersion_enforced(self):
        with pytest.raises(DomainError):
            ac.PulseSpec(omega=1.0, amp_forward=1.0, amp_reflected=0.0,
                         k_x=1.0, k_r=1.0, c=1.0)

    def test_axial_satisfies_dispersion(self):
        p = ac.PulseSpec.axial(omega=5.0, amp_forward=1.0, amp_reflected=0.5,
                               c=2.0)
        assert p.k_x == pytest.approx(2.5, rel=1e-12)

    def test_unchecked_bypasses(self):
        p = ac.PulseSpec.unchecked(omega=1.0, amp_forward=1.0,
                                   amp_reflected=0.0, k_x=1.0, k_r=1.0, c=1.0)
        assert p.k_r == 1.0


class TestWaveField:
    def test_zero_phase(self):
        p = ac.PulseSpec.axial(omega=1.0, amp_forward=2.0, amp_reflected=3.0,
                               c=1.0)
        assert ac.wave_field(p, 0.0, 0.0, 0.0) == pytest.approx(5.0 + 0j)

    def test_half_period(self):
        p = ac.PulseSpec.axial(omega=1.0, amp_forward=1.0, amp_reflected=0.0,
                               c=1.0)
        val = ac.wave_field(p, 0.0, 0.0, math.pi)
        assert val == pytest.approx(-1.0 + 0j, abs=1e-12)

    def test_periodicity(self):
        k = 3.0 / math.sqrt(2)
        p = ac.PulseSpec(omega=3.0, amp_forward=1.0, amp_reflected=0.4,
                         k_x=k, k_r=k, c=1.0)
        rng = np.random.default_rng(11)
        period = 2 * np.pi / p.omega
        for _ in range(100):
            x, r, t = rng.uniform(-5, 5, 3)
            assert abs(ac.wave_field(p, x, r, t)
                       - ac.wave_field(p, x, r, t + period)) < 1e-12

    def test_linearity_in_amplitudes(self):
        rng = np.random.default_rng(13)
        k = 2.0
        kx = k / math.sqrt(5)
        kr = 2 * k / math.sqrt(5)

        def pulse(a, b):
            return ac.PulseSpec(omega=k * 1.0, amp_forward=a, amp_reflected=b,
                                k_x=kx, k_r=kr, c=1.0)

        for _ in range(20):
            a1, b1, a2, b2 = rng.uniform(-2, 2, 4)
            x, r, t = rng.uniform(-3, 3, 3)
            lhs = ac.wave_field(pulse(a1 + a2, b1 + b2), x, r, t)
            rhs = (ac.wave_field(pulse(a1, b1), x, r, t)
                   + ac.wave_field(pulse(a2, b2), x, r, t))
            assert abs(lhs - rhs) < 1e-12


class TestWaveEquationResidual:
    def test_valid_pulse_small_residual(self):
        k = 2.0
        p = ac.PulseSpec(omega=k * math.sqrt(2) * 340.0, amp_forward=1.0,
                         amp_reflected=0.3, k_x=k, k_r=k, c=340.0)
        assert ac.wave_equation_residual(p, **residual_box(p)) < 1e-3

    def test_axial_pulse_small_residual(self, pulse):
        assert ac.wave_equation_residual(pulse, **residual_box(pulse)) < 1e-3

    def test_zero_field(self):
        p = ac.PulseSpec.axial(omega=1.0, amp_forward=0.0, amp_reflected=0.0,
                               c=1.0)
        assert ac.wave_equation_residual(p, **residual_box(p)) == 0.0

    def test_dispersion_violation_detected(self):
        k = 2.0
        good = ac.PulseSpec(omega=k * math.sqrt(2) * 340.0, amp_forward=1.0,
                            amp_reflected=0.0, k_x=k, k_r=k, c=340.0)
        bad = ac.PulseSpec.unchecked(omega=good.omega * 1.1, amp_forward=1.0,
                                     amp_reflected=0.0, k_x=k, k_r=k, c=340.0)
        assert ac.wave_equation_residual(bad, **residual_box(good)) > 0.05

    def test_degenerate_box(self, pulse):
        with pytest.raises(DomainError):
            ac.wave_equation_residual(pulse, x_range=(0, 0), r_range=(0, 1),
                                      t_range=(0, 1), steps=(1.0, 0.1, 0.1))


class TestReflectionCoefficient:
    def test_matched_areas(self):
        assert ac.reflection_coefficient(1e-5, 1e-5) == 0.0

    def test_closed_end_limit(self):
        assert ac.reflection_coefficient(1e-5, 1e-12) == pytest.approx(
            1.0, abs=1e-6)

    def test_half_area(self):
        d = 1e-5
        assert ac.reflection_coefficient(d, d / 2) == pytest.approx(
            1.0 / 3.0, rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            ac.reflection_coefficient(-1e-5, 1e-5)

    @given(st.floats(min_value=1e-8, max_value=1e-3),
           st.floats(min_value=1e-8, max_value=1e-3))
    def test_energy_bound(self, dl, dr):
        assert abs(ac.reflection_coefficient(dl, dr)) < 1.0


class TestSynthesizeEcho:
    fs = 3.2e6  # 32 samples per carrier cycle

    def test_uniform_column_zero_trace(self, model, pulse):
        g = make_grid(32)
        trace = ac.synthesize_echo(np.full(32, model.r0), pulse, g, model,
                                   fs=self.fs, duration=1e-4)
        assert np.all(trace.samples == 0.0)

    def test_single_step_arrival(self, model, pulse):
        nx = 32
        g = make_grid(nx)
        radii = np.full(nx, model.r0)
        i_star = 19
        radii[i_star + 1:] = 0.8 * model.r0
        trace = ac.synthesize_echo(radii, pulse, g, model, fs=self.fs,
                                   duration=1e-4)
        gamma = ac.reflection_coefficient(np.pi * radii[i_star] ** 2,
                                          np.pi * radii[i_star + 1] ** 2)
        peak = np.max(np.abs(trace.samples))
        assert peak == pytest.approx(pulse.amp_forward * gamma, rel=0.01)
        # arrival centered at 2x/c plus half the burst window
        delay = 2 * (i_star + 1) * g.dx / pulse.c
        burst = 5 * 2 * np.pi / pulse.omega
        center = np.argmax(np.abs(trace.samples)) / self.fs
        assert abs(center - (delay + burst / 2)) < burst / 2

    def test_two_step_delays(self, model, pulse):
        nx = 64
        g = make_grid(nx)
        radii = np.full(nx, model.r0)
        radii[16:] *= 0.9
        radii[48:] *= 0.9
        trace = ac.synthesize_echo(radii, pulse, g, model, fs=self.fs,
                                   duration=2e-4)
        expected = 2 * np.array([16, 48]) * g.dx / pulse.c
        measured_gap = None
        # locate the two bursts by scanning windows around the expected delays
        centers = []
        burst = 5 * 2 * np.pi / pulse.omega
        for d in expected:
            lo = int((d - 0.1 * burst) * self.fs)
            hi = int((d + 1.1 * burst) * self.fs)
            seg = np.abs(trace.samples[lo:hi])
            centers.append((lo + np.argmax(seg)) / self.fs)
        measured_gap = centers[1] - centers[0]
        assert abs(measured_gap - (expected[1] - expected[0])) <= 1.0 / self.fs

    def test_peak_bounded_by_incident_amplitude(self, model, pulse):
        rng = np.random.default_rng(17)
        g = make_grid(32)
        radii = model.r0 * (1 + 0.3 * rng.uniform(-1, 1, 32))
        trace = ac.synthesize_echo(radii, pulse, g, model, fs=self.fs,
                                   duration=1e-4)
        assert np.max(np.abs(trace.samples)) <= pulse.amp_forward

    def test_nyquist_violation(self, model, pulse):
        g = make_grid(32)
        with pytest.raises(ConfigurationError):
            ac.synthesize_echo(np.full(32, model.r0), pulse, g, model,
                               fs=3 * pulse.omega / (2 * np.pi), duration=1e-4)

    def test_duration_too_short(self, model, pulse):
        g = make_grid(32)
        with pytest.raises(ConfigurationError):
            ac.synthesize_echo(np.full(32, model.r0), pulse, g, model,
                               fs=self.fs, duration=1e-8)


def _band_limited_signal(rng, n, fs, cutoff_frac=0.1):
    spec = rng.normal(size=n // 2 + 1) + 1j * rng.normal(size=n // 2 + 1)
    f = np.fft.rfftfreq(n, 1 / fs)
    spec[f > cutoff_frac * fs] = 0
    return np.fft.irfft(spec)


def _fractional_delay(signal, d, fs):
    f = np.fft.rfftfreq(signal.size, 1 / fs)
    return np.fft.irfft(np.fft.rfft(signal) * np.exp(-2j * np.pi * f * d / fs))


def _compact_signal(rng, n, fs, margin):
    """Band-limited burst with zero margins so linear shifts lose nothing."""
    sig = _band_limited_signal(rng, n, fs)
    taper = np.ones(n)
    ramp = np.hanning(2 * margin)
    taper[:margin] = ramp[:margin]
    taper[-margin:] = ramp[margin:]
    sig = sig * taper
    sig[: margin // 2] = 0.0
    sig[-margin // 2:] = 0.0
    return sig


def _linear_shift(sig, k):
    out = np.zeros_like(sig)
    out[k:] = sig[: sig.size - k]
    return out


class TestEstimateTof:
    def test_integer_delay_exact(self):
        rng = np.random.default_rng(19)
        sig = _compact_signal(rng, 2048, 1.0, margin=200)
        delayed = _linear_shift(sig, 37)
        tof = ac.estimate_tof(ac.EchoTrace(samples=sig, fs=1.0),
                              ac.EchoTrace(samples=delayed, fs=1.0))
        assert tof.tof == 37.0

    def test_zero_delay(self):
        rng = np.random.default_rng(23)
        sig = _band_limited_signal(rng, 1024, 1.0)
        tof = ac.estimate_tof(ac.EchoTrace(samples=sig, fs=1.0),
                              ac.EchoTrace(samples=sig, fs=1.0))
        assert tof.tof == 0.0
        assert tof.peak_correlation == pytest.approx(1.0, abs=1e-12)

    def test_fractional_delay_oracle(self):
        rng = np.random.default_rng(29)
        fs = 1.0
        for _ in range(100):
            sig = _band_limited_signal(rng, 4096, fs)
            d = rng.uniform(5, 50)
            echo = _fractional_delay(sig, d, fs)
            tof = ac.estimate_tof(ac.EchoTrace(samples=sig, fs=fs),
                                  ac.EchoTrace(samples=echo, fs=fs))
            assert abs(tof.tof * fs - d) < 0.1

    def test_shift_equivariance(self):
        rng = np.random.default_rng(31)
        sig = _compact_signal(rng, 2048, 1.0, margin=200)
        echo = _fractional_delay(sig, 20.3, 1.0)
        base = ac.estimate_tof(ac.EchoTrace(samples=sig, fs=1.0),
                               ac.EchoTrace(samples=echo, fs=1.0))
        for k in (1, 5, 40):
            shifted = _linear_shift(echo, k)
            tof = ac.estimate_tof(ac.EchoTrace(samples=sig, fs=1.0),
                                  ac.EchoTrace(samples=shifted, fs=1.0))
            # exact up to float representation of (lag + delta) / fs
            assert tof.tof == pytest.approx(base.tof + k, abs=1e-12)

    def test_all_zero_trace(self):
        sig = np.zeros(64)
        with pytest.raises(EstimationError):
            ac.estimate_tof(ac.EchoTrace(samples=np.ones(64), fs=1.0),
                            ac.EchoTrace(samples=sig, fs=1.0))

    def test_low_confidence(self):
        rng = np.random.default_rng(37)
        a = _band_limited_signal(rng, 1024, 1.0)
        b = rng.normal(size=1024)  # unrelated noise
        with pytest.raises(LowConfidenceError):
            ac.estimate_tof(ac.EchoTrace(samples=a, fs=1.0),
                            ac.EchoTrace(samples=b, fs=1.0),
                            correlation_floor=0.9)

    def test_mismatched_fs(self):
        a = np.ones(16)
        with pytest.raises(EstimationError):
            ac.estimate_tof(ac.EchoTrace(samples=a, fs=1.0),
                            ac.EchoTrace(samples=a, fs=2.0))


class TestDensityChange:
    def _tof(self, value):
        return ac.ToFMeasurement(tof=value, peak_correlation=1.0)

    def test_identity(self):
        est = ac.density_change(self._tof(1e-4), self._tof(1e-4))
        assert est.ratio == 1.0
        assert est.fractional_change == 0.0

    def test_ratio_squared(self):
        est = ac.density_change(self._tof(1.0), self._tof(1.1))
        assert est.ratio == pytest.approx(1.21, rel=1e-12)

    def test_double_tof(self):
        est = ac.density_change(self._tof(1.0), self._tof(2.0))
        assert est.ratio == pytest.approx(4.0, rel=1e-12)

    def test_zero_reference(self):
        with pytest.raises(DomainError):
            ac.density_change(self._tof(0.0), self._tof(1.0))

    def test_reciprocity_random_pairs(self):
        rng = np.random.default_rng(41)
        for _ in range(1000):
            a, b = rng.uniform(1e-5, 1e-3, 2)
            fwd = ac.density_change(self._tof(a), self._tof(b)).ratio
            bwd = ac.density_change(self._tof(b), self._tof(a)).ratio
            assert fwd * bwd == pytest.approx(1.0, rel=1e-12)


class TestEchoCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(43)
        trace = ac.EchoTrace(samples=rng.normal(size=100), fs=1e6,
                             session_id="s01")
        path = tmp_path / "echo.csv"
        ac.write_echo_csv(path, trace)
        back = ac.read_echo_csv(path)
        assert np.array_equal(back.samples, trace.samples)
        assert back.fs == trace.fs
        assert back.session_id == "s01"

    def test_missing_header(self, tmp_path):
        path = tmp_path / "echo.csv"
        path.write_text("t_s,p_pa\n0.0,1.0\n")
        with pytest.raises(ConfigurationError):
            ac.read_echo_csv(path)
