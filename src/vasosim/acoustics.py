"""Harmonic wave field, echo synthesis, time-of-flight, density inference.

The incident/reflected field is the two-term harmonic

    P(x, r, t) = A exp(i(w t - kx x - kr r)) + B exp(i(w t - kx x + kr r))

with the dispersion closure w^2 = c^2 (kx^2 + kr^2) so that both terms
solve the classical wave equation. Echo synthesis is single-scattering
and factors as ``w(r) @ B``: the burst matrix B holds one windowed
arrival per impedance interface, delayed by the round trip 2x/c, and the
reflectivity w scales each by the reflection coefficient times the
accumulated transmission loss; multiple reflections are ignored. B
depends only on the grid and the sampling. The inversion's Jacobian is
B^T :func:`_jacobian`, the exact dw/dr in closed form, and its gradient
and Levenberg-Marquardt steps both come from it, so synthesis and
inversion share one forward operator and its one derivative.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    ConfigurationError,
    DomainError,
    EstimationError,
    LowConfidenceError,
)
from .hemogrid import ArteryModel, Grid

__all__ = [
    "PulseSpec",
    "EchoTrace",
    "ToFMeasurement",
    "DensityEstimate",
    "wave_field",
    "wave_equation_residual",
    "incident_pulse",
    "burst_matrix",
    "reflectivity",
    "synthesize_echo",
    "estimate_tof",
    "density_change",
    "write_echo_csv",
    "read_echo_csv",
]

# cycles in the Hann-windowed incident burst
N_CYCLES = 5
# estimate_tof's lowest accepted peak of the normalized cross-correlation
CORRELATION_FLOOR = 0.2


@dataclass(frozen=True)
class PulseSpec:
    """Harmonic pulse parameters.

    The constructor enforces the dispersion closure
    omega^2 = c^2 (k_x^2 + k_r^2) to relative 1e-10; use
    :meth:`unchecked` only in tests probing closure violations.
    """

    omega: float
    amp_forward: float
    amp_reflected: float
    k_x: float
    k_r: float
    c: float

    def __post_init__(self):
        if self.omega <= 0:
            raise DomainError("omega must be positive")
        if self.c <= 0:
            raise DomainError("c must be positive")
        if self.k_x < 0 or self.k_r < 0:
            raise DomainError("wave numbers must be nonnegative")
        lhs = self.omega**2
        rhs = self.c**2 * (self.k_x**2 + self.k_r**2)
        if abs(lhs - rhs) > 1e-10 * max(lhs, rhs):
            raise DomainError(
                f"dispersion closure violated: omega^2={lhs:.6e} vs "
                f"c^2(kx^2+kr^2)={rhs:.6e}"
            )

    @classmethod
    def axial(cls, omega, amp_forward, amp_reflected, c):
        """Pulse propagating along x only (k_r = 0), k_x fixed by dispersion."""
        return cls(omega=omega, amp_forward=amp_forward,
                   amp_reflected=amp_reflected, k_x=omega / c, k_r=0.0, c=c)

    @classmethod
    def unchecked(cls, omega, amp_forward, amp_reflected, k_x, k_r, c):
        """Test-only constructor: sets the fields without running
        ``__post_init__``, so no check applies."""
        spec = object.__new__(cls)
        for name, value in dict(omega=omega, amp_forward=amp_forward,
                                amp_reflected=amp_reflected, k_x=k_x,
                                k_r=k_r, c=c).items():
            object.__setattr__(spec, name, value)
        return spec


@dataclass(frozen=True)
class EchoTrace:
    """Sampled pressure trace; immutable after construction."""

    samples: np.ndarray
    fs: float
    t0: float = 0.0
    session_id: str = ""

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        if self.fs <= 0:
            raise DomainError("fs must be positive")
        if samples.size < 2:
            raise DomainError("trace needs at least 2 samples")


@dataclass(frozen=True)
class ToFMeasurement:
    tof: float
    peak_correlation: float

    def __post_init__(self):
        if self.tof < 0:
            raise DomainError("tof must be nonnegative")
        if not -1.0 - 1e-12 <= self.peak_correlation <= 1.0 + 1e-12:
            raise DomainError("peak_correlation must lie in [-1, 1]")


@dataclass(frozen=True)
class DensityEstimate:
    """Density ratio rho_new/rho_ref inferred from a ToF pair.

    Assumes fixed bulk modulus and fixed acoustic path length across the
    two sessions.
    """

    ratio: float
    fractional_change: float

    def __post_init__(self):
        if self.ratio <= 0:
            raise DomainError("density ratio must be positive")


def wave_field(pulse: PulseSpec, x, r, t):
    """Complex pressure of the forward + reflected harmonic field."""
    x = np.asarray(x, dtype=float)
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    fwd = pulse.amp_forward * np.exp(
        1j * (pulse.omega * t - pulse.k_x * x - pulse.k_r * r))
    ref = pulse.amp_reflected * np.exp(
        1j * (pulse.omega * t - pulse.k_x * x + pulse.k_r * r))
    out = fwd + ref
    return complex(out) if out.ndim == 0 else out


def wave_equation_residual(pulse: PulseSpec, x_range, r_range, t_range, steps):
    """Max normalized wave-equation residual over a sample box.

    Evaluates |P_xx + P_rr - P_tt/c^2| with central second differences at
    spacing ``steps = (hx, hr, ht)`` and normalizes by
    max|P| * (k_x^2 + k_r^2). Serves as the verification oracle for the
    dispersion closure.
    """
    hx, hr, ht = steps
    if hx <= 0 or hr <= 0 or ht <= 0:
        raise DomainError("steps must be positive")
    xs = np.arange(x_range[0], x_range[1] + hx / 2, hx)
    rs = np.arange(r_range[0], r_range[1] + hr / 2, hr)
    ts = np.arange(t_range[0], t_range[1] + ht / 2, ht)
    if len(xs) < 3 or len(rs) < 3 or len(ts) < 3:
        raise DomainError("degenerate sample box: need at least 3 points per axis")
    if pulse.amp_forward == 0 and pulse.amp_reflected == 0:
        return 0.0
    X, R, T = np.meshgrid(xs, rs, ts, indexing="ij")
    P = wave_field(pulse, X, R, T)
    pxx = (P[2:, 1:-1, 1:-1] - 2 * P[1:-1, 1:-1, 1:-1] + P[:-2, 1:-1, 1:-1]) / hx**2
    prr = (P[1:-1, 2:, 1:-1] - 2 * P[1:-1, 1:-1, 1:-1] + P[1:-1, :-2, 1:-1]) / hr**2
    ptt = (P[1:-1, 1:-1, 2:] - 2 * P[1:-1, 1:-1, 1:-1] + P[1:-1, 1:-1, :-2]) / ht**2
    residual = np.max(np.abs(pxx + prr - ptt / pulse.c**2))
    k2 = pulse.k_x**2 + pulse.k_r**2
    if k2 == 0:
        k2 = (pulse.omega / pulse.c) ** 2
    return float(residual / (np.max(np.abs(P)) * k2))


def _windowed_harmonic(pulse: PulseSpec, t):
    """Hann-windowed real cosine burst of N_CYCLES starting at t = 0."""
    t = np.asarray(t, dtype=float)
    t_end = N_CYCLES * 2 * np.pi / pulse.omega
    inside = (t >= 0) & (t <= t_end)
    window = np.where(inside, 0.5 * (1 - np.cos(2 * np.pi * t / t_end)), 0.0)
    return pulse.amp_forward * window * np.cos(pulse.omega * t)


def incident_pulse(pulse: PulseSpec, fs, duration):
    """Sampled incident burst used as the reference for ToF estimation."""
    _check_sampling(pulse, fs)
    n = int(round(duration * fs))
    if n < 2:
        raise ConfigurationError("duration too short for the sample rate")
    t = np.arange(n) / fs
    return EchoTrace(samples=_windowed_harmonic(pulse, t), fs=fs)


def _check_sampling(pulse, fs):
    f0 = pulse.omega / (2 * np.pi)
    if fs <= 4 * f0:
        raise ConfigurationError(
            f"fs={fs} must exceed 4x the pulse frequency {f0:.3g} Hz")


def burst_matrix(pulse: PulseSpec, grid: Grid, fs, duration):
    """Echo basis B of shape (nx - 1, n_samples), read-only.

    Row i is the incident burst delayed by the round trip 2*x_i/c to the
    interface between cells i and i+1; B depends only on the pulse, the
    grid and the sampling, never on the radii, so calls with the same
    pulse, grid, sample rate and sample count share one array.
    """
    _check_sampling(pulse, fs)
    if duration < 2 * grid.nx * grid.dx / pulse.c:
        raise ConfigurationError(
            "duration does not cover the round trip over the segment")
    return _bursts(pulse, grid, fs, int(round(duration * fs)))


@lru_cache(maxsize=32)
def _bursts(pulse, grid, fs, n_samples):
    """:func:`burst_matrix` past its checks, keyed on the sample count: two
    durations that round to the same count give the same matrix."""
    t = np.arange(n_samples) / fs
    x_i = (np.arange(grid.nx - 1) + 1) * grid.dx
    delays = 2 * x_i / pulse.c
    bursts = _windowed_harmonic(pulse, t[None, :] - delays[:, None])
    bursts.setflags(write=False)
    return bursts


def _interfaces(r):
    """Gamma_i and the two-way loss prod_{m<i}(1 - Gamma_m^2) of a float
    radii array, unchecked: the caller has established positive areas."""
    # impedance Z = rho*c/D, so Gamma = (Z_r - Z_l)/(Z_r + Z_l)
    # = (D_l - D_r)/(D_l + D_r), in (-1, 1)
    areas = np.pi * r**2
    gammas = (areas[:-1] - areas[1:]) / (areas[:-1] + areas[1:])
    # two-way transmission loss accumulated over interfaces closer to the probe
    loss = np.concatenate(([1.0], np.cumprod(1.0 - gammas**2)[:-1]))
    return gammas, loss


def reflectivity(radii_column):
    """Interface weights w_i = Gamma_i * prod_{m<i}(1 - Gamma_m^2);
    DomainError unless every radius, and with it every area, is positive."""
    r = np.asarray(radii_column, dtype=float)
    lo = r.min()
    # written so that NaN fails it; a radius whose square underflows fails
    if not (lo > 0 and np.pi * lo**2 > 0):
        raise DomainError("radii must be positive")
    gammas, loss = _interfaces(r)
    return gammas * loss


def _dgamma_dr(r):
    """The two diagonals of the bidiagonal dGamma/dr: with
    s = r_i^2 + r_{i+1}^2, dGamma_i/dr_i = 4 r_i r_{i+1}^2/s^2 and
    dGamma_i/dr_{i+1} = -4 r_i^2 r_{i+1}/s^2."""
    r_l, r_r = r[:-1], r[1:]
    s2 = (r_l**2 + r_r**2) ** 2
    return 4 * r_l * r_r**2 / s2, -4 * r_l**2 * r_r / s2


def _jacobian(r, gammas, loss):
    """dw/dr of shape (nx - 1, nx) for the weights w of
    :func:`reflectivity`, from the :func:`_interfaces` of r.

    dw/dGamma = diag(loss) + tril(w c^T, -1) with c = -2 Gamma/(1 - Gamma^2),
    times the bidiagonal dGamma/dr of :func:`_dgamma_dr`.
    """
    i = np.arange(gammas.size)
    dw_dgamma = np.where(i[:, None] > i, (gammas * loss)[:, None]
                         * (-2 * gammas / (1 - gammas**2)), 0.0)
    dw_dgamma[i, i] = loss
    d_left, d_right = _dgamma_dr(r)
    jac = np.zeros((gammas.size, r.size))
    jac[:, :-1] = dw_dgamma * d_left
    jac[:, 1:] += dw_dgamma * d_right
    return jac


def synthesize_echo(radii_column, pulse: PulseSpec, grid: Grid,
                    model: ArteryModel, fs, duration):
    """Single-scattering echo ``reflectivity(r) @ burst_matrix(...)``.

    Each interface between cells i and i+1 contributes a copy of the
    incident burst delayed by the round trip 2*x_i/c and scaled by
    Gamma_i times the accumulated two-way transmission loss
    prod_{m<i}(1 - Gamma_m^2). ``model`` is not read: Gamma depends only
    on the area ratios.
    """
    radii = np.asarray(radii_column, dtype=float)
    if radii.shape != (grid.nx,):
        raise DomainError("radii column length must equal grid.nx")
    bursts = burst_matrix(pulse, grid, fs, duration)
    return EchoTrace(samples=reflectivity(radii) @ bursts, fs=fs)


def estimate_tof(incident: EchoTrace, echo: EchoTrace):
    """Time of flight by normalized cross-correlation over nonnegative lags,
    refined with three-point parabolic interpolation around the peak. The
    refinement moves the peak by at most one sample, and only at lags >= 1,
    so the time of flight is never negative. A peak below
    :data:`CORRELATION_FLOOR` raises LowConfidenceError."""
    if incident.fs != echo.fs:
        raise EstimationError("sample rates differ")
    a = incident.samples
    b = echo.samples
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0 or nb == 0:
        raise EstimationError("all-zero trace")
    # c[k] = sum_n a[n] b[n + k] for echo lags k >= 0, the only ones kept
    corr = np.correlate(b, a, mode="full")[a.size - 1:] / (na * nb)
    k = int(np.argmax(corr))
    peak = float(corr[k])
    if peak < CORRELATION_FLOOR:
        raise LowConfidenceError(
            f"peak correlation {peak:.3g} below floor {CORRELATION_FLOOR}")
    delta = 0.0
    if 0 < k < corr.size - 1:
        denom = corr[k - 1] - 2 * corr[k] + corr[k + 1]
        if denom < 0:
            delta = 0.5 * (corr[k - 1] - corr[k + 1]) / denom
            # suppress rounding-level offsets so integer shifts stay exact
            if abs(delta) < 1e-9 or abs(delta) > 1:
                delta = 0.0
    tof = (k + delta) / incident.fs
    return ToFMeasurement(tof=tof, peak_correlation=min(peak, 1.0))


def density_change(tof_ref: ToFMeasurement, tof_new: ToFMeasurement):
    """Density ratio from a ToF pair under c = sqrt(K/rho) with K and the
    acoustic path length fixed: rho_new/rho_ref = (tof_new/tof_ref)^2."""
    if tof_ref.tof <= 0:
        raise DomainError("reference tof must be positive")
    if tof_new.tof <= 0:
        raise DomainError("new tof must be positive")
    ratio = (tof_new.tof / tof_ref.tof) ** 2
    return DensityEstimate(ratio=ratio, fractional_change=ratio - 1.0)


# ---------------------------------------------------------------------------
# file format

def write_echo_csv(path, trace: EchoTrace):
    """CSV t_s,p_pa with header comment '# fs=<Hz> session=<id>'."""
    with open(path, "w") as fh:
        fh.write(f"# fs={trace.fs!r} session={trace.session_id}\n")
        fh.write("t_s,p_pa\n")
        for i, v in enumerate(trace.samples):
            fh.write(f"{float(trace.t0 + i / trace.fs)!r},{float(v)!r}\n")


def read_echo_csv(path):
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("# fs="):
            raise ConfigurationError(f"{path}: missing '# fs=... session=...' header")
        try:
            fs_part, session_part = header[2:].split(" session=", 1)
            fs = float(fs_part[3:])
        except ValueError as exc:
            raise ConfigurationError(f"{path}: malformed header {header!r}") from exc
        t, p = [], []
        for line in fh:
            line = line.strip()
            if not line or line.startswith("t_s"):
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ConfigurationError(f"{path}: expected two columns, got {line!r}")
            try:
                t.append(float(parts[0]))
                p.append(float(parts[1]))
            except ValueError as exc:
                raise ConfigurationError(f"{path}: non-numeric row {line!r}") from exc
    if len(p) < 2:
        raise ConfigurationError(f"{path}: trace needs at least 2 samples")
    if not (np.isfinite(fs) and np.isfinite(t).all() and np.isfinite(p).all()):
        raise ConfigurationError(f"{path}: non-finite number")
    return EchoTrace(samples=np.array(p), fs=fs, t0=t[0], session_id=session_part)
