"""Deterministic synthetic scenario generation and dataset I/O.

Scenarios build ground-truth radii columns (baseline, static stenosis, or
a stenosis deepening linearly across sessions), perturb them all together
with one short pulsatile flow run (:func:`hemogrid.final_radii`, which
keeps only the final radii), synthesize noisy echoes, and label each
session with the binary episode indicator. All randomness derives from one
seed plus the session index, so session ordering never changes content.
"""
from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import acoustics, hemogrid
from .acoustics import EchoTrace, PulseSpec
from .errors import CorruptionError, DomainError, VersionError
from .hemogrid import ArteryModel, Grid, RadiiField

__all__ = [
    "ScenarioSpec",
    "LabeledSession",
    "check_scenario",
    "echo_timing",
    "generate_scenario",
    "write_dataset",
    "read_dataset",
    "FORMAT_VERSION",
]

FORMAT_VERSION = 1

KINDS = ("baseline", "static-stenosis", "progressive-occlusion")


@dataclass(frozen=True)
class ScenarioSpec:
    kind: str
    grid: Grid
    model: ArteryModel
    pulse: PulseSpec
    fs: float
    duration: float
    severity: float = 0.0
    stenosis_center: int = 0
    stenosis_width: float = 3.0
    noise_rms: float = 0.0
    seed: int = 0
    sessions: int = 1
    horizon: int = 24
    occlusion_threshold: float = 0.6
    perturbation_pa: float = 10.0

    def __post_init__(self):
        check_scenario(self.kind, self.severity, self.sessions,
                       self.noise_rms, self.stenosis_width)
        if self.kind != "baseline":
            half = 3 * self.stenosis_width
            if not (0 <= self.stenosis_center - half
                    and self.stenosis_center + half < self.grid.nx):
                raise DomainError("stenosis geometry does not fit inside the grid")


def check_scenario(kind, severity, sessions, noise_rms, stenosis_width):
    """DomainError unless the scenario values that do not depend on the
    grid are valid; :class:`ScenarioSpec` adds the check that the stenosis
    fits its grid."""
    if kind not in KINDS:
        raise DomainError(f"unknown scenario kind {kind!r}")
    if not 0 <= severity < 1:
        raise DomainError("severity must lie in [0, 1)")
    if sessions < 1:
        raise DomainError("sessions must be >= 1")
    if not noise_rms >= 0:
        raise DomainError("noise_rms must be nonnegative")
    if not stenosis_width > 0:
        raise DomainError("stenosis_width must be positive")


def echo_timing(pulse: PulseSpec, grid: Grid):
    """Default echo sample rate and duration: eight samples per pulse
    period, and the round trip over the segment with 20% margin."""
    return 8.0 * pulse.omega / (2 * np.pi), 2.4 * grid.nx * grid.dx / pulse.c


@dataclass(frozen=True)
class LabeledSession:
    radii_truth: np.ndarray
    echo: EchoTrace
    label_v: int
    future_labels: np.ndarray
    session_index: int

    def __post_init__(self):
        radii = np.asarray(self.radii_truth, dtype=float)
        radii.setflags(write=False)
        object.__setattr__(self, "radii_truth", radii)
        labels = np.asarray(self.future_labels, dtype=int)
        labels.setflags(write=False)
        object.__setattr__(self, "future_labels", labels)
        if self.label_v not in (0, 1):
            raise DomainError("label_v must be 0 or 1")
        if not np.all(np.isin(labels, (0, 1))):
            raise DomainError("future_labels entries must be 0 or 1")


def _dip_depth(spec: ScenarioSpec, session_index):
    """Fractional radius reduction at the stenosis center for one session."""
    if spec.kind == "baseline":
        return 0.0
    if spec.kind == "static-stenosis":
        return spec.severity
    if spec.sessions == 1:
        return spec.severity
    return spec.severity * session_index / (spec.sessions - 1)


def _truth_column(spec: ScenarioSpec, depth):
    # at depth 0 the factor is exactly 1.0, so the column is r0 bit for bit
    i = np.arange(spec.grid.nx)
    dip = np.exp(-0.5 * ((i - spec.stenosis_center) / spec.stenosis_width) ** 2)
    return np.full(spec.grid.nx, spec.model.r0) * (1 - depth * dip)


def _label_from_radii(radii, spec: ScenarioSpec):
    return int(np.min(radii) / spec.model.r0 < spec.occlusion_threshold)


def generate_scenario(spec: ScenarioSpec):
    """Build the labeled sessions for one scenario; pure function of spec."""
    g = spec.grid
    depths = [_dip_depth(spec, s) for s in range(spec.sessions)]
    # one short pulsatile run for all sessions, each starting from its
    # stenotic geometry; the final radii carry the physiological perturbation
    period = g.nt * g.dt
    inlet = spec.perturbation_pa * np.sin(2 * np.pi * np.arange(g.nt) * g.dt / period)
    truths = hemogrid.final_radii(
        spec.model, g, np.array([_truth_column(spec, d) for d in depths]),
        inlet=inlet)
    # every session's radii_truth is a row of this one read-only block
    truths.setflags(write=False)
    # future labels follow the depth trend, capped below full occlusion
    if spec.kind == "progressive-occlusion" and spec.sessions > 1:
        increment = spec.severity / (spec.sessions - 1)
    else:
        increment = 0.0
    steps = np.arange(1, spec.horizon + 1)
    sessions = []
    for s, (depth, truth) in enumerate(zip(depths, truths)):
        clean = acoustics.synthesize_echo(truth, spec.pulse, spec.grid,
                                          spec.model, fs=spec.fs,
                                          duration=spec.duration)
        rng = np.random.default_rng([spec.seed & 0xFFFFFFFFFFFFFFFF, s])
        clean_rms = float(np.sqrt(np.mean(clean.samples**2)))
        scale = clean_rms if clean_rms > 0 else 0.01 * spec.pulse.amp_forward
        # at noise_rms 0 every draw is +0.0; the RNG serves this session only
        noise = rng.normal(0.0, spec.noise_rms * scale, clean.samples.size)
        echo = EchoTrace(samples=clean.samples + noise, fs=spec.fs,
                         session_id=f"s{s:04d}")
        label = _label_from_radii(truth, spec)
        remaining = 1 - np.minimum(depth + increment * steps, 0.95)
        sessions.append(LabeledSession(
            radii_truth=truth, echo=echo, label_v=label,
            future_labels=remaining < spec.occlusion_threshold,
            session_index=s))
    return sessions


# ---------------------------------------------------------------------------
# dataset layout: manifest.json + per-session radii/echo CSV

def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _atomic_write(path, write):
    """Call ``write(tmp_path)`` on a sibling temp file, then rename it over
    ``path``, so readers never see a partial file."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=".tmp-")
    os.close(fd)
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_dataset(sessions, path, spec: ScenarioSpec):
    """Write sessions + manifest under ``path``; returns the manifest dict.

    Radii go through :func:`hemogrid.write_radii_csv` as a one-column field
    and echoes through :func:`acoustics.write_echo_csv`, so dataset files
    are readable by the CLI commands that take those formats.
    """
    os.makedirs(path, exist_ok=True)
    column_grid = replace(spec.grid, nt=1)
    entries = []
    checksums = {}
    for sess in sessions:
        radii_name = f"session_{sess.session_index:04d}_radii.csv"
        echo_name = f"session_{sess.session_index:04d}_echo.csv"
        radii = RadiiField(values=sess.radii_truth[:, None], grid=column_grid)
        _atomic_write(os.path.join(path, radii_name),
                      lambda tmp: hemogrid.write_radii_csv(tmp, radii))
        _atomic_write(os.path.join(path, echo_name),
                      lambda tmp: acoustics.write_echo_csv(tmp, sess.echo))
        for name in (radii_name, echo_name):
            checksums[name] = _sha256(os.path.join(path, name))
        entries.append({
            "index": sess.session_index,
            "label_v": sess.label_v,
            "future_labels": [int(v) for v in sess.future_labels],
            "radii_file": radii_name,
            "echo_file": echo_name,
            "fs": sess.echo.fs,
            "t0": sess.echo.t0,
            "session_id": sess.echo.session_id,
        })
    manifest = {
        "format_version": FORMAT_VERSION,
        "spec": asdict(spec),
        "sessions": entries,
        "checksums": checksums,
    }

    def write_manifest(tmp):
        with open(tmp, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)

    _atomic_write(os.path.join(path, "manifest.json"), write_manifest)
    return manifest


def read_dataset(path):
    """Load sessions back; verifies per-file checksums, the format tag, and
    each file's header and shape. A session file the checksums do not list
    is corrupt."""
    with open(os.path.join(path, "manifest.json")) as fh:
        manifest = json.load(fh)
    if manifest.get("format_version") != FORMAT_VERSION:
        raise VersionError(
            f"unsupported dataset format {manifest.get('format_version')!r}")
    checksums = manifest["checksums"]
    for name, digest in checksums.items():
        actual = _sha256(os.path.join(path, name))
        if actual != digest:
            raise CorruptionError(f"{name}: checksum mismatch")
    grid = manifest["spec"]["grid"]
    sessions = []
    for entry in manifest["sessions"]:
        for key in ("radii_file", "echo_file"):
            if entry[key] not in checksums:
                raise CorruptionError(f"{entry[key]}: no checksum")
        radii = hemogrid.read_radii_csv(
            os.path.join(path, entry["radii_file"]),
            s_max=grid["s_max"], cfl=grid["cfl"])
        echo = acoustics.read_echo_csv(os.path.join(path, entry["echo_file"]))
        sessions.append(LabeledSession(
            radii_truth=radii.column(0), echo=echo, label_v=entry["label_v"],
            future_labels=np.array(entry["future_labels"]),
            session_index=entry["index"]))
    return sessions
