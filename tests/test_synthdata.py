import hashlib
import json

import numpy as np
import pytest

from vasosim import cli, synthdata
from vasosim.errors import (
    ConfigurationError,
    CorruptionError,
    DomainError,
    VersionError,
)
from vasosim.hemogrid import Grid


def make_spec(model, pulse, kind="baseline", **kwargs):
    defaults = dict(
        grid=Grid(nx=32, nt=50, dx=1e-3, dt=2e-6),
        model=model, pulse=pulse, sessions=3, horizon=6, seed=11,
    )
    if kind != "baseline":
        defaults.update(stenosis_center=16, stenosis_width=2.0)
    defaults.update(kwargs)
    return synthdata.ScenarioSpec(kind=kind, **defaults)


class TestGenerateScenario:
    def test_deterministic(self, model, pulse):
        spec = make_spec(model, pulse, kind="progressive-occlusion",
                         severity=0.5, noise_rms=0.05)
        a = synthdata.generate_scenario(spec)
        b = synthdata.generate_scenario(spec)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.radii_truth, sb.radii_truth)
            assert np.array_equal(sa.echo.samples, sb.echo.samples)
            assert sa.label_v == sb.label_v
            assert np.array_equal(sa.future_labels, sb.future_labels)

    def test_baseline_all_negative(self, model, pulse):
        spec = make_spec(model, pulse, noise_rms=0.02)
        for sess in synthdata.generate_scenario(spec):
            assert sess.label_v == 0
            assert np.all(sess.future_labels == 0)

    def test_baseline_echo_is_noise_scale(self, model, pulse):
        # uniform geometry reflects nothing, so the trace is pure noise at
        # the fallback scale of 1% of the incident amplitude
        # no flow perturbation: geometry stays exactly uniform, the clean
        # echo is identically zero, and noise falls back to 1% of the
        # incident amplitude; long trace so the RMS concentrates
        spec = make_spec(model, pulse, noise_rms=1.0, sessions=1,
                         duration=2e-3, perturbation_pa=0.0)
        sess = synthdata.generate_scenario(spec)[0]
        rms = np.sqrt(np.mean(sess.echo.samples**2))
        assert rms == pytest.approx(0.01 * pulse.amp_forward, rel=0.1)

    def test_static_stenosis_label(self, model, pulse):
        spec = make_spec(model, pulse, kind="static-stenosis", severity=0.5)
        for sess in synthdata.generate_scenario(spec):
            assert sess.label_v == 1
            assert np.min(sess.radii_truth) < 0.6 * model.r0

    def test_mild_static_stenosis_unlabeled(self, model, pulse):
        spec = make_spec(model, pulse, kind="static-stenosis", severity=0.2)
        for sess in synthdata.generate_scenario(spec):
            assert sess.label_v == 0

    def test_progressive_depth_increases(self, model, pulse):
        spec = make_spec(model, pulse, kind="progressive-occlusion",
                         severity=0.6, sessions=4)
        sessions = synthdata.generate_scenario(spec)
        minima = [np.min(s.radii_truth) for s in sessions]
        assert all(a > b for a, b in zip(minima, minima[1:]))
        # first session starts healthy, last one has crossed the threshold
        assert sessions[0].label_v == 0
        assert sessions[-1].label_v == 1

    def test_progressive_future_labels_extrapolate(self, model, pulse):
        spec = make_spec(model, pulse, kind="progressive-occlusion",
                         severity=0.6, sessions=4, horizon=6)
        first = synthdata.generate_scenario(spec)[0]
        # depth grows 0.2 per step from 0; ratio 1 - depth crosses 0.6
        # strictly after step 2
        assert list(first.future_labels) == [0, 0, 1, 1, 1, 1]

    def test_labels_match_threshold_recomputation(self, model, pulse):
        spec = make_spec(model, pulse, kind="progressive-occlusion",
                         severity=0.7, sessions=5)
        for sess in synthdata.generate_scenario(spec):
            expected = int(np.min(sess.radii_truth) / model.r0
                           < spec.occlusion_threshold)
            assert sess.label_v == expected

    def test_noise_calibrated_to_clean_rms(self, model, pulse):
        target = 0.1
        noisy_spec = make_spec(model, pulse, kind="static-stenosis",
                               severity=0.4, noise_rms=target, sessions=1,
                               duration=2e-3)
        clean_spec = make_spec(model, pulse, kind="static-stenosis",
                               severity=0.4, noise_rms=0.0, sessions=1,
                               duration=2e-3)
        noisy = synthdata.generate_scenario(noisy_spec)[0]
        clean = synthdata.generate_scenario(clean_spec)[0]
        clean_rms = np.sqrt(np.mean(clean.echo.samples**2))
        noise_rms = np.sqrt(np.mean((noisy.echo.samples
                                     - clean.echo.samples)**2))
        assert noise_rms / clean_rms == pytest.approx(target, rel=0.05)

    def test_invalid_specs(self, model, pulse):
        with pytest.raises(DomainError):
            make_spec(model, pulse, kind="no-such-kind")
        with pytest.raises(DomainError):
            make_spec(model, pulse, severity=1.5)
        with pytest.raises(DomainError):
            make_spec(model, pulse, kind="static-stenosis", severity=0.5,
                      stenosis_center=2)  # dip spills past the boundary
        with pytest.raises(DomainError):
            make_spec(model, pulse, sessions=0)


class TestDatasetIO:
    def make_dataset(self, model, pulse, path, **kwargs):
        spec = make_spec(model, pulse, kind="progressive-occlusion",
                         severity=0.5, noise_rms=0.05, **kwargs)
        sessions = synthdata.generate_scenario(spec)
        manifest = synthdata.write_dataset(sessions, path, spec)
        return spec, sessions, manifest

    def test_round_trip(self, model, pulse, tmp_path):
        spec, sessions, _ = self.make_dataset(model, pulse, tmp_path)
        loaded = synthdata.read_dataset(tmp_path)
        assert len(loaded) == len(sessions)
        for orig, back in zip(sessions, loaded):
            assert np.array_equal(orig.radii_truth, back.radii_truth)
            assert np.array_equal(orig.echo.samples, back.echo.samples)
            assert orig.echo.fs == back.echo.fs
            assert orig.label_v == back.label_v
            assert np.array_equal(orig.future_labels, back.future_labels)

    def test_manifest_checksums_cover_all_files(self, model, pulse, tmp_path):
        _, sessions, manifest = self.make_dataset(model, pulse, tmp_path)
        assert manifest["format_version"] == synthdata.FORMAT_VERSION
        assert len(manifest["checksums"]) == 2 * len(sessions)

    def test_corruption_detected(self, model, pulse, tmp_path):
        self.make_dataset(model, pulse, tmp_path)
        victim = next(tmp_path.glob("session_*_echo.csv"))
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] ^= 0x01
        victim.write_bytes(bytes(data))
        with pytest.raises(CorruptionError):
            synthdata.read_dataset(tmp_path)

    def test_future_version_rejected(self, model, pulse, tmp_path):
        self.make_dataset(model, pulse, tmp_path)
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = synthdata.FORMAT_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(VersionError):
            synthdata.read_dataset(tmp_path)

    def test_write_is_deterministic(self, model, pulse, tmp_path):
        _, _, m1 = self.make_dataset(model, pulse, tmp_path / "a")
        _, _, m2 = self.make_dataset(model, pulse, tmp_path / "b")
        assert (tmp_path / "a" / "manifest.json").read_bytes() \
            == (tmp_path / "b" / "manifest.json").read_bytes()
        assert m1 == m2

    def test_wrong_length_radii_row_rejected(self, model, pulse, tmp_path):
        self.make_dataset(model, pulse, tmp_path)
        victim = tmp_path / "session_0000_radii.csv"
        header, row = victim.read_text().splitlines()
        victim.write_text(header + "\n" + row.rsplit(",", 1)[0] + "\n")
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["checksums"][victim.name] = hashlib.sha256(
            victim.read_bytes()).hexdigest()
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ConfigurationError):
            synthdata.read_dataset(tmp_path)


# SHA-256 of every file gen-data writes for PINNED_OVERRIDES and seed 3,
# recorded with numpy 2.4 on x86-64. A mismatch means the dataset bytes
# changed; a deliberate format change bumps FORMAT_VERSION and these.
PINNED_OVERRIDES = {
    ("grid", "nx"): "16", ("grid", "nt"): "20",
    ("scenario", "sessions"): "2", ("scenario", "stenosis_center"): "8",
    ("scenario", "stenosis_width"): "2.0", ("risk", "horizon"): "4",
}
PINNED_DIGESTS = {
    "manifest.json":
        "4da94721912aeb7ed2dafade5c300f2ee2e427df560b30c6ca2721342bd16dd1",
    "session_0000_echo.csv":
        "ae0b132a0217c790f1119025e4c7c5c43667a8c607002faa04940c91cc58a9e3",
    "session_0000_radii.csv":
        "4a9eae1282c1a048cd31d272ce5424dc9291f0339a869a6670c6b7b4718a6849",
    "session_0001_echo.csv":
        "1bcb9d0f347aa889f3ffc55e58ded2e58df26418c7eb0827607d095db759110d",
    "session_0001_radii.csv":
        "8c78d1a96a33338193f1794dbc83cc4083beb6548169fd4d38a3b24f0e2ee79c",
}


def test_gen_data_bytes_pinned(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.DEFAULT_CONFIG_ENV, raising=False)
    cfg = cli.load_config(None, overrides=PINNED_OVERRIDES)
    cli.cmd_gen_data(cfg, tmp_path, seed=3)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert digests == PINNED_DIGESTS
