import hashlib
import json

import numpy as np
import pytest

from vasosim import cli, hemogrid, synthdata
from vasosim.errors import (
    ConfigurationError,
    CorruptionError,
    DomainError,
    VersionError,
)
from vasosim.hemogrid import Grid


def make_spec(model, pulse, kind="baseline", **kwargs):
    grid = Grid(nx=32, nt=50, dx=1e-3, dt=2e-6)
    fs, duration = synthdata.echo_timing(pulse, grid)
    defaults = dict(
        grid=grid, model=model, pulse=pulse, sessions=3, horizon=6, seed=11,
        fs=fs, duration=duration,
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

    def test_one_progressive_session_gets_full_severity(self, model, pulse):
        # one session is the last one, so it is the static stenosis
        [progressive], [static] = (synthdata.generate_scenario(make_spec(
            model, pulse, kind=kind, severity=0.5, sessions=1))
            for kind in ("progressive-occlusion", "static-stenosis"))
        assert np.array_equal(progressive.radii_truth, static.radii_truth)
        assert np.array_equal(progressive.echo.samples, static.echo.samples)
        assert progressive.label_v == 1

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

    @pytest.mark.parametrize("kind", ["static-stenosis",
                                      "progressive-occlusion"])
    def test_truth_matches_one_flow_run_per_session(self, model, pulse, kind):
        # the reference: each session's own solve_flow run, last column
        spec = make_spec(model, pulse, kind=kind, severity=0.5, sessions=4)
        g = spec.grid
        inlet = spec.perturbation_pa * np.sin(
            2 * np.pi * np.arange(g.nt) * g.dt / (g.nt * g.dt))
        for sess in synthdata.generate_scenario(spec):
            initial = synthdata._truth_column(
                spec, synthdata._dip_depth(spec, sess.session_index))
            radii, _ = hemogrid.solve_flow(model, g, inlet=inlet,
                                           initial_radii=initial)
            assert sess.radii_truth.tobytes() == radii.column(-1).tobytes()

    def test_radii_truth_rows_independent(self, model, pulse):
        spec = make_spec(model, pulse, kind="progressive-occlusion",
                         severity=0.5)
        truths = [s.radii_truth for s in synthdata.generate_scenario(spec)]
        for i, a in enumerate(truths):
            assert not a.flags.writeable
            assert a.base is None or not a.base.flags.writeable
            for b in truths[i + 1:]:
                assert not np.shares_memory(a, b)

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
        with pytest.raises(DomainError):
            make_spec(model, pulse, noise_rms=-0.1)
        with pytest.raises(DomainError):
            make_spec(model, pulse, stenosis_width=0.0)


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

    @pytest.mark.parametrize("key", ["radii_file", "echo_file"])
    def test_unlisted_session_file_detected(self, model, pulse, tmp_path,
                                            key):
        # session 1 points at an altered copy that no checksum covers
        self.make_dataset(model, pulse, tmp_path)
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        entry = manifest["sessions"][1]
        copy = tmp_path / ("copy_" + entry[key])
        data = bytearray((tmp_path / entry[key]).read_bytes())
        data[len(data) // 2] ^= 0x01
        copy.write_bytes(bytes(data))
        entry[key] = copy.name
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CorruptionError, match=copy.name):
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


# The same for the default config (no INI: three progressive-occlusion
# sessions, nx=64, nt=200) and seed 0, recorded before gen-data ran all
# sessions as one flow.
DEFAULT_DIGESTS = {
    "manifest.json":
        "7a2de0f64ff573a6361e79c9dc6fec009a7ffb54dfac5175d252146dec174f0b",
    "session_0000_echo.csv":
        "7d1bbc18c80b26b7d0cd3418667fb51c70f3d428d182eb8afeb3cd6e4f9667c3",
    "session_0000_radii.csv":
        "1959a273f1fc8f3939b876a5010c393e6a5b0989650dfdce888b1e8c0e86966f",
    "session_0001_echo.csv":
        "04f3cf66f540499a89404078eff612624735c9b6b1124ed0119670e6cf560f9b",
    "session_0001_radii.csv":
        "418af99822e79183f3532a715ffe9612b998958ef40cf961401f0a17be8325b3",
    "session_0002_echo.csv":
        "c5de02e4110860aff8671e1c48847549683a2c171c96d06458aeb6704bfa7d24",
    "session_0002_radii.csv":
        "21f7c76826b2077aaf4ac68c2694eee7ca4fa5cae07467289f9084a13535c49d",
}


def test_gen_data_default_bytes_pinned(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.DEFAULT_CONFIG_ENV, raising=False)
    cli.cmd_gen_data(cli.load_config(None), tmp_path, seed=0)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert digests == DEFAULT_DIGESTS
