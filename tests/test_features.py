"""Stacked DoA features, mirroring and the feature cache format."""

import numpy as np
import pytest

from earshot.audio import AudioClip
from earshot.features import (
    DoaFeature,
    LabeledSample,
    PipelineConfig,
    SampleMeta,
    augment_training_set,
    extract_feature,
    load_features,
    mirror,
    save_features,
)
from earshot.synth import random_planar_array
from synthref import render_plane_wave

GEOM = random_planar_array(6, seed=4)


def wave_clip(azimuth, seed=0, duration=1.0, fs=48000):
    return AudioClip(render_plane_wave(GEOM, azimuth, duration, fs, seed), fs)


def sample_stub(label, rid, config, seed=0):
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(0.0, 1.0, size=(config.segments, config.bins))
    return LabeledSample(DoaFeature(matrix, config), label, SampleMeta(rid))


def test_reference_dimensions():
    cfg = PipelineConfig()
    feature = extract_feature(wave_clip(12.0), GEOM, cfg)
    assert feature.matrix.shape == (2, 30)
    assert feature.flat.shape == (60,)
    assert cfg.feature_dim == 60
    assert np.all(feature.matrix >= 0.0)


def test_single_segment_config():
    cfg = PipelineConfig(segments=1)
    feature = extract_feature(wave_clip(-40.0, seed=5), GEOM, cfg)
    assert feature.matrix.shape == (1, 30)


def test_stationary_source_gives_similar_rows():
    feature = extract_feature(wave_clip(25.0, seed=7), GEOM, PipelineConfig())
    a, b = feature.matrix
    cos = np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
    assert cos > 0.99
    assert abs(int(np.argmax(a)) - int(np.argmax(b))) <= 1


def test_rows_run_oldest_to_newest():
    """First half from the left, second half from the right: row order shows."""
    fs = 48000
    early = render_plane_wave(GEOM, -60.0, 0.5, fs, seed=1)
    late = render_plane_wave(GEOM, 60.0, 0.5, fs, seed=2)
    clip = AudioClip(np.concatenate([early, late], axis=1), fs)
    feature = extract_feature(clip, GEOM, PipelineConfig())
    centers = PipelineConfig().grid.bin_centers
    assert centers[int(np.argmax(feature.matrix[0]))] < 0
    assert centers[int(np.argmax(feature.matrix[1]))] > 0


def test_gain_invariance():
    clip = wave_clip(30.0, seed=3)
    cfg = PipelineConfig()
    ref = extract_feature(clip, GEOM, cfg).matrix
    for gamma in (0.1, 10.0):
        scaled = AudioClip(gamma * clip.samples, clip.sample_rate)
        got = extract_feature(scaled, GEOM, cfg).matrix
        assert np.allclose(got, ref, rtol=1e-6, atol=1e-12)


def test_geometry_mirror_reverses_rows():
    clip = wave_clip(-35.0, seed=9)
    cfg = PipelineConfig()
    normal = extract_feature(clip, GEOM, cfg).matrix
    flipped = extract_feature(clip, GEOM.mirrored_x(), cfg).matrix
    assert np.allclose(flipped, normal[:, ::-1], rtol=1e-5, atol=1e-12)


def test_mirror_sample():
    cfg = PipelineConfig()
    sample = sample_stub("left", "rec1", cfg)
    m = mirror(sample)
    assert m.label == "right"
    assert m.meta.augmented is True
    assert m.meta.recording_id == "rec1"
    assert np.array_equal(m.feature.matrix, sample.feature.matrix[:, ::-1])
    # involution on the payload
    back = mirror(m)
    assert back.label == "left"
    assert np.array_equal(back.feature.matrix, sample.feature.matrix)
    assert mirror(sample_stub("front", "r", cfg)).label == "front"
    assert mirror(sample_stub("none", "r", cfg)).label == "none"


@pytest.mark.parametrize(
    "counts,expected",
    [
        ({"left": 10, "front": 20, "right": 12, "none": 20},
         {"left": 22, "front": 20, "right": 22, "none": 20}),
        ({"left": 103, "front": 212, "right": 109, "none": 199},
         {"left": 212, "front": 212, "right": 212, "none": 199}),
    ],
)
def test_augment_counts(counts, expected):
    cfg = PipelineConfig(frame_len=4, hop=2, bins=4, f_max=1000.0)
    samples = []
    i = 0
    for label, n in counts.items():
        for _ in range(n):
            samples.append(sample_stub(label, f"r{i}", cfg, seed=i))
            i += 1
    out = augment_training_set(samples)
    got = {label: sum(1 for s in out if s.label == label) for label in counts}
    assert got == expected
    assert sum(1 for s in out if s.meta.augmented) == counts["left"] + counts["right"]
    # originals come first, untouched
    assert out[: len(samples)] == samples


def test_augment_empty():
    assert augment_training_set([]) == []


def test_feature_cache_round_trip(tmp_path):
    cfg = PipelineConfig()
    samples = [
        sample_stub("left", "a", cfg, seed=1),
        sample_stub("front", "b", cfg, seed=2),
        sample_stub("none", "c", cfg, seed=3),
    ]
    samples[1].meta = SampleMeta("b", environment="B", motion="dynamic", t_e=6.5)
    path = tmp_path / "cache.csv"
    save_features(samples, path, extra_header={"origin": "unit-test"})
    text = path.read_text()
    assert text.startswith("# config:")
    assert "# config_hash:" in text
    assert "# origin: unit-test" in text

    back = load_features(path)
    assert len(back) == 3
    for orig, got in zip(samples, back):
        assert got.label == orig.label
        assert got.meta.recording_id == orig.meta.recording_id
        assert got.meta.environment == orig.meta.environment
        assert got.meta.motion == orig.meta.motion
        assert got.meta.t_e == orig.meta.t_e
        assert np.array_equal(got.feature.matrix, orig.feature.matrix)
        assert got.feature.config == cfg


def test_feature_cache_quotes_recording_ids(tmp_path):
    """An id with a comma round-trips; ids that need no quoting stay bare."""
    cfg = PipelineConfig()
    samples = [sample_stub("left", "junction,take 1", cfg, seed=1),
               sample_stub("none", 'say "hi"', cfg, seed=2),
               sample_stub("right", "plain", cfg, seed=3)]
    path = tmp_path / "cache.csv"
    save_features(samples, path)
    plain = samples[2]
    fields = ["plain", "right", "A", "static", repr(plain.meta.t_e)]
    fields += [repr(float(v)) for v in plain.feature.flat]
    assert path.read_text().splitlines()[-1] == ",".join(fields)

    back = load_features(path)
    assert [s.meta.recording_id for s in back] == ["junction,take 1", 'say "hi"', "plain"]
    for orig, got in zip(samples, back):
        assert np.array_equal(got.feature.matrix, orig.feature.matrix)


def test_feature_cache_rejects_bad_input(tmp_path):
    cfg = PipelineConfig()
    with pytest.raises(ValueError):
        save_features([], tmp_path / "x.csv")
    mixed = [
        sample_stub("left", "a", cfg),
        sample_stub("left", "b", PipelineConfig(bins=10)),
    ]
    with pytest.raises(ValueError):
        save_features(mixed, tmp_path / "x.csv")

    headless = tmp_path / "headless.csv"
    lines = ["recording_id,label,env,motion,t_e,x_0", "a,left,A,static,0.0,1.0"]
    headless.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="config"):
        load_features(headless)


def test_feature_validation():
    cfg = PipelineConfig()
    with pytest.raises(ValueError):
        DoaFeature(np.zeros((3, 30)), cfg)  # wrong row count
    with pytest.raises(ValueError):
        DoaFeature(-np.ones((2, 30)), cfg)  # negative energy
    with pytest.raises(ValueError):
        LabeledSample(DoaFeature(np.zeros((2, 30)), cfg), "up", SampleMeta("r"))


def test_config_validation_and_hash():
    with pytest.raises(ValueError):
        PipelineConfig(sample_len=0.0)
    with pytest.raises(ValueError):
        PipelineConfig(segments=0)
    with pytest.raises(ValueError):
        PipelineConfig(f_min=200.0, f_max=100.0)
    with pytest.raises(ValueError):
        PipelineConfig(frame_len=1023)
    a, b = PipelineConfig(), PipelineConfig()
    assert a.hash == b.hash and len(a.hash) == 12
    assert PipelineConfig(bins=10).hash != a.hash
    assert PipelineConfig.from_dict(a.to_dict()) == a


def test_window_too_short_for_segments():
    cfg = PipelineConfig(segments=24)
    with pytest.raises(ValueError):
        extract_feature(wave_clip(0.0), GEOM, cfg)


def test_features_of_a_window_view_match_a_contiguous_copy():
    """Windows are views of the recording: strided rows give the same feature
    bytes as a contiguous copy, and analysis leaves the recording unchanged."""
    cfg = PipelineConfig()
    recording = wave_clip(20.0, seed=6, duration=2.5)
    before = recording.samples.copy()
    fs = recording.sample_rate
    middle = AudioClip(recording.samples[:, fs // 2 : fs // 2 + fs], fs)
    assert np.shares_memory(middle.samples, recording.samples)
    for window in (middle, recording):
        copy = AudioClip(window.samples[:, -fs:].copy(), fs)
        got = extract_feature(window, GEOM, cfg).matrix
        assert np.array_equal(got, extract_feature(copy, GEOM, cfg).matrix)
    assert np.array_equal(recording.samples, before)
