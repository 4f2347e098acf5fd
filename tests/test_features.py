"""Stacked DoA features, mirroring and the feature cache format."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from earshot.util import config_hash, plain
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
    """Ids with a comma, quotes, a line break, a carriage return or a leading
    "#" round-trip; ids that need no quoting stay bare."""
    cfg = PipelineConfig()
    samples = [sample_stub("left", "junction,take 1", cfg, seed=1),
               sample_stub("none", 'say "hi"', cfg, seed=2),
               sample_stub("front", "#4\ntake\r2", cfg, seed=4),
               sample_stub("right", "plain", cfg, seed=3)]
    path = tmp_path / "cache.csv"
    save_features(samples, path)
    plain = samples[3]
    fields = ["plain", "right", "A", "static", repr(plain.meta.t_e)]
    fields += [repr(float(v)) for v in plain.feature.flat]
    assert path.read_text().splitlines()[-1] == ",".join(fields)

    back = load_features(path)
    assert [s.meta.recording_id for s in back] == [
        "junction,take 1", 'say "hi"', "#4\ntake\r2", "plain"]
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
    assert PipelineConfig.from_dict(plain(a)) == a


def test_window_too_short_for_segments():
    cfg = PipelineConfig(segments=24)
    with pytest.raises(ValueError):
        extract_feature(wave_clip(0.0), GEOM, cfg)


def test_segment_check_counts_the_samples_analysed():
    """0.08533 s and 0.08534 s both round to 4096 samples at 48 kHz, three
    frames for two segments: the same feature, and neither is too short."""
    clip = wave_clip(30.0, seed=2)
    short, long_ = (extract_feature(clip, GEOM, PipelineConfig(sample_len=t)).matrix
                    for t in (0.08533, 0.08534))
    assert short.tobytes() == long_.tobytes()
    with pytest.raises(ValueError, match="window too short"):
        extract_feature(clip, GEOM, PipelineConfig(sample_len=0.0853))  # 4094 samples


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


# ---------------------------------------------------------------------------
# feature caches check themselves on load


def _index(lines, prefix):
    return next(i for i, line in enumerate(lines) if line.startswith(prefix))


def _edit_config(change):
    def apply(lines):
        i = _index(lines, "# config: ")
        config = json.loads(lines[i][len("# config: "):])
        change(config)
        lines[i] = "# config: " + json.dumps(config, sort_keys=True)
    return apply


def _edit_config_and_hash(change):
    """Edit the config and write the matching config_hash, as a careful hand
    edit would."""
    def apply(lines):
        _edit_config(change)(lines)
        config = json.loads(lines[_index(lines, "# config: ")][len("# config: "):])
        lines[_index(lines, "# config_hash: ")] = "# config_hash: " + config_hash(config)
    return apply


def _garble_config(lines):
    i = _index(lines, "# config: ")
    lines[i] = lines[i][:-1]  # drop the closing brace


def _drop_line(prefix):
    def apply(lines):
        del lines[_index(lines, prefix)]
    return apply


def _rename_column(lines):
    i = _index(lines, "recording_id,")
    lines[i] = lines[i].replace(",x_0,", ",x_00,")


def _edit_row(change, message):
    """Edit the first data row; the error must name its line."""
    def apply(lines):
        i = _index(lines, "recording_id,") + 1
        fields = lines[i].split(",")  # the ids of these caches hold no commas
        change(fields)
        lines[i] = ",".join(fields)
        return f":{i + 1}: {message}"
    return apply


def _drop_rows(lines):
    """Keep the preamble and the header only; the error must name the header's line."""
    i = _index(lines, "recording_id,")
    del lines[i + 1:]
    return f":{i + 1}: no samples after the header"


def _set(index, value):
    return lambda fields: fields.__setitem__(index, value)


# One hand edit of a valid default-config cache per way it can go wrong, and
# the text its error must hold.
CACHE_EDITS = {
    "config-without-hop": (_edit_config(lambda c: c.pop("hop")), "bad config"),
    "config-unknown-key": (_edit_config(lambda c: c.update(taps=3)), "bad config"),
    "config-not-json": (_garble_config, "bad config"),
    "config-float-segments": (_edit_config_and_hash(lambda c: c.update(segments=2.0)),
                              "segments must be an integer"),
    "config-bool-hop": (_edit_config_and_hash(lambda c: c.update(hop=True)),
                        "hop must be an integer"),
    "config-nan-window": (_edit_config_and_hash(lambda c: c.update(sample_len=float("nan"))),
                          "sample_len must be finite"),
    "edited-fmax": (_edit_config(lambda c: c.update(f_max=1400.0)), "config_hash"),
    "no-config-hash": (_drop_line("# config_hash:"), "missing config preamble"),
    "no-config": (_drop_line("# config:"), "missing config preamble"),
    "header": (_rename_column, "expected header"),
    "short-row": (_edit_row(lambda f: f.pop(), "expected 65 fields, got 64"), None),
    "long-row": (_edit_row(lambda f: f.append("0.5"), "expected 65 fields, got 66"), None),
    "not-a-number": (_edit_row(_set(9, "abc"), "could not convert"), None),
    "negative-energy": (_edit_row(_set(9, "-0.5"), "feature energies must be finite"), None),
    "nan-energy": (_edit_row(_set(9, "nan"), "feature energies must be finite"), None),
    "label": (_edit_row(_set(1, "up"), "label must be one of"), None),
    "t_e": (_edit_row(_set(4, "soon"), "could not convert"), None),
    "nan-t_e": (_edit_row(_set(4, "nan"), "t_e must be finite, got nan"), None),
    "infinite-t_e": (_edit_row(_set(4, "-inf"), "t_e must be finite, got -inf"), None),
    "no-rows": (_drop_rows, None),
}


def write_edited_cache(cache_path, out_path, case):
    """Copy a default-config cache with one of the CACHE_EDITS applied; returns
    the text its error must hold."""
    lines = cache_path.read_text().splitlines()
    edit, message = CACHE_EDITS[case]
    message = edit(lines) or message
    out_path.write_text("\n".join(lines) + "\n")
    return message


@pytest.fixture(scope="module")
def cache_file(tmp_path_factory):
    cfg = PipelineConfig()
    path = tmp_path_factory.mktemp("cache") / "cache.csv"
    save_features([sample_stub(lab, f"r{i}", cfg, seed=i)
                   for i, lab in enumerate(["left", "front", "right", "none"])], path,
                  extra_header={"origin": "unit-test"})
    return path


@pytest.mark.parametrize("case", sorted(CACHE_EDITS))
def test_load_features_rejects_hand_edited_caches(tmp_path, cache_file, case):
    bad = tmp_path / f"{case}.csv"
    message = write_edited_cache(cache_file, bad, case)
    with pytest.raises(ValueError) as exc:
        load_features(bad)
    assert message in str(exc.value)


def test_a_cache_claiming_a_huge_feature_dimension_is_refused_before_allocating(tmp_path,
                                                                               cache_file):
    """A config edited to claim 10**6 feature columns, its hash recomputed,
    fails on the header's length before a name is built for each column."""
    bad = tmp_path / "huge.csv"
    lines = cache_file.read_text().splitlines()
    _edit_config_and_hash(lambda c: c.update(segments=1, bins=10**6))(lines)
    bad.write_text("\n".join(lines) + "\n")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r":\d+: expected header recording_id,label,env,"
                                             r"motion,t_e,x_0,\.\.\.,x_999999$"):
            load_features(bad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_pipeline_config_from_dict_wants_exactly_its_keys():
    full = plain(PipelineConfig())
    for bad in ({k: v for k, v in full.items() if k != "hop"}, {**full, "taps": 3},
                {**full, "bins": "30"}, [1, 2]):
        with pytest.raises(ValueError):
            PipelineConfig.from_dict(bad)


_ids = st.text(st.characters(exclude_categories=("Cs",)), max_size=12)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), segments=st.integers(1, 3), bins=st.integers(2, 8),
       n=st.integers(1, 5))
def test_feature_cache_round_trip_any_ids(tmp_path_factory, data, segments, bins, n):
    """Arbitrary recording ids (commas, quotes, line breaks, a leading #) and
    any finite non-negative energies load back exactly."""
    cfg = PipelineConfig(segments=segments, bins=bins)
    energies = st.floats(0.0, 1e300)
    samples = [
        LabeledSample(
            DoaFeature(np.array(data.draw(st.lists(energies, min_size=cfg.feature_dim,
                                                   max_size=cfg.feature_dim)))
                       .reshape(segments, bins), cfg),
            data.draw(st.sampled_from(["left", "front", "right", "none"])),
            SampleMeta(data.draw(_ids), data.draw(st.sampled_from(["A", "B"])),
                       data.draw(st.sampled_from(["static", "dynamic"])),
                       data.draw(st.floats(-1e6, 1e6))),
        )
        for _ in range(n)
    ]
    path = tmp_path_factory.mktemp("rt") / "cache.csv"
    save_features(samples, path)
    back = load_features(path)
    assert len(back) == n
    for orig, got in zip(samples, back):
        assert got.meta == orig.meta and got.label == orig.label
        assert np.array_equal(got.feature.matrix, orig.feature.matrix)
        assert got.feature.config == cfg


_line_edits = st.sampled_from(["drop", "duplicate", "truncate", "insert", "replace", "swap"])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), action=_line_edits)
def test_feature_cache_fuzz_loads_or_raises_value_error(tmp_path_factory, cache_file, data, action):
    """Any one line edit of a valid cache either loads into valid samples or
    raises ValueError (exit 4); never KeyError, IndexError or TypeError."""
    lines = cache_file.read_text().splitlines()
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    line = lines[i]
    cut = data.draw(st.integers(0, len(line)), label="cut")
    text = data.draw(st.text(st.characters(exclude_categories=("Cs",)), max_size=8), label="text")
    if action == "drop":
        del lines[i]
    elif action == "duplicate":
        lines.insert(i, line)
    elif action == "truncate":
        lines[i] = line[:cut]
    elif action == "insert":
        lines[i] = line[:cut] + text + line[cut:]
    elif action == "replace":
        lines[i] = text
    else:
        j = data.draw(st.integers(0, len(lines) - 1), label="other")
        lines[i], lines[j] = lines[j], line
    path = tmp_path_factory.mktemp("fuzz") / "cache.csv"
    path.write_text("\n".join(lines) + "\n")
    try:
        samples = load_features(path)
    except ValueError:
        return
    for s in samples:
        assert s.feature.matrix.shape == (s.feature.config.segments, s.feature.config.bins)
