"""Manifest files, labeled-sample extraction times and fold assignment."""

import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from earshot.audio import AudioClip, write_wav
from earshot.dataset import (
    ManifestEntry,
    RecordingManifest,
    extract_samples,
    extract_samples_from_clip,
    extraction_times,
    load_manifest,
    save_manifest,
    stratified_folds,
)
from earshot.features import DoaFeature, LabeledSample, PipelineConfig, SampleMeta
from earshot.synth import random_planar_array
from earshot.audio import save_geometry


def entry(situation="right", motion="static", t0=8.0, tau0=None, wav="r.wav"):
    return ManifestEntry(wav=wav, geometry="g.json", situation=situation,
                         motion=motion, t0=t0, tau0=tau0)


def stub(label, rid, seed=0):
    cfg = PipelineConfig()
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(0, 1, size=(cfg.segments, cfg.bins))
    return LabeledSample(DoaFeature(matrix, cfg), label, SampleMeta(rid))


def test_extraction_times_static():
    got = extraction_times(entry("right", t0=8.0), duration=12.0)
    assert got == [("right", 8.0), ("front", 9.5)]


def test_extraction_times_dynamic():
    got = extraction_times(entry("left", motion="dynamic", t0=None, tau0=6.0),
                           duration=12.0)
    assert got == [("left", 6.5), ("front", 8.0)]


def test_extraction_times_none():
    e = ManifestEntry(wav="n.wav", geometry="g.json", situation="none")
    assert extraction_times(e, duration=10.0) == [("none", 5.0)]
    assert extraction_times(e, duration=10.0, none_probes=[2.0, 9.0]) == [
        ("none", 2.0),
        ("none", 9.0),
    ]


def test_manifest_entry_validation():
    with pytest.raises(ValueError):
        entry(situation="behind")
    with pytest.raises(ValueError):
        entry(motion="parked")
    with pytest.raises(ValueError):
        entry("left", t0=None)  # static side recording needs t0
    with pytest.raises(ValueError):
        entry("right", motion="dynamic", t0=None, tau0=None)
    ManifestEntry(wav="n.wav", geometry="g.json", situation="none")  # fine


def test_recording_id_is_wav_stem():
    e = entry(wav="/data/run3/A_left_004.wav")
    assert e.recording_id == "A_left_004"


def test_manifest_round_trip(tmp_path):
    geom = random_planar_array(3, seed=0)
    save_geometry(geom, tmp_path / "g.json")
    clip = AudioClip(np.zeros((3, 100)), 48000)
    write_wav(clip, tmp_path / "a.wav")
    write_wav(clip, tmp_path / "b.wav")
    manifest = RecordingManifest([
        entry("left", t0=4.25, wav="a.wav"),
        ManifestEntry(wav="b.wav", geometry="g.json", situation="none",
                      environment="B"),
    ])
    path = tmp_path / "manifest.csv"
    save_manifest(manifest, path, preamble={"seed": 7})
    assert path.read_text().startswith("# seed: 7\n")

    back = load_manifest(path)
    assert len(back) == 2
    first = back.entries[0]
    assert first.situation == "left" and first.t0 == 4.25 and first.tau0 is None
    # relative paths resolve against the manifest directory
    assert first.wav == str(tmp_path / "a.wav")
    assert back.entries[1].environment == "B"


# Single-line file names: any printable text, commas, quotes, spaces, a
# leading "#" and non-ASCII included.
_names = st.text(st.characters(exclude_categories=("Cs", "Cc")), min_size=1, max_size=12)
_times = st.one_of(st.none(), st.floats(0.0, 1e4), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _entries(draw):
    situation = draw(st.sampled_from(["left", "right", "none"]))
    motion = draw(st.sampled_from(["static", "dynamic"]))
    t0, tau0 = draw(_times), draw(_times)
    if situation != "none":  # the annotation the entry needs must be present
        if motion == "static" and t0 is None:
            t0 = draw(st.floats(0.0, 1e4))
        if motion == "dynamic" and tau0 is None:
            tau0 = draw(st.floats(0.0, 1e4))
    return ManifestEntry(wav=draw(_names) + ".wav", geometry=draw(_names) + ".json",
                         situation=situation, environment=draw(_names), motion=motion,
                         t0=t0, tau0=tau0)


@settings(max_examples=100, deadline=None)
@given(entries=st.lists(_entries(), min_size=1, max_size=4))
@example(entries=[ManifestEntry(wav="#2 take é.wav", geometry="g.json", situation="none"),
                  ManifestEntry(wav='a, "b".wav', geometry="#g.json", situation="left", t0=4.5)])
def test_manifest_round_trip_any_names(tmp_path_factory, entries):
    """save_manifest then load_manifest(check_files=False) gives back every
    field; relative names resolve against the manifest's directory."""
    path = tmp_path_factory.mktemp("m") / "manifest.csv"
    save_manifest(RecordingManifest(entries), path, preamble={"seed": 3})
    back = load_manifest(path, check_files=False).entries
    root = os.path.dirname(os.path.abspath(path))
    assert len(back) == len(entries)
    for orig, got in zip(entries, back):
        assert got.wav == os.path.join(root, orig.wav)
        assert got.geometry == os.path.join(root, orig.geometry)
        assert (got.situation, got.environment, got.motion) == (
            orig.situation, orig.environment, orig.motion)
        assert (got.t0, got.tau0) == (orig.t0, orig.tau0)


def test_manifest_checks_referenced_files(tmp_path):
    path = tmp_path / "m.csv"
    save_manifest(RecordingManifest([entry(wav="gone.wav")]), path)
    with pytest.raises(FileNotFoundError):
        load_manifest(path)
    back = load_manifest(path, check_files=False)
    assert back.entries[0].recording_id == "gone"


def test_manifest_rejects_foreign_header(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("file,label\nx.wav,left\n")
    with pytest.raises(ValueError, match="header"):
        load_manifest(path)


def test_extract_window_bounds(tmp_path):
    geom = random_planar_array(3, seed=1)
    clip = AudioClip(np.random.default_rng(0).standard_normal((3, 48000 * 3)), 48000)
    cfg = PipelineConfig()
    with pytest.raises(ValueError, match="outside"):
        # front sample at t0 + 1.5 = 3.5 s exceeds the 3 s clip
        extract_samples_from_clip(clip, geom, entry("right", t0=2.0), cfg)
    with pytest.raises(ValueError, match="outside"):
        extract_samples_from_clip(clip, geom, entry("right", t0=0.5), cfg)


def test_extract_samples_from_benchmark(bench_manifest, default_config):
    side = next(e for e in bench_manifest if e.situation == "right")
    samples = extract_samples(side, default_config)
    assert [s.label for s in samples] == ["right", "front"]
    assert samples[0].meta.t_e == side.t0
    assert samples[1].meta.t_e == side.t0 + 1.5
    assert all(s.meta.recording_id == side.recording_id for s in samples)
    assert all(s.feature.matrix.shape == (2, 30) for s in samples)

    quiet = next(e for e in bench_manifest if e.situation == "none")
    only = extract_samples(quiet, default_config)
    assert [s.label for s in only] == ["none"]


def test_folds_balanced_20_per_class():
    samples = [stub(lab, f"{lab}{i}", seed=i)
               for lab in ("left", "front", "right", "none") for i in range(20)]
    folds = stratified_folds(samples, k=5, seed=3)
    for fold in folds:
        for lab in ("left", "front", "right", "none"):
            assert sum(1 for s in fold if s.label == lab) == 4


def test_folds_remainder_spread():
    samples = [stub("left", f"l{i}", seed=i) for i in range(21)]
    samples += [stub("front", f"f{i}", seed=100 + i) for i in range(21)]
    folds = stratified_folds(samples, k=5, seed=0)
    per_fold = sorted(sum(1 for s in f if s.label == "left") for f in folds)
    assert per_fold == [4, 4, 4, 4, 5]


def test_folds_keep_recordings_together():
    samples = []
    for i in range(15):
        rid = f"rec{i}"
        samples.append(stub("left", rid, seed=i))
        samples.append(stub("front", rid, seed=50 + i))
    folds = stratified_folds(samples, k=5, seed=1)
    for fold in folds:
        rids = {s.meta.recording_id for s in fold}
        for other in folds:
            if other is not fold:
                assert rids.isdisjoint({s.meta.recording_id for s in other})
    assert sum(len(f) for f in folds) == len(samples)


def test_folds_deterministic():
    samples = [stub(lab, f"{lab}{i}", seed=i)
               for lab in ("left", "right") for i in range(10)]
    a = stratified_folds(samples, k=5, seed=9)
    b = stratified_folds(samples, k=5, seed=9)
    assert [[s.meta.recording_id for s in f] for f in a] == [
        [s.meta.recording_id for s in f] for f in b
    ]


def test_folds_errors():
    samples = [stub("left", f"l{i}", seed=i) for i in range(3)]
    with pytest.raises(ValueError, match="fewer than"):
        stratified_folds(samples, k=5)
    with pytest.raises(ValueError):
        stratified_folds(samples, k=1)
