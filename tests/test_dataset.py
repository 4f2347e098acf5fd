"""Manifest files, labeled-sample extraction times and fold assignment."""

import dataclasses
import os
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from earshot import cli, dataset
from earshot.audio import AudioClip, load_geometry, load_wav, wav_frames, write_wav
from earshot.dataset import (
    ManifestEntry,
    RecordingManifest,
    extract_manifest,
    extract_samples,
    extract_samples_from_clip,
    extraction_times,
    load_manifest,
    save_manifest,
    stratified_folds,
)
from earshot.features import (
    DoaFeature,
    LabeledSample,
    PipelineConfig,
    SampleMeta,
    extract_feature,
    save_features,
)
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


# File names of any text: commas, quotes, spaces, a leading "#", non-ASCII,
# line breaks, carriage returns and other control characters included.
_names = st.text(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=12)
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
@example(entries=[ManifestEntry(wav="take\n2.wav", geometry="g\r.json", situation="none",
                                environment="B\r\n"),
                  ManifestEntry(wav="#\r.wav", geometry="\x00\x1f.json", situation="right",
                                t0=1.0)])
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


def _extract_whole_file(entry, config):
    """extract_samples as it was before ranged reads: decode the whole file,
    then slice each window from it."""
    clip = load_wav(entry.wav)
    geometry = load_geometry(entry.geometry)
    samples = []
    for label, t_e in extraction_times(entry, clip.duration):
        end = int(round(t_e * clip.sample_rate))
        length = int(round(config.sample_len * clip.sample_rate))
        if end - length < 0 or end > clip.n_samples:
            raise ValueError(
                f"{entry.recording_id}: window [{t_e - config.sample_len:.2f}, {t_e:.2f}] s "
                f"falls outside the {clip.duration:.2f} s recording"
            )
        window = clip.samples[:, end - length : end]
        samples.append((label, t_e, extract_feature(AudioClip(window, clip.sample_rate),
                                                    geometry, config)))
    return samples


def _same_samples(got, want):
    assert [(s.label, s.meta.t_e) for s in got] == [(label, t_e) for label, t_e, _ in want]
    for s, (_, _, feature) in zip(got, want):
        assert s.feature.matrix.tobytes() == feature.matrix.tobytes()


def _variants(entry, sample_rate, n_frames):
    """The entry itself, a dynamic twin anchored by tau0, and a twin whose
    front window ends on the last frame."""
    out = [entry]
    if entry.situation != "none":
        out.append(dataclasses.replace(entry, motion="dynamic", t0=None, tau0=entry.t0 - 1.2))
        out.append(dataclasses.replace(entry, t0=n_frames / sample_rate - 1.5))
    return out


def test_ranged_extract_equals_the_whole_file_path(bench_manifest, bench_b_dir, default_config):
    """extract_samples reads only the span its windows cover and gives the
    features of the whole-file path bit for bit: env A and B corpora, none
    recordings, dynamic entries and a window ending on the last frame."""
    entries = list(bench_manifest) + list(load_manifest(bench_b_dir))
    assert {e.environment for e in entries} == {"A", "B"}
    assert {e.situation for e in entries} == {"left", "right", "none"}
    last_frame_windows = 0
    for base in entries:
        sample_rate, n_frames = wav_frames(base.wav)
        for e in _variants(base, sample_rate, n_frames):
            want = _extract_whole_file(e, default_config)
            _same_samples(extract_samples(e, default_config), want)
            _same_samples(extract_samples_from_clip(load_wav(e.wav), load_geometry(e.geometry),
                                                    e, default_config), want)
            last_frame_windows += int(round(want[-1][1] * sample_rate)) == n_frames
    assert last_frame_windows == sum(e.situation != "none" for e in entries)


def test_extract_reads_only_the_covered_span(bench_manifest, default_config, monkeypatch):
    reads = []

    def spy(path, start=0, stop=None):
        reads.append((start, stop))
        return load_wav(path, start, stop)

    monkeypatch.setattr(dataset, "load_wav", spy)
    for e in bench_manifest:
        sample_rate, n_frames = wav_frames(e.wav)
        length = int(round(default_config.sample_len * sample_rate))
        ends = [int(round(t_e * sample_rate)) for _, t_e in
                extraction_times(e, n_frames / sample_rate)]
        reads.clear()
        extract_samples(e, default_config)
        assert reads == [(min(ends) - length, max(ends))]
        assert max(ends) - min(ends) + length < n_frames / 2


def test_ranged_extract_keeps_the_bounds_check(bench_manifest, default_config):
    side = next(e for e in bench_manifest if e.situation == "right")
    sample_rate, n_frames = wav_frames(side.wav)
    late = dataclasses.replace(side, t0=n_frames / sample_rate - 1.4)
    early = dataclasses.replace(side, t0=0.5)
    for e in (late, early):
        with pytest.raises(ValueError, match="outside") as got:
            extract_samples(e, default_config)
        with pytest.raises(ValueError, match="outside") as want:
            _extract_whole_file(e, default_config)
        assert str(got.value) == str(want.value)


def _extract_serially(manifest, config):
    """cmd_extract's loop before extraction ran on threads."""
    samples = []
    for e in manifest:
        samples.extend(extract_samples(e, config))
    return samples


def _extract_threads_alive():
    return [t.name for t in threading.enumerate() if t.name.startswith("earshot-extract")]


@pytest.mark.parametrize("workers", [1, 2, 3, 20])
def test_parallel_extract_bytes_equal_the_serial_loop(
    tmp_path, bench_dir, bench_manifest, default_config, workers, monkeypatch
):
    """Every worker count writes the serial loop's feature cache bytes, and
    each of the min(workers, recordings) threads takes part."""
    n_threads = min(workers, len(bench_manifest))  # bench_manifest holds 12 recordings
    monkeypatch.setattr(dataset, "_usable_cores", lambda: workers)
    barrier = threading.Barrier(n_threads)
    lock, seen = threading.Lock(), set()

    def spy(e, config):
        name = threading.current_thread().name
        with lock:
            first = name not in seen
            seen.add(name)
        if first:  # hold each thread's first entry until every thread has one
            barrier.wait(timeout=60)
        return extract_samples(e, config)

    monkeypatch.setattr(dataset, "extract_samples", spy)
    argv = ["extract", bench_dir, "--out", str(tmp_path / "got.csv")]
    assert cli.main(argv) == 0
    assert len(seen) == n_threads
    assert _extract_threads_alive() == []

    monkeypatch.undo()
    serial = _extract_serially(bench_manifest, default_config)
    run = cli.resolve_run_config(cli.build_parser().parse_args(argv))
    save_features(serial, tmp_path / "want.csv", extra_header=cli._provenance(run))
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    got = extract_manifest(bench_manifest, default_config)
    assert [(s.label, s.meta) for s in got] == [(s.label, s.meta) for s in serial]


@pytest.mark.parametrize("workers", [1, 2, 3, 20])
def test_parallel_extract_names_the_first_bad_recording(
    tmp_path, bench_manifest, workers, monkeypatch, capsys
):
    """Two recordings whose windows fall outside them: exit 4 names the first
    in manifest order even when the later one fails first, and no extraction
    thread outlives the command."""
    entries = list(bench_manifest)
    first, second = 2, len(entries) - 2
    for i in (first, second):
        entries[i] = dataclasses.replace(entries[i], situation="right", t0=0.5)
    manifest = tmp_path / "manifest.csv"
    save_manifest(RecordingManifest(entries), manifest)
    monkeypatch.setattr(dataset, "_usable_cores", lambda: workers)

    def slow_first_failure(e, config):
        if e.recording_id == entries[first].recording_id:
            time.sleep(0.2)  # let the later bad recording fail first
        return extract_samples(e, config)

    monkeypatch.setattr(dataset, "extract_samples", slow_first_failure)
    assert cli.main(["extract", str(manifest), "--out", str(tmp_path / "f.csv")]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"earshot: error: {entries[first].recording_id}: window")
    assert entries[second].recording_id not in err
    assert _extract_threads_alive() == []
    assert not (tmp_path / "f.csv").exists()


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
