"""Manifest files, labeled-sample extraction times and fold assignment."""

import dataclasses
import multiprocessing
import os
import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from earshot import cli, dataset, util
from earshot.audio import AudioClip, load_geometry, load_wav, wav_frames, write_wav
from earshot.dataset import (
    ManifestEntry,
    RecordingManifest,
    extract_manifest,
    extract_samples,
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
from earshot.util import parallel_map
from earshot.audio import save_geometry

from synthref import stratified_folds_reference


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


# ---------------------------------------------------------------------------
# manifests check themselves on load, as feature caches do


def _set_field(index, value):
    def apply(fields):
        fields[index] = value
    return apply


def _foreign_header(lines):
    i = next(i for i, line in enumerate(lines) if line.startswith("wav,"))
    lines[i] = "file,label,situation,environment,motion,t0,tau0"
    return f":{i + 1}: expected header"


def _edit_first_row(change, message):
    """Edit the first data row; the error must name its line."""
    def apply(lines):
        i = next(i for i, line in enumerate(lines) if line.startswith("wav,")) + 1
        fields = lines[i].split(",")  # the names of these manifests hold no commas
        change(fields)
        lines[i] = ",".join(fields)
        return f":{i + 1}: {message}"
    return apply


# One hand edit of a valid manifest per way a row can go wrong, and the text
# its error must hold.
MANIFEST_EDITS = {
    "short-row": _edit_first_row(list.pop, "expected 7 fields, got 6"),
    "long-row": _edit_first_row(lambda f: f.append("0.5"), "expected 7 fields, got 8"),
    "bad-t0": _edit_first_row(_set_field(5, "abc"), "could not convert string to float: 'abc'"),
    "nan-t0": _edit_first_row(_set_field(5, "nan"), "t0 and tau0 must be finite"),
    "infinite-tau0": _edit_first_row(_set_field(6, "inf"), "t0 and tau0 must be finite"),
    "situation": _edit_first_row(_set_field(2, "up"), "situation must be left/right/none"),
    # the open quote swallows the rest of the file into one field
    "unterminated-quote": _edit_first_row(lambda f: f.__setitem__(0, '"' + f[0]),
                                          "expected 7 fields, got 1"),
    "huge-field": _edit_first_row(_set_field(0, "x" * 140_000 + ".wav"), "field larger than"),
    "foreign-header": _foreign_header,
}


def write_edited_manifest(manifest_path, out_path, case):
    """Copy a manifest with one of MANIFEST_EDITS applied, its names made
    absolute so the copy may live elsewhere; returns the text its error must
    hold, the copy's path included."""
    save_manifest(load_manifest(manifest_path), out_path, preamble={"seed": 202})
    lines = out_path.read_text().splitlines()
    message = MANIFEST_EDITS[case](lines)
    out_path.write_text("\n".join(lines) + "\n")
    return f"{out_path}{message}"


@pytest.mark.parametrize("case", sorted(MANIFEST_EDITS))
def test_load_manifest_rejects_hand_edited_manifests(tmp_path, bench_dir, case):
    bad = tmp_path / f"{case}.csv"
    message = write_edited_manifest(bench_dir, bad, case)
    with pytest.raises(ValueError) as exc:
        load_manifest(bad)
    assert message in str(exc.value)


@pytest.fixture(scope="module")
def manifest_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("manifest") / "manifest.csv"
    save_manifest(RecordingManifest([
        entry("left", t0=4.25, wav="a.wav"),
        entry("right", motion="dynamic", t0=None, tau0=3.5, wav='take "2", left.wav'),
        ManifestEntry(wav="#c.wav", geometry="g.json", situation="none", environment="B"),
    ]), path, preamble={"seed": 3, "run_config_hash": "0123456789ab"})
    return path


_line_edits = st.sampled_from(["drop", "duplicate", "truncate", "insert", "replace", "swap"])
# Any text, with the characters that CSV and the preamble give a meaning drawn often.
_csv_chars = st.one_of(st.sampled_from(',"\r\n#:'), st.characters(exclude_categories=("Cs",)))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), action=_line_edits)
def test_manifest_fuzz_loads_or_raises_value_error(tmp_path_factory, manifest_file, data, action):
    """Any one line edit of a valid manifest either loads into valid entries
    or raises ValueError (exit 4); never csv.Error, IndexError or TypeError."""
    lines = manifest_file.read_text().splitlines()
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    line = lines[i]
    cut = data.draw(st.integers(0, len(line)), label="cut")
    text = data.draw(st.text(_csv_chars, max_size=8), label="text")
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
    path = tmp_path_factory.mktemp("fuzz") / "manifest.csv"
    path.write_text("\n".join(lines) + "\n")
    try:
        manifest = load_manifest(path, check_files=False)
    except ValueError:
        return
    for e in manifest:
        assert isinstance(e, ManifestEntry) and e.situation in ("left", "right", "none")


def test_extract_window_bounds(tmp_path):
    geom = random_planar_array(3, seed=1)
    clip = AudioClip(np.random.default_rng(0).uniform(-0.5, 0.5, (3, 48000 * 3)), 48000)
    write_wav(clip, tmp_path / "r.wav")
    save_geometry(geom, tmp_path / "g.json")
    cfg = PipelineConfig()

    def at(t0):
        return dataclasses.replace(entry("right", t0=t0), wav=str(tmp_path / "r.wav"),
                                   geometry=str(tmp_path / "g.json"))

    with pytest.raises(ValueError, match="outside"):
        # front sample at t0 + 1.5 = 3.5 s exceeds the 3 s clip
        extract_samples(at(2.0), cfg)
    with pytest.raises(ValueError, match="outside"):
        extract_samples(at(0.5), cfg)


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


def _extract_whole_file(entry, config, channels=None):
    """extract_samples as it was before ranged reads: decode the whole file,
    keep the given channels, then slice each window from it."""
    clip = load_wav(entry.wav)
    geometry = load_geometry(entry.geometry)
    if channels is not None:
        clip, geometry = clip.channel_subset(channels), geometry.subset(channels)
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


def test_channel_subset_extract_equals_the_whole_file_path(bench_manifest, bench_b_dir,
                                                           default_config):
    """``channels`` keeps those microphones, in the given order, of the ranged
    span and of the geometry: the whole-file path on the same subset, bit for
    bit, on env A and B."""
    for e in list(bench_manifest) + list(load_manifest(bench_b_dir)):
        want = _extract_whole_file(e, default_config, [5, 0, 3])
        _same_samples(extract_samples(e, default_config, [5, 0, 3]), want)


def test_extract_names_the_files_when_channels_do_not_fit(tmp_path, bench_manifest,
                                                        default_config):
    e = next(iter(bench_manifest))
    with pytest.raises(ValueError) as got:
        extract_samples(e, default_config, [0, 8])
    assert str(got.value) == f"{e.wav}: channels [0, 8] outside its 8 channels"
    with pytest.raises(ValueError, match="outside its 8 channels"):
        extract_samples(e, default_config, [-1])
    four = tmp_path / "four.json"
    save_geometry(random_planar_array(4, seed=2), four)
    with pytest.raises(ValueError) as got:
        extract_samples(dataclasses.replace(e, geometry=str(four)), default_config)
    assert str(got.value) == f"{e.wav} has 8 channels but {four} has 4 microphones"


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
    monkeypatch.setattr(util, "_usable_cores", lambda: workers)
    barrier = threading.Barrier(n_threads)
    lock, seen = threading.Lock(), set()

    def spy(e, config, channels=None):
        name = threading.current_thread().name
        with lock:
            first = name not in seen
            seen.add(name)
        if first:  # hold each thread's first entry until every thread has one
            barrier.wait(timeout=60)
        return extract_samples(e, config, channels)

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
    monkeypatch.setattr(util, "_usable_cores", lambda: workers)

    def slow_first_failure(e, config, channels=None):
        if e.recording_id == entries[first].recording_id:
            time.sleep(0.2)  # let the later bad recording fail first
        return extract_samples(e, config, channels)

    monkeypatch.setattr(dataset, "extract_samples", slow_first_failure)
    assert cli.main(["extract", str(manifest), "--out", str(tmp_path / "f.csv")]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"earshot: error: {entries[first].recording_id}: window")
    assert entries[second].recording_id not in err
    assert _extract_threads_alive() == []
    assert not (tmp_path / "f.csv").exists()


def test_parallel_map_runs_every_index_once_under_contention(monkeypatch):
    """Eight threads on fewer cores, switching every microsecond: every index
    is claimed exactly once and its result lands in its own slot."""
    monkeypatch.setattr(util, "_usable_cores", lambda: 8)
    claimed = []

    def task(i):
        claimed.append(i)
        return i * i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = parallel_map(task, 3000, "earshot-stress")
    finally:
        sys.setswitchinterval(interval)
    assert sorted(claimed) == list(range(3000))
    assert got == [i * i for i in range(3000)]
    assert not [t for t in threading.enumerate() if t.name.startswith("earshot-stress")]


def test_parallel_map_inside_a_task_runs_on_the_task_thread(monkeypatch):
    """With four usable cores, each of four outer tasks holds its own thread
    and calls parallel_map: the inner tasks run on that thread, no inner
    thread is started, and the results are a serial loop's.  Afterwards a
    top-level call gets every core again."""
    monkeypatch.setattr(util, "_usable_cores", lambda: 4)
    barrier = threading.Barrier(4)
    started = []

    def inner(i, j):
        started.extend(t.name for t in threading.enumerate() if t.name.startswith("earshot-inner"))
        return threading.current_thread().name, 10 * i + j

    def outer(i):
        barrier.wait(timeout=60)  # one outer task per thread
        return threading.current_thread().name, parallel_map(lambda j: inner(i, j), 6,
                                                             "earshot-inner")

    got = parallel_map(outer, 4, "earshot-outer")
    assert len({name for name, _ in got}) == 4
    for i, (name, results) in enumerate(got):
        assert results == [(name, 10 * i + j) for j in range(6)]
    assert started == []

    def after(i):
        barrier.wait(timeout=60)
        return threading.current_thread().name

    names = parallel_map(after, 4, "earshot-after")
    assert len(set(names)) == 4


def _finishes(call, timeout=60):
    """call() on a fresh thread: its result, or a test failure after timeout s."""
    out = []
    # daemon: a hung pool must not hold the test run open
    thread = threading.Thread(target=lambda: out.append(call()), name="pool-test", daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "parallel_map did not return"
    return out[0]


def test_parallel_map_reuses_its_helpers(monkeypatch):
    """Fifty top-level calls on four cores leave as many threads alive as
    the first call did, and every call runs on the first call's threads:
    each call takes the idle helpers of the last."""
    monkeypatch.setattr(util, "_usable_cores", lambda: 4)
    barrier = threading.Barrier(4)

    def task(i):
        barrier.wait(timeout=60)  # every thread takes two of the eight tasks
        return threading.current_thread()

    threads = set(parallel_map(task, 8, "earshot-reuse"))
    alive = threading.active_count()
    assert len(threads) == 4
    for _ in range(49):
        assert set(parallel_map(task, 8, "earshot-reuse")) == threads
        assert threading.active_count() == alive
    assert not [t for t in threading.enumerate() if t.name.startswith("earshot-reuse")]


def test_parallel_map_callers_on_many_threads_share_the_helpers(monkeypatch):
    """Four top-level callers, 100 calls each on three cores, switching every
    microsecond: no helper is handed to two calls at once, so every call
    returns its own results, and afterwards no helper carries a call's name."""
    monkeypatch.setattr(util, "_usable_cores", lambda: 3)
    failures = []

    def caller(c):
        for k in range(100):
            got = parallel_map(lambda i: (c, k, i), 5, f"earshot-caller{c}")
            if got != [(c, k, i) for i in range(5)]:
                failures.append((c, k, got))

    callers = [threading.Thread(target=caller, args=(c,), daemon=True) for c in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in callers:
            thread.start()
        deadline = time.monotonic() + 120
        for thread in callers:
            thread.join(max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not [thread for thread in callers if thread.is_alive()], "a caller did not return"
    assert failures == []
    assert not [t for t in threading.enumerate() if t.name.startswith("earshot-caller")]


def test_parallel_map_raises_a_helpers_system_exit_and_keeps_the_helper(monkeypatch):
    """A task that raises SystemExit on a helper makes the call raise it,
    as any other failure; the helper lives on, and the next call runs on
    that same helper."""
    monkeypatch.setattr(util, "_usable_cores", lambda: 2)
    barrier = threading.Barrier(2)
    helper = []

    def task(i):
        barrier.wait(timeout=60)  # one index per thread
        if threading.current_thread().name == "earshot-exit-1":
            helper.append(threading.current_thread())
            raise SystemExit(3)
        return i

    def call():
        try:
            return parallel_map(task, 2, "earshot-exit")
        except SystemExit as exc:
            return exc

    got = _finishes(call)
    assert isinstance(got, SystemExit) and got.code == 3
    assert helper[0].is_alive() and helper[0].name == "earshot-pool"

    def thread(i):
        barrier.wait(timeout=60)
        return threading.current_thread()

    threads = _finishes(lambda: parallel_map(thread, 2, "earshot-next"))
    assert helper[0] in threads and sorted(t.name for t in threads) == [
        "earshot-pool", "pool-test"]


def _pool_in_forked_child(conn):
    conn.send(parallel_map(lambda i: i * i, 8, "earshot-fork"))
    conn.close()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_parallel_map_in_a_forked_child(monkeypatch):
    """A child forked after the pool has helpers does not wait for them:
    its own call starts its own and returns the right results."""
    monkeypatch.setattr(util, "_usable_cores", lambda: 4)
    parallel_map(lambda i: i, 8, "earshot-parent")  # the parent now has idle helpers
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_pool_in_forked_child, args=(send,))
    child.start()
    try:
        assert receive.poll(60), "the forked child's parallel_map did not return"
        assert receive.recv() == [i * i for i in range(8)]
        child.join(60)
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
            child.join()


def test_parallel_map_from_a_thread_a_task_started(monkeypatch):
    """Each task of a call starts a thread of its own that calls
    parallel_map while every helper is busy: those calls start helpers of
    their own rather than wait, and everything completes."""
    monkeypatch.setattr(util, "_usable_cores", lambda: 2)
    barrier = threading.Barrier(2)

    def task(i):
        barrier.wait(timeout=60)  # both threads of the outer call are busy
        out = []
        inner = threading.Thread(
            target=lambda: out.append(parallel_map(lambda j: 10 * i + j, 4, "earshot-spawned")))
        inner.start()
        inner.join(60)
        return out

    got = _finishes(lambda: parallel_map(task, 2, "earshot-spawner"))
    assert got == [[[10 * i + j for j in range(4)]] for i in range(2)]


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


@settings(max_examples=300, deadline=None)
@given(k=st.integers(2, 6), seed=st.integers(0, 2**32 - 1),
       recordings=st.lists(st.lists(st.sampled_from(("left", "front", "right", "none")),
                                    min_size=1, max_size=3), min_size=2, max_size=40))
def test_folds_equal_the_per_class_loop(k, seed, recordings):
    """The broadcast fold scoring picks the fold the per-choice, per-class
    loop picks, for every group."""
    feature = stub("none", "x").feature
    samples = [LabeledSample(feature, label, SampleMeta(f"r{i}"))
               for i, labels in enumerate(recordings) for label in labels]
    counts = Counter(s.label for s in samples)
    samples = [s for s in samples if counts[s.label] >= k]  # each class needs k samples
    if samples:
        got = stratified_folds(samples, k, seed)
        want = stratified_folds_reference(samples, k, seed)
        assert [[id(s) for s in f] for f in got] == [[id(s) for s in f] for f in want]
