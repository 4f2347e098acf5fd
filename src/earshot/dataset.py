"""Recording manifests, label extraction rules and grouped stratified folds.

A manifest row describes one recording: its WAV and geometry files, the
situation (left, right or none), the environment tag, whether the recorder was
static or moving, and the annotation times.  Extraction turns a recording into
labeled samples:

  static left/right   window ending at t0 gets the side label, and the window
                      ending 1.5 s later gets "front" (the vehicle has emerged)
  dynamic left/right  same, but anchored at tau0 + 0.5 s, where tau0 is the
                      annotated earliest-hearing time
  none                one "none" window per probe time (default: the midpoint)

Fold assignment keeps all samples of a recording together and balances class
counts greedily, so nothing from a test recording ever leaks into training.
"""

from __future__ import annotations

import csv
import io
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .audio import load_geometry, load_wav, wav_frames
from .features import LabeledSample, PipelineConfig, SampleMeta, extract_feature
from .util import write_text

FRONT_OFFSET = 1.5
DYNAMIC_OFFSET = 0.5

_MANIFEST_COLS = ["wav", "geometry", "situation", "environment", "motion", "t0", "tau0"]


@dataclass
class ManifestEntry:
    wav: str
    geometry: str
    situation: str
    environment: str = "A"
    motion: str = "static"
    t0: float | None = None
    tau0: float | None = None

    def __post_init__(self):
        if self.situation not in ("left", "right", "none"):
            raise ValueError(f"situation must be left/right/none, got {self.situation!r}")
        if self.motion not in ("static", "dynamic"):
            raise ValueError(f"motion must be static or dynamic, got {self.motion!r}")
        if self.situation != "none":
            if self.motion == "static" and self.t0 is None:
                raise ValueError(f"{self.wav}: static {self.situation} recording needs t0")
            if self.motion == "dynamic" and self.tau0 is None:
                raise ValueError(f"{self.wav}: dynamic {self.situation} recording needs tau0")

    @property
    def recording_id(self) -> str:
        return os.path.splitext(os.path.basename(self.wav))[0]


@dataclass
class RecordingManifest:
    entries: list = field(default_factory=list)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def save_manifest(manifest: RecordingManifest, path, preamble: dict | None = None) -> None:
    """Write a manifest CSV under an optional ``# key: value`` preamble.

    Fields are CSV-quoted where needed, so names may hold commas, quotes or
    line breaks.  A row whose WAV name starts with "#", or whose text holds a
    carriage return (which the minimal quoting leaves bare), has every field
    quoted.
    """
    buf = io.StringIO()
    for key, value in (preamble or {}).items():
        buf.write(f"# {key}: {value}\n")
    writer = csv.writer(buf, lineterminator="\n")
    quoted = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerow(_MANIFEST_COLS)
    for e in manifest:
        row = [
            e.wav,
            e.geometry,
            e.situation,
            e.environment,
            e.motion,
            "" if e.t0 is None else repr(float(e.t0)),
            "" if e.tau0 is None else repr(float(e.tau0)),
        ]
        bare = not e.wav.startswith("#") and "\r" not in "".join(row[:5])
        (writer if bare else quoted).writerow(row)
    write_text(path, buf.getvalue())


def load_manifest(path, check_files: bool = True) -> RecordingManifest:
    """Read a manifest CSV; relative file paths resolve against its directory.

    Comment lines are read only before the header, and the rows after it
    with the csv module, so a quoted name may start with "#" or hold a line
    break.
    """
    root = os.path.dirname(os.path.abspath(path))
    entries = []
    with open(path, newline="") as fh:
        body = fh.read()
    while body.startswith("#"):
        body = body.partition("\n")[2]
    reader = filter(None, csv.reader(io.StringIO(body)))  # blank lines carry nothing
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != _MANIFEST_COLS:
        raise ValueError(f"{path}: expected header {','.join(_MANIFEST_COLS)}")
    for row in reader:
        wav, geometry, situation, environment, motion, t0, tau0 = row
        if not os.path.isabs(wav):
            wav = os.path.join(root, wav)
        if not os.path.isabs(geometry):
            geometry = os.path.join(root, geometry)
        entry = ManifestEntry(
            wav=wav,
            geometry=geometry,
            situation=situation,
            environment=environment,
            motion=motion,
            t0=float(t0) if t0 else None,
            tau0=float(tau0) if tau0 else None,
        )
        if check_files:
            for p in (entry.wav, entry.geometry):
                if not os.path.exists(p):
                    raise FileNotFoundError(f"{path}: referenced file missing: {p}")
        entries.append(entry)
    return RecordingManifest(entries)


def extraction_times(entry: ManifestEntry, duration: float, none_probes=None):
    """The (label, t_e) pairs a recording contributes."""
    if entry.situation == "none":
        probes = [duration / 2.0] if none_probes is None else list(none_probes)
        return [("none", float(t)) for t in probes]
    anchor = entry.t0 if entry.motion == "static" else entry.tau0 + DYNAMIC_OFFSET
    return [(entry.situation, float(anchor)), ("front", float(anchor) + FRONT_OFFSET)]


def _windows(entry: ManifestEntry, sample_rate: int, n_frames: int, config: PipelineConfig):
    """(label, t_e, start, stop) of each window a recording contributes, the
    window being frames [start, stop); one that does not fit the recording is
    a ValueError."""
    duration = n_frames / sample_rate
    length = int(round(config.sample_len * sample_rate))
    windows = []
    for label, t_e in extraction_times(entry, duration):
        end = int(round(t_e * sample_rate))
        if end - length < 0 or end > n_frames:
            raise ValueError(
                f"{entry.recording_id}: window [{t_e - config.sample_len:.2f}, {t_e:.2f}] s "
                f"falls outside the {duration:.2f} s recording"
            )
        windows.append((label, t_e, end - length, end))
    return windows


def _labeled_samples(clip, first: int, windows, geometry, entry, config) -> list:
    """Features of the windows, sliced from a clip that starts at frame ``first``."""
    samples = []
    for label, t_e, start, stop in windows:
        window = clip.samples[:, start - first : stop - first]
        feature = extract_feature(type(clip)(window, clip.sample_rate), geometry, config)
        samples.append(
            LabeledSample(
                feature=feature,
                label=label,
                meta=SampleMeta(
                    recording_id=entry.recording_id,
                    environment=entry.environment,
                    motion=entry.motion,
                    t_e=t_e,
                ),
            )
        )
    return samples


def extract_samples_from_clip(clip, geometry, entry: ManifestEntry, config: PipelineConfig) -> list:
    """Labeled samples from an already-loaded recording."""
    windows = _windows(entry, clip.sample_rate, clip.n_samples, config)
    return _labeled_samples(clip, 0, windows, geometry, entry, config)


def extract_samples(entry: ManifestEntry, config: PipelineConfig) -> list:
    """Labeled samples of a manifest entry, reading from disk only the span of
    frames that its windows cover."""
    sample_rate, n_frames = wav_frames(entry.wav)
    windows = _windows(entry, sample_rate, n_frames, config)
    first = min(start for _, _, start, _ in windows)
    clip = load_wav(entry.wav, first, max(stop for *_, stop in windows))
    geometry = load_geometry(entry.geometry)
    return _labeled_samples(clip, first, windows, geometry, entry, config)


def _usable_cores() -> int:
    """CPUs this process may run on (its affinity mask, where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def extract_manifest(manifest, config: PipelineConfig) -> list:
    """Labeled samples of every manifest entry, in manifest order.

    min(usable cores, recordings) threads extract at once: the calling thread
    and one new thread per further core each take the next unclaimed entry
    until none is left.  WAV reads, FFTs and array arithmetic release the
    interpreter lock, so the threads share the cores.  Every entry goes
    through ``extract_samples`` alone, so the samples do not depend on the
    number of threads.  When entries fail, no entry is claimed after the
    failure, the threads are joined, and the error of the first failing entry
    in manifest order is raised, as a serial loop would raise it.
    """
    entries = list(manifest)
    results = [None] * len(entries)
    errors = {}
    lock = threading.Lock()
    stop = threading.Event()
    unclaimed = iter(range(len(entries)))

    def claim():
        with lock:
            return None if stop.is_set() else next(unclaimed, None)

    def work():
        while (index := claim()) is not None:
            try:
                results[index] = extract_samples(entries[index], config)
            except Exception as exc:  # re-raised by the calling thread
                with lock:
                    errors[index] = exc
                    stop.set()
                return

    helpers = [
        threading.Thread(target=work, name=f"earshot-extract-{n}")
        for n in range(1, min(_usable_cores(), len(entries)))
    ]
    for thread in helpers:
        thread.start()
    try:
        work()
    finally:
        stop.set()  # an interrupted caller leaves the helpers nothing more to claim
        for thread in helpers:
            thread.join()
    if errors:
        raise errors[min(errors)]
    return [sample for samples in results for sample in samples]


def stratified_folds(samples, k: int, seed: int = 0) -> list:
    """Split samples into k folds, grouped by recording and class-balanced.

    All samples sharing a recording id land in the same fold (mirrored
    augmented samples inherit their source's id, so they follow it).  Groups
    are assigned greedily, largest first with a seeded tie order, to the fold
    that keeps per-class counts most even.
    """
    samples = list(samples)
    if k < 2:
        raise ValueError("need at least 2 folds")
    labels = sorted({s.label for s in samples})
    for label in labels:
        count = sum(1 for s in samples if s.label == label)
        if count < k:
            raise ValueError(f"class {label!r} has {count} samples, fewer than k={k}")

    groups: dict = {}
    for s in samples:
        groups.setdefault(s.meta.recording_id, []).append(s)

    rng = np.random.default_rng(seed)
    keys = sorted(groups)
    rng.shuffle(keys)
    keys.sort(key=lambda rid: -len(groups[rid]))  # stable: keeps the shuffled tie order

    label_index = {lab: i for i, lab in enumerate(labels)}
    fold_counts = np.zeros((k, len(labels)), dtype=np.int64)
    fold_sizes = np.zeros(k, dtype=np.int64)
    folds = [[] for _ in range(k)]
    for rid in keys:
        best = None
        group_vec = np.zeros(len(labels), dtype=np.int64)
        for s in groups[rid]:
            group_vec[label_index[s.label]] += 1
        for f in range(k):
            trial = fold_counts[f] + group_vec
            # imbalance this assignment would create, per class then in total
            spread = 0
            for c in range(len(labels)):
                col = fold_counts[:, c].copy()
                col[f] += group_vec[c]
                spread += col.max() - col.min()
            key = (spread, fold_sizes[f] + len(groups[rid]), f)
            if best is None or key < best[0]:
                best = (key, f, trial)
        _, f, trial = best
        fold_counts[f] = trial
        fold_sizes[f] += len(groups[rid])
        folds[f].extend(groups[rid])
    return folds
