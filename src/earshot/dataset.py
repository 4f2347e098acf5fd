"""Recording manifests, label extraction rules and grouped stratified folds.

A manifest row describes one recording: its WAV and geometry files, the
situation (left, right or none), the environment tag, whether the recorder was
static or moving, and the annotation times.  Extraction turns a recording into
labeled samples:

  static left/right   window ending at t0 gets the side label, and the window
                      ending 1.5 s later gets "front" (the vehicle has emerged)
  dynamic left/right  same, but anchored at tau0 + 0.5 s, where tau0 is the
                      annotated earliest-hearing time
  none                one "none" window, ending at the recording's midpoint

Fold assignment keeps all samples of a recording together and balances class
counts greedily, so nothing from a test recording ever leaks into training.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .audio import AudioClip, check_mic_count, load_geometry, load_wav, wav_frames
from .features import LabeledSample, PipelineConfig, SampleMeta, extract_feature
from .util import csv_text, parallel_map, read_csv, write_text

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
        if not all(t is None or np.isfinite(t) for t in (self.t0, self.tau0)):
            raise ValueError(f"t0 and tau0 must be finite, got {self.t0!r} and {self.tau0!r}")
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
    """Write a manifest CSV (format: ``util.csv_text``) under an optional
    ``# key: value`` preamble."""
    rows = (
        [e.wav, e.geometry, e.situation, e.environment, e.motion]
        + ["" if t is None else repr(float(t)) for t in (e.t0, e.tau0)]
        for e in manifest
    )
    write_text(path, csv_text(preamble or {}, _MANIFEST_COLS, rows))


def load_manifest(path, check_files: bool = True) -> RecordingManifest:
    """Read a manifest CSV; relative file paths resolve against its directory.

    A foreign header, a row without one field per column, or a field that
    does not parse is a ValueError that names the line at fault.
    """
    root = os.path.dirname(os.path.abspath(path))
    _, rows = read_csv(path)
    at, header = rows[0]
    if [h.strip() for h in header] != _MANIFEST_COLS:
        raise ValueError(f"{path}:{at}: expected header {','.join(_MANIFEST_COLS)}")
    entries = []
    for at, row in rows[1:]:
        try:
            if len(row) != len(_MANIFEST_COLS):
                raise ValueError(f"expected {len(_MANIFEST_COLS)} fields, got {len(row)}")
            wav, geometry, situation, environment, motion, t0, tau0 = row
            entry = ManifestEntry(os.path.join(root, wav), os.path.join(root, geometry),
                                  situation, environment, motion,
                                  float(t0) if t0 else None, float(tau0) if tau0 else None)
        except ValueError as exc:
            raise ValueError(f"{path}:{at}: {exc}") from None
        if check_files:
            for p in (entry.wav, entry.geometry):
                if not os.path.exists(p):
                    raise FileNotFoundError(f"{path}: referenced file missing: {p}")
        entries.append(entry)
    return RecordingManifest(entries)


def extraction_times(entry: ManifestEntry, duration: float):
    """The (label, t_e) pairs a recording contributes."""
    if entry.situation == "none":
        return [("none", float(duration / 2.0))]
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


def extract_samples(entry: ManifestEntry, config: PipelineConfig, channels=None) -> list:
    """Labeled samples of a manifest entry, reading from disk only the span of
    frames that its windows cover.

    ``channels`` keeps only those microphones, in the given order, of both
    the recording and its geometry; None keeps them all.  A recording whose
    channel count is not the geometry's microphone count, or a channel the
    recording lacks, is a ValueError that names the files; so is a window
    whose feature cannot be computed, which is named by its t_e.
    """
    sample_rate, n_frames = wav_frames(entry.wav)
    windows = _windows(entry, sample_rate, n_frames, config)
    first = min(start for _, _, start, _ in windows)
    clip = load_wav(entry.wav, first, max(stop for *_, stop in windows))
    geometry = load_geometry(entry.geometry)
    check_mic_count(clip, geometry, entry.wav, entry.geometry)
    if channels is not None:
        if not all(0 <= c < clip.channels for c in channels):
            raise ValueError(f"{entry.wav}: channels {list(channels)} outside its "
                             f"{clip.channels} channels")
        clip, geometry = clip.channel_subset(channels), geometry.subset(channels)
    samples = []
    for label, t_e, start, stop in windows:
        window = AudioClip(clip.samples[:, start - first : stop - first], sample_rate)
        try:
            feature = extract_feature(window, geometry, config)
        except ValueError as exc:
            raise ValueError(f"{entry.wav}: window ending at t_e {t_e:.3f} s: {exc}") from None
        meta = SampleMeta(entry.recording_id, entry.environment, entry.motion, t_e)
        samples.append(LabeledSample(feature, label, meta))
    return samples


def extract_manifest(manifest, config: PipelineConfig, channels=None) -> list:
    """Labeled samples of every manifest entry, in manifest order, from the
    given ``channels`` of each (see ``extract_samples``).

    The entries are extracted on ``parallel_map``'s threads, each through
    ``extract_samples`` alone, so the samples do not depend on the number of
    threads; of several failing entries, the first in manifest order raises.
    """
    entries = list(manifest)
    results = parallel_map(lambda i: extract_samples(entries[i], config, channels),
                           len(entries), "earshot-extract")
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
    counts = np.zeros((k, len(labels)), dtype=np.int64)  # per fold, per class
    choices = np.eye(k, dtype=np.int64)[:, :, None]  # choice f adds to fold f only
    folds = [[] for _ in range(k)]
    for rid in keys:
        group = np.bincount([label_index[s.label] for s in groups[rid]], minlength=len(labels))
        trial = counts + choices * group  # (choice, fold, class)
        # the imbalance each choice would create, per class then in total;
        # ties go to the smaller fold, then to the lower index
        spread = (trial.max(1) - trial.min(1)).sum(1)
        f = np.lexsort((np.arange(k), counts.sum(1), spread))[0]
        counts = trial[f]
        folds[f].extend(groups[rid])
    return folds
