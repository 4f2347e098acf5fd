"""From a clip window to the classifier feature: stacked DoA energy maps.

The trailing delta-t seconds of a recording are analyzed with the STFT, the
frames are split into L consecutive segments (any remainder goes to the last
segment, the most recent one) and each segment is beamformed on its own.  The
resulting L rows of B azimuth energies, oldest first, form the feature; the
flat vector concatenates the rows segment-major.

Mirroring reverses each row and swaps the left/right label, which doubles the
side-labeled training data for bilaterally symmetric scenes.  Augmentation is
a training-time operation only; nothing here ever touches test samples.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, replace

import numpy as np

from .audio import ArrayGeometry, AudioClip
from .beamform import AzimuthGrid, srp_phat
from .stft import StftStack, stft
from .util import config_hash, write_text

LABELS = ("left", "front", "right", "none")
_MIRROR_LABEL = {"left": "right", "right": "left", "front": "front", "none": "none"}


@dataclass(frozen=True)
class PipelineConfig:
    """Feature extraction parameters.

    sample_len is the analyzed window in seconds (delta-t), segments the
    number L of stacked DoA maps, bins the azimuth grid size B.
    """

    sample_len: float = 1.0
    segments: int = 2
    bins: int = 30
    f_min: float = 50.0
    f_max: float = 1500.0
    frame_len: int = 2048
    hop: int = 1024

    def __post_init__(self):
        if self.sample_len <= 0:
            raise ValueError("sample_len must be positive")
        if self.segments < 1:
            raise ValueError("segments must be >= 1")
        if self.bins < 2:
            raise ValueError("bins must be >= 2")
        if not 0 <= self.f_min < self.f_max:
            raise ValueError("need 0 <= f_min < f_max")
        if self.frame_len < 2 or self.frame_len % 2:
            raise ValueError("frame_len must be even and >= 2")
        if self.hop < 1:
            raise ValueError("hop must be >= 1")

    @property
    def grid(self) -> AzimuthGrid:
        return AzimuthGrid(self.bins)

    @property
    def feature_dim(self) -> int:
        return self.segments * self.bins

    def to_dict(self) -> dict:
        return {
            "sample_len": self.sample_len,
            "segments": self.segments,
            "bins": self.bins,
            "f_min": self.f_min,
            "f_max": self.f_max,
            "frame_len": self.frame_len,
            "hop": self.hop,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        """Inverse of ``to_dict``; a missing or unknown key is a ValueError."""
        keys = set(cls().to_dict())
        if not isinstance(d, dict) or set(d) != keys:
            got = sorted(d) if isinstance(d, dict) else type(d).__name__
            raise ValueError(f"config must hold exactly the keys {sorted(keys)}, got {got}")
        try:
            return cls(**d)
        except TypeError as exc:
            raise ValueError(f"bad config value: {exc}") from None

    @property
    def hash(self) -> str:
        return config_hash(self.to_dict())


@dataclass
class DoaFeature:
    """L x B matrix of azimuth energies, one row per segment, oldest first."""

    matrix: np.ndarray
    config: PipelineConfig

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        expected = (self.config.segments, self.config.bins)
        if self.matrix.shape != expected:
            raise ValueError(f"feature matrix must be {expected}, got {self.matrix.shape}")
        if not np.all(np.isfinite(self.matrix)) or np.any(self.matrix < 0):
            raise ValueError("feature energies must be finite and non-negative")

    @property
    def flat(self) -> np.ndarray:
        return self.matrix.reshape(-1)


@dataclass(frozen=True)
class SampleMeta:
    recording_id: str
    environment: str = "A"
    motion: str = "static"
    t_e: float = 0.0
    augmented: bool = False


@dataclass
class LabeledSample:
    feature: DoaFeature
    label: str
    meta: SampleMeta

    def __post_init__(self):
        if self.label not in LABELS:
            raise ValueError(f"label must be one of {LABELS}, got {self.label!r}")


def extract_feature(clip: AudioClip, geometry: ArrayGeometry, config: PipelineConfig) -> DoaFeature:
    """Compute the stacked DoA feature from the trailing window of a clip.

    The window is a view of the clip's samples (``AudioClip.trailing``); it
    is only read.  One banded STFT call transforms it channel by channel and
    keeps only the [f_min, f_max] bins, so neither the windowed frames nor
    the full spectrum of all channels is ever held at once.
    """
    window = clip.trailing(config.sample_len)
    if config.sample_len * clip.sample_rate / config.segments < config.frame_len:
        raise ValueError(
            "window too short for the segment count: "
            f"{config.sample_len} s / {config.segments} segments cannot fit a "
            f"{config.frame_len}-sample frame at {clip.sample_rate} Hz"
        )
    stack = stft(window, config.frame_len, config.hop, (config.f_min, config.f_max))
    n_frames = stack.n_frames
    if n_frames < config.segments:
        raise ValueError(f"only {n_frames} frames for {config.segments} segments")

    base = n_frames // config.segments
    grid = config.grid
    rows = []
    for seg in range(config.segments):
        start = seg * base
        stop = (seg + 1) * base if seg < config.segments - 1 else n_frames
        segment = _frame_slice(stack, start, stop)
        rows.append(srp_phat(segment, geometry, grid).energies)
    return DoaFeature(np.stack(rows), config)


def _frame_slice(stack: StftStack, start: int, stop: int) -> StftStack:
    return StftStack(
        data=stack.data[:, start:stop, :],
        sample_rate=stack.sample_rate,
        frame_len=stack.frame_len,
        hop=stack.hop,
        bin_indices=stack.bin_indices,
    )


def mirror(sample: LabeledSample) -> LabeledSample:
    """Left/right reflection: reverse every row, swap the side label."""
    flipped = DoaFeature(sample.feature.matrix[:, ::-1].copy(), sample.feature.config)
    return LabeledSample(
        feature=flipped,
        label=_MIRROR_LABEL[sample.label],
        meta=replace(sample.meta, augmented=True),
    )


def augment_training_set(samples) -> list:
    """Original samples plus a mirrored copy of every side-labeled one."""
    out = list(samples)
    out.extend(mirror(s) for s in samples if s.label in ("left", "right"))
    return out


def _cache_columns(config: PipelineConfig) -> list:
    return ["recording_id", "label", "env", "motion", "t_e"] + [
        f"x_{i}" for i in range(config.feature_dim)
    ]


def save_features(samples, path, extra_header: dict | None = None) -> None:
    """Write samples to the feature cache CSV.

    Layout: comment preamble with the extraction config, then a header row
    recording_id,label,env,motion,t_e,x_0,...,x_{LB-1} and one row per sample.
    Fields are CSV-quoted where needed, so recording ids may hold commas or
    line breaks; a row with a carriage return, which the minimal quoting
    leaves bare, has every field quoted.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("refusing to write an empty feature cache")
    config = samples[0].feature.config
    buf = io.StringIO()
    buf.write(f"# config: {json.dumps(config.to_dict(), sort_keys=True)}\n")
    buf.write(f"# config_hash: {config.hash}\n")
    for key, value in (extra_header or {}).items():
        buf.write(f"# {key}: {value}\n")
    writer = csv.writer(buf, lineterminator="\n")
    quoted = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerow(_cache_columns(config))
    for s in samples:
        if s.feature.config != config:
            raise ValueError("all samples in one cache must share a config")
        row = [s.meta.recording_id, s.label, s.meta.environment, s.meta.motion, repr(float(s.meta.t_e))]
        row += [repr(float(v)) for v in s.feature.flat]
        (quoted if "\r" in "".join(row[:4]) else writer).writerow(row)
    write_text(path, buf.getvalue())


def load_features(path) -> list:
    """Read a feature cache CSV back into LabeledSamples.

    The cache checks itself: the ``# config:`` line must parse and match the
    ``# config_hash:`` line, the header must name the config's columns, and
    every row must hold one value per column.  A violation is a ValueError
    that names the line at fault.  Comment lines are read only before the
    header, so a recording id may start with ``#``.
    """
    with open(path, newline="") as fh:
        body = fh.read()
    preamble, lineno = {}, 0
    while body.startswith("#"):
        line, _, body = body.partition("\n")
        lineno += 1
        key, _, value = line[1:].partition(":")
        preamble[key.strip()] = (lineno, value.strip())
    if "config" not in preamble or "config_hash" not in preamble:
        raise ValueError(f"{path}: missing config preamble (# config: and # config_hash:)")
    at, text = preamble["config"]
    try:
        config = PipelineConfig.from_dict(json.loads(text))
    except ValueError as exc:
        raise ValueError(f"{path}:{at}: bad config: {exc}") from None
    at, stored = preamble["config_hash"]
    if stored != config.hash:
        raise ValueError(f"{path}:{at}: config_hash {stored} does not match the config ({config.hash})")

    cols = _cache_columns(config)
    reader = csv.reader(io.StringIO(body))
    rows = filter(None, reader)  # blank lines carry nothing
    samples = []
    try:
        header = next(rows, None)
        if header is None:
            raise ValueError("no header row")
        if header != cols:
            raise ValueError(f"expected header {','.join(cols[:6])},...,{cols[-1]}")
        for parts in rows:
            if len(parts) != len(cols):
                raise ValueError(f"expected {len(cols)} fields, got {len(parts)}")
            rid, label, env, motion, t_e = parts[:5]
            matrix = np.array([float(v) for v in parts[5:]]).reshape(config.segments, config.bins)
            samples.append(
                LabeledSample(
                    feature=DoaFeature(matrix, config),
                    label=label,
                    meta=SampleMeta(rid, env, motion, float(t_e)),
                )
            )
    except (csv.Error, ValueError) as exc:
        raise ValueError(f"{path}:{lineno + reader.line_num}: {exc}") from None
    return samples
