"""From a clip window to the classifier feature: stacked DoA energy maps.

The trailing delta-t seconds of a recording are analyzed with the STFT, the
frames are split into L consecutive segments (any remainder goes to the last
segment, the most recent one) and each segment is beamformed on its own, in
one scan of the window (``beamform.srp_phat_segments``).  The resulting L
rows of B azimuth energies, oldest first, form the feature; the flat vector
concatenates the rows segment-major.

Mirroring reverses each row and swaps the left/right label, which doubles the
side-labeled training data for bilaterally symmetric scenes.  Augmentation is
a training-time operation only; nothing here ever touches test samples.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from .audio import ArrayGeometry, AudioClip
from .beamform import AzimuthGrid, srp_phat_segments
from .stft import stft
from .util import config_hash, csv_text, plain, read_csv, write_text

LABELS = ("left", "front", "right", "none")
_MIRROR_LABEL = {"left": "right", "right": "left", "front": "front", "none": "none"}


@dataclass(frozen=True)
class PipelineConfig:
    """Feature extraction parameters.

    sample_len is the analyzed window in seconds (delta-t), segments the
    number L of stacked DoA maps, bins the azimuth grid size B.  An int field
    takes an integer and a float field a real number, never a bool (TypeError).
    """

    sample_len: float = 1.0
    segments: int = 2
    bins: int = 30
    f_min: float = 50.0
    f_max: float = 1500.0
    frame_len: int = 2048
    hop: int = 1024

    def __post_init__(self):
        for f in fields(self):
            value, integral = getattr(self, f.name), f.type == "int"
            if isinstance(value, bool) or not isinstance(
                    value, numbers.Integral if integral else numbers.Real):
                name = "an integer" if integral else "a number"
                raise TypeError(f"{f.name} must be {name}, got {value!r}")
            # NaN fails the comparison; an int too large for math.isfinite passes it
            if not -math.inf < value < math.inf:
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if not (self.sample_len > 0):
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

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        """Inverse of ``util.plain``; a missing or unknown key is a ValueError."""
        keys = {f.name for f in fields(cls)}
        if not isinstance(d, dict) or set(d) != keys:
            got = sorted(d) if isinstance(d, dict) else type(d).__name__
            raise ValueError(f"config must hold exactly the keys {sorted(keys)}, got {got}")
        try:
            return cls(**d)
        except TypeError as exc:
            raise ValueError(f"bad config value: {exc}") from None

    @property
    def hash(self) -> str:
        return config_hash(plain(self))


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
    is only read.  One banded STFT call transforms it channel by channel,
    windows it in the frequency domain and keeps only the [f_min, f_max]
    bins, so no frames buffer and no full spectrum of all channels is ever
    held.  One scan of the stack then whitens every channel and sets up the
    steering delays once for the whole window; each segment adds one
    batched matrix product, which sums the pair cross-spectra over its
    frames, and one steered-power call (``beamform.srp_phat_segments``).
    Each row equals ``srp_phat`` of the stack cut down to its segment.
    """
    window = clip.trailing(config.sample_len)
    if window.n_samples / config.segments < config.frame_len:
        raise ValueError(
            "window too short for the segment count: "
            f"{config.sample_len} s / {config.segments} segments cannot fit a "
            f"{config.frame_len}-sample frame at {clip.sample_rate} Hz"
        )
    stack = stft(window, config.frame_len, config.hop, (config.f_min, config.f_max))
    if stack.n_frames < config.segments:
        raise ValueError(f"only {stack.n_frames} frames for {config.segments} segments")
    return DoaFeature(srp_phat_segments(stack, geometry, config.grid, config.segments), config)


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
    """Write samples to the feature cache CSV (format: ``util.csv_text``).

    Layout: a preamble with the extraction config, then a header row
    recording_id,label,env,motion,t_e,x_0,...,x_{LB-1} and one row per sample.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("refusing to write an empty feature cache")
    config = samples[0].feature.config
    if any(s.feature.config != config for s in samples):
        raise ValueError("all samples in one cache must share a config")
    preamble = {"config": json.dumps(plain(config), sort_keys=True),
                "config_hash": config.hash, **(extra_header or {})}
    rows = (
        [s.meta.recording_id, s.label, s.meta.environment, s.meta.motion, repr(float(s.meta.t_e))]
        + [repr(float(v)) for v in s.feature.flat]
        for s in samples
    )
    write_text(path, csv_text(preamble, _cache_columns(config), rows))


def load_features(path) -> list:
    """Read a feature cache CSV back into LabeledSamples.

    The cache checks itself: the ``# config:`` line must parse and match the
    ``# config_hash:`` line, the header must name the config's columns and
    be followed by at least one row, and every row must hold one value per
    column and a finite t_e.  A violation is a ValueError that names the line at fault.
    """
    preamble, rows = read_csv(path)
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

    at, header = rows[0]
    # The length first: a hand-edited config may claim more columns than memory holds.
    if len(header) != 5 + config.feature_dim or header != _cache_columns(config):
        raise ValueError(f"{path}:{at}: expected header recording_id,label,env,motion,t_e,"
                         f"x_0,...,x_{config.feature_dim - 1}")
    if len(rows) == 1:
        raise ValueError(f"{path}:{at}: no samples after the header")
    samples = []
    for at, parts in rows[1:]:
        try:
            if len(parts) != len(header):
                raise ValueError(f"expected {len(header)} fields, got {len(parts)}")
            rid, label, env, motion, t_e = parts[:5]
            if not math.isfinite(float(t_e)):
                raise ValueError(f"t_e must be finite, got {t_e}")
            matrix = np.array([float(v) for v in parts[5:]]).reshape(config.segments, config.bins)
            samples.append(
                LabeledSample(
                    feature=DoaFeature(matrix, config),
                    label=label,
                    meta=SampleMeta(rid, env, motion, float(t_e)),
                )
            )
        except ValueError as exc:
            raise ValueError(f"{path}:{at}: {exc}") from None
    return samples
