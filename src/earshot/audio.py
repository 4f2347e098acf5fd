"""Multichannel audio containers, WAV file I/O and the analysis window.

WAV support is deliberately narrow: RIFF/WAVE with uncompressed 16 or 24 bit
PCM or 32 bit IEEE float payloads, tagged plainly or as WAVE_FORMAT_EXTENSIBLE
with the PCM or IEEE float sub-format, which covers every file this package
writes and what multichannel recorders write.  Integer samples are scaled by
2**(bits-1) so a full-scale negative sample maps to exactly -1.0.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .util import atomic_open, load_json


class WavError(Exception):
    """Base class for WAV parsing and encoding problems."""


class WavFormatError(WavError):
    """File is not a well-formed RIFF/WAVE container."""


class UnsupportedEncodingError(WavError):
    """Container is fine but the sample encoding is not one we handle."""


class EmptyStreamError(WavError):
    """The data chunk holds zero samples."""


_PCM = 1
_IEEE_FLOAT = 3
_EXTENSIBLE = 0xFFFE
# An extensible fmt chunk names its encoding by a sub-format GUID
# {0000XXXX-0000-0010-8000-00aa00389b71}; on disk the format code XXXX is the
# first two bytes, little-endian, and these are the other fourteen.
_SUBTYPE_TAIL = bytes.fromhex("0000" "0000" "1000" "800000aa00389b71")
# A 4-byte item whose one field is its first three bytes: viewing <i4 samples
# through it selects the little-endian 24-bit payload in a single copy.
_LOW3 = np.dtype({"names": ["low3"], "formats": ["V3"], "offsets": [0], "itemsize": 4})
_WRITE_FRAMES = 1 << 14  # frames that write_wav encodes at once
_DECODE_FRAMES = 1 << 12  # pcm24 frames that load_wav decodes at once


@dataclass
class AudioClip:
    """Synchronized multichannel samples, shaped (channels, samples)."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.atleast_2d(np.asarray(self.samples, dtype=np.float64))
        if self.samples.ndim != 2:
            raise ValueError("samples must be a (channels, samples) array")
        if self.samples.shape[1] < 1:
            raise ValueError("clip must contain at least one sample")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    @property
    def channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def duration(self) -> float:
        return self.samples.shape[1] / self.sample_rate

    def channel_subset(self, indices) -> "AudioClip":
        """New clip keeping the given channels, in the given order."""
        idx = list(indices)
        if len(idx) == 0:
            raise ValueError("channel subset must not be empty")
        return AudioClip(self.samples[idx], self.sample_rate)

    def trailing(self, seconds: float) -> "AudioClip":
        """The last ``seconds`` of the clip, as a view of this clip's samples.

        Nothing is copied, so writing to the window's samples writes to this
        clip; analysis only reads them.
        """
        n = int(round(seconds * self.sample_rate))
        if n < 1 or n > self.n_samples:
            raise ValueError(
                f"cannot take trailing {seconds} s from a {self.duration:.3f} s clip"
            )
        return AudioClip(self.samples[:, self.n_samples - n :], self.sample_rate)


@dataclass
class ArrayGeometry:
    """Microphone positions in meters, array-local axes.

    x points right, y up, z forward; azimuth 0 is straight ahead along +z and
    +90 degrees is to the right.
    """

    positions: np.ndarray
    speed_of_sound: float = 343.0

    def __post_init__(self):
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=np.float64))
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ValueError("positions must be an (M, 3) array")
        if not np.all(np.isfinite(self.positions)):
            raise ValueError("microphone positions must be finite")
        if not 0 < float(self.speed_of_sound) < np.inf:  # an int too large for a float fails
            raise ValueError("speed_of_sound must be finite and positive")
        if len(np.unique(self.positions, axis=0)) != len(self.positions):
            raise ValueError("microphone positions must be distinct")

    @property
    def n_mics(self) -> int:
        return self.positions.shape[0]

    def subset(self, indices) -> "ArrayGeometry":
        idx = list(indices)
        return ArrayGeometry(self.positions[idx].copy(), self.speed_of_sound)

    def mirrored_x(self) -> "ArrayGeometry":
        """Geometry reflected across the x = 0 plane (left/right swap)."""
        flipped = self.positions.copy()
        flipped[:, 0] = -flipped[:, 0]
        return ArrayGeometry(flipped, self.speed_of_sound)


def load_geometry(path) -> ArrayGeometry:
    """Read a geometry file written by ``util.save_json`` (see ``util.load_json``)."""
    return load_json(ArrayGeometry, path, "geometry")


def check_mic_count(clip: AudioClip, geometry: ArrayGeometry, wav_path, geometry_path) -> None:
    """A clip whose channel count is not the geometry's microphone count is a
    ValueError that names both files."""
    if clip.channels != geometry.n_mics:
        raise ValueError(f"{wav_path} has {clip.channels} channels but "
                         f"{geometry_path} has {geometry.n_mics} microphones")


def _read_exact(fh, n, what):
    buf = fh.read(n)
    if len(buf) != n:
        raise WavFormatError(f"truncated file while reading {what}")
    return buf


class _Layout(NamedTuple):
    """Where a WAV file's frames lie and how they are encoded."""

    sample_rate: int
    channels: int
    bits: int
    dtype: str  # the item read at each sample (pcm24: from the byte before it)
    width: int  # bytes per sample
    offset: int  # file position of the first frame
    n_frames: int


def _read_layout(fh, path) -> _Layout:
    """Parse the RIFF chunks of an open WAV file without reading its samples.

    The data chunk's declared end must lie within the file: a truncated file
    is refused here, whatever range of frames is read afterwards.
    """
    header = fh.read(12)
    if len(header) < 12 or header[:4] != b"RIFF" or header[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: not a RIFF/WAVE file")
    file_size = os.fstat(fh.fileno()).st_size

    fmt = None
    data = None  # (offset, size) of the data chunk's payload
    while True:
        chunk_header = fh.read(8)
        if len(chunk_header) < 8:
            break
        chunk_id, size = struct.unpack("<4sI", chunk_header)
        if chunk_id == b"fmt ":
            fmt = _read_exact(fh, size, "fmt chunk")
        else:
            if chunk_id == b"data":
                data = (fh.tell(), size)
                if data[0] + size > file_size:
                    raise WavFormatError("truncated file while reading data chunk")
            fh.seek(size, 1)
        if size % 2:
            fh.seek(1, 1)
        if fmt is not None and data is not None:
            break

    if fmt is None or len(fmt) < 16:
        raise WavFormatError(f"{path}: missing fmt chunk")
    if data is None:
        raise WavFormatError(f"{path}: missing data chunk")

    audio_format, n_channels, sample_rate, _, block_align, bits = struct.unpack(
        "<HHIIHH", fmt[:16]
    )
    if n_channels < 1 or sample_rate < 1:
        raise WavFormatError(f"{path}: nonsense fmt chunk")
    if audio_format == _EXTENSIBLE:
        if len(fmt) < 40:
            raise WavFormatError(f"{path}: extensible fmt chunk is shorter than 40 bytes")
        sub_format = fmt[24:40]
        if sub_format[2:] != _SUBTYPE_TAIL:
            raise UnsupportedEncodingError(
                f"{path}: extensible sub-format {sub_format.hex()} is not supported"
            )
        audio_format = struct.unpack("<H", sub_format[:2])[0]

    if audio_format == _PCM and bits == 16:
        dtype, width = "<i2", 2
    elif audio_format == _PCM and bits == 24:
        dtype, width = "<i4", 3
    elif audio_format == _IEEE_FLOAT and bits == 32:
        dtype, width = "<f4", 4
    else:
        raise UnsupportedEncodingError(
            f"{path}: format tag {audio_format} at {bits} bits is not supported"
        )
    if block_align != n_channels * width:
        raise WavFormatError(
            f"{path}: block_align {block_align} is not {n_channels} channels "
            f"x {width} bytes per sample"
        )

    n_frames = data[1] // (width * n_channels)
    if n_frames == 0:
        raise EmptyStreamError(f"{path}: data chunk holds no samples")
    return _Layout(sample_rate, n_channels, bits, dtype, width, data[0], n_frames)


def wav_frames(path) -> tuple:
    """(sample_rate, n_frames) of a WAV file, from its header alone.

    Checks the file as load_wav does and raises the same errors.
    """
    with open(path, "rb") as fh:
        layout = _read_layout(fh, path)
    return layout.sample_rate, layout.n_frames


def load_wav(path, start: int = 0, stop: int | None = None) -> AudioClip:
    """Read frames [start, stop) of a PCM16, PCM24 or float32 WAV file.

    The default range is the whole file; a partial trailing frame is dropped.
    Only the requested frames are read and decoded, so `earshot extract`
    reads just the span its windows cover.  The encoding is given by the fmt
    chunk's format tag, or, for WAVE_FORMAT_EXTENSIBLE (0xFFFE, with a fmt
    chunk of at least 40 bytes), by its PCM or IEEE float sub-format GUID.
    Integer PCM is normalized by 2**(bits-1); float payloads are taken as-is.
    The frames are decoded into a C-ordered (channels, frames) float64
    array, and a range holds the same values as the same columns of
    the whole file.  Raises WavFormatError for malformed containers,
    including a data chunk that runs past the end of the file, for any range,
    and a block_align other than channels x bytes per sample;
    UnsupportedEncodingError for encodings outside the supported set;
    EmptyStreamError when the data chunk holds no whole frame; and ValueError
    for a range that is empty or reaches outside [0, n_frames).  Unreadable
    paths raise the usual OSError.
    """
    with open(path, "rb") as fh:
        sample_rate, n_channels, bits, dtype, width, offset, total = _read_layout(fh, path)
        if stop is None:
            stop = total
        if not 0 <= start < stop <= total:
            raise ValueError(
                f"{path}: frame range [{start}, {stop}) is empty or outside "
                f"the file's {total} frames"
            )
        n_frames = stop - start
        fh.seek(offset + start * width * n_channels)
        # The range's bytes, after one zero pad byte for pcm24.
        pad = int(bits == 24)
        data = np.zeros(pad + n_frames * width * n_channels, dtype=np.uint8)
        if fh.readinto(data[pad:]) != data.size - pad:
            raise WavFormatError("truncated file while reading data chunk")

    # The interleaved payload seen as (channels, frames).  A pcm24 item is the
    # four bytes that end with its sample: the byte before it (the pad byte
    # for the first), then the sample's three.  As <i4 it is the sample times
    # 2**8 plus that byte (0 to 255), so an arithmetic shift right by 8 gives
    # the sample exactly.  The span is decoded _DECODE_FRAMES columns at a
    # time: each chunk is shifted into one small reused int32 buffer that
    # stays in cache, then scaled by 2**-23 straight into the result, so the
    # result is written once and no other copy of the span is made.  The
    # result is a fresh C-ordered array; a ufunc left to itself would follow
    # the strided input into F order, and every window read after would be
    # strided.
    frames = np.ndarray(
        (n_channels, n_frames), dtype, buffer=data, strides=(width, width * n_channels)
    )
    if bits == 24:
        samples = np.empty((n_channels, n_frames))
        shifted = np.empty((n_channels, min(n_frames, _DECODE_FRAMES)), dtype=np.int32)
        for begin in range(0, n_frames, _DECODE_FRAMES):
            end = min(begin + _DECODE_FRAMES, n_frames)
            chunk = shifted[:, : end - begin]
            np.right_shift(frames[:, begin:end], 8, out=chunk)
            np.multiply(chunk, 2.0**-23, out=samples[:, begin:end])
    elif bits == 16:
        samples = np.multiply(frames, 2.0**-15, order="C")
    else:
        with np.errstate(invalid="ignore"):  # a signalling NaN loads as NaN, silently
            samples = frames.astype(np.float64, order="C")
    return AudioClip(samples, sample_rate)


def _encode(samples: np.ndarray, encoding: str) -> bytes:
    """The interleaved little-endian payload of (channels, frames) samples."""
    if encoding == "pcm24":
        # One C-ordered (frames, channels) buffer, scaled, rounded half to
        # even and clipped in place, then cast once; the low three bytes of
        # each <i4 are the little-endian 24-bit sample.
        scaled = np.multiply(samples.T, 8388608.0, order="C")
        np.rint(scaled, out=scaled)
        np.clip(scaled, -8388608, 8388607, out=scaled)
        return scaled.astype("<i4").view(_LOW3)["low3"].tobytes()
    return np.ascontiguousarray(samples.T, dtype="<f4").tobytes()


def write_wav(clip: AudioClip, path, encoding: str = "pcm24") -> None:
    """Write an AudioClip as little-endian WAV, atomically.

    encoding is "pcm24" or "float32".  Samples outside [-1, 1], and NaN or
    infinite samples, are rejected rather than clipped, so quantization is the
    only loss.  The payload is encoded and written _WRITE_FRAMES frames at a
    time, so no copy of the whole clip is made.
    """
    if encoding not in ("pcm24", "float32"):
        raise UnsupportedEncodingError(f"unknown encoding {encoding!r}")
    samples = clip.samples
    peak = np.maximum(samples.max(), -samples.min()) if samples.size else 0.0
    if not peak <= 1.0:  # also true for NaN
        raise ValueError(
            f"samples must be finite and within [-1, 1] (peak {peak:.6f}); refusing to clip"
        )

    audio_format, bits = (_PCM, 24) if encoding == "pcm24" else (_IEEE_FLOAT, 32)
    n_channels = clip.channels
    block_align = n_channels * bits // 8
    byte_rate = clip.sample_rate * block_align
    fmt = struct.pack(
        "<HHIIHH", audio_format, n_channels, clip.sample_rate, byte_rate, block_align, bits
    )
    size = clip.n_samples * block_align
    pad = b"\x00" if size % 2 else b""
    riff_size = 4 + 8 + len(fmt) + 8 + size + len(pad)
    with atomic_open(path, "wb") as fh:
        fh.write(struct.pack("<4sI4s", b"RIFF", riff_size, b"WAVE"))
        fh.write(struct.pack("<4sI", b"fmt ", len(fmt)))
        fh.write(fmt)
        fh.write(struct.pack("<4sI", b"data", size))
        for start in range(0, clip.n_samples, _WRITE_FRAMES):
            fh.write(_encode(samples[:, start : start + _WRITE_FRAMES], encoding))
        fh.write(pad)
