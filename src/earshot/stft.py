"""Short-time Fourier analysis and frequency band selection.

Frames are contiguous hops of a periodic Hann window; a final partial frame is
dropped rather than zero-padded, so every frame sees real signal.  Spectra are
one-sided (bins 0 .. frame_len/2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio import AudioClip, hann_window


@dataclass
class StftStack:
    """One-sided spectrogram stack, shaped (channels, frames, bins)."""

    data: np.ndarray
    sample_rate: int
    frame_len: int
    hop: int
    bin_indices: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.complex128)
        self.bin_indices = np.asarray(self.bin_indices, dtype=np.int64)
        if self.data.ndim != 3:
            raise ValueError("data must be (channels, frames, bins)")
        if self.data.shape[2] != self.bin_indices.size:
            raise ValueError("bin_indices does not match the bin axis")

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_frames(self) -> int:
        return self.data.shape[1]

    @property
    def n_bins(self) -> int:
        return self.data.shape[2]

    @property
    def bin_freqs(self) -> np.ndarray:
        """Center frequency of each retained bin, in Hz."""
        return self.bin_indices * (self.sample_rate / self.frame_len)


def stft(
    clip: AudioClip, frame_len: int = 2048, hop: int = 1024, band: tuple | None = None
) -> StftStack:
    """Windowed one-sided STFT of every channel.

    The number of frames is floor((N - frame_len) / hop) + 1; a trailing
    partial frame is discarded.  Channels are transformed one at a time, so
    the working arrays hold one channel's frames and one channel's spectrum,
    never the whole clip's.

    ``band=(f_min, f_max)`` keeps only the bins that ``band_select`` keeps
    and equals ``band_select(stft(clip, frame_len, hop), f_min, f_max)`` in
    values, shape and strides: the stack is stored bin-major, the layout that
    ``band_select``'s boolean index gives.  Sums over frames follow the
    layout (``srp_phat`` sums cross-spectra over frames), so the layout keeps
    their last bits.  ``band=None`` keeps every bin, in C order.
    """
    if frame_len < 2 or frame_len % 2:
        raise ValueError("frame_len must be even and >= 2")
    if hop < 1:
        raise ValueError("hop must be >= 1")
    if frame_len > clip.n_samples:
        raise ValueError(
            f"clip has {clip.n_samples} samples, shorter than one {frame_len}-sample frame"
        )
    n_frames = (clip.n_samples - frame_len) // hop + 1
    n_bins = frame_len // 2 + 1
    bin_indices = np.arange(n_bins)
    if band is None:
        data = np.empty((clip.channels, n_frames, n_bins), dtype=np.complex128)
        keep = slice(None)
    else:
        bin_indices = bin_indices[_band_mask(bin_indices, clip.sample_rate, frame_len, *band)]
        keep = slice(bin_indices[0], bin_indices[-1] + 1)
        data = np.empty((bin_indices.size, clip.channels, n_frames), dtype=np.complex128)
        data = data.transpose(1, 2, 0)
    window = hann_window(frame_len)
    frames = np.empty((n_frames, frame_len))
    for ch, samples in enumerate(clip.samples):
        np.multiply(sliding_window_view(samples, frame_len)[::hop], window, out=frames)
        data[ch] = np.fft.rfft(frames, axis=1)[:, keep]
    return StftStack(
        data=data,
        sample_rate=clip.sample_rate,
        frame_len=frame_len,
        hop=hop,
        bin_indices=bin_indices,
    )


def _band_mask(bin_indices, sample_rate, frame_len, f_min, f_max) -> np.ndarray:
    """Which bins have their center frequency in [f_min, f_max], inclusive."""
    if not 0 <= f_min < f_max:
        raise ValueError("need 0 <= f_min < f_max")
    if f_max > sample_rate / 2:
        raise ValueError("f_max exceeds the Nyquist frequency")
    freqs = bin_indices * (sample_rate / frame_len)
    keep = (freqs >= f_min) & (freqs <= f_max)
    if not np.any(keep):
        raise ValueError(f"no STFT bins fall inside [{f_min}, {f_max}] Hz")
    return keep


def band_select(stack: StftStack, f_min: float, f_max: float) -> StftStack:
    """Keep only bins whose center frequency lies in [f_min, f_max], inclusive."""
    keep = _band_mask(stack.bin_indices, stack.sample_rate, stack.frame_len, f_min, f_max)
    return StftStack(
        data=stack.data[:, :, keep],
        sample_rate=stack.sample_rate,
        frame_len=stack.frame_len,
        hop=stack.hop,
        bin_indices=stack.bin_indices[keep],
    )
