"""Short-time Fourier analysis and frequency band selection.

Frames are contiguous hops of a periodic Hann window; a final partial frame is
dropped rather than zero-padded, so every frame sees real signal.  Spectra are
one-sided (bins 0 .. frame_len/2).

The window is applied in the frequency domain.  The periodic Hann window
0.5 - 0.5 cos(2 pi n / N) has exactly three DFT lines, so the spectrum of a
windowed frame is 0.5 X[k] - 0.25 (X[k-1] + X[k+1]), where X is the spectrum
of the unwindowed frame.  The lines past either end of the one-sided spectrum
follow from the symmetry of a real frame's DFT: X[-1] = conj X[1] and
X[N/2 + 1] = conj X[N/2 - 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio import AudioClip
from .util import parallel_map


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
    partial frame is discarded.  One strided view holds the frames of every
    channel, and each channel is one task of ``util.parallel_map``: the
    ``rfft`` reads the channel's frames straight from the samples, with no
    frames buffer and no window multiply, the Hann window is then applied as
    its three spectral lines (module docstring) to the kept bins only, and
    the result goes into the channel's own slice of the stack.  So the
    working arrays hold one channel's spectrum per thread, never the whole
    clip's.  A call from inside a pool task, as in ``extract_manifest``,
    transforms its channels one at a time on the calling thread.

    ``band=(f_min, f_max)`` keeps only the bins that ``band_select`` keeps
    and equals ``band_select(stft(clip, frame_len, hop), f_min, f_max)`` in
    values, shape and strides: one helper windows both, and the stack is
    stored bin-major, the layout that ``band_select``'s boolean index gives.
    Sums over frames follow the layout, so the layout keeps their last bits.
    ``band=None`` keeps every bin, in C order.
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
    else:
        bin_indices = bin_indices[_band_mask(bin_indices, clip.sample_rate, frame_len, *band)]
        data = np.empty((bin_indices.size, clip.channels, n_frames), dtype=np.complex128)
        data = data.transpose(1, 2, 0)
    lo, hi = bin_indices[0], bin_indices[-1] + 1
    frames = sliding_window_view(clip.samples, frame_len, axis=1)[:, ::hop]

    def transform(ch):
        # The spectrum is a temporary, freed before the thread's next rfft,
        # which then reuses its memory rather than mapping fresh pages.
        data[ch] = _hann_lines(np.fft.rfft(frames[ch], axis=1), lo, hi)

    parallel_map(transform, clip.channels, "earshot-stft")
    return StftStack(
        data=data,
        sample_rate=clip.sample_rate,
        frame_len=frame_len,
        hop=hop,
        bin_indices=bin_indices,
    )


def _hann_lines(spectrum, lo, hi) -> np.ndarray:
    """Bins lo .. hi-1 of the Hann-windowed spectrum, one frame per row.

    ``spectrum`` holds the one-sided spectra of unwindowed frames, one frame
    per row.  Bin k becomes 0.5 X[k] - 0.25 (X[k-1] + X[k+1]); bin 0 and the
    Nyquist bin take their outer neighbour from the conjugate symmetry.
    """
    n = spectrum.shape[1]
    if lo > 0:
        below = spectrum[:, lo - 1 : hi - 1]
    else:  # X[-1] = conj X[1]
        below = np.concatenate([spectrum[:, 1:2].conj(), spectrum[:, : hi - 1]], axis=1)
    if hi < n:
        above = spectrum[:, lo + 1 : hi + 1]
    else:  # X[N/2 + 1] = conj X[N/2 - 1]
        above = np.concatenate([spectrum[:, lo + 1 :], spectrum[:, n - 2 : n - 1].conj()], axis=1)
    windowed = below + above
    windowed *= -0.25
    windowed += 0.5 * spectrum[:, lo:hi]
    return windowed


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
