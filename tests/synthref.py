"""Independent reference renderer, correlation oracle and feature chain for
the tests.

Deliberately minimal and separate from the package's own simulator: a
far-field plane wave is just the same noise waveform resampled onto each
microphone's delayed time grid, so any agreement with the library is evidence
rather than tautology.

The feature chain is the direct form of the package's analysis: a
time-domain Hann multiply before each ``rfft``, one PHAT divide per
microphone pair, one steering-delay call per azimuth, and the steered sum
written out with complex exponentials.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from earshot.audio import hann_window
from earshot.stft import StftStack, band_select

SPEED_OF_SOUND = 343.0


def plane_wave_delays(positions, azimuth_deg, c=SPEED_OF_SOUND):
    """Arrival delay per mic for a plane wave from the given azimuth."""
    a = np.deg2rad(azimuth_deg)
    u = np.array([np.sin(a), 0.0, np.cos(a)])
    return -(np.asarray(positions) @ u) / c


def render_plane_wave(geometry, azimuth_deg, duration, fs, seed, c=SPEED_OF_SOUND):
    """Multichannel white-noise plane wave via fractional-delay resampling."""
    margin = 0.05
    rng = np.random.default_rng(seed)
    t_base = np.arange(-margin, duration + margin, 1.0 / fs)
    base = rng.standard_normal(t_base.size)
    taus = plane_wave_delays(geometry.positions, azimuth_deg, c)
    t_out = np.arange(int(round(duration * fs))) / fs
    return np.stack([np.interp(t_out - tau, t_base, base) for tau in taus])


def xcorr_peak_lag(a, b):
    """Signed lag of the full cross-correlation peak; -D when b lags a by D."""
    return int(np.argmax(np.correlate(a, b, "full"))) - (len(b) - 1)


def stft_reference(clip, frame_len=2048, hop=1024, band=None):
    """Hann-multiplied frames, one ``rfft`` per channel, then ``band_select``."""
    window = hann_window(frame_len)
    data = np.stack([np.fft.rfft(sliding_window_view(x, frame_len)[::hop] * window, axis=1)
                     for x in clip.samples])
    stack = StftStack(data, clip.sample_rate, frame_len, hop, np.arange(data.shape[2]))
    return stack if band is None else band_select(stack, *band)


def srp_phat_reference(stack, geometry, grid):
    """Steered response energies of ``beamform.srp_phat``'s docstring, pair by
    pair: G_ij = X_i conj X_j / max(|X_i conj X_j|, 1e-12)."""
    left, right = np.triu_indices(stack.channels, 1)
    cross = stack.data[left] * np.conj(stack.data[right])
    g_sum = (cross / np.maximum(np.abs(cross), 1e-12)).sum(axis=1)
    delays = np.stack([plane_wave_delays(geometry.positions, a, geometry.speed_of_sound)
                       for a in grid.bin_centers])
    tau = delays[:, left] - delays[:, right]
    omega = 2.0 * np.pi * stack.bin_freqs
    r = np.einsum("pk,bpk->b", g_sum, np.exp(1j * tau[:, :, None] * omega)).real
    return np.maximum(r, 0.0) / (left.size * stack.n_frames * stack.n_bins)


def extract_feature_reference(clip, geometry, config):
    """The L x B matrix of ``features.extract_feature``, from the chain above."""
    window = clip.trailing(config.sample_len)
    stack = stft_reference(window, config.frame_len, config.hop, (config.f_min, config.f_max))
    base = stack.n_frames // config.segments
    rows = []
    for seg in range(config.segments):
        stop = (seg + 1) * base if seg < config.segments - 1 else stack.n_frames
        segment = StftStack(stack.data[:, seg * base : stop], stack.sample_rate,
                            stack.frame_len, stack.hop, stack.bin_indices)
        rows.append(srp_phat_reference(segment, geometry, config.grid))
    return np.stack(rows)
