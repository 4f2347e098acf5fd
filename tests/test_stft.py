"""Spectrogram stack vs a direct DFT oracle, plus band selection rules."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from earshot.audio import AudioClip, hann_window
from earshot.stft import StftStack, band_select, stft


def dft_oracle(frame):
    """O(n^2) one-sided DFT of a single windowed frame."""
    n = frame.size
    x = frame * hann_window(n)
    k = np.arange(n // 2 + 1)
    t = np.arange(n)
    basis = np.exp(-2j * np.pi * np.outer(k, t) / n)
    return basis @ x


def test_matches_direct_dft():
    rng = np.random.default_rng(1)
    clip = AudioClip(rng.standard_normal((2, 300)), 1000)
    stack = stft(clip, frame_len=64, hop=32)
    assert stack.n_frames == (300 - 64) // 32 + 1
    for ch in range(2):
        for f in range(stack.n_frames):
            frame = clip.samples[ch, f * 32 : f * 32 + 64]
            assert np.allclose(stack.data[ch, f], dft_oracle(frame), atol=1e-9)


def test_constant_signal_window_leakage():
    """A DC input concentrates in bins 0 and 1, nothing beyond.

    The periodic Hann window is 0.5 - 0.5 cos, whose DFT has exactly three
    nonzero lines, so a constant maps to n/2 at bin 0 and -n/4 at bin 1.
    """
    c = 0.7
    n = 256
    clip = AudioClip(np.full((1, n), c), 8000)
    stack = stft(clip, frame_len=n, hop=n)
    x = stack.data[0, 0]
    assert abs(x[0] - c * n / 2) < 1e-9
    assert abs(x[1] - (-c * n / 4)) < 1e-9
    assert np.max(np.abs(x[2:])) < 1e-9


def test_pure_tone_dominates_its_bin():
    fs = 8000
    n = 512
    k0 = 37
    t = np.arange(n * 3)
    clip = AudioClip(np.sin(2 * np.pi * k0 * t / n)[None, :], fs)
    stack = stft(clip, frame_len=n, hop=n)
    mags = np.abs(stack.data[0, 0])
    assert int(np.argmax(mags)) == k0
    far = np.delete(mags, [k0 - 1, k0, k0 + 1])
    assert np.max(far) < 1e-9 * mags[k0] + 1e-9


def test_parseval_on_windowed_frame():
    rng = np.random.default_rng(5)
    n = 128
    clip = AudioClip(rng.standard_normal((1, n)), 4000)
    stack = stft(clip, frame_len=n, hop=n)
    weights = np.full(n // 2 + 1, 2.0)
    weights[0] = weights[-1] = 1.0
    spectral = np.sum(weights * np.abs(stack.data[0, 0]) ** 2)
    windowed = clip.samples[0] * hann_window(n)
    assert abs(spectral - n * np.sum(windowed**2)) < 1e-6 * spectral


def test_linearity():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((1, 200))
    y = rng.standard_normal((1, 200))
    fs = 1000
    sx = stft(AudioClip(x, fs), 64, 32).data
    sy = stft(AudioClip(y, fs), 64, 32).data
    sz = stft(AudioClip(3.0 * x - 0.5 * y, fs), 64, 32).data
    assert np.allclose(sz, 3.0 * sx - 0.5 * sy, atol=1e-9)


def test_hop_shift_reindexes_frames():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(400)
    a = stft(AudioClip(x, 1000), 64, 32)
    b = stft(AudioClip(x[32:], 1000), 64, 32)
    assert np.array_equal(a.data[0, 1 : b.n_frames + 1], b.data[0])


def test_frame_count_formula():
    fs = 48000
    clip = AudioClip(np.zeros((1, fs)), fs)
    stack = stft(clip)  # defaults 2048 / 1024
    assert stack.n_frames == (fs - 2048) // 1024 + 1 == 45
    assert stack.n_bins == 1025
    exact = AudioClip(np.zeros((1, 2048)), fs)
    assert stft(exact).n_frames == 1


def test_band_select_reference_config():
    """48 kHz, 2048-point frames, 50..1500 Hz keeps bins 3..64 inclusive."""
    clip = AudioClip(np.random.default_rng(0).standard_normal((1, 4096)), 48000)
    stack = stft(clip)
    band = band_select(stack, 50.0, 1500.0)
    # enumeration oracle over all bin center frequencies
    df = 48000 / 2048
    keep = [k for k in range(1025) if 50.0 <= k * df <= 1500.0]
    assert keep[0] == 3 and keep[-1] == 64 and len(keep) == 62
    assert np.array_equal(band.bin_indices, keep)
    assert band.n_bins == 62
    assert np.array_equal(band.data, stack.data[:, :, 3:65])
    assert np.allclose(band.bin_freqs, np.array(keep) * df)


def test_band_select_idempotent_and_identity():
    clip = AudioClip(np.random.default_rng(4).standard_normal((1, 256)), 1000)
    stack = stft(clip, 64, 32)
    full = band_select(stack, 0.0, 500.0)
    assert np.array_equal(full.data, stack.data)
    once = band_select(stack, 100.0, 300.0)
    twice = band_select(once, 100.0, 300.0)
    assert np.array_equal(once.bin_indices, twice.bin_indices)
    assert np.array_equal(once.data, twice.data)


def test_band_select_errors():
    clip = AudioClip(np.zeros((1, 128)), 1000)
    stack = stft(clip, 64, 32)
    with pytest.raises(ValueError):
        band_select(stack, 300.0, 100.0)
    with pytest.raises(ValueError):
        band_select(stack, 0.0, 600.0)  # past Nyquist
    with pytest.raises(ValueError):
        band_select(stack, 20.0, 25.0)  # no bin centers inside


def test_stft_input_validation():
    clip = AudioClip(np.zeros((1, 100)), 1000)
    with pytest.raises(ValueError):
        stft(clip, frame_len=128, hop=64)  # shorter than one frame
    with pytest.raises(ValueError):
        stft(clip, frame_len=63, hop=32)  # odd length
    with pytest.raises(ValueError):
        stft(clip, frame_len=64, hop=0)


def test_stack_shape_validation():
    with pytest.raises(ValueError):
        StftStack(np.zeros((2, 3)), 1000, 64, 32, np.arange(3))
    with pytest.raises(ValueError):
        StftStack(np.zeros((1, 2, 3)), 1000, 64, 32, np.arange(4))


@settings(max_examples=120, deadline=None)
@given(
    data=st.data(),
    channels=st.integers(1, 9),
    shape=st.sampled_from([(2048, 1024), (64, 32), (64, 64), (32, 7), (16, 40), (2, 1)]),
)
def test_banded_stft_equals_band_select_of_the_full_stft(data, channels, shape):
    """stft(..., band) is band_select(stft(...)) in values, shape and strides:
    the bin-major layout keeps the last bits of sums over frames."""
    frame_len, hop = shape
    n = data.draw(st.integers(frame_len, frame_len + 3 * hop + 5), label="samples")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rate = data.draw(st.sampled_from([1000, 8000, 48000]), label="rate")
    clip = AudioClip(np.random.default_rng(seed).standard_normal((channels, n)), rate)
    df = rate / frame_len
    n_bins = frame_len // 2 + 1
    kind = data.draw(st.sampled_from(["one bin", "all bins", "range"]), label="band")
    lo = data.draw(st.integers(0, n_bins - 1), label="first bin")
    hi = lo if kind == "one bin" else data.draw(st.integers(lo, n_bins - 1), label="last bin")
    if kind == "all bins":
        band = (0.0, rate / 2)
    elif hi > lo:
        band = (lo * df, hi * df)
    else:  # f_min < f_max, both within half a bin of the one kept bin
        band = (lo * df, (lo + 0.5) * df) if lo < n_bins - 1 else ((lo - 0.5) * df, lo * df)
    full = stft(clip, frame_len, hop)
    want = band_select(full, *band)
    got = stft(clip, frame_len, hop, band)
    assert got.data.shape == want.data.shape
    assert got.data.strides == want.data.strides
    assert got.data.tobytes(order="A") == want.data.tobytes(order="A")
    assert np.array_equal(got.bin_indices, want.bin_indices)
    if kind == "one bin":
        assert got.n_bins == 1
    if kind == "all bins":
        assert got.n_bins == n_bins
    assert full.data.flags.c_contiguous  # band=None keeps the C-ordered full spectrum


def test_banded_stft_rejects_bands_as_band_select_does():
    clip = AudioClip(np.zeros((1, 128)), 1000)
    for band in [(300.0, 100.0), (0.0, 600.0), (20.0, 25.0)]:
        with pytest.raises(ValueError) as want:
            band_select(stft(clip, 64, 32), *band)
        with pytest.raises(ValueError) as got:
            stft(clip, 64, 32, band)
        assert str(got.value) == str(want.value)
