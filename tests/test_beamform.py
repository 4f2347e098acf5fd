"""Steering geometry, PHAT weighting and the steered-power scan."""

import os
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from earshot import _kernels_np as kernels
from earshot.audio import ArrayGeometry, AudioClip
from earshot.beamform import (
    AzimuthGrid,
    DoaResponse,
    argmax_doa,
    gcc_phat_cross,
    srp_phat,
    srp_phat_segments,
    steering_delays,
)
from earshot.features import PipelineConfig, extract_feature
from earshot.stft import band_select, stft
from earshot.synth import random_planar_array
from synthref import render_plane_wave, xcorr_peak_lag

PAIR = ArrayGeometry(np.array([[-0.4, 0.0, 0.0], [0.4, 0.0, 0.0]]))


def noise_stack(geometry, azimuth, seed, fs=48000, duration=1.0):
    data = render_plane_wave(geometry, azimuth, duration, fs, seed)
    return band_select(stft(AudioClip(data, fs)), 50.0, 1500.0)


def test_steering_delay_closed_forms():
    equal = steering_delays(PAIR, 0.0)
    assert equal[0] == equal[1] == 0.0
    right = steering_delays(PAIR, 90.0)
    # wave from the right reaches the x=+0.4 mic 0.8/343 s before the other
    assert right[1] < right[0]
    assert abs((right[0] - right[1]) - 0.8 / 343.0) < 1e-12
    left = steering_delays(PAIR, -90.0)
    assert left[0] - left[1] == -(right[0] - right[1])


def test_steering_delays_of_an_array_are_the_per_azimuth_delays():
    geom = random_planar_array(8, seed=5)
    azimuths = np.concatenate([AzimuthGrid(30).bin_centers, [-90.0, 0.0, 90.0, 33.3]])
    rows = steering_delays(geom, azimuths)
    assert rows.shape == (azimuths.size, 8)
    want = np.stack([steering_delays(geom, a) for a in azimuths])
    assert np.max(np.abs(rows - want)) <= 1e-15 * np.max(np.abs(want))
    grid = steering_delays(geom, azimuths.reshape(2, -1))
    assert np.array_equal(grid.reshape(rows.shape), rows)


def test_gcc_identical_channels_is_unity():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(4096)
    stack = stft(AudioClip(np.stack([x, x]), 48000), 1024, 512)
    g = gcc_phat_cross(stack, 0, 1)
    assert np.allclose(g, 1.0 + 0.0j, atol=1e-9)


def test_gcc_zero_frame_stays_zero():
    x = np.zeros((2, 2048))
    x[:, 1024:] = np.random.default_rng(1).standard_normal((2, 1024))
    stack = stft(AudioClip(x, 48000), 1024, 1024)
    g = gcc_phat_cross(stack, 0, 1)
    assert np.all(g[0] == 0.0)
    assert np.allclose(np.abs(g[1]), 1.0, atol=1e-9)


def test_gcc_delay_recovers_integer_lag():
    """The phase slope of G encodes the delay; a D-sample shift peaks at D."""
    rng = np.random.default_rng(4)
    d = 7
    n = 8192
    base = rng.standard_normal(n + d)
    ref = base[d:]
    lagged = base[:n]  # lagged[t] = ref[t - d]
    stack = stft(AudioClip(np.stack([ref, lagged]), 48000), 1024, 512)
    corr = np.fft.irfft(gcc_phat_cross(stack, 1, 0).mean(axis=0), n=1024)
    assert int(np.argmax(corr)) == d
    corr_rev = np.fft.irfft(gcc_phat_cross(stack, 0, 1).mean(axis=0), n=1024)
    assert int(np.argmax(corr_rev)) == 1024 - d
    # time-domain oracle agrees on the same material
    assert xcorr_peak_lag(lagged[:1024], ref[:1024]) == d


def test_srp_peak_tracks_plane_wave():
    geom = random_planar_array(8, seed=3)
    for azimuth in (-60.0, -25.0, 0.0, 40.0):
        stack = noise_stack(geom, azimuth, seed=int(azimuth) + 100)
        alpha = argmax_doa(srp_phat(stack, geom))
        assert abs(alpha - azimuth) <= 6.0, f"azimuth {azimuth} located at {alpha}"


def test_srp_broadside_ties_resolve_left_of_zero():
    """Identical channels peak at 0, which falls between the +-3 deg centers."""
    rng = np.random.default_rng(8)
    x = rng.standard_normal(48000)
    stack = band_select(
        stft(AudioClip(np.stack([x] * 4), 48000)), 50.0, 1500.0
    )
    geom = random_planar_array(4, seed=0)
    assert argmax_doa(srp_phat(stack, geom)) == -3.0


def test_mirrored_geometry_reverses_bins():
    geom = random_planar_array(6, seed=11)
    stack = noise_stack(geom, 33.0, seed=55)
    r = srp_phat(stack, geom).energies
    r_mirror = srp_phat(stack, geom.mirrored_x()).energies
    assert np.allclose(r_mirror, r[::-1], rtol=1e-6, atol=1e-12)


def test_gain_invariance():
    geom = random_planar_array(5, seed=2)
    data = render_plane_wave(geom, -20.0, 1.0, 48000, seed=9)
    ref = srp_phat(band_select(stft(AudioClip(data, 48000)), 50, 1500), geom).energies
    for gamma in (0.1, 10.0):
        scaled = srp_phat(
            band_select(stft(AudioClip(gamma * data, 48000)), 50, 1500), geom
        ).energies
        assert np.allclose(scaled, ref, rtol=1e-6, atol=1e-12)


def test_channel_pair_order_is_internal():
    """Swapping the stored channel order relabels mics consistently."""
    geom = random_planar_array(4, seed=6)
    data = render_plane_wave(geom, 18.0, 0.5, 48000, seed=13)
    stack = band_select(stft(AudioClip(data, 48000)), 50, 1500)
    r = srp_phat(stack, geom).energies
    order = [3, 1, 0, 2]
    stack_p = band_select(stft(AudioClip(data[order], 48000)), 50, 1500)
    r_p = srp_phat(stack_p, geom.subset(order)).energies
    assert np.allclose(r_p, r, rtol=1e-9, atol=1e-15)


def test_frame_concat_normalization_invariance():
    """Repeating the same frames does not change the normalized response."""
    rng = np.random.default_rng(21)
    geom = random_planar_array(3, seed=1)
    x = rng.standard_normal((3, 1024))
    one = stft(AudioClip(x, 48000), 1024, 1024)
    two = stft(AudioClip(np.concatenate([x, x], axis=1), 48000), 1024, 1024)
    assert two.n_frames == 2 * one.n_frames
    r1 = srp_phat(one, geom).energies
    r2 = srp_phat(two, geom).energies
    assert np.allclose(r2, r1, rtol=1e-9, atol=1e-15)


def test_response_non_negative_and_deterministic():
    geom = random_planar_array(8, seed=3)
    stack = noise_stack(geom, 10.0, seed=2)
    a = srp_phat(stack, geom).energies
    b = srp_phat(stack, geom).energies
    assert np.all(a >= 0.0)
    assert np.array_equal(a, b)


def test_incoherent_noise_response_shape():
    """Independent channels give no stable direction.

    The zero clamp empties many bins for incoherent input, which pushes the
    max/mean ratio well above the ~1 of a truly flat map; what matters is that
    the peak wanders with the seed instead of locking onto one bin.
    """
    geom = random_planar_array(8, seed=3)
    ratios = []
    peaks = set()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        clip = AudioClip(rng.standard_normal((8, 48000)), 48000)
        r = srp_phat(band_select(stft(clip), 50, 1500), geom).energies
        ratios.append(r.max() / r.mean())
        peaks.add(int(np.argmax(r)))
    assert 2.0 < np.mean(ratios) < 8.0
    assert len(peaks) >= 5


def test_incoherent_peak_is_far_below_coherent_peak():
    geom = random_planar_array(8, seed=3)
    rng = np.random.default_rng(0)
    incoherent = AudioClip(rng.standard_normal((8, 48000)), 48000)
    r_noise = srp_phat(band_select(stft(incoherent), 50, 1500), geom).energies
    r_wave = srp_phat(noise_stack(geom, 30.0, seed=0), geom).energies
    assert r_wave.max() > 5.0 * r_noise.max()


def test_azimuth_grid_layout():
    grid = AzimuthGrid(30)
    centers = grid.bin_centers
    assert centers[0] == -87.0 and centers[-1] == 87.0
    assert np.allclose(np.diff(centers), 6.0)
    with pytest.raises(ValueError):
        AzimuthGrid(1)


def test_argmax_tie_rules():
    grid = AzimuthGrid(30)

    def resp(hot):
        e = np.zeros(30)
        e[list(hot)] = 1.0
        return DoaResponse(e, grid)

    assert argmax_doa(resp([0])) == -87.0
    assert argmax_doa(resp(range(30))) == -3.0  # all equal: nearest zero, then left
    assert argmax_doa(resp([0, 19])) == 27.0  # 27 is nearer zero than -87
    assert argmax_doa(resp([14, 15])) == -3.0  # equidistant pair breaks left
    assert argmax_doa(resp([19])) == 27.0  # bin containing +25 deg


def _steered_power_reference(g_re, g_im, tau, omega, block=16):
    """Blocked cos/sin scan, recomputing the tables on every call."""
    n_az = tau.shape[0]
    out = np.empty(n_az)
    for start in range(0, n_az, block):
        stop = min(start + block, n_az)
        phase = tau[start:stop, :, None] * omega[None, None, :]
        out[start:stop] = np.einsum("pk,bpk->b", g_re, np.cos(phase)) - np.einsum(
            "pk,bpk->b", g_im, np.sin(phase)
        )
    return out


def _lerp_mix_reference(out, sig, delay, amp, lead):
    """Per-sample boolean mask over the whole output."""
    pos = lead + np.arange(out.shape[0], dtype=np.float64) - delay
    lo = np.floor(pos).astype(np.int64)
    ok = (amp != 0.0) & (lo >= 0) & (lo + 1 < sig.shape[0])
    idx = lo[ok]
    frac = pos[ok] - idx
    out[ok] += amp[ok] * (sig[idx] + frac * (sig[idx + 1] - sig[idx]))


def test_steered_power_matches_reference_across_alternating_inputs():
    """The cached tables follow tau and omega; a stale table would show here."""
    rng = np.random.default_rng(17)

    def scan_input(n_az, n_pairs, n_bins, tau=None, omega=None):
        g_re = rng.standard_normal((n_pairs, n_bins))
        g_im = rng.standard_normal((n_pairs, n_bins))
        if tau is None:
            tau = rng.uniform(-2e-3, 2e-3, size=(n_az, n_pairs))
        if omega is None:
            omega = 2 * np.pi * rng.uniform(50, 1500, size=n_bins)
        return g_re, g_im, tau, omega

    a = scan_input(30, 28, 62)
    b = scan_input(17, 6, 40)
    c = scan_input(30, 28, 62, tau=a[2].copy())  # same tau as a, new omega
    d = scan_input(28, 30, 62, tau=a[2].reshape(28, 30), omega=a[3])  # same bytes, new shape
    for args in (a, b, a, c, a, d, b, a):
        assert np.array_equal(kernels.steered_power(*args), _steered_power_reference(*args))


def test_steered_power_cache_is_thread_safe():
    """`earshot extract` threads share the cos/sin cache: more threads than
    cores, alternating two geometries at a short switch interval, each get
    the single-threaded result on every call."""
    rng = np.random.default_rng(23)
    inputs = []
    for _ in range(2):  # two 8-microphone arrays: a stale table has the right shape
        g_re, g_im = rng.standard_normal((2, 28, 62))
        tau = rng.uniform(-2e-3, 2e-3, size=(30, 28))
        omega = 2 * np.pi * np.linspace(70.3, 1500.0, 62)
        inputs.append((g_re, g_im, tau, omega))
    want = [kernels.steered_power(*args) for args in inputs]
    n_threads = 2 * (os.cpu_count() or 1) + 2
    wrong, calls = [], [0] * n_threads
    start = threading.Barrier(n_threads)

    def hammer(index):
        start.wait(timeout=60)
        for call in range(200):
            which = (index + call) % 2
            if not np.array_equal(kernels.steered_power(*inputs[which]), want[which]):
                wrong.append((index, call))
            calls[index] += 1

    threads = [threading.Thread(target=hammer, args=(i,)) for i in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert calls == [200] * n_threads
    assert wrong == []


def test_lerp_mix_matches_reference_bit_for_bit():
    rng = np.random.default_rng(23)
    n, lead = 5000, 100
    sig = rng.standard_normal(n + 200)

    # Read positions leave sig at both ends, and zero gaps cut many runs.
    wild_delay = rng.uniform(-250.0, 150.0, n)
    gappy = rng.uniform(0.2, 1.0, n)
    gappy[::7] = 0.0
    gappy[1200:1900] = 0.0
    # Renderer-like: a smooth delay that stays inside sig, and one run from
    # the first sample, one interior and one reaching the last sample.
    smooth_delay = 40.0 + 30.0 * np.sin(np.linspace(0.0, 3.0, n))
    runs = np.zeros(n)
    runs[:300] = 0.5
    runs[1000:3000] = np.linspace(0.1, 1.0, 2000)
    runs[4500:] = 2.0

    for delay, amp in ((wild_delay, gappy), (smooth_delay, runs), (wild_delay, runs),
                       (smooth_delay, np.zeros(n))):
        start = rng.standard_normal(n)  # mixing accumulates into existing content
        got, want = start.copy(), start.copy()
        kernels.lerp_mix(got, sig, delay, amp, lead)
        _lerp_mix_reference(want, sig, delay, amp, lead)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("zeroed", [False, True])
@pytest.mark.parametrize("mics", [2, 4, 8])
@pytest.mark.parametrize(
    "segments,seconds",  # frames per segment: (22), (22, 23), (11, 11, 12), (4 x 4, 6), (6 x 4, 10)
    [(1, 0.5), (2, 1.0), (3, 0.75), (5, 0.5), (5, 0.75)],
)
def test_one_scan_equals_srp_phat_of_each_segment(segments, seconds, mics, zeroed):
    """The window's one scan, and extract_feature through it, give the bits of
    srp_phat run on the stack sliced to each segment, the remainder frames in
    the last segment; an all-zero channel included."""
    geom = random_planar_array(mics, seed=mics)
    data = render_plane_wave(geom, 35.0, seconds, 48000, seed=segments)
    data += 0.1 * np.random.default_rng(mics).standard_normal(data.shape)
    if zeroed:
        data[mics // 2] = 0.0
    clip = AudioClip(data, 48000)
    config = PipelineConfig(sample_len=seconds, segments=segments)
    stack = stft(clip, config.frame_len, config.hop, (config.f_min, config.f_max))
    base = stack.n_frames // segments
    edges = [k * base for k in range(segments)] + [stack.n_frames]
    want = np.stack([
        srp_phat(replace(stack, data=stack.data[:, start:stop]), geom, config.grid).energies
        for start, stop in zip(edges[:-1], edges[1:])
    ])
    got = srp_phat_segments(stack, geom, config.grid, segments)
    assert got.tobytes() == want.tobytes()
    assert extract_feature(clip, geom, config).matrix.tobytes() == want.tobytes()
    if mics == 2 and zeroed:
        assert not want.any()  # the one pair holds the silent channel
    else:
        assert np.all(want.max(axis=1) > 0.0)


def test_validation_errors():
    geom = random_planar_array(4, seed=0)
    mono = stft(AudioClip(np.zeros((1, 2048)), 48000))
    with pytest.raises(ValueError):
        srp_phat(mono, geom)
    stack = stft(AudioClip(np.zeros((3, 2048)), 48000))
    with pytest.raises(ValueError):
        srp_phat(stack, geom)  # channel count mismatch
    with pytest.raises(ValueError):
        DoaResponse(np.zeros(29), AzimuthGrid(30))
    with pytest.raises(ValueError):
        DoaResponse(np.full(30, np.nan), AzimuthGrid(30))
