"""The package's STFT, PHAT scan and feature against the direct chain in
``synthref``: a time-domain window, pairwise PHAT and per-azimuth steering."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import earshot
from earshot.audio import AudioClip, load_geometry, load_wav
from earshot.beamform import AzimuthGrid, srp_phat
from earshot.dataset import _windows, load_manifest
from earshot.features import extract_feature
from earshot.stft import stft
from earshot.synth import random_planar_array
from synthref import (
    extract_feature_reference,
    render_plane_wave,
    srp_phat_reference,
    stft_reference,
)

RTOL = 1e-12


def assert_close(got, want):
    """Largest deviation at most RTOL of the largest reference magnitude."""
    assert got.shape == want.shape
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= RTOL * scale, np.max(np.abs(got - want)) / scale


@settings(max_examples=120, deadline=None)
@given(
    data=st.data(),
    channels=st.integers(1, 9),
    shape=st.sampled_from([(2048, 1024), (64, 32), (64, 64), (32, 7), (16, 40), (2, 1)]),
)
def test_stft_matches_the_time_domain_window(data, channels, shape):
    """Full spectra and bands, bin 0 and the Nyquist bin included, on the
    shapes of the banded-STFT property test."""
    frame_len, hop = shape
    n = data.draw(st.integers(frame_len, frame_len + 3 * hop + 5), label="samples")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rate = data.draw(st.sampled_from([1000, 8000, 48000]), label="rate")
    clip = AudioClip(np.random.default_rng(seed).standard_normal((channels, n)), rate)
    df = rate / frame_len
    n_bins = frame_len // 2 + 1
    lo = data.draw(st.integers(0, n_bins - 1), label="first bin")
    hi = data.draw(st.integers(lo, n_bins - 1), label="last bin")
    band = (lo * df, hi * df) if hi > lo else None
    assert_close(stft(clip, frame_len, hop).data, stft_reference(clip, frame_len, hop).data)
    for edge in [(0.0, df), ((n_bins - 2) * df, rate / 2), band]:
        if edge is not None:
            got = stft(clip, frame_len, hop, edge)
            want = stft_reference(clip, frame_len, hop, edge)
            assert np.array_equal(got.bin_indices, want.bin_indices)
            assert_close(got.data, want.data)


@pytest.mark.parametrize("mics, azimuth, seed", [(2, -70.0, 1), (4, 12.0, 2), (8, 41.0, 3)])
def test_srp_phat_matches_pairwise_phat(mics, azimuth, seed):
    geom = random_planar_array(mics, seed=seed)
    clip = AudioClip(render_plane_wave(geom, azimuth, 0.6, 48000, seed), 48000)
    stack = stft(clip, 2048, 1024, (50.0, 1500.0))
    grid = AzimuthGrid(30)
    assert_close(srp_phat(stack, geom, grid).energies, srp_phat_reference(stack, geom, grid))
    incoherent = stft(AudioClip(np.random.default_rng(seed).standard_normal((mics, 24000)), 48000),
                      1024, 512, (50.0, 1500.0))
    assert_close(srp_phat(incoherent, geom, grid).energies,
                 srp_phat_reference(incoherent, geom, grid))


@pytest.fixture(scope="module")
def stock_windows(bench_manifest, bench_b_dir, default_config):
    """(label, window, geometry) of every sample window of the env A and env B
    corpora, `none` recordings included."""
    out = []
    for entry in [*bench_manifest, *load_manifest(bench_b_dir)]:
        clip, geometry = load_wav(entry.wav), load_geometry(entry.geometry)
        for label, _, start, stop in _windows(entry, clip.sample_rate, clip.n_samples,
                                              default_config):
            out.append((label, AudioClip(clip.samples[:, start:stop], clip.sample_rate),
                        geometry))
    return out


def test_extract_feature_matches_the_reference_chain_on_stock_windows(stock_windows,
                                                                      default_config):
    assert {label for label, *_ in stock_windows} == {"left", "front", "right", "none"}
    for _, window, geometry in stock_windows:
        got = extract_feature(window, geometry, default_config).matrix
        assert_close(got, extract_feature_reference(window, geometry, default_config))


def test_dead_microphone_gives_finite_features_that_match_the_reference(stock_windows,
                                                                         default_config):
    """A channel of exact zeros whitens to zero under the per-channel rule as
    under the per-pair one, so its pairs add nothing and nothing divides by 0."""
    side = next(w for w in stock_windows if w[0] in ("left", "right"))
    none = next(w for w in stock_windows if w[0] == "none")
    for (_, window, geometry), dead in ((side, 0), (none, 5)):
        samples = window.samples.copy()
        samples[dead] = 0.0
        clip = AudioClip(samples, window.sample_rate)
        got = extract_feature(clip, geometry, default_config).matrix
        assert np.all(np.isfinite(got))
        assert_close(got, extract_feature_reference(clip, geometry, default_config))


def test_feature_cache_bytes_do_not_depend_on_the_blas_thread_count(bench_dir, tmp_path):
    """`srp_phat`'s batched matrix product is a BLAS call; `earshot extract`
    with one and with two BLAS threads writes the same cache."""
    src = str(Path(earshot.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / f"features_{threads}.csv"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        subprocess.run([sys.executable, "-c", "import sys; from earshot.cli import main; "
                        "sys.exit(main(sys.argv[1:]))", "extract", str(bench_dir),
                        "--out", str(out)], env=env, check=True, capture_output=True)
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests[0] == digests[1]
