"""Plan-view acoustics: occlusion, first-order reflections, scene rendering."""

import dataclasses
import errno
import io
import json
import os
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from earshot import synth, util
from earshot._kernels_np import lerp_mix
from earshot.audio import ArrayGeometry, AudioClip, UnsupportedEncodingError, load_wav, write_wav
from earshot.beamform import argmax_doa, srp_phat
from earshot.dataset import load_manifest
from earshot.features import PipelineConfig, extract_feature
from earshot.stft import band_select, stft
from earshot.evaluate import feature_response
from earshot.synth import (
    ArrayPose,
    Scenario,
    SignalSpec,
    SourcePath,
    load_scenario,
    make_benchmark,
    random_planar_array,
    render,
    save_scenario,
    t_junction_scenario,
    t_junction_walls,
)
from earshot.util import derive_seed
from synthref import image_sources, line_of_sight, specular_valid

WALL_X = np.array([[[0.0, -1.0], [0.0, 1.0]]])  # a wall along the z axis


def doa_at(clip, geometry, t_e, cfg=None):
    cfg = cfg or PipelineConfig()
    end = int(round(t_e * clip.sample_rate))
    length = int(round(cfg.sample_len * clip.sample_rate))
    window = AudioClip(clip.samples[:, end - length : end], clip.sample_rate)
    stack = band_select(stft(window, cfg.frame_len, cfg.hop), cfg.f_min, cfg.f_max)
    return argmax_doa(srp_phat(stack, geometry, cfg.grid))


def test_line_of_sight_basics():
    assert line_of_sight(np.zeros((0, 2, 2)), [-1, 0], [1, 0])
    assert not line_of_sight(WALL_X, [-1, 0], [1, 0])  # straight through
    assert line_of_sight(WALL_X, [-1, 2], [1, 2])  # passes above the end
    assert not line_of_sight(WALL_X, [-1, 0], [0, 0])  # endpoint on the wall
    assert not line_of_sight(WALL_X, [0, -1], [0, 0.5])  # collinear overlap
    assert line_of_sight(WALL_X, [0, 2], [0, 3])  # collinear but disjoint
    assert line_of_sight(WALL_X, [1, -1], [1, 1])  # parallel, offset


def test_image_sources():
    walls = np.array([[[-1.0, 0.0], [1.0, 0.0]], [[2.0, -1.0], [2.0, 1.0]]])
    images = image_sources(walls, [0.0, 2.0])
    assert len(images) == 2
    point, idx = images[0]
    assert idx == 0
    assert np.allclose(point, [0.0, -2.0])
    point, idx = images[1]
    assert np.allclose(point, [4.0, 2.0])


def test_specular_validity():
    wall = np.array([[[-1.0, 0.0], [1.0, 0.0]]])
    # mirror-symmetric pair above the wall reflects at the origin
    assert specular_valid(wall, 0, [-0.5, 1.0], [0.5, 1.0])
    # reflection point would land outside the finite segment
    assert not specular_valid(wall, 0, [2.0, 1.0], [6.0, 1.0])
    # opposite sides of the wall: no specular path
    assert not specular_valid(wall, 0, [-0.5, 1.0], [0.5, -1.0])
    # a second wall cutting the reflected leg invalidates the path
    blocker = np.array(
        [[[-1.0, 0.0], [1.0, 0.0]], [[0.05, 0.2], [0.2, 0.2]]]
    )
    assert not specular_valid(blocker, 0, [-0.5, 1.0], [0.5, 1.0])
    # source on the wall plane has no image side
    assert not specular_valid(wall, 0, [0.5, 0.0], [0.5, 1.0])


def test_source_path_clamps_outside_span():
    path = SourcePath(times=np.array([1.0, 3.0]),
                      points=np.array([[0.0, 0.0], [4.0, 0.0]]))
    assert np.allclose(path.position(0.0), [0.0, 0.0])
    assert np.allclose(path.position(2.0), [2.0, 0.0])
    assert np.allclose(path.position(9.0), [4.0, 0.0])
    with pytest.raises(ValueError):
        SourcePath(times=np.array([1.0, 1.0]), points=np.zeros((2, 2)))


def test_stationary_open_source_localizes():
    """A parked source at +45 deg with clear view lands in the right bin."""
    d = 12.0
    pos = [d * np.sin(np.deg2rad(45.0)), d * np.cos(np.deg2rad(45.0))]
    scenario = Scenario(
        label="right",
        duration=1.5,
        seed=3,
        path=SourcePath(times=np.array([0.0, 1.5]), points=np.array([pos, pos])),
    )
    geom = random_planar_array(8, seed=1)
    rec = render(scenario, geom)
    assert rec.t0 == 0.0  # visible from the first sample
    assert doa_at(rec.clip, geom, 1.5) in (39.0, 45.0, 51.0)


@pytest.mark.parametrize("seed", [0, 1])
def test_occluded_approach_appears_from_the_other_side(seed):
    """Before line of sight, the wall reflection dominates the DoA map."""
    scenario = t_junction_scenario("right", env_type="A", seed=seed)
    geom = random_planar_array(8, seed=7)
    rec = render(scenario, geom)
    assert rec.t0 is not None
    assert doa_at(rec.clip, geom, rec.t0) < 0.0


def test_none_scene_is_floor_noise():
    scenario = t_junction_scenario("none", seed=5, duration=2.0)
    geom = random_planar_array(4, seed=2)
    rec = render(scenario, geom)
    assert rec.t0 is None
    rms = float(np.sqrt(np.mean(rec.clip.samples**2)))
    assert abs(rms - scenario.noise_floor) < 0.2 * scenario.noise_floor


def test_reported_t0_is_first_line_of_sight_sample():
    scenario = t_junction_scenario("left", env_type="A", seed=9)
    geom = random_planar_array(4, seed=0)
    rec = render(scenario, geom)
    fs = rec.clip.sample_rate
    center = np.asarray(scenario.pose.position)

    def visible(t):
        src = scenario.path.position(t)[0]
        return line_of_sight(scenario.walls, src, center)

    assert visible(rec.t0)
    assert not visible(rec.t0 - 1.0 / fs)
    assert 3.5 < rec.t0 < 5.5  # near the configured target


def test_mirrored_scene_renders_mirrored_samples():
    """Left approach seen by the flipped array matches a right approach.

    The two renders accumulate wall contributions in swapped order, so
    samples agree to rounding rather than bit for bit.
    """
    kw = dict(env_type="A", seed=11, speed_kmh=24.0, street_width=6.5,
              cross_width=7.5, standoff=9.0, t0_target=4.2)
    left = t_junction_scenario("left", **kw)
    right = t_junction_scenario("right", **kw)
    geom = random_planar_array(6, seed=13)
    rec_left = render(left, geom.mirrored_x())
    rec_right = render(right, geom)
    assert rec_left.t0 == rec_right.t0
    assert np.allclose(rec_left.clip.samples, rec_right.clip.samples,
                       rtol=0.0, atol=1e-12)


def test_t_junction_walls_layout():
    a = t_junction_walls("A", 7.0, 7.0, 8.0)
    b = t_junction_walls("B", 7.0, 7.0, 8.0)
    assert a.shape == (3, 2, 2)  # two corner walls plus the far wall
    assert b.shape == (2, 2, 2)
    assert np.all(a[2, :, 1] == 15.0)  # far wall at standoff + crossing width
    with pytest.raises(ValueError):
        t_junction_walls("C", 7.0, 7.0, 8.0)


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(label="behind", duration=1.0, seed=0)
    with pytest.raises(ValueError):
        Scenario(label="left", duration=1.0, seed=0, path=None)
    with pytest.raises(ValueError):
        Scenario(label="none", duration=0.0, seed=0)


def test_scenario_json_round_trip(tmp_path):
    scenario = t_junction_scenario("right", env_type="B", seed=21, speed_kmh=17.5)
    path = tmp_path / "scene.json"
    save_scenario(scenario, path)
    back = load_scenario(path)
    assert back.label == scenario.label
    assert back.duration == scenario.duration
    assert back.seed == scenario.seed
    assert np.array_equal(back.walls, scenario.walls)
    assert np.array_equal(back.path.points, scenario.path.points)
    assert back.signal.tone_fundamental == scenario.signal.tone_fundamental
    assert back.snr_db == scenario.snr_db
    # a reload renders the identical clip
    geom = random_planar_array(3, seed=4)
    assert np.array_equal(render(back, geom).clip.samples,
                          render(scenario, geom).clip.samples)


def test_random_planar_array_properties():
    geom = random_planar_array(8, seed=0)
    assert geom.n_mics == 8
    assert np.all(np.abs(geom.positions[:, 0]) <= 0.4)
    assert np.all(np.abs(geom.positions[:, 1]) <= 0.35)
    assert np.all(geom.positions[:, 2] == 0.0)
    assert not np.array_equal(geom.positions,
                              random_planar_array(8, seed=1).positions)
    with pytest.raises(ValueError):
        random_planar_array(1)


def test_make_benchmark_files(bench_dir, bench_manifest):
    root = os.path.dirname(bench_dir)
    names = sorted(os.listdir(root))
    wavs = [n for n in names if n.endswith(".wav")]
    scenes = [n for n in names if n.endswith(".scenario.json")]
    assert len(wavs) == 12 and len(scenes) == 12
    assert "geometry.json" in names and "manifest.csv" in names
    per_class = {}
    for e in bench_manifest:
        per_class[e.situation] = per_class.get(e.situation, 0) + 1
        if e.situation == "none":
            assert e.t0 is None
        else:
            assert e.t0 is not None
    assert per_class == {"left": 4, "right": 4, "none": 4}
    clip = load_wav(bench_manifest.entries[0].wav)
    assert clip.channels == 8 and clip.sample_rate == 48000


def test_make_benchmark_deterministic(tmp_path):
    first = make_benchmark(tmp_path / "one", per_class=1, seed=31)
    second = make_benchmark(tmp_path / "two", per_class=1, seed=31)
    with open(first) as fa, open(second) as fb:
        assert fa.read() == fb.read()
    for name in os.listdir(tmp_path / "one"):
        a = (tmp_path / "one" / name).read_bytes()
        b = (tmp_path / "two" / name).read_bytes()
        assert a == b, name


class _DiskFull(io.FileIO):
    """A binary file that takes half of each write, then reports ENOSPC."""

    def write(self, data):
        data = memoryview(data).cast("B")
        super().write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_make_benchmark_cleanup_on_failure(tmp_path, monkeypatch):
    out = tmp_path / "broken"
    with pytest.raises(UnsupportedEncodingError):
        make_benchmark(out, per_class=1, seed=0, encoding="nope")
    leftovers = [n for n in os.listdir(out)]
    assert leftovers == []
    with pytest.raises(ValueError):
        make_benchmark(tmp_path / "x", per_class=0)
    with pytest.raises(ValueError, match="at least 2 microphones"):
        make_benchmark(tmp_path / "one-mic", per_class=1, n_mics=1)
    assert not (tmp_path / "one-mic").exists()

    # The disk fills up partway through the first WAV: neither the WAV nor
    # its temp file may stay behind.
    def open_full_disk(file, mode="r", *args, **kwargs):
        if "b" in mode:
            return _DiskFull(file, mode)
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(util, "open", open_full_disk, raising=False)
    with pytest.raises(OSError, match=os.strerror(errno.ENOSPC)):
        make_benchmark(tmp_path / "full", per_class=1, seed=0)
    assert os.listdir(tmp_path / "full") == []


def _render_threads_alive():
    return [t.name for t in threading.enumerate() if t.name.startswith("earshot-render")]


def test_make_benchmark_bytes_do_not_depend_on_the_thread_count(tmp_path, monkeypatch):
    """One, two or three threads write the same tree, byte for byte, and each
    of the threads renders a scene."""
    trees = []
    for cores in (1, 2, 3):
        monkeypatch.setattr(util, "_usable_cores", lambda cores=cores: cores)
        barrier = threading.Barrier(cores)
        lock, seen = threading.Lock(), set()

        def spy(scenario, geometry, *args):
            name = threading.current_thread().name
            with lock:
                first = name not in seen
                seen.add(name)
            if first:  # hold each thread's first scene until every thread has one
                barrier.wait(timeout=60)
            return render(scenario, geometry, *args)

        monkeypatch.setattr(synth, "render", spy)
        out = tmp_path / f"cores{cores}"
        make_benchmark(out, per_class=1, seed=31)
        assert len(seen) == cores
        trees.append({name: (out / name).read_bytes() for name in sorted(os.listdir(out))})
    assert _render_threads_alive() == []
    assert len(trees[0]) == 8  # geometry, manifest, and a WAV and scenario per scene
    assert trees[0] == trees[1] == trees[2]


@pytest.mark.parametrize("cores", [1, 3])
def test_make_benchmark_failure_mid_corpus_removes_every_file(tmp_path, monkeypatch, cores):
    """Two scenes fail mid-corpus, the later one first: the earlier scene's
    error is raised, as a serial loop would raise it, and no file of the call
    stays behind, the scenes written before the failure included."""
    monkeypatch.setattr(util, "_usable_cores", lambda: cores)
    slow = derive_seed(5, "A-right-1")
    fast = derive_seed(5, "A-none-0")

    def failing(scenario, geometry, *args):
        if scenario.seed == slow:
            time.sleep(0.2)  # let the later scene fail first
            raise RuntimeError("right scene 1 failed")
        if scenario.seed == fast:
            raise RuntimeError("none scene 0 failed")
        return render(scenario, geometry, *args)

    monkeypatch.setattr(synth, "render", failing)
    out = tmp_path / "corpus"
    with pytest.raises(RuntimeError, match="right scene 1 failed"):
        make_benchmark(out, per_class=2, env_type="A", seed=5)
    assert os.listdir(out) == []
    assert _render_threads_alive() == []


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 9),
    cols=st.one_of(st.integers(1, 300), st.integers(1, 400_000),
                   st.sampled_from([k * 2**16 + d for k in (1, 2, 3) for d in (-8, -1, 0, 1, 8)])),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(1e-6, 1e3),
)
def test_mean_square_is_numpys_mean_bit_for_bit(rows, cols, seed, scale):
    """The leaf-blocked sum rebuilds NumPy's pairwise order; a NumPy whose
    reduction sums in another order fails here."""
    x = np.random.default_rng(seed).standard_normal((rows, cols)) * scale
    assert synth._mean_square(x) == float(np.mean(x**2))


def test_render_peak_stays_near_its_result():
    """A stock scene (7.5 s, 8 mics) holds the result plus about one
    channel's worth of arrays at its peak."""
    scenario = t_junction_scenario("left", env_type="A", seed=1)
    geom = random_planar_array(8, seed=0)
    tracemalloc.start()
    try:
        rec = render(scenario, geom)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rec.clip.duration == 7.5
    assert peak <= 1.4 * rec.clip.samples.nbytes


def test_render_scales_a_clip_that_peaks_above_095_down_to_095(tmp_path):
    """A source passing 0.2 m from the array peaks above 0.95 before the
    normalisation; the clip comes back at exactly 0.95 and writes as pcm24."""
    scenario = Scenario(label="left", duration=2.0, seed=3,
                        path=SourcePath([0.0, 2.0], [[-5.0, 0.2], [5.0, 0.2]]))
    rec = render(scenario, random_planar_array(4, seed=1))
    samples = rec.clip.samples
    assert float(max(samples.max(), -samples.min())) == 0.95
    write_wav(rec.clip, tmp_path / "loud.wav", encoding="pcm24")
    assert np.abs(load_wav(tmp_path / "loud.wav").samples - samples).max() < 2.0**-23


# ---------------------------------------------------------------------------
# bit-exact reference: the full-length, per-microphone renderer


def _reference_blocked_matrix(walls, p, q):
    if walls.size == 0:
        return np.zeros((p.shape[0], 0), dtype=bool)
    a = walls[:, 0, :][None, :, :]
    b = walls[:, 1, :][None, :, :]
    p = p[:, None, :]
    q = q[:, None, :]
    ab = b - a
    pq = q - p

    def cross(u, v):
        return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]

    d1, d2 = cross(ab, p - a), cross(ab, q - a)
    d3, d4 = cross(pq, a - p), cross(pq, b - p)
    hit = (d1 * d2 <= 0) & (d3 * d4 <= 0)
    collinear = (d1 == 0) & (d2 == 0) & (d3 == 0) & (d4 == 0)
    if np.any(collinear):
        overlap = np.all((np.minimum(p, q) <= np.maximum(a, b))
                         & (np.minimum(a, b) <= np.maximum(p, q)), axis=-1)
        hit = np.where(collinear, overlap, hit)
    return hit


def _reference_specular_valid(walls, wall_index, src, receiver):
    a, b = walls[wall_index, 0], walls[wall_index, 1]
    u = b - a
    length = np.linalg.norm(u)
    u = u / length
    n = np.array([-u[1], u[0]])
    d_src = (src - a) @ n
    d_rec = float((receiver - a) @ n)
    image = src - 2.0 * d_src[:, None] * n
    denom = d_src + d_rec
    with np.errstate(divide="ignore", invalid="ignore"):
        t_star = np.where(denom != 0, d_src / denom, 0.0)
    point = image + t_star[:, None] * (receiver - image)
    xi = (point - a) @ u
    others = walls[np.arange(walls.shape[0]) != wall_index]
    leg1 = _reference_blocked_matrix(others, src, point).any(axis=1)
    leg2 = _reference_blocked_matrix(
        others, point, np.broadcast_to(receiver, src.shape)).any(axis=1)
    return ((d_src * d_rec) > 0) & (xi >= 0.0) & (xi <= length) & ~leg1 & ~leg2


def _reference_mirror(points, a, b):
    u = (b - a) / np.linalg.norm(b - a)
    n = np.array([-u[1], u[0]])
    return points - 2.0 * ((points - a) @ n)[:, None] * n


def _reference_render(scenario, geometry, fs=48000):
    """Every path over the whole scene, one microphone at a time."""
    stride = 64
    n = int(round(scenario.duration * fs))
    mics = synth._mic_world_positions(geometry, scenario.pose)
    center = np.asarray(scenario.pose.position, dtype=np.float64)
    walls, c, m = scenario.walls, geometry.speed_of_sound, geometry.n_mics
    mixed = np.zeros((m, n))
    t0 = None
    if scenario.path is not None:
        src = scenario.path.position(np.arange(n) / fs)
        coarse = src[::stride]
        ok = ~_reference_blocked_matrix(
            walls, coarse, np.broadcast_to(center, coarse.shape)).any(axis=1)
        if np.any(ok):
            i_c = int(np.argmax(ok)) * stride
            lo = max(0, i_c - stride)
            seg = src[lo:i_c + 1]
            exact = ~_reference_blocked_matrix(
                walls, seg, np.broadcast_to(center, seg.shape)).any(axis=1)
            t0 = float(lo + np.argmax(exact)) / fs
        probe_t = np.unique(np.concatenate([[0.0, scenario.duration], scenario.path.times]))
        probe = scenario.path.position(np.clip(probe_t, 0.0, scenario.duration))
        candidates = [probe] + [_reference_mirror(probe, w[0], w[1]) for w in walls]
        max_dist = max(float(np.hypot(*(pts - mic).T).max())
                       for pts in candidates for mic in mics)
        lead = int(np.ceil(max_dist / c * fs)) + 8
        sig = synth._source_signal(scenario.signal, lead + n + 2, fs,
                                   derive_seed(scenario.seed, "source"))
        images = [_reference_mirror(src, w[0], w[1]) for w in walls]
        for mi, mic in enumerate(mics):
            masks = [~_reference_blocked_matrix(
                walls, coarse, np.broadcast_to(mic, coarse.shape)).any(axis=1)]
            masks += [_reference_specular_valid(walls, w, coarse, mic)
                      for w in range(len(walls))]
            for mask, pts in zip(masks, [src] + images):
                if np.any(mask):
                    dist = np.hypot(*(pts - mic).T)
                    amp = np.repeat(mask, stride)[:n] / np.maximum(dist, 0.5)
                    lerp_mix(mixed[mi], sig, dist * (fs / c), amp, lead)
    rng = np.random.default_rng(derive_seed(scenario.seed, "noise"))
    rms = float(np.sqrt(np.mean(mixed**2)))
    std = rms * 10.0 ** (-scenario.snr_db / 20.0) if rms > 0 else scenario.noise_floor
    mixed = mixed + rng.standard_normal((m, n)) * std
    peak = float(np.max(np.abs(mixed)))
    if peak > 0.95:
        mixed *= 0.95 / peak
    return mixed, t0


def _zigzag_scene(seed):
    """Slanted walls and a source weaving in and out of view and of every mirror."""
    rng = np.random.default_rng(seed)
    walls = np.array([[[-4.0, -20.0], [-3.5, 9.0]], [[4.2, -20.0], [3.3, 8.5]],
                      [[-40.0, 16.0], [40.0, 17.3]], [[6.0, 10.0], [9.0, 12.5]]])
    times = np.linspace(0.0, 1.2, 7)
    points = np.column_stack([rng.uniform(-25.0, 25.0, 7), rng.uniform(9.0, 15.0, 7)])
    return Scenario(label="right", duration=1.2, seed=seed, walls=walls,
                    path=SourcePath(times, points), signal=SignalSpec(tone_fundamental=100.0),
                    pose=ArrayPose((0.3, -0.2), heading_deg=12.0))


@pytest.mark.parametrize("scenario", [
    _zigzag_scene(3),  # slanted walls, a rotated and shifted pose, a tone
    Scenario(label="none", duration=0.4, seed=2, walls=_zigzag_scene(3).walls[:2],
             signal=SignalSpec(band=(80.0, 900.0), tone_harmonics=2, tone_gain=0.25),
             pose=ArrayPose((1.5, -2.0), heading_deg=-30.0), snr_db=9.0, noise_floor=0.01),
], ids=["zigzag", "none"])
def test_scenario_dict_round_trip(scenario):
    """from_dict(to_dict(s)) rebuilds every field, path None included."""
    back = Scenario.from_dict(scenario.to_dict())
    assert back.to_dict() == scenario.to_dict()
    assert (back.path is None) == (scenario.path is None)
    assert back.signal == scenario.signal and back.pose == scenario.pose
    geom = random_planar_array(3, seed=4)
    assert np.array_equal(render(back, geom).clip.samples, render(scenario, geom).clip.samples)


@pytest.mark.parametrize("key", ["walls", "path", "signal", "pose", "snr_db", "noise_floor",
                                 "signal.band", "signal.tone_gain", "pose.heading_deg"])
def test_scenario_dict_missing_key_raises(key):
    """to_dict writes every key, so from_dict takes none of them as a default."""
    d = _zigzag_scene(3).to_dict()
    outer, _, inner = key.partition(".")
    if inner:
        del d[outer][inner]
    else:
        del d[outer]
    with pytest.raises(KeyError):
        Scenario.from_dict(d)


@pytest.mark.parametrize("make, name", [
    (lambda: SourcePath([0.0, 1.0], [[0.0, 9.0], [float("nan"), 9.0]]), "points"),
    (lambda: SignalSpec(tone_fundamental=float("inf")), "tone_fundamental"),
    (lambda: ArrayPose(heading_deg=float("-inf")), "heading_deg"),
    (lambda: Scenario("none", 1.0, 0, snr_db=float("nan")), "snr_db"),
])
def test_code_built_scene_parts_refuse_non_finite_numbers(make, name):
    """The checks a scenario file gets are made at construction, so scenes
    built in code get them too."""
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        make()


_coords = st.floats(-100.0, 100.0)


@st.composite
def _scenarios(draw):
    """Any scene a scenario file can hold: 0-4 walls, no path or 1-6
    waypoints, a signal with or without a tone, a pose and the noise levels."""
    walls = draw(st.lists(st.lists(_coords, min_size=4, max_size=4), max_size=4))
    n = draw(st.integers(0, 6))
    path = None
    if n:
        steps = draw(st.lists(st.floats(0.01, 5.0), min_size=n, max_size=n))
        times = draw(st.floats(-5.0, 5.0)) + np.cumsum(steps)
        path = SourcePath(times, draw(st.lists(st.tuples(_coords, _coords), min_size=n,
                                               max_size=n)))
    low = draw(st.floats(1.0, 1000.0))
    signal = SignalSpec(band=(low, low + draw(st.floats(1.0, 20000.0))),
                        tone_fundamental=draw(st.none() | st.floats(20.0, 500.0)),
                        tone_harmonics=draw(st.integers(1, 8)),
                        tone_gain=draw(st.floats(0.0, 1.0)))
    return Scenario(label=draw(st.sampled_from(["left", "right", "none"] if path else ["none"])),
                    duration=draw(st.floats(0.01, 30.0)), seed=draw(st.integers(0, 2**32 - 1)),
                    walls=walls, path=path, signal=signal,
                    pose=ArrayPose((draw(_coords), draw(_coords)),
                                   heading_deg=draw(st.floats(-180.0, 180.0))),
                    snr_db=draw(st.floats(-10.0, 40.0)), noise_floor=draw(st.floats(0.0, 0.1)))


@settings(max_examples=100, deadline=None)
@given(scenario=_scenarios())
def test_scenario_file_round_trip(tmp_path_factory, scenario):
    """load_scenario(save_scenario(s)) gives s back field for field, and
    saving the loaded scene again writes the same bytes."""
    path = tmp_path_factory.mktemp("scene") / "scene.json"
    save_scenario(scenario, path)
    back = load_scenario(path)
    assert back.to_dict() == scenario.to_dict()
    assert back.signal == scenario.signal and back.pose == scenario.pose
    again = path.with_name("again.json")
    save_scenario(back, again)
    assert again.read_bytes() == path.read_bytes()


def _edit_scene(change):
    def apply(text):
        payload = json.loads(text)
        change(payload)
        return json.dumps(payload)
    return apply


# One hand edit of a valid scenario file per way it can go wrong, and the
# text its error must hold.
SCENARIO_EDITS = {
    "truncated": (lambda text: text[: len(text) // 2], "Expecting"),
    "not-an-object": (lambda text: "[1, 2]", "bad scenario file"),
    "no-walls": (_edit_scene(lambda p: p.pop("walls")), "lacks the key 'walls'"),
    "no-waypoint-times": (_edit_scene(lambda p: p["path"].pop("times")),
                          "lacks the key 'times'"),
    "string-duration": (_edit_scene(lambda p: p.update(duration="5")), "bad scenario file"),
    "string-walls": (_edit_scene(lambda p: p.update(walls="abc")), "could not convert"),
    "ragged-walls": (_edit_scene(lambda p: p["walls"][0].pop()), "inhomogeneous"),
    "number-path": (_edit_scene(lambda p: p.update(path=5)), "not subscriptable"),
    "number-band": (_edit_scene(lambda p: p["signal"].update(band=5)), "not iterable"),
    "unknown-label": (_edit_scene(lambda p: p.update(label="front")), "scenario label"),
    "huge-int-wall": (_edit_scene(lambda p: p["walls"][0][0].__setitem__(0, 10**400)),
                      "too large to convert"),
    "reversed-times": (_edit_scene(lambda p: p["path"]["times"].reverse()), "strictly increasing"),
    "bool-duration": (_edit_scene(lambda p: p.update(duration=True)),
                      "duration: could not convert true to a number"),
    "string-seed": (_edit_scene(lambda p: p.update(seed="x")),
                    'seed: could not convert "x" to an integer'),
    "float-seed": (_edit_scene(lambda p: p.update(seed=1.5)),
                   "seed: could not convert 1.5 to an integer"),
    "string-snr": (_edit_scene(lambda p: p.update(snr_db="15")),
                   'snr_db: could not convert "15" to a number'),
    "null-noise-floor": (_edit_scene(lambda p: p.update(noise_floor=None)),
                         "noise_floor: could not convert null to a number"),
    "float-harmonics": (_edit_scene(lambda p: p["signal"].update(tone_harmonics=4.5)),
                        "signal.tone_harmonics: could not convert 4.5 to an integer"),
    # JSON's NaN and Infinity parse to floats, which no scene number may hold
    "nan-snr": (_edit_scene(lambda p: p.update(snr_db=float("nan"))), "snr_db must be finite"),
    "infinite-duration": (_edit_scene(lambda p: p.update(duration=float("inf"))),
                          "duration must be finite"),
    "nan-noise-floor": (_edit_scene(lambda p: p.update(noise_floor=float("nan"))),
                        "noise_floor must be finite"),
    "infinite-wall": (_edit_scene(lambda p: p["walls"][0][0].__setitem__(0, float("-inf"))),
                      "walls must be finite"),
    "nan-waypoint": (_edit_scene(lambda p: p["path"]["points"][0].__setitem__(0, float("nan"))),
                     "points must be finite"),
    "infinite-band": (_edit_scene(lambda p: p["signal"].update(band=[50.0, float("inf")])),
                      "band must be finite"),
    "nan-heading": (_edit_scene(lambda p: p["pose"].update(heading_deg=float("nan"))),
                    "heading_deg must be finite"),
    "huge-int-duration": (_edit_scene(lambda p: p.update(duration=10**400)),
                          "too large to convert"),
}


@pytest.mark.parametrize("case", sorted(SCENARIO_EDITS))
def test_load_scenario_rejects_hand_edited_files(tmp_path, case):
    """Each edit is one ValueError that starts with the file's path."""
    good = tmp_path / "good.json"
    save_scenario(t_junction_scenario("left", seed=3), good)
    edit, message = SCENARIO_EDITS[case]
    bad = tmp_path / f"{case}.json"
    bad.write_text(edit(good.read_text()))
    with pytest.raises(ValueError) as exc:
        load_scenario(bad)
    assert type(exc.value) is ValueError
    assert str(exc.value).startswith(f"{bad}: ") and message in str(exc.value)


def test_a_planar_array_cannot_tell_front_from_back():
    """Every microphone of random_planar_array lies at z = 0, so without
    walls a car and its mirror image across z = 0 render the same bytes.
    The same positions with y and z swapped have depth, and hear the
    difference."""
    scene = t_junction_scenario("left", seed=41)
    open_scene = dataclasses.replace(scene, walls=np.zeros((0, 2, 2)))
    mirrored = dataclasses.replace(
        open_scene, path=SourcePath(scene.path.times, scene.path.points * [1.0, -1.0]))
    planar = random_planar_array(8, seed=43)
    assert np.all(planar.positions[:, 2] == 0.0)
    deep = ArrayGeometry(planar.positions[:, [0, 2, 1]])
    for geometry, same in ((planar, True), (deep, False)):
        a, b = (render(s, geometry).clip.samples for s in (open_scene, mirrored))
        assert (a.tobytes() == b.tobytes()) is same


def test_blocked_matrix_matches_reference_on_touching_and_collinear_segments():
    rng = np.random.default_rng(5)
    # small integer grids make endpoints touch and segments run collinear
    walls = rng.integers(-3, 4, size=(6, 2, 2)).astype(np.float64)
    p = rng.integers(-3, 4, size=(4000, 2)).astype(np.float64)
    q = rng.integers(-3, 4, size=(4000, 2)).astype(np.float64)
    got = synth._blocked_matrix(walls, p, q)
    assert np.array_equal(got, _reference_blocked_matrix(walls, p, q))
    assert got.any() and not got.all()
    walls, p, q = rng.normal(size=(5, 2, 2)), rng.normal(size=(4000, 2)), rng.normal(size=(4000, 2))
    assert np.array_equal(synth._blocked_matrix(walls, p, q),
                          _reference_blocked_matrix(walls, p, q))


def test_blocked_matrix_broadcast_equals_the_tiled_call():
    """An (R, 1, 2) x (1, N, 2) call is the tiled (R * N, 2) call reshaped, on
    integer grids where segments touch walls and run along them."""
    rng = np.random.default_rng(12)
    walls = rng.integers(-3, 4, size=(6, 2, 2)).astype(np.float64)
    p = rng.integers(-3, 4, size=(40, 2)).astype(np.float64)
    q = rng.integers(-3, 4, size=(90, 2)).astype(np.float64)
    got = synth._blocked_matrix(walls, p[:, None], q[None])
    tiled = synth._blocked_matrix(walls, np.repeat(p, len(q), axis=0), np.tile(q, (len(p), 1)))
    assert got.shape == (40, 90, 6)
    assert np.array_equal(got, tiled.reshape(40, 90, 6))
    assert got.any() and not got.all()
    ab = walls[:, 1] - walls[:, 0]

    def cross(u, v):
        return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]

    # some segment runs along some wall, so the collinear branch decides it
    along = (cross(ab, p[:, None, None] - walls[:, 0]) == 0) & (
        cross(ab, q[None, :, None] - walls[:, 0]) == 0)
    assert along.any()
    assert synth._blocked_matrix(walls[:0], p[:, None], q[None]).shape == (40, 90, 0)


@pytest.mark.parametrize("case", ["A-left", "B-right", "A-none", "zigzag"])
@pytest.mark.parametrize("n_mics", [4, 8])
def test_render_matches_full_length_reference_bit_for_bit(case, n_mics):
    """Mixing only the valid stretches, for all mics at once, changes no bit."""
    if case == "zigzag":
        scenario = _zigzag_scene(n_mics)
    else:
        env, label = case.split("-")
        scenario = t_junction_scenario(label, env_type=env, seed=n_mics, t0_target=1.0,
                                       post_roll=0.6, duration=0.9, speed_kmh=40.0)
    geom = random_planar_array(n_mics, seed=3)
    rec = render(scenario, geom)
    samples, t0 = _reference_render(scenario, geom)
    assert rec.t0 == t0
    assert np.array_equal(rec.clip.samples, samples)
    if case == "zigzag":
        # the direct path and some mirror open and close more than once
        coarse = scenario.path.position(np.arange(0, rec.clip.n_samples, 64) / 48000)
        valid = synth._path_validity(scenario.walls, coarse,
                                     synth._mic_world_positions(geom, scenario.pose))
        opens = np.diff(valid.astype(np.int8), axis=-1).clip(0).sum(axis=-1)
        assert opens[:, 0].max() >= 2 and opens[:, 1:].max() >= 2


@pytest.mark.parametrize("extra", [-1, 0, 1, 2])
def test_render_matches_the_reference_around_a_block_edge(extra):
    """Scenes ending one sample before, at, and one or two samples past the
    end of the first mixing block keep the reference's bits; a lone last
    sample is mixed with the block before it (seed 6 hears a mirror there, and
    a one-row mirror would round differently)."""
    scenario = _zigzag_scene(6)
    scenario.duration = (synth._BLOCK + extra) / 48000
    geom = random_planar_array(4, seed=3)
    rec = render(scenario, geom)
    samples, t0 = _reference_render(scenario, geom)
    assert rec.clip.n_samples == synth._BLOCK + extra
    assert rec.t0 == t0
    assert np.array_equal(rec.clip.samples, samples)


def test_benchmark_side_samples_score_off_side(bench_flat):
    """Occluded windows rarely put their strongest direction on the true side.

    Reflections own the peak before line of sight, so a plain angle
    threshold credits the approach side for almost no side-labeled
    windows.
    """
    from earshot.classifier import classify_azimuth

    sides = [s for s in bench_flat if s.label in ("left", "right")]
    assert sides
    credited = 0
    for s in sides:
        alpha = argmax_doa(feature_response(s))
        if classify_azimuth(alpha) == s.label:
            credited += 1
    assert credited / len(sides) <= 0.25
