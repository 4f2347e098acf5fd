"""Plan-view scene synthesis: blind corners, first-order echoes, moving cars.

Scenes live in a 2D top-down coordinate system (x right, z forward, meters)
with the microphone array at a fixed pose.  Walls are line segments that both
block sound and mirror it: a source contributes its direct path when the
straight line to a microphone clears every wall, plus one image per wall whose
specular reflection point falls on the wall segment with both legs clear.
Touching a wall endpoint counts as blocked, so geometry is conservative.

Rendering walks the source along its path.  Which paths exist is decided
per 64-sample stretch, for the direct path and every wall image and for all
microphones at once.  The scene is then mixed in blocks: a block skips the
paths no microphone hears in it, mirrors its source positions once per heard
image, and mixes into each channel only the stretches where the path is
valid, each sample with its fractional delay (distance / c) and
1/max(d, 0.5 m) amplitude.  White background noise is added last, and the
first line-of-sight time t0 (to the array center) goes into the ground truth.

The stock scenario is a T-junction: the recorder looks down its own street at
the crossing street behind the corner buildings.  Type A environments have a
wall across the far side of the junction, type B leaves the far side open.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import _kernels_np
from .audio import ArrayGeometry, AudioClip, write_wav
from .dataset import ManifestEntry, RecordingManifest, save_manifest
from .util import derive_seed, load_json, parallel_map, save_json

_MASK_STRIDE = 64  # path validity is re-evaluated every this many samples (1.3 ms)
_BLOCK = 1 << 15  # samples of the source track positioned and mixed at once


# ---------------------------------------------------------------------------
# geometry predicates


def _cross2(ax, az, bx, bz):
    return ax * bz - az * bx


def _blocked_matrix(walls: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Which segments p -> q cross which walls; touching counts.

    walls: (W, 2, 2); p and q: (..., 2), broadcast against each other.
    Returns bool (..., W).  The arithmetic runs with the wall axis first, so
    its inner loops run over the segments, not over the few walls.
    """
    shape = np.broadcast_shapes(p.shape, q.shape)[:-1]
    if walls.size == 0:
        return np.zeros(shape + (0,), dtype=bool)
    corners = walls.reshape((walls.shape[0],) + (1,) * len(shape) + (2, 2))
    ax, az = corners[..., 0, 0], corners[..., 0, 1]  # (W, 1, ...)
    bx, bz = corners[..., 1, 0], corners[..., 1, 1]
    px, pz = p[..., 0], p[..., 1]
    qx, qz = q[..., 0], q[..., 1]
    abx, abz = bx - ax, bz - az
    pqx, pqz = qx - px, qz - pz
    pax, paz = px - ax, pz - az  # (W, ...)
    d1 = _cross2(abx, abz, pax, paz)
    d2 = _cross2(abx, abz, qx - ax, qz - az)
    d3 = _cross2(pax, paz, pqx, pqz)  # (p - a) x pq, bit for bit pq x (a - p)
    d4 = _cross2(pqx, pqz, bx - px, bz - pz)
    hit = (d1 * d2 <= 0) & (d3 * d4 <= 0)
    collinear = (d1 == 0) & (d2 == 0) & (d3 == 0) & (d4 == 0)
    if np.any(collinear):
        # Collinear segments block only when their extents actually overlap.
        overlap = ((np.minimum(px, qx) <= np.maximum(ax, bx))
                   & (np.minimum(ax, bx) <= np.maximum(px, qx))
                   & (np.minimum(pz, qz) <= np.maximum(az, bz))
                   & (np.minimum(az, bz) <= np.maximum(pz, qz)))
        hit = np.where(collinear, overlap, hit)
    return np.moveaxis(hit, 0, -1)


def _mirror_points(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reflect points across the infinite line through wall endpoints a, b."""
    u = b - a
    u = u / np.linalg.norm(u)
    n = np.array([-u[1], u[0]])
    dist = (points - a) @ n
    return points - 2.0 * dist[:, None] * n


def _specular_valid(walls, wall_index, src, receivers) -> np.ndarray:
    """Reflection validity via one wall for many source positions and receivers.

    src: (N, 2), receivers: (R, 2).  Returns bool (R, N).  The image and the
    source's wall distance are computed once; the legs of every receiver are
    tested against the other walls in one batch.
    """
    a, b = walls[wall_index, 0], walls[wall_index, 1]
    u = b - a
    length = np.linalg.norm(u)
    u = u / length
    n = np.array([-u[1], u[0]])
    d_src = (src - a) @ n
    image = src - 2.0 * d_src[:, None] * n
    d_rec = np.array([float((r - a) @ n) for r in receivers])[:, None]  # (R, 1)
    same_side = (d_src * d_rec) > 0

    denom = d_src + d_rec
    with np.errstate(divide="ignore", invalid="ignore"):
        t_star = np.where(denom != 0, d_src / denom, 0.0)
    point = image + t_star[..., None] * (receivers[:, None, :] - image)  # (R, N, 2)
    xi = (point - a) @ u
    on_wall = (xi >= 0.0) & (xi <= length)

    other_walls = walls[np.arange(walls.shape[0]) != wall_index]
    leg1 = _blocked_matrix(other_walls, src[None], point)
    leg2 = _blocked_matrix(other_walls, point, receivers[:, None])
    clear = ~(leg1 | leg2).any(axis=-1)
    return same_side & on_wall & clear


def _path_validity(walls, src, receivers) -> np.ndarray:
    """Direct-path and per-wall reflection validity, bool (R, 1 + W, N).

    Index 0 of the middle axis is the direct path, 1 + w the image in wall w.
    """
    valid = np.empty((receivers.shape[0], 1 + walls.shape[0], src.shape[0]), dtype=bool)
    valid[:, 0] = ~_blocked_matrix(walls, src[None], receivers[:, None]).any(axis=-1)
    for w in range(walls.shape[0]):
        valid[:, 1 + w] = _specular_valid(walls, w, src, receivers)
    return valid


# ---------------------------------------------------------------------------
# scenario description


def _finite(**values) -> None:
    """A ValueError naming the first value, None aside, that holds NaN or an
    infinity; an int too large for a float fails its conversion."""
    for name, value in values.items():
        if value is not None and not np.all(np.isfinite(np.asarray(value, dtype=np.float64))):
            raise ValueError(f"{name} must be finite")


@dataclass
class SourcePath:
    """Piecewise-linear 2D trajectory, clamped outside the waypoint span."""

    times: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.times.ndim != 1 or self.points.shape != (self.times.size, 2):
            raise ValueError("need times (P,) and points (P, 2)")
        _finite(times=self.times, points=self.points)
        if self.times.size < 1 or np.any(np.diff(self.times) <= 0):
            raise ValueError("waypoint times must be strictly increasing")

    def position(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=np.float64))
        x = np.interp(t, self.times, self.points[:, 0])
        z = np.interp(t, self.times, self.points[:, 1])
        return np.stack([x, z], axis=-1)


@dataclass
class SignalSpec:
    """Source signal recipe: band-passed pink noise plus optional engine comb."""

    band: tuple = (50.0, 1500.0)
    tone_fundamental: float | None = None
    tone_harmonics: int = 4
    tone_gain: float = 0.5

    def __post_init__(self):
        self.band = tuple(self.band)
        _finite(band=self.band, tone_fundamental=self.tone_fundamental, tone_gain=self.tone_gain)


@dataclass
class ArrayPose:
    position: tuple = (0.0, 0.0)
    heading_deg: float = 0.0

    def __post_init__(self):
        self.position = tuple(self.position)
        _finite(position=self.position, heading_deg=self.heading_deg)


@dataclass
class Scenario:
    label: str
    duration: float
    seed: int
    walls: np.ndarray = field(default_factory=lambda: np.zeros((0, 2, 2)))
    path: SourcePath | None = None
    signal: SignalSpec = field(default_factory=SignalSpec)
    pose: ArrayPose = field(default_factory=ArrayPose)
    snr_db: float = 15.0
    noise_floor: float = 0.005

    def __post_init__(self):
        if self.label not in ("left", "right", "none"):
            raise ValueError("scenario label must be left, right or none")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        self.walls = np.asarray(self.walls, dtype=np.float64).reshape(-1, 2, 2)
        _finite(duration=self.duration, walls=self.walls, snr_db=self.snr_db,
                noise_floor=self.noise_floor)
        if self.label != "none" and self.path is None:
            raise ValueError(f"{self.label} scenario needs a source path")


def load_scenario(path) -> Scenario:
    """Read a scenario file written by ``util.save_json`` (see ``util.load_json``)."""
    return load_json(Scenario, path, "scenario")


@dataclass
class RenderedRecording:
    clip: AudioClip
    t0: float | None


# ---------------------------------------------------------------------------
# signal generation and rendering


def _square_sum(flat: np.ndarray):
    """The sum of squares of a 1-D float64 array, in NumPy's pairwise order.

    NumPy sums a contiguous array pairwise: it splits a range at half its
    length, rounded down to a multiple of 8, until the pieces are short.
    Splitting the same way down to pieces of at most 2**16 elements and
    summing each piece's squares with ``np.sum`` rebuilds the same tree.
    """
    if flat.size <= 1 << 16:
        return np.sum(flat * flat)
    half = flat.size // 2
    half -= half % 8
    return _square_sum(flat[:half]) + _square_sum(flat[half:])


def _mean_square(x: np.ndarray) -> float:
    """``np.mean(x**2)`` of a C-contiguous float64 array, bit for bit, without
    an ``x``-sized temporary."""
    return float(_square_sum(x.reshape(-1)) / x.size)


def _source_signal(spec: SignalSpec, n_samples: int, sample_rate: int, seed: int) -> np.ndarray:
    """Unit-RMS band-passed pink noise, optionally with a harmonic comb."""
    rng = np.random.default_rng(seed)
    # round the FFT length up to a friendly size, then trim
    n_fft = -(-n_samples // 4096) * 4096
    spectrum = np.fft.rfft(rng.standard_normal(n_fft))
    freqs = np.fft.rfftfreq(n_fft, 1.0 / sample_rate)
    lo, hi = spec.band
    shape = np.zeros_like(freqs)
    inside = (freqs >= lo) & (freqs <= hi)
    shape[inside] = 1.0 / np.sqrt(np.maximum(freqs[inside], lo))
    spectrum *= shape
    del freqs, shape, inside
    sig = np.fft.irfft(spectrum, n=n_fft)[:n_samples]
    del spectrum
    sig /= np.sqrt(_mean_square(sig)) + 1e-30

    if spec.tone_fundamental is not None:
        t = np.arange(n_samples) / sample_rate
        comb = np.zeros(n_samples)
        wave = np.empty(n_samples)
        for h in range(1, spec.tone_harmonics + 1):
            phase = rng.uniform(0, 2 * np.pi)
            np.multiply(2 * np.pi * spec.tone_fundamental * h, t, out=wave)
            wave += phase
            np.sin(wave, out=wave)
            wave /= h
            comb += wave
        del t, wave
        comb /= np.sqrt(_mean_square(comb)) + 1e-30
        comb *= spec.tone_gain
        sig += comb
        sig /= np.sqrt(_mean_square(sig)) + 1e-30
    return sig


def _sample_runs(mask: np.ndarray, n: int) -> np.ndarray:
    """Runs of a per-block mask as sample (start, stop) rows, clipped to n."""
    runs = np.flatnonzero(np.diff(mask, prepend=False, append=False)).reshape(-1, 2)
    return np.minimum(runs * _MASK_STRIDE, n)


def _mic_world_positions(geometry: ArrayGeometry, pose: ArrayPose) -> np.ndarray:
    """Plan-view world coordinates of every microphone."""
    theta = np.deg2rad(pose.heading_deg)
    right = np.array([np.cos(theta), -np.sin(theta)])
    forward = np.array([np.sin(theta), np.cos(theta)])
    local = geometry.positions[:, [0, 2]]
    return np.asarray(pose.position) + local[:, :1] * right + local[:, 1:2] * forward


def _blocks(n: int):
    """(start, stop) of the blocks that cover n samples, _BLOCK at most; a
    lone last sample joins the block before it, so no block is one row."""
    edges = list(range(0, max(n - 1, 1), _BLOCK)) + [n]
    return zip(edges[:-1], edges[1:])


def _mix_source(scenario: Scenario, mics: np.ndarray, speed_of_sound: float, n: int,
                fs: int):
    """The source's direct path and wall images mixed into an (m, n) array,
    and the first line-of-sight time t0 (None if the source is never seen)."""
    path, walls = scenario.path, scenario.walls
    center = np.asarray(scenario.pose.position, dtype=np.float64)
    coarse = path.position(np.arange(0, n, _MASK_STRIDE) / fs)

    # t0: first sample where the source sees the array center.  A coarse
    # scan brackets the opening, then the bracket is refined per sample;
    # line-of-sight blips shorter than the mask stride before the first
    # bracketed opening are beyond the simulator's resolution.
    t0 = None
    coarse_ok = ~_blocked_matrix(walls, coarse, center).any(axis=-1)
    if np.any(coarse_ok):
        i_c = int(np.argmax(coarse_ok)) * _MASK_STRIDE
        lo = max(0, i_c - _MASK_STRIDE)
        seg = path.position(np.arange(lo, i_c + 1) / fs)
        exact_ok = ~_blocked_matrix(walls, seg, center).any(axis=-1)
        t0 = float(lo + np.argmax(exact_ok)) / fs

    # Path positions are piecewise linear and mirroring is affine, so
    # every source-to-mic distance peaks at a waypoint; that bounds the
    # look-back the source signal needs.
    probe_t = np.unique(np.concatenate([[0.0, scenario.duration], path.times]))
    probe = path.position(np.clip(probe_t, 0.0, scenario.duration))
    candidates = [probe] + [
        _mirror_points(probe, walls[w, 0], walls[w, 1]) for w in range(walls.shape[0])
    ]
    max_dist = max(
        float(np.hypot(*(pts - mic).T).max()) for pts in candidates for mic in mics
    )
    lead = int(np.ceil(max_dist / speed_of_sound * fs)) + 8
    sig = _source_signal(scenario.signal, lead + n + 2, fs, derive_seed(scenario.seed, "source"))
    valid = _path_validity(walls, coarse, mics)  # (m, 1 + W, blocks)

    # Each block mirrors its source positions once for every image that some
    # microphone hears in it, then mixes each microphone's runs.  Every step
    # works sample by sample (the mirror's matmul row by row, as no block is
    # one row), so mixing block by block gives the bits of one pass over the
    # whole scene.
    mixed = np.zeros((len(mics), n))
    scale = fs / speed_of_sound
    for a, b in _blocks(n):
        heard = valid[:, :, a // _MASK_STRIDE : -(-b // _MASK_STRIDE)]
        src = path.position(np.arange(a, b) / fs)
        for p in np.flatnonzero(heard.any(axis=(0, 2))):
            pts = src if p == 0 else _mirror_points(src, walls[p - 1, 0], walls[p - 1, 1])
            for mi, mic in enumerate(mics):
                for s, e in _sample_runs(heard[mi, p], b - a) + a:
                    seg = pts[s - a : e - a]
                    dist = np.hypot(seg[:, 0] - mic[0], seg[:, 1] - mic[1])
                    _kernels_np.lerp_mix(
                        mixed[mi, s:e], sig, dist * scale, 1.0 / np.maximum(dist, 0.5), lead + s
                    )
    return mixed, t0


def render(scenario: Scenario, geometry: ArrayGeometry) -> RenderedRecording:
    """Simulate the scene at 48 kHz into a multichannel clip with ground-truth t0.

    Beyond the (m, n) result, the working set is about one channel: the
    source signal while the paths are mixed, then one channel's noise.
    """
    fs = 48000
    n = int(round(scenario.duration * fs))
    m = geometry.n_mics
    if scenario.path is None:
        mixed, t0 = np.zeros((m, n)), None
    else:
        mics = _mic_world_positions(geometry, scenario.pose)
        mixed, t0 = _mix_source(scenario, mics, geometry.speed_of_sound, n, fs)

    clean_rms = float(np.sqrt(_mean_square(mixed)))
    if clean_rms > 0:
        noise_std = clean_rms * 10.0 ** (-scenario.snr_db / 20.0)
    else:
        noise_std = scenario.noise_floor
    # Drawn one channel at a time: the same stream as one (m, n) draw.
    noise_rng = np.random.default_rng(derive_seed(scenario.seed, "noise"))
    noise = np.empty(n)
    for channel in mixed:
        noise_rng.standard_normal(out=noise)
        noise *= noise_std
        channel += noise

    peak = float(max(mixed.max(), -mixed.min()))
    if peak > 0.95:
        mixed *= 0.95 / peak
    return RenderedRecording(AudioClip(mixed, fs), t0)


# ---------------------------------------------------------------------------
# stock scenes and benchmark generation


def random_planar_array(n_mics: int = 8, seed: int = 0) -> ArrayGeometry:
    """Semi-random vertical planar array, 0.8 m wide and 0.7 m high: jittered
    x slots, random heights.

    One microphone per horizontal slot keeps the aperture fully used while the
    jitter breaks up grating symmetries, similar in spirit to measured ad-hoc
    panel arrays.
    """
    if n_mics < 2:
        raise ValueError("need at least 2 microphones")
    rng = np.random.default_rng(seed)
    slot = 0.8 / n_mics
    x = -0.4 + slot * (np.arange(n_mics) + rng.uniform(0.15, 0.85, n_mics))
    y = rng.uniform(-0.35, 0.35, n_mics)
    positions = np.column_stack([x, y, np.zeros(n_mics)])
    return ArrayGeometry(positions)


def t_junction_walls(env_type: str, street_width: float, cross_width: float,
                     standoff: float) -> np.ndarray:
    """Corner walls of the recorder's street (from 30 m behind the array to the
    crossing street), plus the 100 m far wall for type A."""
    if env_type not in ("A", "B"):
        raise ValueError("env_type must be 'A' or 'B'")
    half = street_width / 2.0
    walls = [
        [[-half, -30.0], [-half, standoff]],
        [[half, -30.0], [half, standoff]],
    ]
    if env_type == "A":
        far = standoff + cross_width
        walls.append([[-50.0, far], [50.0, far]])
    return np.asarray(walls, dtype=np.float64)


def t_junction_scenario(label: str, env_type: str = "A", seed: int = 0,
                        speed_kmh: float = 20.0, street_width: float = 7.0,
                        cross_width: float = 7.0, standoff: float = 8.0,
                        lane_frac: float = 0.5, t0_target: float = 4.5,
                        post_roll: float = 3.0, duration: float | None = None,
                        tone_fundamental: float | None = 115.0) -> Scenario:
    """A car approaching a T-junction behind buildings, or an empty street.

    The car drives along the crossing street at constant speed and reaches
    line of sight with the array center at roughly t0_target seconds; for
    label "left" it comes from the left, mirrored for "right".
    """
    walls = t_junction_walls(env_type, street_width, cross_width, standoff)
    if label == "none":
        return Scenario(
            label=label,
            duration=duration if duration is not None else t0_target + post_roll,
            seed=seed,
            walls=walls,
            path=None,
            signal=SignalSpec(tone_fundamental=None),
        )

    v = speed_kmh / 3.6
    z_lane = standoff + cross_width * lane_frac
    x_los = z_lane * (street_width / 2.0) / standoff
    total = t0_target + post_roll
    x_start = x_los + v * t0_target
    x_end = x_start - v * total
    if label == "left":
        x_start, x_end = -x_start, -x_end
    path = SourcePath(
        times=np.array([0.0, total]),
        points=np.array([[x_start, z_lane], [x_end, z_lane]]),
    )
    return Scenario(
        label=label,
        duration=total,
        seed=seed,
        walls=walls,
        path=path,
        signal=SignalSpec(tone_fundamental=tone_fundamental),
    )


def make_benchmark(out_dir, per_class: int = 10, env_type: str = "A", seed: int = 0,
                   n_mics: int = 8, encoding: str = "pcm24",
                   extra_preamble: dict | None = None) -> str:
    """Render a labeled corpus of T-junction scenes into a directory.

    Draws one random planar array of ``n_mics`` microphones and renders
    ``per_class`` left, right and none scenes of junction type ``env_type``
    at 48 kHz.  Writes one geometry JSON, a WAV (``encoding``) and scenario
    JSON per recording, and a manifest CSV whose preamble holds the seed, the
    environment, the class count and ``extra_preamble``; returns the manifest
    path.  Everything derives from the one seed, so a rerun reproduces
    identical bytes.  The scenes are rendered and written on
    ``util.parallel_map``'s threads, one per usable core; if any fails,
    every file of the call is removed and the first failing scene's error is
    raised.
    """
    if per_class < 1:
        raise ValueError("per_class must be >= 1")
    geometry = random_planar_array(n_mics, seed=derive_seed(seed, "array"))
    os.makedirs(out_dir, exist_ok=True)
    geom_path = os.path.join(out_dir, "geometry.json")
    save_json(geometry, geom_path)

    situations = ("left", "right", "none")
    written = [geom_path]  # appended to by every scene thread

    def scene(index):
        situation, i = situations[index // per_class], index % per_class
        scene_seed = derive_seed(seed, f"{env_type}-{situation}-{i}")
        rng = np.random.default_rng(scene_seed)
        scenario = t_junction_scenario(
            situation,
            env_type=env_type,
            seed=scene_seed,
            speed_kmh=rng.uniform(10.0, 30.0),
            street_width=rng.uniform(6.0, 8.0),
            cross_width=rng.uniform(6.0, 8.0),
            standoff=rng.uniform(7.0, 10.0),
            lane_frac=rng.uniform(0.35, 0.65),
            t0_target=rng.uniform(3.8, 5.0),
            tone_fundamental=rng.uniform(90.0, 140.0),
            duration=rng.uniform(6.5, 8.0) if situation == "none" else None,
        )
        rec = render(scenario, geometry)
        stem = f"{env_type}_{situation}_{i:03d}"
        wav_path = os.path.join(out_dir, stem + ".wav")
        write_wav(rec.clip, wav_path, encoding=encoding)
        written.append(wav_path)
        scenario_path = os.path.join(out_dir, stem + ".scenario.json")
        save_json(scenario, scenario_path)
        written.append(scenario_path)
        return ManifestEntry(wav=stem + ".wav", geometry="geometry.json", situation=situation,
                             environment=env_type, motion="static", t0=rec.t0)

    try:
        entries = parallel_map(scene, len(situations) * per_class, "earshot-render")
        manifest_path = os.path.join(out_dir, "manifest.csv")
        preamble = {"seed": seed, "env_type": env_type, "per_class": per_class}
        preamble.update(extra_preamble or {})
        save_manifest(RecordingManifest(entries), manifest_path, preamble=preamble)
    except BaseException:
        for path in written:
            if os.path.exists(path):
                os.unlink(path)
        raise
    return manifest_path
