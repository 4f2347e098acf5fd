"""Independent reference renderer, correlation oracle, feature chain and SVM
solver for the tests.

Deliberately minimal and separate from the package's own simulator: a
far-field plane wave is just the same noise waveform resampled onto each
microphone's delayed time grid, so any agreement with the library is evidence
rather than tautology.

The feature chain is the direct form of the package's analysis: a
time-domain Hann multiply before each ``rfft``, one PHAT divide per
microphone pair, one steering-delay call per azimuth, and the steered sum
written out with complex exponentials.

The SVM oracle is the per-class form of ``classifier``'s solver and Platt
fit: one machine at a time, its margins computed twice per step, once for the
objective and once for the next subgradient, and one Newton loop per class.

The scalar geometry helpers (``line_of_sight``, ``image_sources``,
``specular_valid``) and ``hann_window`` are the one-point forms of the
renderer's batched occlusion and reflection tests and of the window that
``stft`` applies as three spectral lines.

The fold oracle is ``dataset.stratified_folds`` with its balancing loop
written out per fold choice and per class.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from earshot import classifier
from earshot.classifier import CLASS_ORDER
from earshot.stft import StftStack, band_select
from earshot.synth import _blocked_matrix, _mirror_points, _specular_valid

SPEED_OF_SOUND = 343.0


def hann_window(n: int) -> np.ndarray:
    """Periodic Hann window w[k] = 0.5 * (1 - cos(2 pi k / n)).

    The degenerate n = 1 window is defined as [1.0] so single-sample frames
    pass through unscaled.
    """
    if n < 1:
        raise ValueError("window length must be >= 1")
    if n == 1:
        return np.ones(1)
    k = np.arange(n, dtype=np.float64)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * k / n))


def line_of_sight(walls, p, q) -> bool:
    """True when the open segment between two points crosses no wall.

    Grazing a wall endpoint counts as blocked.
    """
    walls = np.asarray(walls, dtype=np.float64).reshape(-1, 2, 2)
    p = np.asarray(p, dtype=np.float64).reshape(1, 2)
    q = np.asarray(q, dtype=np.float64).reshape(1, 2)
    return not bool(_blocked_matrix(walls, p, q).any())


def image_sources(walls, source) -> list:
    """First-order image of the source in every wall, as (point, wall_index)."""
    walls = np.asarray(walls, dtype=np.float64).reshape(-1, 2, 2)
    source = np.asarray(source, dtype=np.float64).reshape(1, 2)
    return [
        (_mirror_points(source, walls[w, 0], walls[w, 1])[0], w)
        for w in range(walls.shape[0])
    ]


def specular_valid(walls, wall_index: int, source, receiver) -> bool:
    """Whether the first-order reflection path via one wall exists.

    Requires source and receiver strictly on the same side, the reflection
    point inside the wall segment, and both legs clear of every other wall.
    """
    walls = np.asarray(walls, dtype=np.float64).reshape(-1, 2, 2)
    source = np.asarray(source, dtype=np.float64).reshape(1, 2)
    receiver = np.asarray(receiver, dtype=np.float64).reshape(1, 2)
    return bool(_specular_valid(walls, wall_index, source, receiver)[0, 0])


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


def fit_linear_svm_reference(x, y, lam):
    """Full-batch subgradient descent on mean hinge + lam * ||w||^2, 400 steps,
    for one machine.

    Returns the best iterate and the best-so-far objective trace, which is
    non-increasing by construction.
    """
    n, d = x.shape
    lam2 = 2.0 * lam
    radius = 1.0 / np.sqrt(lam2) if lam2 > 0 else np.inf
    w = np.zeros(d)
    b = 0.0

    def objective(wv, bv):
        margins = y * (x @ wv + bv)
        hinge = np.maximum(0.0, 1.0 - margins).mean()
        return hinge + lam * float(wv @ wv)

    best_obj = objective(w, b)
    best_w, best_b = w.copy(), b
    trace = [best_obj]
    for t in range(1, 401):
        margins = y * (x @ w + b)
        active = margins < 1.0
        grad_w = lam2 * w - (y[active] @ x[active]) / n
        grad_b = -y[active].sum() / n
        step = 1.0 / (lam2 * (t + 2))
        w = w - step * grad_w
        b = b - step * grad_b
        norm = np.linalg.norm(w)
        if norm > radius:
            w *= radius / norm
        obj = objective(w, b)
        if obj < best_obj:
            best_obj = obj
            best_w, best_b = w.copy(), b
        trace.append(best_obj)
    return best_w, best_b, trace


def fit_platt_reference(scores, positive):
    """Platt's sigmoid fit p = 1 / (1 + exp(a * s + b)) of one machine, at
    most 100 Newton steps with backtracking.  The tail-safe forms are looked
    up in ``classifier`` at call time, so patching them there patches them
    here."""
    n1 = int(positive.sum())
    n0 = len(positive) - n1
    hi = (n1 + 1.0) / (n1 + 2.0)
    lo = 1.0 / (n0 + 2.0)
    target = np.where(positive, hi, lo)
    a, b = 0.0, np.log((n0 + 1.0) / (n1 + 1.0))

    def nll(av, bv):
        z = av * scores + bv
        softplus = classifier._by_sign(z, lambda v: v + np.log1p(np.exp(-v)),
                                       lambda v: np.log1p(np.exp(v)))
        return float(np.sum(target * z + softplus - z))

    err = nll(a, b)
    for _ in range(100):
        z = a * scores + b
        p = classifier._platt_sigmoid(z)
        d1 = target - p
        grad_a = float(np.dot(scores, d1))
        grad_b = float(d1.sum())
        if abs(grad_a) < 1e-10 and abs(grad_b) < 1e-10:
            break
        d2 = p * (1.0 - p)
        haa = float(np.dot(scores * scores, d2)) + 1e-12
        hbb = float(d2.sum()) + 1e-12
        hab = float(np.dot(scores, d2))
        det = haa * hbb - hab * hab
        da = -(hbb * grad_a - hab * grad_b) / det
        db = -(-hab * grad_a + haa * grad_b) / det
        step = 1.0
        while step >= 1e-10:
            new_err = nll(a + step * da, b + step * db)
            if new_err < err + 1e-12:
                a += step * da
                b += step * db
                err = new_err
                break
            step /= 2.0
        else:
            break
    return a, b


def train_reference(samples, lam):
    """``classifier.train``'s numbers from the per-class loop above: weights,
    biases, Platt parameters (a, b) and objective traces, one row per class."""
    x = np.stack([s.feature.flat for s in samples])
    std = x.std(axis=0)
    z = (x - x.mean(axis=0)) / np.where(std < 1e-12, 1.0, std)
    labels = np.array([s.label for s in samples])
    weights, biases, calib, traces = [], [], [], []
    for label in CLASS_ORDER:
        y = np.where(labels == label, 1.0, -1.0)
        w, b, trace = fit_linear_svm_reference(z, y, lam)
        weights.append(w)
        biases.append(b)
        calib.append(fit_platt_reference(z @ w + b, y > 0))
        traces.append(trace)
    return np.array(weights), np.array(biases), np.array(calib), traces


def stratified_folds_reference(samples, k, seed):
    """``dataset.stratified_folds`` scored one fold choice and one class at a
    time: groups largest first in a seeded tie order, each to the fold whose
    choice leaves the smallest summed per-class spread, then the smaller
    fold, then the lower index."""
    labels = sorted({s.label for s in samples})
    groups = {}
    for s in samples:
        groups.setdefault(s.meta.recording_id, []).append(s)
    keys = sorted(groups)
    np.random.default_rng(seed).shuffle(keys)
    keys.sort(key=lambda rid: -len(groups[rid]))
    fold_counts = np.zeros((k, len(labels)), dtype=np.int64)
    fold_sizes = np.zeros(k, dtype=np.int64)
    folds = [[] for _ in range(k)]
    for rid in keys:
        group_vec = np.zeros(len(labels), dtype=np.int64)
        for s in groups[rid]:
            group_vec[labels.index(s.label)] += 1
        best = None
        for f in range(k):
            spread = 0
            for c in range(len(labels)):
                col = fold_counts[:, c].copy()
                col[f] += group_vec[c]
                spread += col.max() - col.min()
            key = (spread, fold_sizes[f] + len(groups[rid]), f)
            if best is None or key < best[0]:
                best = (key, f)
        f = best[1]
        fold_counts[f] += group_vec
        fold_sizes[f] += len(groups[rid])
        folds[f].extend(groups[rid])
    return folds
