"""Linear one-vs-rest SVM with calibrated probabilities, plus the DoA rule.

Each class machine minimizes mean hinge loss + lambda * ||w||^2 with a
deterministic full-batch projected subgradient descent: fixed iteration count,
decaying step, best-objective iterate kept.  No sample shuffling is involved,
so training on the same data twice yields byte-identical models.  (Mapping to
the liblinear convention: C = 1 / (2 * lambda * n).)

One solver loop fits every machine of every training set it is given: the
weights form a (sets, classes, dim) stack, so each of its 400 steps costs a
few array operations whatever the number of machines.  Sets shorter than the
longest are padded with rows whose target is 0, which drop out of the hinge
sum and the gradient, and each set's mean divides by its own sample count.
Each iterate's margins serve both its objective and the next subgradient.
``train`` fits one set; ``train_many`` fits the k training folds of a
cross-validation in one call.

Decision values turn into probabilities through per-class Platt sigmoids, fit
on the training decision values by the standard Newton procedure, then
normalized to sum to one.  One Newton loop fits the sigmoids of all classes
of a training set; each row's sums run over that row alone, so every sigmoid
has the bits of a fit on its own.

The direction-only baseline thresholds the strongest azimuth: left below
-alpha_th, right above +alpha_th, front in between (boundaries inclusive).
It never predicts "none".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .beamform import DoaResponse, argmax_doa
from .features import LABELS, DoaFeature, PipelineConfig
from .util import canonical_json, config_hash, write_text

CLASS_ORDER = LABELS  # (left, front, right, none)

MODEL_FORMAT = "earshot-svm"
MODEL_VERSION = 1
_MODEL_KEYS = ("class_order", "weights", "biases", "scaler_mean", "scaler_std", "calib_a",
               "calib_b", "lambda", "seed", "feature_dim", "config", "config_hash")


class ModelFormatError(ValueError):
    """A model file that this code cannot trust: wrong magic or version, or
    contents that fail the checks in ``load_model``."""


@dataclass
class Prediction:
    label: str
    scores: np.ndarray
    probs: np.ndarray


@dataclass
class SvmModel:
    weights: np.ndarray  # (classes, dim)
    biases: np.ndarray  # (classes,)
    scaler_mean: np.ndarray
    scaler_std: np.ndarray
    calib_a: np.ndarray
    calib_b: np.ndarray
    lam: float
    seed: int
    feature_dim: int
    config: dict
    class_order: tuple = CLASS_ORDER
    objective_history: list = field(default_factory=list, repr=False)

    def to_dict(self) -> dict:
        return {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "class_order": list(self.class_order),
            "weights": [[float(v) for v in row] for row in self.weights],
            "biases": [float(v) for v in self.biases],
            "scaler_mean": [float(v) for v in self.scaler_mean],
            "scaler_std": [float(v) for v in self.scaler_std],
            "calib_a": [float(v) for v in self.calib_a],
            "calib_b": [float(v) for v in self.calib_b],
            "lambda": float(self.lam),
            "seed": int(self.seed),
            "feature_dim": int(self.feature_dim),
            "config": self.config,
        }


_MIN_STD = 1e-12  # smaller feature spreads standardize with 1.0 instead


def _standardize_fit(x: np.ndarray):
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std < _MIN_STD, 1.0, std)
    return mean, std


_STEPS = 400


def _fit_linear_svms(z: np.ndarray, y: np.ndarray, counts: np.ndarray, lam: float):
    """Full-batch subgradient descent on mean hinge + lam * ||w||^2, 400 steps,
    for every (set, class) machine at once.

    z is the (sets, rows, dim) features; y is the (sets, classes, rows) +-1
    target, 0 on a set's padding rows; counts is each set's real row count.
    Returns the best iterate's weights (sets, classes, dim) and biases (sets,
    classes), and the best-so-far objective traces (steps + 1, sets, classes),
    non-increasing by construction.
    """
    sets, classes, _ = y.shape
    lam2 = 2.0 * lam
    radius = 1.0 / np.sqrt(lam2)
    zt = z.transpose(0, 2, 1).copy()
    valid = np.abs(y[:, :1])  # (sets, 1, rows): 1 on real rows, 0 on padding
    n = counts[:, None]
    w = np.zeros((sets, classes, z.shape[2]))
    b = np.zeros((sets, classes))
    best_w, best_b = w.copy(), b.copy()
    best_obj = np.full((sets, classes), np.inf)
    traces = np.empty((_STEPS + 1, sets, classes))
    for t in range(_STEPS + 1):
        margins = y * (w @ zt + b[..., None])
        hinge = np.maximum(valid - margins, 0.0).sum(axis=-1) / n
        obj = hinge + lam * np.einsum("pcd,pcd->pc", w, w)
        better = obj < best_obj
        best_obj = np.where(better, obj, best_obj)
        np.copyto(best_w, w, where=better[..., None])
        np.copyto(best_b, b, where=better)
        traces[t] = best_obj
        if t == _STEPS:
            break
        coef = np.where(margins < 1.0, y, 0.0)  # the active rows' targets
        grad_w = lam2 * w - (coef @ z) / n[..., None]
        grad_b = -coef.sum(axis=-1) / n
        step = 1.0 / (lam2 * (t + 3))  # step k = t + 1 is 1 / (2 lam (k + 2))
        w = w - step * grad_w
        b = b - step * grad_b
        norm = np.sqrt(np.einsum("pcd,pcd->pc", w, w))
        w *= (radius / np.maximum(norm, radius))[..., None]  # 1.0 inside the ball
    return best_w, best_b, traces


def _by_sign(z: np.ndarray, nonneg, neg) -> np.ndarray:
    """``nonneg(z)`` where z >= 0 and ``neg(z)`` elsewhere (NaN included), each
    form evaluated only on the elements that select it, so the form that
    would overflow on the other tail never sees them."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = nonneg(z[pos])
    out[~pos] = neg(z[~pos])
    return out


def _platt_sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(z)) without overflow on either tail."""
    return _by_sign(z, lambda v: np.exp(-v) / (1.0 + np.exp(-v)), lambda v: 1.0 / (1.0 + np.exp(v)))


def _row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The dot product of each row of x with the same row of y, as one batched
    ``matmul`` of (1, n) by (n, 1) blocks: np.dot's sum for each row."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _fit_platts(scores: np.ndarray, positive: np.ndarray):
    """Platt's sigmoid fit p = 1 / (1 + exp(a * s + b)) of each row of the
    (machines, n) scores against the same row of ``positive``: at most 100
    Newton steps with backtracking, every machine in one loop.

    Each machine stops on its own, when its gradient vanishes or its line
    search finds no step, and the loop goes on with the rest.  A row's sums
    and dot products run over that row alone, so each machine gets the bits
    it would get fitted alone.  Returns the (machines,) arrays a and b.
    """
    n1 = positive.sum(axis=1)
    n0 = positive.shape[1] - n1
    target = np.where(positive, ((n1 + 1.0) / (n1 + 2.0))[:, None], (1.0 / (n0 + 2.0))[:, None])
    a = np.zeros(len(scores))
    b = np.log((n0 + 1.0) / (n1 + 1.0))

    def nll(s, t, av, bv):
        z = av[:, None] * s + bv[:, None]
        # log(1 + exp(z)) evaluated stably on both tails
        softplus = _by_sign(z, lambda v: v + np.log1p(np.exp(-v)), lambda v: np.log1p(np.exp(v)))
        return np.sum(t * z + softplus - z, axis=1)

    live = np.arange(len(scores))  # the machines still iterating
    s, t = scores, target  # and their rows
    err = nll(s, t, a, b)
    for _ in range(100):
        p = _platt_sigmoid(a[live, None] * s + b[live, None])
        d1 = t - p
        grad_a, grad_b = _row_dots(s, d1), d1.sum(axis=1)
        moving = (np.abs(grad_a) >= 1e-10) | (np.abs(grad_b) >= 1e-10)
        if not moving.all():  # a machine whose gradient vanished stops
            live, s, t, p, grad_a, grad_b = (v[moving] for v in (live, s, t, p, grad_a, grad_b))
            if not live.size:
                break
        d2 = p * (1.0 - p)
        haa = _row_dots(s * s, d2) + 1e-12
        hbb = d2.sum(axis=1) + 1e-12
        hab = _row_dots(s, d2)
        det = haa * hbb - hab * hab
        da = -(hbb * grad_a - hab * grad_b) / det
        db = -(-hab * grad_a + haa * grad_b) / det
        # Backtracking: every machine tries the same halving steps until it
        # accepts one; rows that already accepted are evaluated and ignored.
        a0, b0, err0 = a[live], b[live], err[live]
        pending = np.ones(live.size, dtype=bool)
        step = 1.0
        while step >= 1e-10 and pending.any():
            new_a, new_b = a0 + step * da, b0 + step * db
            new_err = nll(s, t, new_a, new_b)
            accept = pending & (new_err < err0 + 1e-12)
            took = live[accept]
            a[took], b[took], err[took] = new_a[accept], new_b[accept], new_err[accept]
            pending &= ~accept
            step /= 2.0
        if pending.any():  # a machine whose line search failed stops
            live, s, t = (v[~pending] for v in (live, s, t))
            if not live.size:
                break
    return a, b


def train(samples, lam: float = 1.0, seed: int = 0) -> SvmModel:
    """Fit the one-vs-rest machines and their calibration on labeled samples.

    The seed is recorded in the model for provenance; the solver itself is
    deterministic and does not consume randomness.
    """
    return train_many([samples], lam, [seed])[0]


def train_many(sample_sets, lam: float, seeds) -> list:
    """``train`` on each of several sample sets, one model per set and seed,
    with every set's machines fitted in one solver loop.

    Each set is standardized, fitted and calibrated on its own samples only,
    so its model is the one ``train`` gives for it alone, up to the rounding
    of the stacked sums.  Every sample of every set must have one feature
    dimension.
    """
    sets = [list(samples) for samples in sample_sets]
    seeds = list(seeds)
    if lam <= 0:
        raise ValueError("lam must be positive")
    if len(seeds) != len(sets):
        raise ValueError(f"{len(sets)} sample sets but {len(seeds)} seeds")
    for samples in sets:
        if len(samples) < 2:
            raise ValueError("need at least 2 training samples")
        if len({s.label for s in samples}) < 2:
            raise ValueError("training data must contain at least 2 distinct labels")
    dims = {s.feature.flat.size for samples in sets for s in samples}
    if len(dims) != 1:
        raise ValueError(f"inconsistent feature dimensions in training data: {sorted(dims)}")

    counts = np.array([len(samples) for samples in sets])
    dim, n_classes = dims.pop(), len(CLASS_ORDER)
    scalers = []
    z = np.zeros((len(sets), counts.max(), dim))
    y = np.zeros((len(sets), n_classes, counts.max()))
    for p, samples in enumerate(sets):
        x = np.stack([s.feature.flat for s in samples])
        mean, std = _standardize_fit(x)
        scalers.append((mean, std))
        z[p, : len(samples)] = (x - mean) / std
        labels = np.array([s.label for s in samples])
        y[p, :, : len(samples)] = np.where(labels == np.array(CLASS_ORDER)[:, None], 1.0, -1.0)
    weights, biases, traces = _fit_linear_svms(z, y, counts, lam)

    models = []
    for p, (samples, (mean, std)) in enumerate(zip(sets, scalers)):
        n = len(samples)
        scores = np.stack([z[p, :n] @ weights[p, c] + biases[p, c] for c in range(n_classes)])
        calib_a, calib_b = _fit_platts(scores, y[p, :, :n] > 0)
        models.append(SvmModel(
            weights=weights[p],
            biases=biases[p],
            scaler_mean=mean,
            scaler_std=std,
            calib_a=calib_a,
            calib_b=calib_b,
            lam=lam,
            seed=seeds[p],
            feature_dim=dim,
            config=samples[0].feature.config.to_dict(),
            objective_history=[traces[:, p, c].tolist() for c in range(n_classes)],
        ))
    return models


def decision_values(model: SvmModel, flat: np.ndarray) -> np.ndarray:
    z = (np.asarray(flat, dtype=np.float64) - model.scaler_mean) / model.scaler_std
    return model.weights @ z + model.biases


def predict(model: SvmModel, feature) -> Prediction:
    """Classify one feature; ties in the probabilities go to the first class."""
    flat = feature.flat if isinstance(feature, DoaFeature) else np.asarray(feature)
    if flat.size != model.feature_dim:
        raise ValueError(f"feature has {flat.size} dims, model expects {model.feature_dim}")
    scores = decision_values(model, flat)
    z = model.calib_a * scores + model.calib_b
    raw = _platt_sigmoid(z)
    total = raw.sum()
    probs = raw / total if total > 1e-300 else np.full(len(raw), 1.0 / len(raw))
    label = model.class_order[int(np.argmax(probs))]
    return Prediction(label=label, scores=scores, probs=probs)


def classify_azimuth(alpha_max: float, alpha_th: float = 50.0) -> str:
    """Threshold rule on the strongest direction; boundaries count as front."""
    if not 0.0 <= alpha_th <= 90.0:
        raise ValueError("alpha_th must lie in [0, 90]")
    if alpha_max < -alpha_th:
        return "left"
    if alpha_max > alpha_th:
        return "right"
    return "front"


def doa_baseline(response: DoaResponse, alpha_th: float = 50.0) -> str:
    """Classify a DoA response by thresholding its strongest azimuth."""
    return classify_azimuth(argmax_doa(response), alpha_th)


def save_model(model: SvmModel, path, extra: dict | None = None) -> None:
    """Serialize the model as canonical JSON, with optional provenance fields."""
    payload = model.to_dict()
    payload["config_hash"] = config_hash(payload["config"])
    payload.update(extra or {})
    write_text(path, canonical_json(payload) + "\n")


def load_model(path) -> SvmModel:
    """Read a model file and check it before use.

    Raises ModelFormatError for text that is not JSON, a foreign format or
    version, a missing key, a class order other than CLASS_ORDER, a config
    that does not parse or does not match its ``config_hash``, an array of
    the wrong shape ((classes, feature_dim) weights, (classes,) biases and
    calibration, (feature_dim,) scaler), a non-finite value, a
    scaler_std <= 0 or below 1e-12 (``train`` never writes one), or numbers
    that make ``predict`` overflow on some feature in [0, 1]^dim: the bound
    |a_c| (sum_d |w_cd| (1 + |mean_d|) / std_d + |b_c|) + |b'_c| on the Platt
    argument must be finite.
    """
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"{path}: not JSON: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise ModelFormatError(f"{path}: not an {MODEL_FORMAT} model file")
    if payload.get("version") != MODEL_VERSION:
        raise ModelFormatError(
            f"{path}: model version {payload.get('version')} unsupported "
            f"(this build reads version {MODEL_VERSION})"
        )
    missing = [k for k in _MODEL_KEYS if k not in payload]
    if missing:
        raise ModelFormatError(f"{path}: missing keys: {', '.join(missing)}")
    if payload["class_order"] != list(CLASS_ORDER):
        raise ModelFormatError(
            f"{path}: class order {payload['class_order']} is not {list(CLASS_ORDER)}"
        )
    try:
        config = PipelineConfig.from_dict(payload["config"])
        lam, seed = float(payload["lambda"]), int(payload["seed"])
    except (TypeError, ValueError, OverflowError) as exc:  # int(inf) overflows
        raise ModelFormatError(f"{path}: {exc}") from None
    if config.hash != payload["config_hash"]:
        raise ModelFormatError(f"{path}: config_hash does not match the stored config")
    dim, n = config.feature_dim, len(CLASS_ORDER)
    if payload["feature_dim"] != dim:
        raise ModelFormatError(f"{path}: feature_dim must be {dim} for the stored config")
    shapes = {"weights": (n, dim), "biases": (n,), "scaler_mean": (dim,),
              "scaler_std": (dim,), "calib_a": (n,), "calib_b": (n,)}
    arrays = {}
    for key, shape in shapes.items():
        try:
            value = np.asarray(payload[key], dtype=np.float64)
        except (TypeError, ValueError):
            value = None
        if value is None or value.shape != shape:
            raise ModelFormatError(f"{path}: {key} must be a numeric array of shape {shape}")
        if not np.all(np.isfinite(value)):
            raise ModelFormatError(f"{path}: {key} holds non-finite values")
        arrays[key] = value
    if np.any(arrays["scaler_std"] <= 0):
        raise ModelFormatError(f"{path}: scaler_std must be positive")
    if np.any(arrays["scaler_std"] < _MIN_STD):
        raise ModelFormatError(f"{path}: scaler_std must be at least {_MIN_STD}")
    # The largest |a * s + b| that predict can reach on features in [0, 1]^dim,
    # the range of srp_phat energies; an infinite or NaN bound would overflow.
    size = {key: np.abs(value) for key, value in arrays.items()}
    with np.errstate(over="ignore", invalid="ignore"):
        scores = size["weights"] @ ((1.0 + size["scaler_mean"]) / size["scaler_std"]) + size["biases"]
        bound = size["calib_a"] * scores + size["calib_b"]
    if not np.all(np.isfinite(bound)):
        raise ModelFormatError(f"{path}: weights, biases, scaler and calibration "
                               "make predict overflow")
    return SvmModel(**arrays, lam=lam, seed=seed, feature_dim=dim, config=payload["config"])
