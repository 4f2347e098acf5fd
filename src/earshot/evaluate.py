"""Metrics, cross-validation, sliding-window scoring and the mic-count study.

Confusion matrices use the fixed class order (left, front, right, none), rows
true and columns predicted.  Cross-validation pools the per-fold confusion
counts before computing metrics (micro averaging), and optionally mirrors the
side-labeled training samples of each fold; test folds are never augmented.

Sliding-window scoring follows the overlap rule for recordings where a vehicle
emerges at t0: the side label is accepted while t_e <= t0 + 1.5 s and "front"
is accepted from t_e >= t0 onward, so both answers count during the handover.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .audio import AudioClip, load_geometry
from .beamform import DoaResponse, argmax_doa
from .classifier import CLASS_ORDER, classify_azimuth, predict, train_many
from .dataset import FRONT_OFFSET, ManifestEntry, extract_manifest, stratified_folds
from .features import PipelineConfig, augment_training_set, extract_feature
from .util import csv_text, derive_seed


@dataclass
class ConfusionMatrix:
    counts: np.ndarray = None
    class_order: tuple = CLASS_ORDER

    def __post_init__(self):
        n = len(self.class_order)
        if self.counts is None:
            self.counts = np.zeros((n, n), dtype=np.int64)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.shape != (n, n):
            raise ValueError(f"confusion matrix must be {n}x{n}")

    def add(self, true_label: str, pred_label: str) -> None:
        i = self.class_order.index(true_label)
        j = self.class_order.index(pred_label)
        self.counts[i, j] += 1

    def merge(self, other: "ConfusionMatrix") -> None:
        if other.class_order != self.class_order:
            raise ValueError("cannot merge confusion matrices with different classes")
        self.counts += other.counts

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def tp(self, label: str) -> int:
        i = self.class_order.index(label)
        return int(self.counts[i, i])

    def fp(self, label: str) -> int:
        j = self.class_order.index(label)
        return int(self.counts[:, j].sum() - self.counts[j, j])

    def fn(self, label: str) -> int:
        i = self.class_order.index(label)
        return int(self.counts[i].sum() - self.counts[i, i])


def accuracy(cm: ConfusionMatrix) -> float:
    if cm.total == 0:
        raise ValueError("empty confusion matrix has no accuracy")
    return float(np.trace(cm.counts)) / cm.total


def jaccard(cm: ConfusionMatrix, label: str) -> float:
    """Per-class intersection over union TP / (TP + FP + FN); degenerate -> 0."""
    denom = cm.tp(label) + cm.fp(label) + cm.fn(label)
    if denom == 0:
        return 0.0
    return cm.tp(label) / denom


def jaccard_degenerate(cm: ConfusionMatrix, label: str) -> bool:
    """True when the class never occurs and is never predicted."""
    return (cm.tp(label) + cm.fp(label) + cm.fn(label)) == 0


@dataclass
class FoldResult:
    accuracy: float
    n_train: int
    n_test: int
    confusion: ConfusionMatrix
    test_recordings: list = field(default_factory=list)


@dataclass
class MetricsReport:
    accuracy: float
    jaccard: dict
    degenerate: dict
    n: int
    confusion: ConfusionMatrix
    folds: list = field(default_factory=list)
    classes: tuple = CLASS_ORDER

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "jaccard": self.jaccard,
            "jaccard_degenerate": self.degenerate,
            "n": self.n,
            "classes": list(self.classes),
            "confusion": self.confusion.counts.tolist(),
            "folds": [
                {
                    "accuracy": f.accuracy,
                    "n_train": f.n_train,
                    "n_test": f.n_test,
                    "confusion": f.confusion.counts.tolist(),
                    "test_recordings": sorted(set(f.test_recordings)),
                }
                for f in self.folds
            ],
        }

    def to_csv(self, preamble: dict | None = None) -> str:
        rows = [("accuracy", repr(self.accuracy)), ("n", self.n)]
        for label in self.classes:
            rows.append((f"jaccard_{label}", repr(self.jaccard[label])))
            rows.append((f"jaccard_{label}_degenerate", int(self.degenerate[label])))
        for i, f in enumerate(self.folds):
            rows.append((f"fold{i}_accuracy", repr(f.accuracy)))
            rows.append((f"fold{i}_n_train", f.n_train))
            rows.append((f"fold{i}_n_test", f.n_test))
        return csv_text(preamble or {}, ["metric", "value"], rows)


def _report_from_confusion(cm: ConfusionMatrix, folds=None, classes=CLASS_ORDER) -> MetricsReport:
    return MetricsReport(
        accuracy=accuracy(cm),
        jaccard={label: jaccard(cm, label) for label in classes},
        degenerate={label: jaccard_degenerate(cm, label) for label in classes},
        n=cm.total,
        confusion=cm,
        folds=folds or [],
        classes=classes,
    )


def evaluate_model(model, samples) -> ConfusionMatrix:
    cm = ConfusionMatrix()
    for s in samples:
        cm.add(s.label, predict(model, s.feature).label)
    return cm


def _run_folds(train_sets, test_sets, lam: float, seeds, augment: bool) -> list:
    """Train on each training set (mirrored first when augmenting), all in
    one solver call, and score each model on its test set."""
    if augment:
        train_sets = [augment_training_set(t) for t in train_sets]
    models = train_many(train_sets, lam, seeds)
    results = []
    for model, train_set, test_set in zip(models, train_sets, test_sets):
        cm = evaluate_model(model, test_set)
        results.append(FoldResult(
            accuracy=accuracy(cm),
            n_train=len(train_set),
            n_test=len(test_set),
            confusion=cm,
            test_recordings=[s.meta.recording_id for s in test_set],
        ))
    return results


def cross_validate(samples, k: int = 5, lam: float = 1.0, seed: int = 0,
                   augment: bool = True) -> MetricsReport:
    """Grouped stratified k-fold cross-validation, confusion pooled over folds."""
    samples = list(samples)
    if any(s.meta.augmented for s in samples):
        raise ValueError("cross_validate expects unaugmented samples; augmentation "
                         "is applied to the training folds internally")
    folds = stratified_folds(samples, k, seed=derive_seed(seed, "folds"))
    train_sets = [[s for j, f in enumerate(folds) if j != i for s in f] for i in range(len(folds))]
    seeds = [derive_seed(seed, f"train-fold{i}") for i in range(len(folds))]
    fold_results = _run_folds(train_sets, folds, lam, seeds, augment)
    pooled = ConfusionMatrix()
    for fold in fold_results:
        pooled.merge(fold.confusion)
    return _report_from_confusion(pooled, fold_results)


def generalization_eval(train_samples, test_samples, lam: float = 1.0, seed: int = 0,
                        augment: bool = True) -> MetricsReport:
    """Train on one set, score another; recordings may not overlap."""
    train_samples = list(train_samples)
    test_samples = list(test_samples)
    train_ids = {s.meta.recording_id for s in train_samples}
    test_ids = {s.meta.recording_id for s in test_samples}
    shared = train_ids & test_ids
    if shared:
        raise ValueError(f"recordings appear on both sides: {sorted(shared)[:5]}")
    [fold] = _run_folds([train_samples], [test_samples], lam,
                        [derive_seed(seed, "train-generalization")], augment)
    return _report_from_confusion(fold.confusion, [fold])


def feature_response(sample_or_feature) -> DoaResponse:
    """Average the segment rows of a feature back into one DoA response.

    Takes a LabeledSample or a DoaFeature; the azimuth grid is the one in
    the feature's own extraction config.
    """
    feature = getattr(sample_or_feature, "feature", sample_or_feature)
    return DoaResponse(feature.matrix.mean(axis=0), feature.config.grid)


def doa_baseline_eval(samples, alpha_th: float = 50.0) -> MetricsReport:
    """Score the direction-threshold rule on side/front samples.

    The rule cannot say "none", so none-labeled samples are excluded and the
    metrics cover the three remaining classes.
    """
    scored = [s for s in samples if s.label != "none"]
    if not scored:
        raise ValueError("no left/front/right samples to score")
    cm = ConfusionMatrix()
    for s in scored:
        cm.add(s.label, classify_azimuth(argmax_doa(feature_response(s)), alpha_th))
    classes = ("left", "front", "right")
    report = _report_from_confusion(cm, classes=classes)
    return report


@dataclass
class WindowScore:
    t_e: float
    probs: np.ndarray
    label_pred: str
    accepted: tuple
    correct: bool


def accepted_labels(situation: str, t0, t_e: float) -> tuple:
    """Ground-truth labels accepted at a given evaluation time.

    For side recordings the side label is accepted through t0 + 1.5 s and
    "front" from t0 onward, both ends inclusive, so either answer counts
    during the handover.
    """
    if situation == "none":
        return ("none",)
    if t0 is None:
        raise ValueError(f"{situation} recording needs t0 for sliding-window scoring")
    if t_e < t0:
        return (situation,)
    if t_e <= t0 + FRONT_OFFSET:
        return (situation, "front")
    return ("front",)


def window_times(duration: float, sample_len: float, hop_seconds: float) -> list:
    """Evaluation times sample_len, sample_len + hop, ... within the duration."""
    if hop_seconds <= 0:
        raise ValueError("hop_seconds must be positive")
    n_steps = int(np.floor((duration - sample_len) / hop_seconds + 1e-9)) + 1
    if n_steps < 1:
        raise ValueError("recording shorter than one analysis window")
    return [sample_len + i * hop_seconds for i in range(n_steps)]


def sliding_window_eval(entry: ManifestEntry | None, model, config: PipelineConfig,
                        hop_seconds: float, clip: AudioClip, geometry) -> list:
    """Classify clip windows ending every hop_seconds and score them on overlap rules.

    Returns one WindowScore per evaluation time t_e = sample_len,
    sample_len + hop, ... up to the clip duration.  ``entry`` supplies the
    ground truth; with entry None windows are classified but not scored, so
    every score has no accepted labels and is not correct.  A hop shorter
    than one sample is a ValueError, and so is a window whose feature cannot
    be computed; that error names the window's t_e.
    """
    if not hop_seconds * clip.sample_rate >= 1:
        raise ValueError(f"hop {hop_seconds} s is shorter than one sample "
                         f"at {clip.sample_rate} Hz")
    scores = []
    length = int(round(config.sample_len * clip.sample_rate))
    for t_e in window_times(clip.duration, config.sample_len, hop_seconds):
        end = min(int(round(t_e * clip.sample_rate)), clip.n_samples)
        window = AudioClip(clip.samples[:, end - length : end], clip.sample_rate)
        try:
            feature = extract_feature(window, geometry, config)
        except ValueError as exc:
            raise ValueError(f"window ending at t_e {t_e:.3f} s: {exc}") from None
        pred = predict(model, feature)
        accepted = () if entry is None else accepted_labels(entry.situation, entry.t0, t_e)
        scores.append(
            WindowScore(
                t_e=t_e,
                probs=pred.probs,
                label_pred=pred.label,
                accepted=accepted,
                correct=pred.label in accepted,
            )
        )
    return scores


def window_scores_to_csv(scores, preamble: dict | None = None) -> str:
    header = ["t_e", "p_left", "p_front", "p_right", "p_none", "label_pred", "label_true_accepted"]
    rows = (
        [repr(s.t_e), *(repr(float(p)) for p in s.probs), s.label_pred, "|".join(s.accepted)]
        for s in scores
    )
    return csv_text(preamble or {}, header, rows)


def mic_subset_study(manifest, config: PipelineConfig, subset_sizes, trials: int = 5,
                     seed: int = 0, k: int = 5, lam: float = 1.0, augment: bool = True) -> list:
    """Cross-validation accuracy as a function of microphone count.

    For each subset size m, draws ``trials`` random m-subsets of the first
    manifest entry's microphones (sorted, so the full-array subset is the
    identity), re-extracts every entry's features from those channels through
    ``extract_manifest`` and runs the usual cross-validation.  Returns one
    row per m with the best, mean and standard deviation of the trial
    accuracies.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    entries = list(manifest)
    if not entries:
        raise ValueError("no recordings given")
    n_mics = load_geometry(entries[0].geometry).n_mics
    for m in subset_sizes:
        if not 2 <= m <= n_mics:
            raise ValueError(f"subset size {m} outside [2, {n_mics}]")
    rows = []
    for m in subset_sizes:
        rng = np.random.default_rng(derive_seed(seed, f"micstudy-m{m}"))
        n_trials = 1 if m == n_mics else trials
        accuracies = []
        for trial in range(n_trials):
            chosen = np.sort(rng.choice(n_mics, size=m, replace=False))
            samples = extract_manifest(entries, config, chosen)
            report = cross_validate(samples, k=k, lam=lam,
                                    seed=derive_seed(seed, f"micstudy-cv-m{m}-t{trial}"),
                                    augment=augment)
            accuracies.append(report.accuracy)
        acc = np.array(accuracies)
        rows.append(
            {
                "m": int(m),
                "trials": int(n_trials),
                "best": float(acc.max()),
                "mean": float(acc.mean()),
                "std": float(acc.std()),
                "accuracies": [float(a) for a in acc],
            }
        )
    return rows


def mic_study_to_csv(rows, preamble: dict | None = None) -> str:
    cells = ([r["m"], r["trials"], repr(r["best"]), repr(r["mean"]), repr(r["std"])] for r in rows)
    return csv_text(preamble or {}, ["m", "trials", "best", "mean", "std"], cells)
