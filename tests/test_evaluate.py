"""Metrics, cross-validation protocol, online scoring and the mic study."""

import numpy as np
import pytest

from earshot import evaluate, util
from earshot.audio import AudioClip, load_geometry, load_wav
from earshot.classifier import train
from earshot.dataset import extraction_times, load_manifest, stratified_folds
from earshot.evaluate import (
    ConfusionMatrix,
    FoldResult,
    _report_from_confusion,
    accepted_labels,
    accuracy,
    cross_validate,
    doa_baseline_eval,
    evaluate_model,
    feature_response,
    generalization_eval,
    jaccard,
    jaccard_degenerate,
    mic_study_to_csv,
    mic_subset_study,
    sliding_window_eval,
    window_scores_to_csv,
    window_times,
)
from earshot.features import (
    DoaFeature,
    LabeledSample,
    PipelineConfig,
    SampleMeta,
    augment_training_set,
    extract_feature,
    mirror,
)
from earshot.util import derive_seed

CFG = PipelineConfig()
BUMPS = {"left": [2, 3, 4], "front": [14, 15], "right": [25, 26, 27], "none": []}


def blob(label, rid, seed, bump=None):
    r = np.random.default_rng(seed)
    m = r.uniform(0.0, 0.05, size=(2, 30))
    bins = BUMPS[label] if bump is None else bump
    if bins:
        m[:, bins] += r.uniform(0.6, 1.0, size=(2, len(bins)))
    return LabeledSample(DoaFeature(m, CFG), label, SampleMeta(rid))


def blob_corpus(per_class=10, tag=""):
    return [blob(lab, f"{tag}{lab}{i}", derive_seed(0, f"blob:{lab}:{i}"))
            for lab in BUMPS for i in range(per_class)]


def test_confusion_matrix_mechanics():
    cm = ConfusionMatrix()
    for _ in range(3):
        cm.add("left", "left")
    cm.add("left", "front")
    for _ in range(2):
        cm.add("none", "left")
    assert cm.total == 6
    assert cm.tp("left") == 3
    assert cm.fn("left") == 1
    assert cm.fp("left") == 2
    other = ConfusionMatrix()
    other.add("left", "left")
    cm.merge(other)
    assert cm.tp("left") == 4
    with pytest.raises(ValueError):
        ConfusionMatrix(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        cm.merge(ConfusionMatrix(class_order=("a", "b", "c", "d")))


def test_accuracy_hand_computed():
    counts = np.full((4, 4), 1)
    np.fill_diagonal(counts, [10, 20, 10, 20])
    cm = ConfusionMatrix(counts)
    # 60 correct out of 60 + 12 off-diagonal
    assert accuracy(cm) == 60 / 72
    with pytest.raises(ValueError):
        accuracy(ConfusionMatrix())


def test_jaccard_exact_cases():
    perfect = np.zeros((4, 4), dtype=int)
    np.fill_diagonal(perfect, 5)
    cm = ConfusionMatrix(perfect)
    assert jaccard(cm, "left") == 1.0
    assert accuracy(cm) == 1.0
    assert all(jaccard(cm, lab) == 1.0 for lab in cm.class_order)

    # class occurs but is never predicted correctly
    missed = np.zeros((4, 4), dtype=int)
    missed[0, 1] = 4  # every left called front
    missed[1, 1] = 4
    cm = ConfusionMatrix(missed)
    assert jaccard(cm, "left") == 0.0
    assert not jaccard_degenerate(cm, "left")

    # TP=2, FP=1, FN=1 -> 0.5
    half = np.zeros((4, 4), dtype=int)
    half[0, 0] = 2
    half[0, 1] = 1
    half[1, 0] = 1
    cm = ConfusionMatrix(half)
    assert jaccard(cm, "left") == 0.5

    # absent and never predicted: degenerate, reported as 0
    empty = np.zeros((4, 4), dtype=int)
    empty[1, 1] = 3
    cm = ConfusionMatrix(empty)
    assert jaccard_degenerate(cm, "none")
    assert jaccard(cm, "none") == 0.0


def test_cross_validation_separable_blobs():
    report = cross_validate(blob_corpus(10), k=5, seed=0)
    assert report.accuracy == 1.0
    assert all(v == 1.0 for v in report.jaccard.values())
    assert report.n == 40
    assert len(report.folds) == 5
    assert sum(f.n_test for f in report.folds) == 40


def test_cross_validation_shuffled_labels_hits_chance():
    """No signal means accuracy near the 0.25 class prior."""
    accs = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        labels = [lab for lab in BUMPS for _ in range(10)]
        shuffled = list(labels)
        rng.shuffle(shuffled)
        samples = [
            blob(sl, f"s{seed}_{i}", 100 * seed + i, bump=BUMPS[tl])
            for i, (tl, sl) in enumerate(zip(labels, shuffled))
        ]
        accs.append(cross_validate(samples, k=5, seed=seed).accuracy)
    assert abs(np.mean(accs) - 0.25) < 0.1


def test_cross_validation_rejects_preaugmented():
    samples = augment_training_set(blob_corpus(5))
    with pytest.raises(ValueError, match="unaugmented"):
        cross_validate(samples, k=2)


def test_augmentation_changes_training_counts_only():
    corpus = blob_corpus(10)
    with_aug = cross_validate(corpus, k=5, seed=1, augment=True)
    without = cross_validate(corpus, k=5, seed=1, augment=False)
    for fa, fb in zip(with_aug.folds, without.folds):
        assert fa.n_test == fb.n_test
        assert fa.n_train > fb.n_train
        assert fa.test_recordings == fb.test_recordings


def test_generalization_disjoint_and_overlap():
    train_set = blob_corpus(10, tag="tr_")
    test_set = blob_corpus(10, tag="te_")
    report = generalization_eval(train_set, test_set, seed=0)
    cv = cross_validate(train_set, k=5, seed=0)
    assert abs(report.accuracy - cv.accuracy) <= 0.1
    with pytest.raises(ValueError, match="both sides"):
        generalization_eval(train_set, train_set, seed=0)


def _generalization_reference(train_samples, test_samples, lam=1.0, seed=0, augment=True):
    """The fold body generalization_eval had before it shared cross_validate's."""
    if augment:
        train_samples = augment_training_set(train_samples)
    model = train(train_samples, lam=lam, seed=derive_seed(seed, "train-generalization"))
    cm = evaluate_model(model, test_samples)
    report = _report_from_confusion(cm)
    report.folds = [FoldResult(accuracy=report.accuracy, n_train=len(train_samples),
                               n_test=len(test_samples), confusion=cm,
                               test_recordings=sorted({s.meta.recording_id for s in test_samples}))]
    return report


@pytest.mark.parametrize("augment", [True, False])
@pytest.mark.parametrize("seed", [0, 7])
def test_generalization_report_equals_the_old_fold_body(seed, augment):
    train_set = blob_corpus(6, tag="tr_")
    test_set = blob_corpus(4, tag="te_")
    got = generalization_eval(train_set, test_set, lam=0.5, seed=seed, augment=augment)
    want = _generalization_reference(train_set, test_set, lam=0.5, seed=seed, augment=augment)
    assert got.to_dict() == want.to_dict()
    assert got.to_csv() == want.to_csv()
    # the fold keeps one id per test sample, as the folds of cross_validate do
    assert got.folds[0].test_recordings == [s.meta.recording_id for s in test_set]


def _cross_validate_reference(samples, k, lam, seed, augment):
    """cross_validate as a loop that trains each fold through train on its own."""
    folds = stratified_folds(samples, k, seed=derive_seed(seed, "folds"))
    pooled, results = ConfusionMatrix(), []
    for i, test_fold in enumerate(folds):
        train_set = [s for j, f in enumerate(folds) if j != i for s in f]
        if augment:
            train_set = augment_training_set(train_set)
        model = train(train_set, lam=lam, seed=derive_seed(seed, f"train-fold{i}"))
        cm = evaluate_model(model, test_fold)
        pooled.merge(cm)
        results.append(FoldResult(accuracy=accuracy(cm), n_train=len(train_set),
                                  n_test=len(test_fold), confusion=cm,
                                  test_recordings=[s.meta.recording_id for s in test_fold]))
    return _report_from_confusion(pooled, results)


def _shuffled_corpus(seed):
    """Blobs whose labels are shuffled, so the folds misclassify and the
    reports hold more than accuracy 1.0."""
    rng = np.random.default_rng(derive_seed(seed, "shuffled"))
    labels = [lab for lab in BUMPS for _ in range(8)]
    shuffled = list(labels)
    rng.shuffle(shuffled)
    return [blob(sl, f"s{i}", derive_seed(seed, f"shuffled:{i}"), bump=BUMPS[tl])
            for i, (tl, sl) in enumerate(zip(labels, shuffled))]


@pytest.mark.parametrize("augment", [True, False])
@pytest.mark.parametrize("corpus,k,lam,seed", [("blobs", 5, 1.0, 0), ("blobs", 4, 0.01, 7),
                                               ("shuffled", 5, 0.5, 3), ("shuffled", 3, 1.0, 11),
                                               ("bench_flat", 4, 1.0, 2)])
def test_cross_validate_report_equals_a_per_fold_train_loop(request, corpus, k, lam, seed,
                                                            augment):
    """Fitting every fold in one train_many call gives the report of training
    each fold on its own, byte for byte."""
    samples = {"blobs": lambda: blob_corpus(8), "shuffled": lambda: _shuffled_corpus(seed),
               "bench_flat": lambda: request.getfixturevalue("bench_flat")}[corpus]()
    got = cross_validate(samples, k=k, lam=lam, seed=seed, augment=augment)
    want = _cross_validate_reference(samples, k, lam, seed, augment)
    assert got.to_dict() == want.to_dict()
    assert got.to_csv() == want.to_csv()


def test_transfer_across_junction_types(bench_samples, bench_b_dir, default_config):
    """Training in one junction shape loses some accuracy in the other."""
    from earshot.dataset import extract_samples

    train_ids, test_ids = [], []
    for sit in ("left", "right", "none"):
        group = sorted(r for r in bench_samples if f"_{sit}_" in r)
        train_ids += group[:2]
        test_ids += group[2:]
    train_set = [s for r in train_ids for s in bench_samples[r]]
    held_out = [s for r in test_ids for s in bench_samples[r]]
    other_env = [
        s for e in load_manifest(bench_b_dir) for s in extract_samples(e, default_config)
    ]
    within = generalization_eval(train_set, held_out, seed=1)
    transfer = generalization_eval(train_set, other_env, seed=1)
    assert within.accuracy > transfer.accuracy
    assert transfer.accuracy >= 0.5  # the cue survives, degraded


def test_doa_baseline_eval_is_three_class(bench_flat):
    report = doa_baseline_eval(bench_flat)
    assert report.classes == ("left", "front", "right")
    assert report.n == sum(1 for s in bench_flat if s.label != "none")
    assert "none" not in report.jaccard
    with pytest.raises(ValueError):
        doa_baseline_eval([s for s in bench_flat if s.label == "none"])


def test_feature_response_is_row_mean():
    sample = blob("left", "r", 0)
    resp = feature_response(sample)
    assert np.allclose(resp.energies, sample.feature.matrix.mean(axis=0))
    assert resp.grid.n_bins == 30
    assert np.array_equal(
        feature_response(sample.feature).energies, resp.energies
    )


def test_window_times_grid():
    times = window_times(5.0, 1.0, 0.1)
    assert len(times) == 41
    assert times[0] == 1.0
    assert abs(times[-1] - 5.0) < 1e-9
    assert window_times(1.0, 1.0, 0.5) == [1.0]
    with pytest.raises(ValueError):
        window_times(0.5, 1.0, 0.1)
    with pytest.raises(ValueError):
        window_times(5.0, 1.0, 0.0)


@pytest.mark.parametrize(
    "situation,t0,t_e,expected",
    [
        ("right", 4.0, 3.9, ("right",)),
        ("right", 4.0, 4.0, ("right", "front")),  # handover opens at t0
        ("right", 4.0, 5.5, ("right", "front")),  # and closes at t0 + 1.5
        ("right", 4.0, 5.6, ("front",)),
        ("left", 2.0, 0.5, ("left",)),
        ("left", 2.0, 3.5, ("left", "front")),
        ("left", 2.0, 9.0, ("front",)),
        ("none", None, 3.0, ("none",)),
    ],
)
def test_accepted_labels_table(situation, t0, t_e, expected):
    assert accepted_labels(situation, t0, t_e) == expected


def test_accepted_labels_needs_t0():
    with pytest.raises(ValueError):
        accepted_labels("left", None, 1.0)


def test_sliding_window_scores(bench_manifest, bench_model, default_config):
    entry = next(e for e in bench_manifest if e.situation == "right")
    scores = sliding_window_eval(entry, bench_model, default_config, hop_seconds=0.1,
                                 clip=load_wav(entry.wav), geometry=load_geometry(entry.geometry))
    times = [s.t_e for s in scores]
    assert times[0] == 1.0
    assert np.allclose(np.diff(times), 0.1)
    for s in scores:
        assert abs(s.probs.sum() - 1.0) < 1e-9
        assert s.accepted == accepted_labels("right", entry.t0, s.t_e)
        assert s.correct == (s.label_pred in s.accepted)


def test_sliding_window_hop_must_reach_one_sample(bench_manifest, bench_model, default_config):
    """A hop of one sample is the finest; anything shorter is a ValueError
    raised before any window is listed."""
    entry = bench_manifest.entries[0]
    clip = load_wav(entry.wav, 0, 48003)  # one window and three samples at 48 kHz
    geometry = load_geometry(entry.geometry)
    scores = sliding_window_eval(None, bench_model, default_config, 1 / 48000, clip, geometry)
    assert len(scores) == 4
    for hop in (1e-9, 2e-5, 0.0, -0.1, float("nan")):
        with pytest.raises(ValueError, match="shorter than one sample at 48000 Hz"):
            sliding_window_eval(None, bench_model, default_config, hop, clip, geometry)


def test_sliding_window_error_names_the_window(bench_manifest, bench_model, default_config):
    entry = bench_manifest.entries[0]
    clip = load_wav(entry.wav, 0, 72000)
    clip.samples[3, 60000] = np.nan  # analysed by the windows ending at 1.3 and 1.4 s
    with pytest.raises(ValueError, match=r"^window ending at t_e 1\.300 s: feature energies "
                                         "must be finite"):
        sliding_window_eval(None, bench_model, default_config, 0.1, clip,
                            load_geometry(entry.geometry))


def test_side_probability_rises_into_line_of_sight(
    bench_manifest, bench_model, default_config
):
    """Pooled over right approaches, p(right) climbs as the car nears t0."""
    offsets = np.arange(-2.0, 0.01, 0.1)
    curves = []
    for entry in bench_manifest:
        if entry.situation != "right":
            continue
        scores = sliding_window_eval(entry, bench_model, default_config, 0.1,
                                     clip=load_wav(entry.wav),
                                     geometry=load_geometry(entry.geometry))
        t = np.array([s.t_e for s in scores])
        p_right = np.array([s.probs[2] for s in scores])
        curves.append(np.interp(entry.t0 + offsets, t, p_right))
    mean_curve = np.mean(curves, axis=0)

    def ranks(v):
        order = np.argsort(v, kind="stable")
        out = np.empty(len(v))
        out[order] = np.arange(len(v))
        return out

    rho = np.corrcoef(ranks(offsets), ranks(mean_curve))[0, 1]
    assert rho > 0.8
    assert mean_curve[-1] - mean_curve[0] > 0.3


def test_window_scores_csv(bench_manifest, bench_model, default_config):
    entry = next(e for e in bench_manifest if e.situation == "left")
    scores = sliding_window_eval(entry, bench_model, default_config, 0.5,
                                 clip=load_wav(entry.wav), geometry=load_geometry(entry.geometry))
    text = window_scores_to_csv(scores, preamble={"recording": entry.recording_id})
    lines = text.splitlines()
    assert lines[0] == f"# recording: {entry.recording_id}"
    assert lines[1] == "t_e,p_left,p_front,p_right,p_none,label_pred,label_true_accepted"
    assert len(lines) == 2 + len(scores)
    first = lines[2].split(",")
    assert float(first[0]) == 1.0
    assert first[5] in ("left", "front", "right", "none")


def test_mic_subset_full_array_matches_plain_cv(
    bench_manifest, bench_flat, default_config
):
    rows = mic_subset_study(bench_manifest, default_config, [8], trials=3, seed=5, k=3)
    assert rows[0]["m"] == 8
    assert rows[0]["trials"] == 1  # full array has only one subset
    from earshot.util import derive_seed

    direct = cross_validate(
        bench_flat, k=3, seed=derive_seed(5, "micstudy-cv-m8-t0"), augment=True
    )
    assert rows[0]["mean"] == direct.accuracy
    assert rows[0]["best"] == rows[0]["mean"]

    again = mic_subset_study(bench_manifest, default_config, [8], trials=3, seed=5, k=3)
    assert again == rows

    with pytest.raises(ValueError):
        mic_subset_study(bench_manifest, default_config, [1], k=3)
    with pytest.raises(ValueError):
        mic_subset_study(bench_manifest, default_config, [9], k=3)
    with pytest.raises(ValueError):
        mic_subset_study([], default_config, [4], k=3)


@pytest.mark.parametrize("trials", [0, -1])
def test_mic_subset_study_refuses_no_trials_before_extracting(bench_manifest, default_config,
                                                              monkeypatch, trials):
    calls = []
    monkeypatch.setattr(evaluate, "extract_manifest", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="trials must be at least 1"):
        mic_subset_study(bench_manifest, default_config, [4, 8], trials=trials, k=3)
    assert calls == []


def test_mic_subset_smaller_arrays_and_csv(bench_manifest, default_config):
    rows = mic_subset_study(bench_manifest, default_config, [2, 4], trials=2, seed=1, k=3)
    assert [r["m"] for r in rows] == [2, 4]
    assert all(r["trials"] == 2 for r in rows)
    assert all(len(r["accuracies"]) == 2 for r in rows)
    text = mic_study_to_csv(rows, preamble={"seed": 1})
    lines = text.splitlines()
    assert lines[0] == "# seed: 1"
    assert lines[1] == "m,trials,best,mean,std"
    assert len(lines) == 4


def _mic_subset_reference(manifest, config, subset_sizes, trials, seed, k):
    """mic_subset_study as it was before it read through extract_manifest:
    every recording decoded whole and held, each subset sliced from it."""
    recordings = [(load_wav(e.wav), load_geometry(e.geometry), e) for e in manifest]
    n_mics = recordings[0][1].n_mics
    rows = []
    for m in subset_sizes:
        rng = np.random.default_rng(derive_seed(seed, f"micstudy-m{m}"))
        n_trials = 1 if m == n_mics else trials
        accuracies = []
        for trial in range(n_trials):
            chosen = np.sort(rng.choice(n_mics, size=m, replace=False))
            samples = []
            for clip, geometry, entry in recordings:
                sub_clip, sub_geom = clip.channel_subset(chosen), geometry.subset(chosen)
                length = int(round(config.sample_len * clip.sample_rate))
                for label, t_e in extraction_times(entry, clip.duration):
                    end = int(round(t_e * clip.sample_rate))
                    window = AudioClip(sub_clip.samples[:, end - length : end], clip.sample_rate)
                    meta = SampleMeta(entry.recording_id, entry.environment, entry.motion, t_e)
                    samples.append(
                        LabeledSample(extract_feature(window, sub_geom, config), label, meta))
            report = cross_validate(samples, k=k,
                                    seed=derive_seed(seed, f"micstudy-cv-m{m}-t{trial}"))
            accuracies.append(report.accuracy)
        acc = np.array(accuracies)
        rows.append({"m": int(m), "trials": int(n_trials), "best": float(acc.max()),
                     "mean": float(acc.mean()), "std": float(acc.std()),
                     "accuracies": [float(a) for a in acc]})
    return rows


@pytest.fixture(scope="module")
def mic_reference_rows(bench_manifest, default_config):
    return _mic_subset_reference(bench_manifest, default_config, [2, 4, 8], trials=2,
                                 seed=3, k=3)


@pytest.mark.parametrize("cores", [1, 3])
def test_mic_subset_study_equals_the_whole_clip_loop(bench_manifest, default_config,
                                                     mic_reference_rows, cores, monkeypatch):
    """Re-extracting each trial through extract_manifest's pool gives the rows
    of the old whole-clip loop exactly, on one thread or three."""
    monkeypatch.setattr(util, "_usable_cores", lambda: cores)
    rows = mic_subset_study(bench_manifest, default_config, [2, 4, 8], trials=2, seed=3, k=3)
    assert rows == mic_reference_rows
