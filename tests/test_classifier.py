"""One-vs-rest SVM training, calibration, persistence and the threshold rule."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from earshot.beamform import AzimuthGrid, DoaResponse, argmax_doa
from earshot.classifier import (
    CLASS_ORDER,
    ModelFormatError,
    SvmModel,
    classify_azimuth,
    load_model,
    predict,
    save_model,
    train,
    train_many,
)
from earshot.dataset import stratified_folds
from earshot.features import (
    DoaFeature,
    LabeledSample,
    PipelineConfig,
    SampleMeta,
    augment_training_set,
    mirror,
)
from earshot.util import config_hash, derive_seed
from synthref import fit_platt_reference, train_reference
from test_evaluate import blob_corpus

CFG = PipelineConfig()


def blob(label, rid, bump, seed, palindrome=False):
    """A 2x30 energy matrix with a bump on the given azimuth bins."""
    r = np.random.default_rng(seed)
    m = r.uniform(0.0, 0.05, size=(2, 30))
    if bump:
        m[:, bump] += r.uniform(0.6, 1.0, size=(2, len(bump)))
    if palindrome:
        m = 0.5 * (m + m[:, ::-1])
    return LabeledSample(DoaFeature(m, CFG), label, SampleMeta(rid))


def blob_set(per_class=30):
    """Separable 4-class set that is exactly closed under mirroring."""
    samples = []
    for i in range(per_class):
        left = blob("left", f"l{i}", [2, 3, 4], 1000 + i)
        samples.append(left)
        samples.append(LabeledSample(mirror(left).feature, "right", SampleMeta(f"r{i}")))
        samples.append(blob("front", f"f{i}", [14, 15], 3000 + i, palindrome=True))
        samples.append(blob("none", f"n{i}", [], 4000 + i, palindrome=True))
    return samples


def zero_model(dim=60):
    n = len(CLASS_ORDER)
    return SvmModel(
        weights=np.zeros((n, dim)),
        biases=np.zeros(n),
        scaler_mean=np.zeros(dim),
        scaler_std=np.ones(dim),
        calib_a=np.zeros(n),
        calib_b=np.zeros(n),
        lam=1.0,
        seed=0,
        config=CFG,
    )


def test_separable_blobs_reach_training_accuracy_one():
    samples = blob_set()
    model = train(samples, lam=1.0, seed=7)
    hits = [predict(model, s.feature).label == s.label for s in samples]
    assert np.mean(hits) == 1.0


def test_regularization_shrinks_weights():
    samples = blob_set(per_class=20)
    big = train(samples, lam=1000.0, seed=0)
    small = train(samples, lam=0.01, seed=0)
    assert np.linalg.norm(big.weights) < np.linalg.norm(small.weights)


def test_training_is_byte_deterministic(tmp_path):
    samples = blob_set(per_class=15)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_model(train(samples, lam=1.0, seed=7), a)
    save_model(train(samples, lam=1.0, seed=7), b)
    assert a.read_bytes() == b.read_bytes()


def test_prediction_probability_simplex():
    model = train(blob_set(per_class=10), lam=1.0, seed=1)
    rng = np.random.default_rng(0)
    for _ in range(10):
        p = predict(model, rng.uniform(0, 1, size=60))
        assert np.all(p.probs >= 0.0)
        assert abs(p.probs.sum() - 1.0) < 1e-9
        assert p.label == CLASS_ORDER[int(np.argmax(p.probs))]


def test_probability_tie_goes_to_first_class():
    p = predict(zero_model(), np.random.default_rng(2).uniform(0, 1, 60))
    assert np.allclose(p.probs, 0.25)
    assert p.label == "left"
    assert np.all(p.scores == 0.0)


def test_mirrored_input_swaps_side_probabilities():
    """On a mirror-closed training set the machine itself is symmetric."""
    model = train(blob_set(), lam=1.0, seed=7)
    for i in range(10):
        probe = blob("left", f"p{i}", [2, 3, 4], 9000 + i)
        p = predict(model, probe.feature).probs
        pm = predict(model, mirror(probe).feature).probs
        assert np.allclose(pm, p[[2, 1, 0, 3]], atol=1e-3)


def test_objective_trace_is_non_increasing():
    model = train(blob_set(per_class=10), lam=1.0, seed=0)
    assert len(model.objective_history) == 4
    for trace in model.objective_history:
        diffs = np.diff(trace)
        assert np.all(diffs <= 1e-12)
        assert trace[-1] <= trace[0]


@st.composite
def _training_sets(draw):
    """One to four sets of 2 to 24 random samples, each with two labels or
    more, so one batch mixes set sizes."""
    sets = []
    for k in range(draw(st.integers(1, 4))):
        n = draw(st.integers(2, 24))
        labels = draw(st.lists(st.sampled_from(CLASS_ORDER), min_size=n, max_size=n)
                      .filter(lambda v: len(set(v)) > 1))
        m = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(0.0, 1.0, (n, 2, 30))
        sets.append([LabeledSample(DoaFeature(m[i], CFG), label, SampleMeta(f"s{k}_{i}"))
                     for i, label in enumerate(labels)])
    return sets


@settings(max_examples=20, deadline=None)
@given(sets=_training_sets(), lam=st.sampled_from([1.0, 0.01]))
def test_stacked_solver_traces_match_the_per_class_oracle(sets, lam):
    """Every machine of a mixed-size batch follows the per-class loop's
    best-so-far objective step by step, to 1e-12 of its starting value (the
    objective at w = 0, b = 0, which is 1).  Relative to each step's own value
    would not do: a machine with no positive samples drives its objective to
    rounding noise near 1e-31."""
    models = train_many(sets, lam, range(len(sets)))
    for model, samples in zip(models, sets):
        *_, traces = train_reference(samples, lam)
        for got, want in zip(model.objective_history, traces):
            assert len(got) == len(want) == 401 and got[0] == want[0] == 1.0
            assert np.max(np.abs(np.subtract(got, want))) <= 1e-12


def _assert_matches_reference(model, samples, lam):
    weights, biases, calib, _ = train_reference(samples, lam)
    for got, want in ((model.weights, weights), (model.biases, biases),
                      (np.stack([model.calib_a, model.calib_b], axis=1), calib)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _cv_training_sets(samples, k):
    folds = stratified_folds(samples, k, seed=derive_seed(0, "folds"))
    return [augment_training_set([s for j, f in enumerate(folds) if j != i for s in f])
            for i in range(k)]


@pytest.mark.parametrize("lam", [1.0, 0.01])
@pytest.mark.parametrize("corpus,k", [("blobs", 5), ("bench_flat", 3), ("bench_b_flat", 2)])
def test_stacked_solver_models_match_the_per_class_oracle(request, corpus, k, lam):
    """Weights, biases and Platt parameters of train, and of train_many over
    the augmented training folds of a k-fold split, agree with the per-class
    loop to 1e-12 of the largest reference value."""
    samples = blob_corpus(10) if corpus == "blobs" else request.getfixturevalue(corpus)
    augmented = augment_training_set(samples)
    _assert_matches_reference(train(augmented, lam=lam), augmented, lam)
    sets = _cv_training_sets(samples, k)
    for model, train_set in zip(train_many(sets, lam, range(k)), sets):
        _assert_matches_reference(model, train_set, lam)


def test_train_many_checks_every_set():
    samples = blob_set(per_class=5)
    with pytest.raises(ValueError, match="seeds"):
        train_many([samples, samples], 1.0, [0])
    with pytest.raises(ValueError, match="2 distinct labels"):
        train_many([samples, [s for s in samples if s.label == "left"]], 1.0, [0, 1])
    short = [LabeledSample(DoaFeature(np.zeros((2, 10)), PipelineConfig(bins=10)), label,
                           SampleMeta(f"x{i}")) for i, label in enumerate(CLASS_ORDER)]
    with pytest.raises(ValueError, match="inconsistent feature dimensions"):
        train_many([samples, short], 1.0, [0, 1])


def test_train_input_validation():
    samples = blob_set(per_class=5)
    with pytest.raises(ValueError):
        train(samples, lam=0.0)
    with pytest.raises(ValueError):
        train(samples, lam=-2.0)
    with pytest.raises(ValueError):
        train(samples[:1])
    only_left = [s for s in samples if s.label == "left"]
    with pytest.raises(ValueError):
        train(only_left)
    short = LabeledSample(
        DoaFeature(np.zeros((2, 10)), PipelineConfig(bins=10)), "none", SampleMeta("x")
    )
    with pytest.raises(ValueError, match="dimension"):
        train(samples + [short])


def test_predict_dimension_check():
    model = train(blob_set(per_class=5), lam=1.0, seed=0)
    with pytest.raises(ValueError):
        predict(model, np.zeros(61))


def _where_both(z, nonneg, neg):
    """The calibration forms as they were evaluated before: np.where over both
    branches, whose discarded branch may overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(z >= 0, nonneg(z), neg(z))


def _sigmoid_old(z):
    return _where_both(z, lambda v: np.exp(-v) / (1.0 + np.exp(-v)),
                       lambda v: 1.0 / (1.0 + np.exp(v)))


def test_predict_far_calibration_tails_raise_no_warnings():
    """With |a*s + b| far past 709 on both sides, predict warns about nothing
    and gives the probabilities of the old two-branch form bit for bit."""
    model = train(blob_set(per_class=10), lam=1.0, seed=1)
    model.calib_a = model.calib_a * 5e3
    rng = np.random.default_rng(4)
    tails = set()
    for _ in range(20):
        x = rng.uniform(0, 1, size=60)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = predict(model, x)
        z = model.calib_a * got.scores + model.calib_b
        tails |= {int(np.sign(v)) for v in z if abs(v) > 709}
        raw = _sigmoid_old(z)
        assert np.all(np.isfinite(raw))
        want = raw / raw.sum() if raw.sum() > 1e-300 else np.full(4, 0.25)
        assert got.probs.tobytes() == want.tobytes()
    assert tails == {-1, 1}


def test_platt_forms_match_the_two_branch_form_bit_for_bit(monkeypatch):
    """Each calibration form, evaluated per sign, equals the old np.where over
    both branches on every element, the far tails, +-0 and NaN included.  A
    Platt fit whose line search reaches |a*s + b| > 709 raises no warning and
    lands where the two-branch forms took it.  The stacked fit of several
    machines gives each one the per-machine oracle's a and b bit for bit,
    under either form."""
    from earshot import classifier

    z = np.concatenate([np.linspace(-2000.0, 2000.0, 4001), [-0.0, 0.0, 709.8, -709.8, np.nan]])
    assert classifier._platt_sigmoid(z).tobytes() == _sigmoid_old(z).tobytes()
    softplus = (lambda v: v + np.log1p(np.exp(-v)), lambda v: np.log1p(np.exp(v)))
    assert classifier._by_sign(z, *softplus).tobytes() == _where_both(z, *softplus).tobytes()

    rng = np.random.default_rng(0)
    scores = np.concatenate([rng.normal(-0.5, 1.0, 200), rng.normal(0.5, 1.0, 200), [2e3, -2e3]])
    positive = np.r_[np.zeros(200, bool), np.ones(200, bool), True, False]
    # More machines on scores of the same length: separable at a large
    # scale, unrelated labels, a single positive, and none at all.
    stack = np.stack([scores, 40.0 * scores, rng.normal(0.0, 3.0, 402), scores, scores])
    labels = np.stack([positive, positive, rng.random(402) < 0.3,
                       np.arange(402) == 7, np.zeros(402, bool)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fit_platt_reference(scores, positive)
        stacked = classifier._fit_platts(stack, labels)

    def assert_matches_the_oracle(fitted):
        for row, (a, b) in enumerate(zip(*fitted)):
            want = np.array(fit_platt_reference(stack[row], labels[row]))
            assert np.array([a, b]).tobytes() == want.tobytes()

    assert_matches_the_oracle(stacked)
    monkeypatch.setattr(classifier, "_by_sign", _where_both)
    assert repr(got) == repr(fit_platt_reference(scores, positive))
    assert_matches_the_oracle(classifier._fit_platts(stack, labels))


@pytest.mark.parametrize(
    "alpha,expected",
    [
        (-90.0, "left"),
        (-50.5, "left"),
        (-50.0, "front"),
        (-49.5, "front"),
        (0.0, "front"),
        (49.5, "front"),
        (50.0, "front"),
        (50.5, "right"),
        (90.0, "right"),
    ],
)
def test_threshold_rule_boundaries(alpha, expected):
    assert classify_azimuth(alpha, alpha_th=50.0) == expected


def test_threshold_rule_validation():
    with pytest.raises(ValueError):
        classify_azimuth(0.0, alpha_th=-1.0)
    with pytest.raises(ValueError):
        classify_azimuth(0.0, alpha_th=95.0)
    assert classify_azimuth(0.0, alpha_th=0.0) == "front"


def test_doa_baseline_reads_response_peak():
    grid = AzimuthGrid(30)

    def one_hot(b):
        e = np.zeros(30)
        e[b] = 1.0
        return DoaResponse(e, grid)

    assert classify_azimuth(argmax_doa(one_hot(0))) == "left"  # -87
    assert classify_azimuth(argmax_doa(one_hot(19))) == "front"  # +27
    assert classify_azimuth(argmax_doa(one_hot(29))) == "right"  # +87
    assert classify_azimuth(argmax_doa(one_hot(6)), alpha_th=40.0) == "left"  # -51


def test_model_round_trip(tmp_path):
    model = train(blob_set(per_class=8), lam=2.5, seed=3)
    path = tmp_path / "m.json"
    save_model(model, path)
    back = load_model(path)
    assert back.feature_dim == 60
    assert back.class_order == CLASS_ORDER
    assert back.lam == 2.5 and back.seed == 3
    assert np.array_equal(back.weights, model.weights)
    assert np.array_equal(back.calib_a, model.calib_a)
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = rng.uniform(0, 1, 60)
        assert predict(back, x).label == predict(model, x).label
        assert np.array_equal(predict(back, x).probs, predict(model, x).probs)


def test_load_model_rejects_foreign_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "something-else", "version": 1}')
    with pytest.raises(ModelFormatError):
        load_model(bad)

    model = train(blob_set(per_class=5), lam=1.0, seed=0)
    path = tmp_path / "m.json"
    save_model(model, path)
    import json

    payload = json.loads(path.read_text())
    payload["version"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelFormatError, match="version"):
        load_model(path)
    assert issubclass(ModelFormatError, ValueError)


def test_grid_search_peaks_inside_the_threshold_range(bench_flat):
    """Sweeping the threshold maximizes accuracy strictly inside (0, 90)."""
    from earshot.evaluate import doa_baseline_eval

    grid = list(range(0, 95, 5))
    accs = [doa_baseline_eval(bench_flat, alpha_th=float(th)).accuracy for th in grid]
    best = int(np.argmax(accs))
    assert 0 < grid[best] < 90
    assert accs[best] > accs[0]
    assert accs[best] > accs[-1]


# ---------------------------------------------------------------------------
# models check themselves on load


def _short_row(p):
    p["weights"][2] = p["weights"][2][:-1]


def _nan(p):
    p["calib_a"][1] = float("nan")


def _inf(p):
    p["weights"][0][7] = float("inf")


def _zero_std(p):
    p["scaler_std"][4] = 0.0


def _negative_std(p):
    p["scaler_std"][0] = -1.0


def _huge_weight(p):
    p["weights"][1][3] = 1.7e308


def _huge_bias(p):
    p["biases"][2] = 1.7e308


def _huge_calib_a(p):
    p["calib_a"][0] = 1.7e308


def _denormal_std(p):
    p["scaler_std"][5] = 5e-324


def _edited_config(p):
    p["config"]["f_max"] = 1400.0  # the stored config_hash is the old one


def _config_without_hop(p):
    del p["config"]["hop"]
    p["config_hash"] = config_hash(p["config"])


def _float_segments(p):
    p["config"]["segments"] = 2.0
    p["config_hash"] = config_hash(p["config"])


def _long_biases(p):
    p["biases"].append(0.0)


def _short_scaler_mean(p):
    p["scaler_mean"].pop()


def _scalar_calib_b(p):
    p["calib_b"] = 0.5


def _feature_dim(p):
    p["feature_dim"] = 59


def _nan_lambda(p):
    p["lambda"] = float("nan")


def _zero_lambda(p):
    p["lambda"] = 0.0


def _nan_window(p):
    p["config"]["sample_len"] = float("nan")
    p["config_hash"] = config_hash(p["config"])


def _swapped_sides(p):
    p["class_order"] = ["right", "front", "left", "none"]


def _no_weights(p):
    del p["weights"]


def _no_config_hash(p):
    del p["config_hash"]


def _string_weight(p):
    p["weights"][2][1] = "0.5"


def _bool_bias(p):
    p["biases"][3] = True


# One hand edit of a valid model file per way it can go wrong, and the word
# the error must name.
MODEL_EDITS = {
    "missing-weights": (_no_weights, "missing keys: weights"),
    "missing-config-hash": (_no_config_hash, "missing keys: config_hash"),
    "class-order": (_swapped_sides, "class order"),
    "short-weights-row": (_short_row, "weights must be"),
    "long-biases": (_long_biases, "biases must be"),
    "short-scaler-mean": (_short_scaler_mean, "scaler_mean must be"),
    "scalar-calib-b": (_scalar_calib_b, "calib_b must be"),
    "feature-dim": (_feature_dim, "feature_dim"),
    "nan": (_nan, "non-finite"),
    "inf": (_inf, "non-finite"),
    "zero-std": (_zero_std, "scaler_std must be positive"),
    "negative-std": (_negative_std, "scaler_std must be positive"),
    # finite numbers that would make predict overflow
    "huge-weight": (_huge_weight, "make predict overflow"),
    "huge-bias": (_huge_bias, "make predict overflow"),
    "huge-calib-a": (_huge_calib_a, "make predict overflow"),
    "denormal-std": (_denormal_std, "scaler_std must be at least 1e-12"),
    "config-hash": (_edited_config, "config_hash"),
    "config-key": (_config_without_hop, "hop"),
    "config-float-segments": (_float_segments, "segments must be an integer"),
    "config-nan-window": (_nan_window, "sample_len must be finite"),
    "nan-lambda": (_nan_lambda, "lambda must be finite and positive"),
    "zero-lambda": (_zero_lambda, "lambda must be finite and positive"),
    "truncated": (None, "not JSON"),
    # numbers only where numbers belong: a bool or a numeric string never counts
    "float-version": (lambda p: p.update(version=1.0), "version: could not convert 1.0 to an integer"),
    "bool-version": (lambda p: p.update(version=True), "version: could not convert true to an integer"),
    "float-seed": (lambda p: p.update(seed=1.9), "seed: could not convert 1.9 to an integer"),
    "string-seed": (lambda p: p.update(seed="7"), 'seed: could not convert "7" to an integer'),
    "float-feature-dim": (lambda p: p.update(feature_dim=60.0),
                          "feature_dim: could not convert 60.0 to an integer"),
    "string-lambda": (lambda p: p.update({"lambda": "1.0"}),
                      'lambda: could not convert "1.0" to a number'),
    "bool-lambda": (lambda p: p.update({"lambda": True}), "lambda: could not convert true to a number"),
    "string-weight": (_string_weight, 'weights: could not convert "0.5" to a number'),
    "bool-bias": (_bool_bias, "biases: could not convert true to a number"),
}


def write_edited_model(model_path, out_path, case):
    """Copy a model file with one of the MODEL_EDITS applied."""
    edit, message = MODEL_EDITS[case]
    text = model_path.read_text()
    if edit is None:  # a file cut short
        out_path.write_text(text[: len(text) // 2])
        return message
    payload = json.loads(text)
    edit(payload)
    out_path.write_text(json.dumps(payload))
    return message


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "m.json"
    save_model(train(blob_set(per_class=5), lam=1.0, seed=0), path)
    return path


@pytest.mark.parametrize("case", sorted(MODEL_EDITS))
def test_load_model_rejects_hand_edited_files(tmp_path, model_file, case):
    bad = tmp_path / f"{case}.json"
    message = write_edited_model(model_file, bad, case)
    with pytest.raises(ModelFormatError, match=message):
        load_model(bad)


def _model_config():
    return st.builds(PipelineConfig, segments=st.integers(1, 4), bins=st.integers(2, 12),
                     sample_len=st.floats(0.1, 5.0))


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), config=_model_config(), lam=st.floats(1e-6, 1e6), seed=st.integers(0, 2**32 - 1),
       tame=st.booleans())
def test_model_file_round_trip(tmp_path_factory, data, config, lam, seed, tame):
    """save_model writes every number exactly, and load_model gives them all
    back.  Tame numbers (|v| <= 1e50, scaler_std >= 1e-12) always load; over
    the whole finite range a model may instead be refused as one that would
    make predict overflow, with ModelFormatError."""
    n, dim = len(CLASS_ORDER), config.feature_dim
    values = st.floats(-1e50, 1e50) if tame else finite
    spread = st.floats(1e-12, 1e50) if tame else st.floats(1e-300, 1e300)
    model = SvmModel(
        weights=data.draw(arrays(np.float64, (n, dim), elements=values)),
        biases=data.draw(arrays(np.float64, n, elements=values)),
        scaler_mean=data.draw(arrays(np.float64, dim, elements=values)),
        scaler_std=data.draw(arrays(np.float64, dim, elements=spread)),
        calib_a=data.draw(arrays(np.float64, n, elements=values)),
        calib_b=data.draw(arrays(np.float64, n, elements=values)),
        lam=lam, seed=seed, config=config,
    )
    path = tmp_path_factory.mktemp("rt") / "m.json"
    save_model(model, path, extra={"origin": "round-trip"})
    keys = ("weights", "biases", "scaler_mean", "scaler_std", "calib_a", "calib_b")
    stored = json.loads(path.read_text())
    for key in keys:
        assert np.array_equal(np.asarray(stored[key]), getattr(model, key)), key
    try:
        back = load_model(path)
    except ModelFormatError:
        assert not tame
        return
    for key in keys:
        assert np.array_equal(getattr(back, key), getattr(model, key)), key
    assert (back.lam, back.seed, back.feature_dim) == (lam, seed, dim)
    assert back.config == model.config and back.class_order == CLASS_ORDER


_json_values = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 100), st.floats(), st.text(max_size=5),
    st.lists(st.floats(-2.0, 2.0), max_size=3), st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
)


@st.composite
def _model_edit(draw, payload):
    """One random edit somewhere in a model's JSON tree: drop, replace or
    resize a value at any depth."""
    node = payload
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            break
        key = draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
            continue
        action = draw(st.sampled_from(["drop", "replace", "grow"]))
        if action == "drop":
            del node[key]
        elif action == "grow" and isinstance(child, list):
            child.append(draw(_json_values))
        else:
            node[key] = draw(_json_values)
        break
    return payload


@pytest.mark.parametrize("seed", [float("inf"), float("-inf")])
def test_load_model_rejects_an_infinite_seed(tmp_path, model_file, seed):
    """JSON's Infinity parses to a float, which is not a JSON integer."""
    payload = json.loads(model_file.read_text())
    payload["seed"] = seed
    path = tmp_path / "m.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelFormatError, match=f"seed: could not convert {json.dumps(seed)} to an"):
        load_model(path)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_model_fuzz_loads_or_raises_model_format_error(model_file, tmp_path_factory, data):
    """Any one edit of a valid model file either loads into a usable model or
    raises ModelFormatError (exit 4); it never escapes as KeyError,
    IndexError or TypeError."""
    payload = data.draw(_model_edit(json.loads(model_file.read_text())))
    path = tmp_path_factory.mktemp("fuzz") / "m.json"
    path.write_text(json.dumps(payload))
    try:
        model = load_model(path)
    except ModelFormatError:
        return
    probs = predict(model, np.linspace(0.0, 1.0, model.feature_dim)).probs
    assert np.all(np.isfinite(probs)) and abs(probs.sum() - 1.0) < 1e-9
