import json
import math
import re

import numpy as np
import pytest

from jgekd.corruptions import ALL_EVAL_KINDS, BACKGROUND_EXCLUDED_KINDS, K
from jgekd.model import PARAM_KEYS, init_params, load_params, save_params
from jgekd.pointcloud import LabeledCloud, generate_split
from jgekd.training import (
    AdamState,
    MetricsReport,
    NumericalError,
    TrainConfig,
    build_robustness_table,
    class_correlation,
    correlation_matrix,
    corruption_error,
    evaluate,
    metrics_from_predictions,
    metrics_json,
    robustness_csv,
    robustness_eval,
    robustness_json,
    train,
    welch_t,
)


def _splits(per_class_train=2, per_class_test=1, n_points=12, seed=0):
    train_samples = generate_split(per_class_train, n_points, seed=seed, split_index=0)
    test_samples = generate_split(per_class_test, n_points, seed=seed, split_index=1)
    return train_samples, test_samples


# --- config validation ---


def test_config_validation():
    TrainConfig(strategy="st", epochs=1).validate()
    with pytest.raises(ValueError):
        TrainConfig(strategy="nope").validate()
    for bad in (0, 1.5, True):
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=bad).validate()
    for bad in (1, 2.5, True):
        with pytest.raises(ValueError, match="n_classes"):
            TrainConfig(n_classes=bad).validate()
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-1.0).validate()
    with pytest.raises(ValueError):
        TrainConfig(alpha=-0.5).validate()
    with pytest.raises(ValueError):
        TrainConfig(beta=-0.5).validate()
    with pytest.raises(ValueError):
        TrainConfig(epsilon=1.0).validate()
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=bad).validate()
        with pytest.raises(ValueError):
            TrainConfig(alpha=bad).validate()
        with pytest.raises(ValueError):
            TrainConfig(beta=bad).validate()
    with pytest.raises(ValueError):
        TrainConfig(strategy="tkd").validate()  # teacher required


def test_config_to_dict_roundtrips_through_json():
    cfg = TrainConfig(strategy="skd", epochs=3, seed=7)
    blob = json.dumps(cfg.to_dict())
    assert json.loads(blob)["strategy"] == "skd"


# --- Adam ---


def test_adam_first_step_is_signed_lr():
    # bias corrections cancel on step 1: update = lr * g / (|g| + eps)
    params = init_params(0, 2)
    before = params.w1.copy()
    grads = {key: np.zeros_like(getattr(params, key)) for key in PARAM_KEYS}
    grads["w1"] = np.full_like(params.w1, 0.5)
    adam = AdamState(params)
    adam.step(params, grads, lr=1e-3)
    expected = before - 1e-3 * 0.5 / (0.5 + 1e-8)
    assert np.allclose(params.w1, expected, atol=1e-12)
    assert np.array_equal(params.b1, np.zeros_like(params.b1))


def test_adam_moments_track_shapes():
    params = init_params(0, 3)
    adam = AdamState(params)
    for key in PARAM_KEYS:
        assert adam.m[key].shape == getattr(params, key).shape
        assert adam.v[key].shape == getattr(params, key).shape


# --- metrics arithmetic ---


def test_metrics_all_correct():
    rep = metrics_from_predictions([0, 1, 2], [0, 1, 2], 3)
    assert rep.overall_accuracy == 1.0
    assert rep.mean_class_accuracy == 1.0


def test_metrics_hand_example():
    # class 0: 2/2, class 1: 1/3 -> OA 0.6, mAcc (1 + 1/3)/2
    labels = [0, 0, 1, 1, 1]
    preds = [0, 0, 1, 0, 0]
    rep = metrics_from_predictions(labels, preds, 2)
    assert abs(rep.overall_accuracy - 0.6) <= 1e-12
    assert abs(rep.mean_class_accuracy - (1.0 + 1.0 / 3.0) / 2.0) <= 1e-12
    assert abs(rep.mean_class_accuracy - 0.6667) <= 5e-4


def test_metrics_rejects_bad_labels():
    for bad in (3, -1, 1.0, True, None):
        with pytest.raises(ValueError, match=r"label must be an integer in 0\.\.2, got %r" % (bad,)):
            metrics_from_predictions([0, bad], [0, 1], 3)


def test_metrics_absent_class_excluded_from_macc():
    rep = metrics_from_predictions([0, 0], [0, 1], 3)
    assert rep.overall_accuracy == 0.5
    assert rep.mean_class_accuracy == 0.5
    assert math.isnan(rep.per_class_accuracy[1])
    assert math.isnan(rep.per_class_accuracy[2])


def test_oa_is_count_weighted_combination_of_per_class():
    labels = [0, 0, 0, 1, 2, 2]
    preds = [0, 1, 0, 1, 2, 0]
    rep = metrics_from_predictions(labels, preds, 3)
    counts = np.array([3, 1, 2])
    per_class = np.array(rep.per_class_accuracy)
    assert abs(rep.overall_accuracy - float((per_class * counts).sum() / counts.sum())) <= 1e-12


def test_evaluate_ties_break_to_lowest_class():
    # all-zero weights force identical logits; argmax must pick class 0
    params = init_params(0, 8)
    for key in PARAM_KEYS:
        getattr(params, key)[...] = 0.0
    _, test_samples = _splits()
    rep = evaluate(params, test_samples)
    assert rep.per_class_accuracy[0] == 1.0
    assert all(a == 0.0 for a in rep.per_class_accuracy[1:] if not math.isnan(a))


def test_evaluate_rejects_empty():
    with pytest.raises(ValueError):
        evaluate(init_params(0, 2), [])


def test_evaluate_consumes_clouds_as_given():
    # shifted clouds must not be silently renormalized
    params = init_params(1, 8)
    _, test_samples = _splits()
    base = evaluate(params, test_samples)
    shifted = [LabeledCloud(s.points + 5.0, s.label) for s in test_samples]
    moved = evaluate(params, shifted)
    probs_equal = base.per_class_accuracy == moved.per_class_accuracy
    # identical metrics would only happen if the inputs were renormalized;
    # compare the raw logits to be precise
    from jgekd.model import forward

    a = forward(params, test_samples[0].points).logits
    b = forward(params, shifted[0].points).logits
    assert not np.array_equal(a, b)


# --- training loop ---


def test_train_deterministic_byte_identical(tmp_path):
    train_samples, test_samples = _splits()
    cfg = TrainConfig(strategy="skd", epochs=2, seed=3, augment=True)
    params_a, _ = train(cfg, train_samples, test_samples)
    params_b, _ = train(cfg, train_samples, test_samples)
    pa, pb = tmp_path / "a.jgp", tmp_path / "b.jgp"
    save_params(pa, params_a)
    save_params(pb, params_b)
    assert pa.read_bytes() == pb.read_bytes()


def test_skd_beta_zero_no_augment_equals_st(tmp_path):
    train_samples, test_samples = _splits()
    st = TrainConfig(strategy="st", epochs=2, seed=5, augment=False)
    skd = TrainConfig(strategy="skd", epochs=2, seed=5, augment=False, beta=0.0)
    params_st, _ = train(st, train_samples, test_samples)
    params_skd, _ = train(skd, train_samples, test_samples)
    pa, pb = tmp_path / "st.jgp", tmp_path / "skd.jgp"
    save_params(pa, params_st)
    save_params(pb, params_skd)
    assert pa.read_bytes() == pb.read_bytes()


def test_train_loss_history_length_and_finiteness():
    train_samples, test_samples = _splits()
    cfg = TrainConfig(strategy="st", epochs=3, seed=0, augment=False)
    _, report = train(cfg, train_samples, test_samples)
    assert len(report.loss_history) == 3
    assert all(math.isfinite(v) for v in report.loss_history)


def test_single_sample_overfit_loss_non_increasing():
    sample = generate_split(1, 12, seed=0, split_index=0)[:1]
    cfg = TrainConfig(
        strategy="st", epochs=50, seed=0, augment=False, learning_rate=1e-3, n_classes=8
    )
    _, report = train(cfg, sample, sample)
    hist = report.loss_history
    assert len(hist) == 50
    assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:])), hist


def test_train_rejects_bad_labels():
    train_samples, test_samples = _splits()
    cfg = TrainConfig(strategy="st", epochs=1, n_classes=8)
    for label in (99, -1, 1.0, True):
        bad = [LabeledCloud(train_samples[0].points, label)] + train_samples[1:]
        with pytest.raises(ValueError):
            train(cfg, bad, test_samples)
    bad = [LabeledCloud(train_samples[0].points, 99)] + train_samples[1:]
    with pytest.raises(ValueError, match=r"^labels 0\.\.99 fall outside the 8 configured classes$"):
        train(cfg, bad, test_samples)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_train_nan_aborts_with_numerical_error():
    train_samples, test_samples = _splits()
    cfg = TrainConfig(strategy="st", epochs=3, seed=0, augment=False, learning_rate=1e300)
    # Rows are checked in batch order, so the first non-finite sample of the
    # batch is blamed, as when each sample had its own graph.
    message = "non-finite loss nan at epoch 1, sample 1 (st)"
    with pytest.raises(NumericalError, match="^%s$" % re.escape(message)):
        train(cfg, train_samples, test_samples)


def test_tkd_requires_teacher_and_freezes_it(tmp_path):
    train_samples, test_samples = _splits()
    teacher_params, _ = train(
        TrainConfig(strategy="st", epochs=1, seed=1, augment=False),
        train_samples,
        test_samples,
    )
    teacher_path = tmp_path / "teacher.jgp"
    save_params(teacher_path, teacher_params)
    frozen = teacher_path.read_bytes()
    cfg = TrainConfig(
        strategy="tkd", epochs=2, seed=2, teacher_checkpoint=str(teacher_path)
    )
    params, report = train(cfg, train_samples, test_samples)
    assert teacher_path.read_bytes() == frozen
    assert len(report.loss_history) == 2


def test_tkd_teacher_class_count_mismatch(tmp_path):
    train_samples, test_samples = _splits()
    teacher_path = tmp_path / "teacher.jgp"
    save_params(teacher_path, init_params(0, 5))
    cfg = TrainConfig(
        strategy="tkd", epochs=1, teacher_checkpoint=str(teacher_path), n_classes=8
    )
    with pytest.raises(ValueError):
        train(cfg, train_samples, test_samples)


# --- corruption error and robustness table ---


def test_corruption_error_cases():
    assert corruption_error([0.5, 0.5], [0.5, 0.5]) == 1.0
    assert corruption_error([1.0, 1.0], [0.8, 0.9]) == 0.0
    assert corruption_error([0.8], [0.9]) == pytest.approx(2.0)
    # degenerate: both perfect -> defined as 1.0; ref perfect alone -> inf
    assert corruption_error([1.0], [1.0]) == 1.0
    assert corruption_error([0.9], [1.0]) == math.inf


def test_build_robustness_table_reference_identity():
    kinds = [K.ROTATION, K.GAUSSIAN]
    oa = {
        K.ROTATION: {s: 0.7 for s in range(1, 6)},
        K.GAUSSIAN: {s: 0.4 + 0.05 * s for s in range(1, 6)},
    }
    mirror = {kind: dict(cells) for kind, cells in oa.items()}
    table = build_robustness_table(kinds, (1, 2, 3, 4, 5), oa, mirror)
    assert all(table.ce[kind] == 1.0 for kind in kinds)
    assert table.mce == 1.0


def test_build_robustness_table_perfect_model():
    kinds = [K.ROTATION]
    oa_model = {K.ROTATION: {s: 1.0 for s in range(1, 6)}}
    oa_ref = {K.ROTATION: {s: 0.6 for s in range(1, 6)}}
    table = build_robustness_table(kinds, (1, 2, 3, 4, 5), oa_model, oa_ref)
    assert table.ce[K.ROTATION] == 0.0
    assert table.mce == 0.0


def test_robustness_eval_self_reference_is_unity():
    params = init_params(0, 8)
    _, test_samples = _splits(per_class_test=2, n_points=16)
    table = robustness_eval(params, params, test_samples, seed=0)
    assert list(table.kinds) == list(BACKGROUND_EXCLUDED_KINDS)
    assert all(table.ce[kind] == 1.0 for kind in table.kinds)
    assert table.mce == 1.0


def test_robustness_eval_kind_subset_and_background():
    params = init_params(0, 8)
    _, test_samples = _splits(per_class_test=1, n_points=12)
    table = robustness_eval(
        params, params, test_samples, seed=0, kinds=[K.BACKGROUND], severities=(1, 2)
    )
    assert list(table.kinds) == [K.BACKGROUND]
    assert set(table.oa_model) == {K.BACKGROUND}
    assert set(table.oa_model[K.BACKGROUND]) == {1, 2}


# --- statistics ---


def test_welch_t_identical_samples_zero():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert welch_t(x, x.copy()) == 0.0


def test_welch_t_zero_variance_cases():
    a = np.full(5, 2.0)
    assert welch_t(a, a.copy()) == 0.0
    b = np.full(5, 3.0)
    assert math.isinf(welch_t(a, b))


def test_welch_t_known_value():
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([2.0, 3.0, 4.0])
    var = 1.0  # ddof=1 sample variance of both
    expected = (2.0 - 3.0) / math.sqrt(var / 3 + var / 3)
    assert welch_t(a, b) == pytest.approx(expected, abs=1e-12)


def test_correlation_matrix_identical_and_offset():
    rng = np.random.default_rng(0)
    base = rng.normal(size=(20, 64))
    offset = base + 100.0 * base.std(axis=0, ddof=1)
    scores = correlation_matrix([base, base.copy(), offset])
    assert scores.shape == (3, 3)
    assert np.array_equal(scores, scores.T)
    assert scores[0, 1] == 1.0  # identical sets: every |t| = 0
    assert scores[0, 2] == 0.0  # 100 sigma offset: every |t| huge


def test_correlation_matrix_diagonal_split_halves():
    rng = np.random.default_rng(1)
    feats = rng.normal(size=(30, 64))
    scores = correlation_matrix([feats])
    # split halves of one homogeneous sample: mostly insignificant
    assert scores[0, 0] >= 0.8


def test_class_correlation_validates_sample_count():
    params = init_params(0, 8)
    train_samples, _ = _splits(per_class_train=3)
    with pytest.raises(ValueError):
        class_correlation(params, train_samples, samples_per_class=4)
    for bad in (3, 4.5, True):
        with pytest.raises(ValueError, match="samples_per_class"):
            class_correlation(params, train_samples, samples_per_class=bad)
    train_samples, _ = _splits(per_class_train=4)
    for bad in (8, 1.0):
        relabeled = [LabeledCloud(train_samples[0].points, bad)] + train_samples[1:]
        with pytest.raises(ValueError, match=r"label must be an integer in 0\.\.7, got %r" % (bad,)):
            class_correlation(params, relabeled, samples_per_class=4)


def test_class_correlation_shape_and_symmetry():
    params = init_params(0, 8)
    train_samples, _ = _splits(per_class_train=4)
    scores = class_correlation(params, train_samples, samples_per_class=4)
    assert scores.shape == (8, 8)
    assert np.array_equal(scores, scores.T)
    assert np.all(scores >= 0.0) and np.all(scores <= 1.0)


# --- serialization ---


def test_metrics_json_handles_nan():
    rep = metrics_from_predictions([0, 0], [0, 1], 3)
    blob = json.loads(metrics_json(rep, TrainConfig().to_dict()))
    assert blob["per_class_accuracy"][1] is None
    assert blob["overall_accuracy"] == 0.5
    assert "config" in blob


def test_robustness_serializers():
    kinds = [K.ROTATION]
    oa_model = {K.ROTATION: {s: 0.5 for s in range(1, 6)}}
    mirror = {K.ROTATION: dict(oa_model[K.ROTATION])}
    table = build_robustness_table(kinds, (1, 2, 3, 4, 5), oa_model, mirror)
    blob = json.loads(robustness_json(table, TrainConfig().to_dict()))
    assert blob["mce"] == 1.0
    assert blob["cells"]["rotation"]["ce"] == 1.0
    csv_text = robustness_csv(table)
    lines = [l for l in csv_text.splitlines() if l and not l.startswith("#")]
    # header + 5 severity rows + 1 ce row + 1 mce row
    assert any(line.startswith("mce") for line in lines)
    assert sum(line.startswith("rotation,") for line in lines) >= 5
