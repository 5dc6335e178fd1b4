"""Acceptance gate: one numbered test per shipped guarantee.

Tests 1 to 8 are oracle and property checks and finish in seconds each.
Tests 9 to 11 train real models on the synthetic dataset and dominate the
suite's wall clock (a few minutes on one core); they carry the `slow`
marker, so `pytest -m "not slow"` leaves them out. Each test ends by printing
a single PASS/FAIL line, so `pytest -v -s tests/test_acceptance.py` reads
as a checklist.
"""

import math
import os
import time

import numpy as np
import pytest

import oracles
from jgekd import losses, numerics as ng
from jgekd.corruptions import (
    ALL_EVAL_KINDS,
    DENSITY_KINDS,
    K,
    TRANSFORM_KINDS,
    apply_corruption,
)
from jgekd.model import PARAM_KEYS, forward, init_params, save_params
from jgekd.numerics import Rng, split_seed
from jgekd.pointcloud import generate_split
from jgekd.training import TrainConfig, robustness_eval, train


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    print("criterion %02d [%s] %s  %s" % (num, "PASS" if ok else "FAIL", label, detail))
    assert ok, "criterion %02d failed: %s (%s)" % (num, label, detail)


def _prob(rng, n):
    """Pure-python simplex draw shared with the oracle side."""
    return oracles.random_prob_vector(rng, n)


# --- 1: loss oracle equivalence ---


def test_criterion_01_loss_oracles():
    rng = np.random.default_rng(2026)
    sizes = (2, 5, 10, 40)
    t0 = time.monotonic()
    worst = 0.0
    for trial in range(1000):
        n = sizes[trial % len(sizes)]
        p = _prob(rng, n)
        p2 = _prob(rng, n)
        pt = _prob(rng, n)
        q = [0.0] * n
        q[int(rng.integers(n))] = 1.0
        ap = np.asarray(p)
        ap2 = np.asarray(p2)
        apt = np.asarray(pt)
        aq = np.asarray(q)
        checks = (
            (losses.jgekd_loss(losses.joint_graph(ap), losses.joint_graph(ap2)), oracles.jgekd(p, p2)),
            (losses.jgeskd_loss(ap, ap2), oracles.jgekd(p, p2)),
            (losses.jgetkd_loss(ap, ap2, aq, apt, 0.1), oracles.jgetkd(p, p2, q, pt, 0.1)),
            (losses.cross_entropy_smoothed(ap, aq, 0.1), oracles.cross_entropy(p, q, 0.1)),
            (losses.vanilla_kd_loss(ap, apt), oracles.vanilla_kd(p, pt)),
        )
        for node, want in checks:
            worst = max(worst, abs(float(node.value) - want))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    _verdict(
        1,
        "five loss families match fsum brute force on 1000 draws each",
        ok,
        "worst=%.2e elapsed=%.1fs" % (worst, elapsed),
    )


# --- 2: closed-form spot values ---


def test_criterion_02_closed_forms():
    uniform = np.full(2, 0.5)
    self_graph = float(losses.jgeskd_loss(uniform, uniform).value)
    ok_uniform = abs(self_graph - 0.3465736) <= 1e-6

    hot = np.zeros(4)
    hot[2] = 1.0
    one_hot_loss = float(
        losses.jgekd_loss(losses.joint_graph(hot), losses.joint_graph(hot)).value
    )
    ok_one_hot = one_hot_loss == 0.0

    smoothed = losses.smooth_labels(np.array([1.0, 0.0, 0.0, 0.0]), 0.1)
    want = np.array([0.9, 1.0 / 30.0, 1.0 / 30.0, 1.0 / 30.0])
    ok_smooth = float(np.max(np.abs(smoothed - want))) <= 1e-12

    ok = ok_uniform and ok_one_hot and ok_smooth
    _verdict(
        2,
        "closed-form spot values (uniform self-graph, one-hot zero, smoothing)",
        ok,
        "uniform=%.7f one_hot=%r" % (self_graph, one_hot_loss),
    )


# --- 3: gradients of the full objective ---


def _objective(strategy, leaves, clean, corrupted, q, teacher_probs):
    """The per-sample training objective, rebuilt outside the trainer. Each
    branch is a stack of one cloud, so q, the teacher's probabilities and
    every term are one-row stacks."""
    _, p_clean, _ = oracles.forward_stack(leaves, ng.leaf(clean))
    _, p_prime, _ = oracles.forward_stack(leaves, ng.leaf(corrupted))
    ce = ng.add(
        ng.scale(losses.cross_entropy_smoothed(p_clean, q, 0.1), 0.5),
        ng.scale(losses.cross_entropy_smoothed(p_prime, q, 0.1), 0.5),
    )
    if strategy == "st":
        kd = ng.leaf(np.zeros(1))
    elif strategy == "skd":
        kd = losses.jgeskd_loss(p_clean, p_prime)
    else:
        kd = losses.jgetkd_loss(p_clean, p_prime, q, teacher_probs, 0.1)
    return ng.reduce_sum(losses.total_loss(ce, kd, 1.0, 1.0))


def test_criterion_03_objective_gradients():
    t0 = time.monotonic()
    n_classes = 4
    strategies = ("st", "skd", "tkd")
    worst = 0.0
    for inst in range(20):
        strategy = strategies[inst % 3]
        block = PARAM_KEYS[inst % len(PARAM_KEYS)]
        rng = Rng(split_seed(11, inst, 0))
        params = init_params(split_seed(11, inst, 1), n_classes)
        teacher = init_params(split_seed(11, inst, 2), n_classes)
        clean = rng.normals(18).reshape(6, 3)
        corrupted = clean + 0.05 * rng.normals(18).reshape(6, 3)
        q = np.zeros((1, n_classes))
        q[0, rng.randint(n_classes)] = 1.0
        teacher_probs = forward(teacher, clean).probs[None]
        blocks = params.blocks()

        def f(node, _strategy=strategy, _block=block, _blocks=blocks):
            leaves = {key: ng.leaf(arr) for key, arr in _blocks.items()}
            leaves[_block] = node
            return _objective(_strategy, leaves, clean, corrupted, q, teacher_probs)

        err = oracles.grad_check(f, blocks[block], h=1e-6)
        worst = max(worst, err)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-4 and elapsed < 30.0
    _verdict(
        3,
        "full objective gradients match central differences for all strategies",
        ok,
        "worst=%.2e elapsed=%.1fs" % (worst, elapsed),
    )


# --- 4: joint-graph invariants ---


def test_criterion_04_graph_invariants():
    rng = np.random.default_rng(4)
    worst_sum = 0.0
    symmetric = True
    dual = True
    for _ in range(10000):
        n = int(rng.integers(2, 13))
        p = rng.dirichlet(np.ones(n))
        r = rng.dirichlet(np.ones(n))
        a = losses.joint_graph(p).value
        worst_sum = max(worst_sum, abs(float(a.sum()) - 1.0))
        symmetric = symmetric and np.array_equal(a, a.T)
        cross = losses.cross_joint_graph(p, r).value
        dual = dual and np.array_equal(cross, losses.cross_joint_graph(r, p).value.T)
    ok = worst_sum <= 1e-9 and symmetric and dual
    _verdict(
        4,
        "joint graphs sum to one, are symmetric, and transpose under swap",
        ok,
        "worst_sum_err=%.2e" % worst_sum,
    )


# --- 5: graph-loss minimum on the simplex grid ---


def _simplex_grid():
    pts = []
    for i in range(101):
        for j in range(101 - i):
            pts.append(np.array([i, j, 100 - i - j], dtype=np.float64) / 100.0)
    return pts


def _loss_argmin(grid, p):
    pred = losses.joint_graph(np.asarray(p))
    best, best_val = -1, math.inf
    for idx, g in enumerate(grid):
        val = float(losses.jgekd_loss(pred, losses.joint_graph(g)).value)
        if val < best_val:
            best, best_val = idx, val
    return best


def _kl_argmin(grid, p):
    # independent pure-python scoring with the same 1e-12 clamp
    best, best_val = -1, math.inf
    for idx, g in enumerate(grid):
        val = math.fsum(-(p[i] * math.log(max(g[i], 1e-12))) for i in range(3))
        if val < best_val:
            best, best_val = idx, val
    return best


def test_criterion_05_graph_minimum():
    t0 = time.monotonic()
    grid = _simplex_grid()
    rng = np.random.default_rng(0)
    oracle_agrees = True
    near_p = True
    for _ in range(20):
        p = rng.dirichlet(np.ones(3))
        loss_idx = _loss_argmin(grid, p)
        oracle_agrees = oracle_agrees and loss_idx == _kl_argmin(grid, list(p))
        if float(p.min()) >= 0.02:
            # interior draws settle within one grid step of p per coordinate
            near_p = near_p and float(np.max(np.abs(grid[loss_idx] - p))) <= 0.01 + 1e-9
    exact_on_grid = True
    for _ in range(5):
        p = grid[int(rng.integers(len(grid)))]
        exact_on_grid = exact_on_grid and np.array_equal(grid[_loss_argmin(grid, p)], p)
    elapsed = time.monotonic() - t0
    ok = oracle_agrees and near_p and exact_on_grid and elapsed < 60.0
    _verdict(
        5,
        "grid minimizer sits where the distributions match (divergence oracle)",
        ok,
        "oracle=%s near=%s exact=%s elapsed=%.1fs" % (oracle_agrees, near_p, exact_on_grid, elapsed),
    )


# --- 6: model invariances ---


def test_criterion_06_model_invariances():
    params = init_params(6, 5)
    rng = np.random.default_rng(66)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(4, 33))
        cloud = rng.standard_normal((n, 3))
        base = forward(params, cloud)
        perm = rng.permutation(n)
        permuted = forward(params, cloud[perm])
        dup_rows = rng.integers(0, n, size=int(rng.integers(1, 9)))
        duplicated = forward(params, np.vstack([cloud, cloud[dup_rows]]))
        ok = (
            ok
            and np.array_equal(base.logits, permuted.logits)
            and np.array_equal(base.probs, permuted.probs)
            and np.array_equal(base.logits, duplicated.logits)
            and np.array_equal(base.probs, duplicated.probs)
        )
    _verdict(6, "permutation and duplication invariance, bit-exact, 1000 trials", ok)


# --- 7: corruption determinism and family invariants ---


def _is_ordered_subset(subset, full):
    pos = 0
    for row in subset:
        while pos < len(full) and not np.array_equal(full[pos], row):
            pos += 1
        if pos == len(full):
            return False
        pos += 1
    return True


def test_criterion_07_corruption_properties():
    base = generate_split(1, 64, seed=3, split_index=0)[0].points
    n = len(base)
    deterministic = True
    families_ok = True
    for kind_index, kind in enumerate(ALL_EVAL_KINDS):
        for seed in range(100):
            cell_seed = split_seed(70, kind_index, seed)
            out = apply_corruption(base, kind, 3, Rng(cell_seed))
            again = apply_corruption(base, kind, 3, Rng(cell_seed))
            deterministic = deterministic and np.array_equal(out, again)
            if kind in DENSITY_KINDS and kind is not K.DENSITY_INC:
                # sparse anchor balls may round the drop count to zero
                families_ok = families_ok and 8 <= len(out) <= n
                families_ok = families_ok and _is_ordered_subset(out, base)
            elif kind is K.DENSITY_INC:
                families_ok = families_ok and len(out) >= n + 2 and (len(out) - n) % 2 == 0
                families_ok = families_ok and np.array_equal(out[:n], base)
            elif kind is K.UPSAMPLING:
                families_ok = families_ok and len(out) == n + math.ceil(3 * n / 10)
                families_ok = families_ok and np.array_equal(out[:n], base)
            elif kind is K.BACKGROUND:
                families_ok = families_ok and len(out) == n + math.ceil(3 * n / 20)
                families_ok = families_ok and np.array_equal(out[:n], base)
            elif kind is K.IMPULSE:
                moved = np.linalg.norm(out - base, axis=1)
                hit = moved > 0
                families_ok = families_ok and int(hit.sum()) == math.ceil(0.02 * 3 * n)
                families_ok = families_ok and bool(np.all(np.abs(moved[hit] - 0.1) <= 1e-9))
            else:
                families_ok = families_ok and out.shape == base.shape

    monotone = True
    displacement_kinds = TRANSFORM_KINDS + (K.GAUSSIAN, K.UNIFORM, K.IMPULSE)
    for kind_index, kind in enumerate(displacement_kinds):
        means = []
        for severity in range(1, 6):
            total = 0.0
            for seed in range(100):
                out = apply_corruption(
                    base, kind, severity, Rng(split_seed(71, kind_index, seed))
                )
                total += float(np.mean(np.linalg.norm(out - base, axis=1)))
            means.append(total / 100.0)
        monotone = monotone and all(a < b for a, b in zip(means, means[1:]))

    ok = deterministic and families_ok and monotone
    _verdict(
        7,
        "corruptions are seed-deterministic; counts, subsets, and severity scaling hold",
        ok,
        "det=%s fam=%s mono=%s" % (deterministic, families_ok, monotone),
    )


# --- 8: mCE self-consistency ---


def test_criterion_08_mce_self_consistency():
    params = init_params(9, 8)
    samples = generate_split(2, 24, seed=5, split_index=1)
    table = robustness_eval(params, params, samples, seed=0)
    all_ones = all(value == 1.0 for value in table.ce.values())
    ok = all_ones and table.mce == 1.0 and len(table.ce) == 12
    _verdict(
        8,
        "a model referenced against itself scores CE = 1.0 everywhere, mCE = 1.0",
        ok,
        "mce=%r" % table.mce,
    )


# --- 9: desk-scale training ---


@pytest.mark.slow
def test_criterion_09_desk_scale_training():
    train_samples = generate_split(100, 64, seed=0, split_index=0)
    test_samples = generate_split(30, 64, seed=0, split_index=1)
    # "On one core": with one usable CPU, training runs in one process.
    mask = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else None
    if mask is not None:
        os.sched_setaffinity(0, [min(mask)])
    try:
        t0 = time.monotonic()
        _, report = train(TrainConfig(strategy="st", epochs=200, seed=0), train_samples, test_samples)
        elapsed = time.monotonic() - t0
    finally:
        if mask is not None:
            os.sched_setaffinity(0, mask)
    ok = report.overall_accuracy >= 0.90 and elapsed <= 300.0
    _verdict(
        9,
        "plain training reaches 0.90 test accuracy inside five minutes",
        ok,
        "OA=%.4f elapsed=%.0fs" % (report.overall_accuracy, elapsed),
    )


# --- 10: robustness ordering across strategies ---

# Desk-scale protocol: a small train split and sparse clouds keep clean
# accuracy off the ceiling so corruption errors can separate the strategies.
C10_PER_TRAIN = 10
C10_PER_TEST = 15
C10_POINTS = 32
C10_EPOCHS = 40


@pytest.mark.slow
def test_criterion_10_robustness_ordering(tmp_path):
    train_samples = generate_split(C10_PER_TRAIN, C10_POINTS, seed=0, split_index=0)
    test_samples = generate_split(C10_PER_TEST, C10_POINTS, seed=0, split_index=1)
    skd_wins = 0
    tkd_close = 0
    details = []
    for seed in (1, 2, 3):
        st_params, _ = train(
            TrainConfig(strategy="st", epochs=C10_EPOCHS, seed=seed), train_samples, test_samples
        )
        skd_params, _ = train(
            TrainConfig(strategy="skd", epochs=C10_EPOCHS, seed=seed), train_samples, test_samples
        )
        teacher_path = str(tmp_path / ("teacher_%d.jgp" % seed))
        save_params(teacher_path, skd_params)
        tkd_params, _ = train(
            TrainConfig(
                strategy="tkd", epochs=C10_EPOCHS, seed=seed, teacher_checkpoint=teacher_path
            ),
            train_samples,
            test_samples,
        )
        skd_mce = robustness_eval(skd_params, st_params, test_samples, 0, kinds=TRANSFORM_KINDS).mce
        tkd_mce = robustness_eval(tkd_params, st_params, test_samples, 0, kinds=TRANSFORM_KINDS).mce
        skd_wins += skd_mce < 1.0
        tkd_close += tkd_mce <= skd_mce + 0.05
        details.append("s%d:skd=%.3f,tkd=%.3f" % (seed, skd_mce, tkd_mce))
    ok = skd_wins >= 2 and tkd_close >= 2
    _verdict(
        10,
        "self-distillation beats matched augmentation on transform robustness (2 of 3 seeds)",
        ok,
        " ".join(details),
    )


# --- 11: accuracy-gap narrowing under class imbalance ---

# Calibrated so accuracy is past the noisy early phase but short of the
# ceiling where both strategies tie at zero gap.
C11_EPOCHS = 15
C11_POINTS = 32
C11_TRAIN_COUNTS = [(100, 50, 25)[i % 3] for i in range(8)]
C11_TEST_COUNTS = [(30, 15, 8)[i % 3] for i in range(8)]


@pytest.mark.slow
def test_criterion_11_gap_narrowing():
    train_samples = generate_split(C11_TRAIN_COUNTS, C11_POINTS, seed=0, split_index=0)
    test_samples = generate_split(C11_TEST_COUNTS, C11_POINTS, seed=0, split_index=1)
    narrowed = 0
    details = []
    for seed in (1, 2, 3):
        _, st_report = train(
            TrainConfig(strategy="st", epochs=C11_EPOCHS, seed=seed), train_samples, test_samples
        )
        _, skd_report = train(
            TrainConfig(strategy="skd", epochs=C11_EPOCHS, seed=seed), train_samples, test_samples
        )
        st_gap = abs(st_report.overall_accuracy - st_report.mean_class_accuracy)
        skd_gap = abs(skd_report.overall_accuracy - skd_report.mean_class_accuracy)
        narrowed += skd_gap <= st_gap
        details.append("s%d:st=%.4f,skd=%.4f" % (seed, st_gap, skd_gap))
    ok = narrowed >= 2
    _verdict(
        11,
        "distillation narrows the overall-vs-mean accuracy gap under imbalance (2 of 3 seeds)",
        ok,
        " ".join(details),
    )
