import math

import numpy as np
import pytest

import oracles
from jgekd import numerics as ng
from jgekd.losses import (
    cross_entropy_smoothed,
    cross_joint_graph,
    jgekd_loss,
    jgeskd_loss,
    jgetkd_loss,
    joint_graph,
    joint_graph_entropy,
    smooth_labels,
    total_loss,
    vanilla_kd_loss,
)

UNIFORM_N2_LOSS = 0.3465736  # 0.25 * log 4


def _prob(rng, n):
    return np.array(oracles.random_prob_vector(rng, n))


# --- joint graphs ---


def test_joint_graph_one_hot():
    out = joint_graph(np.array([1.0, 0.0])).value
    assert out.tolist() == [[1.0, 0.0], [0.0, 0.0]]


def test_joint_graph_uniform():
    out = joint_graph(np.array([0.5, 0.5])).value
    assert np.all(out == 0.25)


def test_joint_graph_direct_example():
    out = joint_graph(np.array([0.6, 0.4])).value
    assert np.allclose(out, [[0.36, 0.24], [0.24, 0.16]], atol=1e-12)
    # entries are the exact float products
    assert out[0, 1] == 0.6 * 0.4


def test_joint_graph_symmetric_exact():
    rng = np.random.default_rng(0)
    for _ in range(100):
        a = joint_graph(_prob(rng, int(rng.integers(2, 9)))).value
        assert np.array_equal(a, a.T)


def test_joint_graph_entry_sum():
    rng = np.random.default_rng(1)
    for _ in range(200):
        a = joint_graph(_prob(rng, int(rng.integers(2, 12)))).value
        assert abs(float(a.sum()) - 1.0) <= 1e-9
        assert np.all(a >= 0)


def test_cross_joint_graph_degenerate_equals_joint():
    p = np.array([0.3, 0.5, 0.2])
    assert np.array_equal(cross_joint_graph(p, p).value, joint_graph(p).value)


def test_cross_joint_graph_one_hots():
    out = cross_joint_graph(np.array([1.0, 0.0]), np.array([0.0, 1.0])).value
    assert out.tolist() == [[0.0, 1.0], [0.0, 0.0]]


def test_cross_joint_graph_direct_example():
    out = cross_joint_graph(np.array([0.6, 0.4]), np.array([0.8, 0.2])).value
    assert np.allclose(out, [[0.48, 0.12], [0.32, 0.08]], atol=1e-12)


def test_cross_joint_graph_transpose_duality():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        p, q = _prob(rng, n), _prob(rng, n)
        assert np.array_equal(
            cross_joint_graph(p, q).value.T, cross_joint_graph(q, p).value
        )


def test_cross_joint_graph_dimension_mismatch():
    with pytest.raises(ng.ShapeError):
        cross_joint_graph(np.array([0.5, 0.5]), np.array([1.0, 0.0, 0.0]))


# --- label smoothing ---


def test_smooth_labels_examples():
    out = smooth_labels(np.array([1.0, 0.0, 0.0, 0.0]), 0.1)
    assert abs(out[0] - 0.9) <= 1e-15
    assert np.allclose(out[1:], 0.1 / 3, atol=1e-15)
    assert abs(float(out.sum()) - 1.0) <= 1e-12

    two = smooth_labels(np.array([1.0, 0.0]), 0.1)
    assert np.allclose(two, [0.9, 0.1], atol=1e-15)

    same = smooth_labels(np.array([0.0, 1.0, 0.0]), 0.0)
    assert same.tolist() == [0.0, 1.0, 0.0]


def test_smooth_labels_true_class_position():
    out = smooth_labels(np.array([0.0, 0.0, 1.0]), 0.2)
    assert abs(out[2] - 0.8) <= 1e-15
    assert np.allclose(out[:2], 0.1, atol=1e-15)


def test_smooth_labels_validation():
    with pytest.raises(ValueError):
        smooth_labels(np.array([0.5, 0.5]), 0.1)
    with pytest.raises(ValueError):
        smooth_labels(np.array([1.0, 0.0]), 1.0)
    with pytest.raises(ValueError):
        smooth_labels(np.array([1.0, 0.0]), -0.1)
    with pytest.raises(ValueError):
        smooth_labels(np.array([1.0]), 0.1)


def test_teacher_joint_graph_example():
    out = cross_joint_graph(np.array([0.9, 0.1]), np.array([0.8, 0.2])).value
    assert np.allclose(out, [[0.72, 0.18], [0.08, 0.02]], atol=1e-12)


def test_teacher_joint_graph_entry_sum_and_positivity():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        q = np.zeros(n)
        q[int(rng.integers(n))] = 1.0
        p_t = _prob(rng, n)
        out = cross_joint_graph(smooth_labels(q, 0.1), p_t).value
        assert abs(float(out.sum()) - 1.0) <= 1e-9
        if np.all(p_t > 0):
            assert float(out.min()) >= (0.1 / (n - 1)) * float(p_t.min()) - 1e-15
            assert np.all(out > 0)


# --- joint graph entropy ---


def test_entropy_identical_one_hot_graphs_zero():
    a = joint_graph(np.array([1.0, 0.0]))
    out = joint_graph_entropy(a, a).value
    assert np.all(out == 0.0)


def test_entropy_uniform_graphs():
    a = joint_graph(np.array([0.5, 0.5]))
    out = joint_graph_entropy(a, a).value
    assert np.allclose(out, 0.25 * math.log(4.0), atol=1e-9)


def test_entropy_zero_pred_kills_zero_target():
    pred = joint_graph(np.array([1.0, 0.0]))
    target = joint_graph(np.array([1.0, 0.0]))
    out = joint_graph_entropy(pred, target).value
    # off-hot target entries are clamped to 1e-12 but multiply a 0 pred entry
    assert out[0, 1] == 0.0 and out[1, 0] == 0.0 and out[1, 1] == 0.0


def test_entropy_nonnegative():
    rng = np.random.default_rng(4)
    for _ in range(200):
        n = int(rng.integers(2, 8))
        out = joint_graph_entropy(
            joint_graph(_prob(rng, n)), joint_graph(_prob(rng, n))
        ).value
        assert np.all(out >= 0.0)


def test_entropy_dimension_mismatch():
    with pytest.raises(ng.ShapeError):
        joint_graph_entropy(
            joint_graph(np.array([0.5, 0.5])),
            joint_graph(np.array([0.4, 0.3, 0.3])),
        )


# --- scalar losses against the brute-force oracle ---


def test_jgekd_identical_one_hot_zero():
    a = joint_graph(np.array([0.0, 1.0]))
    assert float(jgekd_loss(a, a).value) == 0.0


def test_jgekd_uniform_n2():
    a = joint_graph(np.array([0.5, 0.5]))
    assert abs(float(jgekd_loss(a, a).value) - UNIFORM_N2_LOSS) <= 1e-6


def test_jgekd_matches_oracle():
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(2, 11))
        p, q = _prob(rng, n), _prob(rng, n)
        got = float(jgekd_loss(joint_graph(p), joint_graph(q)).value)
        want = oracles.jgekd(p.tolist(), q.tolist())
        assert abs(got - want) <= 1e-12


def test_jgeskd_examples():
    one_hot = np.array([1.0, 0.0])
    assert float(jgeskd_loss(one_hot, one_hot).value) == 0.0
    uniform = np.array([0.5, 0.5])
    assert abs(float(jgeskd_loss(uniform, uniform).value) - UNIFORM_N2_LOSS) <= 1e-6
    got = float(jgeskd_loss(np.array([0.6, 0.4]), np.array([0.8, 0.2])).value)
    want = oracles.jgekd([0.6, 0.4], [0.8, 0.2])
    assert abs(got - want) <= 1e-12


def test_jgeskd_detach_stops_target_gradient():
    z = ng.leaf(np.array([0.2, -0.4]))
    z_prime = ng.leaf(np.array([0.1, 0.5]))
    p = ng.softmax(z)
    p_prime = ng.softmax(z_prime)

    grads = ng.backward(jgeskd_loss(p, p_prime, detach_target=True))
    # the detached branch is cut out of the graph entirely
    assert z_prime not in grads or np.allclose(grads[z_prime], 0.0, atol=1e-15)
    assert not np.allclose(grads[z], 0.0, atol=1e-12)

    grads = ng.backward(jgeskd_loss(p, p_prime, detach_target=False))
    assert not np.allclose(grads[z_prime], 0.0, atol=1e-12)


def test_jgetkd_all_uniform_n2():
    u = np.array([0.5, 0.5])
    q = np.array([1.0, 0.0])
    # epsilon 0.5 smooths the one-hot to exactly uniform for N=2
    got = float(jgetkd_loss(u, u, q, u, epsilon=0.5).value)
    assert abs(got - UNIFORM_N2_LOSS) <= 1e-6


def test_jgetkd_matches_oracle():
    rng = np.random.default_rng(6)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        p_s, p_sp, p_t = _prob(rng, n), _prob(rng, n), _prob(rng, n)
        q = np.zeros(n)
        q[int(rng.integers(n))] = 1.0
        got = float(jgetkd_loss(p_s, p_sp, q, p_t, epsilon=0.1).value)
        want = oracles.jgetkd(p_s.tolist(), p_sp.tolist(), q.tolist(), p_t.tolist(), 0.1)
        assert abs(got - want) <= 1e-12


def test_jgetkd_teacher_gradient_not_propagated():
    z = ng.leaf(np.array([0.3, -0.1, 0.2]))
    z_prime = ng.leaf(np.array([-0.2, 0.4, 0.1]))
    z_teacher = ng.leaf(np.array([0.5, 0.1, -0.3]))
    q = np.array([0.0, 1.0, 0.0])
    loss = jgetkd_loss(ng.softmax(z), ng.softmax(z_prime), q, ng.softmax(z_teacher), 0.1)
    grads = ng.backward(loss)
    assert z_teacher not in grads or np.allclose(grads[z_teacher], 0.0, atol=1e-15)
    assert not np.allclose(grads[z], 0.0, atol=1e-12)
    assert not np.allclose(grads[z_prime], 0.0, atol=1e-12)


def test_jgetkd_epsilon_validation():
    u = np.array([0.5, 0.5])
    q = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        jgetkd_loss(u, u, q, u, epsilon=1.0)
    with pytest.raises(ValueError):
        jgetkd_loss(u, u, q, u, epsilon=-0.2)


def test_cross_entropy_examples():
    q = np.array([0.0, 1.0, 0.0, 0.0])
    assert float(cross_entropy_smoothed(q.copy(), q, 0.0).value) == 0.0
    uniform = np.full(4, 0.25)
    got = float(cross_entropy_smoothed(uniform, q, 0.0).value)
    assert abs(got - math.log(4.0)) <= 1e-12
    v = float(cross_entropy_smoothed(np.array([0.7, 0.3]), np.array([1.0, 0.0]), 0.1).value)
    want = -0.9 * math.log(0.7) - 0.1 * math.log(0.3)
    assert abs(v - want) <= 1e-12
    assert abs(v - 0.4413) <= 5e-4  # quoted to 4 figures


def test_cross_entropy_matches_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        p = _prob(rng, n)
        q = np.zeros(n)
        q[int(rng.integers(n))] = 1.0
        got = float(cross_entropy_smoothed(p, q, 0.1).value)
        assert abs(got - oracles.cross_entropy(p.tolist(), q.tolist(), 0.1)) <= 1e-12


def test_vanilla_kd_examples():
    hot = np.array([0.0, 1.0])
    assert float(vanilla_kd_loss(hot, hot).value) == 0.0
    rng = np.random.default_rng(8)
    p_s = _prob(rng, 4)
    uniform = np.full(4, 0.25)
    got = float(vanilla_kd_loss(p_s, uniform).value)
    want = -np.log(p_s).sum() / 4.0
    assert abs(got - want) <= 1e-12


def test_vanilla_kd_matches_oracle_and_detaches_teacher():
    rng = np.random.default_rng(9)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        p_s, p_t = _prob(rng, n), _prob(rng, n)
        got = float(vanilla_kd_loss(p_s, p_t).value)
        assert abs(got - oracles.vanilla_kd(p_s.tolist(), p_t.tolist())) <= 1e-12
    z = ng.leaf(np.array([0.1, -0.2]))
    z_t = ng.leaf(np.array([0.4, 0.3]))
    grads = ng.backward(vanilla_kd_loss(ng.softmax(z), ng.softmax(z_t)))
    assert z_t not in grads or np.allclose(grads[z_t], 0.0, atol=1e-15)


def test_total_loss_examples():
    ce, kd = ng.leaf(np.float64(2.0)), ng.leaf(np.float64(3.0))
    assert float(total_loss(ce, kd, 1.0, 1.0).value) == 5.0
    assert float(total_loss(ce, kd, 1.0, 0.0).value) == 2.0
    half = total_loss(ng.leaf(np.float64(0.5)), ng.leaf(np.float64(0.25)), 2.0, 4.0)
    assert float(half.value) == 2.0


def test_total_loss_rejects_negative_coefficients():
    ce, kd = ng.leaf(np.float64(1.0)), ng.leaf(np.float64(1.0))
    with pytest.raises(ValueError):
        total_loss(ce, kd, -1.0, 1.0)
    with pytest.raises(ValueError):
        total_loss(ce, kd, 1.0, -0.5)


# --- loss-level gradient checks ---


def test_jgeskd_gradient_wrt_both_logit_vectors():
    rng = np.random.default_rng(10)
    for _ in range(20):
        z0 = rng.normal(size=4)
        z1 = rng.normal(size=4)

        err = ng.grad_check(
            lambda t: jgeskd_loss(ng.softmax(t), ng.softmax(ng.leaf(z1))), z0
        )
        assert err <= 1e-4
        err = ng.grad_check(
            lambda t: jgeskd_loss(ng.softmax(ng.leaf(z0)), ng.softmax(t)), z1
        )
        assert err <= 1e-4


def test_jgetkd_gradient_wrt_both_student_vectors():
    rng = np.random.default_rng(11)
    q = np.array([0.0, 0.0, 1.0, 0.0])
    p_t = _prob(rng, 4)
    for _ in range(20):
        z0, z1 = rng.normal(size=4), rng.normal(size=4)
        err = ng.grad_check(
            lambda t: jgetkd_loss(ng.softmax(t), ng.softmax(ng.leaf(z1)), q, p_t, 0.1),
            z0,
        )
        assert err <= 1e-4
        err = ng.grad_check(
            lambda t: jgetkd_loss(ng.softmax(ng.leaf(z0)), ng.softmax(t), q, p_t, 0.1),
            z1,
        )
        assert err <= 1e-4


# --- Gibbs property, module scale ---


def _simplex_grid(step=0.01):
    pts = []
    steps = int(round(1.0 / step))
    for i in range(steps + 1):
        for j in range(steps + 1 - i):
            a = i * step
            b = j * step
            pts.append((a, b, 1.0 - a - b))
    return np.array(pts)


def test_gibbs_minimum_at_matching_distribution():
    # "nearest" in the divergence the loss induces (KL), not Euclidean: the
    # loss over rank-one graphs collapses to (2/9)*CE(p, q), whose level
    # sets near p are Fisher ellipsoids; see the decisions ledger
    grid = _simplex_grid()
    kl = -np.log(np.clip(grid, 1e-12, 1.0))
    rng = np.random.default_rng(12)
    for _ in range(3):
        p = _prob(rng, 3)
        a_pred = joint_graph(p)
        losses = np.array(
            [float(jgekd_loss(a_pred, joint_graph(g)).value) for g in grid]
        )
        assert int(losses.argmin()) == int((kl @ p).argmin())
        # and within one grid step of p whenever p is comfortably interior
        if float(p.min()) >= 0.02:
            assert np.all(np.abs(grid[int(losses.argmin())] - p) <= 0.01 + 1e-12)


def test_gibbs_exact_on_grid_points():
    # when p is itself a grid point the minimizer is exactly p
    grid = _simplex_grid()
    rng = np.random.default_rng(13)
    for _ in range(2):
        idx = int(rng.integers(len(grid)))
        p = grid[idx]
        a_pred = joint_graph(p)
        losses = np.array(
            [float(jgekd_loss(a_pred, joint_graph(g)).value) for g in grid]
        )
        assert int(losses.argmin()) == idx
