"""One graph per minibatch must give each sample exactly what a graph of its
own gives: the batched classifier against per-cloud calls and the per-op
reference in oracles.py, and the row-batched losses against the vector ones.
Every comparison here is byte for byte, not within a tolerance.
"""

import numpy as np
import pytest

import oracles
from jgekd import losses
from jgekd import numerics as ng
from jgekd.model import PARAM_KEYS, forward_nodes, init_params, param_leaves
from jgekd.numerics import ShapeError

N_CLASSES = 8
# 1 point is a 1-row product; 8 is the MIN_SURVIVORS floor; 37 rows or fewer
# round differently when stacked into a taller matmul.
SIZES = (1, 8, 37, 64, 200, 8, 1)


def _clouds(seed, sizes=SIZES):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(n, 3)) for n in sizes]


def _stack(clouds):
    offsets = np.cumsum([0] + [len(c) for c in clouds]).tolist()
    return np.concatenate(clouds), offsets


def _objective(weights, logits, probs, embedding):
    """A scalar that sends a gradient into all three classifier outputs.
    Each weight takes its output's shape: a stack of one cloud or the
    oracle's vectors weigh the same numbers."""
    u, v, w = (ng.leaf(np.reshape(x, node.value.shape)) for x, node in zip(weights, (probs, logits, embedding)))
    terms = [ng.mul(probs, u), ng.mul(logits, v), ng.mul(embedding, w)]
    total = ng.reduce_sum(terms[0])
    for term in terms[1:]:
        total = ng.add(total, ng.reduce_sum(term))
    return total


def _weights(seed, n):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, N_CLASSES)), rng.normal(size=(n, N_CLASSES)), rng.normal(size=(n, 64))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_forward_nodes_equals_per_cloud_calls(seed):
    params = init_params(seed, N_CLASSES)
    clouds = _clouds(seed)
    weights = _weights(seed + 10, len(clouds))

    leaves = param_leaves(params)
    rows = {key: ng.broadcast(leaf, len(clouds)) for key, leaf in leaves.items()}
    stacked, offsets = _stack(clouds)
    points = ng.leaf(stacked)
    outputs = forward_nodes(rows, points, offsets)
    ng.backward(_objective(weights, *outputs))

    for s, cloud in enumerate(clouds):
        row_weights = tuple(w[s] for w in weights)
        for build in (oracles.forward_stack, oracles.classifier_nodes):
            single_leaves = param_leaves(params)
            single_points = ng.leaf(cloud)
            single = build(single_leaves, single_points)
            for batched, alone in zip(outputs, single):
                row = batched.value[s : s + 1] if build is oracles.forward_stack else batched.value[s]
                assert np.array_equal(row, alone.value), (build.__name__, len(cloud))
            ng.backward(_objective(row_weights, *single))
            for key in PARAM_KEYS:
                assert np.array_equal(rows[key].adjoint[s], single_leaves[key].adjoint), (key, len(cloud))
            lo, hi = offsets[s], offsets[s + 1]
            assert np.array_equal(points.adjoint[lo:hi], single_points.adjoint), len(cloud)

    # The broadcast leaves sum their rows in sample order.
    for key in PARAM_KEYS:
        total = np.zeros_like(leaves[key].value)
        for row in rows[key].adjoint:
            total += row
        assert np.array_equal(leaves[key].adjoint, total)


def test_two_calls_on_the_same_rows_add_into_each_row():
    # Training's siamese branches: a clean and a corrupted stack through the
    # same rows. Row s must end as cloud s's clean plus corrupted gradient,
    # so neither call may overwrite what the other added.
    params = init_params(8, N_CLASSES)
    stacks = [_clouds(8), _clouds(9, (64, 1, 8, 200, 37, 1, 8))]
    weights = [_weights(10, len(SIZES)), _weights(11, len(SIZES))]
    rows = {key: ng.broadcast(leaf, len(SIZES)) for key, leaf in param_leaves(params).items()}
    total = None
    for clouds, w in zip(stacks, weights):
        stacked, offsets = _stack(clouds)
        term = _objective(w, *forward_nodes(rows, ng.leaf(stacked), offsets))
        total = term if total is None else ng.add(total, term)
    ng.backward(total)

    for s in range(len(SIZES)):
        alone = []
        for clouds, w in zip(stacks, weights):
            single = param_leaves(params)
            ng.backward(_objective(tuple(x[s] for x in w), *oracles.classifier_nodes(single, ng.leaf(clouds[s]))))
            alone.append(single)
        for key in PARAM_KEYS:
            expected = alone[0][key].adjoint + alone[1][key].adjoint
            assert rows[key].adjoint[s].tobytes() == expected.tobytes(), (key, s)


def test_forward_nodes_on_rows_builds_three_nodes(monkeypatch):
    # pool, head and softmax: a batch's graph must not grow with its rows.
    params = init_params(0, N_CLASSES)
    rows = {key: ng.broadcast(leaf, len(SIZES)) for key, leaf in param_leaves(params).items()}
    stacked, offsets = _stack(_clouds(0))
    points = ng.leaf(stacked)
    built, init = [], ng.Node.__init__
    monkeypatch.setattr(ng.Node, "__init__", lambda self, *a: built.append(self) or init(self, *a))
    forward_nodes(rows, points, offsets)
    monkeypatch.undo()
    assert len(built) == 3


def test_pool_ties_go_to_the_first_maximum():
    # The last 16 rows repeat the first 16, so their h2 rows tie exactly and
    # each column's pool gradient must go to the first copy only.
    params = init_params(3, N_CLASSES)
    base = _clouds(3, (16,))[0]
    weights = tuple(w[0] for w in _weights(4, 1))
    grads = []
    for build in (oracles.forward_stack, oracles.classifier_nodes):
        points = ng.leaf(np.vstack([base, base]))
        ng.backward(_objective(weights, *build(param_leaves(params), points)))
        grads.append(points.adjoint)
    assert np.all(grads[0][16:] == 0.0)
    assert np.any(grads[0][:16] != 0.0, axis=1).sum() >= 8  # the first copies do take gradient
    assert np.array_equal(grads[0], grads[1])


def test_pool_ties_are_taken_after_the_bias():
    # In column C, point 0's product 2**-54 and point 1's 2**-53 differ, but
    # both round to 1.0 once b2[C] = 1.0 is added (ties to even), as do the
    # zero products of the later points. The pool's gradient must go to the
    # first maximum of h2, point 0; the first maximum of the products
    # themselves would be point 1. Only h1's first unit reads x, and only
    # column C reads that unit, so the point gradient shows where it went.
    C = 5
    params = init_params(3, N_CLASSES)
    params.w1, params.b1 = np.zeros_like(params.w1), np.zeros_like(params.b1)
    params.w1[0, 0] = 1.0
    params.w2, params.b2 = np.zeros_like(params.w2), np.zeros_like(params.b2)
    params.w2[0, C] = params.b2[C] = 1.0
    cloud = np.vstack([[[2.0**-54, 0.0, 0.0], [2.0**-53, 0.0, 0.0]], _clouds(6, (6,))[0]])
    cloud[2:, 0] = -np.abs(cloud[2:, 0])
    assert np.argmax(np.maximum(cloud @ params.w1, 0.0) @ params.w2, axis=0)[C] == 1
    weights = tuple(w[0] for w in _weights(7, 1))
    grads = []
    for build in (oracles.forward_stack, oracles.classifier_nodes):
        points = ng.leaf(cloud)
        ng.backward(_objective(weights, *build(param_leaves(params), points)))
        grads.append(points.adjoint)
    assert grads[0][0, 0] != 0.0 and np.all(grads[0][1:] == 0.0)
    assert grads[0].tobytes() == grads[1].tobytes()


def test_forward_nodes_rejects_bad_offsets_and_rows():
    params = init_params(0, N_CLASSES)
    leaves = param_leaves(params)

    def rows(n):
        return {key: ng.broadcast(leaf, n) for key, leaf in leaves.items()}

    points = ng.leaf(np.zeros((5, 3)))
    for offsets in ([0, 5, 5], [1, 5], [0, 4], [0], [0, 3, 2, 5]):
        with pytest.raises(ShapeError):
            forward_nodes(rows(max(len(offsets) - 1, 1)), points, offsets)
    with pytest.raises(ShapeError):
        forward_nodes(rows(1), ng.leaf(np.zeros((0, 3))), [0, 0])
    # An offset is an integer: 2.5 must not be truncated into a valid split.
    with pytest.raises(ValueError, match="offset"):
        forward_nodes(rows(2), points, [0, 2.5, 5])
    with pytest.raises(ShapeError):
        forward_nodes(dict(rows(2), w2=ng.broadcast(leaves["w2"], 3)), points, [0, 2, 5])
    # One weight set per cloud is not a batch of one model.
    stacked = dict(rows(2), w2=ng.leaf(np.stack([params.w2, params.w2])))
    with pytest.raises(ShapeError):
        forward_nodes(stacked, points, [0, 2, 5])
    # A shared leaf is not broadcast on entry.
    with pytest.raises(ShapeError, match="b3"):
        forward_nodes(dict(rows(2), b3=leaves["b3"]), points, [0, 2, 5])


@pytest.mark.parametrize("key", ["w1", "b1", "b2", "w3", "b3", "w4", "b4", "points"])
def test_grad_check_through_a_batched_call(key):
    params = init_params(6, 4)
    clouds = _clouds(6, (1, 3, 5))
    stacked, offsets = _stack(clouds)
    rng = np.random.default_rng(7)
    v = ng.leaf(rng.normal(size=(len(clouds), 4)))

    def f(t):
        leaves = {k: ng.broadcast(ng.leaf(getattr(params, k)), len(clouds)) for k in PARAM_KEYS}
        points = ng.leaf(stacked)
        if key == "points":
            points = t
        else:
            leaves[key] = ng.broadcast(t, len(clouds))
        _, probs, _ = forward_nodes(leaves, points, offsets)
        return ng.reduce_sum(ng.mul(probs, v))

    x = stacked if key == "points" else getattr(params, key)
    assert oracles.grad_check(f, x) <= 1e-4


def _rows(rng, b, n):
    x = rng.exponential(size=(b, n))
    return x / x.sum(axis=1, keepdims=True)


def _one_hot_rows(rng, b, n):
    q = np.zeros((b, n))
    q[np.arange(b), rng.integers(0, n, size=b)] = 1.0
    return q


def _assert_rows_equal(make, arrays):
    """make(*inputs) on the stacked rows against make on each row, values
    and the gradient of every Node input."""
    b = arrays[0][1].shape[0]
    nodes = [ng.leaf(a) if grad else a for grad, a in arrays]
    batched = make(*nodes)
    assert batched.value.shape == (b,)
    ng.backward(ng.reduce_sum(batched))
    for s in range(b):
        row_nodes = [ng.leaf(a[s]) if grad else a[s] for grad, a in arrays]
        alone = make(*row_nodes)
        assert np.array_equal(batched.value[s], alone.value)
        ng.backward(alone)
        for node, row_node in zip(nodes, row_nodes):
            if not isinstance(node, ng.Node):
                continue
            if node.adjoint is None:  # cut off by detach
                assert row_node.adjoint is None
            else:
                assert np.array_equal(node.adjoint[s], row_node.adjoint)


@pytest.mark.parametrize("b", [1, 4, 16])
def test_row_batched_losses_equal_vector_losses(b):
    rng = np.random.default_rng(b)
    p, p_prime, p_teacher = (_rows(rng, b, N_CLASSES) for _ in range(3))
    p[0, 1] = 1e-14  # one entry under the log clamp
    q = _one_hot_rows(rng, b, N_CLASSES)
    _assert_rows_equal(
        lambda x, y: losses.cross_entropy_smoothed(x, y, 0.1),
        [(True, p), (False, q)],
    )
    _assert_rows_equal(lambda x, y: losses.jgeskd_loss(x, y), [(True, p), (True, p_prime)])
    _assert_rows_equal(
        lambda x, y: losses.jgeskd_loss(x, y, detach_target=True), [(True, p), (True, p_prime)]
    )
    _assert_rows_equal(
        lambda x, y, z, t: losses.jgetkd_loss(x, y, z, t, 0.1),
        [(True, p), (True, p_prime), (False, q), (False, p_teacher)],
    )
    _assert_rows_equal(lambda x, y: losses.vanilla_kd_loss(x, y), [(True, p), (False, p_teacher)])
    ce_rows, kd_rows = rng.normal(size=b), rng.normal(size=b)
    _assert_rows_equal(
        lambda x, y: losses.total_loss(x, y, 0.7, 1.3), [(True, ce_rows), (True, kd_rows)]
    )


def test_smooth_labels_rows():
    q = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    out = losses.smooth_labels(q, 0.1)
    for row in range(2):
        assert np.array_equal(out[row], losses.smooth_labels(q[row], 0.1))
    with pytest.raises(ValueError):
        losses.smooth_labels(np.array([[1.0, 0.0], [0.5, 0.5]]), 0.1)


def test_total_loss_rejects_mismatched_rows():
    with pytest.raises(ShapeError):
        losses.total_loss(ng.leaf(np.zeros(3)), ng.leaf(np.zeros(2)))
    with pytest.raises(ShapeError):
        losses.total_loss(ng.leaf(np.zeros((2, 2))), ng.leaf(np.zeros((2, 2))))
