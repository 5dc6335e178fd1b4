import math
import struct

import numpy as np
import pytest

from jgekd import numerics as ng
from jgekd.losses import cross_entropy_smoothed
from jgekd.model import (
    PARAM_KEYS,
    CheckpointFormatError,
    ModelParams,
    block_shapes,
    forward,
    forward_nodes,
    init_params,
    load_params,
    param_leaves,
    save_params,
)
from jgekd.numerics import grad_check


def _cloud(seed, n=16):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 3))
    pts -= pts.mean(axis=0)
    pts /= np.linalg.norm(pts, axis=1).max()
    return pts


# --- initialization ---


def test_init_deterministic():
    a = init_params(3, 8)
    b = init_params(3, 8)
    for key in PARAM_KEYS:
        assert np.array_equal(getattr(a, key), getattr(b, key))


def test_init_seed_sensitivity():
    a = init_params(0, 8)
    b = init_params(1, 8)
    assert not np.array_equal(a.w1, b.w1)


def test_init_shapes():
    p = init_params(0, 5)
    shapes = block_shapes(5)
    assert shapes["w1"] == (3, 32) and shapes["b4"] == (5,)
    for key in PARAM_KEYS:
        assert getattr(p, key).shape == shapes[key]
    assert p.n_classes == 5


def test_init_biases_zero():
    p = init_params(7, 8)
    for key in ("b1", "b2", "b3", "b4"):
        assert np.all(getattr(p, key) == 0.0)


def test_init_he_std():
    # W1 fan-in 3: std should be near sqrt(2/3), within 20% over 10 seeds
    target = math.sqrt(2.0 / 3.0)
    pooled = np.concatenate([init_params(seed, 8).w1.ravel() for seed in range(10)])
    assert abs(float(pooled.std()) - target) <= 0.2 * target
    target2 = math.sqrt(2.0 / 32.0)
    pooled2 = np.concatenate([init_params(seed, 8).w2.ravel() for seed in range(10)])
    assert abs(float(pooled2.std()) - target2) <= 0.2 * target2


def test_init_rejects_small_class_count():
    for bad in (1, 4.0, True, None):
        with pytest.raises(ValueError, match=r"n_classes must be an integer in 2\.\.inf, got %r" % (bad,)):
            init_params(0, bad)


# --- forward pass ---


def test_forward_probs_sum_to_one():
    params = init_params(0, 8)
    for seed in range(20):
        out = forward(params, _cloud(seed))
        assert abs(float(out.probs.sum()) - 1.0) <= 1e-12
        assert out.logits.shape == (8,)
        assert out.embedding.shape == (64,)


def test_forward_is_pure():
    params = init_params(1, 8)
    cloud = _cloud(0)
    a = forward(params, cloud)
    b = forward(params, cloud)
    assert np.array_equal(a.logits, b.logits)
    assert np.array_equal(a.probs, b.probs)


def test_forward_permutation_invariance_bit_exact():
    params = init_params(2, 8)
    rng = np.random.default_rng(5)
    for seed in range(50):
        cloud = _cloud(seed, n=int(rng.integers(8, 40)))
        base = forward(params, cloud).logits
        perm = rng.permutation(cloud.shape[0])
        permuted = forward(params, cloud[perm]).logits
        assert np.array_equal(base, permuted)


def test_forward_duplication_invariance_bit_exact():
    params = init_params(2, 8)
    for seed in range(50):
        cloud = _cloud(seed)
        base = forward(params, cloud).logits
        doubled = forward(params, np.vstack([cloud, cloud])).logits
        assert np.array_equal(base, doubled)


def test_forward_rejects_empty_cloud():
    params = init_params(0, 8)
    with pytest.raises(ValueError):
        forward(params, np.zeros((0, 3)))
    with pytest.raises(ValueError):
        forward(params, np.zeros((4, 2)))
    with pytest.raises(ValueError):
        forward(params, np.array([[0.0, np.nan, 0.0]]))


def test_embedding_is_columnwise_max():
    # a cloud of one point pools to that point's feature row
    params = init_params(4, 8)
    single = forward(params, np.array([[0.1, -0.2, 0.3]]))
    assert single.embedding.shape == (64,)
    assert np.all(single.embedding >= 0.0)  # relu output


# --- gradients ---


def test_mean_cross_entropy_grad_per_block():
    params = init_params(0, 4)
    clouds = [_cloud(i) for i in range(3)]
    labels = [0, 1, 3]

    def objective_for(key):
        def f(block):
            leaves = {
                k: (block if k == key else ng.leaf(getattr(params, k)))
                for k in PARAM_KEYS
            }
            terms = []
            for cloud, label in zip(clouds, labels):
                q = np.zeros(4)
                q[label] = 1.0
                _, probs, _ = forward_nodes(leaves, ng.leaf(cloud))
                terms.append(cross_entropy_smoothed(probs, q, 0.1))
            total = terms[0]
            for t in terms[1:]:
                total = ng.add(total, t)
            return ng.scale(total, 1.0 / len(terms))

        return f

    for key in PARAM_KEYS:
        err = grad_check(objective_for(key), getattr(params, key))
        assert err <= 1e-4, (key, err)


# --- checkpoints ---


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    params = init_params(9, 8)
    path = tmp_path / "m.jgp"
    save_params(path, params)
    back = load_params(path)
    assert back.n_classes == 8
    for key in PARAM_KEYS:
        assert np.array_equal(getattr(back, key), getattr(params, key))


def test_checkpoint_layout(tmp_path):
    params = init_params(0, 2)
    path = tmp_path / "m.jgp"
    save_params(path, params)
    raw = path.read_bytes()
    assert raw[:4] == b"JGP1"
    assert struct.unpack("<I", raw[4:8])[0] == 2
    total = 8 + 8 * sum(
        int(np.prod(shape)) for shape in block_shapes(2).values()
    )
    assert len(raw) == total
    first = struct.unpack("<d", raw[8:16])[0]
    assert first == params.w1[0, 0]


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "m.jgp"
    path.write_bytes(b"XXXX" + bytes(100))
    with pytest.raises(CheckpointFormatError):
        load_params(path)


def test_checkpoint_truncated(tmp_path):
    params = init_params(0, 8)
    path = tmp_path / "m.jgp"
    save_params(path, params)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(CheckpointFormatError):
        load_params(path)


def test_checkpoint_trailing_bytes(tmp_path):
    params = init_params(0, 8)
    path = tmp_path / "m.jgp"
    save_params(path, params)
    path.write_bytes(path.read_bytes() + b"\0\0")
    with pytest.raises(CheckpointFormatError):
        load_params(path)


def test_checkpoint_bad_class_count(tmp_path):
    path = tmp_path / "m.jgp"
    path.write_bytes(b"JGP1" + struct.pack("<I", 1))
    with pytest.raises(CheckpointFormatError):
        load_params(path)


def test_checkpoint_nonfinite(tmp_path):
    params = init_params(0, 2)
    params.w1[0, 0] = np.nan
    path = tmp_path / "m.jgp"
    with pytest.raises(ValueError):
        save_params(path, params)


def test_param_leaves_match_blocks():
    params = init_params(0, 8)
    leaves = param_leaves(params)
    assert set(leaves) == set(PARAM_KEYS)
    for key in PARAM_KEYS:
        assert np.array_equal(leaves[key].value, getattr(params, key))
