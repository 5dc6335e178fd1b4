import math

import numpy as np
import pytest

import oracles
from jgekd import numerics as ng
from jgekd.numerics import Node, Rng, ShapeError, grad_check, split_seed, splitmix64


# --- PCG32 generator ---


def test_reference_stream_seed42_seq54():
    rng = Rng(42, 54)
    words = [rng.next_u32() for _ in range(6)]
    assert words == [
        0xA15C02B7,
        0x7B47F409,
        0xBA1D3330,
        0x83D2F293,
        0xBFA4784B,
        0xCBED606E,
    ]


STREAMS = [(0, 0), (1, 1), (2**63, 54), (12345, 678)]


@pytest.mark.parametrize("seed,seq", STREAMS)
def test_stream_matches_pure_python_reference(seed, seq):
    rng = Rng(seed, seq)
    got = [rng.next_u32() for _ in range(200)]
    assert got == oracles.pcg32_stream(seed, seq, 200)


def test_same_seed_same_stream():
    a = [Rng(7, 3).next_u32() for _ in range(50)]
    b = [Rng(7, 3).next_u32() for _ in range(50)]
    assert a == b


def test_different_sequence_different_stream():
    a = [Rng(7, 3).next_u32() for _ in range(50)]
    b = [Rng(7, 4).next_u32() for _ in range(50)]
    assert a != b


def test_next_u64_combines_two_words_high_first():
    words = oracles.pcg32_stream(9, 54, 2)
    expected = (words[0] << 32) | words[1]
    assert Rng(9).next_u64() == expected


def test_uniform_in_unit_interval():
    rng = Rng(3)
    for _ in range(2000):
        u = rng.uniform()
        assert 0.0 <= u < 1.0


def test_uniform_uses_53_bits():
    words = oracles.pcg32_stream(11, 54, 2)
    expected = (((words[0] << 32) | words[1]) >> 11) / float(1 << 53)
    assert Rng(11).uniform() == expected


def test_uniform_range_endpoints():
    rng = Rng(5)
    for _ in range(500):
        u = rng.uniform(-2.0, 3.0)
        assert -2.0 <= u < 3.0


def test_uniforms_matches_scalar_draws():
    a = Rng(13).uniforms(40)
    rng = Rng(13)
    b = np.array([rng.uniform() for _ in range(40)])
    assert a.tolist() == b.tolist()


def test_normals_sample_statistics():
    # 4 sigma bands around the true moments, pinned seed
    x = Rng(101).normals(20000)
    assert abs(float(x.mean())) < 4.0 / math.sqrt(20000)
    assert abs(float(x.std()) - 1.0) < 0.03


def test_normals_even_count_consumes_pairs():
    # the cosine and sine halves of one Box-Muller pair share two uniforms
    rng = Rng(17)
    pair = rng.normals(2)
    follow = rng.next_u32()
    rng2 = Rng(17)
    rng2.uniform()
    rng2.uniform()
    assert follow == rng2.next_u32()
    assert np.all(np.isfinite(pair))


def test_randint_bounds_and_determinism():
    rng = Rng(23)
    vals = [rng.randint(10) for _ in range(3000)]
    assert min(vals) == 0
    assert max(vals) == 9
    again = Rng(23)
    assert vals[:100] == [again.randint(10) for _ in range(100)]


def test_randint_is_roughly_uniform():
    rng = Rng(29)
    counts = np.zeros(8)
    n = 40000
    for _ in range(n):
        counts[rng.randint(8)] += 1
    assert np.all(np.abs(counts / n - 0.125) < 0.01)


def test_randint_rejects_bad_bounds():
    rng = Rng(1)
    with pytest.raises(ValueError):
        rng.randint(0)
    with pytest.raises(ValueError):
        rng.randint(-3)
    with pytest.raises(ValueError):
        rng.randint(2**32 + 1)  # no 32-bit word reaches its threshold
    assert rng.randint(2**32) == oracles.pcg32_stream(1, 54, 1)[0]
    with pytest.raises(ValueError):
        rng.randints([5] * 20 + [2**32 + 1])
    with pytest.raises(ValueError):
        rng.randints([5] * 20 + [0])
    # Moduli follow check_count's integer rule on both size paths, and a bad
    # one anywhere in the list is caught before any draw.
    for bad in ([2.5], [True], [5] * 20 + [2.5], [5] * 20 + [True], [5, 3.0], [5, -1], [5, 0]):
        state = rng.state
        with pytest.raises(ValueError):
            rng.randints(bad)
        assert rng.state == state
    for bad in (2.5, True, 4.0):
        with pytest.raises(ValueError):
            rng.randint(bad)
        assert rng.state == state


def test_unit_vector_has_unit_norm():
    rng = Rng(31)
    for _ in range(200):
        v = rng.unit_vector()
        assert v.shape == (3,)
        assert abs(float(np.linalg.norm(v)) - 1.0) < 1e-12


def test_ball_point_inside_unit_ball():
    rng = Rng(37)
    norms = [float(np.linalg.norm(rng.ball_point())) for _ in range(2000)]
    assert max(norms) <= 1.0
    # cube-root radial law: median radius is 2^(-1/3), not 0.5
    med = sorted(norms)[1000]
    assert abs(med - 2.0 ** (-1.0 / 3.0)) < 0.03


def test_permutation_is_a_permutation():
    rng = Rng(41)
    for n in (1, 2, 7, 100):
        p = rng.permutation(n)
        assert sorted(p) == list(range(n))


def test_permutation_deterministic():
    assert Rng(43).permutation(50) == Rng(43).permutation(50)


def test_sample_indices_distinct_and_in_range():
    rng = Rng(47)
    for _ in range(200):
        idx = rng.sample_indices(20, 5)
        assert len(idx) == 5
        assert len(set(idx)) == 5
        assert all(0 <= i < 20 for i in idx)


def test_sample_indices_full_is_permutation():
    idx = Rng(53).sample_indices(9, 9)
    assert sorted(idx) == list(range(9))


def test_sample_indices_validates():
    with pytest.raises(ValueError):
        Rng(1).sample_indices(3, 4)
    with pytest.raises(ValueError):
        Rng(1).sample_indices(5, -1)
    for n, k in ((5, 2.5), (5, True), (5.0, 2), (2.5, 1)):
        rng = Rng(1)
        state = rng.state
        with pytest.raises(ValueError):
            rng.sample_indices(n, k)
        assert rng.state == state


# --- block draws against the scalar loops in oracles ---

BLOCK_SIZES = [0, 1, ng._BULK_MIN - 1, ng._BULK_MIN, ng._BULK_MIN + 1,
               ng._BLOCK - 1, ng._BLOCK, ng._BLOCK + 1, 3 * ng._BLOCK + 7]


def _same_stream_after(a, b):
    assert a.state == b.state
    assert a.next_u32() == b.next_u32()


@pytest.mark.parametrize("seed,seq", STREAMS)
@pytest.mark.parametrize("k", BLOCK_SIZES)
def test_u32_block_matches_reference(seed, seq, k):
    rng = Rng(seed, seq)
    words = rng._u32_block(k)
    assert words.dtype == np.uint64
    expected = oracles.pcg32_stream(seed, seq, k + 1)
    assert words.tolist() == expected[:k]
    assert rng.next_u32() == expected[k]


def _bulk_and_scalar(name, size):
    # (library call, oracle call) for one method and size.
    return {
        "uniforms": (lambda r: r.uniforms(size, -3.0, 7.0), lambda r: oracles.uniforms(r, size, -3.0, 7.0)),
        "normals": (lambda r: r.normals(size, 0.5, 0.37), lambda r: oracles.normals(r, size, 0.5, 0.37)),
        "randints": (lambda r: r.randints(range(size + 1, 1, -1)), lambda r: oracles.randints(r, range(size + 1, 1, -1))),
        "unit_vectors": (lambda r: r.unit_vectors(size), lambda r: np.reshape(oracles.unit_vectors(r, size), (size, 3))),
        "permutation": (lambda r: r.permutation(size), lambda r: oracles.permutation(r, size)),
        "sample_indices": (lambda r: r.sample_indices(size + 3, size), lambda r: oracles.sample_indices(r, size + 3, size)),
    }[name]


@pytest.mark.parametrize("name", ["uniforms", "normals", "randints", "unit_vectors", "permutation", "sample_indices"])
@pytest.mark.parametrize("size", [0, 1, ng._BULK_MIN - 1, ng._BULK_MIN, ng._BULK_MIN + 1, 1025, 2 * ng._BLOCK + 3])
def test_block_methods_equal_scalar_loops(name, size):
    bulk, scalar = _bulk_and_scalar(name, size)
    for seed, seq in STREAMS:
        a, b = Rng(seed, seq), Rng(seed, seq)
        got = np.asarray(bulk(a))
        want = np.asarray(scalar(b), dtype=got.dtype)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # bit for bit, signed zeros included
        _same_stream_after(a, b)


@pytest.mark.parametrize("name", ["uniforms", "normals", "unit_vectors", "permutation"])
@pytest.mark.parametrize("count", [-1, -20, -(ng._BULK_MIN + 1)])
def test_negative_counts_raise_before_drawing(name, count):
    rng = Rng(5)
    state = rng.state
    with pytest.raises(ValueError, match=repr(count)):
        getattr(rng, name)(count)
    assert rng.state == state


def test_randints_rejection_keeps_the_stream():
    # For moduli just above 2**31 about half of all words fall below the
    # rejection threshold; the prefix of 3s moves the first rejection along.
    class Counting:
        def __init__(self, rng):
            self.rng, self.draws = rng, 0

        def next_u32(self):
            self.draws += 1
            return self.rng.next_u32()

    big = 2**31 + 12345
    for seed in range(6):
        moduli = [3] * (seed * 5) + [7, big, 1000, 2**32, 1] * 8 + [big] * (seed + 1) + [3] * 40
        a, b = Rng(seed, 5), Counting(Rng(seed, 5))
        assert a.randints(moduli) == oracles.randints(b, moduli)
        assert b.draws > len(moduli)  # the rejection path ran
        _same_stream_after(a, b.rng)


# --- seed derivation ---


def test_splitmix64_matches_oracle():
    for z in (0, 1, 42, 2**64 - 1, 0xDEADBEEF):
        assert splitmix64(z) == oracles.splitmix64(z)


def test_split_seed_composition():
    g, e, i = 99, 7, 13
    mixed = (
        g
        ^ (e * 0x9E3779B97F4A7C15) & (2**64 - 1)
        ^ (i * 0xBF58476D1CE4E5B9) & (2**64 - 1)
    )
    assert split_seed(g, e, i) == oracles.splitmix64(mixed)


def test_split_seed_neighbours_differ():
    base = split_seed(5, 2, 3)
    assert split_seed(5, 2, 4) != base
    assert split_seed(5, 3, 3) != base
    assert split_seed(6, 2, 3) != base


def test_split_seed_spreads_bits():
    # consecutive indices should give streams that disagree immediately
    a = Rng(split_seed(0, 0, 0)).uniforms(8)
    b = Rng(split_seed(0, 0, 1)).uniforms(8)
    assert not np.allclose(a, b)


# --- graph forward evaluation ---


def test_softmax_uniform_on_equal_logits():
    out = ng.softmax(ng.leaf(np.zeros(4))).value
    assert np.allclose(out, 0.25, atol=1e-15)


def test_softmax_sums_to_one_and_positive():
    # strict open-interval membership needs bounded gaps: past ~36 the top
    # entry rounds to 1.0 and past ~745 the bottom underflows to 0.0
    rng = np.random.default_rng(0)
    for _ in range(300):
        z = rng.uniform(-15, 15, size=int(rng.integers(2, 9)))
        p = ng.softmax(ng.leaf(z)).value
        assert abs(float(p.sum()) - 1.0) < 1e-12
        assert np.all(p > 0)
        assert np.all(p < 1)


def test_softmax_sum_holds_for_extreme_logits():
    rng = np.random.default_rng(1)
    for _ in range(100):
        z = rng.uniform(-300, 300, size=int(rng.integers(1, 9)))
        p = ng.softmax(ng.leaf(z)).value
        assert abs(float(p.sum()) - 1.0) < 1e-12
        assert np.all(p >= 0) and np.all(p <= 1)


def test_softmax_shift_invariance():
    z = np.array([1.0, -2.0, 0.5])
    a = ng.softmax(ng.leaf(z)).value
    b = ng.softmax(ng.leaf(z + 1000.0)).value
    assert np.allclose(a, b, atol=1e-12)


def test_softmax_last_axis_on_matrix():
    z = np.array([[0.0, 0.0], [10.0, 10.0]])
    p = ng.softmax(ng.leaf(z)).value
    assert np.allclose(p, 0.5, atol=1e-15)


def test_relu_example():
    out = oracles.relu(ng.leaf(np.array([-1.0, 0.0, 2.0]))).value
    assert out.tolist() == [0.0, 0.0, 2.0]


def test_log_clamped_values():
    x = ng.leaf(np.array([1.0, 0.5, 0.0, 2.0]))
    out = ng.log_clamped(x, 1e-12, 1.0).value
    assert out[0] == 0.0
    assert abs(out[1] - math.log(0.5)) < 1e-15
    assert abs(out[2] - math.log(1e-12)) < 1e-9
    assert out[3] == 0.0  # clamped down to the ceiling


def test_log_clamped_floor_only():
    out = ng.log_clamped(ng.leaf(np.array([4.0])), 1e-12).value
    assert abs(out[0] - math.log(4.0)) < 1e-15


def test_outer_product_example():
    a = ng.leaf(np.array([1.0, 2.0]))
    b = ng.leaf(np.array([3.0, 4.0, 5.0]))
    out = ng.outer(a, b).value
    assert out.tolist() == [[3.0, 4.0, 5.0], [6.0, 8.0, 10.0]]


def test_reduce_max_takes_columnwise_max():
    m = ng.leaf(np.array([[1.0, 5.0], [3.0, 2.0]]))
    assert oracles.reduce_max(m).value.tolist() == [3.0, 5.0]


def test_reduce_sum_scalar():
    out = ng.reduce_sum(ng.leaf(np.array([[1.0, 2.0], [3.0, 4.0]])))
    assert out.value.shape == ()
    assert float(out.value) == 10.0


def test_outer_row_stack_matches_vectors():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=(5, 4)), rng.normal(size=(5, 3))
    out = ng.outer(ng.leaf(a), ng.leaf(b)).value
    assert out.shape == (5, 4, 3)
    for row in range(5):
        assert np.array_equal(out[row], ng.outer(ng.leaf(a[row]), ng.leaf(b[row])).value)


def test_reduce_sum_over_axes_keeps_rows():
    x = np.arange(12.0).reshape(2, 2, 3)
    assert ng.reduce_sum(ng.leaf(x), axis=-1).value.tolist() == [[3.0, 12.0], [21.0, 30.0]]
    assert ng.reduce_sum(ng.leaf(x), axis=(-2, -1)).value.tolist() == [15.0, 51.0]


def test_broadcast_rows_and_their_gradient_order():
    a = ng.leaf(np.array([1.0, 2.0]))
    rows = ng.broadcast(a, 3)
    assert rows.value.shape == (3, 2)
    assert np.array_equal(rows.value, [[1.0, 2.0]] * 3)
    weights = ng.leaf(np.array([[1.0, 10.0], [1e16, 0.0], [-1e16, 0.0]]))
    grads = ng.backward(ng.reduce_sum(ng.mul(rows, weights)))
    # Rows are added in order: (1 + 1e16) - 1e16 loses the 1, as a loop of
    # per-sample gradients would; a pairwise sum would not.
    assert grads[a].tolist() == [(1.0 + 1e16) - 1e16, 10.0]
    with pytest.raises(ShapeError):
        ng.broadcast(a, 0)


def test_affine_matches_numpy():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(6, 4))
    w = rng.normal(size=(4, 3))
    b = rng.normal(size=3)
    out = oracles.affine(ng.leaf(x), ng.leaf(w), ng.leaf(b)).value
    assert np.array_equal(out, x @ w + b)


def test_shape_errors():
    with pytest.raises(ShapeError):
        ng.add(ng.leaf(np.zeros(2)), ng.leaf(np.zeros(3)))
    with pytest.raises(ShapeError):
        ng.outer(ng.leaf(np.zeros((2, 2))), ng.leaf(np.zeros(2)))
    with pytest.raises(ShapeError):
        oracles.reduce_max(ng.leaf(np.zeros(4)))
    with pytest.raises(ShapeError):
        oracles.affine(ng.leaf(np.zeros((2, 3))), ng.leaf(np.zeros((4, 5))), ng.leaf(np.zeros(5)))


def test_scale_rejects_non_finite_constant():
    with pytest.raises(ValueError):
        ng.scale(ng.leaf(np.ones(2)), float("nan"))


# --- backward pass ---


def test_backward_requires_scalar_root():
    with pytest.raises(ShapeError):
        ng.backward(ng.leaf(np.zeros(3)))


def test_backward_square():
    x = ng.leaf(np.array([3.0]))
    y = ng.reduce_sum(ng.mul(x, x))
    grads = ng.backward(y)
    assert grads[x].tolist() == [6.0]
    assert float(grads[y]) == 1.0


def test_backward_diamond_visits_each_node_once():
    # y = sum(x*x + x*x) has gradient 4x; double-counting a shared node
    # during traversal would produce 8x instead
    x = ng.leaf(np.array([1.5, -2.0]))
    sq = ng.mul(x, x)
    y = ng.reduce_sum(ng.add(sq, sq))
    grads = ng.backward(y)
    assert np.allclose(grads[x], 4.0 * x.value, atol=1e-15)


def test_backward_resets_adjoints_between_calls():
    x = ng.leaf(np.array([2.0]))
    y = ng.reduce_sum(ng.mul(x, x))
    first = ng.backward(y)[x].copy()
    second = ng.backward(y)[x]
    assert first.tolist() == second.tolist()


def test_backward_softmax_sum_is_constant():
    z = ng.leaf(np.array([0.3, -1.2, 4.0]))
    loss = ng.reduce_sum(ng.softmax(z))
    grads = ng.backward(loss)
    assert np.allclose(grads[z], 0.0, atol=1e-12)


def test_backward_through_detach_stops_gradient():
    x = ng.leaf(np.array([2.0, 1.0]))
    held = ng.detach(ng.mul(x, x))
    loss = ng.reduce_sum(ng.mul(x, held))
    grads = ng.backward(loss)
    # d/dx sum(x * const) = const, no product-rule term through the copy
    assert np.allclose(grads[x], held.value, atol=1e-15)
    assert np.array_equal(held.value, x.value * x.value)


def test_log_clamped_zero_slope_outside_range():
    x = ng.leaf(np.array([0.5, 1e-15, 3.0]))
    loss = ng.reduce_sum(ng.log_clamped(x, 1e-12, 1.0))
    grads = ng.backward(loss)
    assert abs(grads[x][0] - 2.0) < 1e-12
    assert grads[x][1] == 0.0
    assert grads[x][2] == 0.0


def test_relu_gradient_gate():
    x = ng.leaf(np.array([-1.0, 2.0]))
    grads = ng.backward(ng.reduce_sum(oracles.relu(x)))
    assert grads[x].tolist() == [0.0, 1.0]


# --- finite-difference checks per primitive ---


def _run_checks(make, count=100, tol=1e-5, seed=0):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        f, x = make(rng)
        worst = max(worst, grad_check(f, x))
    assert worst <= tol, worst


def test_grad_add():
    def make(rng):
        other = ng.leaf(rng.normal(size=4))
        return (lambda t: ng.reduce_sum(ng.mul(ng.add(t, other), other)), rng.normal(size=4))

    _run_checks(make)


def test_grad_mul():
    def make(rng):
        other = ng.leaf(rng.normal(size=5) + 2.0)
        return (lambda t: ng.reduce_sum(ng.mul(t, other)), rng.normal(size=5))

    _run_checks(make)


def test_grad_scale():
    def make(rng):
        c = float(rng.uniform(0.5, 3.0))
        return (lambda t: ng.reduce_sum(ng.scale(t, c)), rng.normal(size=3))

    _run_checks(make)


def test_grad_affine_each_input():
    def make_x(rng):
        w = ng.leaf(rng.normal(size=(4, 3)))
        b = ng.leaf(rng.normal(size=3))
        v = ng.leaf(rng.normal(size=(5, 3)))
        return (
            lambda t: ng.reduce_sum(ng.mul(oracles.affine(t, w, b), v)),
            rng.normal(size=(5, 4)),
        )

    def make_w(rng):
        x = ng.leaf(rng.normal(size=(5, 4)))
        b = ng.leaf(rng.normal(size=3))
        v = ng.leaf(rng.normal(size=(5, 3)))
        return (
            lambda t: ng.reduce_sum(ng.mul(oracles.affine(x, t, b), v)),
            rng.normal(size=(4, 3)),
        )

    def make_b(rng):
        x = ng.leaf(rng.normal(size=(5, 4)))
        w = ng.leaf(rng.normal(size=(4, 3)))
        v = ng.leaf(rng.normal(size=(5, 3)))
        return (
            lambda t: ng.reduce_sum(ng.mul(oracles.affine(x, w, t), v)),
            rng.normal(size=3),
        )

    _run_checks(make_x, count=40)
    _run_checks(make_w, count=40)
    _run_checks(make_b, count=40)


def test_grad_affine_vector_input():
    def make(rng):
        w = ng.leaf(rng.normal(size=(4, 3)))
        b = ng.leaf(rng.normal(size=3))
        return (lambda t: ng.reduce_sum(oracles.affine(t, w, b)), rng.normal(size=4))

    _run_checks(make, count=50)


def test_grad_relu_away_from_kink():
    def make(rng):
        x = rng.normal(size=6)
        x[np.abs(x) < 1e-2] = 0.5  # keep clear of the hinge for finite differences
        v = ng.leaf(rng.normal(size=6))
        return (lambda t: ng.reduce_sum(ng.mul(oracles.relu(t), v)), x)

    _run_checks(make)


def test_grad_softmax():
    def make(rng):
        v = ng.leaf(rng.normal(size=5))
        return (lambda t: ng.reduce_sum(ng.mul(ng.softmax(t), v)), rng.normal(size=5) * 2)

    _run_checks(make)


def test_grad_log_clamped_interior():
    def make(rng):
        x = rng.uniform(0.05, 0.9, size=4)
        return (lambda t: ng.reduce_sum(ng.log_clamped(t, 1e-12, 1.0)), x)

    _run_checks(make)


def test_grad_outer():
    def make(rng):
        other = ng.leaf(rng.normal(size=3))
        v = ng.leaf(rng.normal(size=(4, 3)))
        return (
            lambda t: ng.reduce_sum(ng.mul(ng.outer(t, other), v)),
            rng.normal(size=4),
        )

    _run_checks(make)


def test_grad_reduce_max():
    def make(rng):
        x = rng.normal(size=(6, 4)) * 3  # ties have probability zero
        v = ng.leaf(rng.normal(size=4))
        return (lambda t: ng.reduce_sum(ng.mul(oracles.reduce_max(t), v)), x)

    _run_checks(make)


def test_grad_outer_row_stacks():
    def make(rng):
        other = ng.leaf(rng.normal(size=(3, 4)))
        v = ng.leaf(rng.normal(size=(3, 2, 4)))
        return (
            lambda t: ng.reduce_sum(ng.mul(ng.outer(t, other), v)),
            rng.normal(size=(3, 2)),
        )

    _run_checks(make, count=30)


def test_grad_broadcast():
    def make(rng):
        v = ng.leaf(rng.normal(size=(4, 3)))
        return (lambda t: ng.reduce_sum(ng.mul(ng.broadcast(t, 4), v)), rng.normal(size=3))

    _run_checks(make, count=30)


def test_grad_reduce_sum_over_axis():
    def make(rng):
        v = ng.leaf(rng.normal(size=3))
        return (lambda t: ng.reduce_sum(ng.mul(ng.reduce_sum(t, axis=-1), v)), rng.normal(size=(3, 4)))

    _run_checks(make, count=30)


def test_grad_reduce_sum():
    def make(rng):
        return (lambda t: ng.scale(ng.reduce_sum(t), 2.0), rng.normal(size=(3, 3)))

    _run_checks(make)


def test_grad_check_sum_of_squares_tight():
    err = grad_check(lambda t: ng.reduce_sum(ng.mul(t, t)), np.array([1.0, 2.0]))
    assert err <= 1e-7


def test_grad_check_constant_function_is_zero():
    constants = (
        lambda t: ng.scale(ng.reduce_sum(t), 0.0),
        # never reaches its input, so backward leaves the probe without an adjoint
        lambda t: ng.reduce_sum(ng.leaf(np.array([2.0, 5.0]))),
    )
    for f in constants:
        assert grad_check(f, np.array([1.0, -3.0])) == 0.0
