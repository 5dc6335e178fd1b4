"""Brute-force reference implementations used by the test suite.

Most of it is pure Python over float lists, summed with math.fsum. Nothing
there is shared with the library's numpy code paths, so agreement between
the two is meaningful.

The last section is different: the per-op graph the classifier used to be
built from (affine, relu, reduce_max as separate nodes, one cloud at a
time). model.forward_nodes must match it bit for bit, values and gradients.
"""

import math

import numpy as np

from jgekd import numerics as ng
from jgekd.numerics import Node, ShapeError

LOG_FLOOR = 1e-12


def joint_graph(p):
    return [[a * b for b in p] for a in p]


def cross_joint_graph(p, p_other):
    return [[a * b for b in p_other] for a in p]


def smooth_labels(q, eps):
    n = len(q)
    hot = max(range(n), key=lambda i: q[i])
    return [1.0 - eps if i == hot else eps / (n - 1) for i in range(n)]


def graph_entropy_loss(a_pred, a_target):
    # -(1/N^2) * sum_ij pred_ij * log(clamp(target_ij, floor, 1))
    n = len(a_pred)
    terms = []
    for i in range(n):
        for j in range(n):
            t = min(max(a_target[i][j], LOG_FLOOR), 1.0)
            terms.append(-(a_pred[i][j] * math.log(t)))
    return math.fsum(terms) / (n * n)


def jgekd(p, p_other):
    return graph_entropy_loss(joint_graph(p), joint_graph(p_other))


def jgetkd(p_s, p_s_other, q, p_t, eps):
    q_smooth = smooth_labels(q, eps)
    return graph_entropy_loss(
        cross_joint_graph(p_s, p_s_other),
        cross_joint_graph(q_smooth, p_t),
    )


def cross_entropy(p, q, eps):
    q_smooth = smooth_labels(q, eps) if eps > 0 else list(q)
    terms = []
    for i in range(len(p)):
        terms.append(-(q_smooth[i] * math.log(max(p[i], LOG_FLOOR))))
    return math.fsum(terms)


def vanilla_kd(p_s, p_t):
    terms = []
    for i in range(len(p_s)):
        terms.append(-(p_t[i] * math.log(max(p_s[i], LOG_FLOOR))))
    return math.fsum(terms)


def splitmix64(z):
    mask = (1 << 64) - 1
    z &= mask
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & mask
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
    return z ^ (z >> 31)


def pcg32_stream(seed, seq, count):
    """Reference PCG-XSH-RR 64/32 with the library's seeding protocol."""
    mask64 = (1 << 64) - 1
    mult = 6364136223846793005

    def step(state, inc):
        return (state * mult + inc) & mask64

    def output(state):
        xorshifted = (((state >> 18) ^ state) >> 27) & 0xFFFFFFFF
        rot = state >> 59
        return ((xorshifted >> rot) | (xorshifted << (32 - rot))) & 0xFFFFFFFF

    inc = ((seq << 1) | 1) & mask64
    state = step(0, inc)
    state = step((state + seed) & mask64, inc)
    out = []
    for _ in range(count):
        old = state
        state = step(state, inc)
        out.append(output(old))
    return out


# Scalar draw loops over a generator's next_u32, one word at a time: the
# reference for the library's block-drawing methods of the same names.


def _bits53(rng):
    hi = rng.next_u32()
    return ((hi << 32) | rng.next_u32()) >> 11


def _uniform(rng, lo, hi):
    return lo + (hi - lo) * (_bits53(rng) / 2.0**53)


def uniforms(rng, n, lo=0.0, hi=1.0):
    return [_uniform(rng, lo, hi) for _ in range(n)]


def normals(rng, n, mu=0.0, sigma=1.0):
    out = []
    while len(out) < n:
        u1 = (_bits53(rng) + 1) / 2.0**53
        u2 = _bits53(rng) / 2.0**53
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        out.append(mu + sigma * r * math.cos(theta))
        out.append(mu + sigma * r * math.sin(theta))
    return out[:n]


def randints(rng, moduli):
    out = []
    for m in moduli:
        threshold = ((1 << 32) - m) % m
        r = rng.next_u32()
        while r < threshold:
            r = rng.next_u32()
        out.append(r % m)
    return out


def unit_vectors(rng, k):
    out = []
    for _ in range(k):
        z = _uniform(rng, -1.0, 1.0)
        phi = _uniform(rng, 0.0, 2.0 * math.pi)
        r = math.sqrt(max(0.0, 1.0 - z * z))
        out.append([r * math.cos(phi), r * math.sin(phi), z])
    return out


def permutation(rng, n):
    idx = list(range(n))
    for i in range(n - 1, 0, -1):
        j = randints(rng, [i + 1])[0]
        idx[i], idx[j] = idx[j], idx[i]
    return idx


def sample_indices(rng, n, k):
    idx = list(range(n))
    for i in range(k):
        j = i + randints(rng, [n - i])[0]
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:k]


def random_prob_vector(rng, n):
    """Dirichlet(1,...,1) draw as plain floats, via numpy Generator rng."""
    x = [-math.log(1.0 - rng.random()) for _ in range(n)]
    s = math.fsum(x)
    return [v / s for v in x]


# Per-op classifier graph: one node per layer, one cloud per call.


def affine(x: Node, w: Node, b: Node) -> Node:
    """x @ w + b for x of shape (P, K) or (K,)."""
    xs, ws, bs = x.value.shape, w.value.shape, b.value.shape
    if len(ws) != 2 or len(bs) != 1 or len(xs) not in (1, 2):
        raise ShapeError("affine: bad ranks x%s w%s b%s" % (xs, ws, bs))
    if xs[-1] != ws[0] or bs[0] != ws[1]:
        raise ShapeError("affine: x%s w%s b%s do not chain" % (xs, ws, bs))

    def push(g):
        if len(xs) == 2:
            x.adjoint += g @ w.value.T
            w.adjoint += x.value.T @ g
            b.adjoint += g.sum(axis=0)
        else:
            x.adjoint += w.value @ g
            w.adjoint += np.outer(x.value, g)
            b.adjoint += g

    return Node(x.value @ w.value + b.value, (x, w, b), push)


def relu(a: Node) -> Node:
    def push(g):
        a.adjoint += g * (a.value > 0.0)

    return Node(np.maximum(a.value, 0.0), (a,), push)


def reduce_max(a: Node) -> Node:
    """Column-wise max over the point axis of a (P, H) tensor."""
    if a.value.ndim != 2 or a.value.shape[0] < 1:
        raise ShapeError("reduce_max: need a non-empty (points, features) tensor, got %s" % (a.value.shape,))

    def push(g):
        # np.argmax returns the first maximum, so ties route to the lowest
        # point index by construction.
        idx = np.argmax(a.value, axis=0)
        scatter = np.zeros_like(a.value)
        scatter[idx, np.arange(a.value.shape[1])] = g
        a.adjoint += scatter

    return Node(np.max(a.value, axis=0), (a,), push)


def classifier_nodes(leaves, points: Node):
    """(logits, probs, embedding) of one cloud, one node per layer."""
    h1 = relu(affine(points, leaves["w1"], leaves["b1"]))
    h2 = relu(affine(h1, leaves["w2"], leaves["b2"]))
    embedding = reduce_max(h2)
    h3 = relu(affine(embedding, leaves["w3"], leaves["b3"]))
    logits = affine(h3, leaves["w4"], leaves["b4"])
    return logits, ng.softmax(logits), embedding
