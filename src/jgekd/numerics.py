"""Dense float64 graph arithmetic with reverse-mode gradients, plus a
reproducible PCG32 random stream.

Everything downstream (shape generation, corruption, the classifier, the
distillation losses) runs on these primitives, so the whole pipeline is
deterministic given a seed and differentiable where it needs to be.
"""

from __future__ import annotations

import math

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF

# PCG-XSH-RR 64/32 multiplier, SplitMix64 constants.
_PCG_MULT = 6364136223846793005
_GOLDEN64 = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

_TWO53 = float(1 << 53)

LOG_FLOOR = 1e-12


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested op."""


# ---------------------------------------------------------------------------
# Random numbers
# ---------------------------------------------------------------------------


def splitmix64(z: int) -> int:
    """SplitMix64 finalizer, a cheap 64-bit avalanche."""
    z &= _MASK64
    z ^= z >> 30
    z = (z * _MIX_A) & _MASK64
    z ^= z >> 27
    z = (z * _MIX_B) & _MASK64
    z ^= z >> 31
    return z


def split_seed(global_seed: int, epoch: int, sample_index: int) -> int:
    """Derive an independent per-(epoch, sample) seed from one global seed.

    Streams derived this way do not depend on iteration order, so per-sample
    work can be reordered or parallelized without changing results.
    """
    z = (global_seed ^ (epoch * _GOLDEN64) ^ (sample_index * _MIX_A)) & _MASK64
    return splitmix64(z)


class Rng:
    """PCG-XSH-RR 64/32 generator.

    Bit-exact across platforms: all state arithmetic is explicit 64-bit
    modular integer math, and float conversion uses the top 53 bits of a
    64-bit word. The three leading outputs for seed=42, seq=54 match the
    generator's published reference sequence (checked in the tests).
    """

    __slots__ = ("state", "increment")

    def __init__(self, seed: int, seq: int = 54):
        self.state = 0
        self.increment = (((seq << 1) | 1)) & _MASK64
        self.next_u32()
        self.state = (self.state + seed) & _MASK64
        self.next_u32()

    def next_u32(self) -> int:
        old = self.state
        self.state = (old * _PCG_MULT + self.increment) & _MASK64
        xorshifted = (((old >> 18) ^ old) >> 27) & _MASK32
        rot = old >> 59
        return ((xorshifted >> rot) | (xorshifted << ((-rot) & 31))) & _MASK32

    def next_u64(self) -> int:
        hi = self.next_u32()
        return (hi << 32) | self.next_u32()

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        # 53 random bits, the full mantissa of a double in [0, 1).
        u = (self.next_u64() >> 11) / _TWO53
        return lo + (hi - lo) * u

    def uniforms(self, n, lo=0.0, hi=1.0) -> np.ndarray:
        return np.array([self.uniform(lo, hi) for _ in range(n)], dtype=np.float64)

    def normal(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        # Box-Muller, cosine branch only; no state carried between calls.
        u1 = ((self.next_u64() >> 11) + 1) / _TWO53  # (0, 1], keeps log finite
        u2 = (self.next_u64() >> 11) / _TWO53
        r = math.sqrt(-2.0 * math.log(u1))
        return mu + sigma * r * math.cos(2.0 * math.pi * u2)

    def normals(self, n, mu=0.0, sigma=1.0) -> np.ndarray:
        # Pairs share one Box-Muller draw; an odd tail discards the sine leg.
        out = np.empty(n, dtype=np.float64)
        i = 0
        while i < n:
            u1 = ((self.next_u64() >> 11) + 1) / _TWO53
            u2 = (self.next_u64() >> 11) / _TWO53
            r = math.sqrt(-2.0 * math.log(u1))
            theta = 2.0 * math.pi * u2
            out[i] = mu + sigma * r * math.cos(theta)
            if i + 1 < n:
                out[i + 1] = mu + sigma * r * math.sin(theta)
            i += 2
        return out

    def randint(self, n: int) -> int:
        """Unbiased integer in [0, n) by threshold rejection."""
        if n <= 0:
            raise ValueError("randint needs n >= 1")
        threshold = ((1 << 32) - n) % n
        while True:
            r = self.next_u32()
            if r >= threshold:
                return r % n

    def unit_vector(self) -> np.ndarray:
        z = self.uniform(-1.0, 1.0)
        phi = self.uniform(0.0, 2.0 * math.pi)
        r = math.sqrt(max(0.0, 1.0 - z * z))
        return np.array([r * math.cos(phi), r * math.sin(phi), z])

    def ball_point(self) -> np.ndarray:
        """Uniform sample from the unit ball."""
        direction = self.unit_vector()
        return direction * self.uniform() ** (1.0 / 3.0)

    def permutation(self, n: int) -> list[int]:
        idx = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.randint(i + 1)
            idx[i], idx[j] = idx[j], idx[i]
        return idx

    def sample_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices from [0, n), order as drawn."""
        if k > n:
            raise ValueError("cannot draw %d distinct indices from %d" % (k, n))
        idx = list(range(n))
        for i in range(k):
            j = i + self.randint(n - i)
            idx[i], idx[j] = idx[j], idx[i]
        return idx[:k]


# ---------------------------------------------------------------------------
# Graph engine
# ---------------------------------------------------------------------------


class Node:
    """One vertex of the compute DAG: its value, its inputs and `push`, the
    op's gradient rule. push(g) adds the contribution of this node's adjoint
    g into the adjoints of its inputs; leaves have no rule. Adjoints are
    allocated by backward, not at construction."""

    __slots__ = ("value", "inputs", "push", "adjoint")

    def __init__(self, value, inputs=(), push=None):
        self.value = value
        self.inputs = inputs
        self.push = push
        self.adjoint = None

    def __repr__(self):
        return "Node(shape=%s)" % (self.value.shape,)


def _asarray(x) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    return a


def leaf(value) -> Node:
    """Wrap a tensor as a graph input. Gradients accumulate here."""
    return Node(_asarray(value))


def detach(node: Node) -> Node:
    """Re-enter a node's current value as a fresh leaf, cutting gradient flow."""
    return leaf(node.value)


def add(a: Node, b: Node) -> Node:
    if a.value.shape != b.value.shape:
        raise ShapeError("add: shapes %s and %s differ" % (a.value.shape, b.value.shape))

    def push(g):
        a.adjoint += g
        b.adjoint += g

    return Node(a.value + b.value, (a, b), push)


def mul(a: Node, b: Node) -> Node:
    """Elementwise product."""
    if a.value.shape != b.value.shape:
        raise ShapeError("elementwise_mul: shapes %s and %s differ" % (a.value.shape, b.value.shape))

    def push(g):
        a.adjoint += g * b.value
        b.adjoint += g * a.value

    return Node(a.value * b.value, (a, b), push)


def scale(a: Node, c: float) -> Node:
    c = float(c)
    if not math.isfinite(c):
        raise ValueError("scale_by_constant: constant must be finite, got %r" % c)

    def push(g):
        a.adjoint += g * c

    return Node(a.value * c, (a,), push)


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


def softmax(a: Node) -> Node:
    """Softmax over the last axis, shift-stabilized."""
    z = a.value
    if z.ndim < 1 or z.shape[-1] < 1:
        raise ShapeError("softmax: need a non-empty last axis, got %s" % (z.shape,))
    e = np.exp(z - np.max(z, axis=-1, keepdims=True))
    s = e / np.sum(e, axis=-1, keepdims=True)

    def push(g):
        dot = np.sum(g * s, axis=-1, keepdims=True)
        a.adjoint += s * (g - dot)

    return Node(s, (a,), push)


def log_clamped(a: Node, floor: float = LOG_FLOOR, ceiling: float | None = None) -> Node:
    """log of the input clamped into [floor, ceiling].

    The gradient is 1/clamped inside the clamp window and exactly 0 outside,
    matching the flat regions the clamp introduces.
    """
    if floor <= 0.0:
        raise ValueError("log_clamped: floor must be positive")
    if ceiling is not None and ceiling < floor:
        raise ValueError("log_clamped: ceiling below floor")
    floor = float(floor)
    x = a.value
    if ceiling is None:
        clamped = np.maximum(x, floor)
    else:
        ceiling = float(ceiling)
        clamped = np.minimum(np.maximum(x, floor), ceiling)

    def push(g):
        inside = x >= floor
        if ceiling is not None:
            inside &= x <= ceiling
        a.adjoint += g * inside / clamped

    return Node(np.log(clamped), (a,), push)


def outer(a: Node, b: Node) -> Node:
    if a.value.ndim != 1 or b.value.ndim != 1:
        raise ShapeError("outer_product: need two vectors, got %s and %s" % (a.value.shape, b.value.shape))

    def push(g):
        a.adjoint += g @ b.value
        b.adjoint += a.value @ g

    return Node(np.outer(a.value, b.value), (a, b), push)


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


def reduce_sum(a: Node) -> Node:
    def push(g):
        a.adjoint += g

    return Node(np.sum(a.value), (a,), push)


def _topo_order(root: Node) -> list[Node]:
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for child in node.inputs:
            stack.append((child, False))
    return order  # children before parents


def backward(root: Node) -> dict[Node, np.ndarray]:
    """Reverse-mode sweep from a scalar root.

    Resets every adjoint below root, seeds the root with 1, visits each node
    exactly once in reverse topological order, and returns the adjoint of
    every node keyed by the node itself.
    """
    if root.value.ndim != 0:
        raise ShapeError("backward: root must be scalar, got shape %s" % (root.value.shape,))
    order = _topo_order(root)
    for node in order:
        node.adjoint = np.zeros_like(node.value)
    root.adjoint = np.ones_like(root.value)
    for node in reversed(order):
        if node.push is not None:
            node.push(node.adjoint)
    return {node: node.adjoint for node in order}


def grad_check(f, x, h: float = 1e-6) -> float:
    """Compare f's analytic gradient at x against central differences.

    f takes one leaf Node and returns a scalar Node. Returns the max over
    coordinates of |analytic - numeric| / max(1e-8, |numeric|).
    """
    if h <= 0.0:
        raise ValueError("grad_check: h must be positive")
    x0 = _asarray(x).copy()
    probe = leaf(x0)
    root = f(probe)
    if root.value.ndim != 0:
        raise ShapeError("grad_check: f must be scalar-valued, got shape %s" % (root.value.shape,))
    backward(root)
    # A probe that root never reaches gets no adjoint: its gradient is zero.
    analytic = np.zeros_like(x0) if probe.adjoint is None else probe.adjoint.copy()

    numeric = np.zeros_like(x0)
    flat = numeric.reshape(-1)
    for i in range(x0.size):
        xp = x0.copy()
        xp.reshape(-1)[i] += h
        xm = x0.copy()
        xm.reshape(-1)[i] -= h
        fp = float(f(leaf(xp)).value)
        fm = float(f(leaf(xm)).value)
        flat[i] = (fp - fm) / (2.0 * h)

    err = np.abs(analytic - numeric) / np.maximum(1e-8, np.abs(numeric))
    return float(np.max(err)) if err.size else 0.0
