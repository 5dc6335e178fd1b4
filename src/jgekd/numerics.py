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


def _lcg_jump_tables(size: int) -> tuple[np.ndarray, np.ndarray]:
    """A[k] = mult**k and G[k] = 1 + mult + ... + mult**(k-1) (mod 2**64) for
    k < size, so that k LCG steps take state s to A[k]*s + G[k]*increment.

    Built by doubling: k + m steps are k steps, then m more, so
    A[k + m] = A[m]*A[k] and G[k + m] = A[m]*G[k] + G[m]. The scalar A[m],
    G[m] use Python ints; the uint64 array products wrap silently.
    """
    a = np.ones(1, dtype=np.uint64)
    g = np.zeros(1, dtype=np.uint64)
    a_m, g_m = _PCG_MULT, 1
    while a.size < size:
        a = np.concatenate([a, a * np.uint64(a_m)])
        g = np.concatenate([g, g * np.uint64(a_m) + np.uint64(g_m)])
        a_m, g_m = (a_m * a_m) & _MASK64, (a_m * g_m + g_m) & _MASK64
    return a[:size], g[:size]


# Words produced per table lookup; longer requests run block by block.
_BLOCK = 4096
_JUMP_A, _JUMP_G = _lcg_jump_tables(_BLOCK)

# normals, randints and unit_vectors keep a scalar loop below this many
# values, because corruption makes many such small draws: one 800-sample skd
# epoch on criterion 9's data makes about 475 normals, 545 randints and 103
# unit_vectors calls below 16 values, and at 3 values the block path costs
# 2.5-5x more per call. No workload asks uniforms for fewer than 16 values,
# so it always draws a block.
_BULK_MIN = 16


def _pcg_output(old: np.ndarray) -> np.ndarray:
    """XSH-RR output of each uint64 state, as next_u32 computes it."""
    xorshifted = (((old >> 18) ^ old) >> 27) & _MASK32
    rot = old >> 59
    return ((xorshifted >> rot) | (xorshifted << ((32 - rot) & 31))) & _MASK32


def _math_map(fn, x: np.ndarray) -> np.ndarray:
    """fn (math.log, cos or sin) per element. np.log, np.cos and np.sin may
    round differently from math.* in the last bit, which would change every
    seeded result."""
    return np.fromiter(map(fn, x.ravel().tolist()), np.float64, x.size).reshape(x.shape)


def _unit53(words: np.ndarray) -> np.ndarray:
    """Top 53 bits of each (high, low) word pair as an integer, as next_u64
    then >> 11 give it. Integers below 2**53 convert to float64 exactly."""
    return ((words[0::2] << 32) | words[1::2]) >> 11


def uniform53(bits, lo=0.0, hi=1.0):
    """Rng.uniform(lo, hi) of each 53-bit value (an int or an array)."""
    return lo + (hi - lo) * (bits / _TWO53)


def normals53(bits: np.ndarray, n: int, mu=0.0, sigma=1.0) -> np.ndarray:
    """Rng.normals(n, mu, sigma) of the Box-Muller pairs (u1, u2) of 53-bit
    values along bits' last axis, shape bits.shape[:-1] + (n,): each pair
    gives its cosine leg, then its sine leg; an odd n drops the last sine
    leg."""
    u1 = (bits[..., 0::2] + 1) / _TWO53  # (0, 1], keeps log finite
    r = np.sqrt(-2.0 * _math_map(math.log, u1))
    theta = 2.0 * math.pi * (bits[..., 1::2] / _TWO53)
    out = np.empty(bits.shape[:-1] + (n,))
    out[..., 0::2] = mu + sigma * r * _math_map(math.cos, theta)
    out[..., 1::2] = mu + sigma * r[..., : n // 2] * _math_map(math.sin, theta[..., : n // 2])
    return out


def unit_vectors53(z_bits: np.ndarray, phi_bits: np.ndarray) -> np.ndarray:
    """Rng.unit_vector of each (z, phi) pair of 53-bit values, shape (k, 3)."""
    z = uniform53(z_bits, -1.0, 1.0)
    phi = uniform53(phi_bits, 0.0, 2.0 * math.pi)
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([r * _math_map(math.cos, phi), r * _math_map(math.sin, phi), z], axis=1)


def check_count(n, name: str = "n", lo: int = 0, hi: float = math.inf) -> int:
    """n as an int; a ValueError naming it unless it is an int in lo..hi.

    The package's one rule for integer arguments: Python and numpy integers
    pass, while bools, floats (even 3.0) and None never do.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or not lo <= n <= hi:
        raise ValueError("%s must be an integer in %d..%s, got %r" % (name, lo, hi, n))
    return int(n)


class Rng:
    """PCG-XSH-RR 64/32 generator.

    Bit-exact across platforms: all state arithmetic is explicit 64-bit
    modular integer math, and float conversion uses the top 53 bits of a
    64-bit word. The three leading outputs for seed=42, seq=54 match the
    generator's published reference sequence (checked in the tests).

    The multi-value methods (uniforms, normals, randints, unit_vectors,
    permutation, sample_indices) return exactly what the matching loop of
    scalar calls returns and leave the same state behind; a negative or
    non-integer count, modulus or k (a float or a bool) raises ValueError
    before any draw. uniforms always, and the others from _BULK_MIN values
    up, draw the words as one block (_u32_block, LCG jump-ahead in numpy
    uint64) and convert them with uniform53, normals53 and unit_vectors53,
    the module's one copy of that arithmetic. These use numpy's +, -, *, /
    and sqrt, which round like Python floats; log, cos and sin stay math.*
    per value (_math_map): numpy's versions may round differently in the
    last bit.
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

    def _u32_block(self, k: int) -> np.ndarray:
        """The next k next_u32 outputs as uint64, leaving state where k calls
        to next_u32 would."""
        out = np.empty(k, dtype=np.uint64)
        inc = np.uint64(self.increment)
        state = self.state
        for start in range(0, k, _BLOCK):
            m = min(_BLOCK, k - start)
            old = _JUMP_A[:m] * np.uint64(state) + _JUMP_G[:m] * inc
            out[start : start + m] = _pcg_output(old)
            state = (int(old[-1]) * _PCG_MULT + self.increment) & _MASK64
        self.state = state
        return out

    def next_u64(self) -> int:
        hi = self.next_u32()
        return (hi << 32) | self.next_u32()

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        # 53 random bits, the full mantissa of a double in [0, 1).
        return uniform53(self.next_u64() >> 11, lo, hi)

    def uniforms(self, n, lo=0.0, hi=1.0) -> np.ndarray:
        return uniform53(_unit53(self._u32_block(2 * check_count(n))), lo, hi)

    def normals(self, n, mu=0.0, sigma=1.0) -> np.ndarray:
        # Pairs share one Box-Muller draw; an odd tail discards the sine leg.
        n = check_count(n)
        if n >= _BULK_MIN:
            return normals53(_unit53(self._u32_block(4 * ((n + 1) // 2))), n, mu, sigma)
        out = np.empty(n, dtype=np.float64)
        for i in range(0, n, 2):
            u1 = ((self.next_u64() >> 11) + 1) / _TWO53
            u2 = (self.next_u64() >> 11) / _TWO53
            r = math.sqrt(-2.0 * math.log(u1))
            theta = 2.0 * math.pi * u2
            out[i] = mu + sigma * r * math.cos(theta)
            if i + 1 < n:
                out[i + 1] = mu + sigma * r * math.sin(theta)
        return out

    def randint(self, n: int) -> int:
        """Unbiased integer in [0, n) by threshold rejection."""
        if type(n) is not int or not 1 <= n <= 1 << 32:  # skip the call for a plain valid int
            n = check_count(n, "modulus", 1, 1 << 32)
        threshold = ((1 << 32) - n) % n
        while True:
            r = self.next_u32()
            if r >= threshold:
                return r % n

    def randints(self, moduli) -> list[int]:
        """[randint(m) for m in moduli], with the same draws and end state;
        a bad modulus anywhere raises ValueError before any draw."""
        moduli = list(moduli)
        if moduli and (set(map(type, moduli)) != {int} or not 1 <= min(moduli) <= max(moduli) <= 1 << 32):
            moduli = [check_count(m, "modulus", 1, 1 << 32) for m in moduli]
        if len(moduli) < _BULK_MIN:
            return [self.randint(m) for m in moduli]
        m = np.array(moduli, dtype=np.uint64)
        start = self.state
        words = self._u32_block(m.size)
        rejected = np.flatnonzero(words < (np.uint64(1 << 32) - m) % m)
        if rejected.size == 0:
            return (words % m).tolist()
        # Keep the accepted prefix, rewind to just after the first rejected
        # word and let scalar randint redraw for that modulus onward.
        i = int(rejected[0])
        self.state = start
        self._u32_block(i + 1)
        return (words[:i] % m[:i]).tolist() + [self.randint(x) for x in moduli[i:]]

    def unit_vector(self) -> np.ndarray:
        z = self.uniform(-1.0, 1.0)
        phi = self.uniform(0.0, 2.0 * math.pi)
        r = math.sqrt(max(0.0, 1.0 - z * z))
        return np.array([r * math.cos(phi), r * math.sin(phi), z])

    def unit_vectors(self, k: int) -> np.ndarray:
        """np.stack of k unit_vector() calls, shape (k, 3)."""
        k = check_count(k, "k")
        if k < _BULK_MIN:
            return np.array([self.unit_vector() for _ in range(k)]).reshape(k, 3)
        bits = _unit53(self._u32_block(4 * k))
        return unit_vectors53(bits[0::2], bits[1::2])

    def ball_point(self) -> np.ndarray:
        """Uniform sample from the unit ball."""
        direction = self.unit_vector()
        return direction * self.uniform() ** (1.0 / 3.0)

    def permutation(self, n: int) -> list[int]:
        idx = list(range(check_count(n)))
        for i, j in zip(range(n - 1, 0, -1), self.randints(range(n, 1, -1))):
            idx[i], idx[j] = idx[j], idx[i]
        return idx

    def sample_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices from [0, n), order as drawn."""
        n = check_count(n)
        k = check_count(k, "k", 0, n)
        idx = list(range(n))
        for i, j in enumerate(self.randints(range(n, n - k, -1))):
            j += i
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


def leaf(value) -> Node:
    """Wrap a tensor as a graph input. Gradients accumulate here."""
    return Node(np.asarray(value, dtype=np.float64))


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


def softmax(a: Node) -> Node:
    """Softmax over the last axis, shift-stabilized."""
    z = a.value
    if z.ndim < 1 or z.shape[-1] < 1:
        raise ShapeError("softmax: need a non-empty last axis, got %s" % (z.shape,))
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    s = e / e.sum(axis=-1, keepdims=True)

    def push(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
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


def broadcast(a: Node, n: int) -> Node:
    """n stacked copies of a, shape (n,) + a's shape, one adjoint row each.

    A batch that sends sample s's gradient to row s keeps the per-sample
    gradients apart; push then adds the rows into a's adjoint one by one in
    row order, which is the order a loop of per-sample graphs would add them.
    """
    if n < 1:
        raise ShapeError("broadcast: need at least one row, got %d" % n)

    def push(g):
        # Row by row on purpose: g.sum(axis=0) promises no order and may
        # add the rows pairwise.
        for row in g:
            a.adjoint += row

    return Node(np.broadcast_to(a.value, (n,) + a.value.shape), (a,), push)


def outer(a: Node, b: Node) -> Node:
    """Outer product of two vectors, or of two (B, N) row stacks row by row,
    giving (B, N, M). Row-stacked products are 1-row matmuls, which round
    exactly like the vector ones."""
    av, bv = a.value, b.value
    if av.ndim not in (1, 2) or av.shape[:-1] != bv.shape[:-1]:
        raise ShapeError("outer_product: need two vectors or two row stacks, got %s and %s" % (av.shape, bv.shape))

    def push(g):
        a.adjoint += (g @ bv[..., None])[..., 0]
        b.adjoint += (av[..., None, :] @ g)[..., 0, :]

    return Node(av[..., :, None] * bv[..., None, :], (a, b), push)


def reduce_sum(a: Node, axis=None) -> Node:
    """Sum of all entries, or over axis (an int or a tuple), which keeps one
    total per row of a row stack."""
    def push(g):
        a.adjoint += g if axis is None else np.expand_dims(g, axis)

    return Node(np.sum(a.value, axis=axis), (a,), push)


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
        # C order even for a broadcast view: zeros_like would keep its row
        # axis innermost, and adding whole rows into that is slow.
        node.adjoint = np.zeros_like(node.value, order="C")
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
    x0 = np.array(x, dtype=np.float64)
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
