"""Brute-force reference implementations used by the test suite.

Most of it is pure Python over float lists, summed with math.fsum. Nothing
there is shared with the library's numpy code paths, so agreement between
the two is meaningful.

The last three sections are different. The MiniShapes samplers draw one
point at a time through next_u32 and the scalar draw loops here, sharing no
conversion code with the library; pointcloud.surface_points must match them
bit for bit, clouds and end states. The per-point geometry is the numpy
form the corruptions and the pool used to run on (P, 3) and (P, 64) arrays:
an einsum, reductions over the last axis and np.linalg.norm; the library's
coordinate rows and blocks of rows must match it bit for bit. The per-op
graph is the one the classifier used to be built from (affine, relu,
reduce_max as separate nodes, one cloud at a time); model.forward_nodes
must match it bit for bit, values and gradients. forward_stack, last, is no
reference: it is the one way tests call model.forward_nodes on shared
leaves.
"""

import math

import numpy as np

from jgekd import numerics as ng
from jgekd.model import forward_nodes
from jgekd.numerics import Node, ShapeError
from jgekd.pointcloud import JITTER_STD

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


# Central differences: the reference for every analytic gradient.


def grad_check(f, x, h: float = 1e-6) -> float:
    """Compare f's analytic gradient at x against central differences.

    f takes one leaf Node and returns a scalar Node. Returns the max over
    coordinates of |analytic - numeric| / max(1e-8, |numeric|).
    """
    if h <= 0.0:
        raise ValueError("grad_check: h must be positive")
    x0 = np.array(x, dtype=np.float64)
    probe = ng.leaf(x0)
    root = f(probe)
    if root.value.ndim != 0:
        raise ShapeError("grad_check: f must be scalar-valued, got shape %s" % (root.value.shape,))
    ng.backward(root)
    # A probe that root never reaches gets no adjoint: its gradient is zero.
    analytic = np.zeros_like(x0) if probe.adjoint is None else probe.adjoint.copy()

    numeric = np.zeros_like(x0)
    flat = numeric.reshape(-1)
    for i in range(x0.size):
        xp = x0.copy()
        xp.reshape(-1)[i] += h
        xm = x0.copy()
        xm.reshape(-1)[i] -= h
        fp = float(f(ng.leaf(xp)).value)
        fm = float(f(ng.leaf(xm)).value)
        flat[i] = (fp - fm) / (2.0 * h)

    err = np.abs(analytic - numeric) / np.maximum(1e-8, np.abs(numeric))
    return float(np.max(err)) if err.size else 0.0


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


def _uniform(rng, lo=0.0, hi=1.0):
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


# MiniShapes surface samplers: one point per call, one scalar draw at a time.


def _unit_vector(rng):
    return np.array(unit_vectors(rng, 1)[0])


def _sample_sphere(rng):
    return _unit_vector(rng)


def _sample_cube(rng):
    face = randints(rng, [6])[0]
    u = _uniform(rng, -0.5, 0.5)
    v = _uniform(rng, -0.5, 0.5)
    p = np.empty(3)
    axis = face >> 1
    p[axis] = 0.5 if face & 1 == 0 else -0.5
    p[(axis + 1) % 3] = u
    p[(axis + 2) % 3] = v
    return p


_CYL_R, _CYL_H = 0.5, 2.0
_CYL_LATERAL_FRAC = (2.0 * math.pi * _CYL_R * _CYL_H) / (
    2.0 * math.pi * _CYL_R * _CYL_H + 2.0 * math.pi * _CYL_R ** 2
)


def _sample_cylinder(rng):
    u = _uniform(rng)
    theta = _uniform(rng, 0.0, 2.0 * math.pi)
    if u < _CYL_LATERAL_FRAC:
        z = _uniform(rng, -1.0, 1.0)
        return np.array([_CYL_R * math.cos(theta), _CYL_R * math.sin(theta), z])
    rho = _CYL_R * math.sqrt(_uniform(rng))
    z = 1.0 if u < (1.0 + _CYL_LATERAL_FRAC) / 2.0 else -1.0
    return np.array([rho * math.cos(theta), rho * math.sin(theta), z])


_CONE_R = 0.5
_CONE_SLANT_AREA = math.pi * _CONE_R * math.hypot(2.0, _CONE_R)
_CONE_LATERAL_FRAC = _CONE_SLANT_AREA / (_CONE_SLANT_AREA + math.pi * _CONE_R ** 2)


def _sample_cone(rng):
    u = _uniform(rng)
    theta = _uniform(rng, 0.0, 2.0 * math.pi)
    if u < _CONE_LATERAL_FRAC:
        t = math.sqrt(_uniform(rng))
        rho = _CONE_R * t
        return np.array([rho * math.cos(theta), rho * math.sin(theta), 1.0 - 2.0 * t])
    rho = _CONE_R * math.sqrt(_uniform(rng))
    return np.array([rho * math.cos(theta), rho * math.sin(theta), -1.0])


_TORUS_R, _TORUS_r = 1.0, 0.4


def _sample_torus(rng):
    theta = _uniform(rng, 0.0, 2.0 * math.pi)
    while True:
        phi = _uniform(rng, 0.0, 2.0 * math.pi)
        if _uniform(rng) < (_TORUS_R + _TORUS_r * math.cos(phi)) / (_TORUS_R + _TORUS_r):
            break
    w = _TORUS_R + _TORUS_r * math.cos(phi)
    return np.array([w * math.cos(theta), w * math.sin(theta), _TORUS_r * math.sin(phi)])


def _sample_plane(rng):
    return np.array([_uniform(rng, -1.0, 1.0), _uniform(rng, -1.0, 1.0), 0.0])


def _sample_helix(rng):
    t = _uniform(rng)
    angle = 6.0 * math.pi * t
    return np.array([0.7 * math.cos(angle), 0.7 * math.sin(angle), 2.0 * t - 1.0])


def _sample_dumbbell(rng):
    center = 0.8 if _uniform(rng) < 0.5 else -0.8
    p = _unit_vector(rng) * 0.5
    p[0] += center
    return p


SAMPLERS = (
    _sample_sphere,
    _sample_cube,
    _sample_cylinder,
    _sample_cone,
    _sample_torus,
    _sample_plane,
    _sample_helix,
    _sample_dumbbell,
)


def surface_points(class_id, n_points, rng):
    sampler = SAMPLERS[class_id]
    pts = np.empty((n_points, 3))
    for i in range(n_points):
        pts[i] = sampler(rng) + normals(rng, 3, sigma=JITTER_STD)
    return pts


# Per-point geometry in the (P, 3) and (P, 64) layouts. ffd, rbf and inv_rbf
# are whole corruption kinds and draw what the library's kinds draw.


def _bernstein_weights(t):
    # Degree-2 Bernstein basis evaluated per point, (P,) -> (P, 3).
    return np.stack([(1.0 - t) ** 2, 2.0 * t * (1.0 - t), t ** 2], axis=1)


def ffd(pts, s, rng):
    offsets = rng.normals(81).reshape(3, 3, 3, 3) * (0.04 * s)
    lo = pts.min(axis=0)
    extent = pts.max(axis=0) - lo
    safe = np.where(extent > 1e-12, extent, 1.0)
    t = np.where(extent > 1e-12, (pts - lo) / safe, 0.5)
    bx, by, bz = (_bernstein_weights(t[:, c]) for c in range(3))
    return pts + np.einsum("pi,pj,pk,ijkc->pc", bx, by, bz, offsets, optimize=False)


def rbf_sq_distances(pts, anchors):
    """(P, k) squared distances from the (P, 3) points to (k, 3) anchors."""
    return np.sum((pts[:, None, :] - anchors[None, :, :]) ** 2, axis=2)


def _rbf_displacement(pts, s, rng, kernel):
    anchors = np.stack([rng.ball_point() for _ in range(5)])
    amps = rng.normals(15).reshape(5, 3) * (0.05 * s)
    return pts + kernel(rbf_sq_distances(pts, anchors)) @ amps


def rbf(pts, s, rng):
    return _rbf_displacement(pts, s, rng, lambda d2: np.exp(-d2 / 0.25))


def inv_rbf(pts, s, rng):
    return _rbf_displacement(pts, s, rng, lambda d2: 1.0 / np.sqrt(1.0 + d2 / 0.25))


def anchor_distances(pts, anchor):
    """(P,) distances from the (P, 3) points to one (3,) anchor."""
    return np.linalg.norm(pts - anchor, axis=1)


def column_max(a):
    """Column maxima of a (P, H) array."""
    return a.max(axis=0)


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


def forward_stack(leaves, points: Node, offsets=None):
    """model.forward_nodes with every parameter leaf broadcast to one row per
    cloud; offsets default to one cloud of all the points. Each output has
    one row per cloud, and backward adds a leaf's rows into it in cloud
    order, as training's batches do."""
    offsets = [0, len(points.value)] if offsets is None else offsets
    rows = {key: ng.broadcast(leaf, len(offsets) - 1) for key, leaf in leaves.items()}
    return forward_nodes(rows, points, offsets)
