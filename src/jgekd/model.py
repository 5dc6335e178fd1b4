"""Minimal permutation-invariant point classifier.

Per-point shared MLP (3 -> 32 -> 64), column-wise max pool over points, then
a small head (64 -> 32 -> N). The same parameter set serves as both siamese
branches, and a frozen copy can act as the teacher.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import numerics as ng
from .numerics import Node, Rng, ShapeError
from .pointcloud import check_cloud, write_atomic

HIDDEN1, HIDDEN2, HIDDEN3 = 32, 64, 32
PARAM_KEYS = ("w1", "b1", "w2", "b2", "w3", "b3", "w4", "b4")

_MAGIC = b"JGP1"


class CheckpointFormatError(ValueError):
    """A checkpoint file that does not follow the JGP1 layout."""


@dataclass
class ModelParams:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray
    w4: np.ndarray
    b4: np.ndarray

    @property
    def n_classes(self) -> int:
        return self.w4.shape[1]

    def blocks(self) -> dict[str, np.ndarray]:
        return {key: getattr(self, key) for key in PARAM_KEYS}


@dataclass
class ForwardOutput:
    logits: np.ndarray
    probs: np.ndarray
    embedding: np.ndarray


def block_shapes(n_classes: int) -> dict[str, tuple]:
    return {
        "w1": (3, HIDDEN1),
        "b1": (HIDDEN1,),
        "w2": (HIDDEN1, HIDDEN2),
        "b2": (HIDDEN2,),
        "w3": (HIDDEN2, HIDDEN3),
        "b3": (HIDDEN3,),
        "w4": (HIDDEN3, n_classes),
        "b4": (n_classes,),
    }


def init_params(seed: int, n_classes: int) -> ModelParams:
    """He-normal weights (std = sqrt(2/fan_in)), zero biases."""
    n_classes = ng.check_count(n_classes, "n_classes", 2)
    rng = Rng(seed)
    blocks = {}
    for key, shape in block_shapes(n_classes).items():
        if key.startswith("w"):
            fan_in = shape[0]
            std = math.sqrt(2.0 / fan_in)
            blocks[key] = rng.normals(shape[0] * shape[1], sigma=std).reshape(shape)
        else:
            blocks[key] = np.zeros(shape)
    return ModelParams(**blocks)


def param_leaves(params: ModelParams) -> dict[str, Node]:
    """Fresh graph leaves over the current parameter arrays."""
    return {key: ng.leaf(arr) for key, arr in params.blocks().items()}


_POOL_KEYS = ("w1", "b1", "w2", "b2")
_HEAD_KEYS = ("w3", "b3", "w4", "b4")


def _param_values(leaves, n_clouds) -> tuple[dict, dict]:
    """Each parameter's value, and whether its leaf is a broadcast of it
    with one gradient row per cloud (numerics.broadcast) rather than one
    leaf that all clouds share."""
    values, per_cloud = {}, {}
    for key in PARAM_KEYS:
        value = leaves[key].value
        rank = 2 if key[0] == "w" else 1
        if value.ndim == rank:
            values[key], per_cloud[key] = value, False
        elif value.ndim == rank + 1 and value.shape[0] == n_clouds and value.strides[0] == 0:
            values[key], per_cloud[key] = value[0], True
        else:
            raise ShapeError(
                "forward_nodes: %s of shape %s is neither shared nor broadcast to %d clouds"
                % (key, value.shape, n_clouds)
            )
    return values, per_cloud


def _accumulate(leaves, per_cloud, grads) -> None:
    """Add grads[key][s], cloud s's gradient, into row s of a broadcast
    leaf's adjoint, or into a shared leaf's adjoint one cloud at a time."""
    for key, rows in grads.items():
        adjoint = leaves[key].adjoint
        if per_cloud[key]:
            adjoint += rows
        else:
            for row in rows:
                adjoint += row


def _pool(points: Node, offsets, leaves, values, per_cloud, batched) -> Node:
    """Shared MLP and max pool, one cloud at a time: (n_clouds, HIDDEN2).

    Every matmul over a cloud's points keeps that cloud's own shape: one
    taller product over the stacked clouds rounds differently, and so do
    segment sums by np.add.reduceat. Each cloud's two layer activations are
    kept for backward, which finds the pool's first argmax in the second.
    """
    x = points.value
    w1, b1, w2, b2 = (values[key] for key in _POOL_KEYS)
    segments = list(zip(offsets[:-1], offsets[1:]))
    kept = []
    embedding = np.empty((len(segments), w2.shape[1]))
    for s, (lo, hi) in enumerate(segments):
        h1 = np.maximum(x[lo:hi] @ w1 + b1, 0.0)
        h2 = np.maximum(h1 @ w2 + b2, 0.0)
        embedding[s] = h2.max(axis=0)
        kept.append((h1, h2))

    def push(g):
        g = g.reshape(embedding.shape)
        grads = {key: np.empty((len(segments),) + values[key].shape) for key in _POOL_KEYS}
        for s, (lo, hi) in enumerate(segments):
            h1, h2 = kept[s]
            # np.argmax takes the first maximum, so ties go to the lowest point.
            scatter = np.zeros_like(h2)
            scatter[np.argmax(h2, axis=0), np.arange(h2.shape[1])] = g[s]
            # relu's gate h > 0 equals pre > 0, so the activations suffice.
            ga2 = scatter * (h2 > 0.0)
            ga1 = (ga2 @ w2.T) * (h1 > 0.0)
            grads["w2"][s] = h1.T @ ga2
            grads["b2"][s] = ga2.sum(axis=0)
            points.adjoint[lo:hi] += ga1 @ w1.T
            grads["w1"][s] = x[lo:hi].T @ ga1
            grads["b1"][s] = ga1.sum(axis=0)
        _accumulate(leaves, per_cloud, grads)

    inputs = (points,) + tuple(leaves[key] for key in _POOL_KEYS)
    return Node(embedding if batched else embedding[0], inputs, push)


def _head(embedding: Node, n_clouds, leaves, values, per_cloud, batched) -> Node:
    """Classification head on all clouds at once: (n_clouds, n_classes).

    Each cloud's row goes through stacked 1-row matmuls, which round exactly
    like the vector-matrix products of a single cloud; a plain
    (n_clouds, HIDDEN2) @ w3 would not.
    """
    w3, b3, w4, b4 = (values[key] for key in _HEAD_KEYS)
    e = embedding.value.reshape(n_clouds, 1, -1)
    h3 = np.maximum(e @ w3 + b3, 0.0)
    logits = (h3 @ w4 + b4).reshape(n_clouds, -1)

    def push(g):
        g = g.reshape(logits.shape)
        a3 = h3[:, 0]
        ga3 = np.matmul(w4, g[:, :, None])[..., 0] * (a3 > 0.0)
        embedding.adjoint += np.matmul(w3, ga3[:, :, None]).reshape(embedding.adjoint.shape)
        grads = {
            "w3": e.transpose(0, 2, 1) * ga3[:, None, :],
            "b3": ga3,
            "w4": a3[:, :, None] * g[:, None, :],
            "b4": g,
        }
        _accumulate(leaves, per_cloud, grads)

    inputs = (embedding,) + tuple(leaves[key] for key in _HEAD_KEYS)
    return Node(logits if batched else logits[0], inputs, push)


def forward_nodes(leaves: dict[str, Node], points: Node, offsets=None) -> tuple[Node, Node, Node]:
    """The classifier as graph ops; returns (logits, probs, embedding) nodes.

    points holds one (P, 3) cloud, or, given offsets, a ragged stack of
    clouds: cloud s is rows offsets[s]:offsets[s + 1]. A stack's outputs
    gain a leading axis with one row per cloud. Its parameter leaves may be
    shared, or broadcasts (numerics.broadcast) that give each cloud its own
    gradient row. Two ops carry the gradient rules, the point features with
    their max pool and the head; each output can take a gradient.

    A stack gives each cloud bit for bit what a call on that cloud alone
    gives: values, and gradients for the cloud and the parameters. Batching
    saves graph bookkeeping, not arithmetic.
    """
    x = points.value
    if x.ndim != 2:
        raise ShapeError("forward_nodes: need (points, 3) coordinates, got %s" % (x.shape,))
    batched = offsets is not None
    offsets = [ng.check_count(o, "offset") for o in offsets] if batched else [0, len(x)]
    if len(offsets) < 2 or offsets[0] != 0 or offsets[-1] != len(x) or any(
        lo >= hi for lo, hi in zip(offsets, offsets[1:])
    ):
        raise ShapeError("forward_nodes: offsets %s do not split %d points into non-empty clouds" % (offsets, len(x)))
    n_clouds = len(offsets) - 1
    values, per_cloud = _param_values(leaves, n_clouds)
    embedding = _pool(points, offsets, leaves, values, per_cloud, batched)
    logits = _head(embedding, n_clouds, leaves, values, per_cloud, batched)
    return logits, ng.softmax(logits), embedding


def forward(params: ModelParams, cloud) -> ForwardOutput:
    """Plain forward pass; a pure function of (params, cloud)."""
    pts = check_cloud(cloud)
    logits, probs, embedding = forward_nodes(param_leaves(params), ng.leaf(pts))
    return ForwardOutput(logits.value, probs.value, embedding.value)


def save_params(path, params: ModelParams) -> None:
    for key in PARAM_KEYS:
        if not np.all(np.isfinite(getattr(params, key))):
            raise ValueError("refusing to write non-finite block %s" % key)
    blocks = [np.ascontiguousarray(getattr(params, key), dtype="<f8").tobytes() for key in PARAM_KEYS]
    write_atomic(path, b"".join([_MAGIC, struct.pack("<I", params.n_classes)] + blocks))


def load_params(path) -> ModelParams:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4 or blob[:4] != _MAGIC:
        raise CheckpointFormatError("%s: bad magic %r" % (path, bytes(blob[:4])))
    if len(blob) < 8:
        raise CheckpointFormatError("%s: header cut short" % path)
    (n_classes,) = struct.unpack_from("<I", blob, 4)
    if n_classes < 2:
        raise CheckpointFormatError("%s: declares %d classes" % (path, n_classes))
    offset = 8
    blocks = {}
    for key, shape in block_shapes(n_classes).items():
        count = int(np.prod(shape))
        end = offset + count * 8
        if end > len(blob):
            raise CheckpointFormatError("%s: truncated in block %s" % (path, key))
        blocks[key] = np.frombuffer(blob[offset:end], dtype="<f8").astype(np.float64).reshape(shape)
        offset = end
    if offset != len(blob):
        raise CheckpointFormatError("%s: %d trailing bytes" % (path, len(blob) - offset))
    params = ModelParams(**blocks)
    for key in PARAM_KEYS:
        if not np.all(np.isfinite(getattr(params, key))):
            raise CheckpointFormatError("%s: non-finite values in block %s" % (path, key))
    return params
