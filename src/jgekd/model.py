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


def _features(x, w1, b1, w2, b2):
    """The shared MLP and max pool on one cloud's (P, 3) points: the ReLU
    layer h1, the products a = h1 @ w2, and the embedding, the column maxima
    of h2 = relu(a + b2). Pooling a before the bias and ReLU gives the same
    bits on 64 values instead of P * 64: rounding is monotone, so for a
    finite b max_p fl(a_p + b) == fl(max_p a_p + b); max and ReLU commute;
    np.maximum(-0.0, 0.0) is +0.0; and a NaN propagates either way.
    """
    h1 = x @ w1
    h1 += b1
    np.maximum(h1, 0.0, out=h1)
    a = h1 @ w2
    return h1, a, np.maximum(a.max(axis=0) + b2, 0.0)


def _classify(e, w3, b3, w4, b4):
    """The head on an (n_clouds, 1, HIDDEN2) stack of embeddings: h3 and the
    (n_clouds, n_classes) logits. Stacked 1-row matmuls round exactly like
    one cloud's vector-matrix products; a plain (n_clouds, HIDDEN2) @ w3
    would not."""
    h3 = np.maximum(e @ w3 + b3, 0.0)
    return h3, (h3 @ w4 + b4).reshape(len(e), -1)


def _pool(points: Node, offsets, rows) -> Node:
    """Shared MLP and max pool, one cloud at a time: (n_clouds, HIDDEN2).

    Every matmul over a cloud's points keeps that cloud's own shape: one
    taller product over the stacked clouds rounds differently, and so do
    segment sums by np.add.reduceat. Each cloud's h1 and a are kept for
    backward, which finds the pool's first argmax in a rebuilt h2, not in a:
    distinct products can round to a tie once b2 is added. Backward adds
    cloud s's parameter gradients into row s of each parameter's adjoint.
    """
    x = points.value
    w1, b1, w2, b2 = pool = [rows[key].value[0] for key in _POOL_KEYS]
    segments = list(zip(offsets[:-1], offsets[1:]))
    kept = []
    embedding = np.empty((len(segments), w2.shape[1]))
    for s, (lo, hi) in enumerate(segments):
        h1, a, embedding[s] = _features(x[lo:hi], *pool)
        kept.append((h1, a))

    def push(g):
        gw1, gb1, gw2, gb2 = (rows[key].adjoint for key in _POOL_KEYS)
        for s, (lo, hi) in enumerate(segments):
            h1, a = kept[s]
            h2 = a + b2
            np.maximum(h2, 0.0, out=h2)
            # np.argmax takes the first maximum, so ties go to the lowest point.
            # Only the maxima take gradient, and relu's gate there, h > 0
            # (equal to pre > 0), is the embedding's own.
            ga2 = np.zeros_like(h2)
            ga2[np.argmax(h2, axis=0), np.arange(h2.shape[1])] = g[s] * (embedding[s] > 0.0)
            ga1 = (ga2 @ w2.T) * (h1 > 0.0)
            gw2[s] += h1.T @ ga2
            gb2[s] += ga2.sum(axis=0)
            points.adjoint[lo:hi] += ga1 @ w1.T
            gw1[s] += x[lo:hi].T @ ga1
            gb1[s] += ga1.sum(axis=0)

    inputs = (points,) + tuple(rows[key] for key in _POOL_KEYS)
    return Node(embedding, inputs, push)


def _head(embedding: Node, n_clouds, rows) -> Node:
    """Classification head on all clouds at once: (n_clouds, n_classes).
    Backward adds the stacked per-cloud gradients into the rows' adjoints."""
    w3, b3, w4, b4 = head = [rows[key].value[0] for key in _HEAD_KEYS]
    e = embedding.value.reshape(n_clouds, 1, -1)
    h3, logits = _classify(e, *head)

    def push(g):
        a3 = h3[:, 0]
        ga3 = np.matmul(w4, g[:, :, None])[..., 0] * (a3 > 0.0)
        embedding.adjoint += np.matmul(w3, ga3[:, :, None])[..., 0]
        rows["w3"].adjoint += e.transpose(0, 2, 1) * ga3[:, None, :]
        rows["b3"].adjoint += ga3
        rows["w4"].adjoint += a3[:, :, None] * g[:, None, :]
        rows["b4"].adjoint += g

    inputs = (embedding,) + tuple(rows[key] for key in _HEAD_KEYS)
    return Node(logits, inputs, push)


def forward_nodes(rows: dict[str, Node], points: Node, offsets) -> tuple[Node, Node, Node]:
    """The classifier as graph ops on a ragged stack of clouds; returns
    (logits, probs, embedding) nodes with one row per cloud, each of which
    can take a gradient.

    Cloud s is rows offsets[s]:offsets[s + 1] of the (sum P, 3) points.
    Every parameter arrives as rows, numerics.broadcast(leaf, n_clouds). The
    two ops, the point features with their max pool and the head, send cloud
    s's gradient to row s, and backward adds the rows into the leaf one by
    one in cloud order.

    Each cloud gets bit for bit what a stack of that cloud alone gets:
    values, and gradients for the cloud and its parameter rows. Batching
    saves graph bookkeeping, not arithmetic.
    """
    x = points.value
    if x.ndim != 2:
        raise ShapeError("forward_nodes: need (points, 3) coordinates, got %s" % (x.shape,))
    offsets = [ng.check_count(o, "offset") for o in offsets]
    if len(offsets) < 2 or offsets[0] != 0 or offsets[-1] != len(x) or any(
        lo >= hi for lo, hi in zip(offsets, offsets[1:])
    ):
        raise ShapeError("forward_nodes: offsets %s do not split %d points into non-empty clouds" % (offsets, len(x)))
    n_clouds = len(offsets) - 1
    for key in PARAM_KEYS:
        value = rows[key].value
        if value.ndim != (3 if key[0] == "w" else 2) or value.shape[0] != n_clouds or value.strides[0] != 0:
            raise ShapeError("forward_nodes: %s of shape %s is not broadcast to %d clouds" % (key, value.shape, n_clouds))
    embedding = _pool(points, offsets, rows)
    logits = _head(embedding, n_clouds, rows)
    return logits, ng.softmax(logits), embedding


def forward(params: ModelParams, cloud) -> ForwardOutput:
    """Plain forward pass, a pure function of (params, cloud). It builds no
    graph: forward_nodes' value functions on one cloud give the same bits."""
    _, _, embedding = _features(check_cloud(cloud), params.w1, params.b1, params.w2, params.b2)
    _, logits = _classify(embedding.reshape(1, 1, -1), params.w3, params.b3, params.w4, params.b4)
    return ForwardOutput(logits[0], ng.softmax_values(logits[0]), embedding)


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
