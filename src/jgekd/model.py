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
from .numerics import Node, Rng
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

    def copy(self) -> "ModelParams":
        return ModelParams(*(getattr(self, key).copy() for key in PARAM_KEYS))


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
    if n_classes < 2:
        raise ValueError("need at least 2 classes, got %d" % n_classes)
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


def forward_nodes(leaves: dict[str, Node], points: Node) -> tuple[Node, Node, Node]:
    """Build the classifier graph; returns (logits, probs, embedding) nodes."""
    h1 = ng.relu(ng.affine(points, leaves["w1"], leaves["b1"]))
    h2 = ng.relu(ng.affine(h1, leaves["w2"], leaves["b2"]))
    embedding = ng.reduce_max(h2)
    h3 = ng.relu(ng.affine(embedding, leaves["w3"], leaves["b3"]))
    logits = ng.affine(h3, leaves["w4"], leaves["b4"])
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
