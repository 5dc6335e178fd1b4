"""Point-cloud values, unit-sphere normalization, the MiniShapes synthetic
dataset (8 classes), and bit-exact cloud/manifest file I/O.

Clouds are (P, 3) float64 arrays in memory and 32-bit floats on disk; loading
widens back to float64. Point order is meaningful only for reproducibility,
the classifier itself is permutation invariant.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .numerics import Rng, split_seed

CLASS_NAMES = ("sphere", "cube", "cylinder", "cone", "torus", "plane", "helix", "dumbbell")
NUM_CLASSES = len(CLASS_NAMES)

JITTER_STD = 0.005
MIN_POINTS = 8

_MAGIC = b"PCB1"
_HEADER = struct.Struct("<4sIB")  # magic, point count, dims


class CloudFormatError(ValueError):
    """A cloud file that does not follow the PCB1 layout."""


class BadMagicError(CloudFormatError):
    pass


class TruncatedCloudError(CloudFormatError):
    pass


class BadDimsError(CloudFormatError):
    pass


@dataclass
class LabeledCloud:
    points: np.ndarray
    label: int


@dataclass
class DatasetManifest:
    """Relative file paths plus labels for one split, with the class list."""

    class_names: list[str]
    entries: list[tuple[str, int]]
    split: str


def check_cloud(points) -> np.ndarray:
    """The cloud as a float64 array; raises ValueError unless it is a
    non-empty (n, 3) array of finite coordinates."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("expected an (n, 3) cloud, got shape %s" % (pts.shape,))
    if pts.shape[0] < 1:
        raise ValueError("cloud has no points")
    if not np.all(np.isfinite(pts)):
        raise ValueError("cloud contains non-finite coordinates")
    return pts


def normalize_unit_sphere(points) -> np.ndarray:
    """Center on the centroid and scale so the farthest point sits at norm 1.

    A degenerate cloud (all points identical) is only centered; the scale
    step is skipped when the max norm falls below 1e-12.
    """
    pts = check_cloud(points)
    centered = pts - pts.mean(axis=0)
    max_norm = float(np.max(np.linalg.norm(centered, axis=1)))
    if max_norm >= 1e-12:
        centered = centered / max_norm
    return centered


# ---------------------------------------------------------------------------
# MiniShapes generator
# ---------------------------------------------------------------------------


def _sample_sphere(rng):
    return rng.unit_vector()


def _sample_cube(rng):
    # Faces are equal-area, so a uniform face pick keeps the surface uniform.
    face = rng.randint(6)
    u = rng.uniform(-0.5, 0.5)
    v = rng.uniform(-0.5, 0.5)
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
    u = rng.uniform()
    theta = rng.uniform(0.0, 2.0 * math.pi)
    if u < _CYL_LATERAL_FRAC:
        z = rng.uniform(-1.0, 1.0)
        return np.array([_CYL_R * math.cos(theta), _CYL_R * math.sin(theta), z])
    rho = _CYL_R * math.sqrt(rng.uniform())
    z = 1.0 if u < (1.0 + _CYL_LATERAL_FRAC) / 2.0 else -1.0
    return np.array([rho * math.cos(theta), rho * math.sin(theta), z])


_CONE_R = 0.5
_CONE_SLANT_AREA = math.pi * _CONE_R * math.hypot(2.0, _CONE_R)
_CONE_LATERAL_FRAC = _CONE_SLANT_AREA / (_CONE_SLANT_AREA + math.pi * _CONE_R ** 2)


def _sample_cone(rng):
    # Apex at (0,0,1), base disc of radius 0.5 at z=-1.
    u = rng.uniform()
    theta = rng.uniform(0.0, 2.0 * math.pi)
    if u < _CONE_LATERAL_FRAC:
        t = math.sqrt(rng.uniform())  # area grows quadratically from the apex
        rho = _CONE_R * t
        return np.array([rho * math.cos(theta), rho * math.sin(theta), 1.0 - 2.0 * t])
    rho = _CONE_R * math.sqrt(rng.uniform())
    return np.array([rho * math.cos(theta), rho * math.sin(theta), -1.0])


_TORUS_R, _TORUS_r = 1.0, 0.4


def _sample_torus(rng):
    theta = rng.uniform(0.0, 2.0 * math.pi)
    # Rejection on the tube angle: outer rim carries more area than the inner.
    while True:
        phi = rng.uniform(0.0, 2.0 * math.pi)
        if rng.uniform() < (_TORUS_R + _TORUS_r * math.cos(phi)) / (_TORUS_R + _TORUS_r):
            break
    w = _TORUS_R + _TORUS_r * math.cos(phi)
    return np.array([w * math.cos(theta), w * math.sin(theta), _TORUS_r * math.sin(phi)])


def _sample_plane(rng):
    return np.array([rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), 0.0])


def _sample_helix(rng):
    t = rng.uniform()
    angle = 6.0 * math.pi * t  # three turns
    return np.array([0.7 * math.cos(angle), 0.7 * math.sin(angle), 2.0 * t - 1.0])


def _sample_dumbbell(rng):
    center = 0.8 if rng.uniform() < 0.5 else -0.8
    p = rng.unit_vector() * 0.5
    p[0] += center
    return p


_SAMPLERS = (
    _sample_sphere,
    _sample_cube,
    _sample_cylinder,
    _sample_cone,
    _sample_torus,
    _sample_plane,
    _sample_helix,
    _sample_dumbbell,
)


def surface_points(class_id: int, n_points: int, rng: Rng) -> np.ndarray:
    """Jittered surface samples in canonical orientation, not yet normalized."""
    if not 0 <= class_id < NUM_CLASSES:
        raise ValueError("class_id must be in [0, %d), got %r" % (NUM_CLASSES, class_id))
    sampler = _SAMPLERS[class_id]
    pts = np.empty((n_points, 3))
    for i in range(n_points):
        pts[i] = sampler(rng) + rng.normals(3, sigma=JITTER_STD)
    return pts


def generate_shape(class_id: int, n_points: int, seed: int) -> LabeledCloud:
    """One normalized cloud of the given class, deterministic in seed."""
    if n_points < MIN_POINTS:
        raise ValueError("n_points must be at least %d, got %d" % (MIN_POINTS, n_points))
    rng = Rng(seed)
    pts = surface_points(class_id, n_points, rng)
    return LabeledCloud(normalize_unit_sphere(pts), class_id)


def _per_class_counts(counts) -> list[int]:
    if isinstance(counts, int):
        counts = [counts] * NUM_CLASSES
    counts = [int(c) for c in counts]
    if len(counts) != NUM_CLASSES:
        raise ValueError("need %d per-class counts, got %d" % (NUM_CLASSES, len(counts)))
    if any(c < 1 for c in counts):
        raise ValueError("per-class counts must be positive")
    return counts


def generate_split(per_class, n_points: int, seed: int, split_index: int) -> list[LabeledCloud]:
    """All clouds of one split. per_class is an int or one count per class.

    Each cloud gets its own stream via split_seed, keyed by (split, class)
    and the index within the class, so splits and classes never share draws.
    """
    counts = _per_class_counts(per_class)
    samples = []
    for class_id, count in enumerate(counts):
        for i in range(count):
            s = split_seed(seed, split_index * NUM_CLASSES + class_id, i)
            samples.append(generate_shape(class_id, n_points, s))
    return samples


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def write_atomic(path, data: bytes) -> None:
    """Write data to path through a temp file next to it and os.replace, so
    path holds either its old bytes or all of data, never a partial file."""
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_cloud(path, points) -> None:
    pts = check_cloud(points)
    write_atomic(path, _HEADER.pack(_MAGIC, pts.shape[0], 3) + pts.astype("<f4").tobytes())


def load_cloud(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4 or blob[:4] != _MAGIC:
        raise BadMagicError("%s: bad magic %r" % (path, bytes(blob[:4])))
    if len(blob) < _HEADER.size:
        raise TruncatedCloudError("%s: header cut short at %d bytes" % (path, len(blob)))
    _, count, dims = _HEADER.unpack_from(blob)
    if dims != 3:
        raise BadDimsError("%s: dims = %d, only 3 supported" % (path, dims))
    if count < 1:
        raise CloudFormatError("%s: declared point count is 0" % path)
    expected = count * 3 * 4
    body = blob[_HEADER.size:]
    if len(body) < expected:
        raise TruncatedCloudError(
            "%s: declares %d points but payload holds %d bytes" % (path, count, len(body))
        )
    if len(body) > expected:
        raise CloudFormatError("%s: %d trailing bytes after payload" % (path, len(body) - expected))
    pts = np.frombuffer(body, dtype="<f4").reshape(count, 3).astype(np.float64)
    if not np.all(np.isfinite(pts)):
        raise CloudFormatError("%s: non-finite coordinates" % path)
    return pts


def save_manifest(directory, manifest: DatasetManifest) -> str:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, manifest.split + ".txt")
    lines = ["%s\t%d\n" % (relpath, label) for relpath, label in manifest.entries]
    write_atomic(path, "".join(lines).encode("utf-8"))
    classes = "".join(name + "\n" for name in manifest.class_names)
    write_atomic(os.path.join(directory, "classes.txt"), classes.encode("utf-8"))
    return path


def load_manifest(manifest_path, check_files: bool = True) -> DatasetManifest:
    directory = os.path.dirname(os.path.abspath(manifest_path))
    classes_path = os.path.join(directory, "classes.txt")
    with open(classes_path, "r", encoding="utf-8") as fh:
        class_names = [line.strip() for line in fh if line.strip()]
    if not class_names:
        raise ValueError("%s lists no classes" % classes_path)
    entries = []
    with open(manifest_path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                relpath, label_text = line.split("\t")
                label = int(label_text)
            except ValueError:
                raise ValueError("%s:%d: expected 'relpath<TAB>label'" % (manifest_path, ln))
            if not 0 <= label < len(class_names):
                raise ValueError("%s:%d: label %d out of range" % (manifest_path, ln, label))
            if check_files and not os.path.isfile(os.path.join(directory, relpath)):
                raise FileNotFoundError("%s:%d: missing cloud file %s" % (manifest_path, ln, relpath))
            entries.append((relpath, label))
    split = os.path.splitext(os.path.basename(manifest_path))[0]
    return DatasetManifest(class_names, entries, split)


def load_dataset(manifest_path) -> tuple[DatasetManifest, list[LabeledCloud]]:
    manifest = load_manifest(manifest_path)
    directory = os.path.dirname(os.path.abspath(manifest_path))
    samples = [
        LabeledCloud(load_cloud(os.path.join(directory, rel)), label)
        for rel, label in manifest.entries
    ]
    return manifest, samples


def generate_minishapes(
    out_dir,
    per_class_train=100,
    per_class_test=30,
    n_points: int = 64,
    seed: int = 0,
) -> tuple[str, str]:
    """Write the full MiniShapes tree; returns (train manifest, test manifest).

    Both splits are generated, and so validated, before any file is written.
    """
    counts = (_per_class_counts(per_class_train), _per_class_counts(per_class_test))
    splits = [generate_split(c, n_points, seed, i) for i, c in enumerate(counts)]
    paths = []
    for split, samples in zip(("train", "test"), splits):
        os.makedirs(os.path.join(out_dir, split), exist_ok=True)
        entries = []
        counters = [0] * NUM_CLASSES
        for sample in samples:
            name = "%s_%04d.pcb" % (CLASS_NAMES[sample.label], counters[sample.label])
            counters[sample.label] += 1
            rel = split + "/" + name  # manifests always use forward slashes
            save_cloud(os.path.join(out_dir, split, name), sample.points)
            entries.append((rel, sample.label))
        paths.append(save_manifest(out_dir, DatasetManifest(list(CLASS_NAMES), entries, split)))
    return paths[0], paths[1]
