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

from .numerics import Rng, _math_map, _unit53, box_muller53, check_count, split_seed, uniform53, unit_vectors53

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


# Every class draws a cloud's words as one PCG32 block (Rng._u32_block;
# the cube and the torus draw again on rare paths, see surface_points). The
# words, and the roles they play, are those of a loop that samples one point
# at a time with scalar Rng calls, so clouds and end states match that loop
# bit for bit. Each point is its surface sample followed by
# normals(3, sigma=JITTER_STD), whose 8 words are 4 of the 53-bit values
# below (_unit53 of a word pair, as Rng.next_u64 >> 11 gives it). The
# numerics conversions (uniform53, unit_vectors53, box_muller53) turn them
# into floats exactly as the Rng methods do.


def _values(rng, n, k) -> np.ndarray:
    """(n, k) 53-bit values, row by row, from one block of 2 * k * n words."""
    return _unit53(rng._u32_block(2 * k * n)).reshape(n, k)


def _jitter(bits) -> np.ndarray:
    """normals(3, sigma=JITTER_STD) of each row of bits (u1, u2, u1, u2): the
    cosine and sine legs of the first Box-Muller pair, then the cosine leg
    of the second."""
    n = bits.shape[0]
    r, theta = box_muller53(bits[:, 0::2].ravel(), bits[:, 1::2].ravel())
    out = np.empty((n, 3))
    # 0.0 + is normals' mu, which turns a -0.0 leg into 0.0.
    out[:, 0::2] = (0.0 + JITTER_STD * r * _math_map(math.cos, theta)).reshape(n, 2)
    out[:, 1] = 0.0 + JITTER_STD * r[0::2] * _math_map(math.sin, theta[0::2])
    return out


def _ring(rho, theta, z) -> np.ndarray:
    return np.stack([rho * _math_map(math.cos, theta), rho * _math_map(math.sin, theta), z], axis=1)


# Each class below maps (rng, n) to the n surface samples and the (n, 4)
# values of their jitter.


def _sphere(rng, n):
    v = _values(rng, n, 6)
    return unit_vectors53(v[:, 0], v[:, 1]), v[:, 2:]


# randint(6) rejects words below this threshold and draws again.
_CUBE_REJECT = ((1 << 32) - 6) % 6


def _cube(rng, n):
    # Faces are equal-area, so a uniform face pick keeps the surface uniform.
    start = rng.state
    words = rng._u32_block(13 * n).reshape(n, 13)
    if np.any(words[:, 0] < _CUBE_REJECT):
        # Odds 4 in 2**32 per point: redraw the cloud from its start one
        # point at a time, face by scalar randint(6), then its 12 words.
        rng.state = start
        words = np.array([[rng.randint(6), *rng._u32_block(12).tolist()] for _ in range(n)], dtype=np.uint64)
    face = words[:, 0] % 6
    v = _unit53(words[:, 1:].ravel()).reshape(n, 6)
    axis = (face >> 1).astype(np.intp)
    rows = np.arange(n)
    p = np.empty((n, 3))
    p[rows, axis] = np.where(face & 1 == 0, 0.5, -0.5)
    p[rows, (axis + 1) % 3] = uniform53(v[:, 0], -0.5, 0.5)
    p[rows, (axis + 2) % 3] = uniform53(v[:, 1], -0.5, 0.5)
    return p, v[:, 2:]


_CYL_R, _CYL_H = 0.5, 2.0
_CYL_LATERAL_FRAC = (2.0 * math.pi * _CYL_R * _CYL_H) / (
    2.0 * math.pi * _CYL_R * _CYL_H + 2.0 * math.pi * _CYL_R ** 2
)


def _cylinder(rng, n):
    v = _values(rng, n, 7)
    u = uniform53(v[:, 0])
    lateral = u < _CYL_LATERAL_FRAC
    rho = np.where(lateral, _CYL_R, _CYL_R * np.sqrt(uniform53(v[:, 2])))
    cap = np.where(u < (1.0 + _CYL_LATERAL_FRAC) / 2.0, 1.0, -1.0)
    z = np.where(lateral, uniform53(v[:, 2], -1.0, 1.0), cap)
    return _ring(rho, uniform53(v[:, 1], 0.0, 2.0 * math.pi), z), v[:, 3:]


_CONE_R = 0.5
_CONE_SLANT_AREA = math.pi * _CONE_R * math.hypot(2.0, _CONE_R)
_CONE_LATERAL_FRAC = _CONE_SLANT_AREA / (_CONE_SLANT_AREA + math.pi * _CONE_R ** 2)


def _cone(rng, n):
    # Apex at (0,0,1), base disc of radius 0.5 at z=-1. On the slant, area
    # grows quadratically from the apex.
    v = _values(rng, n, 7)
    t = np.sqrt(uniform53(v[:, 2]))
    z = np.where(uniform53(v[:, 0]) < _CONE_LATERAL_FRAC, 1.0 - 2.0 * t, -1.0)
    return _ring(_CONE_R * t, uniform53(v[:, 1], 0.0, 2.0 * math.pi), z), v[:, 3:]


_TORUS_R, _TORUS_r = 1.0, 0.4
# Word pairs a torus point takes: theta, 2 per rejection trial (1.4 trials on
# average), 4 of jitter, so 7.8 on average. The speculative block holds this
# many per point plus a spare that doubles each time a block runs short.
_TORUS_PAIRS, _TORUS_SPARE = 8, 16


def _torus(rng, n):
    # Rejection on the tube angle phi: the outer rim carries more area than
    # the inner. A point is theta, then (phi, u) trials until u accepts phi,
    # then its jitter, all in word pairs. Every pair of the block is tried
    # as a trial's phi at once; a walk over the accept flags then places
    # each point, and the state rewinds to just after the pairs it used.
    surfaces, jitters = [], []
    spare = _TORUS_SPARE
    while n:
        start = rng.state
        pairs = _TORUS_PAIRS * n + spare
        bits = _unit53(rng._u32_block(2 * pairs))
        angle = uniform53(bits, 0.0, 2.0 * math.pi)
        cos_angle = _math_map(math.cos, angle)
        accept = np.zeros(pairs, dtype=bool)
        accept[:-1] = uniform53(bits[1:]) < (_TORUS_R + _TORUS_r * cos_angle[:-1]) / (_TORUS_R + _TORUS_r)
        # first[j]: the first accepted trial among j, j + 2, j + 4, ...;
        # pairs when the block holds none.
        first = np.where(accept, np.arange(pairs), pairs)
        for parity in (0, 1):
            first[parity::2] = np.minimum.accumulate(first[parity::2][::-1])[::-1]
        first = first.tolist()
        theta_at, phi_at, pos = [], [], 0
        while len(theta_at) < n and pos + 1 < pairs and first[pos + 1] + 6 <= pairs:
            theta_at.append(pos)
            phi_at.append(first[pos + 1])
            pos = first[pos + 1] + 6
        rng.state = start
        rng._u32_block(2 * pos)
        phi_at = np.array(phi_at, dtype=np.intp)
        w = _TORUS_R + _TORUS_r * cos_angle[phi_at]
        surfaces.append(_ring(w, angle[theta_at], _TORUS_r * _math_map(math.sin, angle[phi_at])))
        jitters.append(bits[phi_at[:, None] + np.arange(2, 6)])
        n -= len(theta_at)
        spare *= 2
    return np.concatenate(surfaces), np.concatenate(jitters)


def _plane(rng, n):
    v = _values(rng, n, 6)
    xy = uniform53(v[:, :2], -1.0, 1.0)
    return np.stack([xy[:, 0], xy[:, 1], np.zeros(n)], axis=1), v[:, 2:]


def _helix(rng, n):
    v = _values(rng, n, 5)
    t = uniform53(v[:, 0])
    angle = 6.0 * math.pi * t  # three turns
    return _ring(0.7, angle, 2.0 * t - 1.0), v[:, 1:]


def _dumbbell(rng, n):
    v = _values(rng, n, 7)
    p = unit_vectors53(v[:, 1], v[:, 2]) * 0.5
    p[:, 0] += np.where(uniform53(v[:, 0]) < 0.5, 0.8, -0.8)
    return p, v[:, 3:]


_SURFACES = (_sphere, _cube, _cylinder, _cone, _torus, _plane, _helix, _dumbbell)


def surface_points(class_id: int, n_points: int, rng: Rng) -> np.ndarray:
    """Jittered surface samples in canonical orientation, not yet normalized.

    The cloud is what a loop drawing one point at a time with scalar Rng
    calls gives, bit for bit, with the same end state. Each point takes a
    fixed number of PCG32 words, the 8 of its jitter included:

        sphere 12, cube 13, cylinder 14, cone 14, plane 12, helix 10,
        dumbbell 14, torus 10 + 4 per rejection trial.

    The cube's face is randint(6), which rejects a word below 4: if any face
    word of the block is rejected, the state rewinds to the cloud's start and
    the cloud is drawn again one point at a time. The torus rejects tube
    angles, so its points vary in length: it draws a speculative block, walks
    its accept flags, rewinds to the words used and draws again if the block
    ran short.
    """
    if not 0 <= class_id < NUM_CLASSES:
        raise ValueError("class_id must be in [0, %d), got %r" % (NUM_CLASSES, class_id))
    n_points = check_count(n_points, "n_points")
    if n_points == 0:
        return np.empty((0, 3))
    surface, jitter = _SURFACES[class_id](rng, n_points)
    return surface + _jitter(jitter)


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
    if np.abs(pts).max() > np.finfo(np.float32).max:  # would be written as inf
        raise ValueError("cloud has coordinates beyond the float32 range")
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
