"""Corruption taxonomy over three families, each at severities 1..5, plus the
random composition operator used for anti-corruption training.

Families:
  transformation: rotation, shear, ffd, rbf, inv_rbf (always geometric maps)
  noise:          gaussian, impulse, uniform, upsampling, background
  density:        density_inc, density_dec, cutout

Background changes the point count with off-object clutter, so it is kept out
of random composition and used for fixed evaluation sets only. Occlusion and
LiDAR-style corruption need mesh scanning and are not supported here.

Every corruption is a pure function of (cloud, severity, rng seed): random
draws happen in a fixed documented order, and magnitudes scale linearly with
severity on a fixed stream, which makes displacement strictly monotone in
severity for the field-based kinds.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .numerics import Rng, check_count, split_seed
from .pointcloud import LabeledCloud, DatasetManifest, check_cloud, load_dataset, save_cloud, save_manifest

MIN_SURVIVORS = 8


class UnsupportedCorruptionError(ValueError):
    """Requested corruption exists in the taxonomy but is out of scope."""


class CorruptionKind(Enum):
    ROTATION = "rotation"
    SHEAR = "shear"
    FFD = "ffd"
    RBF = "rbf"
    INV_RBF = "inv_rbf"
    GAUSSIAN = "gaussian"
    IMPULSE = "impulse"
    UNIFORM = "uniform"
    UPSAMPLING = "upsampling"
    BACKGROUND = "background"
    DENSITY_INC = "density_inc"
    DENSITY_DEC = "density_dec"
    CUTOUT = "cutout"
    IDENTITY = "identity"


K = CorruptionKind

TRANSFORM_KINDS = (K.ROTATION, K.SHEAR, K.FFD, K.RBF, K.INV_RBF)
NOISE_KINDS = (K.GAUSSIAN, K.IMPULSE, K.UNIFORM, K.UPSAMPLING, K.BACKGROUND)
COMPOSABLE_NOISE_KINDS = NOISE_KINDS[:4]  # background is eval-only
DENSITY_KINDS = (K.DENSITY_INC, K.DENSITY_DEC, K.CUTOUT)

# Every kind usable for fixed evaluation sets, in stable index order.
ALL_EVAL_KINDS = TRANSFORM_KINDS + NOISE_KINDS + DENSITY_KINDS

# Background clutter grows the cloud with off-object points, which distorts
# relative-error aggregation, so the default sweep leaves it out.
BACKGROUND_EXCLUDED_KINDS = tuple(k for k in ALL_EVAL_KINDS if k is not K.BACKGROUND)

_UNSUPPORTED = ("occlusion", "lidar")


def parse_kind(kind) -> CorruptionKind:
    if isinstance(kind, CorruptionKind):
        return kind
    name = str(kind).strip().lower()
    if name in _UNSUPPORTED:
        raise UnsupportedCorruptionError(
            "%s corruption needs mesh scanning and is not supported" % name
        )
    try:
        return CorruptionKind(name)
    except ValueError:
        raise ValueError("unknown corruption kind %r" % kind) from None


def _check_severity(severity) -> int:
    return check_count(severity, "severity", 1, 5)


@dataclass(frozen=True)
class CorruptionSpec:
    """The realized (transformation, noise, density) triple of one draw.

    Each slot is (kind, severity). Identity slots carry severity 0; applied
    slots carry 1..5. The transformation slot is never identity.
    """

    transform: tuple[CorruptionKind, int]
    noise: tuple[CorruptionKind, int]
    density: tuple[CorruptionKind, int]

    def __post_init__(self):
        self._check_slot("transform", self.transform, TRANSFORM_KINDS, allow_identity=False)
        self._check_slot("noise", self.noise, NOISE_KINDS, allow_identity=True)
        self._check_slot("density", self.density, DENSITY_KINDS, allow_identity=True)

    @staticmethod
    def _check_slot(name, slot, family, allow_identity):
        kind, severity = slot
        if kind is K.IDENTITY:
            if not allow_identity:
                raise ValueError("%s slot cannot be identity" % name)
            check_count(severity, "identity %s slot severity" % name, 0, 0)
            return
        if kind not in family:
            raise ValueError("%s slot cannot hold %s" % (name, kind.value))
        _check_severity(severity)


def rotation_matrix(axis, angle: float) -> np.ndarray:
    """Rotation about a unit axis by angle (Rodrigues form)."""
    x, y, z = np.asarray(axis, dtype=np.float64)
    c, s = math.cos(angle), math.sin(angle)
    t = 1.0 - c
    return np.array(
        [
            [c + x * x * t, x * y * t - z * s, x * z * t + y * s],
            [y * x * t + z * s, c + y * y * t, y * z * t - x * s],
            [z * x * t - y * s, z * y * t + x * s, c + z * z * t],
        ]
    )


# --- transformation family --------------------------------------------------


def _rotation(pts, s, rng):
    axis = rng.unit_vector()
    angle = rng.uniform(0.0, s * math.pi / 12.0)
    return pts @ rotation_matrix(axis, angle).T


def _shear(pts, s, rng):
    m = np.eye(3)
    # Off-diagonal entries in row-major order, each uniform in +-0.05*s.
    for i in range(3):
        for j in range(3):
            if i != j:
                m[i, j] = 0.05 * s * rng.uniform(-1.0, 1.0)
    return pts @ m.T


_BERNSTEIN_DEG = 2


def _bernstein_weights(t):
    # Degree-2 Bernstein basis evaluated per point, (P,) -> (P, 3).
    return np.stack([(1.0 - t) ** 2, 2.0 * t * (1.0 - t), t ** 2], axis=1)


def _ffd(pts, s, rng):
    # 3x3x3 control lattice over the bounding box; lattice offsets are drawn
    # first (fixed draw count), then scaled, so a fixed stream gives a
    # displacement field linear in severity.
    offsets = rng.normals(81).reshape(3, 3, 3, 3) * (0.04 * s)
    lo = pts.min(axis=0)
    extent = pts.max(axis=0) - lo
    safe = np.where(extent > 1e-12, extent, 1.0)
    t = np.where(extent > 1e-12, (pts - lo) / safe, 0.5)
    bx = _bernstein_weights(t[:, 0])
    by = _bernstein_weights(t[:, 1])
    bz = _bernstein_weights(t[:, 2])
    disp = np.einsum("pi,pj,pk,ijkc->pc", bx, by, bz, offsets, optimize=False)
    return pts + disp


def _rbf_displacement(pts, s, rng, kernel):
    anchors = np.stack([rng.ball_point() for _ in range(5)])
    amps = rng.normals(15).reshape(5, 3) * (0.05 * s)
    d2 = np.sum((pts[:, None, :] - anchors[None, :, :]) ** 2, axis=2)
    return pts + kernel(d2) @ amps


def _rbf(pts, s, rng):
    return _rbf_displacement(pts, s, rng, lambda d2: np.exp(-d2 / 0.25))


def _inv_rbf(pts, s, rng):
    return _rbf_displacement(pts, s, rng, lambda d2: 1.0 / np.sqrt(1.0 + d2 / 0.25))


# --- noise family -----------------------------------------------------------


def _gaussian(pts, s, rng):
    return pts + rng.normals(pts.size).reshape(pts.shape) * (0.01 * s)


def _uniform_noise(pts, s, rng):
    return pts + rng.uniforms(pts.size, -1.0, 1.0).reshape(pts.shape) * (0.015 * s)


def _impulse(pts, s, rng):
    n = pts.shape[0]
    k = min(n, math.ceil(0.02 * s * n))
    hit = rng.sample_indices(n, k)
    out = pts.copy()
    out[hit] += 0.1 * rng.unit_vectors(k)  # hit is distinct, so no index adds twice
    return out


def _upsampling(pts, s, rng):
    n = pts.shape[0]
    k = math.ceil(s * n / 10.0)
    src = rng.randints([n] * k)
    jitter = rng.normals(3 * k).reshape(k, 3) * 0.01
    return np.vstack([pts, pts[src] + jitter])


def _background(pts, s, rng):
    n = pts.shape[0]
    k = math.ceil(s * n / 20.0)
    clutter = rng.uniforms(3 * k, -1.0, 1.0).reshape(k, 3)
    return np.vstack([pts, clutter])


# --- density family ---------------------------------------------------------


def _density_inc(pts, s, rng):
    # Anchors are existing points (drawn with replacement). Every point
    # within 0.25 of an anchor gains two jittered copies, tripling local
    # density. Membership is measured on the original cloud.
    n = pts.shape[0]
    added = []
    for _ in range(s):
        anchor = pts[rng.randint(n)]
        near = np.nonzero(np.linalg.norm(pts - anchor, axis=1) <= 0.25)[0]
        if near.size == 0:
            continue
        jitter = rng.normals(6 * near.size).reshape(2 * near.size, 3) * 0.005
        copies = np.repeat(pts[near], 2, axis=0) + jitter
        added.append(copies)
    if not added:
        return pts.copy()
    return np.vstack([pts] + added)


def _thin(pts, s, rng, radius, victims):
    # Around each of s anchors (existing points, drawn with replacement),
    # drop victims(near, rng) of the still-surviving points within radius,
    # in the order given, stopping once only MIN_SURVIVORS points remain.
    # victims makes all of its draws even when the floor cuts its list.
    n = pts.shape[0]
    alive = np.ones(n, dtype=bool)
    count = n
    for _ in range(s):
        anchor = pts[rng.randint(n)]
        near = np.nonzero(alive & (np.linalg.norm(pts - anchor, axis=1) <= radius))[0]
        drop = victims(near, rng)[: max(0, count - MIN_SURVIVORS)]
        alive[drop] = False
        count -= drop.size
    return pts[alive]


def _density_dec(pts, s, rng):
    # A random 75% of each 0.25 ball.
    def victims(near, rng):
        return near[rng.sample_indices(near.size, math.floor(0.75 * near.size))]

    return _thin(pts, s, rng, 0.25, victims)


def _cutout(pts, s, rng):
    # The whole 0.15 ball, in ascending index order.
    return _thin(pts, s, rng, 0.15, lambda near, rng: near)


_APPLY = {
    K.ROTATION: _rotation,
    K.SHEAR: _shear,
    K.FFD: _ffd,
    K.RBF: _rbf,
    K.INV_RBF: _inv_rbf,
    K.GAUSSIAN: _gaussian,
    K.IMPULSE: _impulse,
    K.UNIFORM: _uniform_noise,
    K.UPSAMPLING: _upsampling,
    K.BACKGROUND: _background,
    K.DENSITY_INC: _density_inc,
    K.DENSITY_DEC: _density_dec,
    K.CUTOUT: _cutout,
}


def apply_corruption(points, kind, severity, rng: Rng) -> np.ndarray:
    """Apply one corruption at severity 1..5, consuming draws from rng.

    IDENTITY only marks an empty CorruptionSpec slot and raises ValueError.
    """
    kind = parse_kind(kind)
    if kind is K.IDENTITY:
        raise ValueError("identity marks an empty slot and cannot be applied")
    s = _check_severity(severity)
    return _APPLY[kind](check_cloud(points), s, rng)


def compose_random(
    points,
    rng: Rng,
    noise_prob: float = 0.5,
    density_prob: float = 0.5,
) -> tuple[np.ndarray, CorruptionSpec]:
    """One random corruption pipeline: transform, maybe noise, maybe density.

    The transformation slot always fires, uniformly over its 5 kinds. The
    noise and density slots each fire with the given probability (their coin
    is always drawn, so streams stay aligned across probability settings),
    with kinds uniform over the composable members of the family. Each fired
    slot draws its kind, then its severity uniform over 1..5, then applies.
    """
    out = np.asarray(points, dtype=np.float64)
    slots = []
    # The transformation slot draws no coin.
    for family, prob in ((TRANSFORM_KINDS, None), (COMPOSABLE_NOISE_KINDS, noise_prob), (DENSITY_KINDS, density_prob)):
        if prob is not None and not rng.uniform() < prob:
            slots.append((K.IDENTITY, 0))
            continue
        kind = family[rng.randint(len(family))]
        severity = 1 + rng.randint(5)
        out = apply_corruption(out, kind, severity, rng)
        slots.append((kind, severity))
    return out, CorruptionSpec(*slots)


def _cell_slot(kind: CorruptionKind, severity: int) -> int:
    # Distinct stream namespace per (kind, severity) table cell.
    return ALL_EVAL_KINDS.index(kind) * 8 + severity


def corrupt_samples(samples, kind, severity, global_seed: int) -> list[LabeledCloud]:
    """Apply one fixed (kind, severity) to every sample with split seeds."""
    kind = parse_kind(kind)
    if kind is K.IDENTITY:
        raise ValueError("evaluation sets need a real corruption, not identity")
    s = _check_severity(severity)
    out = []
    for i, sample in enumerate(samples):
        rng = Rng(split_seed(global_seed, _cell_slot(kind, s), i))
        out.append(LabeledCloud(apply_corruption(sample.points, kind, s, rng), sample.label))
    return out


def corruption_tag(kind, severity) -> str:
    return "%s_s%d" % (parse_kind(kind).value, _check_severity(severity))


def corrupt_eval_set(manifest_path, out_dir, kind, severity, global_seed: int) -> str:
    """Write a corrupted copy of a dataset split under <out_dir>/<kind>_s<sev>/.

    Returns the path of the new manifest. Output is byte-identical across
    runs with the same global seed.
    """
    kind = parse_kind(kind)
    s = _check_severity(severity)
    manifest, samples = load_dataset(manifest_path)
    corrupted = corrupt_samples(samples, kind, s, global_seed)
    tag = corruption_tag(kind, s)
    directory = os.path.join(out_dir, tag)
    os.makedirs(directory, exist_ok=True)
    entries = []
    for (rel, label), sample in zip(manifest.entries, corrupted):
        name = os.path.basename(rel)
        save_cloud(os.path.join(directory, name), sample.points)
        entries.append((name, label))
    return save_manifest(directory, DatasetManifest(list(manifest.class_names), entries, tag))
