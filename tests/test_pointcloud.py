import os
import struct

import numpy as np
import pytest

import oracles
from jgekd.model import init_params, save_params
from jgekd.numerics import _PCG_MULT, Rng
from jgekd import pointcloud as pc
from jgekd.pointcloud import (
    BadDimsError,
    BadMagicError,
    CloudFormatError,
    DatasetManifest,
    LabeledCloud,
    TruncatedCloudError,
    generate_minishapes,
    generate_shape,
    generate_split,
    load_cloud,
    load_dataset,
    load_manifest,
    normalize_unit_sphere,
    save_cloud,
    save_manifest,
    surface_points,
)


# --- normalization ---


def test_normalize_symmetric_pair():
    out = normalize_unit_sphere(np.array([[2.0, 0, 0], [-2.0, 0, 0]]))
    assert out.tolist() == [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]


def test_normalize_single_point_is_origin():
    out = normalize_unit_sphere(np.array([[5.0, 5.0, 5.0]]))
    assert out.tolist() == [[0.0, 0.0, 0.0]]


def test_normalize_random_statistics():
    rng = np.random.default_rng(0)
    for _ in range(50):
        cloud = rng.normal(size=(rng.integers(2, 40), 3)) * 7 + 3
        out = normalize_unit_sphere(cloud)
        assert float(np.linalg.norm(out.mean(axis=0))) <= 1e-9
        assert abs(float(np.linalg.norm(out, axis=1).max()) - 1.0) <= 1e-9


def test_normalize_idempotent():
    rng = np.random.default_rng(1)
    cloud = rng.normal(size=(25, 3))
    once = normalize_unit_sphere(cloud)
    twice = normalize_unit_sphere(once)
    assert float(np.abs(twice - once).max()) <= 1e-9


def test_normalize_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        normalize_unit_sphere(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        normalize_unit_sphere(np.array([[np.nan, 0.0, 0.0]]))


# --- shape generator ---


def test_generate_shape_deterministic():
    for class_id in range(8):
        a = generate_shape(class_id, 32, seed=class_id * 11)
        b = generate_shape(class_id, 32, seed=class_id * 11)
        assert a.label == b.label == class_id
        assert np.array_equal(a.points, b.points)


def test_generate_shape_seed_sensitivity():
    a = generate_shape(0, 32, seed=1)
    b = generate_shape(0, 32, seed=2)
    assert not np.array_equal(a.points, b.points)


def test_generate_shape_validates():
    with pytest.raises(ValueError):
        generate_shape(0, 7, seed=0)
    with pytest.raises(ValueError):
        generate_shape(8, 64, seed=0)
    with pytest.raises(ValueError):
        generate_shape(-1, 64, seed=0)
    for bad in (1.0, True, None):
        with pytest.raises(ValueError, match=r"class_id must be an integer in 0\.\.7, got %r" % (bad,)):
            generate_shape(bad, 16, seed=0)
    for bad in (None, 16.0):
        with pytest.raises(ValueError, match=r"n_points must be an integer in 8\.\.inf, got %r" % (bad,)):
            generate_shape(0, bad, seed=0)
    assert generate_shape(np.int64(3), np.int64(16), seed=0).label == 3


@pytest.mark.parametrize("n_points", [-1, 2.5, 8.0, True, False, "8", None])
def test_surface_points_rejects_bad_counts_before_drawing(n_points):
    rng = Rng(3)
    state = rng.state
    with pytest.raises(ValueError, match=repr(n_points)):
        surface_points(pc.CLASS_NAMES.index("torus"), n_points, rng)
    assert rng.state == state


def test_surface_points_zero_points_draws_nothing():
    for class_id in range(pc.NUM_CLASSES):
        rng = Rng(3)
        state = rng.state
        out = surface_points(class_id, 0, rng)
        assert out.shape == (0, 3) and out.dtype == np.float64
        assert rng.state == state
    assert surface_points(0, np.int64(8), Rng(3)).tobytes() == surface_points(0, 8, Rng(3)).tobytes()


# --- block sampling against the scalar reference ---


def _assert_matches_oracle(class_id, n_points, rng, reference):
    """surface_points equals the one-point-at-a-time reference byte for
    byte, and leaves the generator where the reference leaves it."""
    got = surface_points(class_id, n_points, rng)
    want = oracles.surface_points(class_id, n_points, reference)
    assert got.shape == want.shape == (n_points, 3)
    assert got.tobytes() == want.tobytes()
    assert rng.state == reference.state
    assert rng.next_u32() == reference.next_u32()


@pytest.mark.parametrize("class_id", range(pc.NUM_CLASSES), ids=pc.CLASS_NAMES)
@pytest.mark.parametrize("n_points", [0, 1, 8, 9, 64, 1024])
def test_surface_points_matches_scalar_reference(class_id, n_points):
    for seed in (0, 7, 0xC0FFEE):
        _assert_matches_oracle(class_id, n_points, Rng(seed), Rng(seed))


class _CountingRng(Rng):
    """An Rng that counts the words its scalar draws take."""

    words = 0

    def __init__(self, seed):
        super().__init__(seed)
        self.words = 0  # seeding takes two words

    def next_u32(self):
        self.words += 1
        return super().next_u32()


def _state_before(state, words, increment):
    """The state that `words` next_u32 calls take to `state`."""
    inverse = pow(_PCG_MULT, -1, 1 << 64)
    for _ in range(words):
        state = ((state - increment) * inverse) % (1 << 64)
    return state


@pytest.mark.parametrize("point", [0, 31, 63])
@pytest.mark.parametrize("state, rejected", [(0, 2), (109, 1)])
def test_cube_face_rejection_falls_back_to_scalar_randint(point, state, rejected):
    # State 0 outputs word 0, which randint(6) rejects, and so does the state
    # after it (the increment, 109); the state after 109 outputs a word that
    # randint accepts. Put the given state under the face word of the given
    # point: each cube point takes 13 words.
    rng, reference, counter = Rng(0), Rng(0), _CountingRng(0)
    rng.state = reference.state = counter.state = _state_before(state, 13 * point, rng.increment)
    oracles.surface_points(pc.CLASS_NAMES.index("cube"), 64, counter)
    assert counter.words == 13 * 64 + rejected
    _assert_matches_oracle(pc.CLASS_NAMES.index("cube"), 64, rng, reference)


# (points, seed) of torus clouds whose rejection trials outrun the first
# speculative block: seed 73 after some of its 64 points, seed 193961 before
# its single point (12 trials) is placed.
_TORUS_SHORT_BLOCKS = ((64, 73), (1, 193961))


@pytest.mark.parametrize("n_points, seed", _TORUS_SHORT_BLOCKS)
def test_torus_redraws_when_the_speculative_block_runs_short(n_points, seed):
    counter = _CountingRng(seed)
    oracles.surface_points(pc.CLASS_NAMES.index("torus"), n_points, counter)
    assert counter.words > 2 * (pc._TORUS_PAIRS * n_points + pc._TORUS_SPARE)
    _assert_matches_oracle(pc.CLASS_NAMES.index("torus"), n_points, Rng(seed), Rng(seed))


@pytest.mark.parametrize("seed", range(10))
def test_sphere_radii_near_one_before_normalization(seed):
    # jitter is N(0, 0.005) per axis, so 0.02 is a 4-sigma band; seeds pinned
    pts = surface_points(pc.CLASS_NAMES.index("sphere"), 64, Rng(seed))
    radii = np.linalg.norm(pts, axis=1)
    assert np.all(np.abs(radii - 1.0) <= 0.02)


@pytest.mark.parametrize("seed", range(10))
def test_plane_stays_flat_before_normalization(seed):
    pts = surface_points(pc.CLASS_NAMES.index("plane"), 64, Rng(seed))
    assert np.all(np.abs(pts[:, 2]) <= 0.02)


def test_generated_clouds_are_normalized():
    for class_id in range(8):
        cloud = generate_shape(class_id, 48, seed=5).points
        assert float(np.linalg.norm(cloud.mean(axis=0))) <= 1e-9
        assert abs(float(np.linalg.norm(cloud, axis=1).max()) - 1.0) <= 1e-9


def test_dumbbell_has_two_lobes():
    cloud = generate_shape(pc.CLASS_NAMES.index("dumbbell"), 200, seed=3).points
    assert (cloud[:, 0] > 0.2).any() and (cloud[:, 0] < -0.2).any()


# --- file format ---


def test_cloud_roundtrip_many(tmp_path):
    rng = np.random.default_rng(7)
    path = tmp_path / "c.pcb"
    for i in range(1000):
        cloud = rng.normal(size=(int(rng.integers(1, 20)), 3))
        save_cloud(path, cloud)
        back = load_cloud(path)
        assert back.dtype == np.float64
        assert np.array_equal(back, cloud.astype(np.float32).astype(np.float64))


def test_cloud_file_layout(tmp_path):
    path = tmp_path / "c.pcb"
    save_cloud(path, np.array([[1.0, 2.0, 3.0]]))
    raw = path.read_bytes()
    assert raw[:4] == b"PCB1"
    count, dims = struct.unpack("<IB", raw[4:9])
    assert (count, dims) == (1, 3)
    assert struct.unpack("<3f", raw[9:]) == (1.0, 2.0, 3.0)


def test_load_cloud_bad_magic(tmp_path):
    path = tmp_path / "c.pcb"
    path.write_bytes(b"XXXX" + bytes(10))
    with pytest.raises(BadMagicError):
        load_cloud(path)


def test_load_cloud_truncated_payload(tmp_path):
    path = tmp_path / "c.pcb"
    save_cloud(path, np.zeros((10, 3)))
    raw = path.read_bytes()
    path.write_bytes(raw[: 9 + 9 * 12])  # declared 10 points, 9 present
    with pytest.raises(TruncatedCloudError):
        load_cloud(path)


def test_load_cloud_bad_dims(tmp_path):
    path = tmp_path / "c.pcb"
    path.write_bytes(b"PCB1" + struct.pack("<IB", 1, 4) + bytes(16))
    with pytest.raises(BadDimsError):
        load_cloud(path)


def test_load_cloud_trailing_bytes(tmp_path):
    path = tmp_path / "c.pcb"
    save_cloud(path, np.zeros((2, 3)))
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(CloudFormatError):
        load_cloud(path)


def test_load_cloud_zero_count(tmp_path):
    path = tmp_path / "c.pcb"
    path.write_bytes(b"PCB1" + struct.pack("<IB", 0, 3))
    with pytest.raises(CloudFormatError):
        load_cloud(path)


def test_load_cloud_short_header(tmp_path):
    path = tmp_path / "c.pcb"
    path.write_bytes(b"PCB1\x01")
    with pytest.raises(CloudFormatError):
        load_cloud(path)


def test_save_cloud_rejects_nonfinite(tmp_path):
    with pytest.raises(ValueError):
        save_cloud(tmp_path / "c.pcb", np.array([[np.inf, 0.0, 0.0]]))


@pytest.mark.parametrize("x", [1e39, -1e39, 3.5e38])
def test_save_cloud_rejects_coordinates_beyond_float32(tmp_path, x):
    # The float32 cast would turn them into infinities that load_cloud
    # rejects; nothing may be written, not even a temp file.
    with pytest.raises(ValueError, match="float32"):
        save_cloud(tmp_path / "c.pcb", [[x, 0.0, 0.0]] * 3)
    assert os.listdir(tmp_path) == []
    save_cloud(tmp_path / "c.pcb", [[3.4e38, 0.0, 0.0]] * 3)
    assert load_cloud(tmp_path / "c.pcb")[0, 0] == np.float32(3.4e38)


@pytest.mark.parametrize(
    "write",
    [
        lambda path, seed: save_cloud(path, generate_shape(0, 8, seed).points),
        lambda path, seed: save_params(path, init_params(seed, 8)),
        lambda path, seed: save_manifest(path.parent, DatasetManifest(["a", "b"], [("x.pcb", seed % 2)], "c")),
    ],
    ids=["save_cloud", "save_params", "save_manifest"],
)
def test_failed_write_keeps_old_bytes(tmp_path, monkeypatch, write):
    path = tmp_path / "c.txt"
    write(path, 0)
    before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}

    def fail(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError):
        write(path, 1)
    assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == before


def test_error_types_are_cloud_format_errors():
    assert issubclass(BadMagicError, CloudFormatError)
    assert issubclass(TruncatedCloudError, CloudFormatError)
    assert issubclass(BadDimsError, CloudFormatError)


# --- manifests and datasets ---


def _tiny_dataset(tmp_path, per_class=2, n_points=8):
    samples = generate_split(per_class, n_points, seed=0, split_index=0)
    manifest_path = tmp_path / "train.txt"
    split_dir = tmp_path / "train"
    split_dir.mkdir()
    entries = []
    for i, sample in enumerate(samples):
        name = "%s_%04d.pcb" % (pc.CLASS_NAMES[sample.label], i)
        save_cloud(split_dir / name, sample.points)
        entries.append(("train/" + name, sample.label))
    manifest = pc.DatasetManifest(list(pc.CLASS_NAMES), entries, "train")
    save_manifest(tmp_path, manifest)
    return manifest_path, samples


def test_manifest_roundtrip(tmp_path):
    manifest_path, samples = _tiny_dataset(tmp_path)
    manifest = load_manifest(manifest_path)
    assert manifest.split == "train"
    assert manifest.class_names == list(pc.CLASS_NAMES)
    assert len(manifest.entries) == len(samples)
    loaded_manifest, loaded = load_dataset(manifest_path)
    assert [s.label for s in loaded] == [s.label for s in samples]
    for got, want in zip(loaded, samples):
        assert np.array_equal(
            got.points, want.points.astype(np.float32).astype(np.float64)
        )


def test_manifest_missing_cloud_file(tmp_path):
    manifest_path, _ = _tiny_dataset(tmp_path)
    victims = list((tmp_path / "train").glob("*.pcb"))
    victims[0].unlink()
    with pytest.raises(FileNotFoundError):
        load_manifest(manifest_path)


def test_manifest_bad_label(tmp_path):
    manifest_path, _ = _tiny_dataset(tmp_path)
    lines = manifest_path.read_text().splitlines()
    lines[0] = lines[0].rsplit("\t", 1)[0] + "\t99"
    manifest_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        load_manifest(manifest_path)


def test_manifest_requires_classes_file(tmp_path):
    manifest_path, _ = _tiny_dataset(tmp_path)
    (tmp_path / "classes.txt").unlink()
    with pytest.raises(FileNotFoundError):
        load_manifest(manifest_path)


def test_generate_split_counts():
    for per_class in (3, np.int64(3)):
        samples = generate_split(per_class, 8, seed=0, split_index=0)
        assert len(samples) == 24
        labels = [s.label for s in samples]
        assert all(labels.count(c) == 3 for c in range(8))
    for bad in (0, 2.5, True, [1.9] * 8, [2] * 7, None):
        with pytest.raises(ValueError):
            generate_split(bad, 8, seed=0, split_index=0)


def test_generate_split_imbalanced_counts():
    counts = [4, 2, 1, 4, 2, 1, 4, 2]
    for per_class in (counts, np.array(counts)):
        labels = [s.label for s in generate_split(per_class, 8, seed=0, split_index=1)]
        assert [labels.count(c) for c in range(8)] == counts


def test_generate_split_deterministic_and_split_sensitive():
    a = generate_split(2, 8, seed=9, split_index=0)
    b = generate_split(2, 8, seed=9, split_index=0)
    c = generate_split(2, 8, seed=9, split_index=1)
    for x, y in zip(a, b):
        assert np.array_equal(x.points, y.points)
    assert not np.array_equal(a[0].points, c[0].points)


def test_generate_minishapes_layout_and_determinism(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    train_a, test_a = generate_minishapes(out_a, 3, 2, 8, seed=0)
    train_b, test_b = generate_minishapes(out_b, 3, 2, 8, seed=0)
    assert len(list((out_a / "train").glob("*.pcb"))) == 24
    assert len(list((out_a / "test").glob("*.pcb"))) == 16
    assert (out_a / "classes.txt").read_text().split() == list(pc.CLASS_NAMES)
    for rel_a in sorted(p.relative_to(out_a) for p in out_a.rglob("*")):
        f_a, f_b = out_a / rel_a, out_b / rel_a
        assert f_b.exists()
        if f_a.is_file():
            assert f_a.read_bytes() == f_b.read_bytes()
    _, train_samples = load_dataset(train_a)
    _, test_samples = load_dataset(test_a)
    assert len(train_samples) == 24 and len(test_samples) == 16


@pytest.mark.parametrize(
    "kwargs",
    [
        {"per_class_test": 0},
        {"n_points": 7},
        {"per_class_train": 2.5},
        {"per_class_train": True},
        {"per_class_test": [1.9] * 8},
        {"n_points": None},
    ],
    ids=["per_class_test=0", "n_points=7", "per_class_train=2.5", "per_class_train=True", "per_class_test=1.9x8", "n_points=None"],
)
def test_generate_minishapes_rejects_bad_limits_before_writing(tmp_path, kwargs):
    out = tmp_path / "out"
    with pytest.raises(ValueError):
        generate_minishapes(out, **{"per_class_train": 2, "per_class_test": 1, **kwargs})
    assert not out.exists()


def test_minishapes_train_test_disjoint(tmp_path):
    train_path, test_path = generate_minishapes(tmp_path, 2, 2, 8, seed=0)
    _, train_samples = load_dataset(train_path)
    _, test_samples = load_dataset(test_path)
    train_bytes = {s.points.tobytes() for s in train_samples}
    assert all(s.points.tobytes() not in train_bytes for s in test_samples)


# --- separability oracle ---


def _radial_histogram(points, bins=16):
    radii = np.linalg.norm(points, axis=1)
    hist, _ = np.histogram(radii, bins=bins, range=(0.0, 1.0))
    return hist / len(points)


def test_nearest_centroid_separability():
    per_class, n_points = 100, 64
    samples = generate_split(per_class, n_points, seed=0, split_index=0)
    feats = np.array([_radial_histogram(s.points) for s in samples])
    labels = np.array([s.label for s in samples])
    centroids = np.array([feats[labels == c].mean(axis=0) for c in range(8)])
    d = ((feats[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    acc = float((d.argmin(axis=1) == labels).mean())
    assert acc >= 0.60, acc
