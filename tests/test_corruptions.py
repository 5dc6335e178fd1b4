import math

import numpy as np
import pytest

from jgekd.numerics import Rng
from jgekd import corruptions as cr
from jgekd.corruptions import (
    ALL_EVAL_KINDS,
    COMPOSABLE_NOISE_KINDS,
    DENSITY_KINDS,
    K,
    MIN_SURVIVORS,
    TRANSFORM_KINDS,
    CorruptionSpec,
    UnsupportedCorruptionError,
    apply_corruption,
    compose_random,
    corrupt_eval_set,
    corrupt_samples,
    corruption_tag,
    parse_kind,
    rotation_matrix,
)
from pathlib import Path

from jgekd.pointcloud import generate_shape, generate_split, load_dataset


def _cloud(seed=0, n=64):
    return generate_shape(seed % 8, n, seed=seed).points


# --- kind parsing and enums ---


def test_parse_kind_accepts_every_name():
    for kind in ALL_EVAL_KINDS:
        assert parse_kind(kind.value) is kind
    assert parse_kind("identity") is K.IDENTITY


@pytest.mark.parametrize("name", ["occlusion", "lidar", "Occlusion", "LiDAR"])
def test_out_of_scope_kinds_are_flagged(name):
    with pytest.raises(UnsupportedCorruptionError):
        parse_kind(name)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        parse_kind("melt")


def test_family_partitions():
    assert len(TRANSFORM_KINDS) == 5
    assert len(COMPOSABLE_NOISE_KINDS) == 4
    assert K.BACKGROUND not in COMPOSABLE_NOISE_KINDS
    assert len(DENSITY_KINDS) == 3
    assert len(ALL_EVAL_KINDS) == 13
    assert K.IDENTITY not in ALL_EVAL_KINDS
    assert len(cr.BACKGROUND_EXCLUDED_KINDS) == 12
    assert K.BACKGROUND not in cr.BACKGROUND_EXCLUDED_KINDS


def test_severity_validation():
    pts = _cloud()
    # IDENTITY only marks an empty CorruptionSpec slot: even with its
    # severity 0 there is nothing to apply.
    for kind, bad in ((K.GAUSSIAN, 0), (K.GAUSSIAN, 6), (K.GAUSSIAN, -1), (K.GAUSSIAN, 1.5), (K.IDENTITY, 0)):
        with pytest.raises(ValueError):
            apply_corruption(pts, kind, bad, Rng(0))
    # A severity is an integer, not a bool or a float that equals one.
    for bad in (True, 3.0, None):
        with pytest.raises(ValueError, match=r"severity must be an integer in 1\.\.5, got %r" % (bad,)):
            apply_corruption(pts, K.GAUSSIAN, bad, Rng(0))
        with pytest.raises(ValueError):
            corruption_tag(K.GAUSSIAN, bad)
    assert corruption_tag(K.GAUSSIAN, np.int64(2)) == "gaussian_s2"


def test_apply_corruption_rejects_bad_clouds():
    for bad in (np.zeros((0, 3)), np.zeros((4, 2)), np.array([[0.0, np.nan, 0.0]])):
        with pytest.raises(ValueError):
            apply_corruption(bad, K.GAUSSIAN, 1, Rng(0))


def test_corruption_spec_validation():
    ok = CorruptionSpec((K.ROTATION, 2), (K.GAUSSIAN, 1), (K.IDENTITY, 0))
    assert ok.noise == (K.GAUSSIAN, 1)
    with pytest.raises(ValueError):
        CorruptionSpec((K.IDENTITY, 0), (K.IDENTITY, 0), (K.IDENTITY, 0))
    with pytest.raises(ValueError):
        CorruptionSpec((K.ROTATION, 2), (K.CUTOUT, 1), (K.IDENTITY, 0))
    with pytest.raises(ValueError):
        CorruptionSpec((K.ROTATION, 2), (K.IDENTITY, 1), (K.IDENTITY, 0))
    with pytest.raises(ValueError):
        CorruptionSpec((K.ROTATION, True), (K.IDENTITY, 0), (K.IDENTITY, 0))
    with pytest.raises(ValueError):
        CorruptionSpec((K.ROTATION, 2), (K.IDENTITY, False), (K.IDENTITY, 0))


def test_corruption_tag():
    assert corruption_tag(K.ROTATION, 3) == "rotation_s3"
    assert corruption_tag(K.DENSITY_INC, 1) == "density_inc_s1"


# --- geometry of individual transforms ---


def test_rotation_matrix_quarter_turn_about_z():
    m = rotation_matrix(np.array([0.0, 0.0, 1.0]), math.pi / 2)
    out = m @ np.array([1.0, 0.0, 0.0])
    assert np.allclose(out, [0.0, 1.0, 0.0], atol=1e-12)


def test_rotation_matrix_determinant_one():
    rng = Rng(2)
    for _ in range(100):
        m = rotation_matrix(rng.unit_vector(), rng.uniform(0, math.pi))
        assert abs(float(np.linalg.det(m)) - 1.0) <= 1e-9


def _recover_linear_map(kind, severity, seed):
    # feed the standard basis through the transform to read off its matrix
    basis = np.eye(3)
    out = apply_corruption(basis, kind, severity, Rng(seed))
    return out.T


def test_rotation_is_a_proper_rotation():
    for seed in range(50):
        m = _recover_linear_map(K.ROTATION, 3, seed)
        assert np.allclose(m.T @ m, np.eye(3), atol=1e-9)
        assert abs(float(np.linalg.det(m)) - 1.0) <= 1e-9


def test_shear_is_invertible_with_unit_diagonal():
    for seed in range(50):
        m = _recover_linear_map(K.SHEAR, 5, seed)
        assert abs(float(np.linalg.det(m))) > 1e-6
        assert np.allclose(np.diag(m), 1.0, atol=1e-12)


def test_rotation_angle_bounded_by_severity():
    # angle <= s*pi/12, read back via the trace identity
    for seed in range(50):
        for s in (1, 5):
            m = _recover_linear_map(K.ROTATION, s, seed)
            cos_angle = (float(np.trace(m)) - 1.0) / 2.0
            angle = math.acos(min(1.0, max(-1.0, cos_angle)))
            assert angle <= s * math.pi / 12 + 1e-9


# --- determinism and counts ---


@pytest.mark.parametrize("kind", ALL_EVAL_KINDS)
def test_each_kind_is_deterministic(kind):
    pts = _cloud(1)
    for seed in range(25):
        a = apply_corruption(pts, kind, 3, Rng(seed))
        b = apply_corruption(pts, kind, 3, Rng(seed))
        assert np.array_equal(a, b)
        assert np.all(np.isfinite(a))


@pytest.mark.parametrize(
    "kind", [K.ROTATION, K.SHEAR, K.FFD, K.RBF, K.INV_RBF, K.GAUSSIAN, K.UNIFORM, K.IMPULSE]
)
def test_count_preserving_kinds(kind):
    pts = _cloud(3)
    out = apply_corruption(pts, kind, 4, Rng(7))
    assert out.shape == pts.shape


def test_upsampling_count_and_prefix():
    pts = _cloud(4)
    for s in range(1, 6):
        out = apply_corruption(pts, K.UPSAMPLING, s, Rng(11))
        assert out.shape[0] == 64 + math.ceil(s * 64 / 10.0)
        assert np.array_equal(out[:64], pts)


def test_background_count_and_prefix():
    pts = _cloud(5)
    for s, extra in [(1, 4), (2, 7), (3, 10), (4, 13), (5, 16)]:
        out = apply_corruption(pts, K.BACKGROUND, s, Rng(11))
        assert out.shape[0] == 64 + extra
        assert np.array_equal(out[:64], pts)
        assert np.all(np.abs(out[64:]) <= 1.0)


def test_background_severity2_example():
    # ceil(2*64/20) = 7 appended points
    out = apply_corruption(_cloud(6), K.BACKGROUND, 2, Rng(0))
    assert out.shape[0] - 64 == 7


def test_impulse_moves_exact_count_by_fixed_distance():
    pts = _cloud(7)
    for s in range(1, 6):
        out = apply_corruption(pts, K.IMPULSE, s, Rng(13))
        moved = np.nonzero(np.any(out != pts, axis=1))[0]
        assert len(moved) == math.ceil(0.02 * s * 64)
        dists = np.linalg.norm(out[moved] - pts[moved], axis=1)
        assert np.allclose(dists, 0.1, atol=1e-12)


def test_gaussian_and_uniform_move_every_point():
    pts = _cloud(8)
    for kind in (K.GAUSSIAN, K.UNIFORM):
        out = apply_corruption(pts, kind, 1, Rng(17))
        assert np.all(np.any(out != pts, axis=1))


def test_uniform_noise_bounded():
    pts = _cloud(9)
    for s in range(1, 6):
        out = apply_corruption(pts, K.UNIFORM, s, Rng(19))
        assert float(np.abs(out - pts).max()) <= 0.015 * s + 1e-12


def test_subtractive_kinds_give_ordered_subsets():
    for kind in (K.DENSITY_DEC, K.CUTOUT):
        for seed in range(100):
            pts = _cloud(seed)
            out = apply_corruption(pts, kind, 5, Rng(seed))
            assert out.shape[0] >= MIN_SURVIVORS
            rows = {tuple(r) for r in pts}
            assert all(tuple(r) in rows for r in out)
            # surviving points keep their relative order
            idx = []
            lookup = {tuple(r): i for i, r in enumerate(pts)}
            idx = [lookup[tuple(r)] for r in out]
            assert idx == sorted(idx)


def test_cutout_always_removes_something():
    for seed in range(100):
        out = apply_corruption(_cloud(seed), K.CUTOUT, 3, Rng(seed))
        assert MIN_SURVIVORS <= out.shape[0] < 64


def test_density_inc_adds_pairs_with_prefix():
    pts = _cloud(10)
    for s in range(1, 6):
        out = apply_corruption(pts, K.DENSITY_INC, s, Rng(23))
        assert out.shape[0] >= 64 + 2  # the anchor itself is always in range
        assert (out.shape[0] - 64) % 2 == 0
        assert np.array_equal(out[:64], pts)


def test_density_dec_floor_on_tiny_cloud():
    pts = _cloud(11, n=8)
    out = apply_corruption(pts, K.DENSITY_DEC, 5, Rng(3))
    assert out.shape[0] == 8


@pytest.mark.parametrize("kind", [K.FFD, K.RBF, K.INV_RBF, K.GAUSSIAN])
def test_mean_displacement_grows_with_severity(kind):
    pts = _cloud(12)
    means = []
    for s in range(1, 6):
        out = apply_corruption(pts, kind, s, Rng(29))
        means.append(float(np.linalg.norm(out - pts, axis=1).mean()))
    assert all(a < b for a, b in zip(means, means[1:])), means


# --- random composition ---


def test_compose_forced_all_slots():
    pts = _cloud(13)
    out, spec = compose_random(pts, Rng(0), noise_prob=1.0, density_prob=1.0)
    assert spec.transform[0] in TRANSFORM_KINDS
    assert spec.noise[0] in COMPOSABLE_NOISE_KINDS
    assert spec.density[0] in DENSITY_KINDS
    assert 1 <= spec.transform[1] <= 5
    assert 1 <= spec.noise[1] <= 5
    assert 1 <= spec.density[1] <= 5
    assert np.all(np.isfinite(out))


def test_compose_forced_transform_only():
    pts = _cloud(14)
    out, spec = compose_random(pts, Rng(5), noise_prob=0.0, density_prob=0.0)
    assert spec.noise == (K.IDENTITY, 0)
    assert spec.density == (K.IDENTITY, 0)
    # With both coins forced to skip, the output is exactly one transform,
    # drawn as its kind, then its severity, then the transform's own draws.
    rng = Rng(5)
    kind = TRANSFORM_KINDS[rng.randint(len(TRANSFORM_KINDS))]
    severity = 1 + rng.randint(5)
    assert spec.transform == (kind, severity)
    replay = apply_corruption(pts, kind, severity, rng)
    assert out.tobytes() == replay.tobytes()


def test_compose_deterministic():
    pts = _cloud(15)
    a, spec_a = compose_random(pts, Rng(42))
    b, spec_b = compose_random(pts, Rng(42))
    assert spec_a == spec_b
    assert np.array_equal(a, b)


def test_compose_never_samples_background():
    for seed in range(400):
        _, spec = compose_random(_cloud(seed % 16), Rng(seed), noise_prob=1.0)
        assert spec.noise[0] is not K.BACKGROUND


def test_compose_frequencies():
    # 10k draws: each transform kind 0.2 +/- 0.02, noise slot applied 0.5 +/- 0.02
    pts = _cloud(16, n=8)
    t_counts = {kind: 0 for kind in TRANSFORM_KINDS}
    noise_applied = 0
    n = 10_000
    for seed in range(n):
        _, spec = compose_random(pts, Rng(seed))
        t_counts[spec.transform[0]] += 1
        noise_applied += spec.noise[0] is not K.IDENTITY
    for kind, count in t_counts.items():
        assert abs(count / n - 0.2) <= 0.02, (kind, count)
    assert abs(noise_applied / n - 0.5) <= 0.02


def test_compose_severities_cover_full_range():
    seen = set()
    pts = _cloud(17, n=8)
    for seed in range(300):
        _, spec = compose_random(pts, Rng(seed))
        seen.add(spec.transform[1])
    assert seen == {1, 2, 3, 4, 5}


# --- dataset-level corruption ---


def test_corrupt_samples_deterministic():
    samples = generate_split(2, 16, seed=0, split_index=0)
    a = corrupt_samples(samples, K.ROTATION, 3, global_seed=9)
    b = corrupt_samples(samples, K.ROTATION, 3, global_seed=9)
    assert all(np.array_equal(x.points, y.points) for x, y in zip(a, b))
    assert [s.label for s in a] == [s.label for s in samples]


def test_corrupt_samples_rejects_identity():
    samples = generate_split(1, 16, seed=0, split_index=0)
    with pytest.raises(ValueError):
        corrupt_samples(samples, K.IDENTITY, 1, global_seed=0)


def test_corrupt_samples_cell_independence():
    # different (kind, severity) cells draw from unrelated streams
    samples = generate_split(1, 16, seed=0, split_index=0)
    a = corrupt_samples(samples, K.GAUSSIAN, 1, global_seed=9)
    b = corrupt_samples(samples, K.GAUSSIAN, 2, global_seed=9)
    assert not np.array_equal(a[0].points, b[0].points)


def _write_test_split(tmp_path):
    from jgekd.pointcloud import generate_minishapes

    _, test_manifest = generate_minishapes(tmp_path / "data", 2, 2, 16, seed=0)
    return test_manifest


def test_corrupt_eval_set_layout(tmp_path):
    manifest = _write_test_split(tmp_path)
    out = Path(corrupt_eval_set(manifest, tmp_path / "corr", K.ROTATION, 3, 1))
    assert out.parent.name == "rotation_s3"
    _, samples = load_dataset(out)
    assert len(samples) == 16


def test_corrupt_eval_set_deterministic(tmp_path):
    manifest = _write_test_split(tmp_path)
    out_a = Path(corrupt_eval_set(manifest, tmp_path / "a", K.SHEAR, 2, 4))
    out_b = Path(corrupt_eval_set(manifest, tmp_path / "b", K.SHEAR, 2, 4))
    files_a = sorted(out_a.parent.glob("*.pcb"))
    files_b = sorted(out_b.parent.glob("*.pcb"))
    assert files_a and len(files_a) == len(files_b)
    for fa, fb in zip(files_a, files_b):
        assert fa.name == fb.name
        assert fa.read_bytes() == fb.read_bytes()


def test_corrupt_eval_set_background_count_example(tmp_path):
    from jgekd.pointcloud import generate_minishapes

    _, manifest = generate_minishapes(tmp_path / "data", 1, 1, 64, seed=0)
    out = corrupt_eval_set(manifest, tmp_path / "corr", K.BACKGROUND, 2, 0)
    _, samples = load_dataset(out)
    assert all(s.points.shape[0] == 64 + 7 for s in samples)


def test_corrupt_eval_set_rejects_identity(tmp_path):
    manifest = _write_test_split(tmp_path)
    with pytest.raises(ValueError):
        corrupt_eval_set(manifest, tmp_path / "x", K.IDENTITY, 1, 0)
