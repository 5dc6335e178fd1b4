"""Golden sha256 hashes of the artifacts that identical commands must keep
reproducing byte for byte: a generated MiniShapes tree, the checkpoints of
short st, skd and tkd runs, a robustness table, and the outputs of every
evaluation corruption and of random composition.

The determinism tests elsewhere compare two runs of the same code; these
hashes also catch drift between versions. A change that alters float
summation order on purpose must update them together with a note of why.

Recorded on numpy 2.4.6 with OpenBLAS. Another BLAS, or another numpy
version, may round matmuls differently and so change the checkpoint and
robustness hashes without any change to this code.
"""

import hashlib
import os

import pytest

import numpy as np

from jgekd import training
from jgekd.cli import EXIT_OK, main
from jgekd.corruptions import ALL_EVAL_KINDS, MIN_SURVIVORS, apply_corruption, compose_random
from jgekd.model import load_params, save_params
from jgekd.numerics import Rng, split_seed
from jgekd.pointcloud import generate_minishapes, generate_shape, load_dataset, normalize_unit_sphere

PER_TRAIN = 4
PER_TEST = 2
N_POINTS = 32
EPOCHS = 2

GOLDEN = {
    "minishapes": "f2ed5862781f54435f09bb12101741f94fec39cb26a6407261c5bee6b6d7b212",
    "model_st": "526894499728463b274510c318b38a2008843fa0b26fc7708c7fb4b0a777cf86",
    "model_skd": "1a58a8d060cd43cdfee149fc597467dfa016e846ca850fa90819cdd0350a28d1",
    "model_tkd": "564def50025940cf3d2d596d77b7fb6669b2a542d2ad531d9ecc47752072b924",
    "robustness": "e8aadee109862e8fbc16e3e5837f40b87bc8b034c3257e4470746ba9309e5141",
    "corruptions": "34923571997ae3ab7637837975412782cad3665996bbb2aba2ee0a1e440674b9",
    "corruptions_1024": "b331454abea3410f1f0416430eb435b64ca2f50fa8ae5a48e073c45341baaf6b",
    "training_paths": "ab79b8f1369bde0268cea851019716558ef666025a78a0916e042631fc2c34f2",
}

# (class, points, seed, scale) of the clouds the corruption hash runs on. The
# 9- and 12-point clouds hit the MIN_SURVIVORS floor of cutout; shrunk to a
# tenth, every density ball holds the whole cloud, so density_dec hits it too.
CORRUPTION_CLOUDS = (
    (0, 9, 1, 1.0),
    (3, 12, 2, 1.0),
    (1, 9, 5, 0.1),
    (6, 12, 6, 0.1),
    (5, 64, 3, 1.0),
    (7, 200, 4, 1.0),
)
COMPOSE_DRAWS = 16

# The kinds that draw thousands of values per cloud. At 1024 points gaussian
# and uniform draw 3072 values (6144 words) each, more than one 4096-word
# block of the bulk generator, which the clouds above never reach.
LARGE_CLOUD = (2, 1024, 8)
LARGE_CLOUD_KINDS = ("gaussian", "uniform", "upsampling", "impulse", "density_inc", "density_dec")


# Training paths the CLI runs above never take: 20 samples (a full batch of
# 16, then a partial one of 4), skd with a detached target, st without
# augmentation and tkd, all on 9- and 12-point clouds, whose corrupted twins
# fall to the MIN_SURVIVORS floor of 8 rows.
PATHS_SAMPLES = 20
PATHS_POINTS = (9, 12)
PATHS_EPOCHS = 3
PATHS_CONFIGS = (
    ("skd", {"detach_target": True}),
    ("st", {"augment": False}),
    ("tkd", {}),
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _tree_sha256(root) -> str:
    """Hash of every file's relative path and bytes, in sorted path order."""
    digest = hashlib.sha256()
    paths = []
    for dirpath, _, names in os.walk(root):
        paths.extend(os.path.join(dirpath, name) for name in names)
    for path in sorted(paths):
        digest.update(os.path.relpath(path, root).replace(os.sep, "/").encode())
        digest.update(b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read())
        digest.update(b"\0")
    return digest.hexdigest()


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    data = root / "data"
    train_manifest, test_manifest = generate_minishapes(
        str(data), per_class_train=PER_TRAIN, per_class_test=PER_TEST, n_points=N_POINTS, seed=0
    )
    models = {}
    for strategy in ("st", "skd", "tkd"):
        out = root / strategy
        argv = [
            "train",
            "--strategy", strategy,
            "--epochs", str(EPOCHS),
            "--seed", "0",
            "--train-data", train_manifest,
            "--test-data", test_manifest,
            "--out", str(out),
        ]
        if strategy == "tkd":
            argv += ["--teacher", models["skd"]]
        assert main(argv) == EXIT_OK
        models[strategy] = str(out / "model.jgp")
    return {"data": str(data), "test": test_manifest, "models": models}


def test_generated_dataset_hash(runs):
    assert _tree_sha256(runs["data"]) == GOLDEN["minishapes"]


@pytest.mark.parametrize("strategy", ["st", "skd", "tkd"])
def test_checkpoint_hash(runs, strategy):
    with open(runs["models"][strategy], "rb") as fh:
        assert _sha256(fh.read()) == GOLDEN["model_" + strategy]


def test_robustness_table_hash(runs):
    _, samples = load_dataset(runs["test"])
    table = training.robustness_eval(
        load_params(runs["models"]["skd"]), load_params(runs["models"]["st"]), samples, seed=0
    )
    assert _sha256(training.robustness_json(table).encode()) == GOLDEN["robustness"]


def _update_cloud(digest, points):
    digest.update(repr(points.shape).encode())
    digest.update(np.ascontiguousarray(points, dtype="<f8").tobytes())


def test_corruption_outputs_hash():
    digest = hashlib.sha256()
    for index, (class_id, n_points, seed, scale) in enumerate(CORRUPTION_CLOUDS):
        points = generate_shape(class_id, n_points, seed).points * scale
        for kind in ALL_EVAL_KINDS:
            for severity in range(1, 6):
                rng = Rng(split_seed(seed, ALL_EVAL_KINDS.index(kind), severity))
                digest.update(("%d %s %d" % (index, kind.value, severity)).encode())
                _update_cloud(digest, apply_corruption(points, kind, severity, rng))
        rng = Rng(split_seed(seed, len(ALL_EVAL_KINDS), 0))
        for _ in range(COMPOSE_DRAWS):
            out, spec = compose_random(points, rng)
            digest.update(repr([(k.value, s) for k, s in (spec.transform, spec.noise, spec.density)]).encode())
            _update_cloud(digest, out)
    assert digest.hexdigest() == GOLDEN["corruptions"]


def test_large_cloud_corruption_outputs_hash():
    class_id, n_points, seed = LARGE_CLOUD
    points = generate_shape(class_id, n_points, seed).points
    digest = hashlib.sha256()
    for name in LARGE_CLOUD_KINDS:
        for severity in range(1, 6):
            rng = Rng(split_seed(seed, len(ALL_EVAL_KINDS) + 1, severity))
            digest.update(("%s %d" % (name, severity)).encode())
            _update_cloud(digest, apply_corruption(points, name, severity, rng))
    assert digest.hexdigest() == GOLDEN["corruptions_1024"]


def _paths_samples():
    return [
        generate_shape(i % 8, PATHS_POINTS[i % 2], split_seed(0, 0x50415448, i))
        for i in range(PATHS_SAMPLES)
    ]


def test_training_paths_reach_min_survivors():
    """The corrupted twins the hash below trains on include 8-row clouds."""
    samples = [normalize_unit_sphere(s.points) for s in _paths_samples()]
    rows = {
        len(compose_random(points, Rng(split_seed(0, epoch, index)))[0])
        for epoch in range(PATHS_EPOCHS)
        for index, points in enumerate(samples)
    }
    assert MIN_SURVIVORS in rows


def test_training_paths_hash(tmp_path):
    samples = _paths_samples()
    teacher = str(tmp_path / "teacher.jgp")
    digest = hashlib.sha256()
    for strategy, options in PATHS_CONFIGS:
        config = training.TrainConfig(
            strategy=strategy,
            epochs=PATHS_EPOCHS,
            seed=0,
            n_classes=8,
            teacher_checkpoint=teacher if strategy == "tkd" else None,
            **options,
        )
        params, report = training.train(config, samples, samples[:8])
        path = teacher if strategy == "skd" else str(tmp_path / ("%s.jgp" % strategy))
        save_params(path, params)
        with open(path, "rb") as fh:
            digest.update(fh.read())
        digest.update(" ".join(float(v).hex() for v in report.loss_history).encode())
    assert digest.hexdigest() == GOLDEN["training_paths"]
