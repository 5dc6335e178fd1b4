"""Golden sha256 hashes of the artifacts that identical commands must keep
reproducing byte for byte: a generated MiniShapes tree, the clouds of every
class at 8, 64 and 1024 points, the tree `jgekd gen-data` writes at its
defaults, the checkpoints of short st, skd and tkd runs, the text reports of
those runs and of `eval`, `robustness` and `correlation`, a robustness
table, and the outputs of every evaluation corruption and of random
composition.

The determinism tests elsewhere compare two runs of the same code; these
hashes also catch drift between versions. A change that alters float
summation order on purpose must update them together with a note of why.

Recorded on numpy 2.4.6 with OpenBLAS. Another BLAS, or another numpy
version, may round matmuls differently and so change the checkpoint and
robustness hashes without any change to this code.
"""

import hashlib
import importlib.util
import os

import pytest

import numpy as np

from jgekd import training
from jgekd.cli import EXIT_OK, main
from jgekd.corruptions import ALL_EVAL_KINDS, MIN_SURVIVORS, apply_corruption, compose_random
from jgekd.model import ModelParams, forward, init_params, load_params, save_params
from jgekd.numerics import Rng, split_seed
from jgekd.pointcloud import NUM_CLASSES, generate_minishapes, generate_shape, load_dataset, normalize_unit_sphere

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
    "corruptions_1024_geometry": "a5c7c53618839742ffc7ecdcf1b3b039ec390d95aebf1149b399fce11ca724ce",
    "forward_1024": "c3eded2a3e18b27a37b981bf01f7fb8bd6aef3af122dae38a127d5fcd69db9d0",
    "training_paths": "ab79b8f1369bde0268cea851019716558ef666025a78a0916e042631fc2c34f2",
    "shapes_8": "0a5bc21d4e0da1dbf34678a505b684a6d64f975006a75761c8d524339b1a6584",
    "shapes_64": "137b8852f424c100a8ab8d4be525be20abd97ddc1fbd62793be366df86b530c3",
    "shapes_1024": "2945fdcca9fa0cbe21a4df153a5fb2862261a091041932127cac6b66a749d52b",
    "reports_st": "b19022f1bab108e67bc880f3028d660c24292ce25b2010824765c398e92b9064",
    "reports_skd": "6874e545fbcc80d30822092d7b7df1b8dbf171c15f2ce12e9b4fec19fa78127d",
    "reports_tkd": "9364cefa40f1853d6e0c2c64f036210003481a9011d38dd2288f688f460f185c",
    "reports_eval": "63a35d8e0ebdb9ebcc1c4ec3187357672d23e4a40933626576d20422d4d4792c",
    "reports_robustness": "599607888f7bf01b0691ae226c2c2e0b25003664dcb353f1bed91a28151a9f88",
    "reports_correlation": "1bbf039c593a5e5a67d420d903492e1e121b8f4bdacf66811258b3f4032002c6",
}

# The CLI runs whose text reports are hashed: the three training runs write
# metrics.json and history.csv, and the last three runs read their models.
# Correlation runs on the train split, the one with 4 clouds per class.
REPORT_RUNS = ("st", "skd", "tkd", "eval", "robustness", "correlation")

# The reports embed the paths they were given, which sit under the fixture's
# tmp root; the root is replaced by this token before hashing.
ROOT_TOKEN = "<root>"

# Seeds of the per-class clouds behind the shapes_<n> hashes. 1024 points is
# the robustness benchmark's cloud size, which the 32-point tree never reaches.
SHAPE_SEEDS = (0, 1, 2)

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

# The kinds whose per-point geometry runs over coordinate rows: the FFD
# lattice, the two RBF fields and cutout's anchor distances, on the cloud
# above and on that cloud flattened to z = 0, whose zero z extent takes
# ffd's fallback of t = 0.5.
LARGE_CLOUD_GEOMETRY_KINDS = ("ffd", "rbf", "inv_rbf", "cutout")

# The classifier at the robustness sweep's cloud size, where the pool takes
# its column maxima in blocks of rows: 1024-point clouds of every class, and
# ragged clouds of 257 to 3000 rows, none a multiple of 32, so the rows left
# over after the blocks are folded in too. Parameters: two initial sets, and
# the first with -0.0 in half of b2 and in every eighth column of w2.
RAGGED_SIZES = (257, 300, 1031, 2047, 3000)
FORWARD_PARAM_SEEDS = (6, 11)


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
    for command, data_manifest, extra in (
        ("eval", test_manifest, []),
        ("robustness", test_manifest, ["--ref", models["st"]]),
        ("correlation", train_manifest, ["--samples-per-class", str(PER_TRAIN)]),
    ):
        argv = [command, "--model", models["skd"], "--data", data_manifest, "--out", str(root / command)]
        assert main(argv + extra) == EXIT_OK
    return {"root": str(root), "data": str(data), "test": test_manifest, "models": models}


def test_generated_dataset_hash(runs):
    assert _tree_sha256(runs["data"]) == GOLDEN["minishapes"]


@pytest.mark.parametrize("strategy", ["st", "skd", "tkd"])
def test_checkpoint_hash(runs, strategy):
    with open(runs["models"][strategy], "rb") as fh:
        assert _sha256(fh.read()) == GOLDEN["model_" + strategy]


@pytest.mark.parametrize("run", REPORT_RUNS)
def test_report_hash(runs, run):
    out = os.path.join(runs["root"], run)
    digest = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        if name.endswith(".jgp"):
            continue
        with open(os.path.join(out, name), encoding="utf-8") as fh:
            text = fh.read().replace(runs["root"], ROOT_TOKEN)
        digest.update(name.encode() + b"\0" + text.encode() + b"\0")
    assert digest.hexdigest() == GOLDEN["reports_" + run]


def test_robustness_table_hash(runs):
    _, samples = load_dataset(runs["test"])
    table = training.robustness_eval(
        load_params(runs["models"]["skd"]), load_params(runs["models"]["st"]), samples, seed=0
    )
    assert _sha256(training.robustness_json(table).encode()) == GOLDEN["robustness"]


def _update_cloud(digest, points):
    digest.update(repr(points.shape).encode())
    digest.update(np.ascontiguousarray(points, dtype="<f8").tobytes())


@pytest.mark.parametrize("n_points", [8, 64, 1024])
def test_generated_shapes_hash(n_points):
    digest = hashlib.sha256()
    for class_id in range(NUM_CLASSES):
        for seed in SHAPE_SEEDS:
            _update_cloud(digest, generate_shape(class_id, n_points, seed).points)
    assert digest.hexdigest() == GOLDEN["shapes_%d" % n_points]


def _perfbench_workloads():
    """perfbench/workloads.py, loaded by path: the benchmark pins the sha256
    of the default gen-data tree there, and this test checks the same pin
    without running the benchmark."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_default_gen_data_matches_benchmark_pin(tmp_path):
    workloads = _perfbench_workloads()
    out = tmp_path / "data"
    assert main(["gen-data", "--out", str(out)]) == EXIT_OK
    assert workloads.tree_hash(str(out)) == workloads.PINNED_GEN_DATA_SHA256


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


def test_large_cloud_geometry_outputs_hash():
    class_id, n_points, seed = LARGE_CLOUD
    points = generate_shape(class_id, n_points, seed).points
    digest = hashlib.sha256()
    for flat, cloud in enumerate((points, points * np.array([1.0, 1.0, 0.0]))):
        for name in LARGE_CLOUD_GEOMETRY_KINDS:
            for severity in range(1, 6):
                rng = Rng(split_seed(seed, len(ALL_EVAL_KINDS) + 2 + flat, severity))
                digest.update(("%d %s %d" % (flat, name, severity)).encode())
                _update_cloud(digest, apply_corruption(cloud, name, severity, rng))
    assert digest.hexdigest() == GOLDEN["corruptions_1024_geometry"]


def _forward_params():
    params = [init_params(seed, NUM_CLASSES) for seed in FORWARD_PARAM_SEEDS]
    w2, b2 = params[0].w2.copy(), params[0].b2.copy()
    w2[:, 0::8] = -0.0  # every product in these columns is a zero of either sign
    b2[0::2] = -0.0
    return params + [ModelParams(**dict(params[0].blocks(), w2=w2, b2=b2))]


def test_forward_outputs_hash():
    clouds = [generate_shape(class_id, 1024, 9).points for class_id in range(NUM_CLASSES)]
    clouds += [generate_shape(i % NUM_CLASSES, n, 10 + i).points for i, n in enumerate(RAGGED_SIZES)]
    assert all(len(c) % 32 for c in clouds[NUM_CLASSES:])
    digest = hashlib.sha256()
    for params in _forward_params():
        for cloud in clouds:
            out = forward(params, cloud)
            for value in (out.logits, out.probs, out.embedding):
                _update_cloud(digest, value)
    assert digest.hexdigest() == GOLDEN["forward_1024"]


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
