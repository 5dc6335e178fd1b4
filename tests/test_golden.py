"""Golden sha256 hashes of the artifacts that identical commands must keep
reproducing byte for byte: a generated MiniShapes tree, the checkpoints of
short st, skd and tkd runs, and a robustness table.

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

from jgekd import training
from jgekd.cli import EXIT_OK, main
from jgekd.model import load_params
from jgekd.pointcloud import generate_minishapes, load_dataset

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
}


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
