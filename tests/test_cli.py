"""End-to-end checks of the jgekd command line.

Everything runs in-process through main(argv) so exit codes and artifacts can
be asserted directly. Dataset sizes are kept tiny; the full-size defaults are
exercised implicitly (same code path, larger loop bounds).
"""

import filecmp
import json
import os
import re

import pytest

from jgekd.cli import (
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    load_config_file,
    main,
)
from jgekd.model import init_params, save_params
from jgekd.pointcloud import generate_shape, save_cloud

# 8 classes, 4 train + 2 test clouds each: the smallest tree that still
# satisfies correlation's 4-per-class floor.
PER_TRAIN = 4
PER_TEST = 2
N_POINTS = 32


def _tree_files(root):
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            full = os.path.join(dirpath, name)
            out[os.path.relpath(full, root)] = full
    return out


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    code = main(
        [
            "gen-data",
            "--out", str(root),
            "--per-class-train", str(PER_TRAIN),
            "--per-class-test", str(PER_TEST),
            "--points", str(N_POINTS),
            "--seed", "0",
        ]
    )
    assert code == EXIT_OK
    return {
        "root": str(root),
        "train": str(root / "train.txt"),
        "test": str(root / "test.txt"),
    }


@pytest.fixture(scope="module")
def overfit_run(tmp_path_factory, dataset):
    """Model memorizing the tiny train split: no augmentation, many epochs."""
    out = tmp_path_factory.mktemp("cli_overfit")
    code = main(
        [
            "train",
            "--strategy", "st",
            "--epochs", "40",
            "--no-augment",
            "--seed", "0",
            "--train-data", dataset["train"],
            "--test-data", dataset["test"],
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    return str(out)


# --- gen-data ---


def test_gen_data_tree_layout(dataset):
    root = dataset["root"]
    files = _tree_files(root)
    train_clouds = [p for p in files if p.startswith("train") and p.endswith(".pcb")]
    test_clouds = [p for p in files if p.startswith("test") and p.endswith(".pcb")]
    assert len(train_clouds) == 8 * PER_TRAIN
    assert len(test_clouds) == 8 * PER_TEST
    assert "train.txt" in files and "test.txt" in files and "classes.txt" in files
    with open(files["classes.txt"], encoding="utf-8") as fh:
        assert len(fh.read().split()) == 8


def test_gen_data_deterministic(tmp_path):
    args = ["--per-class-train", "2", "--per-class-test", "1", "--points", "16", "--seed", "7"]
    for sub in ("a", "b"):
        assert main(["gen-data", "--out", str(tmp_path / sub)] + args) == EXIT_OK
    a, b = _tree_files(tmp_path / "a"), _tree_files(tmp_path / "b")
    assert sorted(a) == sorted(b)
    for rel in a:
        assert filecmp.cmp(a[rel], b[rel], shallow=False), rel


def test_gen_data_rejects_tiny_clouds(tmp_path):
    code = main(["gen-data", "--out", str(tmp_path / "x"), "--points", "4"])
    assert code == EXIT_VALIDATION
    assert not (tmp_path / "x").exists()


def test_gen_data_rejects_zero_counts(tmp_path):
    for flag in ("--per-class-train", "--per-class-test"):
        code = main(["gen-data", "--out", str(tmp_path / "x"), flag, "0"])
        assert code == EXIT_VALIDATION
        assert not (tmp_path / "x").exists()


# --- corrupt ---


def test_corrupt_single_cell_layout(dataset, tmp_path):
    out = tmp_path / "corr"
    code = main(
        [
            "corrupt",
            "--data", dataset["test"],
            "--out", str(out),
            "--kind", "rotation",
            "--severity", "3",
        ]
    )
    assert code == EXIT_OK
    cell = out / "rotation_s3"
    assert cell.is_dir()
    clouds = [p for p in os.listdir(cell) if p.endswith(".pcb")]
    assert len(clouds) == 8 * PER_TEST


def test_corrupt_severity_out_of_range(dataset, tmp_path):
    code = main(
        [
            "corrupt",
            "--data", dataset["test"],
            "--out", str(tmp_path / "x"),
            "--kind", "rotation",
            "--severity", "6",
        ]
    )
    assert code == EXIT_VALIDATION
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("name", ["occlusion", "lidar"])
def test_corrupt_unsupported_kind(dataset, tmp_path, name):
    code = main(
        ["corrupt", "--data", dataset["test"], "--out", str(tmp_path / "x"), "--kind", name]
    )
    assert code == EXIT_VALIDATION


def test_corrupt_unknown_kind(dataset, tmp_path):
    code = main(
        ["corrupt", "--data", dataset["test"], "--out", str(tmp_path / "x"), "--kind", "fog"]
    )
    assert code == EXIT_VALIDATION


def test_corrupt_without_kind_or_all(dataset, tmp_path):
    code = main(["corrupt", "--data", dataset["test"], "--out", str(tmp_path / "x")])
    assert code == EXIT_VALIDATION


def test_corrupt_all_enumerates_every_cell(dataset, tmp_path):
    out = tmp_path / "all"
    code = main(["corrupt", "--data", dataset["test"], "--out", str(out), "--all"])
    assert code == EXIT_OK
    cells = sorted(p for p in os.listdir(out) if (out / p).is_dir())
    # 13 kinds x 5 severities; the eval-only background family is included
    assert len(cells) == 65
    assert "background_s1" in cells and "cutout_s5" in cells
    for cell in cells:
        assert os.path.exists(out / cell / (cell + ".txt"))


def _write_split(directory, rels):
    """A manifest listing copies of one 16-point cloud at the given relative
    paths, labels 0, 1, ..."""
    directory.mkdir()
    (directory / "classes.txt").write_text("a\nb\n")
    cloud = generate_shape(0, 16, 0).points
    for rel in rels:
        (directory / rel).parent.mkdir(parents=True, exist_ok=True)
        save_cloud(directory / rel, cloud)
    (directory / "test.txt").write_text("".join("%s\t%d\n" % (rel, i % 2) for i, rel in enumerate(rels)))
    return str(directory / "test.txt")


@pytest.mark.parametrize(
    "rels, message",
    [
        (["a/x.pcb", "b/x.pcb"], "entries a/x.pcb and b/x.pcb would both be written to x.pcb"),
        (["x.pcb", "y.pcb", "x.pcb"], "entries x.pcb and x.pcb would both be written to x.pcb"),
        ([], "lists no clouds, so there is nothing to corrupt"),
    ],
    ids=["same-basename", "same-entry", "empty"],
)
@pytest.mark.parametrize("cells", [["--kind", "rotation"], ["--all"]], ids=["kind", "all"])
def test_corrupt_refuses_a_split_it_cannot_copy(tmp_path, capsys, rels, message, cells):
    manifest = _write_split(tmp_path / "data", rels)
    out = tmp_path / "corr"
    assert main(["corrupt", "--data", manifest, "--out", str(out)] + cells) == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_corrupt_missing_manifest(tmp_path):
    code = main(
        [
            "corrupt",
            "--data", str(tmp_path / "nope.txt"),
            "--out", str(tmp_path / "x"),
            "--kind", "rotation",
        ]
    )
    assert code == EXIT_IO


# --- train ---


def test_train_writes_artifacts(dataset, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        [
            "train",
            "--strategy", "st",
            "--epochs", "2",
            "--seed", "1",
            "--train-data", dataset["train"],
            "--test-data", dataset["test"],
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    captured = capsys.readouterr().out
    assert "config:" in captured and "OA=" in captured
    assert (out / "model.jgp").exists()
    blob = json.loads((out / "metrics.json").read_text())
    assert blob["config"]["strategy"] == "st"
    assert blob["config"]["epochs"] == 2
    assert blob["config"]["seed"] == 1
    assert 0.0 <= blob["overall_accuracy"] <= 1.0
    history = (out / "history.csv").read_text().splitlines()
    assert "epoch,loss" in history
    data_rows = [ln for ln in history if ln and not ln.startswith("#") and ln[0].isdigit()]
    assert len(data_rows) == 2


def test_train_deterministic(dataset, tmp_path):
    outs = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        code = main(
            [
                "train",
                "--strategy", "skd",
                "--epochs", "1",
                "--seed", "3",
                "--train-data", dataset["train"],
                "--test-data", dataset["test"],
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        outs.append(out)
    assert (outs[0] / "model.jgp").read_bytes() == (outs[1] / "model.jgp").read_bytes()
    assert (outs[0] / "metrics.json").read_text() == (outs[1] / "metrics.json").read_text()


def test_train_tkd_needs_teacher(dataset, tmp_path):
    code = main(
        [
            "train",
            "--strategy", "tkd",
            "--epochs", "1",
            "--train-data", dataset["train"],
            "--test-data", dataset["test"],
            "--out", str(tmp_path / "x"),
        ]
    )
    assert code == EXIT_VALIDATION


def test_train_requires_data_paths(tmp_path):
    code = main(["train", "--strategy", "st", "--out", str(tmp_path / "x")])
    assert code == EXIT_VALIDATION


def test_train_bad_strategy_rejected_by_parser(dataset, tmp_path):
    with pytest.raises(SystemExit) as err:
        main(
            [
                "train",
                "--strategy", "kd",
                "--train-data", dataset["train"],
                "--test-data", dataset["test"],
                "--out", str(tmp_path / "x"),
            ]
        )
    assert err.value.code == 2


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_train_numerical_abort_exit_code(dataset, tmp_path):
    code = main(
        [
            "train",
            "--strategy", "st",
            "--epochs", "2",
            "--lr", "1e300",
            "--train-data", dataset["train"],
            "--test-data", dataset["test"],
            "--out", str(tmp_path / "x"),
        ]
    )
    assert code == EXIT_NUMERICAL


# --- config file ---


def test_config_file_applied(dataset, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "strategy = skd\n"
        "epochs = 1\n"
        "seed = 9  # trailing comment\n"
        "\n"
        "# full-line comment\n"
        "augment = false\n"
    )
    out = tmp_path / "run"
    code = main(
        [
            "train",
            "--config", str(cfg),
            "--train-data", dataset["train"],
            "--test-data", dataset["test"],
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    blob = json.loads((out / "metrics.json").read_text())
    assert blob["config"]["strategy"] == "skd"
    assert blob["config"]["seed"] == 9
    assert blob["config"]["augment"] is False


def test_config_file_flag_override(dataset, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("strategy = st\nepochs = 1\nseed = 9\n")
    out = tmp_path / "run"
    code = main(
        [
            "train",
            "--config", str(cfg),
            "--seed", "2",
            "--train-data", dataset["train"],
            "--test-data", dataset["test"],
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    blob = json.loads((out / "metrics.json").read_text())
    assert blob["config"]["seed"] == 2  # flag wins over file
    assert blob["config"]["epochs"] == 1


def test_config_file_unknown_key(dataset, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs = 1\nmomentum = 0.9\n")
    code = main(
        [
            "train",
            "--config", str(cfg),
            "--train-data", dataset["train"],
            "--test-data", dataset["test"],
            "--out", str(tmp_path / "x"),
        ]
    )
    assert code == EXIT_VALIDATION


def test_config_file_parse_errors(tmp_path):
    bad_line = tmp_path / "a.cfg"
    bad_line.write_text("epochs\n")
    with pytest.raises(ValueError, match="key=value"):
        load_config_file(bad_line)
    for name, text, message in (
        ("b.cfg", "augment = maybe\n", "config key augment expects a boolean, got 'maybe'"),
        ("c.cfg", "strategy=skd\nepochs=abc\n", "config key epochs expects an integer, got 'abc'"),
        ("d.cfg", "# seed\n\nseed = 1.5\n", "config key seed expects an integer, got '1.5'"),
        ("e.cfg", "learning_rate=fast\n", "config key learning_rate expects a number, got 'fast'"),
    ):
        bad = tmp_path / name
        bad.write_text(text)
        line = text.count("\n")
        with pytest.raises(ValueError, match="^%s$" % re.escape("%s:%d: %s" % (bad, line, message))):
            load_config_file(bad)


# --- eval ---


def test_eval_missing_model(dataset, tmp_path):
    code = main(["eval", "--model", str(tmp_path / "nope.jgp"), "--data", dataset["test"]])
    assert code == EXIT_IO


def test_eval_garbage_model(dataset, tmp_path):
    bad = tmp_path / "bad.jgp"
    bad.write_bytes(b"not a checkpoint")
    code = main(["eval", "--model", str(bad), "--data", dataset["test"]])
    assert code == EXIT_IO


def test_eval_writes_reports(overfit_run, dataset, tmp_path):
    out = tmp_path / "ev"
    code = main(
        [
            "eval",
            "--model", os.path.join(overfit_run, "model.jgp"),
            "--data", dataset["test"],
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    blob = json.loads((out / "metrics.json").read_text())
    assert set(blob) >= {"overall_accuracy", "mean_class_accuracy", "per_class_accuracy"}
    per_class = (out / "per_class.csv").read_text().splitlines()
    rows = [ln for ln in per_class if ln and not ln.startswith("#") and "," in ln]
    assert len(rows) == 8 + 1  # header + one row per class


@pytest.mark.parametrize("n_classes", [10, 4])
def test_eval_rejects_a_model_with_another_class_count(overfit_run, dataset, tmp_path, capsys, n_classes):
    # One row per model that must fit the 8-class split: eval's model,
    # robustness' model, reference or both, correlation's model, and the
    # model train would build from --n-classes or a config file's n_classes.
    # Each must exit 2 naming both counts before it writes anything.
    bad = str(tmp_path / "model.jgp")
    save_params(bad, init_params(0, n_classes))
    config = tmp_path / "n_classes.cfg"
    config.write_text("n_classes = %d\n" % n_classes)
    good = os.path.join(overfit_run, "model.jgp")
    test, train = dataset["test"], dataset["train"]
    train_run = ["train", "--epochs", "1", "--train-data", train, "--test-data", test]
    table = {
        "eval": ("model", test, ["eval", "--model", bad, "--data", test]),
        "robustness-model": ("model", test, ["robustness", "--model", bad, "--ref", good, "--data", test]),
        "robustness-ref": ("reference", test, ["robustness", "--model", good, "--ref", bad, "--data", test]),
        "robustness-both": ("model", test, ["robustness", "--model", bad, "--ref", bad, "--data", test]),
        "correlation": (
            "model", train, ["correlation", "--model", bad, "--data", train, "--samples-per-class", str(PER_TRAIN)]
        ),
        "train-flag": ("model", train, train_run + ["--n-classes", str(n_classes)]),
        "train-config": ("model", train, train_run + ["--config", str(config)]),
    }
    failed = []
    for row, (role, data, argv) in table.items():
        out = tmp_path / row
        capsys.readouterr()
        code = main(argv + ["--out", str(out)])
        err = capsys.readouterr().err
        if code != EXIT_VALIDATION or "%s has %d classes, %s lists 8" % (role, n_classes, data) not in err or out.exists():
            failed.append((row, code, err.strip(), out.exists()))
    assert not failed, "\n".join(map(repr, failed))


@pytest.mark.parametrize("command", ["train", "eval", "robustness", "correlation"])
def test_out_that_is_a_file_is_refused_before_the_work(command, overfit_run, dataset, tmp_path, capsys, monkeypatch):
    # An --out that exists as a file exits 3 naming it, before any data or
    # model is loaded: the work itself must never be reached.
    def never(*args, **kwargs):
        raise AssertionError("%s did its work before refusing --out" % command)

    for name in ("train", "evaluate", "robustness_eval", "class_correlation"):
        monkeypatch.setattr("jgekd.training.%s" % name, never)
    model = os.path.join(overfit_run, "model.jgp")
    argv = {
        "train": ["train", "--epochs", "1", "--train-data", dataset["train"], "--test-data", dataset["test"]],
        "eval": ["eval", "--model", model, "--data", dataset["test"]],
        "robustness": ["robustness", "--model", model, "--ref", model, "--data", dataset["test"]],
        "correlation": ["correlation", "--model", model, "--data", dataset["train"]],
    }[command]
    out = tmp_path / "f"
    out.write_bytes(b"keep")
    code = main(argv + ["--out", str(out)])
    assert code == EXIT_IO
    assert "--out %s exists and is not a directory" % out in capsys.readouterr().err
    assert out.read_bytes() == b"keep"
    assert os.listdir(tmp_path) == ["f"]


def test_eval_overfit_train_at_least_test(overfit_run, dataset, tmp_path):
    # run-once sanity: a memorizing model scores at least as well on the
    # split it memorized
    scores = {}
    for split in ("train", "test"):
        out = tmp_path / split
        code = main(
            [
                "eval",
                "--model", os.path.join(overfit_run, "model.jgp"),
                "--data", dataset[split],
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        scores[split] = json.loads((out / "metrics.json").read_text())["overall_accuracy"]
    assert scores["train"] >= scores["test"]
    assert scores["train"] >= 0.5  # 40 no-augment epochs must at least half-learn 32 clouds


# --- robustness ---


def _csv_data_rows(text):
    rows = []
    for line in text.splitlines():
        if not line or line.startswith("#") or line.startswith("kind,"):
            continue
        rows.append(line.split(","))
    return rows


def test_robustness_artifacts_and_cell_count(overfit_run, dataset, tmp_path):
    model = os.path.join(overfit_run, "model.jgp")
    out = tmp_path / "rob"
    code = main(
        [
            "robustness",
            "--model", model,
            "--ref", model,
            "--data", dataset["test"],
            "--seed", "0",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    blob = json.loads((out / "robustness.json").read_text())
    assert len(blob["cells"]) == 12  # background held out by default
    assert "background" not in blob["cells"]
    assert blob["mce"] == pytest.approx(1.0)  # model is its own reference
    rows = _csv_data_rows((out / "robustness.csv").read_text())
    oa_rows = [r for r in rows if r[1] not in ("ce", "")]
    kinds_seen = {r[0] for r in oa_rows if r[0] != "mce"}
    assert len([r for r in oa_rows if r[0] in kinds_seen and r[1].isdigit()]) == 12 * 5
    assert any(r[0] == "mce" for r in rows)


def test_robustness_with_background(overfit_run, dataset, tmp_path):
    model = os.path.join(overfit_run, "model.jgp")
    out = tmp_path / "rob_bg"
    code = main(
        [
            "robustness",
            "--model", model,
            "--ref", model,
            "--data", dataset["test"],
            "--with-background",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    blob = json.loads((out / "robustness.json").read_text())
    assert len(blob["cells"]) == 13
    assert "background" in blob["cells"]
    rows = _csv_data_rows((out / "robustness.csv").read_text())
    assert len([r for r in rows if r[1].isdigit()]) == 13 * 5


def test_robustness_missing_ref(overfit_run, dataset, tmp_path):
    code = main(
        [
            "robustness",
            "--model", os.path.join(overfit_run, "model.jgp"),
            "--ref", str(tmp_path / "nope.jgp"),
            "--data", dataset["test"],
            "--out", str(tmp_path / "x"),
        ]
    )
    assert code == EXIT_IO


def test_robustness_rejects_a_reference_with_another_class_count(overfit_run, dataset, tmp_path, capsys):
    ref = tmp_path / "ref10.jgp"
    save_params(str(ref), init_params(0, 10))
    out = tmp_path / "rob"
    code = main(
        [
            "robustness",
            "--model", os.path.join(overfit_run, "model.jgp"),
            "--ref", str(ref),
            "--data", dataset["test"],
            "--out", str(out),
        ]
    )
    assert code == EXIT_VALIDATION
    assert "reference has 10 classes, %s lists 8" % dataset["test"] in capsys.readouterr().err
    assert not out.exists()


# --- correlation ---


def test_correlation_artifacts(overfit_run, dataset, tmp_path):
    out = tmp_path / "corrmat"
    code = main(
        [
            "correlation",
            "--model", os.path.join(overfit_run, "model.jgp"),
            "--data", dataset["train"],
            "--samples-per-class", str(PER_TRAIN),
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    blob = json.loads((out / "correlation.json").read_text())
    assert len(blob["class_names"]) == 8
    scores = blob["scores"]
    assert len(scores) == 8 and all(len(row) == 8 for row in scores)
    for i in range(8):
        for j in range(8):
            assert scores[i][j] == pytest.approx(scores[j][i])
    csv_rows = (out / "correlation.csv").read_text().splitlines()
    assert len([ln for ln in csv_rows if "," in ln]) >= 8


def test_correlation_too_few_samples(overfit_run, dataset, tmp_path):
    code = main(
        [
            "correlation",
            "--model", os.path.join(overfit_run, "model.jgp"),
            "--data", dataset["test"],  # only 2 per class
            "--samples-per-class", "4",
            "--out", str(tmp_path / "x"),
        ]
    )
    assert code == EXIT_VALIDATION
