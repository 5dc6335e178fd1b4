"""The three workloads: set-up, the CLI commands of one repeat, and the
checks on their outputs.

Every input comes from the workload seed. All paths are relative to the
checkout root, so artifacts (which embed their input paths) hash the same in
any checkout.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time
import traceback

from jgekd import cli, model, pointcloud
from jgekd.corruptions import BACKGROUND_EXCLUDED_KINDS, CorruptionKind, corrupt_samples
from jgekd.numerics import split_seed

SEVERITIES = 5
TRAIN_EPOCHS = 1
ROBUSTNESS_POINTS = 1024  # PointNet's ModelNet40 cloud size
ROBUSTNESS_PER_CLASS = 1
_CHECKPOINT_SLOT = 0x434B5054  # "CKPT"
_FORWARD_CHECK_SLOT = 0x46574443  # "FWDC"

# sha256 of the tree that `jgekd gen-data` writes with every flag at its
# default (seed 0); see tree_hash.
PINNED_GEN_DATA_SHA256 = "edb7324da750bb5a70fb0406e062c284ee0db35f596ec40da61ee4753cb035fc"


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def file_hashes(directory) -> dict[str, str]:
    """sha256 of every file below directory, keyed by '/'-separated path."""
    out = {}
    for base, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(base, name)
            out[os.path.relpath(path, directory).replace(os.sep, "/")] = file_sha256(path)
    return dict(sorted(out.items()))


def tree_digest(hashes: dict) -> str:
    """One sha256 over the relative paths and file hashes of a tree."""
    h = hashlib.sha256()
    for rel, digest in hashes.items():
        h.update(rel.encode("utf-8") + b"\0" + digest.encode("ascii") + b"\n")
    return h.hexdigest()


def tree_hash(directory) -> str:
    return tree_digest(file_hashes(directory))


def run_cli(argv) -> tuple[int, float, str]:
    """(exit code, wall seconds, stderr) of one in-process `jgekd` call.

    The command's own printing is kept out of the benchmark's stdout. An
    exception the CLI does not map to an exit code counts as exit code 1.
    """
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:
            rc = 1
            traceback.print_exc()
        wall = time.perf_counter() - t0
    return rc, wall, err.getvalue()


def count_entries(manifest) -> int:
    with open(manifest, "r", encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


class Ops:
    """Attempted and failed operations: CLI calls and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[dict] = []

    def check(self, name, ok, detail=None) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append({"check": name, "detail": repr(detail)[:2000]})
        return bool(ok)


class Command:
    """One CLI call of a repeat. `metric` names its throughput figure."""

    def __init__(self, metric, argv, out, items):
        self.metric = metric
        self.argv = argv
        self.out = out
        self._items = items  # a count, or a function of the output directory

    def items(self, rc) -> int:
        """Work items the call completed, given its exit code."""
        if not callable(self._items):
            return self._items
        return self._items(self.out) if rc == 0 else 0


class Workload:
    name = ""

    def setup(self, sdir, seed) -> None:
        """Build the workload's inputs under sdir (runs in its own process)."""
        os.makedirs(sdir, exist_ok=True)

    def commands(self, sdir, out, seed) -> list[Command]:
        raise NotImplementedError

    def data_dir(self, sdir, out) -> str:
        """The MiniShapes tree the workload reads or writes."""
        return os.path.join(sdir, "data")

    def params(self, sdir, out, seed):
        """Weights for the forward check: the workload's own checkpoint."""
        raise NotImplementedError

    def forward_case(self, sdir, out, seed):
        """(params, clouds) on which model.forward must match plain numpy:
        the test clouds plus density_dec copies, whose point counts differ."""
        _, samples = pointcloud.load_dataset(os.path.join(self.data_dir(sdir, out), "test.txt"))
        ragged = corrupt_samples(samples, CorruptionKind.DENSITY_DEC, 3, split_seed(seed, _FORWARD_CHECK_SLOT, 0))
        return self.params(sdir, out, seed), [s.points for s in samples + ragged]

    def check(self, sdir, out, seed, ops) -> dict:
        """Checks on the last repeat's outputs; returns reported figures."""
        return {}

    def headline_hashes(self, hashes: dict) -> dict:
        """The artifact hashes every result reports, from one repeat's."""
        raise NotImplementedError


class Train(Workload):
    name = "train"

    def setup(self, sdir, seed):
        super().setup(sdir, seed)
        # Criterion 9's data: 100 train and 30 test clouds per class, 64 points.
        if cli.main(["gen-data", "--out", self.data_dir(sdir, None), "--seed", str(seed)]) != 0:
            raise RuntimeError("gen-data failed during set-up")

    def commands(self, sdir, out, seed):
        data = self.data_dir(sdir, out)
        base = [
            "train", "--epochs", str(TRAIN_EPOCHS), "--seed", str(seed),
            "--train-data", os.path.join(data, "train.txt"),
            "--test-data", os.path.join(data, "test.txt"),
        ]
        samples = count_entries(os.path.join(data, "train.txt")) * TRAIN_EPOCHS
        cmds = []
        for strategy in ("st", "skd", "tkd"):
            argv = base + ["--strategy", strategy, "--out", os.path.join(out, strategy)]
            if strategy == "tkd":
                argv += ["--teacher", os.path.join(out, "skd", "model.jgp")]
            cmds.append(Command("train_%s_samples_per_s" % strategy, argv, os.path.join(out, strategy), samples))
        return cmds

    def params(self, sdir, out, seed):
        return model.load_params(os.path.join(out, "st", "model.jgp"))

    def check(self, sdir, out, seed, ops):
        # Reported, not gated: after one epoch OA ranges widely across seeds.
        oas = {}
        for strategy in ("st", "skd", "tkd"):
            with open(os.path.join(out, strategy, "metrics.json"), "r", encoding="utf-8") as fh:
                oas[strategy] = json.load(fh)["overall_accuracy"]
        return {"train_oa": min(oas.values()), "oa_by_strategy": oas}

    def headline_hashes(self, hashes):
        return {"%s/model.jgp" % s: hashes["train_%s_samples_per_s" % s]["model.jgp"] for s in ("st", "skd", "tkd")}


class Robustness(Workload):
    name = "robustness"

    def setup(self, sdir, seed):
        super().setup(sdir, seed)
        argv = [
            "gen-data", "--out", self.data_dir(sdir, None), "--seed", str(seed),
            "--points", str(ROBUSTNESS_POINTS),
            "--per-class-train", "1", "--per-class-test", str(ROBUSTNESS_PER_CLASS),
        ]
        if cli.main(argv) != 0:
            raise RuntimeError("gen-data failed during set-up")
        for index, name in enumerate(("model.jgp", "ref.jgp")):
            params = model.init_params(split_seed(seed, _CHECKPOINT_SLOT, index), pointcloud.NUM_CLASSES)
            model.save_params(os.path.join(sdir, name), params)

    def commands(self, sdir, out, seed):
        test = os.path.join(self.data_dir(sdir, out), "test.txt")
        argv = [
            "robustness", "--model", os.path.join(sdir, "model.jgp"),
            "--ref", os.path.join(sdir, "ref.jgp"), "--data", test,
            "--seed", str(seed), "--out", os.path.join(out, "robustness"),
        ]
        clouds = len(BACKGROUND_EXCLUDED_KINDS) * SEVERITIES * count_entries(test)
        return [Command("robustness_clouds_per_s", argv, os.path.join(out, "robustness"), clouds)]

    def params(self, sdir, out, seed):
        return model.load_params(os.path.join(sdir, "model.jgp"))

    def check(self, sdir, out, seed, ops):
        with open(os.path.join(out, "robustness", "robustness.json"), "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        oas = [
            oa
            for cell in doc["cells"].values()
            for column in ("oa_model", "oa_ref")
            for oa in cell[column].values()
        ]
        cells = sum(len(cell["oa_model"]) for cell in doc["cells"].values())
        expected = len(BACKGROUND_EXCLUDED_KINDS) * SEVERITIES
        ops.check("robustness.json holds %d cells" % expected, cells == expected, cells)
        ops.check("robustness OAs lie in [0, 1]", all(0.0 <= oa <= 1.0 for oa in oas), (min(oas), max(oas)))
        ops.check("robustness mCE is finite", math.isfinite(doc["mce"]), doc["mce"])
        return {"mce": doc["mce"]}

    def headline_hashes(self, hashes):
        return {"robustness.json": hashes["robustness_clouds_per_s"]["robustness.json"]}


class GenData(Workload):
    name = "gen-data"

    def commands(self, sdir, out, seed):
        data = self.data_dir(sdir, out)
        argv = ["gen-data", "--out", data, "--seed", str(seed)]
        return [Command("gendata_clouds_per_s", argv, data, _written_clouds)]

    def data_dir(self, sdir, out):
        return os.path.join(out, "data")

    def params(self, sdir, out, seed):
        return model.init_params(split_seed(seed, _CHECKPOINT_SLOT, 0), pointcloud.NUM_CLASSES)

    def check(self, sdir, out, seed, ops):
        # Byte-identical datasets across versions: the default command must
        # keep writing exactly the pinned tree.
        pinned = os.path.join(out, "pinned")
        rc = run_cli(["gen-data", "--out", pinned])[0]
        digest = tree_hash(pinned) if rc == 0 else None
        ops.check("default gen-data matches the pinned dataset hash", digest == PINNED_GEN_DATA_SHA256, digest)
        return {"default_dataset_sha256": digest}

    def headline_hashes(self, hashes):
        return {"dataset": tree_digest(hashes["gendata_clouds_per_s"])}


def _written_clouds(out) -> int:
    return sum(count_entries(os.path.join(out, split + ".txt")) for split in ("train", "test"))


WORKLOADS = {w.name: w for w in (Train(), Robustness(), GenData())}
