"""Training strategies, evaluation metrics, the severity-sweep robustness
harness, and the class-correlation analysis.

Three strategies share one loop:
  st   supervised cross entropy (two branches averaged when augmenting)
  skd  adds self-distillation between the clean and corrupted branch graphs
  tkd  adds teacher distillation against a frozen checkpoint's predictions

Everything is a pure function of (config, data, seed): shuffles, corruption
draws, and parameter init all run on split seeds, so per-sample work is
independent of iteration order and reruns are bit-identical.
"""

from __future__ import annotations

import json
import math
import os
import pickle
from dataclasses import asdict, dataclass, field

import numpy as np

from . import losses, numerics as ng
from .corruptions import (
    BACKGROUND_EXCLUDED_KINDS,
    SEVERITIES,
    CorruptionKind,
    compose_random,
    corrupt_samples,
)
from .model import ModelParams, PARAM_KEYS, forward, forward_nodes, init_params, load_params, param_leaves
from .numerics import Rng, check_count, split_seed
from .pointcloud import LabeledCloud, normalize_unit_sphere

BATCH_SIZE = 16
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

STRATEGIES = ("st", "skd", "tkd")

# Stream slots far above any dataset index, so per-sample corruption streams
# never collide with the bookkeeping streams.
_SHUFFLE_SLOT = 0x53485546  # "SHUF"
_INIT_SLOT = 0x494E4954  # "INIT"


class NumericalError(RuntimeError):
    """Training produced a non-finite loss."""


@dataclass
class TrainConfig:
    strategy: str = "st"
    epochs: int = 200
    learning_rate: float = 1e-3
    alpha: float = 1.0
    beta: float = 1.0
    epsilon: float = 0.1
    seed: int = 0
    detach_target: bool = False
    augment: bool = True
    teacher_checkpoint: str | None = None
    train_data: str | None = None
    test_data: str | None = None
    n_classes: int | None = None

    def validate(self):
        if self.strategy not in STRATEGIES:
            raise ValueError("strategy must be one of %s, got %r" % (", ".join(STRATEGIES), self.strategy))
        check_count(self.epochs, "epochs", 1)
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError("learning rate must be positive and finite, got %r" % self.learning_rate)
        if not all(math.isfinite(w) and w >= 0.0 for w in (self.alpha, self.beta)):
            raise ValueError("alpha and beta must be nonnegative and finite")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError("epsilon must be in [0, 1)")
        if self.strategy == "tkd" and not self.teacher_checkpoint:
            raise ValueError("tkd needs a teacher checkpoint")
        if self.n_classes is not None:
            check_count(self.n_classes, "n_classes", 2)

    def to_dict(self) -> dict:
        return asdict(self)


class AdamState:
    """Per-block first/second moments with bias-corrected updates."""

    def __init__(self, params: ModelParams):
        self.m = {key: np.zeros_like(arr) for key, arr in params.blocks().items()}
        self.v = {key: np.zeros_like(arr) for key, arr in params.blocks().items()}
        self.step_count = 0

    def step(self, params: ModelParams, grads: dict[str, np.ndarray], lr: float):
        self.step_count += 1
        correction1 = 1.0 - ADAM_BETA1 ** self.step_count
        correction2 = 1.0 - ADAM_BETA2 ** self.step_count
        for key in PARAM_KEYS:
            g = grads[key]
            self.m[key] = ADAM_BETA1 * self.m[key] + (1.0 - ADAM_BETA1) * g
            self.v[key] = ADAM_BETA2 * self.v[key] + (1.0 - ADAM_BETA2) * g * g
            m_hat = self.m[key] / correction1
            v_hat = self.v[key] / correction2
            getattr(params, key)[...] -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


@dataclass
class MetricsReport:
    overall_accuracy: float
    mean_class_accuracy: float
    per_class_accuracy: list[float]
    loss_history: list[float] = field(default_factory=list)

    def to_dict(self) -> dict:
        per_class = [None if np.isnan(a) else a for a in self.per_class_accuracy]
        return {
            "overall_accuracy": self.overall_accuracy,
            "mean_class_accuracy": self.mean_class_accuracy,
            "per_class_accuracy": per_class,
            "loss_history": list(self.loss_history),
        }


@dataclass
class RobustnessTable:
    kinds: list[CorruptionKind]
    severities: list[int]
    oa_model: dict[CorruptionKind, dict[int, float]]
    oa_ref: dict[CorruptionKind, dict[int, float]]
    ce: dict[CorruptionKind, float]
    mce: float

    def to_dict(self) -> dict:
        return {
            "severities": list(self.severities),
            "cells": {
                kind.value: {
                    "oa_model": {str(s): self.oa_model[kind][s] for s in self.severities},
                    "oa_ref": {str(s): self.oa_ref[kind][s] for s in self.severities},
                    "ce": self.ce[kind],
                }
                for kind in self.kinds
            },
            "mce": self.mce,
        }


def _one_hot(label: int, n_classes: int) -> np.ndarray:
    q = np.zeros(n_classes)
    q[label] = 1.0
    return q


def _stack(clouds) -> tuple[ng.Node, list[int]]:
    """A leaf over the clouds stacked into one (sum P, 3) array, and the
    segment offsets that split it back into clouds."""
    offsets = [0]
    for cloud in clouds:
        offsets.append(offsets[-1] + len(cloud))
    return ng.leaf(np.concatenate(clouds)), offsets


def _batch_grads(params, samples, batch, epoch, config, n_classes, teacher_probs):
    """Per-sample losses and summed parameter gradients of one minibatch.

    One graph covers the batch: each parameter leaf is broadcast to one
    gradient row per sample, the losses come out as one row per sample and
    backward runs once. The rows and their sum are what a loop of
    per-sample graphs would give, bit for bit. Returning drops the graph,
    so it is gone before the next batch builds its own.
    """
    clean = [samples[i].points for i in batch]
    q = np.stack([_one_hot(samples[i].label, n_classes) for i in batch])
    leaves = param_leaves(params)
    rows = {key: ng.broadcast(leaf, len(batch)) for key, leaf in leaves.items()}
    clean_points, offsets = _stack(clean)
    _, p_clean, _ = forward_nodes(rows, clean_points, offsets)
    ce_clean = losses.cross_entropy_smoothed(p_clean, q, config.epsilon)

    if config.strategy == "st" and not config.augment:
        loss = losses.total_loss(ce_clean, ng.leaf(np.zeros(len(batch))), config.alpha, config.beta)
    else:
        if config.augment:
            corrupted = [
                compose_random(points, Rng(split_seed(config.seed, epoch, i)))[0]
                for points, i in zip(clean, batch)
            ]
            prime_points, prime_offsets = _stack(corrupted)
        else:
            # the siamese twin degenerates to the clean cloud
            prime_points, prime_offsets = clean_points, offsets
        _, p_prime, _ = forward_nodes(rows, prime_points, prime_offsets)
        ce = ng.add(
            ng.scale(ce_clean, 0.5),
            ng.scale(losses.cross_entropy_smoothed(p_prime, q, config.epsilon), 0.5),
        )
        if config.strategy == "st":
            kd = ng.leaf(np.zeros(len(batch)))
        elif config.strategy == "skd":
            kd = losses.jgeskd_loss(p_clean, p_prime, config.detach_target)
        else:
            p_teacher = np.stack([teacher_probs[i] for i in batch])
            kd = losses.jgetkd_loss(p_clean, p_prime, q, p_teacher, config.epsilon)
        loss = losses.total_loss(ce, kd, config.alpha, config.beta)

    values = loss.value.tolist()
    for ds_index, value in zip(batch, values):
        if not math.isfinite(value):
            raise NumericalError(
                "non-finite loss %r at epoch %d, sample %d (%s)"
                % (value, epoch, ds_index, config.strategy)
            )
    ng.backward(ng.reduce_sum(loss))
    return values, {key: leaf.adjoint for key, leaf in leaves.items()}


def train(config: TrainConfig, train_samples, test_samples) -> tuple[ModelParams, MetricsReport]:
    """Run one training job; returns final parameters and the test report."""
    config.validate()
    if not train_samples or not test_samples:
        raise ValueError("train and test splits must be non-empty")

    labels = [check_count(s.label, "label") for split in (train_samples, test_samples) for s in split]
    n_classes = config.n_classes or max(labels) + 1
    if n_classes < 2:
        raise ValueError("need at least 2 classes in the data")
    if max(labels) >= n_classes:
        raise ValueError(
            "labels %d..%d fall outside the %d configured classes" % (min(labels), max(labels), n_classes)
        )

    samples = [
        LabeledCloud(normalize_unit_sphere(s.points), s.label) for s in train_samples
    ]

    teacher_probs = None
    if config.strategy == "tkd":
        teacher = load_params(config.teacher_checkpoint)
        if teacher.n_classes != n_classes:
            raise ValueError(
                "teacher has %d classes, data has %d" % (teacher.n_classes, n_classes)
            )
        # The teacher is frozen and sees only the clean clouds, so its
        # predictions can be computed once up front.
        teacher_probs = [forward(teacher, s.points).probs for s in samples]

    params = init_params(split_seed(config.seed, _INIT_SLOT, 0), n_classes)
    adam = AdamState(params)
    history = []

    n = len(samples)
    for epoch in range(config.epochs):
        order = Rng(split_seed(config.seed, epoch, _SHUFFLE_SLOT)).permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, BATCH_SIZE):
            batch = order[start : start + BATCH_SIZE]
            values, grads = _batch_grads(params, samples, batch, epoch, config, n_classes, teacher_probs)
            for value in values:
                epoch_loss += value
            for key in PARAM_KEYS:
                grads[key] /= len(batch)
            adam.step(params, grads, config.learning_rate)
        history.append(epoch_loss / n)

    report = evaluate(params, test_samples)
    report.loss_history = history
    return params, report


def metrics_from_predictions(labels, predictions, n_classes: int) -> MetricsReport:
    """OA and per-class recalls from aligned label/prediction lists.

    Overall accuracy weights classes by their sample counts; mean class
    accuracy weights them equally. Classes absent from the data get nan and
    are left out of the mean.
    """
    if len(labels) != len(predictions) or not labels:
        raise ValueError("need matching non-empty label and prediction lists")
    correct = np.zeros(n_classes)
    totals = np.zeros(n_classes)
    for label, pred in zip(labels, predictions):
        label = check_count(label, "label", 0, n_classes - 1)
        totals[label] += 1
        correct[label] += pred == label
    present = totals > 0
    per_class = np.full(n_classes, np.nan)
    per_class[present] = correct[present] / totals[present]
    return MetricsReport(
        overall_accuracy=float(correct.sum() / totals.sum()),
        mean_class_accuracy=float(np.nanmean(per_class)),
        per_class_accuracy=[float(a) for a in per_class],
    )


def evaluate(params: ModelParams, samples) -> MetricsReport:
    """Accuracy metrics with argmax predictions; ties go to the lowest class.

    Clouds are consumed exactly as given: corrupted evaluation sets must not
    be re-normalized, the shift is the point.
    """
    if not samples:
        raise ValueError("cannot evaluate on an empty dataset")
    labels = [s.label for s in samples]
    predictions = [int(np.argmax(forward(params, s.points).probs)) for s in samples]
    return metrics_from_predictions(labels, predictions, params.n_classes)


def corruption_error(oa_model_cells, oa_ref_cells) -> float:
    """Error of the model relative to the reference, summed over severities.

    Equal error sums give exactly 1.0 (covering the self-reference case);
    a perfect reference with an imperfect model gives infinity.
    """
    num = sum(1.0 - oa for oa in oa_model_cells)
    den = sum(1.0 - oa for oa in oa_ref_cells)
    if num == den:
        return 1.0
    if den == 0.0:
        return float("inf")
    return num / den


def build_robustness_table(kinds, severities, oa_model, oa_ref) -> RobustnessTable:
    ce = {
        kind: corruption_error(
            [oa_model[kind][s] for s in severities],
            [oa_ref[kind][s] for s in severities],
        )
        for kind in kinds
    }
    mce = float(np.mean([ce[kind] for kind in kinds]))
    return RobustnessTable(list(kinds), list(severities), oa_model, oa_ref, ce, mce)


def robustness_eval(
    params: ModelParams,
    ref_params: ModelParams,
    samples,
    seed: int,
    kinds=None,
    severities=SEVERITIES,
) -> RobustnessTable:
    """Severity sweep: corrupt the set once per cell, evaluate both models on
    identical data, and report per-kind corruption error plus its mean.

    OpenBLAS runs one thread throughout. Where the host has a second CPU and
    fork, the cells are split between two processes (_split_cells); the
    table is the same bytes either way.
    """
    if params.n_classes != ref_params.n_classes:
        raise ValueError("model has %d classes, reference has %d" % (params.n_classes, ref_params.n_classes))
    kinds = tuple(BACKGROUND_EXCLUDED_KINDS if kinds is None else kinds)
    severities = tuple(severities)
    if not kinds or not severities:
        raise ValueError("a robustness sweep needs at least one kind and one severity")
    base = [LabeledCloud(normalize_unit_sphere(s.points), s.label) for s in samples]

    def run_cell(cell):
        kind, severity = cell
        corrupted = corrupt_samples(base, kind, severity, seed)
        model_oa = evaluate(params, corrupted).overall_accuracy
        ref_oa = evaluate(ref_params, corrupted).overall_accuracy
        return kind, severity, model_oa, ref_oa

    cells = [(kind, severity) for kind in kinds for severity in severities]
    with ng.blas_threads(1) as pinned:
        if pinned and len(cells) > 1 and hasattr(os, "fork") and _usable_cpus() > 1:
            results = _split_cells(run_cell, cells)
        else:
            results = [run_cell(cell) for cell in cells]
    oa_model: dict = {kind: {} for kind in kinds}
    oa_ref: dict = {kind: {} for kind in kinds}
    for kind, severity, model_oa, ref_oa in results:
        oa_model[kind][severity] = model_oa
        oa_ref[kind][severity] = ref_oa
    return build_robustness_table(kinds, severities, oa_model, oa_ref)


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _split_cells(run_cell, cells) -> list:
    """[run_cell(c) for c in cells] with cells[1::2] run in one forked child.

    The parent runs cells[0::2] meanwhile. Interleaving balances the two,
    since one kind's corruption can cost 40 times another's. Each cell is a
    pure function of its inputs, so where it runs changes no bit. The child
    pickles its results (or its exception) through a pipe and leaves by
    os._exit, so it runs none of the parent's exit handlers. The parent
    reaps the child on every path and kills it first when its own cells
    raise.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(_child_payload(run_cell, cells[1::2]))
        finally:
            os._exit(0)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            mine = [run_cell(cell) for cell in cells[0::2]]
            payload = pipe.read()
    except BaseException:
        import signal  # not loaded at start-up, and only this path needs it

        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status = os.waitpid(pid, 0)
    if not payload:
        raise RuntimeError("the sweep's child process ended (wait status %d) without sending its cells" % status)
    ok, theirs = pickle.loads(payload)
    if not ok:
        if isinstance(theirs, BaseException):
            raise theirs
        raise RuntimeError("%s in the sweep's child process: %s" % theirs)
    results = [None] * len(cells)
    results[0::2] = mine
    results[1::2] = theirs
    return results


def _child_payload(run_cell, cells) -> bytes:
    """The pickled (True, results) of the child's cells, or (False, error):
    the exception itself where it survives a pickle round trip, else its
    type name and message."""
    try:
        return pickle.dumps((True, [run_cell(cell) for cell in cells]))
    except Exception as exc:
        try:
            payload = pickle.dumps((False, exc))
            pickle.loads(payload)
            return payload
        except Exception:
            return pickle.dumps((False, (type(exc).__name__, str(exc))))


def welch_t(a, b) -> float:
    """Two-sample t statistic with unequal variances (ddof=1)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    var_term = a.var(ddof=1) / a.size + b.var(ddof=1) / b.size
    diff = a.mean() - b.mean()
    if var_term == 0.0:
        return 0.0 if diff == 0.0 else float("inf")
    return float(diff / np.sqrt(var_term))


def correlation_matrix(features_by_class) -> np.ndarray:
    """Fraction of embedding dimensions with |t| < 1.96 per class pair.

    High scores mean the two classes' embeddings are statistically hard to
    tell apart. The diagonal compares each class's first half against its
    second half, so a healthy model scores high there.
    """
    n = len(features_by_class)
    scores = np.zeros((n, n))
    for i in range(n):
        half = features_by_class[i].shape[0] // 2
        scores[i, i] = _insignificant_fraction(
            features_by_class[i][:half], features_by_class[i][half:]
        )
        for j in range(i + 1, n):
            scores[i, j] = scores[j, i] = _insignificant_fraction(
                features_by_class[i], features_by_class[j]
            )
    return scores


def _insignificant_fraction(feats_a, feats_b) -> float:
    dims = feats_a.shape[1]
    hits = 0
    for d in range(dims):
        if abs(welch_t(feats_a[:, d], feats_b[:, d])) < 1.96:
            hits += 1
    return hits / dims


def class_correlation(params: ModelParams, samples, samples_per_class: int = 20) -> np.ndarray:
    """Embedding-similarity score matrix over class pairs."""
    # Each class's features are split into halves of at least 2 rows.
    samples_per_class = check_count(samples_per_class, "samples_per_class", 4)
    n_classes = params.n_classes
    grouped: list[list[np.ndarray]] = [[] for _ in range(n_classes)]
    for sample in samples:
        label = check_count(sample.label, "label", 0, n_classes - 1)
        if len(grouped[label]) < samples_per_class:
            grouped[label].append(forward(params, sample.points).embedding)
    for class_id, feats in enumerate(grouped):
        if len(feats) < samples_per_class:
            raise ValueError(
                "class %d has %d samples, need %d" % (class_id, len(feats), samples_per_class)
            )
    return correlation_matrix([np.stack(feats) for feats in grouped])


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _json_report(doc: dict, config: dict | None) -> str:
    """doc with its config embedded, as sorted, indented JSON text."""
    if config is not None:
        doc["config"] = config
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def metrics_json(report: MetricsReport, config: dict | None = None) -> str:
    return _json_report(report.to_dict(), config)


def robustness_json(table: RobustnessTable, config: dict | None = None) -> str:
    return _json_report(table.to_dict(), config)


def _config_comments(config: dict | None) -> list[str]:
    if not config:
        return []
    return ["# %s=%r" % (key, config[key]) for key in sorted(config)]


def robustness_csv(table: RobustnessTable, config: dict | None = None) -> str:
    lines = _config_comments(config)
    lines.append("kind,severity,oa_model,oa_ref")
    for kind in table.kinds:
        for severity in table.severities:
            lines.append(
                "%s,%d,%.6f,%.6f"
                % (kind.value, severity, table.oa_model[kind][severity], table.oa_ref[kind][severity])
            )
    lines.append("kind,ce,,")
    for kind in table.kinds:
        lines.append("%s,%.6f,," % (kind.value, table.ce[kind]))
    lines.append("mce,%.6f,," % table.mce)
    return "\n".join(lines) + "\n"


def history_csv(report: MetricsReport, config: dict | None = None) -> str:
    lines = _config_comments(config)
    lines.append("epoch,loss")
    for epoch, loss in enumerate(report.loss_history):
        lines.append("%d,%.10f" % (epoch, loss))
    return "\n".join(lines) + "\n"


def per_class_csv(report: MetricsReport, class_names=None) -> str:
    lines = ["class,accuracy"]
    for class_id, acc in enumerate(report.per_class_accuracy):
        name = class_names[class_id] if class_names else str(class_id)
        lines.append("%s,%s" % (name, "" if np.isnan(acc) else "%.6f" % acc))
    return "\n".join(lines) + "\n"


def correlation_json(matrix: np.ndarray, class_names, config: dict | None = None) -> str:
    doc = {"class_names": list(class_names), "scores": [[float(v) for v in row] for row in matrix]}
    return _json_report(doc, config)


def correlation_csv(matrix: np.ndarray, class_names) -> str:
    lines = ["class," + ",".join(class_names)]
    for class_id, row in enumerate(matrix):
        lines.append(class_names[class_id] + "," + ",".join("%.4f" % v for v in row))
    return "\n".join(lines) + "\n"
