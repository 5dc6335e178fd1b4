"""Per-layer figures for the traced run.

`install` wraps each public jgekd function at the name its caller looks up
(training imports forward_nodes, compose_random and corrupt_samples by name;
cli does the same for load_dataset and save_params; apply_corruption,
generate_shape and backward are module globals). No source file changes.

A layer the workload's commands never call (backward on gen-data, say) still
gets a figure: after the traced repeats, `probe` calls every layer once on
clouds shaped like the workload's, and a metric falls back to the probe's
spans only when the workload produced none. Counts per item never fall back.
"""

from __future__ import annotations

import inspect
import os
import statistics
import time
from collections import defaultdict

import numpy as np

from jgekd import cli, corruptions, losses, model, numerics, pointcloud, training
from jgekd.corruptions import BACKGROUND_EXCLUDED_KINDS
from jgekd.numerics import LOG_FLOOR, Node, split_seed

from spans import self_times
from summary import nearest_rank, tail

KINDS = tuple(kind.value for kind in BACKGROUND_EXCLUDED_KINDS)
PROBE = "probe"
_PROBE_SLOT = 0x50524F42  # "PROB"
_PROBE_CLOUDS = 32
_TKD_EPSILON = inspect.signature(losses.jgetkd_loss).parameters["epsilon"].default

# name -> (unit, better). Order is the order of BENCHMARK.json's per_layer.
METRICS = {
    "numerics.nodes_built": ("count", "lower"),
    "numerics.backward_us": ("us", "lower"),
    "numerics.rng_draws": ("count", "lower"),
    "numerics.uniform_ns": ("ns", "lower"),
    "numerics.normal_ns": ("ns", "lower"),
    "model.forward_nodes_us": ("us", "lower"),
    "model.forward_us": ("us", "lower"),
    "model.numpy_floor_us": ("us", "lower"),
    "model.points_per_forward": ("count", "lower"),
    "losses.ce_us": ("us", "lower"),
    "losses.kd_us": ("us", "lower"),
    "losses.kd_clamped_fraction": ("fraction", "lower"),
    "losses.kd_calls": ("count", "lower"),
    "corruptions.compose_random_us": ("us", "lower"),
    **{"corruptions.%s_us" % kind: ("us", "lower") for kind in KINDS},
    "pointcloud.generate_shape_us": ("us", "lower"),
    "pointcloud.save_cloud_us": ("us", "lower"),
    "pointcloud.bytes_written": ("bytes", "lower"),
    "pointcloud.load_dataset_ms": ("ms", "lower"),
    "training.adam_step_us": ("us", "lower"),
    "training.batch_ms_p50": ("ms", "lower"),
    "training.batch_ms_tail": ("ms", "lower"),
    "training.loop_self_us": ("us", "lower"),
    "training.evaluate_us": ("us", "lower"),
    "cli.self_ms": ("ms", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


# -- what each span records besides its times -------------------------------


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _value(x) -> np.ndarray:
    return x.value if isinstance(x, Node) else np.asarray(x, dtype=np.float64)


def _train_steps(args, kwargs, result):
    config = _arg(args, kwargs, 0, "config")
    return len(_arg(args, kwargs, 1, "train_samples")) * config.epochs, None


def _clouds(args, kwargs, result):
    return len(_arg(args, kwargs, 1, "samples")), None


def _points(args, kwargs, result):
    return len(_arg(args, kwargs, 1, "cloud")), None


def _kind(args, kwargs, result):
    kind = _arg(args, kwargs, 1, "kind")
    return None, getattr(kind, "value", kind)


def _bytes(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 0, "path")), None


# The O(N) fast-path test for the joint-graph losses: no entry of the target
# graph falls under the log clamp.
def _skd_clamped(args, kwargs, result):
    p_prime = _value(_arg(args, kwargs, 1, "p_prime"))
    return None, bool(np.min(p_prime) ** 2 < LOG_FLOOR)


def _tkd_clamped(args, kwargs, result):
    q = _arg(args, kwargs, 2, "q")
    epsilon = _arg(args, kwargs, 4, "epsilon", _TKD_EPSILON)
    p_teacher = _value(_arg(args, kwargs, 3, "p_teacher"))
    q_smooth = losses.smooth_labels(q, epsilon)
    return None, bool(np.min(q_smooth) * np.min(p_teacher) < LOG_FLOOR)


def install(t) -> None:
    """Wrap every traced jgekd name on tracer t."""
    t.patch(cli, "main", t.span("cli.main", command=True))
    t.patch(cli, "load_dataset", t.span("pointcloud.load_dataset"))
    t.patch(cli, "save_params", t.span("model.save_params"))
    t.patch(cli, "generate_minishapes", t.span("pointcloud.generate_minishapes"))
    t.patch(pointcloud, "generate_shape", t.span("pointcloud.generate_shape"))
    t.patch(pointcloud, "save_cloud", t.span("pointcloud.save_cloud", _bytes))
    t.patch(training, "train", t.span("training.train", _train_steps))
    t.patch(training, "robustness_eval", t.span("training.robustness_eval"))
    t.patch(training, "evaluate", t.span("training.evaluate", _clouds))
    t.patch(training, "forward", t.span("model.forward", _points))
    t.patch(training, "forward_nodes", t.span("model.forward_nodes"))
    t.patch(training, "compose_random", t.span("corruptions.compose_random"))
    t.patch(training, "corrupt_samples", t.span("corruptions.corrupt_samples"))
    t.patch(training.AdamState, "step", t.span("training.adam_step"))
    t.patch(corruptions, "apply_corruption", t.span("corruptions.apply_corruption", _kind))
    t.patch(losses, "cross_entropy_smoothed", t.span("losses.ce"))
    t.patch(losses, "jgeskd_loss", t.span("losses.kd", _skd_clamped))
    t.patch(losses, "jgetkd_loss", t.span("losses.kd", _tkd_clamped))
    t.patch(numerics, "backward", t.span("numerics.backward"))
    t.patch(numerics.Node, "__init__", t.counter("nodes"))
    t.patch(numerics.Rng, "next_u32", t.counter("rng_draws"))
    t.patch(numerics.Rng, "uniforms", t.per_value("uniforms"))
    t.patch(numerics.Rng, "normals", t.per_value("normals"))


# -- probe -------------------------------------------------------------------


def probe(tracer, manifest, seed, work_dir) -> None:
    """Call every traced layer on clouds shaped like the workload's."""
    tracer.cmd = PROBE
    try:
        _, samples = cli.load_dataset(manifest)
        stride = max(1, len(samples) // _PROBE_CLOUDS)
        subset = samples[::stride][:_PROBE_CLOUDS]
        n_points = len(subset[0].points)
        params = model.init_params(split_seed(seed, _PROBE_SLOT, 0), pointcloud.NUM_CLASSES)
        training.evaluate(params, subset)
        config = training.TrainConfig(
            strategy="skd", epochs=2, seed=seed, n_classes=pointcloud.NUM_CLASSES
        )
        training.train(config, subset, subset)
        for k, kind in enumerate(BACKGROUND_EXCLUDED_KINDS):
            for j, sample in enumerate(subset[:8]):
                rng = numerics.Rng(split_seed(seed, _PROBE_SLOT + 1 + k, j))
                corruptions.apply_corruption(sample.points, kind, 3, rng)
        rng = numerics.Rng(split_seed(seed, _PROBE_SLOT, 1))
        rng.uniforms(3 * n_points)
        rng.normals(3 * n_points)
        os.makedirs(work_dir, exist_ok=True)
        for class_id in range(pointcloud.NUM_CLASSES):
            cloud = pointcloud.generate_shape(class_id, n_points, split_seed(seed, _PROBE_SLOT + 2, class_id))
            pointcloud.save_cloud(os.path.join(work_dir, "%d.pcb" % class_id), cloud.points)
    finally:
        tracer.cmd = None


# -- plain numpy classifier ---------------------------------------------------


def numpy_forward(params, clouds) -> list[np.ndarray]:
    """Class probabilities for each cloud, batching clouds of equal size."""
    groups = defaultdict(list)
    for i, cloud in enumerate(clouds):
        groups[len(cloud)].append(i)
    out = [None] * len(clouds)
    for index in groups.values():
        x = np.stack([clouds[i] for i in index])
        h1 = np.maximum(x @ params.w1 + params.b1, 0.0)
        h2 = np.maximum(h1 @ params.w2 + params.b2, 0.0)
        h3 = np.maximum(h2.max(axis=1) @ params.w3 + params.b3, 0.0)
        logits = h3 @ params.w4 + params.b4
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        for row, i in enumerate(index):
            out[i] = probs[row]
    return out


def forward_agreement(params, clouds) -> tuple[bool, float]:
    """model.forward against numpy_forward: same argmax everywhere and
    probabilities within 1e-12. Returns (agrees, largest difference)."""
    reference = numpy_forward(params, clouds)
    worst = 0.0
    same_argmax = True
    for cloud, ref in zip(clouds, reference):
        probs = model.forward(params, cloud).probs
        worst = max(worst, float(np.max(np.abs(probs - ref))))
        same_argmax &= int(np.argmax(probs)) == int(np.argmax(ref))
    return same_argmax and worst <= 1e-12, worst


def numpy_floor_us(params, clouds, min_seconds=0.2) -> float:
    """Median time per cloud of numpy_forward over repeated batches."""
    times = []
    start = time.perf_counter()
    while len(times) < 3 or time.perf_counter() - start < min_seconds:
        t0 = time.perf_counter_ns()
        numpy_forward(params, clouds)
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times) / len(clouds) / 1e3


# -- metrics -----------------------------------------------------------------


def _batch_ms(spans, train_ids) -> list[float]:
    """Per batch: from the end of the previous Adam step (for the first
    batch, the start of the first branch forward) to the end of this step."""
    out = []
    mark = {}
    for rec in spans:
        if rec.parent not in train_ids:
            continue
        if rec.name == "model.forward_nodes" and rec.parent not in mark:
            mark[rec.parent] = rec.start
        elif rec.name == "training.adam_step" and rec.parent in mark:
            out.append((rec.end - mark[rec.parent]) / 1e6)
            mark[rec.parent] = rec.end
    return out


def layer_metrics(tracer, work_counts, items, overhead_ratio, floor_us) -> tuple[dict, dict]:
    """(metrics, source of each metric). work_counts is the tracer snapshot
    taken when the traced repeats ended; items is their total item count."""
    spans = tracer.spans
    selfs = self_times(spans)
    by_phase = {False: defaultdict(list), True: defaultdict(list)}
    for rec in spans:
        name = rec.name
        if name == "corruptions.apply_corruption":
            name = "corruptions.%s_us" % rec.tag
        by_phase[rec.cmd == PROBE][name].append(rec)

    metrics, source = {}, {}

    def pick(name):
        if by_phase[False][name]:
            return by_phase[False][name], "workload"
        return by_phase[True][name], PROBE

    def timed(metric, name, scale, use_self=False, per_size=False):
        """Mean duration (or self time) per call, or per unit of span size."""
        recs, src = pick(name)
        total = sum(selfs[r.id] if use_self else r.end - r.start for r in recs)
        base = sum(r.size for r in recs) if per_size else len(recs)
        metrics[metric] = total / base / scale
        source[metric] = "%s (%d calls%s)" % (src, len(recs), ", %d units" % base if per_size else "")

    counts = work_counts["counts"]
    metrics["numerics.nodes_built"] = counts.get("nodes", 0) / items
    metrics["numerics.rng_draws"] = counts.get("rng_draws", 0) / items
    source["numerics.nodes_built"] = source["numerics.rng_draws"] = "workload (per item, %d items)" % items
    timed("numerics.backward_us", "numerics.backward", 1e3, use_self=True)
    for metric, key in (("numerics.uniform_ns", "uniforms"), ("numerics.normal_ns", "normals")):
        values, ns = work = work_counts["values"].get(key, (0, 0))
        src = "workload"
        if values == 0:
            values, ns = [total - w for total, w in zip(tracer.values[key], work)]
            src = PROBE
        metrics[metric] = ns / values
        source[metric] = "%s (%d values)" % (src, values)

    timed("model.forward_nodes_us", "model.forward_nodes", 1e3)
    timed("model.forward_us", "model.forward", 1e3)
    metrics["model.numpy_floor_us"] = floor_us
    source["model.numpy_floor_us"] = "benchmark (forward-check clouds)"
    recs, src = pick("model.forward")
    metrics["model.points_per_forward"] = sum(r.size for r in recs) / len(recs)
    source["model.points_per_forward"] = "%s (%d calls)" % (src, len(recs))

    timed("losses.ce_us", "losses.ce", 1e3)
    timed("losses.kd_us", "losses.kd", 1e3)
    recs, src = pick("losses.kd")
    metrics["losses.kd_clamped_fraction"] = sum(r.tag for r in recs) / len(recs)
    metrics["losses.kd_calls"] = len(recs)
    source["losses.kd_clamped_fraction"] = source["losses.kd_calls"] = src

    timed("corruptions.compose_random_us", "corruptions.compose_random", 1e3)
    for kind in KINDS:
        timed("corruptions.%s_us" % kind, "corruptions.%s_us" % kind, 1e3)

    timed("pointcloud.generate_shape_us", "pointcloud.generate_shape", 1e3)
    timed("pointcloud.save_cloud_us", "pointcloud.save_cloud", 1e3)
    metrics["pointcloud.bytes_written"] = sum(r.size for r in by_phase[False]["pointcloud.save_cloud"]) / items
    source["pointcloud.bytes_written"] = "workload (per item, %d items)" % items
    timed("pointcloud.load_dataset_ms", "pointcloud.load_dataset", 1e6)

    timed("training.adam_step_us", "training.adam_step", 1e3)
    recs, src = pick("training.train")
    batches = _batch_ms(spans, {r.id for r in recs})
    percentile, value = tail(batches)
    metrics["training.batch_ms_p50"] = nearest_rank(batches, 50.0)
    metrics["training.batch_ms_tail"] = value
    source["training.batch_ms_p50"] = "%s (%d batches)" % (src, len(batches))
    source["training.batch_ms_tail"] = "%s (p%g of %d batches)" % (src, percentile, len(batches))
    timed("training.loop_self_us", "training.train", 1e3, use_self=True, per_size=True)
    timed("training.evaluate_us", "training.evaluate", 1e3, per_size=True)

    timed("cli.self_ms", "cli.main", 1e6, use_self=True)
    metrics["trace.overhead_ratio"] = overhead_ratio
    source["trace.overhead_ratio"] = "median over pairs of traced / untraced repeat wall"
    return {name: metrics[name] for name in METRICS}, source
