"""Tests of the benchmark's own arithmetic and of its tracing wrappers.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import os
import statistics
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import layers  # noqa: E402
from calibrate import REF_ROUND_S, ref_seconds  # noqa: E402
from spans import Span, Tracer, covered, restored, self_times  # noqa: E402
from summary import nearest_rank, quartiles, samples_beyond, summarize, tail  # noqa: E402


def test_nearest_rank_and_samples_beyond():
    values = list(range(1, 101))
    assert nearest_rank(values, 50) == 50
    assert nearest_rank(values, 90) == 90
    assert nearest_rank(values, 99.9) == 100
    assert nearest_rank([7.0], 99) == 7.0
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(1000, 99.9) == 1
    assert samples_beyond(150, 95) == 7


@pytest.mark.parametrize(
    "n, percentile",
    [(19, 50.0), (20, 50.0), (39, 50.0), (40, 75.0), (150, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, percentile):
    values = [float(v) for v in range(n, 0, -1)]  # order must not matter
    got, value = tail(values)
    assert got == percentile
    assert value == nearest_rank(values, percentile)
    if percentile > 50.0:
        assert samples_beyond(n, percentile) >= 10


def test_quartiles_follow_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, q3)
    assert quartiles([2.5]) == (2.5, 2.5)
    s = summarize(values)
    assert s == {"median": statistics.median(values), "q1": q1, "q3": q3, "n": 10}


def test_ref_seconds_divides_out_machine_speed():
    assert ref_seconds(2.0, REF_ROUND_S, REF_ROUND_S) == pytest.approx(2.0)
    # A host twice as slow doubles the command and the rounds alike.
    assert ref_seconds(4.0, 2 * REF_ROUND_S, 2 * REF_ROUND_S) == pytest.approx(2.0)
    # Speed measured before and after the command is averaged geometrically.
    assert ref_seconds(3.0, REF_ROUND_S, 4 * REF_ROUND_S) == pytest.approx(1.5)


def test_covered_merges_overlapping_children():
    assert covered([(10, 30), (20, 40)], 0, 100) == 30
    assert covered([(20, 40), (10, 30), (50, 60)], 0, 100) == 40
    assert covered([(-5, 10), (90, 120)], 0, 100) == 20  # clipped to the parent
    assert covered([(10, 50), (20, 30)], 0, 100) == 40  # nested inside a sibling
    assert covered([], 0, 100) == 0


def test_self_time_with_nested_spans():
    # apply_corruption inside compose_random inside train, plus a forward.
    spans = [
        Span(0, -1, 0, "training.train", 0, 100),
        Span(1, 0, 0, "corruptions.compose_random", 10, 40),
        Span(2, 1, 0, "corruptions.apply_corruption", 15, 25),
        Span(3, 1, 0, "corruptions.apply_corruption", 30, 38),
        Span(4, 0, 0, "model.forward_nodes", 50, 70),
    ]
    assert self_times(spans) == [50, 12, 10, 8, 20]


def test_tracer_records_parents_and_command_ids():
    calls = []
    ns = types.SimpleNamespace()
    ns.inner = lambda x: calls.append(x) or x
    ns.outer = lambda x: ns.inner(x) + ns.inner(x)
    ns.main = lambda x: ns.outer(x)
    tracer = Tracer()
    tracer.patch(ns, "main", tracer.span("cli.main", command=True))
    tracer.patch(ns, "outer", tracer.span("outer", lambda a, k, r: (r, None)))
    tracer.patch(ns, "inner", tracer.span("inner"))
    assert ns.main(2) == 4
    assert ns.main(3) == 6
    ids = [(s.name, s.parent, s.cmd) for s in tracer.spans]
    assert ids == [
        ("cli.main", -1, 0), ("outer", 0, 0), ("inner", 1, 0), ("inner", 1, 0),
        ("cli.main", -1, 1), ("outer", 4, 1), ("inner", 5, 1), ("inner", 5, 1),
    ]
    assert tracer.spans[1].size == 4
    assert all(s.start <= s.end for s in tracer.spans)
    assert tracer.cmd is None
    undone = tracer.uninstall()
    assert restored(undone)
    assert ns.main(1) == 2 and len(tracer.spans) == 8


def _patched_state():
    from jgekd import cli, corruptions, losses, numerics, pointcloud, training

    owners = (cli, corruptions, losses, numerics, pointcloud, training,
              training.AdamState, numerics.Node, numerics.Rng)
    return {(id(owner), name): value for owner in owners for name, value in vars(owner).items()}


def test_wrappers_restore_originals_and_draw_nothing():
    from jgekd import training
    from jgekd.numerics import Rng

    cloud = np.random.default_rng(0).normal(size=(32, 3))
    before = _patched_state()
    plain = [training.compose_random(cloud, Rng(s))[0] for s in range(20)]

    tracer = Tracer()
    layers.install(tracer)
    try:
        traced = [training.compose_random(cloud, Rng(s))[0] for s in range(20)]
        counted = tracer.snapshot()["values"]
        rng = Rng(5)
        rng.uniforms(4)
        rng.normals(3)
    finally:
        undone = tracer.uninstall()

    assert restored(undone)
    assert _patched_state() == before
    for a, b in zip(plain, traced):
        assert np.array_equal(a, b)  # tracing consumed no draws
    names = {s.name for s in tracer.spans}
    assert {"corruptions.compose_random", "corruptions.apply_corruption"} <= names
    assert tracer.counts["rng_draws"] > 0
    assert tracer.values["uniforms"][0] - counted.get("uniforms", [0])[0] == 4
    assert tracer.values["normals"][0] - counted.get("normals", [0])[0] == 3


def test_numpy_forward_matches_model_forward_on_ragged_clouds():
    from jgekd.model import init_params

    params = init_params(7, 8)
    gen = np.random.default_rng(1)
    clouds = [gen.normal(size=(n, 3)) for n in (16, 16, 9, 30)]
    agrees, worst = layers.forward_agreement(params, clouds)
    assert agrees and worst <= 1e-12


def test_layer_map_and_benchmark_json_name_every_metric():
    import json

    with open(os.path.join(HERE, "layer_map.json"), encoding="utf-8") as fh:
        layer_map = json.load(fh)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert list(layer_map["per_layer"]) == list(layers.METRICS)
    assert [m["name"] for m in bench["per_layer"]] == list(layers.METRICS)
    assert [(m["unit"], m["better"]) for m in bench["per_layer"]] == list(layers.METRICS.values())
    assert {w["name"] for w in bench["workloads"]} == set(layer_map["why"])
    assert {m["name"] for m in bench["end_to_end"]} == set(layer_map["end_to_end"])
