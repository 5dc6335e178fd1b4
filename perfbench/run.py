"""jgekd benchmark: end-to-end and per-layer figures for three workloads.

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

Run from anywhere; the checkout root (the directory above this file) is the
working directory, and everything the benchmark writes goes under `.bench/`
there. Each workload is a closed loop with one client: the benchmark calls
`jgekd.cli.main` in this process, and each call starts after the previous one
returned. Set-up runs several times, each in a fresh interpreter. Every
timing that gates a change is rescaled to a reference machine speed, because
this shared host's speed drifts (see calibrate.py): command times by a
calibration between commands, set-up times by reference child interpreters
run before and after each set-up. The raw wall-clock figures are reported
beside them.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced repeats (see layers.py), reports the per-layer metrics and writes the
spans. `--workload all` runs every workload in turn. The last stdout line is
one JSON object: correct, attempted, failed, metrics. Every line before it is
for people. The full result, with machine facts, artifact hashes and failed
checks, goes to `.bench/results/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = ".bench"
# Set-up runs at least MIN_SETUPS times and until SETUP_SECONDS have passed,
# at most MAX_SETUPS times; setup_s is the median of the set-ups at reference
# speed.
MIN_SETUPS, MAX_SETUPS, SETUP_SECONDS = 5, 9, 4.0
WORKLOAD_NAMES = ("train", "robustness", "gen-data")
UNITS = {"setup_s": "s", "peak_rss_mib": "MiB", "items_per_ref_s": "1/s"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-dir", help=argparse.SUPPRESS)  # child mode: set up and exit
    return p.parse_args(argv)


# -- machine facts -----------------------------------------------------------


def _git_commit():
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None  # not a git checkout of its own
    return lines[1]


def _blas():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the dicts mode
        return None
    return {"name": blas.get("name"), "version": blas.get("version")}


def machine_facts(seed) -> dict:
    import hashlib

    import numpy

    source = hashlib.sha256()
    package = os.path.join(SRC, "jgekd")
    for name in sorted(n for n in os.listdir(package) if n.endswith(".py")):
        with open(os.path.join(package, name), "rb") as fh:
            source.update(name.encode() + b"\0" + hashlib.sha256(fh.read()).digest())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas(),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith(("OPENBLAS_", "OMP_"))},
        "git_commit": _git_commit(),
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


# -- measurement ---------------------------------------------------------------


def set_up(name, seed, base, ops) -> tuple[list[float], list[float], list[float]]:
    """Run set-up repeatedly, each time in a fresh interpreter between two
    reference children (calibrate.py). Return the set-up walls, the same at
    reference speed, and the children's walls."""
    from calibrate import REF_CHILD_S, ref_seconds, reference_child_argv
    from workloads import tree_hash

    def child():
        t0 = time.perf_counter()
        proc = subprocess.run(reference_child_argv(), capture_output=True, text=True, timeout=150)
        ops.check("reference child exits 0", proc.returncode == 0, proc.stderr[-2000:])
        return time.perf_counter() - t0

    walls, ref_walls, child_walls, digests = [], [], [child()], []
    while len(walls) < MIN_SETUPS or (sum(walls) < SETUP_SECONDS and len(walls) < MAX_SETUPS):
        i = len(walls)
        sdir = os.path.join(base, "setup%d" % i)
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed), "--setup-dir", sdir]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=150)
        walls.append(time.perf_counter() - t0)
        if not ops.check("set-up %d exits 0" % i, proc.returncode == 0, proc.stderr[-2000:]):
            raise SystemExit("set-up failed:\n" + proc.stderr)
        child_walls.append(child())
        ref_walls.append(ref_seconds(walls[-1], child_walls[-2], child_walls[-1], REF_CHILD_S))
        digests.append(tree_hash(sdir))
    ops.check("set-ups write identical inputs", len(set(digests)) == 1, digests)
    return walls, ref_walls, child_walls


def repeat_once(commands, ops, reference, cal) -> dict:
    """Run the workload's commands once, with a calibration between any two.
    Their artifacts must hash the same as `reference` (a previous repeat's
    hashes) unless that is None."""
    from calibrate import ref_seconds
    from workloads import file_hashes, run_cli

    rep = {"wall": {}, "ref_wall": {}, "items": {}, "hashes": {}}
    start = time.perf_counter()
    before = cal.last if cal.last is not None else cal.measure()
    for cmd in commands:
        shutil.rmtree(cmd.out, ignore_errors=True)
        rc, wall, err = run_cli(cmd.argv)
        after = cal.measure()
        ops.check("%s exits 0" % cmd.metric, rc == 0, err[-2000:])
        rep["wall"][cmd.metric] = wall
        rep["ref_wall"][cmd.metric] = ref_seconds(wall, before, after)
        before = after
        rep["items"][cmd.metric] = cmd.items(rc)
        rep["hashes"][cmd.metric] = file_hashes(cmd.out)
    if reference is not None:
        ops.check("artifacts match the first repeat", rep["hashes"] == reference, _hash_diff(reference, rep["hashes"]))
    rep["total_wall"] = sum(rep["wall"].values())
    rep["total_ref_wall"] = sum(rep["ref_wall"].values())
    rep["elapsed"] = time.perf_counter() - start
    return rep


def measure(commands, budget, ops, cal) -> list[dict]:
    """Repeat until the next repeat would overrun budget seconds (at least once)."""
    reps = []
    start = time.perf_counter()
    while True:
        reps.append(repeat_once(commands, ops, reps[0]["hashes"] if reps else None, cal))
        typical = statistics.median(r["elapsed"] for r in reps)
        if time.perf_counter() - start + typical > budget:
            return reps


def measure_traced(commands, budget, ops, tracer, cal) -> tuple[list[dict], list[dict]]:
    """Alternate untraced and traced repeats until the next pair would
    overrun budget seconds (at least one pair). Alternating keeps drift in
    machine speed out of the overhead ratio. Traced artifacts must equal the
    untraced ones."""
    import layers
    from spans import restored

    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(repeat_once(commands, ops, plain[0]["hashes"] if plain else None, cal))
        layers.install(tracer)
        try:
            traced.append(repeat_once(commands, ops, plain[0]["hashes"], cal))
        finally:
            undone = tracer.uninstall()
        ops.check("tracing wrappers restored the original functions", restored(undone))
        typical = statistics.median(a["elapsed"] + b["elapsed"] for a, b in zip(plain, traced))
        if time.perf_counter() - start + typical > budget:
            return plain, traced


def _throughput(reps, commands, wall="ref_wall") -> dict:
    """Items per second of the given commands: the median over repeats of
    their items over their `wall` time, with quartiles and count."""
    items = [sum(r["items"][c] for c in commands) for r in reps]
    walls = [sum(r[wall][c] for c in commands) for r in reps]
    return _median_figure([i / w for i, w in zip(items, walls)])


def _median_figure(values) -> dict:
    """Median (the reported value), quartiles and count of a run's samples."""
    from summary import summarize

    figure = summarize(values)
    return dict(figure, value=figure["median"])


def _hash_diff(a, b) -> list:
    return sorted(
        "%s/%s" % (cmd, path)
        for cmd in set(a) | set(b)
        for path in set(a.get(cmd, {})) | set(b.get(cmd, {}))
        if a.get(cmd, {}).get(path) != b.get(cmd, {}).get(path)
    )


def run_workload(args) -> dict:
    name, seed = args.workload, args.seed
    load_start = os.getloadavg()
    base = os.path.join(WORK, "work", name)
    shutil.rmtree(base, ignore_errors=True)

    import layers
    import workloads
    from calibrate import Calibrator
    from spans import Tracer, restored

    ops = workloads.Ops()
    cal = Calibrator()
    setup_walls, setup_ref_walls, child_walls = set_up(name, seed, base, ops)
    wl = workloads.WORKLOADS[name]
    sdir, out = os.path.join(base, "setup0"), os.path.join(base, "out")
    commands = wl.commands(sdir, out, seed)
    result = {"workload": name, "seed": seed, "seconds": args.seconds, "trace": args.trace}

    if args.trace:
        tracer = Tracer()
        reps, traced = measure_traced(commands, args.seconds, ops, tracer, cal)
        counts = tracer.snapshot()
        layers.install(tracer)
        try:
            manifest = os.path.join(wl.data_dir(sdir, out), "test.txt")
            layers.probe(tracer, manifest, seed, os.path.join(base, "probe"))
        finally:
            undone = tracer.uninstall()
        ops.check("tracing wrappers restored the original functions", restored(undone))
        result["traced_repeats"] = len(traced)
    else:
        reps = measure(commands, args.seconds, ops, cal)
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        every = list(reps[0]["wall"])
        result["figures"] = {
            "setup_s": _median_figure(setup_ref_walls),
            "peak_rss_mib": _median_figure([rss_mib]),
            "items_per_ref_s": _throughput(reps, every),
            **{m.replace("_per_s", "_per_ref_s"): _throughput(reps, [m]) for m in every},
            "setup_wall_s": _median_figure(setup_walls),
            "reference_child_s": _median_figure(child_walls),
            "items_per_wall_s": _throughput(reps, every, "wall"),
            **{m: _throughput(reps, [m], "wall") for m in every},
        }

    result["reported"] = wl.check(sdir, out, seed, ops)
    params, clouds = wl.forward_case(sdir, out, seed)
    agrees, worst = layers.forward_agreement(params, clouds)
    ops.check("model.forward matches plain numpy (argmax, 1e-12)", agrees, worst)
    result["forward_max_abs_diff"] = worst

    if args.trace:
        overhead = statistics.median(b["total_ref_wall"] / a["total_ref_wall"] for a, b in zip(reps, traced))
        items = sum(sum(r["items"].values()) for r in traced)
        floor = layers.numpy_floor_us(params, clouds)
        metrics, sources = layers.layer_metrics(tracer, counts, items, overhead, floor)
        result["layers"] = {m: {"value": v, "unit": layers.METRICS[m][0], "source": sources[m]} for m, v in metrics.items()}
        result["values"] = metrics
    else:
        result["values"] = {m: result["figures"][m]["value"] for m in UNITS}

    result["repeats"] = len(reps)
    result["repeat_walls"] = [r["wall"] for r in reps]
    result["repeat_ref_walls"] = [r["ref_wall"] for r in reps]
    result["calibration_rounds_s"] = cal.rounds
    result["items_per_repeat"] = reps[0]["items"]
    result["hashes"] = wl.headline_hashes(reps[0]["hashes"])
    result["machine"] = machine_facts(seed)
    result["machine"]["loadavg_start"] = list(load_start)
    result["machine"]["loadavg_end"] = list(os.getloadavg())
    result["attempted"] = ops.attempted
    result["failures"] = ops.failures

    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = os.path.join(results_dir, "%s-seed%d-trace%d" % (name, seed, args.trace))
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    if args.trace:
        tracer.dump(stem + "-spans.jsonl")
    result["result_file"] = stem + ".json"
    return result


# -- output --------------------------------------------------------------------


def _units(trace) -> dict:
    import layers

    return {m: unit for m, (unit, _) in layers.METRICS.items()} if trace else UNITS


def last_line(result) -> dict:
    units = _units(result["trace"])
    return {
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": {m: {"value": result["values"][m], "unit": units[m]} for m in units},
    }


def print_report(result) -> None:
    m = result["machine"]
    print("== %s  seed %d  trace %d  (%d repeats)" % (result["workload"], result["seed"], result["trace"], result["repeats"]))
    print(
        "machine: nproc=%s usable=%s python=%s numpy=%s blas=%s threads=%s load=%s..%s commit=%s source=%s"
        % (
            m["nproc"], m["cpus_usable"], m["python"], m["numpy"], m["blas"], m["thread_env"],
            m["loadavg_start"][0], m["loadavg_end"][0], m["git_commit"], m["source_sha256"][:12],
        )
    )
    if result["trace"]:
        with open(os.path.join(HERE, "layer_map.json"), "r", encoding="utf-8") as fh:
            moves = json.load(fh)["per_layer"]
        for name, row in result["layers"].items():
            print("%-34s %-8s %14.6g   %-40s -> %s" % (name, row["unit"], row["value"], row["source"], moves[name]))
    else:
        for name, f in result["figures"].items():
            print(
                "%-26s %-4s %12.6g   median %12.6g  q1 %12.6g  q3 %12.6g  n %d"
                % (name, "s" if name in ("setup_wall_s", "reference_child_s") else UNITS.get(name, "1/s"), f["value"], f["median"], f["q1"], f["q3"], f["n"])
            )
    for key, value in sorted(result["reported"].items()):
        print("%s: %s" % (key, value))
    for key, value in sorted(result["hashes"].items()):
        print("sha256 %s: %s" % (key, value))
    print("checks: %d attempted, %d failed" % (result["attempted"], len(result["failures"])))
    for failure in result["failures"]:
        print("FAILED %s: %s" % (failure["check"], failure["detail"]))
    print("full result: %s" % result["result_file"])


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [
            sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        combined["metrics"].update({"%s.%s" % (name, k): v for k, v in last["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "jgekd", "cli.py")):
        print("error: %s holds no jgekd sources; run from a full checkout" % SRC, file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    if args.setup_dir:
        import workloads

        workloads.WORKLOADS[args.workload].setup(args.setup_dir, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args)
    print_report(result)
    print(json.dumps(last_line(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
