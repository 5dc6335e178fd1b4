"""Batch command-line front end.

Subcommands: gen-data, corrupt, train, eval, robustness, correlation. Every
run is deterministic given its flags and seed, and every artifact embeds the
fully-resolved configuration. Exit codes: 0 success, 2 validation error,
3 I/O or file-format error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import typing

from . import training
from .corruptions import (
    ALL_EVAL_KINDS,
    BACKGROUND_EXCLUDED_KINDS,
    SEVERITIES,
    corrupt_eval_set,
    parse_kind,
)
from .model import CheckpointFormatError, load_params, save_params
from .numerics import blas_threads
from .pointcloud import CloudFormatError, generate_minishapes, load_dataset, write_atomic
from .training import NumericalError, TrainConfig

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4

_KIND_NAMES = ", ".join(k.value for k in ALL_EVAL_KINDS)


def _write(path, text: str) -> None:
    write_atomic(path, text.encode("utf-8"))


def _check_class_count(n_classes: int, role: str, manifest, data) -> None:
    """A model fits a split only if it has the split's class count."""
    if n_classes != len(manifest.class_names):
        raise ValueError("%s has %d classes, %s lists %d" % (role, n_classes, data, len(manifest.class_names)))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_gen_data(args) -> int:
    train_manifest, test_manifest = generate_minishapes(
        args.out,
        per_class_train=args.per_class_train,
        per_class_test=args.per_class_test,
        n_points=args.points,
        seed=args.seed,
    )
    print("wrote %s and %s" % (train_manifest, test_manifest))
    return EXIT_OK


def _cmd_corrupt(args) -> int:
    if args.all:
        cells = [(kind, severity) for kind in ALL_EVAL_KINDS for severity in SEVERITIES]
    else:
        if args.kind is None:
            raise ValueError("pass --kind or --all")
        cells = [(parse_kind(args.kind), args.severity)]
    for kind, severity in cells:
        manifest = corrupt_eval_set(args.data, args.out, kind, severity, args.seed)
        print("wrote %s" % manifest)
    return EXIT_OK


def _field_type(hint):
    """The value type of a TrainConfig annotation, with `X | None` unwrapped."""
    return next((t for t in typing.get_args(hint) if t is not type(None)), hint)


_HINTS = typing.get_type_hints(TrainConfig)
_CONFIG_FIELDS = {f.name: _field_type(_HINTS[f.name]) for f in dataclasses.fields(TrainConfig)}


_EXPECTS = {bool: "a boolean", int: "an integer", float: "a number"}


def _parse_config_value(key: str, raw: str):
    kind = _CONFIG_FIELDS[key]
    raw = raw.strip()
    if kind is bool:
        lowered = raw.lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
    elif kind in (int, float):
        try:
            return kind(raw)
        except ValueError:
            pass
    else:
        return raw
    raise ValueError("config key %s expects %s, got %r" % (key, _EXPECTS[kind], raw))


def load_config_file(path) -> dict:
    """key=value lines; # starts a comment; unknown keys are rejected."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError("%s:%d: expected key=value" % (path, ln))
            key, raw = line.split("=", 1)
            key = key.strip()
            if key not in _CONFIG_FIELDS:
                raise ValueError("%s:%d: unknown config key %r" % (path, ln, key))
            try:
                values[key] = _parse_config_value(key, raw)
            except ValueError as exc:
                raise ValueError("%s:%d: %s" % (path, ln, exc)) from None
    return values


def _resolve_train_config(args) -> TrainConfig:
    config = TrainConfig()
    if args.config:
        for key, value in load_config_file(args.config).items():
            setattr(config, key, value)
    for key in _CONFIG_FIELDS:
        value = getattr(args, key)
        if value is not None:
            setattr(config, key, value)
    config.validate()
    if not config.train_data or not config.test_data:
        raise ValueError("train needs --train-data and --test-data (or config file entries)")
    return config


def _cmd_train(args) -> int:
    config = _resolve_train_config(args)
    manifest, train_samples = load_dataset(config.train_data)
    _, test_samples = load_dataset(config.test_data)
    if config.n_classes is None:
        config.n_classes = len(manifest.class_names)
    _check_class_count(config.n_classes, "model", manifest, config.train_data)
    resolved = config.to_dict()
    print("config: %s" % json.dumps(resolved, sort_keys=True))
    params, report = training.train(config, train_samples, test_samples)
    os.makedirs(args.out, exist_ok=True)
    save_params(os.path.join(args.out, "model.jgp"), params)
    _write(os.path.join(args.out, "metrics.json"), training.metrics_json(report, resolved))
    _write(os.path.join(args.out, "history.csv"), training.history_csv(report, resolved))
    print("OA=%.4f mAcc=%.4f" % (report.overall_accuracy, report.mean_class_accuracy))
    return EXIT_OK


def _cmd_eval(args) -> int:
    params = load_params(args.model)
    manifest, samples = load_dataset(args.data)
    _check_class_count(params.n_classes, "model", manifest, args.data)
    with blas_threads(1):
        report = training.evaluate(params, samples)
    resolved = {"model": args.model, "data": args.data}
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write(os.path.join(args.out, "metrics.json"), training.metrics_json(report, resolved))
        _write(
            os.path.join(args.out, "per_class.csv"),
            training.per_class_csv(report, manifest.class_names),
        )
    print("OA=%.4f mAcc=%.4f" % (report.overall_accuracy, report.mean_class_accuracy))
    return EXIT_OK


def _cmd_robustness(args) -> int:
    params = load_params(args.model)
    ref_params = load_params(args.ref)
    manifest, samples = load_dataset(args.data)
    _check_class_count(params.n_classes, "model", manifest, args.data)
    _check_class_count(ref_params.n_classes, "reference", manifest, args.data)
    kinds = ALL_EVAL_KINDS if args.with_background else BACKGROUND_EXCLUDED_KINDS
    table = training.robustness_eval(params, ref_params, samples, args.seed, kinds=kinds)
    resolved = {
        "model": args.model,
        "ref": args.ref,
        "data": args.data,
        "seed": args.seed,
        "with_background": args.with_background,
    }
    os.makedirs(args.out, exist_ok=True)
    _write(os.path.join(args.out, "robustness.json"), training.robustness_json(table, resolved))
    _write(os.path.join(args.out, "robustness.csv"), training.robustness_csv(table, resolved))
    print("mCE=%.4f" % table.mce)
    return EXIT_OK


def _cmd_correlation(args) -> int:
    params = load_params(args.model)
    manifest, samples = load_dataset(args.data)
    _check_class_count(params.n_classes, "model", manifest, args.data)
    with blas_threads(1):
        matrix = training.class_correlation(params, samples, args.samples_per_class)
    os.makedirs(args.out, exist_ok=True)
    resolved = {"model": args.model, "data": args.data, "samples_per_class": args.samples_per_class}
    _write(
        os.path.join(args.out, "correlation.json"),
        training.correlation_json(matrix, manifest.class_names, resolved),
    )
    _write(
        os.path.join(args.out, "correlation.csv"),
        training.correlation_csv(matrix, manifest.class_names),
    )
    off_diag = [matrix[i][j] for i in range(len(matrix)) for j in range(len(matrix)) if i != j]
    print("mean off-diagonal score=%.4f" % (sum(off_diag) / len(off_diag)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jgekd",
        description="Joint-graph distillation training and robustness tooling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write the synthetic 8-class dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--per-class-train", type=int, default=100)
    p.add_argument("--per-class-test", type=int, default=30)
    p.add_argument("--points", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("corrupt", help="write fixed corrupted copies of a split")
    p.add_argument("--data", required=True, help="manifest of the split to corrupt")
    p.add_argument("--out", required=True)
    p.add_argument("--kind", help="one of: %s" % _KIND_NAMES)
    p.add_argument("--severity", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--all", action="store_true", help="every kind at every severity")
    p.set_defaults(func=_cmd_corrupt)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--config", help="key=value file; flags override it")
    p.add_argument("--strategy", choices=training.STRATEGIES)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float, dest="learning_rate", metavar="LR")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--detach-target", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--augment", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--teacher", dest="teacher_checkpoint", metavar="TEACHER", help="teacher checkpoint (tkd only)")
    p.add_argument("--train-data")
    p.add_argument("--test-data")
    p.add_argument("--n-classes", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("robustness", help="severity sweep against a reference model")
    p.add_argument("--model", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--with-background", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_robustness)

    p = sub.add_parser("correlation", help="class-pair embedding similarity matrix")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--samples-per-class", type=int, default=20)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_correlation)

    return parser


def _check_out(path) -> None:
    """Refuse an output path that exists and is not a directory, before any
    data is loaded or any work is done."""
    if path is not None and os.path.exists(path) and not os.path.isdir(path):
        raise NotADirectoryError("--out %s exists and is not a directory" % path)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_out(args.out)
        return args.func(args)
    except (OSError, CloudFormatError, CheckpointFormatError) as exc:
        # Before ValueError: the format errors subclass it.
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_IO
    except NumericalError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
