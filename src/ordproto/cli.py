"""Command-line front end.

Subcommands: gen-data, train, eval, export-embeddings, crossval.
Exit codes: 0 success, 2 config/usage error, 3 I/O error, 4 numeric
failure during training, 5 incompatible artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from ._files import write_csv, write_json
from .config import load_gen_config, load_train_config
from .data import generate, load_dataset, save_dataset
from .encoder import encode, load_checkpoint, save_checkpoint
from .errors import (
    ArtifactMismatchError,
    BadConfigError,
    DatasetIOError,
    DatasetParseError,
    OrdprotoError,
)
from .prototypes import is_trained, load_store, progression_scores, save_store
from .trainer import (
    ABLATION_VARIANTS,
    METRIC_KEYS,
    ablation_config,
    check_data_fits,
    cross_validate,
    evaluate_on,
    run_seeds,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4
EXIT_ARTIFACT = 5


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordproto",
        description="Ordinal prototype learning on synthetic progression data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset CSV")
    p.add_argument("--config", required=True, help="generation config file")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("train", help="train across configured seeds and save artifacts")
    p.add_argument("--config", required=True, help="training config file")
    p.add_argument("--data", required=True, help="training dataset CSV")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--eval-data", help="optional held-out dataset CSV for metrics")
    p.add_argument(
        "--ablate",
        choices=list(ABLATION_VARIANTS),
        help="override the loss-component switches with a named variant",
    )

    p = sub.add_parser("eval", help="score a dataset with saved artifacts")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="optional path for the metrics JSON")

    p = sub.add_parser("export-embeddings", help="write per-sample features and scores")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("crossval", help="stratified k-fold training and evaluation")
    p.add_argument("--config", required=True, help="training config file")
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--out", help="optional path for the results JSON")
    return parser


def _write_json(payload: dict, path) -> None:
    write_json(path, str(path), payload)


def _load_artifacts(checkpoint_path, store_path, data_path):
    enc, head, meta = load_checkpoint(checkpoint_path)
    store = load_store(store_path)
    dataset = load_dataset(data_path)
    if dataset.input_dim != enc.input_dim:
        raise ArtifactMismatchError(
            f"checkpoint expects {enc.input_dim} input dims, data has {dataset.input_dim}"
        )
    n_classes = head.weight.shape[1]
    top = int(dataset.coarse.max())
    if top > n_classes:
        raise ArtifactMismatchError(
            f"data has coarse labels up to {top}, the checkpoint's classes are 1..{n_classes}"
        )
    if store.dim != enc.feature_dim:
        raise ArtifactMismatchError(
            f"store dim {store.dim} != checkpoint feature dim {enc.feature_dim}"
        )
    if not is_trained(store):
        raise ArtifactMismatchError("prototype store is untrained: an anchor is still zero")
    if not all(1 <= c <= n_classes for c in store.anchor_classes):
        raise ArtifactMismatchError(
            f"store anchor classes {store.anchor_classes} lie outside the "
            f"checkpoint's classes 1..{n_classes}"
        )
    return enc, head, store, dataset, meta


def _export_embeddings(enc, store, dataset, out_path) -> None:
    z = encode(enc, dataset.x)
    scores = progression_scores(z, store)
    header = ["id", "coarse_label", "fine_label"] + [
        f"z{j}" for j in range(z.shape[1])
    ] + ["p_progressive"]
    columns = [np.arange(dataset.size), dataset.coarse, dataset.fine, z, scores]
    write_csv(out_path, "embeddings", header, columns)


def cmd_gen_data(args) -> int:
    config = load_gen_config(args.config)
    dataset = generate(config, args.seed)
    save_dataset(dataset, args.out)
    for cls in range(1, config.n_classes + 1):
        count = int((dataset.coarse == cls).sum())
        print(f"class {cls}: {count} samples")
    print(f"wrote {dataset.size} samples to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    config = load_train_config(args.config)
    if args.ablate:
        config = ablation_config(config, args.ablate)
    dataset = load_dataset(args.data)
    check_data_fits(config, dataset.training_view())
    eval_dataset = load_dataset(args.eval_data) if args.eval_data else None

    # The output dir is made before training, so an unusable path costs no run.
    out_dir = Path(args.out)
    fresh = not out_dir.exists()
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DatasetIOError(f"cannot create output dir: {exc}") from exc
    # The manifest goes last: until then a previous run's must not vouch for these files.
    (out_dir / "manifest.json").unlink(missing_ok=True)
    try:
        sweep = run_seeds(config, dataset, eval_dataset)
    except BaseException:
        if fresh:
            out_dir.rmdir()  # still empty: nothing is written until every seed has trained
        raise
    first = sweep.results[0]
    paths = {
        "checkpoint": out_dir / "checkpoint.json",
        "store": out_dir / "store.json",
        "history": out_dir / "history.csv",
        "metrics": out_dir / "metrics.json",
        "embeddings": out_dir / "embeddings.csv",
    }
    save_checkpoint(first.encoder, first.head, paths["checkpoint"], first.seed, config.epochs)
    save_store(first.store, paths["store"])
    first.history.write_csv(paths["history"])
    _write_json(sweep.summary, paths["metrics"])
    _export_embeddings(first.encoder, first.store, dataset, paths["embeddings"])

    manifest = {
        "config_path": str(args.config),
        "config": vars(config),
        "data_path": str(args.data),
        "eval_data_path": str(args.eval_data) if args.eval_data else None,
        "seeds": config.seeds,
        "artifact_seed": first.seed,
        "out_dir": str(out_dir),
        "artifacts": {name: str(p) for name, p in paths.items()},
    }
    _write_json(manifest, out_dir / "manifest.json")

    mean, std = sweep.summary["mean"], sweep.summary["std"]
    for key in METRIC_KEYS:
        print(f"{key}: {mean[key]:.4f} +/- {std[key]:.4f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    enc, _head, store, dataset, _meta = _load_artifacts(args.checkpoint, args.store, args.data)
    metrics = evaluate_on(enc, store, dataset)
    if args.out:
        _write_json(metrics, args.out)
    print(json.dumps(metrics, indent=2))
    return EXIT_OK


def cmd_export_embeddings(args) -> int:
    enc, _head, store, dataset, _meta = _load_artifacts(args.checkpoint, args.store, args.data)
    _export_embeddings(enc, store, dataset, args.out)
    print(f"wrote {dataset.size} embeddings to {args.out}")
    return EXIT_OK


def cmd_crossval(args) -> int:
    config = load_train_config(args.config)
    dataset = load_dataset(args.data)
    check_data_fits(config, dataset.training_view())
    if args.out and not Path(args.out).parent.is_dir():  # refused before any fold trains
        raise DatasetIOError(f"cannot write {args.out}: its directory does not exist")
    results = cross_validate(config, dataset, args.k)
    for row in results["folds"]:
        print(
            f"fold {row['fold']}: acc={row['acc']:.4f} auc={row['auc']:.4f} "
            f"f1={row['f1']:.4f} precision={row['precision']:.4f} recall={row['recall']:.4f}"
        )
    mean, std = results["mean"], results["std"]
    print(
        f"mean: acc={mean['acc']:.4f}+/-{std['acc']:.4f} "
        f"auc={mean['auc']:.4f}+/-{std['auc']:.4f} f1={mean['f1']:.4f}+/-{std['f1']:.4f}"
    )
    if args.out:
        _write_json(results, args.out)
    return EXIT_OK


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "eval": cmd_eval,
    "export-embeddings": cmd_export_embeddings,
    "crossval": cmd_crossval,
}

_IO_ERRORS = (DatasetIOError, DatasetParseError, OSError)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # The program's floating-point policy, whatever the warning filter: numpy
    # reports nothing, and only the finiteness checks turn a fault into an exit code.
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _COMMANDS[args.command](args)
    except BadConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _IO_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ArtifactMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARTIFACT
    except OrdprotoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
