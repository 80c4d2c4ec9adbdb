"""The probed public functions of each ordproto layer and the per-layer metrics.

Layers are the modules under ``src/ordproto``. The ``cli`` layer covers
config parsing and artifact writes; ``errors`` does no work. Metrics are
per traced pass (one CLI call, or one load-score-evaluate pass), so a
faster program that fits more passes into a run does not read as busier.
"""

from __future__ import annotations

import numpy as np

from .tracer import Probe, Summary


def _count_zero_grads(tracer, grad) -> None:
    if not np.any(grad):
        tracer.counts["ranking.blackbox_rank_backward.zero"] += 1


def _count_rows(tracer, dataset) -> None:
    tracer.counts["data.load_dataset.rows"] += int(dataset.size)


PROBES = (
    Probe("data.load_dataset", "data", "load_dataset", observe=_count_rows),
    Probe("data.stratified_batches", "data", "stratified_batches"),
    Probe("encoder.forward", "encoder", "forward"),
    Probe("encoder.backward", "encoder", "backward"),
    Probe("encoder.adam_step", "encoder", "adam_step"),
    Probe("encoder.encode", "encoder", "encode"),
    Probe("losses.FeatureBatch", "losses", "FeatureBatch"),
    Probe("losses.local_prototypes", "losses", "local_prototypes"),
    Probe("losses.ins2ins_loss", "losses", "ins2ins_loss"),
    Probe("losses.ins2cls_loss", "losses", "ins2cls_loss"),
    Probe("losses.cls2cls_loss", "losses", "cls2cls_loss"),
    Probe("losses.cross_entropy_loss", "losses", "cross_entropy_loss"),
    Probe("losses.total_loss", "losses", "total_loss"),
    Probe("ranking.rank", "ranking", "rank"),
    Probe("ranking.blackbox_rank_backward", "ranking", "blackbox_rank_backward",
          observe=_count_zero_grads),
    Probe("linalg.as_vector", "linalg", "as_vector", count_only=True),
    Probe("linalg.cosine_similarity", "linalg", "cosine_similarity", count_only=True),
    Probe("prototypes.ema_update", "prototypes", "ema_update"),
    Probe("prototypes.progression_scores", "prototypes", "progression_scores"),
    Probe("prototypes.predict_progression", "prototypes", "predict_progression",
          count_only=True),
    Probe("evaluation.binary_metrics", "evaluation", "binary_metrics"),
    Probe("evaluation.spearman", "evaluation", "spearman"),
    Probe("trainer.train", "trainer", "train"),
    Probe("trainer.run_seeds", "trainer", "run_seeds"),
    Probe("trainer.evaluate_on", "trainer", "evaluate_on"),
    Probe("cli.config", "config", "load_train_config"),
    Probe("cli.artifacts", "encoder", "save_checkpoint"),
    Probe("cli.artifacts", "prototypes", "save_store"),
    Probe("cli.artifacts", "trainer", "TrainHistory.write_csv"),
    Probe("cli.artifacts", "cli", "_write_json"),
    Probe("cli.artifacts", "cli", "_export_embeddings"),
)

# The per-iteration training phases, which also get per-call percentiles.
PHASES = (
    "encoder.forward",
    "losses.FeatureBatch",
    "losses.local_prototypes",
    "losses.ins2ins_loss",
    "losses.ins2cls_loss",
    "losses.cls2cls_loss",
    "losses.cross_entropy_loss",
    "losses.total_loss",
    "encoder.backward",
    "encoder.adam_step",
    "prototypes.ema_update",
)
# Self time only: the artifact writes without the encode and
# progression_scores calls that _export_embeddings makes before it writes.
SELF_ONLY = ("cli.artifacts",)
BUSY = tuple(dict.fromkeys(p.name for p in PROBES if not p.count_only and p.name not in SELF_ONLY))
SELF = (
    "ranking.blackbox_rank_backward",
    "losses.ins2ins_loss",
    "losses.cls2cls_loss",
    "trainer.train",
) + SELF_ONLY
CALLS = (
    "ranking.rank",
    "ranking.blackbox_rank_backward",
    "linalg.as_vector",
    "linalg.cosine_similarity",
    "prototypes.predict_progression",
    "encoder.forward",
)


def _catalogue() -> list[tuple[str, str, str]]:
    """(metric, unit, better) for every per-layer metric, in report order."""
    out = []
    out += [(f"{n}.calls", "calls/pass", "lower") for n in CALLS]
    out += [(f"{n}.busy_s", "s/pass", "lower") for n in BUSY]
    out += [(f"{n}.self_s", "s/pass", "lower") for n in SELF]
    for n in PHASES:
        out += [(f"{n}.p50_us", "us", "lower"), (f"{n}.p99_us", "us", "lower")]
    out += [
        ("ranking.blackbox_rank_backward.zero_grad_share", "ratio", "lower"),
        ("data.load_dataset.rows_per_s", "1/s", "higher"),
        ("trainer.run_seeds.concurrency", "ratio", "higher"),
        ("trace.spans", "spans/pass", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_share", "ratio", "lower"),
    ]
    return out


CATALOGUE = _catalogue()


def layer_metrics(summary: Summary, passes: int, overhead_s: float, untraced_wall_s: float) -> dict:
    """Every catalogue metric from a summary over ``passes`` traced passes.

    Absent layers read as zero. ``overhead_s`` is the traced minus the
    untraced median pass time.
    """
    per = 1.0 / passes
    values: dict[str, float] = {}
    for n in CALLS:
        calls = summary.counts[n] if n in summary.counts else summary.get(n).calls
        values[f"{n}.calls"] = calls * per
    for n in BUSY:
        values[f"{n}.busy_s"] = summary.get(n).busy_s * per
    for n in SELF:
        values[f"{n}.self_s"] = summary.get(n).self_s * per
    for n in PHASES:
        durations = summary.get(n).durations
        p50, p99 = np.percentile(durations, [50, 99]) * 1e6 if durations.size else (0.0, 0.0)
        values[f"{n}.p50_us"] = float(p50)
        values[f"{n}.p99_us"] = float(p99)

    bb_calls = summary.get("ranking.blackbox_rank_backward").calls
    zero = summary.counts["ranking.blackbox_rank_backward.zero"]
    values["ranking.blackbox_rank_backward.zero_grad_share"] = zero / bb_calls if bb_calls else 0.0
    load_busy = summary.get("data.load_dataset").busy_s
    rows = summary.counts["data.load_dataset.rows"]
    values["data.load_dataset.rows_per_s"] = rows / load_busy if load_busy else 0.0
    sweep = summary.get("trainer.run_seeds").busy_s
    seeds = summary.nested_busy("trainer.train", "trainer.run_seeds")
    values["trainer.run_seeds.concurrency"] = seeds / sweep if sweep else 0.0
    values["trace.spans"] = sum(s.calls for s in summary.stats.values()) * per
    values["trace.overhead_s"] = overhead_s
    values["trace.overhead_share"] = overhead_s / untraced_wall_s
    units = {name: unit for name, unit, _ in CATALOGUE}
    return {name: {"value": values[name], "unit": units[name]} for name, _, _ in CATALOGUE}
