"""Run one ordproto benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train_full --seed 1 --seconds 40 --trace 0

Set-up (data generation, CSV writes and, for ``score_cohort``, a trained
checkpoint and store) is repeated at least five times and for at least one
second; ``setup_s`` is the median.
Then the workload repeats its timed pass in a closed loop with one caller
while another pass, as long as the longest so far, still ends within
``--seconds`` (at least one pass, two with ``--trace 1``), checking every
output. With ``--trace 1`` passes alternate between untraced and traced
ones: the traced passes give the per-layer metrics and the difference of
the two medians is the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The process exits
1 when an output check fails and 2 when the source tree is missing.

Times are scaled to a reference host speed (see ``workloads.HostSpeed``):
each timed interval is multiplied by REFERENCE_S over the mean time of a
fixed kernel sampled every half second during it and at its ends, which
cancels most of the drift of a shared host. The unscaled medians are
printed too.

End-to-end metrics (``--trace 0``), each a median over passes:
  setup_s             set-up time
  wall_s              time of one pass (one CLI call; one load-score-evaluate)
  work_per_s          training iterations per second summed over seeds
                      (train workloads), rows scored per second (score_cohort)
  auc                 held-out AUC, deterministic for a seed
  peak_rss_mb         peak resident memory of the process
Also printed, not gated: acc and spearman_ordinality (deterministic for a
seed, but they vary too much between seeds for a bound),
score_batch_p50_ms/p99_ms with their sample count, and op_fail_ratio.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Set-up repeats at least this often and for at least this long; setup_s is the median.
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("train_full", "sweep_ce_only", "score_cohort")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _git_sha(root: Path) -> str | None:
    """HEAD of the git repository at ``root``; None when ``root`` is not one."""
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_sha256(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": _nproc(),
        "git_sha": _git_sha(ROOT),
        "source_sha256": _source_sha256(ROOT / "src"),
    }


def _median(values) -> float:
    return float(statistics.median(values))


def run(workload_name: str, seed: int, seconds: float, trace: bool, workdir: Path, sizes=None) -> tuple[dict, dict]:
    """Set up, run passes for ``seconds``, and return (result, report).

    ``result`` is the final JSON object; ``report`` holds the extra,
    ungated figures that are printed before it.
    """
    import numpy as np

    from perfbench import layers, tracer as tracing, workloads

    wl = workloads.make(workload_name, sizes or workloads.Sizes())
    clock, host = workloads.clock, workloads.HOST
    checks = workloads.Checks()
    tracer = tracing.Tracer(clock=clock)
    setups, runs, absent = [], [], []  # setups: (seconds, host scale); runs: (traced, Pass, host scale)
    with host.sampling():
        while len(setups) < SETUP_REPEATS or sum(t for t, _ in setups) < SETUP_SECONDS:
            t0 = clock()
            wl.setup(workdir, seed)
            setups.append((clock() - t0, host.scale()))
        start = last = time.perf_counter()
        longest = 0.0
        while len(runs) < (2 if trace else 1) or time.perf_counter() + longest <= start + seconds:
            if trace and len(runs) % 2:
                with tracing.instrument(tracer, layers.PROBES) as absent:
                    done = (True, wl.run_pass(checks, tracer.operation))
            else:
                done = (False, wl.run_pass(checks, tracing.untraced))
            runs.append((*done, host.scale()))
            now = time.perf_counter()
            longest, last = max(longest, now - last), now
    final_attempted, final_failed = wl.finish(checks)
    plain = [(p, k) for is_traced, p, k in runs if not is_traced]
    traced = [(p, k) for is_traced, p, k in runs if is_traced]

    passes = [p for _, p, _ in runs]
    attempted = sum(p.attempted for p in passes) + final_attempted
    failed = sum(p.failed for p in passes) + final_failed
    wall_s = _median([p.wall_s * k for p, k in plain])
    report: dict = {"failures": checks.failures, "absent": absent, "passes": len(plain), "traced_passes": len(traced)}
    if trace:
        overhead = _median([p.wall_s * k for p, k in traced]) - wall_s
        metrics = layers.layer_metrics(tracing.Summary(tracer), len(traced), overhead, wall_s)
        trace_path = workdir.parent / f"trace-{workload_name}.npz"
        tracer.save(trace_path)
        report["trace_file"] = str(trace_path.relative_to(ROOT)) if trace_path.is_relative_to(ROOT) else str(trace_path)
    else:
        batch = [s for p, _ in plain for s in p.batch_s]
        quality = plain[0][0].quality
        metrics = {
            "setup_s": (_median([t * k for t, k in setups]), "s"),
            "wall_s": (wall_s, "s"),
            "work_per_s": (_median([p.work / (p.work_s * k) for p, k in plain if p.work] or [0.0]), "1/s"),
            "auc": (quality.get("auc", 0.0), "1"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}
        work_name = "score_rows_per_s" if workload_name == "score_cohort" else "train_iter_per_s"
        report["ungated"] = {
            work_name: (metrics["work_per_s"]["value"], "1/s"),
            "acc": (quality.get("acc", 0.0), "1"),
            "spearman_ordinality": (quality.get("spearman_ordinality", 0.0), "1"),
            "op_fail_ratio": (failed / attempted, "1"),
            "setup_s_unscaled": (_median([t for t, _ in setups]), "s"),
            "wall_s_unscaled": (_median([p.wall_s for p, _ in plain]), "s"),
            "host_scale": (_median([k for _, k in plain]), "1"),
        }
        if batch:
            p50, p99 = np.percentile(batch, [50, 99])
            report["ungated"]["score_batch_p50_ms"] = (p50 * 1e3, f"ms n={len(batch)}")
            report["ungated"]["score_batch_p99_ms"] = (p99 * 1e3, f"ms n={len(batch)}")
    result = {
        "correct": not checks.failures and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "ordproto" / "__init__.py").is_file():
        print(f"error: no ordproto source under {src}", file=sys.stderr)
        return 2
    # Fixed before numpy loads its BLAS, whatever the caller set: the bounds
    # hold for this one setting. The workloads multiply matrices of at most
    # 8000 x 64, where extra BLAS threads mostly spin and add run-to-run
    # noise; a process pool can still use every core.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(src), str(ROOT)]

    work_root = ROOT / ".perfbench_work"
    workdir = work_root / f"{args.workload}-{os.getpid()}"
    try:
        result, report = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
        env = environment(args.workload, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("env " + json.dumps(env, sort_keys=True))
    print(f"passes: {report['passes']} untraced, {report['traced_passes']} traced")
    if report["absent"]:
        print("absent probes (zero calls): " + ", ".join(report["absent"]))
    if "trace_file" in report:
        print(f"spans written to {report['trace_file']}")
    for name, entry in result["metrics"].items():
        print(f"{name:48s} {entry['value']:.6g} {entry['unit']}")
    for name, (value, unit) in report.get("ungated", {}).items():
        print(f"{name:48s} {value:.6g} {unit}  (not gated)")
    for failure in report["failures"]:
        print(f"check failed: {failure}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
