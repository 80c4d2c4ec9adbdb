"""Acceptance gate: nine numbered criteria, one verdict line each.

The desk-scale benchmark is the default synthetic cohort (600 training and
200 held-out samples). Reference means below were frozen from a pilot run
of this exact configuration; each criterion re-derives its inequality from
a fresh run and only uses the frozen numbers as a drift alarm.
"""

from __future__ import annotations

import itertools
import json
import math
import time

import numpy as np
import pytest

from fd import central_diff, rel_err
from kernels import Batch, cross_entropy, flat_backward, hybrid
from oracles import (
    cosine_similarity,
    cosine_similarity_grad,
    param_arrays,
    rank_argmin_oracle,
    reference_local_prototypes,
    reference_normalize,
)
from ordproto.cli import EXIT_OK, main
from ordproto.data import GenConfig, generate
from ordproto.encoder import forward, init_params
from ordproto.evaluation import binary_metrics, mann_whitney_one_sided
from ordproto.losses import SPREAD_EPS
from ordproto.prototypes import (
    PROGRESSIVE,
    STABLE,
    GlobalPrototypeStore,
    ema_update,
    progression_scores,
)
from ordproto.ranking import rank_rows
from ordproto.trainer import TrainConfig, ablation_config, run_seeds

VARIANTS = ("ce-only", "ins2ins", "ins2cls", "full")

# Frozen pilot means (5 seeds, train seed 0 / test seed 100); fresh values
# must stay inside this window or the benchmark itself has drifted.
PILOT_ACC = {"ce-only": 0.6675, "ins2ins": 0.8050, "ins2cls": 0.8075, "full": 0.8150}
PILOT_SPEARMAN = {"ce-only": 0.7999, "full": 0.8124}
PILOT_ACC_K4 = 0.9200
DRIFT = 0.06

GEN_TRAIN = GenConfig()  # 600 samples across three bands
GEN_TEST = GenConfig(class_counts=(40, 80, 80))  # 200 held-out samples
BENCH = TrainConfig()  # five seeds, sixty epochs

GEN_TRAIN_K4 = GenConfig(
    n_classes=4, class_counts=(130, 135, 135, 200), band_edges=(0.25, 0.5, 0.75)
)
GEN_TEST_K4 = GenConfig(
    n_classes=4, class_counts=(40, 40, 40, 80), band_edges=(0.25, 0.5, 0.75)
)
BENCH_K4 = TrainConfig(n_classes=4, anchor_classes=(2, 3))


def accs(sweep) -> np.ndarray:
    return np.array([row["acc"] for row in sweep.summary["per_seed"]])


def pooled_std(a: np.ndarray, b: np.ndarray) -> float:
    return math.sqrt((a.var(ddof=1) + b.var(ddof=1)) / 2.0)


@pytest.fixture(scope="module")
def bench():
    """All four loss-component variants on the shared benchmark cohort."""
    train_ds = generate(GEN_TRAIN, seed=0)
    test_ds = generate(GEN_TEST, seed=100)
    t0 = time.perf_counter()
    sweeps = {
        variant: run_seeds(ablation_config(BENCH, variant), train_ds, test_ds)
        for variant in VARIANTS
    }
    return sweeps, time.perf_counter() - t0


@pytest.fixture(scope="module")
def bench_k4():
    """Four-band cohort with the two middle classes as anchors."""
    train_ds = generate(GEN_TRAIN_K4, seed=0)
    test_ds = generate(GEN_TEST_K4, seed=100)
    return run_seeds(BENCH_K4, train_ds, test_ds)


def test_criterion_1_rank_oracle(verdict):
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(500):
        n = int(rng.integers(1, 7))
        a = rng.standard_normal(n)
        while np.unique(a).size != n:  # enforce distinct values
            a = rng.standard_normal(n)
        if not np.array_equal(rank_rows(a[None, :])[0], rank_argmin_oracle(a)):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 5.0
    assert verdict(
        1,
        "rank operator matches the brute-force assignment oracle",
        ok,
        f"500 inputs, {mismatches} mismatches, {elapsed:.2f}s",
    )


def test_criterion_2_gradient_suite(verdict):
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    worst: dict[str, float] = {}

    errs = []
    for _ in range(50):
        d = int(rng.integers(2, 9))
        u, v = rng.standard_normal(d), rng.standard_normal(d)
        grad_u, grad_v = cosine_similarity_grad(u, v)
        errs.append(
            max(
                rel_err(grad_u, central_diff(lambda w: cosine_similarity(w, v), u)),
                rel_err(grad_v, central_diff(lambda w: cosine_similarity(u, w), v)),
            )
        )
    worst["cosine"] = max(errs)

    def batch_for(k_min=2):
        m = int(rng.integers(3, 8))
        k = int(rng.integers(k_min, 4))
        m = max(m, k)
        labels = np.concatenate(
            [np.arange(1, k + 1), rng.integers(1, k + 1, size=m - k)]
        )
        return Batch(rng.standard_normal((m, int(rng.integers(3, 6)))) + 0.1, labels, k)

    step = 1.0  # blackbox_lambda
    ins2cls_only = dict(use_ins2ins=False, use_cls2cls=False)
    errs = []
    for _ in range(50):
        batch = batch_for()

        def value(feats, labels=batch.labels, k=batch.n_classes):
            return hybrid(Batch(feats, labels, k), step, **ins2cls_only).value

        out = hybrid(batch, step, **ins2cls_only)
        errs.append(rel_err(out.feature_grads, central_diff(value, batch.features)))
    worst["ins2cls"] = max(errs)

    cls2cls_only = dict(use_ins2ins=False, use_ins2cls=False)
    errs = []
    for _ in range(50):
        batch = batch_for()

        def spread(feats, labels=batch.labels, k=batch.n_classes):
            probe = Batch(feats, labels, k)
            protos = reference_local_prototypes(*probe)
            disp = protos.means - protos.overall
            denom = float(np.sum(protos.counts * np.sum(disp * disp, axis=1)))
            return probe.dim / (denom + SPREAD_EPS)

        flowed = hybrid(batch, step, **cls2cls_only, detach_spread=False)
        detached = hybrid(batch, step, **cls2cls_only, detach_spread=True)
        analytic = flowed.feature_grads - detached.feature_grads
        errs.append(rel_err(analytic, central_diff(spread, batch.features)))
    worst["cls2cls-smooth"] = max(errs)

    errs = []
    for _ in range(50):
        m, k = int(rng.integers(1, 7)), int(rng.integers(2, 5))
        logits = rng.standard_normal((m, k)) * 2
        labels = rng.integers(1, k + 1, size=m)
        out = cross_entropy(logits, labels)
        errs.append(
            rel_err(
                out.logit_grads,
                central_diff(lambda lg: cross_entropy(lg, labels).value, logits),
            )
        )
    worst["cross-entropy"] = max(errs)

    errs = []
    for trial in range(50):
        dims = [int(rng.integers(2, 5)) for _ in range(3)]
        k = int(rng.integers(2, 4))
        enc, head = init_params(dims, k, seed=trial)
        params = param_arrays(enc, head)
        x = rng.standard_normal((int(rng.integers(2, 5)), dims[0]))
        labels = rng.integers(1, k + 1, size=x.shape[0])
        probe = rng.standard_normal((x.shape[0], dims[-1]))
        base = np.concatenate([p.ravel() for p in params])

        def objective(flat):
            i = 0
            for p in params:
                p[...] = flat[i : i + p.size].reshape(p.shape)
                i += p.size
            cache = forward(enc, head, x)
            return float((cache.features * probe).sum()) + cross_entropy(
                cache.logits, labels
            ).value

        cache = forward(enc, head, x)
        ce = cross_entropy(cache.logits, labels)
        analytic = flat_backward(enc, head, cache, d_features=probe, d_logits=ce.logit_grads)
        errs.append(rel_err(analytic, central_diff(objective, base)))
    worst["backprop"] = max(errs)

    elapsed = time.perf_counter() - t0
    ok = max(worst.values()) <= 1e-5 and elapsed < 30.0
    assert verdict(
        2,
        "analytic gradients match central differences",
        ok,
        f"max rel err {max(worst.values()):.2e} across {len(worst)} families, {elapsed:.1f}s",
    )


def test_criterion_3_ema_contract(verdict):
    rng = np.random.default_rng(103)
    fixed_point_ok = True
    for _ in range(30):
        mu = rng.standard_normal(int(rng.integers(2, 9)))
        sigma = float(rng.uniform(0.1, 0.99))
        means = np.array((mu, mu))  # the low and high class means
        anchors = ema_update(np.zeros_like(means), means, sigma)  # bootstrap to mu/||mu||
        snapshot = anchors[1].copy()
        anchors = ema_update(anchors, means, sigma)
        fixed_point_ok &= np.array_equal(anchors[1], snapshot)
        fixed_point_ok &= np.array_equal(snapshot, reference_normalize(mu, "mu"))

    monotone_ok = True
    converged = 0
    for sigma in (0.5, 0.9, 0.999):
        for _ in range(20):
            target = rng.standard_normal(8)
            start = rng.standard_normal(8)
            anchors = ema_update(np.zeros((2, 8)), np.array((start, start)), sigma)
            cos_prev = cosine_similarity(anchors[1], target)
            for _ in range(100):
                anchors = ema_update(anchors, np.array((target, target)), sigma)
                cos_now = cosine_similarity(anchors[1], target)
                monotone_ok &= cos_now >= cos_prev - 1e-12
                cos_prev = cos_now
            converged += cos_prev >= 1.0 - 1e-6
    ok = fixed_point_ok and monotone_ok
    assert verdict(
        3,
        "normalized mean is an EMA fixed point; angle decay is monotone",
        ok,
        f"fixed point bitwise={fixed_point_ok}, monotone={monotone_ok}, "
        f"{converged}/60 runs converged",
    )


def reads_stable(p: float) -> bool:
    """Whether ``binary_metrics`` counts a score of ``p`` as a stable prediction."""
    return binary_metrics([p, 1.0], [STABLE, PROGRESSIVE])["acc"] == 1.0


def test_criterion_4_inference_invariances(verdict):
    rng = np.random.default_rng(104)
    drift = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 9))
        means = np.array((rng.standard_normal(d), rng.standard_normal(d)))
        store = GlobalPrototypeStore(ema_update(np.zeros((2, d)), means, 0.9), (1, 3), 0.9)
        q = rng.standard_normal(d)
        base = progression_scores([q], store)[0]
        for scale in (1e-6, 1e-3, 0.5, 3.0, 1e3, 1e6):
            drift = max(drift, abs(progression_scores([scale * q], store)[0] - base))
        scales = [[float(rng.uniform(0.5, 200.0))], [float(rng.uniform(0.005, 2.0))]]
        scaled = GlobalPrototypeStore(store.anchors * scales, (1, 3), 0.9)
        drift = max(drift, abs(progression_scores([q], scaled)[0] - base))

    # Exact ties: orthonormal-axis anchors with a symmetric query, and
    # swapped-coordinate anchors built from dyadic values so both cosines
    # come out bitwise identical regardless of summation order.
    halves_ok = True
    axis_store = GlobalPrototypeStore(np.array([[1.0, 0.0], [0.0, 1.0]]), (1, 3), 0.9)
    p = progression_scores([[0.7, 0.7]], axis_store)[0]
    halves_ok &= p == 0.5 and reads_stable(p)
    swap_store = GlobalPrototypeStore(np.array([[1.0, 0.5, 0.25], [0.5, 1.0, 0.25]]), (1, 3), 0.9)
    p = progression_scores([[1.0, 1.0, 2.0]], swap_store)[0]
    halves_ok &= p == 0.5 and reads_stable(p)

    ok = drift <= 1e-12 and halves_ok
    assert verdict(
        4,
        "progression score ignores rescaling; ties split at exactly one half",
        ok,
        f"max drift {drift:.2e}, exact-tie checks={'pass' if halves_ok else 'fail'}",
    )


def test_criterion_5_ablation_trend(verdict, bench):
    sweeps, elapsed = bench
    means = {v: float(accs(sweeps[v]).mean()) for v in VARIANTS}
    gap = means["full"] - means["ce-only"]
    spread = 2.0 * pooled_std(accs(sweeps["ce-only"]), accs(sweeps["full"]))
    ordered = (
        means["ce-only"] < means["ins2ins"] < means["ins2cls"] <= means["full"]
    )
    fresh_ok = ordered and gap > spread and elapsed <= 600.0
    drift_ok = all(abs(means[v] - PILOT_ACC[v]) <= DRIFT for v in VARIANTS)
    assert verdict(
        5,
        "each loss component adds held-out accuracy",
        fresh_ok and drift_ok,
        f"acc {means['ce-only']:.4f} < {means['ins2ins']:.4f} < "
        f"{means['ins2cls']:.4f} <= {means['full']:.4f}, "
        f"gap {gap:.4f} > {spread:.4f}, {elapsed:.0f}s",
    )


def test_criterion_6_ordinality(verdict, bench):
    sweeps, _ = bench
    sp = {
        v: float(
            np.mean([row["spearman_ordinality"] for row in sweeps[v].summary["per_seed"]])
        )
        for v in ("ce-only", "full")
    }
    fresh_ok = sp["full"] >= 0.8 and sp["full"] > sp["ce-only"]
    drift_ok = all(abs(sp[v] - PILOT_SPEARMAN[v]) <= DRIFT for v in sp)
    assert verdict(
        6,
        "features order along the progression axis",
        fresh_ok and drift_ok,
        f"spearman full {sp['full']:.4f} >= 0.8 and > ce-only {sp['ce-only']:.4f}",
    )


def test_criterion_7_significance_machinery(verdict):
    exact = mann_whitney_one_sided([3.0, 4.0], [1.0, 2.0], method="exact")
    # Independent enumeration: count the C(4, 2) rank assignments whose
    # statistic is at least the observed one.
    u_obs = 3.0 + 4.0 - 3.0  # rank sum of the first group minus n_a(n_a+1)/2
    hits = sum(
        1
        for pair in itertools.combinations(range(4), 2)
        if (pair[0] + 1) + (pair[1] + 1) - 3.0 >= u_obs
    )
    oracle_ok = exact == 1.0 / 6.0 and hits == 1 and exact == hits / 6.0

    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(200):
        n_a = int(rng.integers(2, 11))
        a = rng.normal(rng.uniform(-0.5, 0.5), 1.0, size=n_a)
        b = rng.normal(0.0, 1.0, size=12 - n_a)
        gap = abs(
            mann_whitney_one_sided(a, b, method="exact")
            - mann_whitney_one_sided(a, b, method="approx")
        )
        worst = max(worst, gap)
    ok = oracle_ok and worst <= 0.02
    assert verdict(
        7,
        "rank-sum test: exact enumeration and normal approximation agree",
        ok,
        f"clean-separation p={exact:.6f}, max |exact-approx| {worst:.4f} at size 12",
    )


def test_criterion_8_cli_determinism(verdict, tmp_path):
    (tmp_path / "gen.cfg").write_text("classes = 3\n")
    (tmp_path / "train.cfg").write_text("classes = 3\ninput_dim = 16\nseeds = 1\n")
    data = tmp_path / "data.csv"
    assert main(["gen-data", "--config", str(tmp_path / "gen.cfg"), "--seed", "0", "--out", str(data)]) == EXIT_OK
    codes = []
    for run in ("a", "b"):
        codes.append(
            main(
                [
                    "train",
                    "--config", str(tmp_path / "train.cfg"),
                    "--data", str(data),
                    "--out", str(tmp_path / run),
                ]
            )
        )
    same_metrics = (tmp_path / "a" / "metrics.json").read_bytes() == (
        tmp_path / "b" / "metrics.json"
    ).read_bytes()
    same_store = (tmp_path / "a" / "store.json").read_bytes() == (
        tmp_path / "b" / "store.json"
    ).read_bytes()
    acc = json.loads((tmp_path / "a" / "metrics.json").read_text())["per_seed"][0]["acc"]
    ok = codes == [EXIT_OK, EXIT_OK] and same_metrics and same_store
    assert verdict(
        8,
        "repeated training runs are byte-identical",
        ok,
        f"metrics identical={same_metrics}, store identical={same_store}, acc={acc:.4f}",
    )


def test_criterion_9_four_label_extension(verdict, bench, bench_k4):
    sweeps, _ = bench
    k3 = accs(sweeps["full"])
    k4 = accs(bench_k4)
    threshold = float(k3.mean()) - pooled_std(k3, k4)
    fresh_ok = float(k4.mean()) >= threshold
    drift_ok = abs(float(k4.mean()) - PILOT_ACC_K4) <= DRIFT
    assert verdict(
        9,
        "middle-anchor four-class run holds up against the three-class run",
        fresh_ok and drift_ok,
        f"acc {k4.mean():.4f} >= {threshold:.4f} (three-class {k3.mean():.4f} - pooled)",
    )
