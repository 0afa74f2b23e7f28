"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines inline. The desk-scale instance (10^4-row relation, 6 numerical
attributes, data-centric range workloads with 2..6 conditions) is built once
and shared; its build time is charged to the end-to-end budget of
criterion 6.
"""

import time

import numpy as np
import pytest

from nngp_card import gp
from nngp_card.diagnostics import finite_width_check, kernel_mc_check
from nngp_card.encoder import build_layout, encode_batch
from nngp_card.evaluation import (
    QErrorStats,
    active_learn,
    q_errors,
    uncertainty_error_report,
)
from nngp_card.kernel import KernelConfig, base_kernel, nngp_kernel
from nngp_card.oracle import execute
from nngp_card.relstore import SchemaCatalog, synth_relation
from nngp_card.workload import finalize, gen_single_relation, split

from conftest import random_instance, random_query
from naive_oracle import naive_count

DESK_SEED = 20240601
DESK_COLUMNS = [
    {"name": "a1", "kind": "uniform", "lo": 0, "hi": 100},
    {"name": "a2", "kind": "uniform", "lo": -5, "hi": 5},
    {"name": "a3", "kind": "mixture", "components": [
        {"weight": 0.5, "mean": 10, "std": 2},
        {"weight": 0.5, "mean": 30, "std": 5},
    ]},
    {"name": "a4", "kind": "correlated", "source": "a1", "rho": 0.8, "mean": 0, "std": 1},
    {"name": "a5", "kind": "mixture", "components": [
        {"weight": 0.3, "mean": -10, "std": 1},
        {"weight": 0.7, "mean": 5, "std": 8},
    ]},
    {"name": "a6", "kind": "correlated", "source": "a3", "rho": -0.6, "mean": 50, "std": 20},
]


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {detail}", flush=True)
    assert passed, f"criterion {criterion}: {detail}"


def _trim(workload, k, seed):
    rng = np.random.default_rng(seed)
    idx = rng.permutation(len(workload))[:k]
    return workload.subset(sorted(int(i) for i in idx))


@pytest.fixture(scope="module")
def desk():
    """Desk-scale instance shared by criteria 2, 3, 6, 7, 8, 9, 10."""
    t0 = time.perf_counter()
    relation = synth_relation(DESK_SEED, 10_000, DESK_COLUMNS, name="desk")
    catalog = SchemaCatalog((relation,))
    raw = []
    for i, d in enumerate(range(2, 7)):
        raw.extend(gen_single_relation(relation, d, 2200, seed=1000 + i))
    labeled = finalize(raw, catalog)
    layout = build_layout(catalog)

    train_part, pool_part, test_part, _ = split(labeled, (0.4, 0.4, 0.2), seed=7)
    train = _trim(train_part, 2000, seed=1)
    pool = _trim(pool_part, 1500, seed=2)
    test = _trim(test_part, 500, seed=3)

    def enc(part):
        return encode_batch(part.queries(), layout, catalog)

    def logs(part):
        return np.log(part.cardinalities().astype(np.float64))

    # large training set for criteria 9/10, disjoint from the fixed test set
    big = train_part.items + pool_part.items
    rng = np.random.default_rng(4)
    order = rng.permutation(len(big))
    from nngp_card.workload import LabeledWorkload

    big8000 = LabeledWorkload([big[i] for i in order[:8000]])

    return {
        "catalog": catalog,
        "layout": layout,
        "labeled": labeled,
        "X_train": enc(train),
        "y_train": logs(train),
        "X_pool": enc(pool),
        "y_pool": logs(pool),
        "X_test": enc(test),
        "test_cards": test.cardinalities().astype(np.float64),
        "test_conds": test.condition_counts(),
        "X_big": enc(big8000),
        "y_big": logs(big8000),
        "build_seconds": time.perf_counter() - t0,
    }


class TestCriterion1:
    def test_layer_steps_match_monte_carlo(self):
        result = kernel_mc_check(n_cases=100, n_samples=3_000_000, seed=20240811)
        worst = result["worst_rel_err"]
        ok = worst <= 0.01 and result["elapsed_s"] < 60
        report(
            1,
            ok,
            f"relu layer step vs 3e6-sample bivariate-normal expectations on "
            f"100 random PSD inputs: worst rel err {worst:.4f} (gate 0.01), "
            f"elapsed {result['elapsed_s']:.1f}s (< 60s)",
        )


class TestCriterion2:
    def test_finite_width_networks_match_kernel(self, desk):
        X = desk["X_test"][:16]
        config = KernelConfig(depth=1, noise_sq=0.0)
        result = finite_width_check(X, config, n_networks=200, width=4096, seed=5)
        ok = result["rel_frobenius_err"] <= 0.03 and result["elapsed_s"] < 120
        report(
            2,
            ok,
            f"empirical covariance of 200 width-4096 two-layer networks over 16 "
            f"fixed encoded queries: rel Frobenius err "
            f"{result['rel_frobenius_err']:.4f} (gate 0.03), "
            f"elapsed {result['elapsed_s']:.1f}s (< 120s)",
        )


class TestCriterion3:
    def test_noise_free_training_points_reproduced(self, desk):
        config = KernelConfig(noise_sq=0.0)
        worst_mean, worst_var = 0.0, 0.0
        for n in (1, 16, 256):
            X = desk["X_big"][:n]
            y = desk["y_big"][:n]
            est = gp.fit(X, y, config)
            pred = gp.predict(est, X)
            worst_mean = max(worst_mean, float(np.max(np.abs(pred.mean_log - y))))
            worst_var = max(worst_var, float(np.max(pred.var_log)))
        ok = worst_mean <= 1e-6 and worst_var <= 1e-6
        report(
            3,
            ok,
            f"exact inference at noise 0 for N in (1, 16, 256): worst |mean - target| "
            f"{worst_mean:.2e}, worst variance {worst_var:.2e} (gates 1e-6)",
        )


class TestCriterion4:
    def test_depth_zero_equals_base_kernel(self):
        rng = np.random.default_rng(44)
        worst = 0.0
        for _ in range(20):
            n = int(rng.integers(2, 40))
            d = int(rng.integers(2, 30))
            X = rng.uniform(0, 1, (n, d))
            X2 = rng.uniform(0, 1, (int(rng.integers(1, 20)), d))
            cfg = KernelConfig(
                sigma_w_sq=float(rng.uniform(0.5, 2)),
                sigma_b_sq=float(rng.uniform(0, 0.5)),
                depth=0,
                noise_sq=0.0,
            )
            worst = max(
                worst,
                float(np.max(np.abs(nngp_kernel(X, None, cfg) - base_kernel(X, None, cfg)))),
                float(np.max(np.abs(nngp_kernel(X, X2, cfg) - base_kernel(X, X2, cfg)))),
            )
        ok = worst <= 1e-12
        report(4, ok, f"depth-0 kernel vs analytic base kernel on 20 random batches: "
                      f"max |diff| {worst:.2e} (gate 1e-12)")


class TestCriterion5:
    def test_oracle_matches_naive_enumeration(self):
        rng = np.random.default_rng(51)
        t0 = time.perf_counter()
        checked = 0
        mismatches = 0
        while checked < 1000:
            catalog = random_instance(rng, max_relations=3, max_rows=8)
            query = random_query(catalog, rng)
            if query is None:
                continue
            if execute(query, catalog) != naive_count(query, catalog):
                mismatches += 1
            checked += 1
        ok = mismatches == 0
        report(
            5,
            ok,
            f"executor vs naive cross-product enumeration on 1000 random <=3-relation, "
            f"<=8-row instances: {mismatches} mismatches "
            f"({time.perf_counter() - t0:.1f}s)",
        )


class TestCriterion6:
    def test_desk_scale_accuracy(self, desk):
        t0 = time.perf_counter()
        est = gp.fit(desk["X_train"], desk["y_train"], KernelConfig())
        pred = gp.predict(est, desk["X_test"])
        stats = QErrorStats.from_errors(q_errors(desk["test_cards"], pred.card_estimate), desk["test_conds"])
        elapsed = desk["build_seconds"] + (time.perf_counter() - t0)
        desk["crit6_prediction"] = pred
        ok = stats.quantiles[50] <= 2.0 and stats.quantiles[75] <= 4.0 and elapsed < 300
        report(
            6,
            ok,
            f"10^4-row / 6-attribute relation, 2000 train / 500 test, default config: "
            f"median q-error {stats.quantiles[50]:.3f} (gate 2.0), 75th pct "
            f"{stats.quantiles[75]:.3f} (gate 4.0), end-to-end {elapsed:.0f}s (< 300s)",
        )


class TestCriterion7:
    def test_uncertainty_correlates_with_error(self, desk):
        est = gp.fit(desk["X_train"], desk["y_train"], KernelConfig())
        pred = gp.predict(est, desk["X_test"])
        rep = uncertainty_error_report(pred, desk["test_cards"], n_conditions=desk["test_conds"])
        rho = rep.spearman_cov_vs_log_q
        ok = rho is not None and rho > 0.0
        report(
            7,
            ok,
            f"Spearman correlation between CoV and |log q-error| on the 500-query "
            f"desk-scale test set: {rho:.3f} (gate > 0)",
        )


class TestCriterion8:
    def test_uncertainty_sampling_reduces_mse(self, desk):
        result = active_learn(
            desk["X_train"],
            desk["y_train"],
            desk["X_pool"],
            desk["y_pool"],
            desk["X_test"],
            desk["test_cards"],
            KernelConfig(),
            iterations=3,
            k=200,
        )
        history = [round(m, 4) for m in result.mse_history]
        ok = len(result.mse_history) == 4 and result.mse_history[-1] <= result.mse_history[0]
        report(
            8,
            ok,
            f"3 iterations of uncertainty sampling (k=200): test MSE history {history}, "
            f"final <= initial",
        )


class TestCriterion9:
    def test_training_and_prediction_latency(self, desk):
        X, y = desk["X_big"], desk["y_big"]
        assert X.shape == (8000, desk["layout"].dim) and desk["layout"].dim <= 64
        t0 = time.perf_counter()
        est = gp.fit(X, y, KernelConfig())
        fit_seconds = time.perf_counter() - t0
        t1 = time.perf_counter()
        pred = gp.predict(est, desk["X_test"])
        per_query_ms = (time.perf_counter() - t1) / len(desk["X_test"]) * 1000.0
        desk["est8000"] = est
        desk["pred8000"] = pred
        ok = fit_seconds < 60.0 and per_query_ms < 5.0
        report(
            9,
            ok,
            f"fit on 8000 encoded queries (d_enc={desk['layout'].dim}): {fit_seconds:.1f}s "
            f"(< 60s); prediction latency {per_query_ms:.2f} ms/query at N=8000 (< 5 ms)",
        )


class TestCriterion10:
    def test_robust_to_small_training_workloads(self, desk):
        est8000 = desk.get("est8000") or gp.fit(desk["X_big"], desk["y_big"], KernelConfig())
        pred8000 = desk.get("pred8000") or gp.predict(est8000, desk["X_test"])
        est1000 = gp.fit(desk["X_big"][:1000], desk["y_big"][:1000], KernelConfig())
        pred1000 = gp.predict(est1000, desk["X_test"])
        median8000 = QErrorStats.from_errors(q_errors(desk["test_cards"], pred8000.card_estimate)).quantiles[50]
        median1000 = QErrorStats.from_errors(q_errors(desk["test_cards"], pred1000.card_estimate)).quantiles[50]
        ok = median1000 <= 4.0 * median8000
        report(
            10,
            ok,
            f"median test q-error trained on 1000 queries ({median1000:.3f}) vs "
            f"8000 queries ({median8000:.3f}): ratio {median1000 / median8000:.2f} (gate 4x)",
        )
