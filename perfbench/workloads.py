"""The three benchmark workloads, their correctness checks and their metrics.

Each workload builds its inputs from the seed, runs one user path of the
package, checks the outputs and reports the end-to-end metrics. Under a
recording tracer it also derives the per-layer metrics from the spans.

- desk-fit: fit once at N=8000 on the acceptance suite's desk relation,
  predict 500-query batches, then a closed loop of single-query predictions.
- join-pipeline: the README golden path through `cli.main` on a 3-relation
  star catalog.
- active-learn: one `evaluation.active_learn` call on the desk data.

After the measured path, each workload's short steps are repeated in turns
(`rotate`) and reported as medians.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import resource
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from nngp_card import cli, encoder, evaluation, gp, kernel, oracle, relstore, workload
from nngp_card.queries import Query

from tracing import SpanIndex, duration, total

KERNEL_CONFIG = kernel.KernelConfig()
# The shared box slows any 0.3 s window by up to 25 % and drifts by 10-30 %
# over minutes, so short steps are repeated within a run and reported as
# medians, and the repeats of different steps take turns (`rotate`) over at
# least `--seconds`, so that each metric's samples span the same window.
SETUP_REPEATS = 3  # at least, and until SETUP_MIN_S of set-up time
SETUP_MIN_S = 2.0
LABEL_REPEATS = 5  # desk labellings in the rotation, at least
FIT_REPEATS = 5  # active-learn's initial fit in the rotation, at least
CLI_REPEATS = 2  # extra `cli train` and `cli predict` runs, at least
LOOP_TURN_S = 1.0  # the closed loop's and the batch predicts' share of a rotation turn
# predict_one_ms_p95 is the median over windows of this many single-query
# latencies of each window's p95 (10 samples beyond it), so one burst of a
# neighbour's load moves one window, not the metric.
P95_WINDOW = 200
MIN_SINGLE_SAMPLES = 200
PREDICT_RTOL = 1e-9
# Oracle threads on the measured path; run.py sets NNGP_CARD_THREADS, which
# the CLI reads, to the same count.
ORACLE_THREADS = 1
# Recount only queries whose nested-loop cross products stay below this
# (a tenth of oracle.MAX_INTERMEDIATE), so the check never sets the run's
# peak memory.
RECOUNT_CROSS_CAP = 2_000_000
RECOUNT_SAMPLE = 100
POOL_PROBE_QUERIES = 2000
DELTA = 0.95
MIB = 1024.0 * 1024.0

# The acceptance suite's desk relation (tests/test_acceptance.py, DESK_COLUMNS).
DESK_ROWS = 10_000
DESK_D = (2, 3, 4, 5, 6)
DESK_PER_D = 2200
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
DESK_FIT_N = 8000
AL_TRAIN_N, AL_POOL_N, AL_TEST_N = 2000, 3000, 500
# Held-out queries for the accuracy metrics and the single-query loop,
# predicted in batches of PREDICT_BATCH.
EVAL_N = 2000
PREDICT_BATCH = 500
AL_ITERATIONS, AL_K = 3, 200

# 3-relation star: sales carries two foreign keys, a 40-value categorical
# (factorized bitmap) and numerics; cust a 6-value categorical (plain bitmap).
# The oracle joins relations in name order, so the names sort
# dimension < fact < dimension and every join step follows a join edge; with
# both dimensions sorting before the fact table, 2-join queries would build a
# dimension x dimension cross product first (about 27x slower per query).
JOIN_SPEC = {
    "relations": [
        {"name": "sales", "rows": 20_000, "columns": [
            {"name": "cust_id", "kind": "uniform_int", "lo": 0, "hi": 1999},
            {"name": "sku_id", "kind": "uniform_int", "lo": 0, "hi": 499},
            {"name": "region", "kind": "categorical", "values": [f"r{i:02d}" for i in range(40)]},
            {"name": "amount", "kind": "mixture", "components": [
                {"weight": 0.7, "mean": 50, "std": 15},
                {"weight": 0.3, "mean": 400, "std": 80},
            ]},
            {"name": "qty", "kind": "uniform_int", "lo": 1, "hi": 50},
        ]},
        {"name": "cust", "rows": 2000, "columns": [
            {"name": "cid", "kind": "uniform_int", "lo": 0, "hi": 1999},
            {"name": "segment", "kind": "categorical", "values": ["s0", "s1", "s2", "s3", "s4", "s5"]},
            {"name": "age", "kind": "uniform", "lo": 18, "hi": 80},
        ]},
        {"name": "sku", "rows": 500, "columns": [
            {"name": "sid", "kind": "uniform_int", "lo": 0, "hi": 499},
            {"name": "price", "kind": "mixture", "components": [
                {"weight": 0.5, "mean": 20, "std": 5},
                {"weight": 0.5, "mean": 90, "std": 25},
            ]},
            {"name": "weight", "kind": "correlated", "source": "price", "rho": 0.7, "mean": 5, "std": 2},
        ]},
    ],
    "join_pairs": [["sales.cust_id", "cust.cid"], ["sales.sku_id", "sku.sid"]],
}
JOIN_T = "0,1,2"
JOIN_PER_T = 2000
# about 3.5k training and 2k test queries
JOIN_SPLIT = "0.6,0.05,0.35"

# End-to-end metrics (name -> unit); every workload reports every one.
E2E_UNITS = {
    "setup_s": "s",
    "label_qps": "1/s",
    "fit_s": "s",
    "pipeline_s": "s",
    "predict_batch_qps": "1/s",
    "predict_one_ms_p50": "ms",
    "peak_rss_mib": "MiB",
    "model_mib": "MiB",
    "q_error_p50": "ratio",
    "q_error_p95": "ratio",
    "ci95_coverage_gap": "share",
}

# Printed and written to the result file, but not declared: over ten runs
# join-pipeline's p95 of 4 ms queries spread 0.22-0.26 of its median, as
# neighbours' memory traffic comes and goes; gp.predict_one_ms_p95 traces it.
E2E_EXTRA_UNITS = {"predict_one_ms_p95": "ms"}

# Per-layer metrics every workload reports in its traced run.
LAYER_UNITS = {
    "relstore.synth_s": "s",
    "workload.gen_s": "s",
    "workload.split_s": "s",
    "workload.dedup_kept": "share",
    "workload.nonempty_kept": "share",
    "oracle.batch_s": "s",
    "oracle.execute_ms_p50.j0": "ms",
    "oracle.execute_ms_p95.j0": "ms",
    "oracle.pool_speedup": "ratio",
    "encoder.batch_s": "s",
    "encoder.encode_us_p50": "us",
    "kernel.train_build_s": "s",
    "kernel.depth0_s": "s",
    "kernel.layer1_s": "s",
    "kernel.layer2_s": "s",
    "kernel.layer3_s": "s",
    "kernel.mirror_s": "s",
    "kernel.build_peak_n2": "ratio",
    "kernel.cross_batch_s": "s",
    "kernel.cross_one_ms_p50": "ms",
    "gp.fit_s": "s",
    "gp.factor_s": "s",
    "gp.fit_peak_n2": "ratio",
    "gp.predict_one_ms_p50": "ms",
    "gp.predict_one_ms_p95": "ms",
    "gp.save_s": "s",
    "gp.load_s": "s",
    "gp.model_bytes": "bytes",
    "gp.jitter": "ratio",
    "gp.clamped_vars": "count",
    "gp.lml": "nats",
}

# Per-layer metrics only one workload's path exercises; they go to the
# trace file, not to the result line.
LAYER_EXTRA_UNITS = {
    "oracle.execute_ms_p50.j1": "ms",
    "oracle.execute_ms_p95.j1": "ms",
    "oracle.execute_ms_p50.j2": "ms",
    "oracle.execute_ms_p95.j2": "ms",
    "queries.jsonl_read_s": "s",
    "queries.jsonl_write_s": "s",
    "evaluation.al_base_s": "s",
    "evaluation.al_iter_s": "s",
    "cli.synth_s": "s",
    "cli.gen_queries_s": "s",
    "cli.label_s": "s",
    "cli.encode_s": "s",
    "cli.train_s": "s",
    "cli.predict_s": "s",
    "cli.evaluate_s": "s",
}


def timed(fn, *args, **kwargs):
    """Call fn; return its result and its wall time in seconds."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


class Run:
    """Bookkeeping of one workload run: metrics, checks, counts, work directory."""

    def __init__(self, name: str, seed: int, seconds: float, tracer, out_dir: Path):
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.e2e: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        self.checks: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.accuracy: dict[str, float] = {}
        self.model: dict[str, float] = {}
        self.final: dict = {}
        out_dir.mkdir(parents=True, exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir))

    def ops(self, count: int = 1) -> None:
        """Count calls made on the measured path."""
        self.attempted += count

    def check(self, name: str, passed: int, total_: int, **detail) -> None:
        """Record a check of `total_` items; a repeated name adds up."""
        self.attempted += total_
        self.failed += total_ - passed
        entry = self.checks.setdefault(name, {"passed": 0, "total": 0})
        entry["passed"] += passed
        entry["total"] += total_
        entry.update(detail)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def sub_seeds(seed: int, count: int = 8) -> list[int]:
    """Independent 31-bit seeds derived from the workload seed."""
    return [int(s) >> 1 for s in np.random.SeedSequence(seed).generate_state(count)]


def _trim(part, k: int, seed: int):
    if len(part) < k:
        raise ValueError(f"need {k} queries, the split part has {len(part)}")
    idx = np.random.default_rng(seed).permutation(len(part))[:k]
    return part.subset(sorted(int(i) for i in idx))


def _logs(part) -> np.ndarray:
    return np.log(part.cardinalities().astype(np.float64))


# ---------------------------------------------------------------------------
# correctness checks (pure functions, so tests can feed them wrong outputs)
# ---------------------------------------------------------------------------


def _endpoints(join, catalog) -> tuple[str, str]:
    left, right = catalog.join_pairs[join.pair]
    return left.split(".", 1)[0], right.split(".", 1)[0]


def _count(query: Query, names: tuple[str, ...], catalog) -> int:
    """Result size of `query` restricted to `names`: a product over its
    connected components, each counted by the oracle."""
    joins = [j for j in query.joins if set(_endpoints(j, catalog)) <= set(names)]
    size, todo = 1, set(names)
    while todo:
        component, frontier = set(), [min(todo)]
        while frontier:
            name = frontier.pop()
            if name in component:
                continue
            component.add(name)
            for j in joins:
                ends = _endpoints(j, catalog)
                if name in ends:
                    frontier.extend(ends)
        todo -= component
        sub = Query(
            relations=tuple(component),
            selections=tuple(s for s in query.selections if s[0].split(".", 1)[0] in component),
            joins=tuple(j for j in joins if set(_endpoints(j, catalog)) <= component),
        )
        size *= oracle.execute(sub, catalog)
    return size


def nested_intermediate(query: Query, catalog) -> int:
    """Largest cross product the nested-loop path forms for this query.

    The oracle joins relations left-deep in name order; each step crosses the
    partial result with the next relation's selected rows.
    """
    names = query.relations
    worst = 0
    for k in range(1, len(names)):
        worst = max(worst, _count(query, names[:k], catalog) * _count(query, names[k : k + 1], catalog))
    return worst


def recount_labels(queries, labels, catalog, sample: int | None = None):
    """Recount a fixed sample of labels with the nested-loop oracle.

    The sample (RECOUNT_SAMPLE by default) walks a fixed permutation of the
    labelled queries and keeps those whose nested-loop cross products stay
    within RECOUNT_CROSS_CAP. Returns (checked, mismatches, checked per join
    count).
    """
    sample = RECOUNT_SAMPLE if sample is None else sample
    cap = min(RECOUNT_CROSS_CAP, oracle.MAX_INTERMEDIATE)
    order = np.random.default_rng(0).permutation(len(queries))
    checked, mismatches = 0, 0
    by_joins: dict[str, int] = {}
    for i in order:
        if checked >= sample:
            break
        query = queries[int(i)]
        if nested_intermediate(query, catalog) > cap:
            continue
        if oracle.execute(query, catalog, strategy="nested") != int(labels[int(i)]):
            mismatches += 1
        checked += 1
        key = f"j{len(query.joins)}"
        by_joins[key] = by_joins.get(key, 0) + 1
    return checked, mismatches, by_joins


def prediction_mismatches(batch_mean, batch_var, one_mean, one_var, prior_var, rtol=PREDICT_RTOL) -> int:
    """Count queries whose single-query mean or variance differs from the batch.

    Relative to max(|a|, |b|, scale), with scale 1 for log-card means and the
    prior variance k(x, x) for variances, which are a difference of terms of
    that size.
    """
    batch_mean, batch_var = np.asarray(batch_mean), np.asarray(batch_var)
    one_mean, one_var = np.asarray(one_mean), np.asarray(one_var)
    mean_tol = rtol * np.maximum(np.maximum(np.abs(batch_mean), np.abs(one_mean)), 1.0)
    var_tol = rtol * np.maximum(np.maximum(np.abs(batch_var), np.abs(one_var)), np.asarray(prior_var))
    bad = (np.abs(batch_mean - one_mean) > mean_tol) | (np.abs(batch_var - one_var) > var_tol)
    return int(np.count_nonzero(bad))


def accuracy(true_cards, est_cards, ci_low, ci_high) -> dict:
    """q-error quantiles and the 95 % interval's coverage gap on a test set."""
    q = evaluation.q_errors(true_cards, est_cards)
    y = np.log(np.asarray(true_cards, dtype=np.float64))
    inside = (y >= np.asarray(ci_low)) & (y <= np.asarray(ci_high))
    return {
        "q_error_p50": float(np.percentile(q, 50)),
        "q_error_p75": float(np.percentile(q, 75)),
        "q_error_p95": float(np.percentile(q, 95)),
        "coverage": float(np.mean(inside)),
        "ci95_coverage_gap": abs(float(np.mean(inside)) - DELTA),
    }


def desk_gates_pass(acc: dict) -> bool:
    """Acceptance criterion 6: median q-error <= 2, 75th percentile <= 4."""
    return acc["q_error_p50"] <= 2.0 and acc["q_error_p75"] <= 4.0


def criterion8_pass(mse_history) -> bool:
    """Acceptance criterion 8: active learning ends no worse than it starts."""
    return len(mse_history) == AL_ITERATIONS + 1 and mse_history[-1] <= mse_history[0]


def lml(estimator) -> float:
    """Log marginal likelihood of the training targets under the fitted GP."""
    n = estimator.n_train
    return float(
        -0.5 * estimator.y_log @ estimator.alpha
        - np.sum(np.log(np.diagonal(estimator.chol)))
        - 0.5 * n * math.log(2.0 * math.pi)
    )


# ---------------------------------------------------------------------------
# shared measurement steps
# ---------------------------------------------------------------------------


class Repeats:
    """A step repeated in the rotation; `times` holds the wall time of each run."""

    def __init__(self, run: Run, name: str, minimum: int, fn, *args, **kwargs):
        self.run, self.name, self.minimum = run, name, minimum
        self.call = lambda: fn(*args, **kwargs)
        self.times: list[float] = []
        self.result = None

    def __call__(self) -> None:
        with self.run.tracer.span(self.name):
            self.result, took = timed(self.call)
        self.times.append(took)
        self.run.ops()

    def enough(self) -> bool:
        return len(self.times) >= self.minimum


class ClosedLoop:
    """One client: each single-query predict is sent when the previous returns.

    Each call runs the loop for LOOP_TURN_S, cycling through X; it has enough
    samples at MIN_SINGLE_SAMPLES.
    """

    def __init__(self, run: Run, estimator, X: np.ndarray):
        self.run, self.estimator, self.X = run, estimator, X
        self.latencies, self.means, self.variances, self.rows = [], [], [], []

    def __call__(self) -> None:
        end = time.perf_counter() + LOOP_TURN_S
        with self.run.tracer.span("predict_one"):
            while time.perf_counter() < end:
                j = len(self.rows) % len(self.X)
                pred, took = timed(gp.predict, self.estimator, self.X[j : j + 1])
                self.latencies.append(took)
                self.means.append(pred.mean_log[0])
                self.variances.append(pred.var_log[0])
                self.rows.append(j)

    def enough(self) -> bool:
        return len(self.rows) >= MIN_SINGLE_SAMPLES

    def finish(self) -> dict:
        """Record the latency metrics; return the predictions for the check."""
        self.run.ops(len(self.latencies))
        lat_ms = np.asarray(self.latencies) * 1000.0
        self.run.e2e["predict_one_ms_p50"] = float(np.percentile(lat_ms, 50))
        windows = [lat_ms[lo : lo + P95_WINDOW] for lo in range(0, len(lat_ms) - P95_WINDOW + 1, P95_WINDOW)]
        self.run.e2e["predict_one_ms_p95"] = float(np.median([np.percentile(w, 95) for w in windows or [lat_ms]]))
        return {"mean": np.asarray(self.means), "var": np.asarray(self.variances), "rows": np.asarray(self.rows)}


class Batches:
    """Batch predicts of X in chunks of PREDICT_BATCH, cycling through X.

    Each call predicts chunks for at least LOOP_TURN_S (one chunk at least);
    predict_batch_qps is the median rate over all chunks.
    """

    def __init__(self, run: Run, estimator, X: np.ndarray):
        self.run, self.estimator, self.X = run, estimator, X
        self.starts = range(0, len(X), PREDICT_BATCH)
        self.parts: dict[int, object] = {}
        self.rates: list[float] = []

    def __call__(self) -> None:
        end = time.perf_counter() + LOOP_TURN_S
        self.chunk()
        while time.perf_counter() < end:
            self.chunk()

    def chunk(self) -> float:
        lo = self.starts[len(self.rates) % len(self.starts)]
        chunk = self.X[lo : lo + PREDICT_BATCH]
        with self.run.tracer.span("predict_batch"):
            self.parts[lo], took = timed(gp.predict, self.estimator, chunk, delta=DELTA)
        self.rates.append(len(chunk) / took)
        self.run.ops()
        return took

    def one_pass(self):
        """Predict all of X; returns the prediction and its time."""
        took = sum(self.chunk() for _ in self.starts)
        parts = [self.parts[lo] for lo in self.starts]
        fields = {f.name: np.concatenate([getattr(p, f.name) for p in parts])
                  for f in dataclasses.fields(gp.Prediction) if f.name != "delta"}
        return gp.Prediction(delta=DELTA, **fields), took

    def enough(self) -> bool:
        return True

    def finish(self) -> None:
        self.run.e2e["predict_batch_qps"] = float(np.median(self.rates))


def rotate(run: Run, *tasks) -> None:
    """Call the tasks in turn, turn after turn, for `run.seconds` and until
    every task has enough samples.

    Each repeated measurement then samples the whole window, so a slow spell
    of the shared box moves every median a little rather than one a lot.
    """
    deadline = time.perf_counter() + run.seconds
    with run.tracer.span("rotation"):
        while time.perf_counter() < deadline or not all(task.enough() for task in tasks):
            for task in tasks:
                task()


def check_single_vs_batch(run: Run, loop: dict, batch_mean, batch_var, X) -> None:
    rows = loop["rows"]
    prior = kernel.kernel_diag(X[rows], KERNEL_CONFIG)
    bad = prediction_mismatches(batch_mean[rows], batch_var[rows], loop["mean"], loop["var"], prior)
    run.check("single_vs_batch", len(rows) - bad, len(rows), rtol=PREDICT_RTOL)


def model_roundtrip(run: Run, estimator, X_test, batch) -> None:
    """Save and reload the model; the file size is model_mib.

    The reloaded model must predict the first batch bit for bit.
    """
    path = run.work / "model.bin"
    X_check = X_test[:PREDICT_BATCH]
    with run.tracer.span("model_io"):
        gp.save(estimator, path)
        run.e2e["model_mib"] = path.stat().st_size / MIB
        loaded = gp.load(path)
        again = gp.predict(loaded, X_check)
    run.ops(3)
    n = len(X_check)
    same = np.array_equal(again.mean_log, batch.mean_log[:n]) and np.array_equal(again.var_log, batch.var_log[:n])
    run.check("model_roundtrip", int(same), 1)
    path.unlink()


def record_accuracy(run: Run, acc: dict) -> None:
    for key in ("q_error_p50", "q_error_p95", "ci95_coverage_gap"):
        run.e2e[key] = acc[key]
    run.accuracy = acc


def record_peak_rss(run: Run) -> None:
    """The process's memory high-water mark after the measured path; the
    rotation and the checks that follow are not part of it."""
    run.e2e["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# desk data (desk-fit and active-learn)
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class DeskData:
    catalog: object
    layout: object
    raw: list
    labeled: object
    parts: tuple


def desk_data(seed: int) -> DeskData:
    seeds = sub_seeds(seed)
    relation = relstore.synth_relation(seeds[0], DESK_ROWS, DESK_COLUMNS, name="desk")
    catalog = relstore.SchemaCatalog((relation,))
    raw = []
    for i, d in enumerate(DESK_D):
        raw.extend(workload.gen_single_relation(relation, d, DESK_PER_D, seed=seeds[1] + i))
    labeled = workload.finalize(raw, catalog, threads=ORACLE_THREADS)
    train_part, pool_part, test_part, _ = workload.split(labeled, (0.4, 0.4, 0.2), seed=seeds[2])
    layout = encoder.build_layout(catalog)
    return DeskData(catalog, layout, raw, labeled, (train_part, pool_part, test_part))


def repeated_setup(run: Run, build):
    """Run `build` at least SETUP_REPEATS times and for SETUP_MIN_S.

    setup_s is the median time. Returns the last repetition's result.
    """
    times, result = [], None
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        with run.tracer.span("setup"):
            result, took = timed(build)
        times.append(took)
    run.ops(len(times))
    run.e2e["setup_s"] = float(np.median(times))
    return result


def desk_labelling(run: Run, data: DeskData) -> Repeats:
    """Labelling of the raw desk queries, repeated in the rotation."""
    return Repeats(run, "label", LABEL_REPEATS, workload.finalize, data.raw, data.catalog, threads=ORACLE_THREADS)


def record_label_qps(run: Run, labelling: Repeats, n_raw: int) -> None:
    """Raw queries labelled per second: all queries over all their time."""
    run.e2e["label_qps"] = len(labelling.times) * n_raw / sum(labelling.times)


def check_desk_labels(run: Run, data: DeskData) -> None:
    with run.tracer.span("checks"):
        checked, bad, by_joins = recount_labels(data.labeled.queries(), data.labeled.cardinalities(), data.catalog)
    run.check("label_recount", checked - bad, checked, by_joins=by_joins)


# ---------------------------------------------------------------------------
# desk-fit
# ---------------------------------------------------------------------------


def run_desk_fit(run: Run) -> None:
    seeds = sub_seeds(run.seed)

    def build():
        data = desk_data(run.seed)
        train_part, pool_part, test_part = data.parts
        big = train_part.items + pool_part.items
        if len(big) < DESK_FIT_N:
            raise ValueError(f"desk data has {len(big)} train+pool queries, need {DESK_FIT_N}")
        order = np.random.default_rng(seeds[3]).permutation(len(big))
        big = workload.LabeledWorkload([big[i] for i in order[:DESK_FIT_N]])
        test = _trim(test_part, EVAL_N, seeds[4])
        X = encoder.encode_batch(big.queries(), data.layout, data.catalog)
        X_test = encoder.encode_batch(test.queries(), data.layout, data.catalog)
        return data, X, _logs(big), X_test, test

    data, X, y, X_test, test = repeated_setup(run, build)

    with run.tracer.span("pipeline"):
        with run.tracer.span("fit"):
            estimator, run.e2e["fit_s"] = timed(gp.fit, X, y, KERNEL_CONFIG)
        batches = Batches(run, estimator, X_test)
        batch, predict_s = batches.one_pass()
    run.ops()
    run.e2e["pipeline_s"] = run.e2e["fit_s"] + predict_s
    record_peak_rss(run)

    labelling, loop = desk_labelling(run, data), ClosedLoop(run, estimator, X_test)
    rotate(run, labelling, batches, loop)
    record_label_qps(run, labelling, len(data.raw))
    batches.finish()
    loop = loop.finish()
    check_single_vs_batch(run, loop, batch.mean_log, batch.var_log, X_test)
    acc = accuracy(test.cardinalities(), batch.card_estimate, batch.ci_low, batch.ci_high)
    record_accuracy(run, acc)
    run.check("criterion6_gates", int(desk_gates_pass(acc)), 1,
              q_error_p50=acc["q_error_p50"], q_error_p75=acc["q_error_p75"])
    model_roundtrip(run, estimator, X_test, batch)
    check_desk_labels(run, data)
    run.model = model_stats(estimator, batch.var_log)
    run.final = {"X_train": X, "queries": data.labeled.queries(), "catalog": data.catalog}


# ---------------------------------------------------------------------------
# active-learn
# ---------------------------------------------------------------------------


def run_active_learn(run: Run) -> None:
    seeds = sub_seeds(run.seed)

    def build():
        data = desk_data(run.seed)
        train_part, pool_part, test_part = data.parts
        parts = (
            _trim(train_part, AL_TRAIN_N, seeds[3]),
            _trim(pool_part, AL_POOL_N, seeds[4]),
            _trim(test_part, EVAL_N, seeds[5]),
        )
        X = [encoder.encode_batch(p.queries(), data.layout, data.catalog) for p in parts]
        return data, parts, X

    data, (train, pool, evaluation_set), (X_train, X_pool, X_eval) = repeated_setup(run, build)
    eval_cards = evaluation_set.cardinalities().astype(np.float64)
    # active_learn's own test set: the first AL_TEST_N of the random evaluation set
    X_test, test_cards = X_eval[:AL_TEST_N], eval_cards[:AL_TEST_N]
    y_train, y_pool = _logs(train), _logs(pool)

    with run.tracer.span("pipeline"):
        result, run.e2e["pipeline_s"] = timed(
            evaluation.active_learn,
            X_train, y_train, X_pool, y_pool, X_test, test_cards,
            KERNEL_CONFIG, iterations=AL_ITERATIONS, k=AL_K,
        )
    run.ops()
    estimator = result.estimator
    batches = Batches(run, estimator, X_eval)
    batch, _ = batches.one_pass()
    record_peak_rss(run)

    # fit_s: the fit of the 2000 initial queries that active_learn starts with
    initial_fit = Repeats(run, "fit", FIT_REPEATS, gp.fit, X_train, y_train, KERNEL_CONFIG)
    labelling, loop = desk_labelling(run, data), ClosedLoop(run, estimator, X_eval)
    rotate(run, labelling, initial_fit, batches, loop)
    record_label_qps(run, labelling, len(data.raw))
    run.e2e["fit_s"] = float(np.median(initial_fit.times))
    eval_initial_mse = evaluation.mse_log(eval_cards, gp.predict(initial_fit.result, X_eval).card_estimate)
    batches.finish()
    loop = loop.finish()
    check_single_vs_batch(run, loop, batch.mean_log, batch.var_log, X_eval)
    record_accuracy(run, accuracy(eval_cards, batch.card_estimate, batch.ci_low, batch.ci_high))
    # Criterion 8 as the acceptance suite gates it: active_learn's own MSE
    # history on its 500-query test set. The same comparison on the whole
    # evaluation set is recorded beside it and gates nothing.
    history = result.mse_history
    run.check("criterion8_mse", int(criterion8_pass(history)), 1, mse_history=history,
              eval_initial_mse=eval_initial_mse,
              eval_final_mse=evaluation.mse_log(eval_cards, batch.card_estimate))
    model_roundtrip(run, estimator, X_eval, batch)
    check_desk_labels(run, data)
    run.model = model_stats(estimator, batch.var_log)
    run.final = {"X_train": estimator.X_train, "queries": data.labeled.queries(), "catalog": data.catalog,
                 "al_inputs": (X_train, y_train, X_pool, y_pool, X_test, test_cards)}


# ---------------------------------------------------------------------------
# join-pipeline
# ---------------------------------------------------------------------------


def run_cli(run: Run, step: str, argv: list[str]) -> None:
    """Run one CLI subcommand in-process; it must return 0."""
    sink = io.StringIO()
    with run.tracer.span(f"cli.{step}"), contextlib.redirect_stdout(sink):
        code = cli.main(argv)
    run.check(f"cli_{step}_exit", int(code == 0), 1)
    if code != 0:
        raise RuntimeError(f"cli {' '.join(argv)} exited {code}")


def cli_step(run: Run, step: str, argv: list[str]) -> float:
    """Run one CLI subcommand in-process; returns its time."""
    return timed(run_cli, run, step, argv)[1]


def run_join_pipeline(run: Run) -> None:
    work = run.work
    data_dir = work / "data"
    catalog_path = str(data_dir / "catalog.json")
    spec_path = work / "spec.json"

    def build():
        shutil.rmtree(data_dir, ignore_errors=True)
        spec_path.write_text(json.dumps(JOIN_SPEC, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        run_cli(run, "synth", ["synth", "--spec", str(spec_path), "--out-dir", str(data_dir),
                               "--seed", str(run.seed)])

    repeated_setup(run, build)

    seeds = sub_seeds(run.seed)
    p = {name: str(work / name) for name in (
        "queries.jsonl", "labeled.jsonl", "enc.train.bin", "enc.test.bin", "model.bin",
        "pred.jsonl", "report.json")}
    steps = [
        ("gen_queries", ["gen-queries", "--catalog", catalog_path, "--mode", "join", "--t", JOIN_T,
                         "--n", str(JOIN_PER_T), "--seed", str(seeds[0]), "--out", p["queries.jsonl"]]),
        ("label", ["label", "--catalog", catalog_path, "--queries", p["queries.jsonl"],
                   "--out", p["labeled.jsonl"], "--split", JOIN_SPLIT, "--split-seed", str(seeds[1])]),
        ("encode", ["encode", "--catalog", catalog_path, "--queries", str(work / "labeled.train.jsonl"),
                    "--out", p["enc.train.bin"]]),
        ("encode", ["encode", "--catalog", catalog_path, "--queries", str(work / "labeled.test.jsonl"),
                    "--out", p["enc.test.bin"]]),
        ("train", ["train", "--encoded", p["enc.train.bin"], "--model", p["model.bin"]]),
        ("predict", ["predict", "--model", p["model.bin"], "--encoded", p["enc.test.bin"],
                     "--out", p["pred.jsonl"]]),
        ("evaluate", ["evaluate", "--pred", p["pred.jsonl"], "--labeled", str(work / "labeled.test.jsonl"),
                      "--out", p["report.json"]]),
    ]
    step_s: dict[str, float] = {}
    with run.tracer.span("pipeline"):
        for step, argv in steps:
            step_s[step] = step_s.get(step, 0.0) + cli_step(run, step, argv)
    run.e2e["pipeline_s"] = float(sum(step_s.values()))
    record_peak_rss(run)

    n_raw = sum(1 for line in open(p["queries.jsonl"], encoding="utf-8") if '"_header"' not in line)
    run.e2e["label_qps"] = n_raw / step_s["label"]
    run.e2e["model_mib"] = os.path.getsize(p["model.bin"]) / MIB

    test, _ = workload.load_workload(work / "labeled.test.jsonl")
    preds = [json.loads(line) for line in open(p["pred.jsonl"], encoding="utf-8")]
    preds = [d for d in preds if "_header" not in d]
    with open(p["report.json"], encoding="utf-8") as fh:
        report = json.load(fh)
    run.check("evaluate_counts_all", int(report["count"] == len(test) == len(preds)), 1,
              report_count=report["count"], n_test=len(test))

    by_id = {d["query_id"]: d for d in preds}
    ordered = [by_id[it.query.id] for it in test]
    field = lambda key: np.asarray([d[key] for d in ordered], dtype=np.float64)  # noqa: E731
    record_accuracy(run, accuracy(test.cardinalities(), field("card_estimate"), field("ci_low"), field("ci_high")))

    estimator = gp.load(p["model.bin"])
    X_test, ids, _, _ = encoder.load_encoded(p["enc.test.bin"])
    pred_rows = [by_id[int(i)] for i in ids]
    run.ops(2)
    # The train and predict steps again (same inputs, same outputs), taking
    # turns with the closed loop; fit_s and predict_batch_qps are medians.
    argv_of = dict(steps)
    train, predict = (Repeats(run, f"{step}_repeat", CLI_REPEATS, run_cli, run, step, argv_of[step])
                      for step in ("train", "predict"))
    loop = ClosedLoop(run, estimator, X_test)
    rotate(run, train, predict, loop)
    run.e2e["fit_s"] = float(np.median([step_s["train"], *train.times]))
    run.e2e["predict_batch_qps"] = len(preds) / float(np.median([step_s["predict"], *predict.times]))
    loop = loop.finish()
    check_single_vs_batch(
        run, loop,
        np.asarray([d["mean_log"] for d in pred_rows]), np.asarray([d["var_log"] for d in pred_rows]), X_test,
    )

    labeled, _ = workload.load_workload(p["labeled.jsonl"])
    catalog = relstore.load_catalog_file(catalog_path)
    with run.tracer.span("checks"):
        checked, bad, by_joins = recount_labels(labeled.queries(), labeled.cardinalities(), catalog)
    run.check("label_recount", checked - bad, checked, by_joins=by_joins)
    run.model = model_stats(estimator, field("var_log"))
    run.final = {"X_train": estimator.X_train, "queries": labeled.queries(), "catalog": catalog}


RUNNERS = {
    "desk-fit": run_desk_fit,
    "join-pipeline": run_join_pipeline,
    "active-learn": run_active_learn,
}


# ---------------------------------------------------------------------------
# traced run: probes and per-layer metrics
# ---------------------------------------------------------------------------


def _pct_ms(spans, q) -> float:
    return float(np.percentile([duration(s) for s in spans], q) * 1000.0) if spans else 0.0


def _peak_n2(spans) -> float:
    """Largest tracemalloc peak of the spans, in n x n float64 matrices."""
    return max((s["mem_peak"] / (8.0 * s["attrs"]["n"] ** 2) for s in spans), default=0.0)


def probe_depths(run: Run) -> None:
    """Kernel builds at depth 0..L on the final training set, one span each."""
    X = run.final["X_train"]
    for depth in range(KERNEL_CONFIG.depth + 1):
        cfg = dataclasses.replace(KERNEL_CONFIG, depth=depth)
        with run.tracer.span(f"probe.depth{depth}"):
            kernel.kernel_matrix(X, None, cfg)


def probe_pool(run: Run) -> float:
    """execute_batch time with one thread over the library's default count."""
    queries = run.final["queries"][:POOL_PROBE_QUERIES]
    catalog = run.final["catalog"]
    with run.tracer.span("probe.pool_1"):
        t0 = time.perf_counter()
        oracle.execute_batch(queries, catalog, threads=1)
        one = time.perf_counter() - t0
    with run.tracer.span("probe.pool_default"):
        t0 = time.perf_counter()
        oracle.execute_batch(queries, catalog)
        default = time.perf_counter() - t0
    return one / default


def probe_al_base(run: Run) -> None:
    with run.tracer.span("probe.al_base"):
        evaluation.active_learn(*run.final["al_inputs"], KERNEL_CONFIG, iterations=0, k=AL_K)


def layer_metrics(run: Run, pool_speedup: float) -> dict:
    """Derive the per-layer metrics from the recorded spans."""
    ix = SpanIndex(run.tracer.spans)
    last_setup = ix.named("setup")[-1]
    pipeline = ix.named("pipeline")[-1]

    def main(name):
        """Spans of `name` in the last setup and in the measured path."""
        return ix.within(last_setup, name) + ix.within(pipeline, name)

    out: dict[str, float] = {}
    out["relstore.synth_s"] = total(ix.within(last_setup, "relstore.synth_relation"))
    out["workload.gen_s"] = total(main("workload.gen_single_relation") + main("workload.gen_join"))
    out["workload.split_s"] = total(main("workload.split"))
    finalize = main("workload.finalize")
    n_in = sum(s["attrs"]["n_in"] for s in finalize)
    n_out = sum(s["attrs"]["n_out"] for s in finalize)
    batches = [b for f in finalize for b in ix.within(f, "oracle.execute_batch")]
    n_unique = sum(b["attrs"]["n"] for b in batches)
    out["workload.dedup_kept"] = n_unique / n_in
    out["workload.nonempty_kept"] = n_out / n_unique
    out["oracle.batch_s"] = total(batches)
    executes = [e for b in batches for e in ix.within(b, "oracle.execute")]
    for joins in (0, 1, 2):
        group = [e for e in executes if e["attrs"]["joins"] == joins]
        if group:
            out[f"oracle.execute_ms_p50.j{joins}"] = _pct_ms(group, 50)
            out[f"oracle.execute_ms_p95.j{joins}"] = _pct_ms(group, 95)
    out["oracle.pool_speedup"] = pool_speedup
    out["encoder.batch_s"] = total(main("encoder.encode_batch"))
    out["encoder.encode_us_p50"] = _pct_ms(main("encoder.encode"), 50) * 1000.0

    fits = ix.within(pipeline, "gp.fit")
    builds = [k for f in fits for k in ix.children(f, "kernel.kernel_matrix")]
    out["kernel.train_build_s"] = total(builds)
    out["gp.fit_s"] = total(fits)
    out["gp.factor_s"] = out["gp.fit_s"] - out["kernel.train_build_s"]
    out["kernel.build_peak_n2"] = _peak_n2(builds)
    out["gp.fit_peak_n2"] = _peak_n2(fits)

    depth_s = []
    for depth in range(KERNEL_CONFIG.depth + 1):
        (probe,) = ix.named(f"probe.depth{depth}")
        depth_s.append(total(ix.within(probe, "kernel.kernel_matrix")))
        if depth == 0:
            nngp = ix.within(probe, "kernel.nngp_kernel")
            out["kernel.mirror_s"] = total(nngp) - total(ix.within(probe, "kernel.base_kernel"))
    out["kernel.depth0_s"] = depth_s[0]
    for depth in range(1, KERNEL_CONFIG.depth + 1):
        out[f"kernel.layer{depth}_s"] = depth_s[depth] - depth_s[depth - 1]

    batch_phase = "cli.predict" if run.name == "join-pipeline" else "predict_batch"
    out["kernel.cross_batch_s"] = float(np.median([
        total(ix.children(p, "kernel.kernel_matrix"))
        for batch in ix.named(batch_phase) for p in ix.within(batch, "gp.predict")
    ]))
    one_predicts = [p for one in ix.named("predict_one") for p in ix.children(one, "gp.predict")]
    out["gp.predict_one_ms_p50"] = _pct_ms(one_predicts, 50)
    out["gp.predict_one_ms_p95"] = _pct_ms(one_predicts, 95)
    out["kernel.cross_one_ms_p50"] = _pct_ms(
        [k for p in one_predicts for k in ix.children(p, "kernel.kernel_matrix")], 50
    )
    saves, loads = ix.named("gp.save"), ix.named("gp.load")
    out["gp.save_s"] = total(saves) / len(saves)
    out["gp.load_s"] = total(loads) / len(loads)
    out["gp.model_bytes"] = int(round(run.e2e["model_mib"] * MIB))

    out.update(run.model)

    if run.name == "join-pipeline":
        for step in ("synth", "gen_queries", "label", "encode", "train", "predict", "evaluate"):
            spans = ix.within(last_setup, f"cli.{step}") + ix.within(pipeline, f"cli.{step}")
            out[f"cli.{step}_s"] = total(spans)
        out["queries.jsonl_read_s"] = total(main("queries.read_queries_jsonl"))
        out["queries.jsonl_write_s"] = total(main("queries.write_queries_jsonl"))
    if run.name == "active-learn":
        (base,) = ix.named("probe.al_base")
        out["evaluation.al_base_s"] = duration(base)
        out["evaluation.al_iter_s"] = (run.e2e["pipeline_s"] - duration(base)) / AL_ITERATIONS
    return out


def model_stats(estimator, var_log) -> dict:
    """Jitter rung, clamped variances and log marginal likelihood of a model."""
    mean_diag = float(np.mean(kernel.kernel_diag(estimator.X_train, estimator.config)))
    mean_diag += estimator.config.noise_sq
    return {
        "gp.jitter": estimator.jitter / mean_diag,
        "gp.clamped_vars": int(np.count_nonzero(np.asarray(var_log) == 0.0)),
        "gp.lml": lml(estimator),
    }


def run_workload(name: str, seed: int, seconds: float, tracer, out_dir: Path) -> Run:
    """Run one workload; a recording tracer adds probes and per-layer metrics."""
    run = Run(name, seed, seconds, tracer, out_dir)
    try:
        with tracer.active():
            RUNNERS[name](run)
            if tracer.recording:
                probe_depths(run)
                if name == "active-learn":
                    probe_al_base(run)
        if tracer.recording:
            run.layers = layer_metrics(run, probe_pool(run))
    finally:
        run.close()
    return run
