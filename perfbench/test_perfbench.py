"""Tests of the benchmark's own code: metric output, checks, tracer, workloads.

Run with `python -m pytest perfbench -q`. The workload tests shrink the
input sizes so the whole file runs in seconds.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run  # puts the package's src directory on sys.path
import tracing
import workloads
from nngp_card import gp, kernel, oracle, relstore
from nngp_card.queries import JoinCondition, Query, RangeFilter

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# metric declarations and output
# ---------------------------------------------------------------------------


def test_benchmark_json_declares_the_reported_metrics():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert e2e == workloads.E2E_UNITS
    assert layers == workloads.LAYER_UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.RUNNERS)
    assert max(m["bound"] for m in BENCHMARK["end_to_end"]) == next(
        m["bound"] for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"
    )


class _FakeRun:
    def __init__(self, failed=0):
        self.e2e = {name: 1.5 for name in {**workloads.E2E_UNITS, **workloads.E2E_EXTRA_UNITS}}
        self.layers = {name: 2.5 for name in {**workloads.LAYER_UNITS, "cli.label_s": "s"}}
        self.checks = {"label_recount": {"passed": 10 - failed, "total": 10}}
        self.accuracy, self.model = {}, {}
        self.attempted, self.failed = 20, failed


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(trace, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(workloads, "run_workload", lambda *a: _FakeRun())
    args = run.argparse.Namespace(workload="desk-fit", seed=3, seconds=1.0, trace=trace)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.run_one(args) == 0
    lines = out.getvalue().strip().splitlines()
    units = workloads.LAYER_UNITS if trace else workloads.E2E_UNITS
    printed = units if trace else {**units, **workloads.E2E_EXTRA_UNITS}
    for name, unit in printed.items():
        assert any(line.split() == [name, line.split()[1], unit] for line in lines), name
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["metrics"] == {n: {"value": 2.5 if trace else 1.5, "unit": u} for n, u in units.items()}
    written = json.loads((tmp_path / f"{'trace' if trace else 'result'}-desk-fit-seed3.json").read_text())
    assert written["env"]["seed"] == 3 and written["env"]["nproc"] >= 1


def test_a_failed_check_fails_the_run(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(workloads, "run_workload", lambda *a: _FakeRun(failed=1))
    args = run.argparse.Namespace(workload="desk-fit", seed=0, seconds=1.0, trace=0)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.run_one(args) == 1
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1


def test_exits_without_result_when_the_package_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-fit", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------------------------------
# correctness checks reject wrong outputs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def star():
    spec = workloads.JOIN_SPEC
    rels = tuple(
        relstore.synth_relation(7 + i, r["rows"] // 20, r["columns"], name=r["name"])
        for i, r in enumerate(spec["relations"])
    )
    catalog = relstore.SchemaCatalog(rels)
    for left, right in spec["join_pairs"]:
        catalog = relstore.register_join_pair(catalog, left, right)
    from nngp_card import workload

    queries = [q for t in (0, 1, 2) for q in workload.gen_join(catalog, t, 20, seed=t)]
    labels = [oracle.execute(q, catalog) for q in queries]
    return catalog, queries, labels


def test_recount_accepts_true_labels_and_catches_one_perturbed_label(star):
    catalog, queries, labels = star
    checked, bad, by_joins = workloads.recount_labels(queries, labels, catalog, sample=60)
    assert checked == 60 and bad == 0
    assert set(by_joins) == {"j0", "j1", "j2"}
    wrong = list(labels)
    wrong[int(np.random.default_rng(0).permutation(len(labels))[0])] += 1
    assert workloads.recount_labels(queries, wrong, catalog, sample=60)[1] == 1


def test_nested_intermediate_follows_the_left_deep_name_order(star):
    catalog, _, _ = star
    sales = catalog.relation("sales")
    single = Query(relations=("sales",), selections=(("sales.qty", RangeFilter(1.0, 10.0)),))
    assert workloads.nested_intermediate(single, catalog) == 0
    pair = catalog.pair_index("sales.cust_id", "cust.cid")
    joined = Query(relations=("cust", "sales"), joins=(JoinCondition(pair, "="),))
    assert workloads.nested_intermediate(joined, catalog) == catalog.relation("cust").n_rows * sales.n_rows


def test_prediction_check_catches_a_corrupted_variance():
    mean = np.array([3.0, 5.0, 0.0])
    var = np.array([0.01, 0.02, 0.0])
    prior = np.ones(3)
    assert workloads.prediction_mismatches(mean, var, mean * (1 + 1e-12), var, prior) == 0
    corrupted = var.copy()
    corrupted[1] *= 1.001
    assert workloads.prediction_mismatches(mean, var, mean, corrupted, prior) == 1
    assert workloads.prediction_mismatches(mean, var, mean + np.array([0, 0, 1e-6]), var, prior) == 1


def test_accuracy_gates_and_coverage():
    true = np.array([10.0, 100.0, 1000.0, 5.0])
    acc = workloads.accuracy(true, true * 1.5, np.log(true) - 1, np.log(true) + 1)
    assert acc["q_error_p50"] == pytest.approx(1.5) and acc["coverage"] == 1.0
    assert acc["ci95_coverage_gap"] == pytest.approx(0.05)
    assert workloads.desk_gates_pass(acc)
    assert not workloads.desk_gates_pass(workloads.accuracy(true, true * 3.0, np.log(true), np.log(true)))


def test_criterion8_fails_when_active_learning_ends_worse():
    assert workloads.criterion8_pass([0.30, 0.29, 0.29, 0.28])
    assert workloads.criterion8_pass([0.30, 0.31, 0.32, 0.30])
    assert not workloads.criterion8_pass([0.2155, 0.2150, 0.2160, 0.2164])
    assert not workloads.criterion8_pass([0.30, 0.29])


def test_lml_matches_the_dense_formula():
    rng = np.random.default_rng(2)
    X, y = rng.uniform(0, 1, (30, 4)), rng.normal(size=30)
    est = gp.fit(X, y, kernel.KernelConfig())
    K = kernel.kernel_matrix(X, None, est.config)
    _, logdet = np.linalg.slogdet(K)
    dense = -0.5 * y @ np.linalg.solve(K, y) - 0.5 * logdet - 15 * np.log(2 * np.pi)
    assert workloads.lml(est) == pytest.approx(dense, rel=1e-9)


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


def test_tracer_nests_spans_measures_fit_memory_and_restores_functions():
    original = gp.kernel_matrix
    tracer = tracing.Tracer("t1")
    X, y = np.random.default_rng(1).uniform(0, 1, (200, 5)), np.zeros(200)
    with tracer.active():
        assert gp.kernel_matrix is not original
        with tracer.span("phase"):
            gp.fit(X, y, kernel.KernelConfig())
    assert gp.kernel_matrix is original
    ix = tracing.SpanIndex(tracer.spans)
    (phase,) = ix.named("phase")
    (fit,) = ix.within(phase, "gp.fit")
    (build,) = ix.children(fit, "kernel.kernel_matrix")
    assert fit["parent"] == phase["id"] and fit["run"] == "t1"
    assert fit["start"] <= build["start"] <= build["end"] <= fit["end"]
    # the noise-augmented kernel alone is one n x n float64 buffer
    assert build["mem_peak"] >= 8 * 200 * 200
    assert fit["mem_peak"] >= build["mem_peak"]


# ---------------------------------------------------------------------------
# whole workloads at reduced size
# ---------------------------------------------------------------------------


@pytest.fixture
def small(monkeypatch):
    for name, value in {
        "DESK_PER_D": 120, "DESK_FIT_N": 300, "EVAL_N": 40, "PREDICT_BATCH": 15,
        "AL_TRAIN_N": 120, "AL_POOL_N": 90, "AL_TEST_N": 20, "AL_K": 20, "FIT_REPEATS": 1, "LABEL_REPEATS": 1,
        "CLI_REPEATS": 1, "LOOP_TURN_S": 0.05,
        "JOIN_PER_T": 60, "RECOUNT_SAMPLE": 20, "POOL_PROBE_QUERIES": 50,
        "SETUP_REPEATS": 2, "SETUP_MIN_S": 0.0, "MIN_SINGLE_SAMPLES": 20,
    }.items():
        monkeypatch.setattr(workloads, name, value)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("traced", [False, True])
def test_workload_runs_and_reports_every_metric(name, traced, small, tmp_path):
    tracer = tracing.Tracer(name) if traced else tracing.NullTracer()
    result = workloads.run_workload(name, 5, 0.01, tracer, tmp_path)
    assert set(result.e2e) == set(workloads.E2E_UNITS) | set(workloads.E2E_EXTRA_UNITS)
    assert all(np.isfinite(v) for v in result.e2e.values())
    for check in ("label_recount", "single_vs_batch"):
        assert result.checks[check]["passed"] == result.checks[check]["total"] > 0
    if traced:
        assert set(workloads.LAYER_UNITS) <= set(result.layers)
        assert result.layers["kernel.build_peak_n2"] > 0
    else:
        assert result.layers == {}
    assert list(tmp_path.iterdir()) == []  # the run removed its work directory
