"""End-to-end CLI pipeline: golden path, determinism, guards, selfcheck."""

import dataclasses
import json
import logging
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nngp_card import artifact, cli, oracle, relstore
from nngp_card.kernel import KernelConfig
from nngp_card.queries import Query, RangeFilter
from nngp_card.workload import WorkloadItem, load_workload, save_workload

SPEC = {
    "relations": [
        {
            "name": "emp",
            "rows": 400,
            "columns": [
                {"name": "age", "kind": "uniform", "lo": 18, "hi": 65},
                {"name": "salary", "kind": "mixture", "components": [
                    {"weight": 0.6, "mean": 40, "std": 8},
                    {"weight": 0.4, "mean": 90, "std": 15},
                ]},
                {"name": "grp", "kind": "uniform_int", "lo": 0, "hi": 19},
                {"name": "dept", "kind": "categorical",
                 "values": [f"d{i:02d}" for i in range(20)]},
            ],
        },
        {
            "name": "grp",
            "rows": 60,
            "columns": [
                {"name": "gid", "kind": "uniform_int", "lo": 0, "hi": 19},
                {"name": "budget", "kind": "uniform", "lo": 0, "hi": 1000},
                {"name": "tag", "kind": "categorical", "values": ["a", "b", "c", "d", "e"]},
            ],
        },
    ],
    "join_pairs": [["emp.grp", "grp.gid"]],
}


def run(args, expect=0, capsys=None):
    code = cli.main([str(a) for a in args])
    assert code == expect, f"command {args} exited {code}"
    if capsys is not None:
        return capsys.readouterr()
    return None


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """Golden path: synth -> gen-queries -> label(+split) -> encode -> train."""
    root = tmp_path_factory.mktemp("pipeline")
    (root / "spec.json").write_text(json.dumps(SPEC), encoding="utf-8")
    data = root / "data"
    run(["synth", "--spec", root / "spec.json", "--out-dir", data, "--seed", 3])
    catalog = data / "catalog.json"

    run([
        "gen-queries", "--catalog", catalog, "--mode", "single", "--relation", "emp",
        "--d", "2,3", "--n", 260, "--seed", 1, "--out", root / "qs.jsonl",
    ])
    run([
        "gen-queries", "--catalog", catalog, "--mode", "join",
        "--t", "0,1", "--n", 120, "--seed", 2, "--out", root / "qj.jsonl",
    ])
    # merge the two workloads into one file (headers are skipped on read)
    merged = root / "queries.jsonl"
    merged.write_text(
        (root / "qs.jsonl").read_text() + (root / "qj.jsonl").read_text(), encoding="utf-8"
    )
    run([
        "label", "--catalog", catalog, "--queries", merged, "--out", root / "labeled.jsonl",
        "--split", "0.6,0.2,0.2", "--split-seed", 5, "--split-out-prefix", root / "labeled",
    ])
    for part in ("train", "valid", "test"):
        run([
            "encode", "--catalog", catalog, "--queries", root / f"labeled.{part}.jsonl",
            "--out", root / f"enc.{part}.bin",
        ])
    run([
        "train", "--encoded", root / "enc.train.bin", "--model", root / "model.bin",
    ])
    return root, catalog


class TestGoldenPath:
    def test_full_pipeline_completes_and_reports(self, pipeline_dir, capsys):
        root, catalog = pipeline_dir
        run([
            "predict", "--model", root / "model.bin", "--encoded", root / "enc.test.bin",
            "--out", root / "pred.jsonl",
        ])
        out = run([
            "evaluate", "--pred", root / "pred.jsonl", "--labeled", root / "labeled.test.jsonl",
            "--out", root / "report.json", "--scatter", root / "scatter.csv",
        ], capsys=capsys)
        assert "all" in out.out
        report = json.loads((root / "report.json").read_text())
        assert report["q_error_stats"]["count"] > 50
        assert (root / "scatter.csv").read_text().startswith("query_id,cov,q_error,n_conditions")

    def test_predict_record_fields(self, pipeline_dir):
        root, _ = pipeline_dir
        run([
            "predict", "--model", root / "model.bin", "--encoded", root / "enc.valid.bin",
            "--out", root / "pred_valid.jsonl",
        ])
        lines = (root / "pred_valid.jsonl").read_text().strip().splitlines()
        assert "_header" in lines[0]
        record = json.loads(lines[1])
        assert set(record) == {
            "query_id", "card_estimate", "mean_log", "var_log", "ci_low", "ci_high", "cov",
        }
        assert record["ci_low"] <= record["mean_log"] <= record["ci_high"]

    def test_infinite_cov_is_written_as_null(self, pipeline_dir, tmp_path, monkeypatch):
        # the CoV of a zero mean is infinite; the file holds null and evaluate reads it back as inf
        root, _ = pipeline_dir
        real = cli.gp.predict

        def first_cov_infinite(*args, **kwargs):
            prediction = real(*args, **kwargs)
            return dataclasses.replace(prediction, cov=np.concatenate([[np.inf], prediction.cov[1:]]))

        monkeypatch.setattr(cli.gp, "predict", first_cov_infinite)
        pred = tmp_path / "pred.jsonl"
        run(["predict", "--model", root / "model.bin", "--encoded", root / "enc.test.bin", "--out", pred])
        records = [json.loads(line) for line in pred.read_text(encoding="utf-8").splitlines()[1:]]
        assert records[0]["cov"] is None and all(type(r["cov"]) is float for r in records[1:])
        run(["evaluate", "--pred", pred, "--labeled", root / "labeled.test.jsonl", "--scatter", tmp_path / "s.csv"])
        rows = (tmp_path / "s.csv").read_text(encoding="utf-8").splitlines()
        assert rows[1].split(",")[:2] == [str(records[0]["query_id"]), "inf"]

    def test_labeled_splits_partition_the_workload(self, pipeline_dir):
        root, _ = pipeline_dir
        full, _ = load_workload(root / "labeled.jsonl")
        parts = [load_workload(root / f"labeled.{p}.jsonl")[0] for p in ("train", "valid", "test")]
        ids = [set(it.query.id for it in part.items) for part in parts]
        assert ids[0] | ids[1] | ids[2] == {it.query.id for it in full.items}
        assert sum(map(len, parts)) == len(full)

    def test_interpolation_surfaced_end_to_end(self, pipeline_dir):
        # noise-free training reproduces training cardinalities within 1%
        root, catalog = pipeline_dir
        run([
            "train", "--encoded", root / "enc.train.bin", "--model", root / "model0.bin",
            "--noise-sq", 0.0,
        ])
        run([
            "predict", "--model", root / "model0.bin", "--encoded", root / "enc.train.bin",
            "--out", root / "pred_train.jsonl",
        ])
        train, _ = load_workload(root / "labeled.train.jsonl")
        cards = {it.query.id: it.cardinality for it in train.items}
        checked = 0
        for line in (root / "pred_train.jsonl").read_text().splitlines():
            doc = json.loads(line)
            if "_header" in doc:
                continue
            assert doc["card_estimate"] == pytest.approx(cards[doc["query_id"]], rel=0.01)
            checked += 1
        assert checked == len(train)

    def test_evaluate_matches_module_metrics(self, pipeline_dir, capsys):
        root, _ = pipeline_dir
        out = run([
            "evaluate", "--pred", root / "pred.jsonl", "--labeled", root / "labeled.test.jsonl",
        ], capsys=capsys)
        from nngp_card.evaluation import QErrorStats, q_errors

        test_wl, _ = load_workload(root / "labeled.test.jsonl")
        preds = {}
        for line in (root / "pred.jsonl").read_text().splitlines():
            doc = json.loads(line)
            if "_header" not in doc:
                preds[doc["query_id"]] = doc["card_estimate"]
        true = test_wl.cardinalities().astype(float)
        est = np.array([preds[it.query.id] for it in test_wl.items])
        stats = QErrorStats.from_errors(q_errors(true, est))
        report = json.loads((root / "report.json").read_text())
        assert report["q_error_stats"]["quantiles"]["50"] == pytest.approx(stats.quantiles[50])
        assert report["q_error_stats"]["geometric_mean"] == pytest.approx(stats.geometric_mean)


class TestDeterminism:
    def _run_pipeline(self, root):
        (root / "spec.json").write_text(json.dumps(SPEC), encoding="utf-8")
        data = root / "data"
        run(["synth", "--spec", root / "spec.json", "--out-dir", data, "--seed", 3])
        run([
            "gen-queries", "--catalog", data / "catalog.json", "--mode", "single",
            "--relation", "emp", "--d", "2", "--n", 80, "--seed", 1, "--out", root / "q.jsonl",
        ])
        run([
            "label", "--catalog", data / "catalog.json", "--queries", root / "q.jsonl",
            "--out", root / "labeled.jsonl",
        ])
        run([
            "encode", "--catalog", data / "catalog.json", "--queries", root / "labeled.jsonl",
            "--out", root / "enc.bin",
        ])
        run(["train", "--encoded", root / "enc.bin", "--model", root / "model.bin"])
        run([
            "predict", "--model", root / "model.bin", "--encoded", root / "enc.bin",
            "--out", root / "pred.jsonl",
        ])
        run([
            "evaluate", "--pred", root / "pred.jsonl", "--labeled", root / "labeled.jsonl",
            "--out", root / "report.json",
        ])

    def test_identical_seeds_give_byte_identical_outputs(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir()
        b.mkdir()
        self._run_pipeline(a)
        self._run_pipeline(b)
        names = ("data/emp.csv", "data/catalog.json", "data/emp.schema.json", "data/grp.schema.json",
                 "q.jsonl", "labeled.jsonl", "enc.bin", "model.bin", "pred.jsonl", "report.json")
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestGuards:
    def test_unknown_config_key_rejected(self, pipeline_dir, tmp_path, capsys):
        root, _ = pipeline_dir
        cfg = tmp_path / "cfg.json"
        cases = [
            ('{"kernel": {"sigma_w_sq": 1.0, "misspelled": 2}}', "unknown kernel config keys"),
            ('{"encoder": {"normalize": true}}', "unknown encoder config keys"),
        ]
        for doc, message in cases:
            cfg.write_text(doc, encoding="utf-8")
            code = cli.main([
                "train", "--encoded", str(root / "enc.train.bin"),
                "--model", str(tmp_path / "m.bin"), "--config", str(cfg),
            ])
            assert code == 1
            assert message in capsys.readouterr().err

    def test_unknown_config_section_rejected(self, pipeline_dir, tmp_path, capsys):
        root, _ = pipeline_dir
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"kernle": {}}', encoding="utf-8")
        code = cli.main([
            "train", "--encoded", str(root / "enc.train.bin"),
            "--model", str(tmp_path / "m.bin"), "--config", str(cfg),
        ])
        assert code == 1

    def test_config_delta_rejected(self, pipeline_dir, tmp_path, capsys):
        # the interval level is set by `predict --delta` only
        root, catalog = pipeline_dir
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"delta": 0.9}', encoding="utf-8")
        commands = [
            ["train", "--encoded", root / "enc.train.bin", "--model", tmp_path / "m.bin"],
            ["encode", "--catalog", catalog, "--queries", root / "labeled.test.jsonl", "--out", tmp_path / "e.bin"],
        ]
        for command in commands:
            assert cli.main([str(a) for a in command + ["--config", cfg]]) == 1
            assert "unknown config sections: ['delta']" in capsys.readouterr().err
        assert not (tmp_path / "m.bin").exists() and not (tmp_path / "e.bin").exists()

    def test_encode_header_records_only_encoder_settings(self, pipeline_dir):
        root, _ = pipeline_dir
        header = json.loads((root / "enc.train.bin").read_bytes().split(b"\n", 1)[0])
        assert header["config"] == {"encoder": {"chunk_size": 8, "bitmap_threshold": 16}}

    def test_bad_prediction_file_names_path_and_line(self, pipeline_dir, tmp_path, capsys):
        root, _ = pipeline_dir
        pred = tmp_path / "pred.jsonl"
        run(["predict", "--model", root / "model.bin", "--encoded", root / "enc.test.bin", "--out", pred])
        lines = pred.read_text(encoding="utf-8").splitlines(keepends=True)
        first = json.loads(lines[1])
        fresh = dict(first, query_id=10**9)  # an id no other record has
        cases = [
            ("{not json\n", "invalid JSON"),
            (json.dumps({k: v for k, v in fresh.items() if k != "var_log"}) + "\n", "missing key 'var_log'"),
            (json.dumps({k: v for k, v in fresh.items() if k != "query_id"}) + "\n", "missing key 'query_id'"),
            (json.dumps(dict(fresh, query_id="7")) + "\n", "query_id must be an integer, got '7'"),
            (json.dumps(dict(fresh, mean_log="high")) + "\n", "mean_log must be a finite number, got 'high'"),
            (lines[1], f"duplicate query_id {first['query_id']}"),
            # values of the wrong JSON type are rejected, not coerced; only cov may be null
            (json.dumps(dict(fresh, mean_log="1.5")) + "\n", "mean_log must be a finite number, got '1.5'"),
            (json.dumps(dict(fresh, var_log=True)) + "\n", "var_log must be a finite number, got True"),
            (json.dumps(dict(fresh, card_estimate=None)) + "\n", "card_estimate must be a finite number, got None"),
            (json.dumps(dict(fresh, cov="0.5")) + "\n", "cov must be a finite number, got '0.5'"),
            (json.dumps(dict(fresh, ci_low=0.0)).replace('"ci_low": 0.0', '"ci_low": 1e999') + "\n",
             "ci_low must be a finite number, got inf"),
            (json.dumps(dict(fresh, ci_high=10**400)) + "\n", "int too large to convert to float"),
        ]
        bad = tmp_path / "bad.jsonl"
        for line, message in cases:
            bad.write_text("".join(lines[:3]) + line + "".join(lines[3:]), encoding="utf-8")
            code = cli.main(["evaluate", "--pred", str(bad), "--labeled", str(root / "labeled.test.jsonl")])
            assert code == 1, line
            error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert error["error"] == "PredictionFileError"
            assert error["message"].startswith(f"{bad}: line 4: ") and message in error["message"]

    def test_bad_query_file_names_path_and_line(self, pipeline_dir, tmp_path, capsys):
        root, catalog = pipeline_dir
        lines = (root / "qs.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        doc = json.loads(lines[1])
        ranged = next(sel for sel in doc["selections"] if "range" in sel)
        coerced = json.dumps(dict(doc, selections=[dict(ranged, range=[True, "3"])])) + "\n"
        del doc["selections"][0]["attr"]
        bad = tmp_path / "bad.jsonl"
        for line, message in (("{not json\n", "invalid JSON"), (json.dumps(doc) + "\n", "missing key 'attr'"),
                              (coerced, "range must be a list of two numbers, got [True, '3']")):
            bad.write_text("".join(lines[:2]) + line, encoding="utf-8")
            code = cli.main(["label", "--catalog", str(catalog), "--queries", str(bad), "--out", str(tmp_path / "l.jsonl")])
            assert code == 1
            error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert error["error"] == "QueryError"
            assert error["message"].startswith(f"{bad}: line 3: ") and message in error["message"]

    def test_query_file_that_is_not_utf8(self, pipeline_dir, tmp_path, capsys):
        root, catalog = pipeline_dir
        lines = (root / "qs.jsonl").read_bytes().splitlines(keepends=True)
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"".join(lines[:2]) + b'{"id": "\xff"}\n' + b"".join(lines[2:]))
        argv = ["encode", "--catalog", catalog, "--queries", bad, "--out", tmp_path / "e.bin"]
        doc = fails_naming(capsys, bad, argv, "QueryError")
        assert doc["message"] == f"{bad}: not UTF-8 text"

    def test_spec_without_rows_is_structured_error(self, tmp_path, capsys):
        spec = {"relations": [SPEC["relations"][0], {k: v for k, v in SPEC["relations"][1].items() if k != "rows"}]}
        (tmp_path / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        code = cli.main(["synth", "--spec", str(tmp_path / "spec.json"), "--out-dir", str(tmp_path / "d")])
        assert code == 1
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "IngestError"
        assert str(tmp_path / "spec.json") in error["message"] and "'rows'" in error["message"]

    @pytest.mark.parametrize("fractions", ["nan,0.5,0.5", "0.5,inf,0.5"])
    def test_label_rejects_non_finite_split(self, pipeline_dir, tmp_path, capsys, fractions):
        root, catalog = pipeline_dir
        argv = ["label", "--catalog", catalog, "--queries", root / "qs.jsonl", "--out", tmp_path / "l.jsonl",
                "--split", fractions, "--split-out-prefix", tmp_path / "l"]
        fails_naming(capsys, "must lie in [0, 1]", argv, "WorkloadError")

    @pytest.mark.parametrize("fractions", ["nan,0.5,0.5", "0.5,0.6,0.2"])
    def test_label_checks_split_before_labeling(self, pipeline_dir, tmp_path, capsys, monkeypatch, fractions):
        # a bad split fails before the catalog is read or any query is labeled
        def refuse(*args, **kwargs):
            raise AssertionError("label read the catalog or labeled queries before checking --split")

        monkeypatch.setattr(cli, "load_catalog_file", refuse)
        monkeypatch.setattr(oracle, "execute_batch", refuse)
        root, catalog = pipeline_dir
        argv = ["label", "--catalog", catalog, "--queries", root / "qs.jsonl", "--out", tmp_path / "l.jsonl",
                "--split", fractions]
        fails_naming(capsys, "must lie in [0, 1] and sum to 1", argv, "WorkloadError")

    @pytest.mark.parametrize(
        "fractions, error, named",
        [
            pytest.param("a,0.5,0.5", "usage", "--split expects comma-separated float values", id="non-number"),
            pytest.param("0.5,0.5", "usage", "--split expects 3 comma-separated values", id="two-values"),
            pytest.param("0.5,0.6,0.2", "WorkloadError", "sum to 1", id="sum-above-one"),
        ],
    )
    def test_label_rejects_bad_split(self, pipeline_dir, tmp_path, capsys, fractions, error, named):
        # a bad split leaves no --out file: it is parsed first and run before the first write
        root, catalog = pipeline_dir
        argv = ["label", "--catalog", catalog, "--queries", root / "qs.jsonl", "--out", tmp_path / "l.jsonl",
                "--split", fractions]
        fails_naming(capsys, named, argv, error)

    @pytest.mark.parametrize(
        "flags, error, named",
        [
            pytest.param(["--mode", "join", "--conds-per-relation", -1], "WorkloadError",
                         "conds_per_relation must be >= 0, got -1", id="negative-conds-per-relation"),
            pytest.param(["--mode", "join", "--t", "0,x"], "usage", "--t expects", id="non-integer-t"),
            pytest.param(["--mode", "single", "--relation", "emp", "--d", "2.5"], "usage", "--d expects",
                         id="non-integer-d"),
        ],
    )
    def test_gen_queries_rejects_bad_flags(self, pipeline_dir, tmp_path, capsys, flags, error, named):
        _, catalog = pipeline_dir
        argv = ["gen-queries", "--catalog", catalog, "--n", 5, "--out", tmp_path / "q.jsonl", *flags]
        fails_naming(capsys, named, argv, error)

    def test_catalog_entry_without_schema_is_structured_error(self, pipeline_dir, tmp_path, capsys):
        root, catalog = pipeline_dir
        doc = json.loads(catalog.read_text(encoding="utf-8"))
        del doc["relations"][1]["schema"]
        bad = catalog.parent / "bad_catalog.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        code = cli.main([
            "gen-queries", "--catalog", str(bad), "--mode", "join", "--n", "5", "--out", str(tmp_path / "q.jsonl"),
        ])
        assert code == 1
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "CatalogError"
        assert str(bad) in error["message"] and "'schema'" in error["message"]

    def test_layout_hash_mismatch_rejected_at_predict(self, pipeline_dir, tmp_path, capsys):
        root, catalog = pipeline_dir
        # different chunk size -> different layout hash for the m=20 domain
        run([
            "encode", "--catalog", catalog, "--queries", root / "labeled.test.jsonl",
            "--out", tmp_path / "enc4.bin", "--chunk-size", 4,
        ])
        code = cli.main([
            "predict", "--model", str(root / "model.bin"),
            "--encoded", str(tmp_path / "enc4.bin"), "--out", str(tmp_path / "p.jsonl"),
        ])
        assert code == 1
        assert "layout mismatch" in capsys.readouterr().err

    def test_train_requires_targets(self, pipeline_dir, tmp_path, capsys):
        root, catalog = pipeline_dir
        run([
            "gen-queries", "--catalog", catalog, "--mode", "single", "--relation", "emp",
            "--d", "2", "--n", 5, "--seed", 9, "--out", tmp_path / "unlabeled.jsonl",
        ])
        run([
            "encode", "--catalog", catalog, "--queries", tmp_path / "unlabeled.jsonl",
            "--out", tmp_path / "enc_unlabeled.bin",
        ])
        code = cli.main([
            "train", "--encoded", str(tmp_path / "enc_unlabeled.bin"),
            "--model", str(tmp_path / "m.bin"),
        ])
        assert code == 1
        assert "no targets" in capsys.readouterr().err

    def test_corrupt_encoded_file_is_structured_error(self, pipeline_dir, tmp_path, capsys):
        root, _ = pipeline_dir
        data = (root / "enc.train.bin").read_bytes()
        flipped = bytearray(data)
        flipped[data.index(b"\n") + 1 + 8 * 3] ^= 0x01  # a matrix entry
        bad = tmp_path / "enc.bin"
        commands = [
            ["train", "--encoded", bad, "--model", tmp_path / "m.bin"],
            ["predict", "--model", root / "model.bin", "--encoded", bad, "--out", tmp_path / "p.jsonl"],
        ]
        for payload, message in ((bytes(flipped), "does not match its recorded hash"), (data[:-8], "truncated")):
            bad.write_bytes(payload)
            for command in commands:
                assert cli.main([str(a) for a in command]) == 1
                error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
                assert error["error"] == "EncodingError" and message in error["message"]
        assert not (tmp_path / "m.bin").exists() and not (tmp_path / "p.jsonl").exists()

    def test_corrupt_model_header_is_structured_error(self, pipeline_dir, tmp_path, capsys):
        root, _ = pipeline_dir
        head, payload = (root / "model.bin").read_bytes().split(b"\n", 1)
        header = json.loads(head)
        flipped = head.replace(b'"noise_sq": 0.001', b'"noise_sq": 0.003')
        assert flipped != head
        cases = [(flipped, "header does not match its recorded hash")]
        # headers that a writer could have hashed: no config, an unknown config key
        for config in (None, dict(header["config"], bogus=1)):
            bad = {k: v for k, v in header.items() if k not in ("header_hash", "config")}
            if config is not None:
                bad["config"] = config
            bad["header_hash"] = artifact._header_hash(bad)
            cases.append((json.dumps(bad, sort_keys=True).encode(), "missing or corrupt header"))
        bad_path = tmp_path / "model.bin"
        for bad_head, message in cases:
            bad_path.write_bytes(bad_head + b"\n" + payload)
            code = cli.main([
                "predict", "--model", str(bad_path), "--encoded", str(root / "enc.test.bin"),
                "--out", str(tmp_path / "p.jsonl"),
            ])
            assert code == 1
            error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert error["error"] == "ModelIOError" and message in error["message"]
        assert not (tmp_path / "p.jsonl").exists()

    def test_predict_inputs_are_the_recorded_file_hashes(self, pipeline_dir, tmp_path):
        root, _ = pipeline_dir
        run([
            "predict", "--model", root / "model.bin", "--encoded", root / "enc.test.bin",
            "--out", tmp_path / "pred.jsonl",
        ])
        inputs = json.loads((tmp_path / "pred.jsonl").read_text().splitlines()[0])["_header"]["inputs"]
        for key, name in (("model", "model.bin"), ("encoded", "enc.test.bin")):
            recorded = json.loads((root / name).read_bytes().split(b"\n", 1)[0])["header_hash"]
            assert inputs[key] == recorded

    def test_evaluate_requires_the_predictions_header(self, pipeline_dir, tmp_path, capsys):
        root, _ = pipeline_dir
        run([
            "predict", "--model", root / "model.bin", "--encoded", root / "enc.test.bin",
            "--out", tmp_path / "pred.jsonl", "--delta", 0.8,
        ])
        lines = (tmp_path / "pred.jsonl").read_text().splitlines(keepends=True)
        assert json.loads(lines[0])["_header"]["delta"] == 0.8
        run(["evaluate", "--pred", tmp_path / "pred.jsonl", "--labeled", root / "labeled.test.jsonl"])
        (tmp_path / "bare.jsonl").write_text("".join(lines[1:]), encoding="utf-8")
        code = cli.main([
            "evaluate", "--pred", str(tmp_path / "bare.jsonl"), "--labeled", str(root / "labeled.test.jsonl"),
        ])
        assert code == 1
        assert "no predictions header" in capsys.readouterr().err

    def test_missing_file_is_structured_error(self, tmp_path, capsys):
        code = cli.main([
            "ingest", "--csv", str(tmp_path / "nope.csv"), "--schema", str(tmp_path / "nope.json"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert json.loads(err.strip().splitlines()[-1])["error"] == "FileNotFoundError"

    def test_out_dir_that_is_a_file(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SPEC), encoding="utf-8")
        taken = tmp_path / "taken"
        taken.write_text("a file\n", encoding="utf-8")
        fails_naming(capsys, taken, ["synth", "--spec", spec, "--out-dir", taken], "FileExistsError")
        fails_naming(capsys, taken / "sub", ["synth", "--spec", spec, "--out-dir", taken / "sub"],
                     "NotADirectoryError")

    def test_relation_file_name_too_long_for_out_dir(self, tmp_path, capsys):
        # the second relation's name fails the file system's name limit: synth
        # writes nothing for the first one either, nor creates --out-dir
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"relations": [dict(S, name="a"), dict(S, name="b" * 300)]}), encoding="utf-8")
        out = tmp_path / "sub" / "d"
        doc = fails_naming(capsys, spec, ["synth", "--spec", spec, "--out-dir", out], "IngestError")
        assert doc["message"].startswith(f"{spec}: relation 1: file name {'b' * 300}.schema.json has 312 bytes")
        assert not (tmp_path / "sub").exists()

    def test_out_that_is_a_directory(self, pipeline_dir, tmp_path, capsys):
        _, catalog = pipeline_dir
        out = tmp_path / "q.jsonl"
        out.mkdir()
        argv = ["gen-queries", "--catalog", catalog, "--mode", "join", "--n", 5, "--out", out]
        fails_naming(capsys, out, argv, "IsADirectoryError")

    def test_kernel_flags_cover_config_fields(self):
        # a KernelConfig field without a flag is a knob no CLI user can set
        fields = dataclasses.fields(KernelConfig)
        flags = [arg for f in fields for arg in (f"--{f.name.replace('_', '-')}", str(f.default))]
        commands = [
            ["train", "--encoded", "e.bin", "--model", "m.bin"],
            ["active-learn", "--catalog", "c.json", "--train", "t", "--pool", "p", "--test", "s", "--out", "o"],
        ]
        for command in commands:
            args = cli.build_parser().parse_args(command + flags)
            assert {f.name: getattr(args, f.name) for f in fields} == KernelConfig().to_dict(), command[0]


    @pytest.mark.parametrize("flag", ["--kernel-family=rbf", "--length-scale=0.8", "--activation=relu"])
    @pytest.mark.parametrize(
        "command",
        [
            pytest.param(["train", "--encoded", "e.bin", "--model", "m.bin"], id="train"),
            pytest.param(["active-learn", "--catalog", "c.json", "--train", "t", "--pool", "p", "--test", "s",
                          "--out", "o"], id="active-learn"),
        ],
    )
    def test_removed_kernel_flags_rejected(self, capsys, command, flag):
        # the ReLU network kernel is the one family and activation, so no such flag exists
        with pytest.raises(SystemExit) as info:
            cli.main(command + [flag])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def _snapshot(argv) -> dict:
    """Every file and directory under the directories that hold `argv`'s paths (a path
    that does not exist counts by its nearest existing ancestor), with each file's bytes."""
    roots = {next(p for p in (a, *a.parents) if p.is_dir()) for a in argv if isinstance(a, Path)}
    return {p: p.read_bytes() if p.is_file() else None for root in roots for p in root.rglob("*")}


def fails_naming(capsys, named, argv, error) -> dict:
    """`argv` exits 1 with one JSON error line of type `error` that names `named`
    (a file or a flag), and writes nothing: the files under the directories of
    its paths are the same before and after. Returns the error line's object."""
    before = _snapshot(argv)
    assert cli.main([str(a) for a in argv]) == 1
    lines = [line for line in capsys.readouterr().err.splitlines() if line.startswith("{")]
    assert len(lines) == 1, lines
    doc = json.loads(lines[0])
    assert doc["error"] == error and str(named) in doc["message"], doc
    after = _snapshot(argv)
    assert after.keys() == before.keys(), sorted(map(str, after.keys() ^ before.keys()))
    assert [p for p in after if after[p] != before[p]] == []
    return doc


COLUMN = '{"name": "x", "kind": "uniform", "lo": 0, "hi": 1}'
R = {"name": "r", "rows": 5, "columns": [json.loads(COLUMN), {"name": "y", "kind": "uniform", "lo": 0, "hi": 1}]}
S = {"name": "s", "rows": 5, "columns": [json.loads(COLUMN)]}


class TestInputDocuments:
    """Each JSON document a user writes fails with one typed error line naming it."""

    @pytest.mark.parametrize(
        "text, error",
        [
            pytest.param('{"kernel": {"depth": 2,}}', "usage", id="bad-json"),
            pytest.param('[{"kernel": {}}]', "usage", id="non-object"),
            pytest.param('{"kernel": {"depth": 2, "depth": 3}}', "usage", id="repeated-key"),
            pytest.param('{"kernel": {}, "kernle": {}}', "usage", id="unknown-section"),
            pytest.param('{"kernel": {"depht": 2}}', "KernelError", id="unknown-key"),
            pytest.param('{"kernel": [1]}', "usage", id="wrong-type-section"),
            pytest.param('{"kernel": {"depth": 2.5}}', "KernelError", id="wrong-type-depth"),
            pytest.param('{"kernel": {"depth": true}}', "KernelError", id="wrong-type-bool-depth"),
            pytest.param('{"kernel": {"noise_sq": null}}', "KernelError", id="wrong-type-null"),
            pytest.param('{"kernel": {"kernel_family": "rbf"}}', "KernelError", id="removed-key-kernel-family"),
            pytest.param('{"kernel": {"length_scale": 0.8}}', "KernelError", id="removed-key-length-scale"),
            pytest.param('{"kernel": {"activation": "relu"}}', "KernelError", id="removed-key-activation"),
            pytest.param('{"encoder": {"chunk_size": "8"}}', "EncodingError", id="wrong-type-encoder"),
            pytest.param('{"encoder": {"chunk_size": 0}}', "EncodingError", id="zero-chunk-size"),
        ],
    )
    def test_config(self, tmp_path, capsys, text, error):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text, encoding="utf-8")
        argv = ["train", "--encoded", tmp_path / "enc.bin", "--model", tmp_path / "m.bin", "--config", cfg]
        fails_naming(capsys, cfg, argv, error)

    def test_nan_noise_is_rejected(self, pipeline_dir, tmp_path, capsys):
        # NaN noise once trained and then predicted null for every query
        root, _ = pipeline_dir
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"kernel": {"noise_sq": NaN}}', encoding="utf-8")
        argv = ["train", "--encoded", root / "enc.train.bin", "--model", tmp_path / "m.bin"]
        fails_naming(capsys, cfg, argv + ["--config", cfg], "usage")
        assert cli.main([str(a) for a in argv + ["--noise-sq", "nan"]]) == 1
        assert "noise_sq must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "m.bin").exists()

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param('{"relations": [}', id="bad-json"),
            pytest.param(f'[{{"name": "r", "rows": 5, "columns": [{COLUMN}]}}]', id="non-object"),
            pytest.param(f'{{"relations": [{{"name": "r", "rows": 5, "rows": 6, "columns": [{COLUMN}]}}]}}',
                         id="repeated-key"),
            pytest.param('{"relations": [], "joinpairs": []}', id="unknown-key"),
            pytest.param(f'{{"relations": [{{"name": "r", "rows": 5, "seed": 1, "columns": [{COLUMN}]}}]}}',
                         id="unknown-key-seed"),
            pytest.param(f'{{"name": "r", "rows": 5, "columns": [{COLUMN}]}}', id="bare-relation"),
            pytest.param(f'{{"relations": [{{"name": "r", "rows": 1.5, "columns": [{COLUMN}]}}]}}',
                         id="wrong-type-rows"),
            pytest.param(f'{{"relations": [{{"name": "r", "rows": 0, "columns": [{COLUMN}]}}]}}', id="zero-rows"),
            pytest.param('{"relations": [["emp"]]}', id="wrong-type-relation"),
            pytest.param('{"relations": [{"rows": 5, "columns": [{"name": "x", "kind": "uniform", "lo": null, '
                         '"hi": 1}]}]}', id="wrong-type-lo"),
            pytest.param('{"relations": [{"rows": 5, "columns": [{"name": "x", "kind": "mixture", '
                         '"components": 5}]}]}', id="wrong-type-components"),
            pytest.param('{"relations": [{"rows": 5, "columns": [{"name": "x", "kind": "categorical", '
                         '"values": "abc"}]}]}', id="wrong-type-values"),
            pytest.param(f'{{"relations": [{{"rows": 5, "columns": [{COLUMN}]}}], "join_pairs": [["r.x", 1]]}}',
                         id="wrong-type-join-pair"),
            pytest.param('{"relations": [{"rows": 5, "columns": [{"name": "x", "kind": "uniform_int", "lo": 0.5, '
                         '"hi": 3}]}]}', id="fractional-uniform-int"),
        ],
    )
    def test_spec(self, tmp_path, capsys, text):
        spec = tmp_path / "spec.json"
        spec.write_text(text, encoding="utf-8")
        fails_naming(capsys, spec, ["synth", "--spec", spec, "--out-dir", tmp_path / "d"], "IngestError")

    @pytest.mark.parametrize(
        "relations, join_pairs, message",
        [
            pytest.param([R, S], [["r.x", "s.nope"]], "unknown attribute s.nope", id="join-pair-unknown-attribute"),
            pytest.param([R, S], [["r.x", "r.y"]],
                         "join pair (r.x, r.y) must reference two distinct relations; self-joins use a renamed copy",
                         id="self-join-pair"),
            pytest.param([R, dict(S, columns=[{"name": "x", "kind": "uniform", "lo": 1, "hi": 0}])], [],
                         "relation 1: column 'x': uniform needs lo < hi", id="bad-column-in-second-relation"),
            pytest.param([R, dict(S, columns=[{"name": "c", "kind": "categorical", "values": ["a", ""]}])], [],
                         "relation 1: column 'c': categorical values must be non-empty", id="empty-categorical-value"),
            pytest.param([R, dict(S, columns=[{"name": "c", "kind": "categorical", "values": ["a", "\ud800"]}])],
                         [], "relation 1: column 'c': categorical value '\\ud800' cannot be encoded as UTF-8",
                         id="lone-surrogate-value"),
        ],
    )
    def test_spec_checked_before_writing(self, tmp_path, capsys, relations, join_pairs, message):
        # every relation and join pair is checked before synth creates its --out-dir
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"relations": relations, "join_pairs": join_pairs}), encoding="utf-8")
        doc = fails_naming(capsys, spec, ["synth", "--spec", spec, "--out-dir", tmp_path / "d"], "IngestError")
        assert doc["message"] == f"{spec}: {message}", doc

    def test_failed_synth_keeps_an_earlier_catalog(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SPEC), encoding="utf-8")
        run(["synth", "--spec", spec, "--out-dir", tmp_path / "d", "--seed", 3])
        spec.write_text(json.dumps(dict(SPEC, join_pairs=[["emp.grp", "grp.nope"]])), encoding="utf-8")
        fails_naming(capsys, spec, ["synth", "--spec", spec, "--out-dir", tmp_path / "d", "--seed", 4], "IngestError")

    @pytest.mark.parametrize(
        "names, message",
        [
            pytest.param(["../escaped"], "relation 0: name '../escaped' is not a plain file name", id="parent-dir"),
            pytest.param(["r", "a/b"], "relation 1: name 'a/b' is not a plain file name", id="subdir"),
            pytest.param(["a\\b"], "relation 0: name ", id="backslash"),
            pytest.param(["."], "relation 0: name '.' is not a plain file name", id="dot"),
            pytest.param(["a.b"], "relation 0: name 'a.b' is empty or contains '.'", id="dot-in-name"),
            pytest.param([""], "relation 0: name '' is not a plain file name", id="empty"),
            pytest.param(["r", "s", "r"], "relation 2: name 'r' repeats", id="repeated"),
            pytest.param(["rel1", None], "relation 1: name 'rel1' repeats", id="repeats-a-default-name"),
            pytest.param(["\ud800"], "relation 0: name '\\ud800' cannot be encoded as UTF-8", id="lone-surrogate"),
        ],
    )
    def test_spec_relation_names(self, tmp_path, capsys, names, message):
        # a relation's name is the stem of the files synth writes for it
        relations = [
            {"rows": 5, "columns": [json.loads(COLUMN)], **({} if name is None else {"name": name})} for name in names
        ]
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"relations": relations}), encoding="utf-8")
        assert cli.main(["synth", "--spec", str(spec), "--out-dir", str(tmp_path / "sub" / "d")]) == 1
        (line,) = [line for line in capsys.readouterr().err.splitlines() if line.startswith("{")]
        doc = json.loads(line)
        assert doc["error"] == "IngestError" and doc["message"].startswith(f"{spec}: {message}"), doc
        assert [p.name for p in tmp_path.rglob("*")] == ["spec.json"]  # nothing written anywhere

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param('{"relations": [}', id="bad-json"),
            pytest.param('[{"name": "r", "csv": "r.csv", "schema": "r.schema.json"}]', id="non-object"),
            pytest.param('{"relations": [], "join_pairs": [], "join_pairs": []}', id="repeated-key"),
            pytest.param('{"relations": [], "joinpairs": []}', id="unknown-key"),
            pytest.param('{"relations": [{"name": "r", "csv": "r.csv", "schema": "s", "rows": 5}]}',
                         id="unknown-entry-key"),
            pytest.param('{"relations": {}}', id="wrong-type-relations"),
            pytest.param('{"relations": [{"name": "r", "csv": 5, "schema": "s"}]}', id="wrong-type-csv"),
            pytest.param('{"relations": [], "join_pairs": [["r.a", 5]]}', id="wrong-type-join-pair"),
            pytest.param('{"relations": [{"name": "r", "csv": "r.csv", "schema": "r.schema.json"}, '
                         '{"name": "s", "csv": "r.csv", "schema": "r.schema.json"}], "join_pairs": [["r.a", "s.nope"]]}',
                         id="join-pair-unknown-attribute"),
            pytest.param('{"relations": [{"name": "r", "csv": "r.csv", "schema": "r.schema.json"}, '
                         '{"name": "s", "csv": "r.csv", "schema": "r.schema.json"}], "join_pairs": [["r.a", "r.b"]]}',
                         id="self-join-pair"),
        ],
    )
    def test_catalog(self, tmp_path, capsys, text):
        (tmp_path / "r.csv").write_text("a,b\n1,2\n", encoding="utf-8")
        (tmp_path / "r.schema.json").write_text('{"columns": {"a": "numerical", "b": "numerical"}}', encoding="utf-8")
        catalog = tmp_path / "catalog.json"
        catalog.write_text(text, encoding="utf-8")
        argv = ["gen-queries", "--catalog", catalog, "--mode", "join", "--n", 5, "--out", tmp_path / "q.jsonl"]
        fails_naming(capsys, catalog, argv, "CatalogError")

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param('{"columns": {"a": "numerical",}}', id="bad-json"),
            pytest.param('["a"]', id="non-object"),
            pytest.param('{"columns": {"a": "numerical", "a": "categorical"}}', id="repeated-key"),
            pytest.param('{"columns": {}, "relaton": "r"}', id="unknown-key"),
            pytest.param('{"columns": {"a": 5}}', id="wrong-type-kind"),
            pytest.param('{"columns": ["a"]}', id="wrong-type-columns"),
            pytest.param('{"relation": 5, "columns": {}}', id="wrong-type-relation"),
        ],
    )
    def test_schema(self, tmp_path, capsys, text):
        schema = tmp_path / "s.schema.json"
        schema.write_text(text, encoding="utf-8")
        (tmp_path / "s.csv").write_text("a\n1\n", encoding="utf-8")
        fails_naming(capsys, schema, ["ingest", "--csv", tmp_path / "s.csv", "--schema", schema], "IngestError")


class TestCsvFiles:
    """A relation CSV that cannot be read fails with one typed error line naming it."""

    @pytest.mark.parametrize(
        "data, message",
        [
            pytest.param(b"a\nx\n\xff\n", "not UTF-8 text", id="not-utf8"),
            pytest.param(b"a\n" + b"x" * 131_073 + b"\n", "row 1: field larger than field limit (131072)",
                         id="cell-over-the-limit"),
        ],
    )
    def test_unreadable_csv(self, tmp_path, capsys, data, message):
        csv, schema = tmp_path / "s.csv", tmp_path / "s.schema.json"
        csv.write_bytes(data)
        schema.write_text('{"columns": {"a": "categorical"}}', encoding="utf-8")
        doc = fails_naming(capsys, csv, ["ingest", "--csv", csv, "--schema", schema], "IngestError")
        assert doc["message"] == f"{csv}: {message}", doc

    def test_synth_rejects_a_value_no_csv_reads_back(self, tmp_path, capsys):
        column = {"name": "c", "kind": "categorical", "values": ["a", "x" * 200_000]}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"relations": [dict(S, columns=[column])]}), encoding="utf-8")
        doc = fails_naming(capsys, spec, ["synth", "--spec", spec, "--out-dir", tmp_path / "d"], "IngestError")
        assert doc["message"] == (f"{spec}: relation 0: column 'c': categorical value of 200000 characters "
                                  "is longer than a CSV cell may be (131072)"), doc


class TestActiveLearnCommand:
    def test_history_is_recorded(self, pipeline_dir, tmp_path, capsys, caplog):
        caplog.set_level(logging.INFO, logger="nngp_card")
        root, catalog = pipeline_dir
        run([
            "active-learn", "--catalog", catalog,
            "--train", root / "labeled.train.jsonl",
            "--pool", root / "labeled.valid.jsonl",
            "--test", root / "labeled.test.jsonl",
            "--iterations", 2, "--k", 10, "--out", tmp_path / "al.json",
        ])
        doc = json.loads((tmp_path / "al.json").read_text())
        assert len(doc["mse_history"]) == 3
        assert len(doc["selected_ids"]) == 2
        assert len(doc["selected_ids"][0]) == 10
        # the fallback count goes to the log, not into the output file
        assert "refit the union in 0 of 2 iterations" in caplog.text
        assert "refits" not in doc
        # the header records the kernel and encoder settings the loop used
        assert set(doc["config"]) == {"kernel", "encoder"}
        assert doc["config"]["kernel"] == KernelConfig().to_dict()

    def test_out_of_domain_pool_query_rejected(self, pipeline_dir, tmp_path, capsys):
        root, catalog = pipeline_dir
        pool, header = load_workload(root / "labeled.valid.jsonl")
        first = pool.items[0]
        wide = Query(("emp",), (("emp.age", RangeFilter(-50.0, 80.0)),), id=first.query.id)
        pool.items[0] = WorkloadItem(wide, first.cardinality)
        save_workload(tmp_path / "pool.jsonl", pool, header=header)
        code = cli.main([
            "active-learn", "--catalog", str(catalog),
            "--train", str(root / "labeled.train.jsonl"),
            "--pool", str(tmp_path / "pool.jsonl"),
            "--test", str(root / "labeled.test.jsonl"),
            "--iterations", "1", "--k", "5", "--out", str(tmp_path / "al.json"),
        ])
        assert code == 1
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "QueryError" and "outside domain" in error["message"]
        assert not (tmp_path / "al.json").exists()


class TestRelationNameWithADot:
    """A relation name holds no '.', so every command that names a relation rejects 'a.b'."""

    def test_catalog_entry(self, pipeline_dir, tmp_path, capsys):
        _, catalog = pipeline_dir
        doc = json.loads(catalog.read_text(encoding="utf-8"))
        doc["relations"][0]["name"] = "a.b"
        bad = catalog.parent / "dotted_catalog.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        fails_naming(capsys, bad, ["gen-queries", "--catalog", bad, "--mode", "join", "--n", 5,
                                   "--out", tmp_path / "q.jsonl"], "CatalogError")
        assert not (tmp_path / "q.jsonl").exists()

    def test_ingest_name(self, pipeline_dir, capsys):
        root, _ = pipeline_dir
        csv = root / "data" / "grp.csv"
        fails_naming(capsys, csv, ["ingest", "--csv", csv, "--schema", root / "data" / "grp.schema.json",
                                   "--name", "a.b"], "IngestError")


class TestMisc:
    def test_synth_reads_only_its_spec(self, tmp_path, monkeypatch):
        # synth checks the catalog it builds in memory; it never parses back a file it wrote
        def refuse(*args, **kwargs):
            raise AssertionError("synth read back a file it wrote")

        for module, name in ((cli, "load_catalog_file"), (cli, "ingest_csv"), (relstore, "ingest_csv")):
            monkeypatch.setattr(module, name, refuse)
        (tmp_path / "spec.json").write_text(json.dumps(SPEC), encoding="utf-8")
        run(["synth", "--spec", tmp_path / "spec.json", "--out-dir", tmp_path / "d"])
        assert sorted(p.name for p in (tmp_path / "d").iterdir()) == [
            "catalog.json", "emp.csv", "emp.schema.json", "grp.csv", "grp.schema.json",
        ]

    def test_ingest_reports_domains(self, pipeline_dir, capsys):
        root, _ = pipeline_dir
        out = run([
            "ingest", "--csv", root / "data" / "grp.csv",
            "--schema", root / "data" / "grp.schema.json",
        ], capsys=capsys)
        doc = json.loads(out.out.strip().splitlines()[-1])
        assert doc["rows"] == 60
        assert doc["columns"]["tag"]["kind"] == "categorical"

    def test_selfcheck_fast_passes(self, capsys):
        out = run(["selfcheck", "--seed", 0], capsys=capsys)
        passed = {line.split()[1].rstrip(":") for line in out.out.splitlines() if line.startswith("[PASS]")}
        assert passed == {"kernel_mc_relu", "finite_width", "gp_interpolation_mean", "gp_interpolation_var"}
        assert "[FAIL]" not in out.out

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "nngp_card.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "nngp-card" in proc.stdout
