"""Command-line pipeline: synth -> gen-queries -> label -> encode -> train ->
predict -> evaluate, plus active-learn and selfcheck.

Every subcommand is deterministic given --seed; output files embed the settings
their command used and the hashes of their inputs, never timestamps (those go
to the stderr log only).

Every input and output file goes through `artifact`, the one module that opens
files. The four JSON documents a user writes are each checked against one
shape where they are parsed: the config here (unknown sections and keys are
rejected), the synth spec, catalog and schema in `relstore`. Any bad input, or
a path the system cannot open (`OSError`), ends as one JSON error line on
stderr that names its file, and exit status 1.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, artifact, diagnostics, encoder, evaluation, gp, oracle, workload
from .encoder import EncodingError, build_layout, encode_batch, load_encoded, save_encoded
from .gp import FitError, ModelIOError
from .kernel import KernelConfig, KernelError
from .oracle import OracleError
from .queries import QueryError, read_queries_jsonl, write_queries_jsonl
from .relstore import (
    IngestError,
    RelStoreError,
    build_catalog,
    export_csv,
    ingest_csv,
    load_catalog_file,
    load_schema,
    load_spec,
    save_schema,
    synth_relation,
)
from .workload import WorkloadError

log = logging.getLogger("nngp_card")


class PredictionFileError(Exception):
    """A predictions file fails to parse."""


_ERRORS = (
    RelStoreError,
    QueryError,
    OracleError,
    WorkloadError,
    EncodingError,
    KernelError,
    FitError,
    ModelIOError,
    PredictionFileError,
    ValueError,
    OSError,
)


class CLIError(Exception):
    pass


def _json_line(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, allow_nan=False)


# ---------------------------------------------------------------------------
# configuration: JSON file with "kernel" / "encoder"; flags override
# ---------------------------------------------------------------------------

_CONFIG_SECTIONS = {"kernel", "encoder"}
_ENCODER_KEYS = {"chunk_size", "bitmap_threshold"}


def _load_config_file(path) -> dict:
    """The sections of a config file, each checked alone, so that every error names the file."""
    doc = artifact.read_json(path, CLIError)
    unknown = set(doc) - _CONFIG_SECTIONS
    if unknown:
        raise CLIError(f"{path}: unknown config sections: {sorted(unknown)}")
    for name, section in doc.items():
        if type(section) is not dict:
            raise CLIError(f"{path}: config section {name!r} must be an object")
    bad = set(doc.get("encoder", {})) - _ENCODER_KEYS
    if bad:
        raise CLIError(f"{path}: unknown encoder config keys: {sorted(bad)}")
    try:
        for key, value in doc.get("encoder", {}).items():
            encoder.check_layout_setting(key, value)
    except EncodingError as exc:
        raise EncodingError(f"{path}: {exc}") from None
    try:
        KernelConfig.from_dict(doc.get("kernel", {}))
    except KernelError as exc:
        raise KernelError(f"{path}: {exc}") from None
    return doc


def _effective_config(args) -> dict:
    """Kernel and encoder settings: defaults, then the config file, then flags."""
    doc = _load_config_file(args.config) if getattr(args, "config", None) else {}
    kernel_doc = dict(doc.get("kernel", {}))
    encoder_doc = {"chunk_size": encoder.DEFAULT_CHUNK_SIZE, "bitmap_threshold": encoder.DEFAULT_BITMAP_THRESHOLD}
    encoder_doc.update(doc.get("encoder", {}))
    for section, names in ((kernel_doc, KernelConfig.__dataclass_fields__), (encoder_doc, _ENCODER_KEYS)):
        for name in names:
            if getattr(args, name, None) is not None:
                section[name] = getattr(args, name)
    return {"kernel": KernelConfig.from_dict(kernel_doc), "encoder": encoder_doc}  # rejects unknown keys


def _header(args, command: str, config: dict | None = None, inputs: dict | None = None) -> dict:
    head = {"tool": "nngp-card", "version": __version__, "command": command}
    if getattr(args, "seed", None) is not None:
        head["seed"] = args.seed
    if config:
        head["config"] = config
    if inputs:
        head["inputs"] = inputs
    return head


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _check_file_names(spec, names, out_dir: Path) -> None:
    """Raise IngestError unless each relation's longest file name,
    <name>.schema.json, fits the file system of `out_dir`'s nearest existing
    ancestor, so that synth fails before it creates anything."""
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    limit = os.pathconf(existing, "PC_NAME_MAX")
    for i, name in enumerate(names):
        size = len(f"{name}.schema.json".encode())
        if 0 < limit < size:
            raise IngestError(
                f"{spec}: relation {i}: file name {name}.schema.json has {size} bytes, "
                f"more than the {limit} that {existing} allows"
            )


def cmd_synth(args) -> int:
    specs, join_pairs = load_spec(args.spec)
    out_dir = Path(args.out_dir)
    _check_file_names(args.spec, [name for name, _, _ in specs], out_dir)
    relations = []
    for i, (name, rows, columns) in enumerate(specs):
        try:
            relations.append(synth_relation(args.seed + i, rows, columns, name=name))
        except RelStoreError as exc:
            raise IngestError(f"{args.spec}: relation {i}: {exc}") from None
    build_catalog(relations, join_pairs, args.spec, IngestError)  # nothing is written before this check
    out_dir.mkdir(parents=True, exist_ok=True)

    entries = []
    for relation in relations:
        name = relation.name
        export_csv(relation, out_dir / f"{name}.csv")
        save_schema(relation, out_dir / f"{name}.schema.json")
        entries.append({"name": name, "csv": f"{name}.csv", "schema": f"{name}.schema.json"})
        log.info("synthesized %s: %d rows, %d columns", name, relation.n_rows, len(relation.attrs))

    catalog_doc = {"relations": entries, "join_pairs": join_pairs}
    catalog_path = out_dir / "catalog.json"
    artifact.write_json(catalog_path, catalog_doc)
    print(_json_line({"catalog": str(catalog_path), "relations": [e["name"] for e in entries]}))
    return 0


def cmd_ingest(args) -> int:
    declared_name, schema = load_schema(args.schema)
    relation = ingest_csv(args.csv, schema, name=args.name or declared_name or None)
    report = {"relation": relation.name, "rows": relation.n_rows, "columns": {}}
    for attr in relation.attrs:
        ctype = relation.type_of(attr)
        if ctype.kind == "numerical":
            report["columns"][attr] = {"kind": "numerical", "lo": ctype.lo, "hi": ctype.hi}
        else:
            report["columns"][attr] = {"kind": "categorical", "m": ctype.size}
    print(_json_line(report))
    return 0


def _parse_list(flag: str, text: str, kind: type = int, count: int | None = None) -> list:
    """The comma-separated values of `flag`, each parsed by `kind`; `count` of them if given."""
    try:
        values = [kind(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise CLIError(f"{flag} expects comma-separated {kind.__name__} values, got {text!r}") from None
    if count is not None and len(values) != count:
        raise CLIError(f"{flag} expects {count} comma-separated values, got {text!r}")
    return values


def cmd_gen_queries(args) -> int:
    single = args.mode == "single"
    counts = _parse_list("--d", args.d) if single else _parse_list("--t", args.t)
    catalog = load_catalog_file(args.catalog)
    queries = []
    if single:
        names = [r.name for r in catalog.relations]
        rel_name = args.relation or (names[0] if len(names) == 1 else None)
        if rel_name is None:
            raise CLIError("--relation is required when the catalog has several relations")
        relation = catalog.relation(rel_name)
        for i, d in enumerate(counts):
            queries.extend(workload.gen_single_relation(relation, d, args.n, args.seed + i))
    else:
        for i, t in enumerate(counts):
            queries.extend(
                workload.gen_join(
                    catalog, t, args.n, args.seed + i, conds_per_relation=args.conds_per_relation
                )
            )
    header = _header(args, "gen-queries", inputs={"catalog": artifact.file_hash(args.catalog)})
    header["n_queries"] = len(queries)
    write_queries_jsonl(args.out, [(q, None) for q in queries], header=header)
    log.info("generated %d queries -> %s", len(queries), args.out)
    print(_json_line({"out": args.out, "n_queries": len(queries)}))
    return 0


def cmd_label(args) -> int:
    fractions = tuple(_parse_list("--split", args.split, float, count=3)) if args.split else None
    if fractions:
        workload.check_fractions(fractions)  # before the oracle labels every query
    catalog = load_catalog_file(args.catalog)
    items, _ = read_queries_jsonl(args.queries)
    # One oracle thread: the thread pool gains nothing on 2 cores (perfbench's join-pipeline
    # `oracle.pool_speedup`, one thread's time over the pool's, read 0.62-1.04).
    labeled = workload.finalize([q for q, _ in items], catalog, threads=1)
    parts = workload.split(labeled, fractions, seed=args.split_seed) if fractions else None
    inputs = {"catalog": artifact.file_hash(args.catalog), "queries": artifact.file_hash(args.queries)}
    header = _header(args, "label", inputs=inputs)
    header.update({"n_raw": len(items), "n_labeled": len(labeled)})
    workload.save_workload(args.out, labeled, header=header)
    log.info("labeled %d of %d queries -> %s", len(labeled), len(items), args.out)

    summary = {"out": args.out, "n_raw": len(items), "n_labeled": len(labeled)}
    if parts:
        train, valid, test, report = parts
        prefix = args.split_out_prefix or str(Path(args.out).with_suffix(""))
        for part, name in ((train, "train"), (valid, "valid"), (test, "test")):
            part_header = dict(header)
            part_header["split"] = name
            workload.save_workload(f"{prefix}.{name}.jsonl", part, header=part_header)
        artifact.write_json(f"{prefix}.split.json", report)
        summary["split"] = report["counts"]
    print(_json_line(summary))
    return 0


def cmd_encode(args) -> int:
    catalog = load_catalog_file(args.catalog)
    cfg = _effective_config(args)
    items, _ = read_queries_jsonl(args.queries)
    layout = build_layout(catalog, **cfg["encoder"])
    queries = [q for q, _ in items]
    matrix = encode_batch(queries, layout, catalog)

    ids = np.asarray([q.id if q.id is not None else i for i, q in enumerate(queries)], dtype=np.int64)
    targets = None
    if items and all(card is not None for _, card in items):
        targets = np.log(np.asarray([card for _, card in items], dtype=np.float64))
    header = _header(
        args,
        "encode",
        {"encoder": cfg["encoder"]},
        inputs={"catalog": artifact.file_hash(args.catalog), "queries": artifact.file_hash(args.queries)},
    )
    save_encoded(
        args.out,
        matrix,
        layout.hash(),
        ids=ids,
        targets_log=targets,
        extra_header=header,
    )
    log.info("encoded %d queries (d_enc=%d) -> %s", len(queries), layout.dim, args.out)
    print(_json_line({"out": args.out, "n": len(queries), "d_enc": layout.dim, "layout_hash": layout.hash()}))
    return 0


def cmd_train(args) -> int:
    cfg = _effective_config(args)
    X, _, y, enc_header = load_encoded(args.encoded)
    if y is None:
        raise CLIError(f"{args.encoded} carries no targets; encode a labeled workload")
    estimator = gp.fit(X, y, cfg["kernel"], layout_hash=enc_header["layout_hash"])
    gp.save(estimator, args.model)
    log.info("trained on %d queries (d_enc=%d), jitter=%g", len(y), X.shape[1], estimator.jitter)
    print(
        _json_line(
            {
                "model": args.model,
                "n_train": len(y),
                "d_enc": int(X.shape[1]),
                "jitter": estimator.jitter,
                "layout_hash": enc_header["layout_hash"],
            }
        )
    )
    return 0


# the per-query `Prediction` fields of a predictions record, besides its query_id
_RECORD_FIELDS = ("card_estimate", "mean_log", "var_log", "ci_low", "ci_high", "cov")


def cmd_predict(args) -> int:
    estimator = gp.load(args.model)
    X, ids, _, enc_header = load_encoded(args.encoded)
    prediction = gp.predict(estimator, X, delta=args.delta, layout_hash=enc_header["layout_hash"])
    if ids is None:
        ids = np.arange(len(X), dtype=np.int64)
    # the files' own verified header hashes, which commit to every payload
    header = _header(
        args, "predict", inputs={"model": estimator.file_hash, "encoded": enc_header["header_hash"]}
    )
    header["delta"] = args.delta
    columns = {name: getattr(prediction, name).tolist() for name in _RECORD_FIELDS}
    # a zero mean has an infinite cov, which JSON cannot hold: it is written as null
    columns["cov"] = [None if math.isinf(cov) else cov for cov in columns["cov"]]
    records = (dict(zip(("query_id",) + _RECORD_FIELDS, row)) for row in zip(ids.tolist(), *columns.values()))
    artifact.write_jsonl(args.out, header, records)
    log.info("predicted %d queries -> %s", len(X), args.out)
    print(_json_line({"out": args.out, "n": len(X)}))
    return 0


def cmd_evaluate(args) -> int:
    labeled, _ = workload.load_workload(args.labeled)
    preds: dict[int, dict] = {}

    def record(doc: dict) -> None:
        query_id = doc["query_id"]
        if type(query_id) is not int:
            raise PredictionFileError(f"query_id must be an integer, got {query_id!r}")
        if query_id in preds:
            raise PredictionFileError(f"duplicate query_id {query_id}")
        fields = {}
        for name in _RECORD_FIELDS:
            value = doc[name]
            if name == "cov" and value is None:  # predict writes an infinite cov as null
                value = math.inf
            elif type(value) not in (int, float) or not math.isfinite(value):
                raise PredictionFileError(f"{name} must be a finite number, got {value!r}")
            fields[name] = float(value)
        preds[query_id] = fields

    _, pred_header = artifact.read_jsonl(args.pred, PredictionFileError, record)
    if pred_header is None or "delta" not in pred_header:
        raise PredictionFileError(f"{args.pred} has no predictions header with a delta")
    missing = [it.query.id for it in labeled if it.query.id not in preds]
    if missing:
        raise CLIError(f"{len(missing)} labeled queries lack predictions (first: {missing[:5]})")
    ordered = [preds[it.query.id] for it in labeled]
    columns = {name: np.asarray([p[name] for p in ordered]) for name in _RECORD_FIELDS}
    prediction = gp.Prediction(**columns, delta=pred_header["delta"])
    report = evaluation.uncertainty_error_report(
        prediction,
        labeled.cardinalities().astype(np.float64),
        ids=np.asarray([it.query.id for it in labeled], dtype=np.int64),
        n_conditions=labeled.condition_counts(),
    )
    doc = report.to_dict()
    doc["mse_log"] = report.stats.mse_log
    doc["inputs"] = {"pred": artifact.file_hash(args.pred), "labeled": artifact.file_hash(args.labeled)}
    if args.out:
        artifact.write_json(args.out, doc)
    if args.scatter:
        report.to_csv(args.scatter)
    print(report.stats.to_text())
    print(_json_line({"mse_log": doc["mse_log"], "spearman": report.spearman_cov_vs_log_q}))
    return 0


def _encode_labeled(path, catalog, layout):
    labeled, _ = workload.load_workload(path)
    X = encode_batch(labeled.queries(), layout, catalog)
    y = np.log(labeled.cardinalities().astype(np.float64))
    return labeled, X, y


def cmd_active_learn(args) -> int:
    catalog = load_catalog_file(args.catalog)
    cfg = _effective_config(args)
    layout = build_layout(catalog, **cfg["encoder"])
    train, X_train, y_train = _encode_labeled(args.train, catalog, layout)
    pool, X_pool, y_pool = _encode_labeled(args.pool, catalog, layout)
    test, X_test, _ = _encode_labeled(args.test, catalog, layout)

    result = evaluation.active_learn(
        X_train,
        y_train,
        X_pool,
        y_pool,
        X_test,
        test.cardinalities().astype(np.float64),
        config=cfg["kernel"],
        iterations=args.iterations,
        k=args.k,
    )
    pool_ids = [it.query.id for it in pool]
    doc = _header(
        args,
        "active-learn",
        {"kernel": cfg["kernel"].to_dict(), "encoder": cfg["encoder"]},
        inputs={
            "catalog": artifact.file_hash(args.catalog),
            "train": artifact.file_hash(args.train),
            "pool": artifact.file_hash(args.pool),
            "test": artifact.file_hash(args.test),
        },
    )
    doc.update(
        {
            "iterations": args.iterations,
            "k": args.k,
            "mse_history": result.mse_history,
            "selected_ids": [[pool_ids[i] for i in chosen] for chosen in result.selected],
        }
    )
    artifact.write_json(args.out, doc)
    log.info("active learning MSE history: %s", result.mse_history)
    log.info("active learning refit the union in %d of %d iterations", result.refits, args.iterations)
    print(_json_line({"out": args.out, "mse_history": result.mse_history}))
    return 0


def cmd_selfcheck(args) -> int:
    result = diagnostics.selfcheck(seed=args.seed, fast=not args.full)
    for name, check in result["checks"].items():
        status = "PASS" if check["pass"] else "FAIL"
        print(f"[{status}] {name}: value={check['value']:.3e} threshold={check['threshold']:.3e}")
    print(_json_line({"all_pass": result["all_pass"]}))
    return 0 if result["all_pass"] else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_kernel_flags(sub):
    group = sub.add_argument_group("kernel")
    group.add_argument("--sigma-w-sq", dest="sigma_w_sq", type=float, help="weight prior variance")
    group.add_argument("--sigma-b-sq", dest="sigma_b_sq", type=float, help="bias prior variance")
    group.add_argument("--depth", type=int, help="number of hidden layers")
    group.add_argument("--activation", choices=["relu", "erf"], help="hidden nonlinearity")
    group.add_argument("--noise-sq", dest="noise_sq", type=float, help="observation noise variance")
    sub.add_argument("--config", help="JSON config file (flags override file values)")


def _add_encoder_flags(sub):
    sub.add_argument("--chunk-size", dest="chunk_size", type=int, help="factorized bitmap chunk bits")
    sub.add_argument(
        "--bitmap-threshold",
        dest="bitmap_threshold",
        type=int,
        help="largest domain encoded as a plain bitmap",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nngp-card",
        description="Cardinality estimation with exact infinite-width-network GP regression.",
    )
    parser.add_argument("--version", action="version", version=f"nngp-card {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging to stderr")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("synth", help="generate synthetic relations and a catalog")
    p.add_argument("--spec", required=True, help="JSON relation spec")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="validate a CSV against its schema and report domains")
    p.add_argument("--csv", required=True)
    p.add_argument("--schema", required=True, help="JSON column->kind declaration")
    p.add_argument("--name")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("gen-queries", help="generate an unlabeled query workload")
    p.add_argument("--catalog", required=True)
    p.add_argument("--mode", choices=["single", "join"], required=True)
    p.add_argument("--relation", help="relation for single-relation workloads")
    p.add_argument("--d", default="2", help="selection-condition counts, comma separated")
    p.add_argument("--t", default="0", help="join counts, comma separated")
    p.add_argument("--conds-per-relation", dest="conds_per_relation", type=int, default=1)
    p.add_argument("--n", type=int, required=True, help="queries per d/t value")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_queries)

    p = sub.add_parser("label", help="dedup, label via the exact oracle, drop empty results")
    p.add_argument("--catalog", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", help="train,valid,test fractions, e.g. 0.6,0.2,0.2")
    p.add_argument("--split-seed", dest="split_seed", type=int, default=0)
    p.add_argument("--split-out-prefix", dest="split_out_prefix")
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("encode", help="encode queries into feature vectors")
    p.add_argument("--catalog", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--out", required=True)
    _add_encoder_flags(p)
    p.add_argument("--config", help="JSON config file")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("train", help="fit the exact GP regressor")
    p.add_argument("--encoded", required=True)
    p.add_argument("--model", required=True)
    _add_kernel_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predictive mean/variance/interval per query")
    p.add_argument("--model", required=True)
    p.add_argument("--encoded", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--delta", type=float, default=0.95, help="confidence level (default 0.95)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="q-error statistics and uncertainty diagnostics")
    p.add_argument("--pred", required=True)
    p.add_argument("--labeled", required=True)
    p.add_argument("--out")
    p.add_argument("--scatter", help="CSV of (query_id, cov, q_error, n_conditions)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("active-learn", help="uncertainty-sampling loop with retraining")
    p.add_argument("--catalog", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--pool", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--iterations", type=int, default=3)
    p.add_argument("--k", type=int, default=1000)
    p.add_argument("--out", required=True)
    _add_encoder_flags(p)
    _add_kernel_flags(p)
    p.set_defaults(func=cmd_active_learn)

    p = sub.add_parser("selfcheck", help="sampling oracles vs closed forms, GP identities")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--full", action="store_true", help="full-budget checks (slower)")
    p.set_defaults(func=cmd_selfcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except CLIError as exc:
        print(json.dumps({"error": "usage", "message": str(exc)}), file=sys.stderr)
        return 1
    except _ERRORS as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
