"""Query workload generation: data-centric sampling, join walks, dedup, splits."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import oracle
from .queries import InFilter, JoinCondition, Query, RangeFilter, read_queries_jsonl, write_queries_jsonl
from .relstore import CategoricalType, NumericalType, Relation, SchemaCatalog, split_ref


class WorkloadError(Exception):
    """Workload generation or split failure."""


@dataclass(frozen=True)
class WorkloadItem:
    query: Query
    cardinality: int


@dataclass
class LabeledWorkload:
    """Deduplicated queries with exact nonzero cardinalities and stable ids."""

    items: list[WorkloadItem]

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def queries(self) -> list[Query]:
        return [it.query for it in self.items]

    def cardinalities(self) -> np.ndarray:
        return np.asarray([it.cardinality for it in self.items], dtype=np.int64)

    def condition_counts(self) -> np.ndarray:
        return np.asarray([it.query.n_conditions for it in self.items], dtype=np.int64)

    def subset(self, indices: Sequence[int]) -> "LabeledWorkload":
        return LabeledWorkload([self.items[i] for i in indices])


# ---------------------------------------------------------------------------
# data-centric selection sampling
# ---------------------------------------------------------------------------

MAX_IN_SET = 8


def _numeric_condition(rel: Relation, attr: str, ctype: NumericalType, rng) -> RangeFilter:
    # Center the range on an actual tuple value so the filter cannot be empty;
    # half-width is uniform on (0, (hi-lo)/2].
    if ctype.width == 0.0:
        return RangeFilter(ctype.lo, ctype.hi)
    v = float(rel.column(attr)[rng.integers(rel.n_rows)])
    half = (1.0 - rng.random()) * ctype.width / 2.0
    return RangeFilter(max(ctype.lo, v - half), min(ctype.hi, v + half))


def _categorical_condition(rel: Relation, attr: str, ctype: CategoricalType, rng) -> InFilter:
    seed_code = int(rel.column(attr)[rng.integers(rel.n_rows)])
    m = ctype.size
    k = int(rng.integers(1, min(m, MAX_IN_SET) + 1))
    values = [ctype.values[seed_code]]
    if k > 1:
        others = [i for i in range(m) if i != seed_code]
        extra = rng.choice(len(others), size=k - 1, replace=False)
        values.extend(ctype.values[others[i]] for i in extra)
    return InFilter(tuple(values))


def _condition_for(rel: Relation, attr: str, rng):
    ctype = rel.type_of(attr)
    if isinstance(ctype, NumericalType):
        return _numeric_condition(rel, attr, ctype, rng)
    return _categorical_condition(rel, attr, ctype, rng)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def gen_single_relation(relation: Relation, d: int, n: int, seed: int) -> list[Query]:
    """n single-relation queries with exactly d selection conditions each.

    The d attributes are a uniform random subset of the relation's attributes;
    each condition is drawn data-centrically (see `_numeric_condition` /
    `_categorical_condition`). Deterministic under `seed`.
    """
    big_d = len(relation.attrs)
    if not 2 <= d <= big_d:
        raise WorkloadError(f"d={d} out of range [2, {big_d}] for relation {relation.name!r}")
    if n < 1:
        raise WorkloadError(f"n must be >= 1, got {n}")

    rng = np.random.default_rng(seed)
    queries = []
    for _ in range(n):
        chosen = rng.choice(big_d, size=d, replace=False)
        selections = tuple(
            (f"{relation.name}.{relation.attrs[i]}", _condition_for(relation, relation.attrs[i], rng))
            for i in sorted(chosen)
        )
        queries.append(Query(relations=(relation.name,), selections=selections))
    return queries


def gen_join(
    catalog: SchemaCatalog,
    t: int,
    n: int,
    seed: int,
    conds_per_relation: int = 1,
) -> list[Query]:
    """n equi-join queries built by a t-step walk over the catalog's join graph.

    Each step adds one unused join-graph edge incident to the already-visited
    relation set (uniformly chosen), so chains, stars and cycle-closing edges
    are all reachable. t=0 yields single-relation queries. Selection
    conditions (`conds_per_relation` per joined relation, data-centric) avoid
    the query's join attributes.
    """
    if n < 1:
        raise WorkloadError(f"n must be >= 1, got {n}")
    if not 0 <= t <= max(len(catalog.relations) - 1, 0):
        raise WorkloadError(f"t={t} out of range [0, {len(catalog.relations) - 1}]")
    if t > len(catalog.join_pairs):
        raise WorkloadError(f"t={t} exceeds the {len(catalog.join_pairs)} registered join pairs")
    if conds_per_relation < 0:
        raise WorkloadError(f"conds_per_relation must be >= 0, got {conds_per_relation}")

    rng = np.random.default_rng(seed)
    names = [r.name for r in catalog.relations]
    queries = []
    for _ in range(n):
        start = names[rng.integers(len(names))]
        visited = {start}
        used: set[int] = set()
        for _ in range(t):
            candidates = [
                i
                for i, (left, right) in enumerate(catalog.join_pairs)
                if i not in used
                and (split_ref(left)[0] in visited or split_ref(right)[0] in visited)
            ]
            if not candidates:
                raise WorkloadError(
                    f"walk from {start!r} exhausted reachable join edges after "
                    f"{len(used)} of {t} steps"
                )
            pick = candidates[rng.integers(len(candidates))]
            used.add(pick)
            left, right = catalog.join_pairs[pick]
            visited.add(split_ref(left)[0])
            visited.add(split_ref(right)[0])
        joins = tuple(JoinCondition(p, "=") for p in sorted(used))

        join_attrs = set()
        for p in used:
            join_attrs.update(catalog.join_pairs[p])
        selections = []
        for rel_name in sorted(visited):
            rel = catalog.relation(rel_name)
            eligible = [a for a in rel.attrs if f"{rel_name}.{a}" not in join_attrs]
            take = min(conds_per_relation, len(eligible))
            if take == 0:
                continue
            chosen = rng.choice(len(eligible), size=take, replace=False)
            for i in sorted(chosen):
                attr = eligible[i]
                selections.append((f"{rel_name}.{attr}", _condition_for(rel, attr, rng)))
        queries.append(Query(relations=tuple(visited), selections=tuple(selections), joins=joins))
    return queries


# ---------------------------------------------------------------------------
# labeling, dedup, splits
# ---------------------------------------------------------------------------


def finalize(queries: Sequence[Query], catalog: SchemaCatalog, threads: int | None = None) -> LabeledWorkload:
    """Dedup structurally equal queries, label via the oracle, drop empty results.

    Surviving items get sequential ids in first-occurrence order.
    """
    unique: list[Query] = []
    seen: set[Query] = set()
    for query in queries:
        if query not in seen:
            seen.add(query)
            unique.append(query)
    labels = oracle.execute_batch(unique, catalog, threads=threads)
    items = []
    for query, card in zip(unique, labels):
        if card >= 1:
            items.append(WorkloadItem(dataclasses.replace(query, id=len(items)), card))
    return LabeledWorkload(items)


def check_fractions(fractions: Sequence[float]) -> None:
    """Raise WorkloadError unless `fractions` is a (train, valid, test) triple
    in [0, 1] that sums to 1."""
    if len(fractions) != 3:
        raise WorkloadError("fractions must be a (train, valid, test) triple")
    # written so that NaN, which compares false, fails it
    if not all(0.0 <= f <= 1.0 for f in fractions) or abs(sum(fractions) - 1.0) > 1e-9:
        raise WorkloadError(f"fractions {fractions} must lie in [0, 1] and sum to 1")


def split(
    workload: LabeledWorkload,
    fractions: tuple[float, float, float] = (0.6, 0.2, 0.2),
    seed: int = 0,
) -> tuple[LabeledWorkload, LabeledWorkload, LabeledWorkload, dict]:
    """Stratified (train, valid, test) partition plus a machine-readable report.

    Strata are the query's total condition count. Within each stratum
    the fractions are honoured up to rounding via cumulative boundaries, so
    the partition is exact and disjoint. Strata smaller than 3 queries go
    wholly to train and are reported.
    """
    check_fractions(fractions)

    strata: dict[int, list[int]] = {}
    for idx, item in enumerate(workload.items):
        strata.setdefault(item.query.n_conditions, []).append(idx)

    rng = np.random.default_rng(seed)
    buckets: tuple[list[int], list[int], list[int]] = ([], [], [])
    small = []
    report_strata = {}
    for skey in sorted(strata):
        members = strata[skey]
        if len(members) < 3:
            buckets[0].extend(members)
            small.append(skey)
            report_strata[skey] = {"total": len(members), "train": len(members), "valid": 0, "test": 0}
            continue
        perm = rng.permutation(len(members))
        shuffled = [members[i] for i in perm]
        b1 = round(fractions[0] * len(members))
        b2 = round((fractions[0] + fractions[1]) * len(members))
        parts = (shuffled[:b1], shuffled[b1:b2], shuffled[b2:])
        for bucket, part in zip(buckets, parts):
            bucket.extend(part)
        report_strata[skey] = {
            "total": len(members),
            "train": len(parts[0]),
            "valid": len(parts[1]),
            "test": len(parts[2]),
        }

    outputs = tuple(workload.subset(sorted(b)) for b in buckets)
    cards = workload.cardinalities()
    report = {
        "seed": seed,
        "fractions": list(fractions),
        "strata": {str(k): v for k, v in report_strata.items()},
        "small_strata_in_train": [int(k) for k in small],
        "counts": {
            "total": len(workload),
            "train": len(outputs[0]),
            "valid": len(outputs[1]),
            "test": len(outputs[2]),
        },
        "condition_count_range": (
            [int(workload.condition_counts().min()), int(workload.condition_counts().max())]
            if len(workload)
            else None
        ),
        "cardinality_range": [int(cards.min()), int(cards.max())] if len(workload) else None,
    }
    return outputs[0], outputs[1], outputs[2], report


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def save_workload(path, workload: LabeledWorkload, header: dict | None = None) -> None:
    write_queries_jsonl(path, [(it.query, it.cardinality) for it in workload.items], header=header)


def load_workload(path) -> tuple[LabeledWorkload, dict | None]:
    items, header = read_queries_jsonl(path)
    out = []
    for query, card in items:
        if card is None:
            raise WorkloadError(f"{path}: query {query.id} lacks a cardinality label")
        out.append(WorkloadItem(query, card))
    return LabeledWorkload(out), header
