"""Brute-force exact cardinality oracle over the relational store.

Counts the tuples of a conjunctive select-join query exactly. When every join
condition is an equality and the join graph is a forest, the count is
aggregated over the join tree: each relation passes per-key counts of its
selected rows up to its parent (Yannakakis 1981), so no (row, row) pair is
ever built. Cyclic graphs and theta or `!=` conditions take a left-deep join
instead: a sort/searchsorted hash join per equality, filtered cross products
otherwise. The "nested" strategy runs filtered cross products everywhere as
the differential-testing reference. All paths produce identical counts.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

import numpy as np

from .queries import JoinCondition, Query, QueryError, RangeFilter
from .relstore import Relation, SchemaCatalog, split_ref

# Intermediate-result guard of the left-deep path: the oracle targets
# desk-scale instances, not a real executor. Exceeding this is almost
# certainly a malformed workload. Join-tree counting builds no array longer
# than the two columns of a join pair and is not bound by it.
MAX_INTERMEDIATE = 20_000_000

# Join-tree counts are float64 sums and products of non-negative integers.
# Each is exact below 2**53; one rounded past it stays >= 2**53 (or turns inf
# or NaN) unless a zero factor makes it exact again, so a root total below the
# bound is exact.
_EXACT_BOUND = 2.0**53

_STRATEGIES = ("auto", "nested")


class OracleError(Exception):
    """Execution failure (oversized intermediate, bad strategy)."""


def execute(query: Query, catalog: SchemaCatalog, strategy: str = "auto") -> int:
    """Exact cardinality of the query's select-join result.

    Parameters
    ----------
    query : Query
        Validated against `catalog` before execution.
    catalog : SchemaCatalog
    strategy : str
        "auto" aggregates over the join tree when every condition is an
        equality and the join graph is a forest; otherwise it joins left-deep,
        with a hash join whenever an equality condition links the next
        relation. "nested" forces filtered cross products everywhere (the
        differential-testing path).

    Empty results return 0; they are not an error. A join-tree count that
    reaches 2**53 raises OracleError rather than return a rounded number.
    """
    if strategy not in _STRATEGIES:
        raise OracleError(f"unknown strategy {strategy!r}")
    query.validate(catalog)

    selected = {
        name: _selection_rows(catalog.relation(name), name, query)
        for name in query.relations
    }
    if min(len(rows) for rows in selected.values()) == 0:
        return 0
    if len(query.relations) == 1:
        return len(selected[query.relations[0]])
    if strategy == "auto":
        count = _forest_count(query, catalog, selected)
        if count is not None:
            return count

    # Left-deep join in catalog (name) order; correctness is order-independent.
    first = query.relations[0]
    partial: dict[str, np.ndarray] = {first: selected[first]}
    pending = list(query.joins)

    for name in query.relations[1:]:
        rows = selected[name]
        applicable = [
            cond for cond in pending if _cond_touches(cond, catalog, name, partial)
        ]
        pending = [c for c in pending if c not in applicable]
        partial = _join_step(partial, name, rows, applicable, catalog, strategy)
        if not next(iter(partial.values())).size:
            return 0

    if pending:  # both endpoints outside the query would have failed validation
        raise OracleError(f"unapplied join conditions remain: {pending}")
    return int(next(iter(partial.values())).size)


def execute_batch(
    queries: Sequence[Query],
    catalog: SchemaCatalog,
    threads: int | None = None,
) -> list[int]:
    """Element-wise `execute` with order preserved.

    Each query is validated once, by `execute`; a QueryError is re-raised as
    "query {idx}: ...". Each span of queries runs in order and the pool
    re-raises in span order, so the lowest failing index is the one reported,
    whatever the thread count.
    """
    if threads is None:
        threads = os.cpu_count() or 1

    def run(lo: int, hi: int) -> list[int]:
        labels = []
        for idx in range(lo, hi):
            try:
                labels.append(execute(queries[idx], catalog))
            except QueryError as exc:
                raise QueryError(f"query {idx}: {exc}") from None
        return labels

    if threads <= 1 or len(queries) < 4:
        return run(0, len(queries))

    chunk = max(1, len(queries) // (threads * 4))
    spans = [(i, min(i + chunk, len(queries))) for i in range(0, len(queries), chunk)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(lambda span: run(*span), spans))
    return [label for part in parts for label in part]


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------


def _selection_rows(relation: Relation, name: str, query: Query) -> np.ndarray:
    mask = np.ones(relation.n_rows, dtype=bool)
    for ref, flt in query.selections:
        rel_name, attr = split_ref(ref)
        if rel_name != name:
            continue
        col = relation.column(attr)
        if isinstance(flt, RangeFilter):
            mask &= (col >= flt.lb) & (col <= flt.ub)
        else:
            mask &= relation.type_of(attr).in_mask(flt.values)[col]
    return np.flatnonzero(mask)


# ---------------------------------------------------------------------------
# join-tree counting
# ---------------------------------------------------------------------------


def _forest_count(
    query: Query, catalog: SchemaCatalog, selected: dict[str, np.ndarray]
) -> int | None:
    """Exact count of an equi-join forest, or None when the query is not one.

    Every relation's selected rows start at weight 1. Walking each component
    from a root, every child sends the per-key sum of its weights
    (`np.bincount` over the pair's dense key codes) to its parent, which
    multiplies its weights by that message read at its own codes. The count
    is the product over components of the root's weight sum.
    """
    if any(cond.op != "=" for cond in query.joins):
        return None
    # relation -> [(pair, neighbour, own codes, neighbour codes, code count)]
    adj: dict[str, list] = {name: [] for name in query.relations}
    for cond in query.joins:
        left, right = catalog.join_pairs[cond.pair]
        lrel, rrel = split_ref(left)[0], split_ref(right)[0]
        lcodes, rcodes, n_codes = catalog.join_codes[cond.pair]
        adj[lrel].append((cond.pair, rrel, lcodes, rcodes, n_codes))
        adj[rrel].append((cond.pair, lrel, rcodes, lcodes, n_codes))

    # Depth-first preorder. Reaching a relation a second time means a cycle;
    # two conditions between the same pair of relations are one.
    order: list[tuple[str, tuple | None]] = []
    seen: set[str] = set()
    for root in query.relations:
        if root in seen:
            continue
        seen.add(root)
        stack: list[tuple[str, tuple | None]] = [(root, None)]
        while stack:
            name, up = stack.pop()
            order.append((name, up))
            for pair, nbr, own, other, n_codes in adj[name]:
                if up is not None and pair == up[0]:
                    continue
                if nbr in seen:
                    return None
                seen.add(nbr)
                stack.append((nbr, (pair, name, other, own, n_codes)))

    weights: dict[str, np.ndarray] = {}
    count = 1
    for name, up in reversed(order):  # children before their parents
        rows = selected[name]
        if up is None:
            total = float(weights[name].sum()) if name in weights else rows.size
            if not total < _EXACT_BOUND:
                raise OracleError(f"join count at relation {name!r} reaches 2**53")
            count *= int(total)
            continue
        _, parent, own, parent_codes, n_codes = up
        message = np.bincount(own[rows], weights=weights.get(name), minlength=n_codes)
        gathered = message[parent_codes[selected[parent]]].astype(np.float64, copy=False)
        weights[parent] = gathered * weights[parent] if parent in weights else gathered
    return count


# ---------------------------------------------------------------------------
# left-deep join machinery
# ---------------------------------------------------------------------------


def _cond_touches(
    cond: JoinCondition, catalog: SchemaCatalog, incoming: str, partial: dict[str, np.ndarray]
) -> bool:
    """True when adding `incoming` completes this condition's endpoints."""
    left, right = catalog.join_pairs[cond.pair]
    lrel, _ = split_ref(left)
    rrel, _ = split_ref(right)
    done = set(partial) | {incoming}
    return lrel in done and rrel in done and incoming in (lrel, rrel)


_OP_FUNCS = {
    "<": np.less,
    "<=": np.less_equal,
    "=": np.equal,
    ">=": np.greater_equal,
    ">": np.greater,
    "!=": np.not_equal,
}


def _cond_mask(
    cond: JoinCondition,
    catalog: SchemaCatalog,
    incoming: str,
    partial_rows: dict[str, np.ndarray],
    incoming_rows: np.ndarray,
) -> np.ndarray:
    left, right = catalog.join_pairs[cond.pair]
    lrel, _ = split_ref(left)
    lcodes, rcodes, _ = catalog.join_codes[cond.pair]
    lrows = incoming_rows if lrel == incoming else partial_rows[lrel]
    rrel, _ = split_ref(right)
    rrows = incoming_rows if rrel == incoming else partial_rows[rrel]
    return _OP_FUNCS[cond.op](lcodes[lrows], rcodes[rrows])


def _join_step(
    partial: dict[str, np.ndarray],
    name: str,
    rows: np.ndarray,
    conds: list[JoinCondition],
    catalog: SchemaCatalog,
    strategy: str,
) -> dict[str, np.ndarray]:
    m = next(iter(partial.values())).size
    equi = None
    if strategy != "nested":
        for cond in conds:
            if cond.op == "=":
                equi = cond
                break

    if equi is not None:
        p_pos, r_pos = _hash_join_pairs(equi, catalog, name, partial, rows)
        rest = [c for c in conds if c is not equi]
    else:
        if m * rows.size > MAX_INTERMEDIATE:
            raise OracleError(
                f"cross product of {m} x {rows.size} rows exceeds the "
                f"desk-scale bound ({MAX_INTERMEDIATE})"
            )
        p_pos = np.repeat(np.arange(m, dtype=np.int64), rows.size)
        r_pos = np.tile(np.arange(rows.size, dtype=np.int64), m)
        rest = list(conds)

    if p_pos.size > MAX_INTERMEDIATE:
        raise OracleError(f"intermediate result of {p_pos.size} rows exceeds the desk-scale bound")

    joined = {rel: idx[p_pos] for rel, idx in partial.items()}
    incoming_rows = rows[r_pos]
    if rest:
        mask = np.ones(p_pos.size, dtype=bool)
        for cond in rest:
            mask &= _cond_mask(cond, catalog, name, joined, incoming_rows)
        joined = {rel: idx[mask] for rel, idx in joined.items()}
        incoming_rows = incoming_rows[mask]
    joined[name] = incoming_rows
    return joined


def _hash_join_pairs(
    cond: JoinCondition,
    catalog: SchemaCatalog,
    incoming: str,
    partial: dict[str, np.ndarray],
    incoming_rows: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Matching (partial position, incoming position) pairs for an equi-join."""
    left, right = catalog.join_pairs[cond.pair]
    lrel, _ = split_ref(left)
    lcodes, rcodes, _ = catalog.join_codes[cond.pair]
    if lrel == incoming:
        probe = rcodes[partial[split_ref(right)[0]]]
        build = lcodes[incoming_rows]
    else:
        probe = lcodes[partial[lrel]]
        build = rcodes[incoming_rows]

    order = np.argsort(build, kind="stable")
    sorted_codes = build[order]
    lo = np.searchsorted(sorted_codes, probe, side="left")
    hi = np.searchsorted(sorted_codes, probe, side="right")
    counts = hi - lo
    total = int(counts.sum())
    if total > MAX_INTERMEDIATE:
        raise OracleError(f"equi-join result of {total} rows exceeds the desk-scale bound")

    p_pos = np.repeat(np.arange(probe.size, dtype=np.int64), counts)
    starts = np.repeat(lo, counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(
        np.concatenate(([0], np.cumsum(counts)[:-1])), counts
    )
    r_pos = order[starts + within]
    return p_pos, r_pos
