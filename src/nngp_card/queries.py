"""Structured conjunctive select-join queries and their JSONL wire format."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Union

from . import artifact
from .relstore import CategoricalType, SchemaCatalog, split_ref

JOIN_OPS = ("<", "<=", "=", ">=", ">", "!=")
CATEGORICAL_JOIN_OPS = ("=", "!=")


class QueryError(Exception):
    """Query fails validation against a catalog."""


@dataclass(frozen=True)
class RangeFilter:
    """Closed-interval filter lb <= A <= ub on a numerical attribute."""

    lb: float
    ub: float

    def __post_init__(self):
        if self.lb > self.ub:
            raise QueryError(f"range filter has lb={self.lb} > ub={self.ub}")


@dataclass(frozen=True)
class InFilter:
    """Membership filter A IN {values} on a categorical attribute."""

    values: tuple[str, ...]

    def __post_init__(self):
        if not self.values:
            raise QueryError("IN filter needs at least one value")
        ordered = tuple(sorted(set(self.values)))
        if ordered != self.values:
            object.__setattr__(self, "values", ordered)


Filter = Union[RangeFilter, InFilter]


@dataclass(frozen=True)
class JoinCondition:
    """Comparison between the two sides of a catalog join pair."""

    pair: int
    op: str

    def __post_init__(self):
        if self.op not in JOIN_OPS:
            raise QueryError(f"unknown join op {self.op!r}")
        if self.pair < 0:
            raise QueryError("join pair index must be non-negative")


@dataclass(frozen=True)
class Query:
    """Conjunctive select-join query, canonicalized for structural equality.

    Relations are sorted by name, selections by attribute reference, joins by
    pair index; two queries with the same conditions therefore compare (and
    hash) equal regardless of construction order.
    """

    relations: tuple[str, ...]
    selections: tuple[tuple[str, Filter], ...] = ()
    joins: tuple[JoinCondition, ...] = ()
    id: int | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "relations", tuple(sorted(set(self.relations))))
        object.__setattr__(
            self, "selections", tuple(sorted(self.selections, key=lambda s: s[0]))
        )
        object.__setattr__(
            self, "joins", tuple(sorted(self.joins, key=lambda j: (j.pair, j.op)))
        )

    @property
    def n_conditions(self) -> int:
        return len(self.selections) + len(self.joins)

    def validate(self, catalog: SchemaCatalog) -> None:
        """Raise QueryError unless this query is well-formed for the catalog."""
        if not self.relations:
            raise QueryError("query references no relations")
        for name in self.relations:
            catalog.relation(name)

        seen_attrs = set()
        for ref, flt in self.selections:
            if ref in seen_attrs:
                raise QueryError(f"multiple selections on attribute {ref}")
            seen_attrs.add(ref)
            rel_name, _ = split_ref(ref)
            if rel_name not in self.relations:
                raise QueryError(f"selection on {ref} but {rel_name} not in query relations")
            ctype = catalog.resolve(ref)
            if isinstance(flt, RangeFilter):
                if ctype.kind != "numerical":
                    raise QueryError(f"range filter on categorical attribute {ref}")
                if flt.lb < ctype.lo or flt.ub > ctype.hi:
                    raise QueryError(
                        f"range [{flt.lb}, {flt.ub}] outside domain "
                        f"[{ctype.lo}, {ctype.hi}] of {ref}"
                    )
            else:
                if ctype.kind != "categorical":
                    raise QueryError(f"IN filter on numerical attribute {ref}")
                unknown = set(flt.values) - set(ctype.values)
                if unknown:
                    raise QueryError(f"IN values {sorted(unknown)} outside domain of {ref}")

        seen_pairs = set()
        for cond in self.joins:
            if cond.pair >= len(catalog.join_pairs):
                raise QueryError(f"join pair index {cond.pair} out of range")
            if cond.pair in seen_pairs:
                raise QueryError(f"duplicate join condition on pair {cond.pair}")
            seen_pairs.add(cond.pair)
            left, right = catalog.join_pairs[cond.pair]
            for ref in (left, right):
                rel_name, _ = split_ref(ref)
                if rel_name not in self.relations:
                    raise QueryError(
                        f"join condition on pair ({left}, {right}) but "
                        f"{rel_name} not in query relations"
                    )
            if isinstance(catalog.resolve(left), CategoricalType):
                if cond.op not in CATEGORICAL_JOIN_OPS:
                    raise QueryError(
                        f"op {cond.op!r} not allowed on categorical join pair "
                        f"({left}, {right}); the domain is order-free"
                    )

        if len(self.relations) == 1:
            if self.joins:
                raise QueryError("single-relation query must have zero joins")
        else:
            self._check_connected(catalog)

    def _check_connected(self, catalog: SchemaCatalog) -> None:
        adj: dict[str, set[str]] = {name: set() for name in self.relations}
        for cond in self.joins:
            left, right = catalog.join_pairs[cond.pair]
            lrel, _ = split_ref(left)
            rrel, _ = split_ref(right)
            adj[lrel].add(rrel)
            adj[rrel].add(lrel)
        seen = {self.relations[0]}
        frontier = [self.relations[0]]
        while frontier:
            for nxt in adj[frontier.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        if seen != set(self.relations):
            raise QueryError(
                f"joined relations are not connected: reached {sorted(seen)} "
                f"of {sorted(self.relations)}"
            )


# ---------------------------------------------------------------------------
# JSON (de)serialization — one query object per JSONL line
# ---------------------------------------------------------------------------


def query_to_dict(query: Query, cardinality: int | None = None) -> dict:
    selections = []
    for ref, flt in query.selections:
        if isinstance(flt, RangeFilter):
            selections.append({"attr": ref, "range": [flt.lb, flt.ub]})
        else:
            selections.append({"attr": ref, "in": list(flt.values)})
    doc: dict = {
        "relations": list(query.relations),
        "selections": selections,
        "joins": [{"pair": c.pair, "op": c.op} for c in query.joins],
    }
    if query.id is not None:
        doc["id"] = query.id
    if cardinality is not None:
        doc["cardinality"] = int(cardinality)
    return doc


def _strings(value, what: str) -> tuple[str, ...]:
    if type(value) is not list or not all(type(v) is str for v in value):
        raise QueryError(f"{what} must be a list of strings, got {value!r}")
    return tuple(value)


def _integer(value, what: str) -> int:
    if type(value) is not int:  # `true` is no integer
        raise QueryError(f"{what} must be an integer, got {value!r}")
    return value


def query_from_dict(doc: dict) -> tuple[Query, int | None]:
    """(query, cardinality or None) of one JSON object; a missing key raises KeyError.

    Nothing is coerced: a range is a list of two JSON numbers (not booleans),
    the ids, cardinality and join pairs are integers, and relations, IN values
    and join ops are strings.
    """
    selections: list[tuple[str, Filter]] = []
    for sel in doc.get("selections", []):
        attr = sel["attr"]
        if type(attr) is not str:
            raise QueryError(f"selection attribute must be a string, got {attr!r}")
        if "range" in sel:
            bounds = sel["range"]
            if type(bounds) is not list or len(bounds) != 2 or not all(type(b) in (int, float) for b in bounds):
                raise QueryError(f"range must be a list of two numbers, got {bounds!r}")
            selections.append((attr, RangeFilter(float(bounds[0]), float(bounds[1]))))
        elif "in" in sel:
            selections.append((attr, InFilter(_strings(sel["in"], "IN values"))))
        else:
            raise QueryError(f"selection {sel} has neither 'range' nor 'in'")
    # JoinCondition accepts only an op of JOIN_OPS, all strings
    joins = tuple(JoinCondition(_integer(j["pair"], "join pair"), j["op"]) for j in doc.get("joins", []))
    query = Query(
        relations=_strings(doc["relations"], "relations"),
        selections=tuple(selections),
        joins=joins,
        id=None if doc.get("id") is None else _integer(doc["id"], "id"),
    )
    card = doc.get("cardinality")
    return query, (None if card is None else _integer(card, "cardinality"))


def write_queries_jsonl(path, items: Iterable[tuple[Query, int | None]], header: dict | None = None) -> None:
    """Write queries (optionally labeled) as JSONL, one object per line."""
    artifact.write_jsonl(path, header, (query_to_dict(query, card) for query, card in items))


def read_queries_jsonl(path) -> tuple[list[tuple[Query, int | None]], dict | None]:
    """Read a (possibly labeled) JSONL query file; returns items and header."""
    return artifact.read_jsonl(path, QueryError, query_from_dict)
