"""In-memory relational store: typed columns, domain statistics, join catalog.

Relations are immutable once built (their column arrays are marked
read-only), so they can be shared freely across worker threads.

The schema, catalog and synth-spec documents are read through
`artifact.read_json`; each loader checks its document's one shape and raises
this module's typed error naming the file. Relation CSVs go through
`artifact.read_csv` and `write_csv`; `ingest_csv` checks the cells column by
column.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence, Union

import numpy as np

from . import artifact


class RelStoreError(Exception):
    """Base error for the relational store."""


class IngestError(RelStoreError):
    """CSV or synthetic-spec ingestion failure."""


class CatalogError(RelStoreError):
    """Invalid schema catalog operation."""


@dataclass(frozen=True)
class NumericalType:
    """Numerical attribute with an observed domain range [lo, hi]."""

    lo: float
    hi: float

    kind = "numerical"

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise RelStoreError("numerical domain bounds must be finite")
        if self.lo > self.hi:
            raise RelStoreError(f"numerical domain has lo={self.lo} > hi={self.hi}")

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class CategoricalType:
    """Categorical attribute with a finite ordered domain of distinct values."""

    values: tuple[str, ...]

    kind = "categorical"

    def __post_init__(self):
        if len(self.values) < 1:
            raise RelStoreError("categorical domain must hold at least one value")
        if len(set(self.values)) != len(self.values):
            raise RelStoreError("categorical domain values must be distinct")

    @property
    def size(self) -> int:
        return len(self.values)

    def in_mask(self, values) -> np.ndarray:
        """Boolean table over the domain: True at each of `values`."""
        chosen = set(values)
        return np.array([v in chosen for v in self.values])


ColumnType = Union[NumericalType, CategoricalType]


class Relation:
    """A named, typed, columnar table with per-attribute domain statistics.

    Numerical columns are float64 arrays; categorical columns are stored as
    int32 codes indexing the (lexicographically ordered) domain of their
    :class:`CategoricalType`.
    """

    def __init__(self, name: str, columns: Sequence[tuple[str, ColumnType, np.ndarray]]):
        check_relation_name(name, "relation", RelStoreError)
        attrs = [a for a, _, _ in columns]
        if len(set(attrs)) != len(attrs):
            raise RelStoreError(f"duplicate attribute names in relation {name!r}")
        n_rows = {len(data) for _, _, data in columns}
        if len(n_rows) > 1:
            raise RelStoreError(f"columns of relation {name!r} have unequal lengths")

        self.name = name
        self.attrs: tuple[str, ...] = tuple(attrs)
        self._types: dict[str, ColumnType] = {}
        self._data: dict[str, np.ndarray] = {}
        self.n_rows = n_rows.pop() if n_rows else 0

        for attr, ctype, data in columns:
            if ctype.kind == "numerical":
                arr = np.asarray(data, dtype=np.float64)
                if not np.all((arr >= ctype.lo) & (arr <= ctype.hi)):  # NaN compares False
                    raise RelStoreError(
                        f"{name}.{attr}: values outside declared domain "
                        f"[{ctype.lo}, {ctype.hi}]"
                    )
            else:
                arr = np.asarray(data, dtype=np.int32)
                if arr.size and (arr.min() < 0 or arr.max() >= ctype.size):
                    raise RelStoreError(f"{name}.{attr}: code outside categorical domain")
            arr = arr.copy()
            arr.flags.writeable = False
            self._types[attr] = ctype
            self._data[attr] = arr

    def type_of(self, attr: str) -> ColumnType:
        try:
            return self._types[attr]
        except KeyError:
            raise RelStoreError(f"unknown attribute {self.name}.{attr}") from None

    def column(self, attr: str) -> np.ndarray:
        """Raw column array (float64 values or int32 categorical codes)."""
        self.type_of(attr)
        return self._data[attr]

    def renamed(self, new_name: str) -> "Relation":
        """Cheap alias sharing column data, used for self-joins."""
        clone = object.__new__(Relation)
        clone.name = new_name
        clone.attrs = self.attrs
        clone._types = self._types
        clone._data = self._data
        clone.n_rows = self.n_rows
        return clone

    def __eq__(self, other) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return (
            self.name == other.name
            and self.attrs == other.attrs
            and all(self._types[a] == other._types[a] for a in self.attrs)
            and all(np.array_equal(self._data[a], other._data[a]) for a in self.attrs)
        )

    def __repr__(self) -> str:
        return f"Relation({self.name!r}, {self.n_rows} rows, {len(self.attrs)} attrs)"


def check_relation_name(name: str, where: str, error: type[Exception]) -> None:
    """Raise `error`, prefixed with `where`, unless `name` can name a relation:
    it must be non-empty and hold no '.', because `split_ref` ends the
    relation's part of a "Rel.Attr" reference at the first '.'."""
    if not name or "." in name:
        raise error(f"{where}: name {name!r} is empty or contains '.', the 'Rel.Attr' separator")


def split_ref(ref: str) -> tuple[str, str]:
    """Split an attribute reference "Rel.Attr" into its two parts."""
    rel, sep, attr = ref.partition(".")
    if not sep or not rel or not attr:
        raise CatalogError(f"malformed attribute reference {ref!r}, expected 'Rel.Attr'")
    return rel, attr


def stable_hash(obj) -> str:
    """Short sha256 of the canonical JSON form of a JSON-compatible object."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(frozen=True)
class SchemaCatalog:
    """The query universe: relations (ordered by name) plus joinable attribute pairs.

    Join pairs keep their registration order; that order assigns the pair
    indices used by queries and by the encoder's join segments.
    """

    relations: tuple[Relation, ...]
    join_pairs: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        names = [r.name for r in self.relations]
        if len(set(names)) != len(names):
            raise CatalogError("duplicate relation names in catalog")
        if names != sorted(names):
            object.__setattr__(
                self, "relations", tuple(sorted(self.relations, key=lambda r: r.name))
            )
        seen = set()
        for left, right in self.join_pairs:
            lt = self.resolve(left)
            rt = self.resolve(right)
            if lt.kind != rt.kind:
                raise CatalogError(
                    f"join pair ({left}, {right}) mixes {lt.kind} and {rt.kind} attributes"
                )
            if split_ref(left)[0] == split_ref(right)[0]:
                raise CatalogError(
                    f"join pair ({left}, {right}) must reference two distinct "
                    "relations; self-joins use a renamed copy"
                )
            if frozenset((left, right)) in seen:
                raise CatalogError(f"join pair ({left}, {right}) already registered")
            seen.add(frozenset((left, right)))

    def relation(self, name: str) -> Relation:
        for rel in self.relations:
            if rel.name == name:
                return rel
        raise CatalogError(f"unknown relation {name!r}")

    def resolve(self, ref: str) -> ColumnType:
        rel_name, attr = split_ref(ref)
        return self.relation(rel_name).type_of(attr)

    def pair_index(self, left: str, right: str) -> int:
        for i, (l, r) in enumerate(self.join_pairs):
            if (l, r) == (left, right) or (l, r) == (right, left):
                return i
        raise CatalogError(f"join pair ({left}, {right}) not registered")

    def describe(self) -> dict:
        """Canonical JSON-compatible description (domains included); feeds hashing."""
        rels = []
        for rel in self.relations:
            cols = {}
            for attr in rel.attrs:
                ctype = rel.type_of(attr)
                if ctype.kind == "numerical":
                    cols[attr] = {"kind": "numerical", "lo": ctype.lo, "hi": ctype.hi}
                else:
                    cols[attr] = {"kind": "categorical", "values": list(ctype.values)}
            rels.append({"name": rel.name, "columns": cols, "n_rows": rel.n_rows})
        return {"relations": rels, "join_pairs": [list(p) for p in self.join_pairs]}

    @cached_property
    def content_hash(self) -> str:
        """`stable_hash` of `describe()`, computed once: the catalog is immutable."""
        return stable_hash(self.describe())

    @cached_property
    def join_codes(self) -> tuple[tuple[np.ndarray, np.ndarray, int], ...]:
        """Per join pair, dense integer key codes of both sides and the code count.

        The codes are the ranks of each side's values in the sorted union of
        both sides, so they keep equality and order. Categorical codes of the
        right side are first remapped into the left side's domain (-1 for
        values absent there, which never equal a left value).
        """
        out = []
        for left, right in self.join_pairs:
            lrel, lattr = split_ref(left)
            rrel, rattr = split_ref(right)
            lvals = self.relation(lrel).column(lattr)
            rvals = self.relation(rrel).column(rattr)
            ltype = self.resolve(left)
            if isinstance(ltype, CategoricalType):
                rtype = self.resolve(right)
                remap = np.asarray(
                    [ltype.values.index(v) if v in ltype.values else -1 for v in rtype.values],
                    dtype=np.int64,
                )
                lvals, rvals = lvals.astype(np.int64), remap[rvals]
            keys, codes = np.unique(np.concatenate([lvals, rvals]), return_inverse=True)
            codes.flags.writeable = False
            out.append((codes[: lvals.size], codes[lvals.size :], keys.size))
        return tuple(out)


def register_join_pair(catalog: SchemaCatalog, left: str, right: str) -> SchemaCatalog:
    """Append a joinable attribute pair, returning the extended catalog.

    Both sides must exist and have the same column kind. Re-registering a
    pair (in either orientation) is an error.
    """
    return SchemaCatalog(catalog.relations, catalog.join_pairs + ((left, right),))


# ---------------------------------------------------------------------------
# CSV ingestion / export
# ---------------------------------------------------------------------------

_KINDS = ("numerical", "categorical")


def ingest_csv(path, schema: Mapping[str, str], name: str | None = None) -> Relation:
    """Load a UTF-8 CSV with a header row into a typed Relation.

    Parameters
    ----------
    path : str or Path
        CSV file; the header must name exactly the declared columns.
    schema : mapping
        Column name -> "numerical" | "categorical".
    name : str, optional
        Relation name; defaults to the file stem.

    Domain statistics are computed from the data: observed min/max for
    numerical columns, the lexicographically sorted distinct value set for
    categorical ones. Empty cells are rejected (no NULL support).
    """
    path = Path(path)
    name = name or path.stem
    check_relation_name(name, f"{path}: relation", IngestError)
    for col, kind in schema.items():
        if kind not in _KINDS:
            raise IngestError(f"column {col!r}: unknown kind {kind!r}")

    header, cells = artifact.read_csv(path, IngestError)
    unknown = [c for c in header if c not in schema]
    if unknown:
        raise IngestError(f"{path}: header columns {unknown} not declared in schema")
    missing = [c for c in schema if c not in header]
    if missing:
        raise IngestError(f"{path}: declared columns {missing} missing from header")
    if not cells or not cells[0]:
        raise IngestError(f"{path}: no data rows")

    columns = []
    for col, column in zip(header, cells):
        numerical = schema[col] == "numerical"
        try:
            values = np.array([float(c) for c in column]) if numerical else None
            ok = np.isfinite(values).all() if numerical else "" not in column
        except ValueError:  # float() of an empty or non-numeric cell
            ok = False
        if not ok:
            raise _cell_error(path, col, column, numerical)
        if numerical:
            columns.append((col, NumericalType(float(values.min()), float(values.max())), values))
        else:
            columns.append((col, *_categorical_column(column)))
    return Relation(name, columns)


def _cell_error(path, col: str, column: Sequence[str], numerical: bool) -> IngestError:
    """The error for the first bad cell of a column that failed its whole-column
    check: an empty cell, or in a numerical column a cell that is no finite number."""
    for r, cell in enumerate(column, start=1):
        where = f"{path}: row {r}, column {col!r}"
        if cell == "":
            return IngestError(f"{where}: empty cell")
        if numerical:
            try:
                value = float(cell)
            except ValueError:
                return IngestError(f"{where}: cannot parse {cell!r} as numerical")
            if not np.isfinite(value):
                return IngestError(f"{where}: non-finite value {cell!r}")


def _categorical_column(values: Sequence[str]) -> tuple[CategoricalType, np.ndarray]:
    """The sorted distinct `values` as a domain, and each value's int32 code in it."""
    # numpy's fixed-width strings drop trailing NULs, which would merge "a" and "a\0";
    # Python objects keep them and sort the same, at twice the time
    dtype = object if "\0" in "".join(values) else None
    domain, codes = np.unique(np.asarray(values, dtype=dtype), return_inverse=True)
    return CategoricalType(tuple(domain.tolist())), codes.astype(np.int32)


def export_csv(relation: Relation, path) -> None:
    """Write a Relation back to CSV such that re-ingesting it round-trips."""
    columns = []
    for attr in relation.attrs:
        ctype, values = relation.type_of(attr), relation.column(attr).tolist()
        columns.append([repr(v) for v in values] if ctype.kind == "numerical" else [ctype.values[c] for c in values])
    artifact.write_csv(path, relation.attrs, columns)


def save_schema(relation: Relation, path) -> None:
    schema = {attr: relation.type_of(attr).kind for attr in relation.attrs}
    artifact.write_json(path, {"relation": relation.name, "columns": schema})


def load_schema(path) -> tuple[str, dict[str, str]]:
    """The relation name ("" if none) and the column kinds of a schema file:
    {"relation": optional name, "columns": {column: "numerical" | "categorical"}}."""
    doc = artifact.check_fields(
        artifact.read_json(path, IngestError), path, IngestError, {"columns": dict}, {"relation": str}
    )
    for col, kind in doc["columns"].items():
        if kind not in _KINDS:
            raise IngestError(f"{path}: column {col!r}: unknown kind {kind!r}")
    return doc.get("relation", ""), doc["columns"]


def load_catalog_file(path) -> SchemaCatalog:
    """Build a catalog from a JSON file referencing relation CSVs and join pairs.

    Layout: {"relations": [{"name", "csv", "schema"}...],
             "join_pairs": [["R1.A", "R2.A"], ...]}; csv/schema paths are
    resolved relative to the catalog file.
    """
    path = Path(path)
    doc = artifact.check_fields(
        artifact.read_json(path, CatalogError), path, CatalogError, {"relations": list}, {"join_pairs": list}
    )
    relations = []
    for i, entry in enumerate(doc["relations"]):
        where = f"{path}: relation entry {i}"
        artifact.check_fields(entry, where, CatalogError, {"name": str, "csv": str, "schema": str})
        check_relation_name(entry["name"], where, CatalogError)
        _, schema = load_schema(path.parent / entry["schema"])
        relations.append(ingest_csv(path.parent / entry["csv"], schema, name=entry["name"]))
    return build_catalog(relations, doc.get("join_pairs", []), path, CatalogError)


def build_catalog(relations: Sequence[Relation], join_pairs: list, where, error: type) -> SchemaCatalog:
    """The catalog of `relations` and the `join_pairs` of document `where`; a bad pair raises `error` naming it."""
    for i, pair in enumerate(join_pairs):
        if type(pair) is not list or len(pair) != 2 or not all(type(ref) is str for ref in pair):
            raise error(f"{where}: join pair {i} must be an array of two strings, got {pair!r}")
    try:
        return SchemaCatalog(tuple(relations), tuple(map(tuple, join_pairs)))
    except RelStoreError as exc:
        raise error(f"{where}: {exc}") from None


def load_spec(path) -> tuple[list[tuple[str, int, list]], list[list[str]]]:
    """The relations, as (name, rows, column specs), and the join pairs of a synth spec.

    Layout: {"relations": [{"name", "rows", "columns"}...],
             "join_pairs": [["R1.A", "R2.A"], ...]}; a relation without a
    name is called rel<i>. Each name becomes the stem of the relation's files,
    so it must be a plain file name, and unique, and as a relation name it
    holds no '.'. `synth_relation` checks the column specs, `build_catalog` the join pairs.
    """
    doc = artifact.check_fields(
        artifact.read_json(path, IngestError), path, IngestError, {"relations": list}, {"join_pairs": list}
    )
    relations = []
    for i, rel in enumerate(doc["relations"]):
        where = f"{path}: relation {i}"
        artifact.check_fields(rel, where, IngestError, {"rows": int, "columns": list}, {"name": str})
        name = rel.get("name", f"rel{i}")
        if name in ("", ".", "..") or any(sep in name for sep in ("/", "\\", "\0")):
            raise IngestError(f"{where}: name {name!r} is not a plain file name")
        _check_utf8(name, f"{where}: name")
        check_relation_name(name, where, IngestError)
        if name in (r[0] for r in relations):
            raise IngestError(f"{where}: name {name!r} repeats an earlier relation's")
        relations.append((name, rel["rows"], rel["columns"]))
    return relations, doc.get("join_pairs", [])


# ---------------------------------------------------------------------------
# Synthetic relations
# ---------------------------------------------------------------------------


# The keys each generator kind reads besides "name" and "kind".
_GENERATOR_KEYS = {
    "uniform": {"lo", "hi"},
    "uniform_int": {"lo", "hi"},
    "mixture": {"components"},
    "correlated": {"source", "rho", "mean", "std"},
    "categorical": {"values", "weights"},
}
_COMPONENT_KEYS = {"weight", "mean", "std"}


def synth_relation(seed: int, n_rows: int, columns: Sequence[Mapping], name: str = "synth") -> Relation:
    """Generate a deterministic synthetic Relation from column specs.

    Each spec is a mapping with a "name" and a "kind":

    - ``uniform``: {"lo", "hi"} -> U(lo, hi) floats
    - ``uniform_int``: {"lo", "hi"} -> integer-valued floats (join keys)
    - ``mixture``: {"components": [{"weight", "mean", "std"}, ...]} Gaussian mixture
    - ``correlated``: {"source", "rho", "mean", "std"} -> value correlated with a
      previously declared numerical column (Pearson rho on the latent scale)
    - ``categorical``: {"values": [...], "weights": optional}

    Numbers must be finite reals and lists lists; a key the kind does not read
    is an error. The same seed always reproduces the same relation, byte for byte.
    """
    if isinstance(n_rows, bool) or not isinstance(n_rows, numbers.Integral) or n_rows < 1:
        raise IngestError(f"n_rows must be an integer >= 1, got {n_rows!r}")
    if not columns:
        raise IngestError("at least one column spec is required")

    rng = np.random.default_rng(seed)
    built: list[tuple[str, ColumnType, np.ndarray]] = []
    numeric_cols: dict[str, np.ndarray] = {}

    for spec in columns:
        if not isinstance(spec, Mapping):
            raise IngestError(f"column spec must be an object, got {spec!r}")
        col = spec.get("name")
        kind = spec.get("kind")
        if not col:
            raise IngestError("column spec missing 'name'")
        if not isinstance(col, str):
            raise IngestError(f"column name must be a string, got {col!r}")
        _check_cell(col, "column name")
        if not isinstance(kind, str) or kind not in _GENERATOR_KEYS:
            raise IngestError(f"column {col!r}: unknown generator kind {kind!r}")
        unknown = sorted(set(spec) - {"name", "kind"} - _GENERATOR_KEYS[kind])
        if unknown:
            raise IngestError(f"column {col!r}: unknown keys {unknown} for kind {kind!r}")
        if kind == "uniform":
            lo, hi = _spec_floats(spec, col, "lo", "hi")
            if lo >= hi:
                raise IngestError(f"column {col!r}: uniform needs lo < hi")
            vals = rng.uniform(lo, hi, size=n_rows)
        elif kind == "uniform_int":
            # integer-valued numerical column; the natural shape for join keys
            lo, hi = _spec_floats(spec, col, "lo", "hi")
            for key, value in (("lo", lo), ("hi", hi)):
                if not value.is_integer():
                    raise IngestError(f"column {col!r}: uniform_int {key} must be an integer, got {value!r}")
            if lo > hi:
                raise IngestError(f"column {col!r}: uniform_int needs lo <= hi")
            vals = rng.integers(int(lo), int(hi) + 1, size=n_rows).astype(np.float64)
        elif kind == "mixture":
            comps = _spec_list(spec, col, "components")
            if not comps:
                raise IngestError(f"column {col!r}: mixture needs components")
            for c in comps:
                if not isinstance(c, Mapping) or not set(c) <= _COMPONENT_KEYS:
                    raise IngestError(f"column {col!r}: a mixture component holds weight, mean and std, got {c!r}")
            weights = np.asarray([_spec_floats({"weight": 1.0, **c}, col, "weight")[0] for c in comps])
            if (weights <= 0).any():
                raise IngestError(f"column {col!r}: mixture weights must be positive")
            weights = weights / weights.sum()
            means = np.asarray([_spec_floats(c, col, "mean")[0] for c in comps])
            stds = np.asarray([_spec_floats(c, col, "std")[0] for c in comps])
            if (stds <= 0).any():
                raise IngestError(f"column {col!r}: mixture stds must be positive")
            which = rng.choice(len(comps), p=weights, size=n_rows)
            vals = rng.normal(means[which], stds[which])
        elif kind == "correlated":
            source = spec.get("source")
            if not isinstance(source, str) or source not in numeric_cols:
                raise IngestError(
                    f"column {col!r}: correlated source {source!r} must be a "
                    "previously declared numerical column"
                )
            rho = _spec_floats(spec, col, "rho")[0]
            if not -1.0 <= rho <= 1.0:
                raise IngestError(f"column {col!r}: rho must lie in [-1, 1]")
            mean, std = _spec_floats({"mean": 0.0, "std": 1.0, **spec}, col, "mean", "std")
            if std <= 0:
                raise IngestError(f"column {col!r}: std must be positive")
            src = numeric_cols[source]
            src_std = src.std()
            z = (src - src.mean()) / src_std if src_std > 0 else np.zeros_like(src)
            latent = rho * z + np.sqrt(1.0 - rho * rho) * rng.standard_normal(n_rows)
            vals = mean + std * latent
        else:  # categorical
            values = _spec_list(spec, col, "values")
            if not values:
                raise IngestError(f"column {col!r}: categorical needs values")
            labels = [str(v) for v in values]
            for label in labels:
                # a CSV reads an empty value back as an empty cell, which `ingest_csv` rejects
                if label == "":
                    raise IngestError(f"column {col!r}: categorical values must be non-empty")
                _check_cell(label, f"column {col!r}: categorical value")
            p = None
            if "weights" in spec:
                p = np.asarray([_spec_real(w, col, "weights") for w in _spec_list(spec, col, "weights")])
                if len(p) != len(values) or (p <= 0).any():
                    raise IngestError(f"column {col!r}: bad categorical weights")
                p = p / p.sum()
            picks = rng.choice(len(values), p=p, size=n_rows)
            built.append((col, *_categorical_column([labels[i] for i in picks])))
            continue

        vals = np.asarray(vals, dtype=np.float64)
        numeric_cols[col] = vals
        built.append((col, NumericalType(float(vals.min()), float(vals.max())), vals))

    return Relation(name, built)


def _check_cell(text: str, what: str) -> None:
    """Raise IngestError, naming `what`, unless `text` can be written as a CSV
    cell that `artifact.read_csv` reads back: UTF-8, and no longer than its limit."""
    _check_utf8(text, what)
    if len(text) > artifact.csv_cell_limit():
        raise IngestError(f"{what} of {len(text)} characters is longer than a CSV cell may be "
                          f"({artifact.csv_cell_limit()})")


def _check_utf8(text: str, what: str) -> None:
    """Raise IngestError, naming `what`, unless `text` can be written as UTF-8:
    a lone surrogate, which JSON's \\u escapes can spell, cannot."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise IngestError(f"{what} {text!r} cannot be encoded as UTF-8") from None


def _spec_floats(spec: Mapping, col: str, *keys: str) -> list[float]:
    """The values of `keys` in a column spec, each a finite real number."""
    out = []
    for key in keys:
        if key not in spec:
            raise IngestError(f"column {col!r}: spec missing {key!r}")
        out.append(_spec_real(spec[key], col, key))
    return out


def _spec_real(value, col: str, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise IngestError(f"column {col!r}: {what} must be a finite number, got {value!r}")
    return float(value)


def _spec_list(spec: Mapping, col: str, key: str) -> Sequence:
    value = spec.get(key)
    if not isinstance(value, (list, tuple)):
        raise IngestError(f"column {col!r}: {key!r} must be a list, got {value!r}")
    return value
