"""Fixed-length query feature vectors: normalized ranges, bitmaps, join bits.

Layout order is deterministic: relations by name, attributes lexicographically
within each relation, then the catalog's join pairs. Every query maps to the
same vector length regardless of how many conditions it carries; attributes
without a condition get the neutral "selects everything" encoding.

Every query is validated against the catalog before it is encoded, so every
slot lies in [0, 1]. A factorized slot holds its chunk integer divided by
2^chunk_size - 1: raw chunk integers would swamp the range slots in the
<x, x'> / d base kernel.

`save_encoded` and `load_encoded` keep an encoded batch in an `artifact`
file, whose header and every payload are hash-verified on load.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import artifact
from .queries import Query
from .relstore import CategoricalType, SchemaCatalog, stable_hash

DEFAULT_CHUNK_SIZE = 8
DEFAULT_BITMAP_THRESHOLD = 16

# 3-bit join segment: one bit per comparison family (<, =, >).
JOIN_OP_BITS = {
    "<": (1, 0, 0),
    "<=": (1, 1, 0),
    "=": (0, 1, 0),
    ">=": (0, 1, 1),
    ">": (0, 0, 1),
    "!=": (1, 0, 1),
}

NO_JOIN_BITS = (0, 0, 0)


class EncodingError(Exception):
    """Query/layout mismatch or malformed encoded artifact."""


@dataclass(frozen=True)
class Segment:
    """One attribute's slice of the vector.

    kind is "range" (width 2), "bitmap" (width = domain size), or
    "factorized" (width = ceil(m / chunk_size) normalized chunk slots).
    """

    attr: str
    kind: str
    offset: int
    width: int
    domain_size: int = 0
    chunk_size: int = 0


@dataclass(frozen=True)
class JoinSegment:
    pair: int
    offset: int


@dataclass(frozen=True)
class EncodingLayout:
    segments: tuple[Segment, ...]
    join_segments: tuple[JoinSegment, ...]
    dim: int
    chunk_size: int
    bitmap_threshold: int
    catalog_hash: str

    def hash(self) -> str:
        doc = {
            "segments": [
                [s.attr, s.kind, s.offset, s.width, s.domain_size, s.chunk_size]
                for s in self.segments
            ],
            "join_segments": [[j.pair, j.offset] for j in self.join_segments],
            "dim": self.dim,
            "catalog": self.catalog_hash,
        }
        return stable_hash(doc)


def check_layout_setting(name: str, value) -> None:
    """Raise EncodingError unless `value` is a valid `build_layout` setting:
    an integer, and for chunk_size at least 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise EncodingError(f"{name} must be an integer, got {value!r}")
    if name == "chunk_size" and value < 1:
        raise EncodingError(f"chunk_size must be >= 1, got {value}")


def build_layout(
    catalog: SchemaCatalog,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    bitmap_threshold: int = DEFAULT_BITMAP_THRESHOLD,
) -> EncodingLayout:
    """Derive the encoding layout for a catalog.

    Numerical attributes get a 2-slot range segment. Categorical attributes
    with domain size m <= bitmap_threshold get an m-bit bitmap; larger ones a
    factorized bitmap of ceil(m / chunk_size) slots, each packing
    `chunk_size` bits (MSB first) into one integer.
    """
    check_layout_setting("chunk_size", chunk_size)
    check_layout_setting("bitmap_threshold", bitmap_threshold)
    segments = []
    offset = 0
    for rel in catalog.relations:
        for attr in sorted(rel.attrs):
            ref = f"{rel.name}.{attr}"
            ctype = rel.type_of(attr)
            if isinstance(ctype, CategoricalType):
                m = ctype.size
                if m <= bitmap_threshold:
                    seg = Segment(ref, "bitmap", offset, m, domain_size=m)
                else:
                    width = math.ceil(m / chunk_size)
                    seg = Segment(ref, "factorized", offset, width, domain_size=m, chunk_size=chunk_size)
            else:
                seg = Segment(ref, "range", offset, 2)
            segments.append(seg)
            offset += seg.width
    join_segments = []
    for pair in range(len(catalog.join_pairs)):
        join_segments.append(JoinSegment(pair, offset))
        offset += 3
    return EncodingLayout(
        segments=tuple(segments),
        join_segments=tuple(join_segments),
        dim=offset,
        chunk_size=chunk_size,
        bitmap_threshold=bitmap_threshold,
        catalog_hash=catalog.content_hash,
    )


def _bitmap_to_chunks(bits: np.ndarray, chunk_size: int) -> list[int]:
    # MSB-first within each chunk: bitmap 1010 -> integer 10.
    out = []
    for start in range(0, len(bits), chunk_size):
        chunk = bits[start : start + chunk_size]
        value = 0
        for b in chunk:
            value = (value << 1) | int(b)
        out.append(value)
    return out


def encode(query: Query, layout: EncodingLayout, catalog: SchemaCatalog) -> np.ndarray:
    """Map a query onto the layout's feature vector.

    The query is validated against the catalog first (`QueryError`), so every
    slot lies in [0, 1]. Range slots hold bounds normalized into [0, 1];
    bitmap slots are 0/1; factorized slots hold chunk integers divided by
    2^chunk_size - 1. Unconstrained attributes encode as the full range /
    all-ones bitmap, absent join pairs as 000.
    """
    if layout.catalog_hash != catalog.content_hash:
        raise EncodingError("layout was built from a different catalog")
    query.validate(catalog)
    vec = np.zeros(layout.dim, dtype=np.float64)

    selections = dict(query.selections)
    for seg in layout.segments:
        flt = selections.get(seg.attr)
        if seg.kind == "range":
            ctype = catalog.resolve(seg.attr)
            if flt is None or ctype.width == 0.0:
                lo, hi = 0.0, 1.0
            else:
                lo = (flt.lb - ctype.lo) / ctype.width
                hi = (flt.ub - ctype.lo) / ctype.width
            vec[seg.offset] = lo
            vec[seg.offset + 1] = hi
        else:
            if flt is None:
                bits = np.ones(seg.domain_size, dtype=bool)
            else:
                bits = catalog.resolve(seg.attr).in_mask(flt.values)
            if seg.kind == "bitmap":
                vec[seg.offset : seg.offset + seg.width] = bits
            else:
                chunks = np.asarray(_bitmap_to_chunks(bits, seg.chunk_size), dtype=np.float64)
                vec[seg.offset : seg.offset + seg.width] = chunks / float(2**seg.chunk_size - 1)

    join_ops = {cond.pair: cond.op for cond in query.joins}
    for jseg in layout.join_segments:
        bits = JOIN_OP_BITS[join_ops[jseg.pair]] if jseg.pair in join_ops else NO_JOIN_BITS
        vec[jseg.offset : jseg.offset + 3] = bits
    return vec


def encode_batch(queries: Sequence[Query], layout: EncodingLayout, catalog: SchemaCatalog) -> np.ndarray:
    """Encode queries into an (n, dim) matrix, one `encode` row per query."""
    if not queries:
        return np.zeros((0, layout.dim), dtype=np.float64)
    return np.stack([encode(q, layout, catalog) for q in queries])


# ---------------------------------------------------------------------------
# encoded-matrix file: an `artifact` file of the matrix, then optional ids and targets
# ---------------------------------------------------------------------------

MATRIX_FORMAT = "nngp-card-encoded-v4"


def save_encoded(
    path,
    matrix: np.ndarray,
    layout_hash: str,
    ids: np.ndarray | None = None,
    targets_log: np.ndarray | None = None,
    extra_header: dict | None = None,
) -> None:
    """Persist an encoded batch with its layout hash and optional ids/targets."""
    n, dim = np.shape(matrix)
    header = {
        "format": MATRIX_FORMAT,
        "n": n,
        "d_enc": dim,
        "layout_hash": layout_hash,
        "has_ids": ids is not None,
        "has_targets": targets_log is not None,
    }
    if extra_header:
        header.update(extra_header)
    payloads = [("matrix_hash", np.asarray(matrix), np.float64)]
    if ids is not None:
        payloads.append(("ids_hash", np.asarray(ids), np.int64))
    if targets_log is not None:
        payloads.append(("targets_hash", np.asarray(targets_log), np.float64))
    artifact.write(path, header, payloads)


def load_encoded(path) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None, dict]:
    """Load an encoded batch, every payload verified: (matrix, ids, targets_log, header)."""

    def check(header):
        if header.get("format") != MATRIX_FORMAT:
            raise EncodingError(f"{path}: unexpected format {header.get('format')!r}")

    def payloads(header):
        n, dim = int(header["n"]), int(header["d_enc"])
        specs = [("matrix_hash", "matrix", (n, dim), "<f8", None)]
        if header["has_ids"]:
            specs.append(("ids_hash", "id", (n,), "<i8", None))
        if header["has_targets"]:
            specs.append(("targets_hash", "target", (n,), "<f8", None))
        return specs

    header, arrays = artifact.read(path, EncodingError, check, payloads)
    return arrays["matrix_hash"], arrays.get("ids_hash"), arrays.get("targets_hash"), header
