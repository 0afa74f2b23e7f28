"""Fixed-length query feature vectors: normalized ranges, bitmaps, join bits.

Layout order is deterministic: relations by name, attributes lexicographically
within each relation, then the catalog's join pairs. Every query maps to the
same vector length regardless of how many conditions it carries; attributes
without a condition get the neutral "selects everything" encoding.

For a query that validates against the catalog, every slot lies in [0, 1].
A factorized slot holds its chunk integer divided by 2^chunk_size - 1: raw
chunk integers would swamp the range slots in the <x, x'> / d base kernel.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .queries import InFilter, Query, RangeFilter
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
    if chunk_size < 1:
        raise EncodingError(f"chunk_size must be >= 1, got {chunk_size}")
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

    Range slots hold bounds normalized into [0, 1]; bitmap slots are 0/1;
    factorized slots hold chunk integers divided by 2^chunk_size - 1, so they
    lie in [0, 1] too. Unconstrained attributes encode as the full range /
    all-ones bitmap, absent join pairs as 000. The query is not validated
    here; out-of-domain range bounds encode outside [0, 1].
    """
    if layout.catalog_hash != catalog.content_hash:
        raise EncodingError("layout was built from a different catalog")
    vec = np.zeros(layout.dim, dtype=np.float64)

    selections = dict(query.selections)
    for seg in layout.segments:
        flt = selections.pop(seg.attr, None)
        if seg.kind == "range":
            ctype = catalog.resolve(seg.attr)
            if flt is None:
                lo, hi = 0.0, 1.0
            else:
                if not isinstance(flt, RangeFilter):
                    raise EncodingError(f"non-range filter on numerical attribute {seg.attr}")
                if ctype.width == 0.0:
                    lo, hi = 0.0, 1.0
                else:
                    lo = (flt.lb - ctype.lo) / ctype.width
                    hi = (flt.ub - ctype.lo) / ctype.width
            vec[seg.offset] = lo
            vec[seg.offset + 1] = hi
        else:
            bits = np.ones(seg.domain_size, dtype=np.int64)
            if flt is not None:
                if not isinstance(flt, InFilter):
                    raise EncodingError(f"non-IN filter on categorical attribute {seg.attr}")
                ctype = catalog.resolve(seg.attr)
                bits[:] = 0
                for value in flt.values:
                    bits[ctype.index(value)] = 1
            if seg.kind == "bitmap":
                vec[seg.offset : seg.offset + seg.width] = bits
            else:
                chunks = np.asarray(_bitmap_to_chunks(bits, seg.chunk_size), dtype=np.float64)
                vec[seg.offset : seg.offset + seg.width] = chunks / float(2**seg.chunk_size - 1)
    if selections:
        raise EncodingError(f"query references attributes absent from layout: {sorted(selections)}")

    join_ops = {cond.pair: cond.op for cond in query.joins}
    for jseg in layout.join_segments:
        bits = JOIN_OP_BITS[join_ops[jseg.pair]] if jseg.pair in join_ops else NO_JOIN_BITS
        vec[jseg.offset : jseg.offset + 3] = bits
    unknown_pairs = set(join_ops) - {j.pair for j in layout.join_segments}
    if unknown_pairs:
        raise EncodingError(f"query references join pairs absent from layout: {sorted(unknown_pairs)}")
    return vec


def encode_batch(queries: Sequence[Query], layout: EncodingLayout, catalog: SchemaCatalog) -> np.ndarray:
    """Encode queries into an (n, dim) matrix, one `encode` row per query."""
    if not queries:
        return np.zeros((0, layout.dim), dtype=np.float64)
    return np.stack([encode(q, layout, catalog) for q in queries])


# ---------------------------------------------------------------------------
# encoded-matrix file: one JSON header line, then little-endian float64 payload
# ---------------------------------------------------------------------------

MATRIX_FORMAT = "nngp-card-encoded-v2"


def save_encoded(
    path,
    matrix: np.ndarray,
    layout_hash: str,
    ids: np.ndarray | None = None,
    targets_log: np.ndarray | None = None,
    extra_header: dict | None = None,
) -> None:
    """Persist an encoded batch with its layout hash and optional ids/targets."""
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    n, dim = matrix.shape
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
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        fh.write(matrix.astype("<f8").tobytes())
        if ids is not None:
            fh.write(np.ascontiguousarray(ids, dtype="<i8").tobytes())
        if targets_log is not None:
            fh.write(np.ascontiguousarray(targets_log, dtype="<f8").tobytes())


def load_encoded(path) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None, dict]:
    """Load an encoded batch: (matrix, ids, targets_log, header)."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError:
            raise EncodingError(f"{path}: missing or corrupt encoded-matrix header") from None
        if header.get("format") != MATRIX_FORMAT:
            raise EncodingError(f"{path}: unexpected format {header.get('format')!r}")
        n, dim = int(header["n"]), int(header["d_enc"])
        payload = fh.read()
    expected = n * dim * 8 + (n * 8 if header["has_ids"] else 0) + (n * 8 if header["has_targets"] else 0)
    if len(payload) != expected:
        raise EncodingError(f"{path}: payload has {len(payload)} bytes, expected {expected} (truncated?)")
    pos = n * dim * 8
    matrix = np.frombuffer(payload[:pos], dtype="<f8").reshape(n, dim).copy()
    ids = None
    if header["has_ids"]:
        ids = np.frombuffer(payload[pos : pos + n * 8], dtype="<i8").copy()
        pos += n * 8
    targets = None
    if header["has_targets"]:
        targets = np.frombuffer(payload[pos : pos + n * 8], dtype="<f8").copy()
    return matrix, ids, targets, header
