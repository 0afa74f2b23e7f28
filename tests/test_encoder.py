"""Feature encoding: layout widths, normalization, bitmaps, join bits, files."""

import json
import tracemalloc

import numpy as np
import pytest

from nngp_card.encoder import (
    EncodingError,
    build_layout,
    encode,
    encode_batch,
    load_encoded,
    save_encoded,
)
from nngp_card.queries import InFilter, JoinCondition, Query, QueryError, RangeFilter
from nngp_card.relstore import RelStoreError, SchemaCatalog, register_join_pair, synth_relation
from nngp_card.workload import finalize, gen_single_relation

from conftest import make_relation


def categorical_relation(name, m, seed=0):
    values = [f"v{i:02d}" for i in range(m)]
    rel = synth_relation(
        seed,
        200,
        [
            {"name": "c", "kind": "categorical", "values": values},
            {"name": "a", "kind": "uniform", "lo": 0, "hi": 100},
        ],
        name=name,
    )
    assert rel.type_of("c").size == m  # all values observed
    return rel


def segment(layout, attr):
    (seg,) = [s for s in layout.segments if s.attr == attr]
    return seg


def factorized_slots(layout):
    return [
        i for s in layout.segments if s.kind == "factorized" for i in range(s.offset, s.offset + s.width)
    ]


class TestLayout:
    def test_single_numerical_attribute(self):
        rel = make_relation("r", numeric=[0.0, 1.0])
        layout = build_layout(SchemaCatalog((rel,)))
        assert layout.dim == 2
        assert layout.segments[0].kind == "range"

    def test_small_domain_uses_bitmap(self):
        rel = categorical_relation("r", 5)
        layout = build_layout(SchemaCatalog((rel,)), bitmap_threshold=8)
        seg = segment(layout, "r.c")
        assert seg.kind == "bitmap"
        assert seg.width == 5

    def test_large_domain_uses_factorized_chunks(self):
        rel = categorical_relation("r", 12)
        layout = build_layout(SchemaCatalog((rel,)), chunk_size=4, bitmap_threshold=8)
        seg = segment(layout, "r.c")
        assert seg.kind == "factorized"
        assert seg.width == 3  # ceil(12 / 4)

    def test_segments_contiguous_cover_dimension(self):
        rel = categorical_relation("r", 20)
        rel2 = make_relation("s", numeric=[0.0, 5.0])
        catalog = register_join_pair(SchemaCatalog((rel, rel2)), "r.a", "s.a")
        layout = build_layout(catalog)
        spans = [(s.offset, s.offset + s.width) for s in layout.segments]
        spans += [(j.offset, j.offset + 3) for j in layout.join_segments]
        spans.sort()
        assert spans[0][0] == 0
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end == start
        assert spans[-1][1] == layout.dim

    def test_chunk_size_validated(self):
        rel = make_relation("r", numeric=[0.0, 1.0])
        with pytest.raises(EncodingError):
            build_layout(SchemaCatalog((rel,)), chunk_size=0)

    @pytest.mark.parametrize("name", ["chunk_size", "bitmap_threshold"])
    @pytest.mark.parametrize("value", [2.5, "8", True, None])
    def test_non_integer_settings_rejected(self, name, value):
        rel = make_relation("r", numeric=[0.0, 1.0])
        with pytest.raises(EncodingError, match=f"{name} must be an integer"):
            build_layout(SchemaCatalog((rel,)), **{name: value})


class TestRangeEncoding:
    @pytest.fixture
    def setup(self):
        rel = make_relation("r", numeric=[0.0, 50.0, 100.0])
        catalog = SchemaCatalog((rel,))
        return catalog, build_layout(catalog)

    def test_normalized_bounds(self, setup):
        catalog, layout = setup
        q = Query(("r",), (("r.a", RangeFilter(25.0, 50.0)),))
        assert encode(q, layout, catalog).tolist() == [0.25, 0.5]

    def test_unconstrained_attribute_is_full_range(self, setup):
        catalog, layout = setup
        assert encode(Query(("r",)), layout, catalog).tolist() == [0.0, 1.0]

    def test_order_preserving(self, setup):
        catalog, layout = setup
        lows = []
        for lb in (0.0, 10.0, 30.0, 77.0):
            q = Query(("r",), (("r.a", RangeFilter(lb, 100.0)),))
            lows.append(encode(q, layout, catalog)[0])
        assert lows == sorted(lows)
        assert len(set(lows)) == len(lows)

    def test_constant_column_encodes_full_range(self):
        rel = make_relation("r", numeric=[3.0, 3.0])
        catalog = SchemaCatalog((rel,))
        layout = build_layout(catalog)
        q = Query(("r",), (("r.a", RangeFilter(3.0, 3.0)),))
        assert encode(q, layout, catalog).tolist() == [0.0, 1.0]


class TestBitmapEncoding:
    def test_plain_bitmap_bits(self):
        rel = categorical_relation("r", 5)
        catalog = SchemaCatalog((rel,))
        layout = build_layout(catalog, bitmap_threshold=8)
        q = Query(("r",), (("r.c", InFilter(("v00", "v03"))),))
        seg = segment(layout, "r.c")
        vec = encode(q, layout, catalog)
        assert vec[seg.offset : seg.offset + 5].tolist() == [1, 0, 0, 1, 0]

    def test_unconstrained_bitmap_all_ones(self):
        rel = categorical_relation("r", 5)
        catalog = SchemaCatalog((rel,))
        layout = build_layout(catalog, bitmap_threshold=8)
        seg = segment(layout, "r.c")
        vec = encode(Query(("r",)), layout, catalog)
        assert vec[seg.offset : seg.offset + 5].tolist() == [1] * 5

    def test_factorized_chunk_integers(self):
        # m=8, s=4, C = {c_1, c_3} -> bitmap 10100000 -> chunks (1010, 0000)
        # Independent conversion: int("1010", 2) == 10, int("0000", 2) == 0;
        # each slot holds its chunk integer over 2^4 - 1.
        rel = categorical_relation("r", 8)
        catalog = SchemaCatalog((rel,))
        layout = build_layout(catalog, chunk_size=4, bitmap_threshold=4)
        q = Query(("r",), (("r.c", InFilter(("v00", "v02"))),))
        seg = segment(layout, "r.c")
        vec = encode(q, layout, catalog)

        bitmap = "".join("1" if f"v{i:02d}" in ("v00", "v02") else "0" for i in range(8))
        expected = [int(bitmap[i : i + 4], 2) for i in range(0, 8, 4)]
        assert expected == [10, 0]
        assert vec[seg.offset : seg.offset + 2].tolist() == [10 / 15, 0.0]

    def test_factorized_neutral_partial_chunk(self):
        # m=10, s=4: neutral all-ones bitmap -> chunks 1111 1111 11 -> 15, 15, 3
        rel = categorical_relation("r", 10)
        catalog = SchemaCatalog((rel,))
        layout = build_layout(catalog, chunk_size=4, bitmap_threshold=4)
        seg = segment(layout, "r.c")
        vec = encode(Query(("r",)), layout, catalog)
        assert vec[seg.offset : seg.offset + 3].tolist() == [1.0, 1.0, 3 / 15]


class TestJoinBits:
    @pytest.fixture
    def setup(self):
        r1 = make_relation("r1", numeric=[0.0, 1.0])
        r2 = make_relation("r2", numeric=[0.0, 1.0])
        catalog = register_join_pair(SchemaCatalog((r1, r2)), "r1.a", "r2.a")
        return catalog, build_layout(catalog)

    @pytest.mark.parametrize(
        "op, bits",
        [
            ("<", [1, 0, 0]),
            ("<=", [1, 1, 0]),
            ("=", [0, 1, 0]),
            (">=", [0, 1, 1]),
            (">", [0, 0, 1]),
            ("!=", [1, 0, 1]),
        ],
    )
    def test_op_bit_patterns(self, setup, op, bits):
        catalog, layout = setup
        q = Query(("r1", "r2"), joins=(JoinCondition(0, op),))
        vec = encode(q, layout, catalog)
        assert vec[-3:].tolist() == bits

    def test_no_join_is_zero_bits(self, setup):
        catalog, layout = setup
        vec = encode(Query(("r1",)), layout, catalog)
        assert vec[-3:].tolist() == [0, 0, 0]


class TestNormalization:
    @pytest.fixture
    def setup(self):
        # m=20, s=8: factorized chunks of 8, 8 and 4 bits
        rel = categorical_relation("r", 20)
        catalog = SchemaCatalog((rel,))
        return catalog, build_layout(catalog, chunk_size=8, bitmap_threshold=16)

    def test_extremes(self, setup):
        catalog, layout = setup
        seg = segment(layout, "r.c")
        full = encode(Query(("r",)), layout, catalog)
        assert full[seg.offset : seg.offset + 3].tolist() == [1.0, 1.0, 15 / 255]
        last_chunk = Query(("r",), (("r.c", InFilter(("v16", "v19"))),))
        vec = encode(last_chunk, layout, catalog)
        assert vec[seg.offset : seg.offset + 3].tolist() == [0.0, 0.0, 9 / 255]

    def test_round_trip_bijective(self, setup):
        # slot * (2^8 - 1) recovers each chunk integer, computed independently
        catalog, layout = setup
        seg = segment(layout, "r.c")
        rng = np.random.default_rng(0)
        values = [f"v{i:02d}" for i in range(20)]
        for _ in range(20):
            chosen = tuple(sorted(rng.choice(values, size=int(rng.integers(1, 21)), replace=False)))
            vec = encode(Query(("r",), (("r.c", InFilter(chosen)),)), layout, catalog)
            bitmap = "".join("1" if v in chosen else "0" for v in values)
            chunks = [int(bitmap[i : i + 8], 2) for i in range(0, 20, 8)]
            slots = vec[seg.offset : seg.offset + 3] * (2**8 - 1)
            np.testing.assert_allclose(slots, chunks, rtol=0, atol=1e-9)

    def test_non_factorized_slots_untouched(self, setup):
        catalog, layout = setup
        ctype = catalog.resolve("r.a")
        q = Query(("r",), (("r.a", RangeFilter(10.0, 20.0)),))
        seg = segment(layout, "r.a")
        vec = encode_batch([q], layout, catalog)[0]
        expected = [(10.0 - ctype.lo) / ctype.width, (20.0 - ctype.lo) / ctype.width]
        assert vec[seg.offset : seg.offset + 2].tolist() == expected

    @pytest.mark.parametrize("chunk_size", [3, 5, 8])
    def test_encode_is_the_batch_row(self, pipeline, chunk_size):
        catalog, _, labeled = pipeline
        layout = build_layout(catalog, chunk_size=chunk_size, bitmap_threshold=4)
        queries = labeled.queries()
        batch = encode_batch(queries, layout, catalog)
        for q, row in zip(queries, batch):
            assert np.array_equal(encode(q, layout, catalog), row)
        slots = factorized_slots(layout)
        assert slots and np.all((batch[:, slots] >= 0.0) & (batch[:, slots] <= 1.0))


@pytest.fixture(scope="module")
def pipeline():
    rel = synth_relation(
        77,
        400,
        [
            {"name": "a1", "kind": "uniform", "lo": 0, "hi": 10},
            {"name": "a2", "kind": "uniform", "lo": 0, "hi": 10},
            {"name": "c1", "kind": "categorical", "values": [f"k{i}" for i in range(20)]},
        ],
        name="rel",
    )
    catalog = SchemaCatalog((rel,))
    labeled = finalize(
        gen_single_relation(rel, 2, 150, seed=1) + gen_single_relation(rel, 3, 150, seed=2),
        catalog,
    )
    return catalog, build_layout(catalog), labeled


class TestBatchProperties:

    def test_vectors_equal_length_regardless_of_conditions(self, pipeline):
        catalog, layout, labeled = pipeline
        mat = encode_batch(labeled.queries(), layout, catalog)
        assert mat.shape == (len(labeled), layout.dim)

    def test_injective_over_deduplicated_workload(self, pipeline):
        catalog, layout, labeled = pipeline
        mat = encode_batch(labeled.queries(), layout, catalog)
        assert len(np.unique(mat, axis=0)) == len(labeled)

    def test_empty_batch(self, pipeline):
        catalog, layout, _ = pipeline
        assert encode_batch([], layout, catalog).shape == (0, layout.dim)

    def test_layout_catalog_mismatch_rejected(self, pipeline):
        catalog, layout, labeled = pipeline
        other = SchemaCatalog((make_relation("rel", numeric=[0.0, 1.0]),))
        with pytest.raises(EncodingError, match="different catalog"):
            encode(labeled.queries()[0], layout, other)

    @pytest.mark.parametrize(
        "selection, error, match",
        [
            (("rel.a1", RangeFilter(-50.0, 80.0)), QueryError, "outside domain"),
            (("rel.c1", InFilter(("k1", "zz"))), QueryError, "outside domain"),
            (("rel.a1", InFilter(("k1",))), QueryError, "IN filter on numerical"),
            (("rel.c1", RangeFilter(0.0, 1.0)), QueryError, "range filter on categorical"),
            (("rel.zz", RangeFilter(0.0, 1.0)), RelStoreError, "unknown attribute"),
            (("other.a1", RangeFilter(0.0, 1.0)), QueryError, "not in query relations"),
        ],
        ids=["range-outside-domain", "in-outside-domain", "in-on-numerical", "range-on-categorical",
             "unknown-attribute", "relation-not-in-query"],
    )
    def test_invalid_query_rejected(self, pipeline, selection, error, match):
        catalog, layout, _ = pipeline
        query = Query(("rel",), (selection,))
        for call in (encode, lambda q, *a: encode_batch([q], *a)):
            with pytest.raises(error, match=match):
                call(query, layout, catalog)

    def test_join_pair_outside_catalog_rejected(self, pipeline):
        catalog, layout, labeled = pipeline
        query = Query(("rel",), labeled.queries()[0].selections, (JoinCondition(0, "="),))
        with pytest.raises(QueryError, match="out of range"):
            encode(query, layout, catalog)


class TestEncodedFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        mat = rng.uniform(size=(7, 4))
        ids = np.arange(7, dtype=np.int64) * 3
        targets = rng.uniform(0, 9, size=7)
        path = tmp_path / "enc.bin"
        save_encoded(path, mat, "deadbeef", ids=ids, targets_log=targets)
        mat2, ids2, targets2, header = load_encoded(path)
        assert np.array_equal(mat, mat2)
        assert np.array_equal(ids, ids2)
        assert np.array_equal(targets, targets2)
        assert header["layout_hash"] == "deadbeef"

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "enc.bin"
        save_encoded(path, np.zeros((4, 3)), "x")
        data = path.read_bytes()
        # a short file, and one with trailing bytes, disagree with the header's size
        for bad in (data[:-8], data + bytes(8)):
            path.write_bytes(bad)
            with pytest.raises(EncodingError, match="truncated"):
                load_encoded(path)

    def test_load_reads_payloads_without_a_copy(self, tmp_path):
        rng = np.random.default_rng(3)
        mat = rng.uniform(size=(40_000, 24))
        ids = np.arange(40_000, dtype=np.int64)
        targets = rng.uniform(0, 9, size=40_000)
        path = tmp_path / "enc.bin"
        save_encoded(path, mat, "x", ids=ids, targets_log=targets)
        tracemalloc.start()
        try:
            mat2, ids2, targets2, _ = load_encoded(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(mat, mat2) and np.array_equal(ids, ids2) and np.array_equal(targets, targets2)
        assert peak <= 1.3 * path.stat().st_size

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "enc.bin"
        # v1 files may hold unnormalized factorized slots; v2 files carry no
        # payload hashes; v3 files carry no header hash
        for fmt in ("other", "nngp-card-encoded-v1", "nngp-card-encoded-v2", "nngp-card-encoded-v3"):
            path.write_bytes(json.dumps({"format": fmt}).encode() + b"\n")
            with pytest.raises(EncodingError, match="unexpected format"):
                load_encoded(path)

    def test_v3_file_rejected(self, tmp_path):
        """A file in the v3 layout: payload hashes, no header hash."""
        path = tmp_path / "enc.bin"
        save_encoded(path, np.random.default_rng(2).uniform(size=(5, 3)), "x")
        head, payload = path.read_bytes().split(b"\n", 1)
        header = json.loads(head)
        del header["header_hash"]
        header["format"] = "nngp-card-encoded-v3"
        path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + payload)
        with pytest.raises(EncodingError, match="unexpected format 'nngp-card-encoded-v3'"):
            load_encoded(path)

    def test_layout_hash_differs_when_chunk_size_differs(self):
        rel = categorical_relation("r", 20)
        catalog = SchemaCatalog((rel,))
        h1 = build_layout(catalog, chunk_size=8).hash()
        h2 = build_layout(catalog, chunk_size=4).hash()
        assert h1 != h2
