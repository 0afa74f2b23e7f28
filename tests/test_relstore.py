"""Relational store: ingestion contracts, domains, catalogs, synthesis."""

import json
import re

import numpy as np
import pytest

from nngp_card.relstore import (
    CatalogError,
    CategoricalType,
    IngestError,
    NumericalType,
    Relation,
    RelStoreError,
    SchemaCatalog,
    build_catalog,
    export_csv,
    ingest_csv,
    load_catalog_file,
    load_schema,
    register_join_pair,
    save_schema,
    synth_relation,
)

from conftest import make_relation


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestIngest:
    def test_numerical_domain_from_data(self, tmp_path):
        p = write_csv(tmp_path / "r.csv", "x\n5\n2\n9\n")
        rel = ingest_csv(p, {"x": "numerical"})
        assert rel.type_of("x") == NumericalType(2.0, 9.0)

    @pytest.mark.parametrize("cells", [["b", "é", "a", "b", "Z", "a b"], ["b", "a\0", "a", "a\0", "é"]])
    def test_categorical_codes_index_the_sorted_domain(self, tmp_path, cells):
        # "a" and "a\0" stay two values: fixed-width numpy strings would merge them
        rel = ingest_csv(write_csv(tmp_path / "r.csv", "c\n" + "\n".join(cells) + "\n"), {"c": "categorical"})
        domain = tuple(sorted(set(cells)))
        assert rel.type_of("c").values == domain
        assert rel.column("c").tolist() == [domain.index(v) for v in cells]

    def test_categorical_domain_distinct_sorted(self, tmp_path):
        p = write_csv(tmp_path / "r.csv", "c\na\nb\na\n")
        rel = ingest_csv(p, {"c": "categorical"})
        ctype = rel.type_of("c")
        assert ctype == CategoricalType(("a", "b"))
        assert ctype.size == 2

    def test_parse_error_names_row_and_column(self, tmp_path):
        p = write_csv(tmp_path / "r.csv", "x\n1\nxyz\n")
        with pytest.raises(IngestError, match=r"row 2.*'x'"):
            ingest_csv(p, {"x": "numerical"})

    def test_empty_cell_rejected(self, tmp_path):
        p = write_csv(tmp_path / "r.csv", "x,c\n1,\n")
        with pytest.raises(IngestError, match="empty cell"):
            ingest_csv(p, {"x": "numerical", "c": "categorical"})

    def test_non_finite_rejected(self, tmp_path):
        p = write_csv(tmp_path / "r.csv", "x\nnan\n")
        with pytest.raises(IngestError, match="non-finite"):
            ingest_csv(p, {"x": "numerical"})

    def test_empty_file(self, tmp_path):
        p = write_csv(tmp_path / "r.csv", "")
        with pytest.raises(IngestError, match="empty file"):
            ingest_csv(p, {"x": "numerical"})

    def test_header_only(self, tmp_path):
        p = write_csv(tmp_path / "r.csv", "x\n")
        with pytest.raises(IngestError, match="no data rows"):
            ingest_csv(p, {"x": "numerical"})

    def test_unknown_header_column(self, tmp_path):
        p = write_csv(tmp_path / "r.csv", "x,y\n1,2\n")
        with pytest.raises(IngestError, match="not declared"):
            ingest_csv(p, {"x": "numerical"})

    def test_declared_column_missing(self, tmp_path):
        p = write_csv(tmp_path / "r.csv", "x\n1\n")
        with pytest.raises(IngestError, match="missing from header"):
            ingest_csv(p, {"x": "numerical", "y": "numerical"})

    def test_ragged_row(self, tmp_path):
        p = write_csv(tmp_path / "r.csv", "x,y\n1,2\n3\n")
        with pytest.raises(IngestError, match="row 2"):
            ingest_csv(p, {"x": "numerical", "y": "numerical"})

    def test_unknown_kind(self, tmp_path):
        p = write_csv(tmp_path / "r.csv", "x\n1\n")
        with pytest.raises(IngestError, match="unknown kind"):
            ingest_csv(p, {"x": "text"})

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"c\nx\n\xe9\n", "not UTF-8 text"),
            (b"c\nx\n" + b"y" * 131_073 + b"\n", "row 2: field larger than field limit (131072)"),
        ],
    )
    def test_unreadable_file_names_it(self, tmp_path, data, message):
        p = tmp_path / "r.csv"
        p.write_bytes(data)
        with pytest.raises(IngestError) as info:
            ingest_csv(p, {"c": "categorical"})
        assert str(info.value) == f"{p}: {message}"

    @pytest.mark.parametrize(
        "text, message",
        [
            # columns are checked left to right, every cell of one column before the next column
            ("x,y\n1,\nzz,2\n", "row 2, column 'x': cannot parse 'zz' as numerical"),
            ("c,x\na,inf\n,1\n", "row 2, column 'c': empty cell"),
            # inside a column, the first bad cell is reported, whatever its fault
            ("x,y\n1,1\nnan,1\nzz,1\n", "row 2, column 'x': non-finite value 'nan'"),
            ("x,y\n1,1\n,1\nnan,1\n", "row 2, column 'x': empty cell"),
        ],
    )
    def test_first_fault_of_the_leftmost_faulty_column(self, tmp_path, text, message):
        p = write_csv(tmp_path / "r.csv", text)
        schema = {"c": "categorical", "x": "numerical", "y": "numerical"}
        with pytest.raises(IngestError) as info:
            ingest_csv(p, {col: schema[col] for col in text.split("\n")[0].split(",")})
        assert str(info.value) == f"{p}: {message}"


class TestRelationNames:
    """A name is non-empty and holds no '.', which ends the relation's part of "Rel.Attr"."""

    @pytest.mark.parametrize("name", ["", "a.b", "."])
    def test_relation_rejects_the_name(self, name):
        with pytest.raises(RelStoreError, match="empty or contains '.'"):
            Relation(name, [("x", NumericalType(0.0, 1.0), np.array([0.5]))])

    def test_ingest_names_the_file(self, tmp_path):
        p = write_csv(tmp_path / "r.csv", "x\n1\n")
        with pytest.raises(IngestError, match=f"^{re.escape(str(p))}: relation: name 'a.b'"):
            ingest_csv(p, {"x": "numerical"}, name="a.b")
        # without a name the file stem names the relation
        p = write_csv(tmp_path / "a.b.csv", "x\n1\n")
        with pytest.raises(IngestError, match=f"^{re.escape(str(p))}: relation: name 'a.b'"):
            ingest_csv(p, {"x": "numerical"})

    def test_catalog_entry_names_the_file(self, tmp_path):
        write_csv(tmp_path / "r.csv", "x\n1\n")
        (tmp_path / "r.schema.json").write_text('{"columns": {"x": "numerical"}}', encoding="utf-8")
        path = tmp_path / "catalog.json"
        path.write_text('{"relations": [{"name": "a.b", "csv": "r.csv", "schema": "r.schema.json"}]}', encoding="utf-8")
        with pytest.raises(CatalogError, match=f"^{re.escape(str(path))}: relation entry 0: name 'a.b'"):
            load_catalog_file(path)


class TestRoundTrip:
    def test_export_ingest_identity(self, tmp_path):
        rel = synth_relation(
            11,
            200,
            [
                {"name": "u", "kind": "uniform", "lo": -3.5, "hi": 12.25},
                {"name": "g", "kind": "mixture", "components": [
                    {"weight": 1.0, "mean": 0.0, "std": 2.0}]},
                {"name": "c", "kind": "categorical", "values": ["red", "green", "blue"]},
            ],
            name="rt",
        )
        path = tmp_path / "rt.csv"
        export_csv(rel, path)
        schema = {attr: rel.type_of(attr).kind for attr in rel.attrs}
        again = ingest_csv(path, schema, name="rt")
        assert again == rel

    def test_longest_categorical_value_round_trips(self, tmp_path):
        rel = synth_relation(0, 5, [{"name": "c", "kind": "categorical", "values": ["a", "b" * 131_072]}], name="rt")
        assert rel.type_of("c").values == ("a", "b" * 131_072)
        export_csv(rel, tmp_path / "rt.csv")
        assert ingest_csv(tmp_path / "rt.csv", {"c": "categorical"}) == rel

    def test_schema_file_round_trip(self, tmp_path, tiny_relation):
        path = tmp_path / "s.json"
        save_schema(tiny_relation, path)
        name, schema = load_schema(path)
        assert name == "t"
        assert schema == {"a": "numerical", "c": "categorical"}


class TestDomainStats:
    def test_domains_bound_all_values(self):
        rng = np.random.default_rng(5)
        for seed in rng.integers(0, 10_000, size=10):
            rel = synth_relation(
                int(seed),
                50,
                [
                    {"name": "u", "kind": "uniform", "lo": 0, "hi": 10},
                    {"name": "m", "kind": "mixture", "components": [
                        {"weight": 0.5, "mean": -1, "std": 0.5},
                        {"weight": 0.5, "mean": 4, "std": 1.0}]},
                ],
            )
            for attr in rel.attrs:
                ctype = rel.type_of(attr)
                col = rel.column(attr)
                assert ctype.lo <= col.min() and col.max() <= ctype.hi

    @pytest.mark.parametrize(
        "values",
        [
            [0.5, float("nan"), 0.2],
            [0.5, float("inf")],
            [float("-inf"), 0.5],
            [0.5, float("nan"), float("inf")],
            [0.5, 1.5],
        ],
    )
    def test_relation_rejects_values_outside_the_domain(self, values):
        with pytest.raises(RelStoreError, match="outside declared domain"):
            Relation("r", [("a", NumericalType(0.0, 1.0), values)])

    def test_in_mask_marks_the_chosen_values(self):
        ctype = CategoricalType(("a", "b", "c", "d"))
        assert ctype.in_mask(("d", "a")).tolist() == [True, False, False, True]
        assert ctype.in_mask(()).tolist() == [False] * 4


class TestCatalog:
    def test_relations_sorted_by_name(self):
        rb = make_relation("b", numeric=[1.0])
        ra = make_relation("a", numeric=[1.0])
        catalog = SchemaCatalog((rb, ra))
        assert [r.name for r in catalog.relations] == ["a", "b"]

    def test_register_numeric_pair(self, two_relation_catalog):
        assert two_relation_catalog.join_pairs == (("r1.a", "r2.a"),)

    def test_type_mismatch_rejected(self):
        r1 = make_relation("r1", numeric=[1.0], categories=["x"])
        r2 = make_relation("r2", numeric=[1.0], categories=["x"])
        catalog = SchemaCatalog((r1, r2))
        with pytest.raises(CatalogError, match="mixes"):
            register_join_pair(catalog, "r1.a", "r2.c")

    def test_duplicate_registration_is_error(self, two_relation_catalog):
        with pytest.raises(CatalogError, match="already registered"):
            register_join_pair(two_relation_catalog, "r1.a", "r2.a")
        with pytest.raises(CatalogError, match="already registered"):
            register_join_pair(two_relation_catalog, "r2.a", "r1.a")
        relations = two_relation_catalog.relations
        for pairs in ((("r1.a", "r2.a"),) * 2, (("r1.a", "r2.a"), ("r2.a", "r1.a"))):
            with pytest.raises(CatalogError, match="already registered"):
                SchemaCatalog(relations, pairs)

    def test_same_relation_pair_rejected(self):
        rel = make_relation("r", numeric=[1.0], categories=["x"])
        r2 = make_relation("s", numeric=[1.0])
        catalog = SchemaCatalog((rel, r2))
        with pytest.raises(CatalogError, match="distinct"):
            register_join_pair(catalog, "r.a", "r.a")

    def test_unknown_attribute(self, two_relation_catalog):
        with pytest.raises(RelStoreError):
            register_join_pair(two_relation_catalog, "r1.zzz", "r2.a")

    def test_description_stable_across_builds(self, tmp_path):
        spec = [
            {"name": "u", "kind": "uniform", "lo": 0, "hi": 1},
            {"name": "c", "kind": "categorical", "values": ["p", "q"]},
        ]
        r1 = synth_relation(3, 40, spec, name="x1")
        r2 = synth_relation(3, 40, spec, name="x1")
        assert SchemaCatalog((r1,)).describe() == SchemaCatalog((r2,)).describe()

    def test_catalog_file_round_trip(self, tmp_path):
        rel1 = synth_relation(1, 30, [{"name": "a", "kind": "uniform", "lo": 0, "hi": 5}], name="r1")
        rel2 = synth_relation(2, 30, [{"name": "a", "kind": "uniform", "lo": 0, "hi": 5}], name="r2")
        for rel in (rel1, rel2):
            export_csv(rel, tmp_path / f"{rel.name}.csv")
            save_schema(rel, tmp_path / f"{rel.name}.schema.json")
        (tmp_path / "catalog.json").write_text(
            '{"relations": ['
            '{"name": "r1", "csv": "r1.csv", "schema": "r1.schema.json"},'
            '{"name": "r2", "csv": "r2.csv", "schema": "r2.schema.json"}],'
            '"join_pairs": [["r1.a", "r2.a"]]}',
            encoding="utf-8",
        )
        catalog = load_catalog_file(tmp_path / "catalog.json")
        assert [r.name for r in catalog.relations] == ["r1", "r2"]
        assert catalog.join_pairs == (("r1.a", "r2.a"),)

    @pytest.mark.parametrize(
        "pair, message",
        [
            (["r1.a", "r2.nope"], "unknown attribute r2.nope"),
            (["r1.a", "r1.b"], "must reference two distinct relations"),
        ],
    )
    def test_bad_join_pair_names_the_document(self, tmp_path, pair, message):
        rel1 = synth_relation(1, 30, self.TWO_COLUMNS, name="r1")
        rel2 = synth_relation(2, 30, self.TWO_COLUMNS, name="r2")
        with pytest.raises(IngestError, match=f"^spec.json: .*{message}"):
            build_catalog((rel1, rel2), [pair], "spec.json", IngestError)
        for rel in (rel1, rel2):
            export_csv(rel, tmp_path / f"{rel.name}.csv")
            save_schema(rel, tmp_path / f"{rel.name}.schema.json")
        path = tmp_path / "catalog.json"
        entries = [{"name": n, "csv": f"{n}.csv", "schema": f"{n}.schema.json"} for n in ("r1", "r2")]
        path.write_text(json.dumps({"relations": entries, "join_pairs": [pair]}), encoding="utf-8")
        with pytest.raises(CatalogError, match=f"^{re.escape(str(path))}: .*{message}"):
            load_catalog_file(path)

    TWO_COLUMNS = [{"name": "a", "kind": "uniform", "lo": 0, "hi": 5}, {"name": "b", "kind": "uniform", "lo": 0, "hi": 5}]


class TestSynth:
    UNIFORM2 = [
        {"name": "a", "kind": "uniform", "lo": 0, "hi": 1},
        {"name": "b", "kind": "uniform", "lo": -1, "hi": 1},
    ]

    def test_deterministic_for_fixed_seed(self):
        r1 = synth_relation(7, 100, self.UNIFORM2)
        r2 = synth_relation(7, 100, self.UNIFORM2)
        assert r1 == r2
        for attr in r1.attrs:
            assert r1.column(attr).tobytes() == r2.column(attr).tobytes()

    @pytest.mark.parametrize("n_rows", [1.5, True, "5"])
    def test_non_integer_rows_rejected(self, n_rows):
        with pytest.raises(IngestError, match="n_rows must be an integer"):
            synth_relation(0, n_rows, self.UNIFORM2)

    def test_zero_rows_rejected(self):
        with pytest.raises(IngestError, match=">= 1"):
            synth_relation(7, 0, self.UNIFORM2)

    def test_mixture_mean_near_analytic(self):
        # Independent oracle: mixture mean = sum w_i mu_i, variance of the
        # sample mean = (sum w_i (sigma_i^2 + mu_i^2) - mean^2) / n.
        comps = [
            {"weight": 0.3, "mean": -2.0, "std": 0.5},
            {"weight": 0.7, "mean": 5.0, "std": 1.5},
        ]
        mean = 0.3 * -2.0 + 0.7 * 5.0
        second = 0.3 * (0.5**2 + 2.0**2) + 0.7 * (1.5**2 + 5.0**2)
        var = second - mean**2
        n = 20_000
        rel = synth_relation(123, n, [{"name": "m", "kind": "mixture", "components": comps}])
        sample_mean = rel.column("m").mean()
        assert abs(sample_mean - mean) <= 3.0 * np.sqrt(var / n)

    def test_correlated_column_tracks_source(self):
        rel = synth_relation(
            9,
            5000,
            [
                {"name": "a", "kind": "uniform", "lo": 0, "hi": 1},
                {"name": "b", "kind": "correlated", "source": "a", "rho": 0.9, "mean": 10, "std": 2},
            ],
        )
        r = np.corrcoef(rel.column("a"), rel.column("b"))[0, 1]
        assert r > 0.8

    @pytest.mark.parametrize(
        "spec, match",
        [
            ([{"name": "x", "kind": "nope"}], "unknown generator"),
            ([{"kind": "uniform", "lo": 0, "hi": 1}], "missing 'name'"),
            ([{"name": "x", "kind": "uniform", "lo": 1, "hi": 1}], "lo < hi"),
            ([{"name": "x", "kind": "mixture", "components": []}], "components"),
            ([{"name": "x", "kind": "correlated", "source": "y", "rho": 0.5}], "source"),
            ([{"name": "x", "kind": "categorical", "values": []}], "values"),
            (
                [{"name": "x", "kind": "categorical", "values": ["a"], "weights": [1, 2]}],
                "weights",
            ),
            ([{"name": "x", "kind": "mixture", "components": [
                {"weight": 1, "mean": 0, "std": 0}]}], "stds"),
            ([{"name": "x", "kind": "uniform", "lo": None, "hi": 1}], "'x': lo must be a finite number"),
            ([{"name": "x", "kind": "uniform", "lo": True, "hi": 2}], "'x': lo must be a finite number"),
            ([{"name": "x", "kind": "uniform", "lo": "0", "hi": 1}], "'x': lo must be a finite number"),
            ([{"name": "x", "kind": "uniform", "lo": 0, "hi": float("inf")}], "'x': hi must be a finite number"),
            ([{"name": "x", "kind": "uniform_int", "lo": 0, "hi": None}], "'x': hi must be a finite number"),
            ([{"name": "x", "kind": "mixture", "components": 5}], "'x': 'components' must be a list"),
            ([{"name": "x", "kind": "mixture", "components": [5]}], "'x': a mixture component"),
            ([{"name": "x", "kind": "mixture", "components": [
                {"weight": 1, "mean": "0", "std": 1}]}], "'x': mean must be a finite number"),
            ([{"name": "x", "kind": "mixture", "components": [
                {"mean": 0, "std": 1, "sd": 1}]}], "'x': a mixture component"),
            ([{"name": "x", "kind": "categorical", "values": "abc"}], "'x': 'values' must be a list"),
            ([{"name": "x", "kind": "categorical", "values": ["a"], "weights": "1"}], "'x': 'weights' must be a list"),
            ([{"name": "x", "kind": "categorical", "values": ["a"], "weights": [None]}],
             "'x': weights must be a finite number"),
            ([{"name": "a", "kind": "uniform", "lo": 0, "hi": 1},
              {"name": "x", "kind": "correlated", "source": "a", "rho": 0.5, "std": None}],
             "'x': std must be a finite number"),
            ([{"name": "x", "kind": "uniform", "lo": 0, "hi": 1, "weights": [1]}], "'x': unknown keys \\['weights'\\]"),
            ([{"name": 5, "kind": "uniform", "lo": 0, "hi": 1}], "column name must be a string"),
            (["x"], "column spec must be an object"),
            ([{"name": "x", "kind": "uniform_int", "lo": 0.5, "hi": 3}], "'x': uniform_int lo must be an integer"),
            ([{"name": "x", "kind": "uniform_int", "lo": 0, "hi": 2.5}], "'x': uniform_int hi must be an integer"),
            # values a CSV cannot carry back: an empty cell, a string UTF-8 cannot encode
            ([{"name": "x", "kind": "categorical", "values": ["a", ""]}], "'x': categorical values must be non-empty"),
            ([{"name": "x", "kind": "categorical", "values": ["a", "\ud800"]}],
             "'x': categorical value '.ud800' cannot be encoded as UTF-8"),
            ([{"name": "\udfff", "kind": "uniform", "lo": 0, "hi": 1}], "column name '.udfff' cannot be encoded"),
            # a value or name longer than `csv.field_size_limit()` could be written but not read back
            ([{"name": "x", "kind": "categorical", "values": ["a", "b" * 131_073]}],
             "'x': categorical value of 131073 characters is longer than a CSV cell may be \\(131072\\)"),
            ([{"name": "x" * 131_073, "kind": "uniform", "lo": 0, "hi": 1}],
             "column name of 131073 characters is longer than a CSV cell may be \\(131072\\)"),
        ],
    )
    def test_invalid_specs(self, spec, match):
        with pytest.raises(IngestError, match=match):
            synth_relation(0, 10, spec)

    def test_uniform_int_takes_integral_floats(self):
        spec = [{"name": "x", "kind": "uniform_int", "lo": 2.0, "hi": 4}]
        assert set(synth_relation(0, 200, spec).column("x").tolist()) == {2.0, 3.0, 4.0}

    def test_categorical_domain_is_observed_set(self):
        rel = synth_relation(
            4, 3, [{"name": "c", "kind": "categorical", "values": ["a", "b", "c", "d", "e"]}]
        )
        ctype = rel.type_of("c")
        observed = {ctype.values[code] for code in rel.column("c")}
        assert set(ctype.values) == observed


class TestImmutability:
    def test_columns_read_only(self, tiny_relation):
        with pytest.raises(ValueError):
            tiny_relation.column("a")[0] = 99.0

    def test_renamed_shares_data(self, tiny_relation):
        alias = tiny_relation.renamed("t2")
        assert alias.name == "t2"
        assert alias.column("a") is tiny_relation.column("a")
