"""Query model: canonicalization, validation, JSONL round trips."""

import pytest

from nngp_card.queries import (
    InFilter,
    JoinCondition,
    Query,
    QueryError,
    RangeFilter,
    query_from_dict,
    query_to_dict,
    read_queries_jsonl,
    write_queries_jsonl,
)
from nngp_card.relstore import SchemaCatalog, register_join_pair

from conftest import make_relation


class TestFilters:
    def test_range_order(self):
        with pytest.raises(QueryError, match="lb.*ub"):
            RangeFilter(2.0, 1.0)

    def test_in_filter_nonempty(self):
        with pytest.raises(QueryError):
            InFilter(())

    def test_in_filter_canonical_order(self):
        assert InFilter(("b", "a", "b")).values == ("a", "b")

    def test_join_op_validated(self):
        with pytest.raises(QueryError, match="unknown join op"):
            JoinCondition(0, "~")


class TestCanonicalization:
    def test_structural_equality_ignores_order_and_id(self):
        q1 = Query(
            relations=("r2", "r1"),
            selections=(("r2.a", RangeFilter(0, 1)), ("r1.a", RangeFilter(0, 2))),
            joins=(JoinCondition(1, "="), JoinCondition(0, "<")),
            id=5,
        )
        q2 = Query(
            relations=("r1", "r2"),
            selections=(("r1.a", RangeFilter(0, 2)), ("r2.a", RangeFilter(0, 1))),
            joins=(JoinCondition(0, "<"), JoinCondition(1, "=")),
            id=99,
        )
        assert q1 == q2
        assert hash(q1) == hash(q2)
        assert q1.n_conditions == 4


@pytest.fixture
def catalog():
    r1 = make_relation("r1", numeric=[0.0, 5.0], categories=["x", "y"])
    r2 = make_relation("r2", numeric=[1.0, 2.0], categories=["x", "z"])
    r3 = make_relation("r3", numeric=[1.0, 2.0])
    cat = SchemaCatalog((r1, r2, r3))
    cat = register_join_pair(cat, "r1.a", "r2.a")
    cat = register_join_pair(cat, "r1.c", "r2.c")
    cat = register_join_pair(cat, "r2.a", "r3.a")
    return cat


class TestValidation:
    def test_valid_query(self, catalog):
        q = Query(
            relations=("r1", "r2"),
            selections=(("r1.a", RangeFilter(1.0, 4.0)), ("r2.c", InFilter(("x",)))),
            joins=(JoinCondition(0, "<="),),
        )
        q.validate(catalog)

    def test_range_outside_domain(self, catalog):
        q = Query(("r1",), (("r1.a", RangeFilter(-1.0, 3.0)),))
        with pytest.raises(QueryError, match="outside domain"):
            q.validate(catalog)

    def test_in_values_outside_domain(self, catalog):
        q = Query(("r1",), (("r1.c", InFilter(("nope",))),))
        with pytest.raises(QueryError, match="outside domain"):
            q.validate(catalog)

    def test_filter_kind_must_match_column_kind(self, catalog):
        with pytest.raises(QueryError, match="range filter on categorical"):
            Query(("r1",), (("r1.c", RangeFilter(0, 1)),)).validate(catalog)
        with pytest.raises(QueryError, match="IN filter on numerical"):
            Query(("r1",), (("r1.a", InFilter(("x",))),)).validate(catalog)

    def test_categorical_join_ops_restricted(self, catalog):
        for op in ("<", "<=", ">", ">="):
            q = Query(("r1", "r2"), joins=(JoinCondition(1, op),))
            with pytest.raises(QueryError, match="order-free"):
                q.validate(catalog)
        Query(("r1", "r2"), joins=(JoinCondition(1, "="),)).validate(catalog)
        Query(("r1", "r2"), joins=(JoinCondition(1, "!="),)).validate(catalog)

    def test_single_relation_must_have_no_joins(self, catalog):
        q = Query(("r1",), joins=(JoinCondition(0, "="),))
        with pytest.raises(QueryError):
            q.validate(catalog)

    def test_disconnected_relations_rejected(self, catalog):
        # r1-r2 join present but r3 dangles
        q = Query(("r1", "r2", "r3"), joins=(JoinCondition(0, "="),))
        with pytest.raises(QueryError, match="not connected"):
            q.validate(catalog)

    def test_connected_three_way_accepted(self, catalog):
        q = Query(("r1", "r2", "r3"), joins=(JoinCondition(0, "="), JoinCondition(2, "=")))
        q.validate(catalog)

    def test_duplicate_selection_attribute(self, catalog):
        q = Query(
            ("r1",),
            (("r1.a", RangeFilter(0.0, 1.0)), ("r1.a", RangeFilter(2.0, 3.0))),
        )
        with pytest.raises(QueryError, match="multiple selections"):
            q.validate(catalog)

    def test_duplicate_join_pair(self, catalog):
        q = Query(
            ("r1", "r2"),
            joins=(JoinCondition(0, "="), JoinCondition(0, "<")),
        )
        with pytest.raises(QueryError, match="duplicate join"):
            q.validate(catalog)

    def test_selection_on_foreign_relation(self, catalog):
        q = Query(("r1",), (("r2.a", RangeFilter(1.0, 2.0)),))
        with pytest.raises(QueryError, match="not in query relations"):
            q.validate(catalog)

    def test_join_pair_index_out_of_range(self, catalog):
        q = Query(("r1", "r2"), joins=(JoinCondition(9, "="),))
        with pytest.raises(QueryError, match="out of range"):
            q.validate(catalog)


class TestSerialization:
    def test_dict_round_trip(self):
        q = Query(
            relations=("r1", "r2"),
            selections=(("r1.a", RangeFilter(0.25, 0.75)), ("r2.c", InFilter(("x", "z")))),
            joins=(JoinCondition(0, "!="),),
            id=3,
        )
        doc = query_to_dict(q, cardinality=42)
        q2, card = query_from_dict(doc)
        assert q2 == q
        assert q2.id == 3
        assert card == 42

    def test_jsonl_round_trip(self, tmp_path):
        queries = [
            (Query(("r1",), (("r1.a", RangeFilter(0, 1)),), id=0), 10),
            (Query(("r1",), (("r1.c", InFilter(("x",))),), id=1), None),
        ]
        path = tmp_path / "q.jsonl"
        write_queries_jsonl(path, queries, header={"n": 2})
        items, header = read_queries_jsonl(path)
        assert header == {"n": 2}
        assert [(q, c) for q, c in items] == queries

    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"relations": ["r1"]}\nnot json\n', encoding="utf-8")
        with pytest.raises(QueryError, match="line 2"):
            read_queries_jsonl(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"relations": ["r1"], "selections": [{"range": [0, 1]}]}', "missing key 'attr'"),
            ('{"selections": []}', "missing key 'relations'"),
            ('{"relations": "r1"}', "relations must be a list of strings, got 'r1'"),
            ('{"relations": ["r1"], "id": "7"}', "id must be an integer, got '7'"),
            ('{"relations": ["r1"], "cardinality": 2.5}', "cardinality must be an integer, got 2.5"),
            ('{"relations": ["r1"], "joins": [{"pair": "0", "op": "="}]}', "join pair must be an integer, got '0'"),
            ('{"relations": ["r1"], "joins": [{"pair": 0}]}', "missing key 'op'"),
            ('{"relations": ["r1"], "selections": [{"attr": 3, "in": ["x"]}]}', "must be a string"),
            ('{"relations": ["r1"], "selections": [{"attr": "r1.c", "in": "xz"}]}',
             "IN values must be a list of strings, got 'xz'"),
            ('{"relations": ["r1"], "selections": [{"attr": "r1.a", "range": [2, 1]}]}', "lb=2.0 > ub=1.0"),
            ("[]", "not a JSON object"),
            # values of the wrong JSON type are rejected, not coerced
            ('{"relations": ["r1"], "selections": [{"attr": "r1.a", "range": "12"}]}',
             "range must be a list of two numbers, got '12'"),
            ('{"relations": ["r1"], "selections": [{"attr": "r1.a", "range": [true, "3"]}]}',
             "range must be a list of two numbers, got [True, '3']"),
            ('{"relations": ["r1"], "selections": [{"attr": "r1.a", "range": [0, 1, 2]}]}',
             "range must be a list of two numbers, got [0, 1, 2]"),
            ('{"relations": ["r1"], "joins": [{"pair": true, "op": "="}]}', "join pair must be an integer, got True"),
            ('{"relations": ["r1"], "id": false}', "id must be an integer, got False"),
            ('{"relations": ["r1"], "cardinality": true}', "cardinality must be an integer, got True"),
            ('{"relations": ["r1"], "selections": [{"attr": "r1.c", "in": [1, 2.0]}]}',
             "IN values must be a list of strings, got [1, 2.0]"),
            ('{"relations": ["r1"], "joins": [{"pair": 0, "op": 1}]}', "unknown join op 1"),
            ('{"relations": ["r1", 2]}', "relations must be a list of strings, got ['r1', 2]"),
            ('{"relations": ["r1"], "selections": [{"attr": "r1.a", "range": [0, 1%s]}]}' % ("0" * 400),
             "int too large to convert to float"),
        ],
    )
    def test_bad_record_names_path_and_line(self, tmp_path, line, message):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"_header": {}}\n{"relations": ["r1"]}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(QueryError) as info:
            read_queries_jsonl(path)
        assert str(info.value).startswith(f"{path}: line 3: ") and message in str(info.value)

    def test_selection_without_filter_kind(self):
        with pytest.raises(QueryError, match="neither"):
            query_from_dict({"relations": ["r1"], "selections": [{"attr": "r1.a"}]})
