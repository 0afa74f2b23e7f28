"""Exact executor: hand enumerations, differential checks, join-path agreement."""

import numpy as np
import pytest

from nngp_card.oracle import (
    MAX_INTERMEDIATE,
    OracleError,
    _forest_count,
    _selection_rows,
    execute,
    execute_batch,
)
from nngp_card.queries import InFilter, JoinCondition, Query, QueryError, RangeFilter
from nngp_card.relstore import SchemaCatalog, register_join_pair

from conftest import make_relation, random_instance, random_query as _random_query
from naive_oracle import naive_count


class TestSingleRelation:
    def test_range_filter_count(self, tiny_relation):
        catalog = SchemaCatalog((tiny_relation,))
        q = Query(("t",), (("t.a", RangeFilter(1.0, 2.0)),))
        assert execute(q, catalog) == 2

    def test_in_filter_count(self, tiny_relation):
        catalog = SchemaCatalog((tiny_relation,))
        q = Query(("t",), (("t.c", InFilter(("a",))),))
        assert execute(q, catalog) == 2

    def test_empty_result_is_zero_not_error(self, tiny_relation):
        catalog = SchemaCatalog((tiny_relation,))
        q = Query(("t",), (("t.a", RangeFilter(1.2, 1.3)),))
        assert execute(q, catalog) == 0

    def test_no_conditions_counts_all_rows(self, tiny_relation):
        catalog = SchemaCatalog((tiny_relation,))
        assert execute(Query(("t",)), catalog) == 3


class TestJoins:
    def test_equi_join_by_hand(self, two_relation_catalog):
        q = Query(("r1", "r2"), joins=(JoinCondition(0, "="),))
        assert execute(q, two_relation_catalog) == 1  # only 2=2 matches

    def test_theta_join_by_hand(self, two_relation_catalog):
        # r1.a in {1,2}, r2.a in {2,3}: pairs with r1.a < r2.a are
        # (1,2), (1,3), (2,3) -> 3
        q = Query(("r1", "r2"), joins=(JoinCondition(0, "<"),))
        assert execute(q, two_relation_catalog) == 3

    def test_hash_and_nested_paths_agree(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            catalog = random_instance(rng)
            if len(catalog.relations) < 2:
                continue
            names = tuple(r.name for r in catalog.relations)
            joins = tuple(
                JoinCondition(i, "=") for i in range(len(catalog.join_pairs))
            )
            q = Query(names, joins=joins)
            try:
                q.validate(catalog)
            except QueryError:
                continue
            assert execute(q, catalog, "auto") == execute(q, catalog, "nested")

    def test_self_join_via_rename_matches_physical_copy(self):
        base = make_relation("s1", numeric=[1.0, 2.0, 2.0, 5.0])
        alias = base.renamed("s2")
        catalog = register_join_pair(SchemaCatalog((base, alias)), "s1.a", "s2.a")

        copy = make_relation("s2", numeric=[1.0, 2.0, 2.0, 5.0])
        catalog_copy = register_join_pair(SchemaCatalog((base, copy)), "s1.a", "s2.a")

        q = Query(("s1", "s2"), joins=(JoinCondition(0, "="),))
        assert execute(q, catalog) == execute(q, catalog_copy) == 6  # 1+4+1

    def test_unknown_strategy(self, two_relation_catalog):
        for strategy in ("magic", "hash"):
            with pytest.raises(OracleError, match="strategy"):
                execute(Query(("r1",)), two_relation_catalog, strategy)


def _tree_instance(rng, shape):
    """Relations r0..r{n-1} joined along a star, a chain or a random tree.

    Keys come from a few small values, so both sides of every edge carry
    duplicates, and each relation's categorical domain is a random subset of
    four values, so categorical pairs hold values absent on one side.
    """
    n = int(rng.integers(2, 5))
    relations = []
    for i in range(n):
        rows = int(rng.integers(1, 7))
        domain = rng.choice(["w", "x", "y", "z"], size=int(rng.integers(2, 5)), replace=False)
        relations.append(
            make_relation(
                f"r{i}",
                numeric=rng.integers(0, 3, size=rows).astype(np.float64),
                categories=rng.choice(domain, size=rows).tolist(),
            )
        )
    catalog = SchemaCatalog(tuple(relations))
    for i in range(1, n):
        parent = {"star": 0, "chain": i - 1, "tree": int(rng.integers(i))}[shape]
        attr = "ac"[int(rng.integers(2))]
        ends = [f"r{parent}.{attr}", f"r{i}.{attr}"]
        if rng.random() < 0.5:
            ends.reverse()
        catalog = register_join_pair(catalog, *ends)
    return catalog


def _random_selections(catalog, rng):
    selections = []
    for rel in catalog.relations:
        roll = rng.random()
        keys = rel.type_of("a")
        if roll < 0.08 and keys.hi > keys.lo:  # selects nothing: the keys are integers
            selections.append((f"{rel.name}.a", RangeFilter(keys.lo + 0.25, keys.lo + 0.75)))
        elif roll < 0.35:
            values = rel.type_of("c").values
            picked = rng.choice(values, size=int(rng.integers(1, len(values) + 1)), replace=False)
            selections.append((f"{rel.name}.c", InFilter(tuple(picked.tolist()))))
    return tuple(selections)


def _selected(query, catalog):
    return {name: _selection_rows(catalog.relation(name), name, query) for name in query.relations}


class TestJoinTree:
    @pytest.mark.parametrize("shape", ["star", "chain", "tree"])
    def test_matches_nested_and_naive(self, shape):
        rng = np.random.default_rng({"star": 61, "chain": 62, "tree": 63}[shape])
        for _ in range(100):
            catalog = _tree_instance(rng, shape)
            names = tuple(r.name for r in catalog.relations)
            joins = tuple(JoinCondition(i, "=") for i in range(len(catalog.join_pairs)))
            q = Query(names, _random_selections(catalog, rng), joins)
            expected = naive_count(q, catalog)
            assert _forest_count(q, catalog, _selected(q, catalog)) == expected
            assert execute(q, catalog, "auto") == execute(q, catalog, "nested") == expected

    def test_forest_counts_the_product_of_its_components(self):
        # execute rejects a disconnected query; the counting itself multiplies
        # the component counts, a cross product when no condition is left.
        rng = np.random.default_rng(64)
        for _ in range(60):
            catalog = _tree_instance(rng, "tree")
            names = tuple(r.name for r in catalog.relations)
            keep = rng.random(len(catalog.join_pairs)) < 0.5
            joins = tuple(JoinCondition(i, "=") for i in np.flatnonzero(keep).tolist())
            q = Query(names, _random_selections(catalog, rng), joins)
            assert _forest_count(q, catalog, _selected(q, catalog)) == naive_count(q, catalog)
            if not joins:
                with pytest.raises(QueryError, match="not connected"):
                    execute(q, catalog)

    def test_cyclic_and_theta_queries_keep_the_left_deep_path(self):
        rng = np.random.default_rng(65)
        kinds = set()
        for _ in range(80):
            catalog = random_instance(rng)
            if len(catalog.join_pairs) < 2:
                continue
            names = tuple(r.name for r in catalog.relations)
            ops = rng.choice(["=", "<", "!="], size=len(catalog.join_pairs), p=[0.7, 0.15, 0.15])
            if len(catalog.join_pairs) == 3:  # the r0.c, r2.c pair closes a triangle
                ops[2] = rng.choice(["=", "!="])
            joins = tuple(JoinCondition(i, str(op)) for i, op in enumerate(ops))
            q = Query(names, _random_selections(catalog, rng), joins)
            if set(ops) != {"="}:
                kinds.add("theta")
            elif len(joins) == len(names):
                kinds.add("triangle")
            else:
                continue
            assert _forest_count(q, catalog, _selected(q, catalog)) is None
            assert execute(q, catalog, "auto") == execute(q, catalog, "nested") == naive_count(q, catalog)
        assert kinds == {"theta", "triangle"}

    def test_two_conditions_between_one_pair_of_relations(self):
        r1 = make_relation("r1", numeric=[1.0, 2.0, 2.0], categories=["x", "y", "y"])
        r2 = make_relation("r2", numeric=[2.0, 2.0, 3.0], categories=["y", "z", "y"])
        catalog = register_join_pair(SchemaCatalog((r1, r2)), "r1.a", "r2.a")
        catalog = register_join_pair(catalog, "r1.c", "r2.c")
        q = Query(("r1", "r2"), joins=(JoinCondition(0, "="), JoinCondition(1, "=")))
        assert _forest_count(q, catalog, _selected(q, catalog)) is None
        assert execute(q, catalog) == execute(q, catalog, "nested") == naive_count(q, catalog) == 2

    def test_count_beyond_the_intermediate_bound_is_exact(self):
        r1 = make_relation("r1", numeric=np.zeros(5000))
        r2 = make_relation("r2", numeric=np.zeros(5000))
        catalog = register_join_pair(SchemaCatalog((r1, r2)), "r1.a", "r2.a")
        q = Query(("r1", "r2"), joins=(JoinCondition(0, "="),))
        assert 5000 * 5000 > MAX_INTERMEDIATE
        assert execute(q, catalog) == 25_000_000
        with pytest.raises(OracleError, match="desk-scale bound"):
            execute(q, catalog, "nested")

    @pytest.mark.parametrize("rows", [200_000, 300_001])
    def test_large_chain_count_is_exact_or_refused(self, rows):
        relations = tuple(make_relation(f"r{i}", numeric=np.zeros(rows)) for i in range(3))
        catalog = register_join_pair(SchemaCatalog(relations), "r0.a", "r1.a")
        catalog = register_join_pair(catalog, "r1.a", "r2.a")
        q = Query(("r0", "r1", "r2"), joins=(JoinCondition(0, "="), JoinCondition(1, "=")))
        try:
            count = execute(q, catalog)
        except OracleError:
            assert rows**3 >= 2**53  # refusing is allowed only past float64's exact range
            return
        assert count == rows**3


class TestDifferential:
    def test_matches_naive_enumeration(self):
        rng = np.random.default_rng(1234)
        checked = 0
        while checked < 200:
            catalog = random_instance(rng)
            q = _random_query(catalog, rng)
            if q is None:
                continue
            assert execute(q, catalog) == naive_count(q, catalog)
            checked += 1


class TestMonotonicity:
    def test_widening_filters_never_decreases_count(self):
        rng = np.random.default_rng(99)
        checked = 0
        while checked < 120:
            catalog = random_instance(rng)
            q = _random_query(catalog, rng)
            if q is None or not q.selections:
                continue
            idx = int(rng.integers(len(q.selections)))
            ref, flt = q.selections[idx]
            rel_name, attr = ref.split(".")
            ctype = catalog.relation(rel_name).type_of(attr)
            if isinstance(flt, RangeFilter):
                widened = RangeFilter(ctype.lo, ctype.hi)
            else:
                widened = InFilter(ctype.values)
            selections = list(q.selections)
            selections[idx] = (ref, widened)
            q_wide = Query(q.relations, tuple(selections), q.joins)
            assert execute(q_wide, catalog) >= execute(q, catalog)
            checked += 1


class TestBatch:
    def test_empty_batch(self, two_relation_catalog):
        assert execute_batch([], two_relation_catalog) == []

    def test_identical_queries_identical_labels(self, two_relation_catalog):
        q = Query(("r1", "r2"), joins=(JoinCondition(0, "="),))
        assert execute_batch([q, q], two_relation_catalog) == [1, 1]

    def test_shuffled_batch_matches_permutation(self, tiny_relation):
        catalog = SchemaCatalog((tiny_relation,))
        queries = [
            Query(("t",), (("t.a", RangeFilter(1.0, float(ub))),)) for ub in (1, 2, 3)
        ]
        labels = execute_batch(queries, catalog)
        perm = [2, 0, 1]
        shuffled = execute_batch([queries[i] for i in perm], catalog)
        assert shuffled == [labels[i] for i in perm]

    def test_first_validation_error_reports_index(self, tiny_relation):
        catalog = SchemaCatalog((tiny_relation,))
        good = Query(("t",), (("t.a", RangeFilter(1.0, 2.0)),))
        bad = Query(("t",), (("t.a", RangeFilter(-5.0, 2.0)),))
        with pytest.raises(QueryError, match="query 1"):
            execute_batch([good, bad, bad], catalog)
        # pooled: spans of one query each, so several workers fail at once
        batch = [good] * 5 + [bad] + [good] * 3 + [bad] * 3
        for threads in (1, 2):
            with pytest.raises(QueryError, match=r"^query 5: "):
                execute_batch(batch, catalog, threads=threads)

    def test_each_query_is_validated_once(self, tiny_relation, monkeypatch):
        catalog = SchemaCatalog((tiny_relation,))
        queries = [Query(("t",), (("t.a", RangeFilter(1.0, float(ub))),)) for ub in (1, 2, 3, 3, 2, 1)]
        calls = []
        original = Query.validate

        def counting(self, catalog):
            calls.append(self)
            return original(self, catalog)

        monkeypatch.setattr(Query, "validate", counting)
        for threads in (1, 2):
            calls.clear()
            assert execute_batch(queries, catalog, threads=threads) == [1, 2, 3, 3, 2, 1]
            assert len(calls) == len(queries)

    def test_thread_count_invariance(self):
        rng = np.random.default_rng(31)
        catalog = random_instance(rng, max_relations=2)
        queries = []
        while len(queries) < 24:
            q = _random_query(catalog, rng)
            if q is not None:
                queries.append(q)
        assert execute_batch(queries, catalog, threads=1) == execute_batch(
            queries, catalog, threads=3
        )
