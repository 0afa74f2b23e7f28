"""Exact executor: hand enumerations, differential checks, join-path agreement."""

import numpy as np
import pytest

from nngp_card.oracle import OracleError, execute, execute_batch
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
