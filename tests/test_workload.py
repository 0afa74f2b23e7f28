"""Workload generation: condition counts, walks, dedup, stratified splits."""

import numpy as np
import pytest

from nngp_card.queries import Query, RangeFilter
from nngp_card.relstore import SchemaCatalog, register_join_pair, synth_relation
from nngp_card.workload import (
    LabeledWorkload,
    WorkloadError,
    WorkloadItem,
    check_fractions,
    finalize,
    gen_join,
    gen_single_relation,
    load_workload,
    save_workload,
    split,
)



@pytest.fixture(scope="module")
def relation():
    return synth_relation(
        42,
        500,
        [
            {"name": "a1", "kind": "uniform", "lo": 0, "hi": 100},
            {"name": "a2", "kind": "uniform", "lo": -1, "hi": 1},
            {"name": "a3", "kind": "mixture", "components": [
                {"weight": 0.5, "mean": 0, "std": 1}, {"weight": 0.5, "mean": 10, "std": 2}]},
            {"name": "c1", "kind": "categorical", "values": list("abcdefghij")},
        ],
        name="rel",
    )


@pytest.fixture(scope="module")
def chain_catalog():
    rels = tuple(
        synth_relation(
            i, 40, [{"name": "a", "kind": "uniform", "lo": 0, "hi": 10},
                    {"name": "b", "kind": "uniform", "lo": 0, "hi": 10}], name=f"r{i}"
        )
        for i in range(4)
    )
    catalog = SchemaCatalog(rels)
    for i in range(3):
        catalog = register_join_pair(catalog, f"r{i}.a", f"r{i + 1}.a")
    return catalog


class TestGenSingleRelation:
    def test_exactly_d_distinct_attributes(self, relation):
        for q in gen_single_relation(relation, 2, 50, seed=0):
            attrs = [ref for ref, _ in q.selections]
            assert len(attrs) == 2
            assert len(set(attrs)) == 2
            assert q.joins == ()

    def test_deterministic_under_seed(self, relation):
        assert gen_single_relation(relation, 3, 20, seed=5) == gen_single_relation(
            relation, 3, 20, seed=5
        )

    def test_n_zero_rejected(self, relation):
        with pytest.raises(WorkloadError, match="n must be"):
            gen_single_relation(relation, 2, 0, seed=0)

    @pytest.mark.parametrize("d", [0, 1, 5])
    def test_d_out_of_range(self, relation, d):
        with pytest.raises(WorkloadError, match="out of range"):
            gen_single_relation(relation, d, 5, seed=0)

    def test_all_queries_validate(self, relation):
        catalog = SchemaCatalog((relation,))
        for d in (2, 3, 4):
            for q in gen_single_relation(relation, d, 40, seed=d):
                q.validate(catalog)

    def test_attribute_subsets_roughly_uniform(self, relation):
        # chi-square sanity: 4 attributes, d=2 -> 6 subsets
        from itertools import combinations

        queries = gen_single_relation(relation, 2, 1200, seed=8)
        subsets = {frozenset(c): 0 for c in combinations(relation.attrs, 2)}
        for q in queries:
            key = frozenset(ref.split(".")[1] for ref, _ in q.selections)
            subsets[key] += 1
        expected = 1200 / 6
        chi2 = sum((obs - expected) ** 2 / expected for obs in subsets.values())
        assert chi2 < 20.5  # p ~ 0.001 at 5 dof


class TestGenJoin:
    def test_t0_yields_single_relation_queries(self, chain_catalog):
        for q in gen_join(chain_catalog, 0, 30, seed=1):
            assert q.joins == ()
            assert len(q.relations) == 1
            assert len(q.selections) == 1

    def test_t1_two_relations_one_join(self):
        r1 = synth_relation(0, 20, [{"name": "a", "kind": "uniform", "lo": 0, "hi": 1},
                                    {"name": "b", "kind": "uniform", "lo": 0, "hi": 1}], name="x")
        r2 = synth_relation(1, 20, [{"name": "a", "kind": "uniform", "lo": 0, "hi": 1},
                                    {"name": "b", "kind": "uniform", "lo": 0, "hi": 1}], name="y")
        catalog = register_join_pair(SchemaCatalog((r1, r2)), "x.a", "y.a")
        for q in gen_join(catalog, 1, 20, seed=2):
            assert set(q.relations) == {"x", "y"}
            assert len(q.joins) == 1

    def test_walk_produces_connected_set(self, chain_catalog):
        # independent connectivity oracle: BFS over the query's join edges
        for q in gen_join(chain_catalog, 3, 40, seed=3):
            assert len(q.joins) == 3
            adj = {name: set() for name in q.relations}
            for cond in q.joins:
                left, right = chain_catalog.join_pairs[cond.pair]
                l, r = left.split(".")[0], right.split(".")[0]
                adj[l].add(r)
                adj[r].add(l)
            seen, frontier = {q.relations[0]}, [q.relations[0]]
            while frontier:
                for nxt in adj[frontier.pop()]:
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
            assert seen == set(q.relations)
            q.validate(chain_catalog)

    def test_selections_avoid_join_attributes(self, chain_catalog):
        for q in gen_join(chain_catalog, 2, 40, seed=4):
            join_attrs = set()
            for cond in q.joins:
                join_attrs.update(chain_catalog.join_pairs[cond.pair])
            assert not join_attrs & {ref for ref, _ in q.selections}

    def test_deterministic_under_seed(self, chain_catalog):
        assert gen_join(chain_catalog, 2, 15, seed=6) == gen_join(chain_catalog, 2, 15, seed=6)

    def test_t_out_of_range(self, chain_catalog):
        with pytest.raises(WorkloadError, match="out of range"):
            gen_join(chain_catalog, 4, 5, seed=0)

    def test_negative_conds_per_relation(self, chain_catalog):
        with pytest.raises(WorkloadError, match="conds_per_relation must be >= 0, got -1"):
            gen_join(chain_catalog, 1, 5, seed=0, conds_per_relation=-1)

    def test_walk_exhaustion_reported(self):
        rels = tuple(
            synth_relation(i, 10, [{"name": "a", "kind": "uniform", "lo": 0, "hi": 1}], name=f"r{i}")
            for i in range(3)
        )
        catalog = register_join_pair(SchemaCatalog(rels), "r0.a", "r1.a")
        with pytest.raises(WorkloadError, match="exceeds the 1 registered"):
            gen_join(catalog, 2, 5, seed=0)


class TestFinalize:
    def test_duplicates_collapse(self, relation):
        catalog = SchemaCatalog((relation,))
        q = gen_single_relation(relation, 2, 1, seed=0)[0]
        labeled = finalize([q, q, q], catalog)
        assert len(labeled) == 1

    def test_zero_cardinality_dropped(self, tiny_relation):
        catalog = SchemaCatalog((tiny_relation,))
        hit = Query(("t",), (("t.a", RangeFilter(1.0, 3.0)),))
        miss = Query(("t",), (("t.a", RangeFilter(1.2, 1.3)),))
        labeled = finalize([hit, miss], catalog)
        assert [it.cardinality for it in labeled.items] == [3]

    def test_distinct_nonzero_batch_preserved(self, relation):
        catalog = SchemaCatalog((relation,))
        t1 = relation.type_of("a1")
        t2 = relation.type_of("a2")
        queries = [
            Query(
                ("rel",),
                (
                    ("rel.a1", RangeFilter(t1.lo, t1.lo + frac * t1.width)),
                    ("rel.a2", RangeFilter(t2.lo, t2.hi)),
                ),
            )
            for frac in (0.6, 0.7, 0.8, 0.9)
        ]
        labeled = finalize(queries, catalog)
        assert len(labeled) == len(queries)
        assert [it.query.id for it in labeled.items] == list(range(len(queries)))

    def test_labels_match_oracle(self, relation):
        from nngp_card.oracle import execute

        catalog = SchemaCatalog((relation,))
        labeled = finalize(gen_single_relation(relation, 2, 30, seed=9), catalog)
        for item in labeled.items:
            assert item.cardinality == execute(item.query, catalog) >= 1


def _dummy_workload(n, n_conditions=lambda i: 2):
    items = []
    for i in range(n):
        q = Query(
            ("r",),
            tuple((f"r.a{j}", RangeFilter(0, 1)) for j in range(n_conditions(i))),
            id=i,
        )
        items.append(WorkloadItem(q, i + 1))
    return LabeledWorkload(items)


class TestSplit:
    def test_single_stratum_fractions(self):
        train, valid, test, report = split(_dummy_workload(100), (0.6, 0.2, 0.2), seed=0)
        assert (len(train), len(valid), len(test)) == (60, 20, 20)
        assert report["counts"]["total"] == 100

    def test_empty_workload(self):
        train, valid, test, report = split(LabeledWorkload([]), seed=0)
        assert (len(train), len(valid), len(test)) == (0, 0, 0)
        assert report["cardinality_range"] is None

    def test_two_strata_respected(self):
        wl = _dummy_workload(100, n_conditions=lambda i: 2 if i < 50 else 3)
        train, valid, test, report = split(wl, (0.6, 0.2, 0.2), seed=1)
        for part, want in ((train, 30), (valid, 10), (test, 10)):
            counts = {2: 0, 3: 0}
            for it in part.items:
                counts[it.query.n_conditions] += 1
            assert counts == {2: want, 3: want}

    def test_small_stratum_goes_to_train(self):
        wl = _dummy_workload(52, n_conditions=lambda i: 2 if i < 50 else 5)
        train, valid, test, report = split(wl, (0.6, 0.2, 0.2), seed=2)
        assert report["small_strata_in_train"] == [5]
        small = [it for it in train.items if it.query.n_conditions == 5]
        assert len(small) == 2

    def test_partition_exact_and_disjoint(self):
        rng = np.random.default_rng(3)
        wl = _dummy_workload(237, n_conditions=lambda i: int(rng.integers(2, 6)))
        train, valid, test, _ = split(wl, (0.5, 0.25, 0.25), seed=4)
        ids = lambda part: {it.query.id for it in part.items}
        assert ids(train) | ids(valid) | ids(test) == set(range(237))
        assert not ids(train) & ids(valid)
        assert not ids(train) & ids(test)
        assert not ids(valid) & ids(test)

    def test_deterministic_under_seed(self):
        wl = _dummy_workload(90)
        a = split(wl, seed=7)
        b = split(wl, seed=7)
        assert [it.query.id for it in a[0].items] == [it.query.id for it in b[0].items]

    def test_bad_fractions(self):
        with pytest.raises(WorkloadError, match="sum to 1"):
            split(_dummy_workload(10), (0.5, 0.2, 0.2), seed=0)
        with pytest.raises(WorkloadError, match="triple"):
            split(_dummy_workload(10), (0.5, 0.5), seed=0)

    @pytest.mark.parametrize(
        "fractions", [(float("nan"), 0.5, 0.5), (0.5, float("nan"), 0.5), (float("inf"), 0.5, 0.5), (-0.5, 1.0, 0.5)]
    )
    def test_non_finite_or_negative_fractions(self, fractions):
        with pytest.raises(WorkloadError, match=r"must lie in \[0, 1\]"):
            split(_dummy_workload(10), fractions, seed=0)

    def test_fractions_checked_without_a_workload(self):
        # `label` checks its --split this way before it labels anything
        check_fractions((0.6, 0.2, 0.2))
        for fractions, match in (((0.5, 0.5), "triple"), ((float("nan"), 0.5, 0.5), "lie in"), ((0.5, 0.6, 0.2), "sum")):
            with pytest.raises(WorkloadError, match=match):
                check_fractions(fractions)


class TestPersistence:
    def test_round_trip(self, tmp_path, relation):
        catalog = SchemaCatalog((relation,))
        labeled = finalize(gen_single_relation(relation, 2, 25, seed=12), catalog)
        path = tmp_path / "w.jsonl"
        save_workload(path, labeled, header={"note": 1})
        again, header = load_workload(path)
        assert header == {"note": 1}
        assert again.queries() == labeled.queries()
        assert np.array_equal(again.cardinalities(), labeled.cardinalities())

    def test_unlabeled_file_rejected(self, tmp_path):
        path = tmp_path / "u.jsonl"
        path.write_text('{"relations": ["r"], "selections": [], "joins": []}\n', encoding="utf-8")
        with pytest.raises(WorkloadError, match="lacks a cardinality"):
            load_workload(path)
