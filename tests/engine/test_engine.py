"""Equivalence harness for the mining engine.

The contract under test: for any forest and any parameters, engine
output is *identical* to the serial reference paths, for both cold
and warm caches.  Frequent-pair comparisons are strict (every field,
including the non-``compare`` ones), so any ordering or cache
divergence fails loudly.
"""

from __future__ import annotations

import pytest

from repro.core.multi_tree import mine_forest
from repro.core.pairset import CousinPairSet
from repro.core.single_tree import mine_tree, mine_tree_counter
from repro.engine import MiningEngine
from repro.errors import EngineError
from repro.trees.newick import parse_newick

PARAM_GRID = [
    # (maxdist, minoccur, minsup, ignore_distance, gap, max_height)
    (1.5, 1, 2, False, 1, None),
    (0.0, 1, 1, False, 1, None),
    (2.5, 2, 2, False, 3, None),
    (1.5, 1, 2, True, 1, None),
    (2.0, 1, 3, False, 2, 1),
]


def strict(patterns):
    """Every field of every FrequentCousinPair, compare=False included."""
    return [
        (
            p.label_a,
            p.label_b,
            p.distance,
            p.support,
            p.tree_indexes,
            p.total_occurrences,
        )
        for p in patterns
    ]


class TestForestEquivalence:
    @pytest.mark.parametrize("grid", PARAM_GRID)
    def test_cold_and_warm_match_serial(self, forest, grid):
        maxdist, minoccur, minsup, ignore, gap, height = grid
        reference = mine_forest(
            forest,
            maxdist=maxdist,
            minoccur=minoccur,
            minsup=minsup,
            ignore_distance=ignore,
            max_generation_gap=gap,
            max_height=height,
        )
        engine = MiningEngine()
        for temperature in ("cold", "warm"):
            result = engine.mine_forest(
                forest,
                maxdist=maxdist,
                minoccur=minoccur,
                minsup=minsup,
                ignore_distance=ignore,
                max_generation_gap=gap,
                max_height=height,
            )
            assert strict(result) == strict(reference), temperature

    def test_forest_memo_keys_every_filter(self, forest):
        # One engine serves every filter over the same forest, twice:
        # the second pass is answered from the per-forest memo, which
        # must keep each (minoccur, minsup, ignore_distance) apart.
        engine = MiningEngine()
        for _pass in range(2):
            for minoccur in (1, 2):
                for minsup in (1, 2, 3):
                    for ignore in (False, True):
                        knobs = dict(
                            minoccur=minoccur,
                            minsup=minsup,
                            ignore_distance=ignore,
                        )
                        assert strict(engine.mine_forest(forest, **knobs)) == (
                            strict(mine_forest(forest, **knobs))
                        ), knobs

    def test_returned_patterns_are_copies(self, forest):
        engine = MiningEngine()
        first = engine.mine_forest(forest, minsup=1)
        expected = strict(first)
        first.clear()  # emptying the caller's list must not empty the memo
        assert strict(engine.mine_forest(forest, minsup=1)) == expected

    def test_order_follows_input(self, forest):
        engine = MiningEngine()
        per_tree = engine.items(forest)
        assert per_tree == [mine_tree(tree) for tree in forest]

    def test_counters_match_reference(self, forest):
        engine = MiningEngine()
        counters = engine.counters(forest, maxdist=2.0, max_generation_gap=2)
        assert counters == [
            mine_tree_counter(tree, 2.0, 2, None) for tree in forest
        ]

    def test_pair_sets_match_from_tree(self, forest):
        engine = MiningEngine()
        sets = engine.pair_sets(forest, maxdist=1.5, minoccur=2)
        assert sets == [
            CousinPairSet.from_tree(tree, maxdist=1.5, minoccur=2)
            for tree in forest
        ]

    def test_empty_forest(self):
        engine = MiningEngine()
        assert engine.counters([]) == []
        assert engine.mine_forest([]) == []

    def test_empty_tree(self):
        from repro.trees.tree import Tree

        engine = MiningEngine()
        (counter,) = engine.counters([Tree()])
        assert counter == mine_tree_counter(Tree())


class TestStatsAccounting:
    def test_lookups_partition_into_hits_and_misses(self, forest):
        engine = MiningEngine()
        engine.items(forest)
        stats = engine.stats
        assert stats.trees_seen == len(forest)
        assert stats.memory_hits + stats.disk_hits + stats.misses == (
            stats.trees_seen
        )
        # The forest holds one isomorphic duplicate -> one in-batch hit.
        assert stats.misses == len(forest) - 1
        assert stats.memory_hits == 1

    def test_warm_run_has_no_new_misses(self, forest):
        engine = MiningEngine()
        engine.items(forest)
        cold_misses = engine.stats.misses
        engine.items(forest)
        assert engine.stats.misses == cold_misses
        assert engine.stats.hit_rate > 0.5
        assert engine.stats.batches == 2

    def test_reset(self, forest):
        engine = MiningEngine()
        engine.items(forest)
        engine.stats.reset()
        assert engine.stats.trees_seen == 0
        assert engine.stats.as_dict()["misses"] == 0

    def test_describe_mentions_counts(self, forest):
        engine = MiningEngine()
        engine.items(forest)
        text = engine.stats.describe()
        assert "lookup" in text and "miss" in text


class TestConfigValidation:
    def test_explicit_cache_excludes_cache_knobs(self, tmp_path):
        from repro.engine import PairSetCache

        cache = PairSetCache()
        with pytest.raises(EngineError, match="not both"):
            MiningEngine(cache=cache, cache_dir=str(tmp_path))

    def test_returned_counters_are_copies(self):
        tree = parse_newick("((a,b),(c,d));")
        engine = MiningEngine()
        (first,) = engine.counters([tree])
        first.clear()  # corrupting the copy must not poison the cache
        (second,) = engine.counters([tree])
        assert second == mine_tree_counter(tree)
