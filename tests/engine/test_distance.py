"""Engine distance-kernel paths: tiles, memoisation and stats."""

from __future__ import annotations

from repro.core.distance import DistanceMode, distance_matrix
from repro.core.distvec import DistanceVectors
from repro.core.kernel import find_kernel_trees
from repro.engine import MiningEngine


class TestDistanceVectors:
    def test_engine_vectors_equal_serial_vectors(self, forest):
        engine = MiningEngine()
        serial = DistanceVectors.from_trees(forest)
        engined = engine.distance_vectors(forest)
        for mode in DistanceMode:
            assert engined.matrix(mode) == serial.matrix(mode)

    def test_fingerprint_set_and_stable(self, forest):
        engine = MiningEngine()
        first = engine.distance_vectors(forest)
        second = engine.distance_vectors(forest)
        assert first.fingerprint is not None
        assert first.fingerprint == second.fingerprint
        # Same fingerprint -> same memoised object.
        assert first is second

    def test_minoccur_changes_fingerprint(self, forest):
        engine = MiningEngine()
        loose = engine.distance_vectors(forest, minoccur=1)
        strict = engine.distance_vectors(forest, minoccur=2)
        assert loose.fingerprint != strict.fingerprint


class TestDistanceMatrixTiles:
    def test_serial_engine_uses_one_tile(self, forest):
        engine = MiningEngine()
        distance_matrix(forest, engine=engine)
        assert engine.stats.distance_tiles == 1

    def test_matrix_memo_counts_tile_hits(self, forest):
        engine = MiningEngine()
        first = distance_matrix(forest, engine=engine)
        assert engine.stats.distance_tile_hits == 0
        second = distance_matrix(forest, engine=engine)
        assert second == first
        assert engine.stats.distance_tile_hits == 1
        # Returned rows are copies: mutating one never corrupts the memo.
        second[0][1] = 99.0
        assert distance_matrix(forest, engine=engine) == first

    def test_pair_accounting_covers_triangle(self, forest):
        engine = MiningEngine()
        distance_matrix(forest, engine=engine)
        size = len(forest)
        assert (
            engine.stats.distance_pairs_computed
            + engine.stats.distance_pairs_pruned
            == size * (size - 1) // 2
        )


class TestKernelEnginePath:
    def test_engine_kernel_equals_serial(self, forest):
        groups = [forest[:3], forest[3:6], forest[6:]]
        serial = find_kernel_trees(groups)
        engine = MiningEngine()
        engined = find_kernel_trees(groups, engine=engine)
        assert engined.indexes == serial.indexes
        assert engined.average_distance == serial.average_distance
        assert engined.pairwise_evaluations == serial.pairwise_evaluations
        assert engined.pairs_pruned == serial.pairs_pruned

    def test_kernel_updates_engine_stats(self, forest):
        groups = [forest[:3], forest[3:6], forest[6:]]
        engine = MiningEngine()
        result = find_kernel_trees(groups, engine=engine)
        assert (
            engine.stats.distance_pairs_computed
            == result.pairwise_evaluations
        )
        assert engine.stats.distance_pairs_pruned == result.pairs_pruned
        assert "distance:" in engine.stats.describe()
