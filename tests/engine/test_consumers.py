"""Every engine-routed consumer must equal its serial reference path."""

from __future__ import annotations

from repro.apps.clustering import cluster_trees
from repro.apps.cooccurrence import find_cooccurring_patterns
from repro.core.distance import distance_matrix
from repro.core.index import CousinPairIndex
from repro.engine import MiningEngine


def make_engine():
    return MiningEngine()


class TestIndexBuild:
    def test_engine_build_equals_serial_build(self, forest):
        serial = CousinPairIndex.build(forest, maxdist=2.0, minoccur=1)
        engined = CousinPairIndex.build(
            forest, maxdist=2.0, minoccur=1, engine=make_engine()
        )
        assert engined.tree_count == serial.tree_count
        assert engined.pattern_count == serial.pattern_count
        assert list(engined) == list(serial)
        for key in serial:
            assert engined.trees_with(*key) == serial.trees_with(*key)
        assert engined.frequent(minsup=2) == serial.frequent(minsup=2)
        assert engined.top_k(5) == serial.top_k(5)

    def test_engine_build_respects_minoccur(self, forest):
        serial = CousinPairIndex.build(forest, minoccur=2)
        engined = CousinPairIndex.build(
            forest, minoccur=2, engine=make_engine()
        )
        assert list(engined) == list(serial)


class TestDistanceMatrix:
    def test_matrix_identical(self, forest):
        serial = distance_matrix(forest, mode="dist_occur")
        engined = distance_matrix(
            forest, mode="dist_occur", engine=make_engine()
        )
        assert engined == serial

    def test_matrix_identical_across_modes(self, forest):
        for mode in ("plain", "dist", "occur"):
            assert distance_matrix(
                forest, mode=mode, engine=make_engine()
            ) == distance_matrix(forest, mode=mode)


class TestClustering:
    def test_clusters_medoids_matrix_identical(self, forest):
        serial = cluster_trees(forest, k=3)
        engined = cluster_trees(forest, k=3, engine=make_engine())
        assert engined == serial  # frozen dataclass: full comparison

    def test_linkages(self, forest):
        for linkage in ("single", "complete"):
            assert cluster_trees(
                forest, k=2, linkage=linkage, engine=make_engine()
            ) == cluster_trees(forest, k=2, linkage=linkage)


class TestCooccurrence:
    def test_report_identical(self, forest):
        serial = find_cooccurring_patterns(forest, minsup=2)
        engined = find_cooccurring_patterns(
            forest, minsup=2, engine=make_engine()
        )
        assert engined.patterns == serial.patterns
        assert engined.occurrences == serial.occurrences
        assert engined.describe() == serial.describe()
