"""Unit tests for the Nelson consensus."""

import pytest

from repro.consensus.nelson import nelson_consensus
from repro.consensus.majority import majority_consensus
from repro.errors import ConsensusError
from repro.trees.bipartition import (
    all_compatible,
    cluster_counts,
    nontrivial_clusters,
    robinson_foulds,
)
from repro.trees.newick import parse_newick


def fs(*items):
    return frozenset(items)


class TestNelson:
    def test_identical_profile_identity(self):
        tree = parse_newick("(((a,b),c),(d,e));")
        result = nelson_consensus([tree, tree])
        assert robinson_foulds(result, tree) == 0.0

    def test_replication_weight_decides(self):
        # (a,b) appears twice, (a,c) once: the clique holding (a,b)
        # outweighs the one holding (a,c).
        trees = [
            parse_newick("(((a,b),c),d);"),
            parse_newick("(((a,b),d),c);"),
            parse_newick("(((a,c),b),d);"),
        ]
        result = nelson_consensus(trees)
        clusters = nontrivial_clusters(result)
        assert fs("a", "b") in clusters
        assert fs("a", "c") not in clusters

    def test_output_clusters_are_compatible(self, rng):
        from repro.generate.phylo import yule_tree

        taxa = [f"t{i}" for i in range(7)]
        for _ in range(5):
            trees = [yule_tree(taxa, rng) for _ in range(4)]
            result = nelson_consensus(trees)
            assert all_compatible(nontrivial_clusters(result))

    def test_contains_majority_clusters(self, rng):
        # The majority clusters are mutually compatible, so together
        # they are one candidate clique; the max-weight clique Nelson
        # picks therefore replicates at least as much.  It need not
        # contain them: a heavier clique of minority clusters can
        # exclude a majority cluster (a 3+2 profile where (a,b) is in
        # 3 of 5 trees loses to (b,c) and (b,c,d), weight 4 against 3).
        from repro.generate.phylo import yule_tree

        taxa = [f"t{i}" for i in range(6)]
        for _ in range(5):
            trees = [yule_tree(taxa, rng) for _ in range(5)]
            counts = cluster_counts(trees)
            majority = nontrivial_clusters(majority_consensus(trees))
            nelson = nontrivial_clusters(nelson_consensus(trees))
            assert sum(counts[c] for c in nelson) >= sum(
                counts[c] for c in majority
            )

    def test_weight_is_maximal_brute_force(self, rng):
        from itertools import combinations

        from repro.generate.phylo import yule_tree
        from repro.trees.bipartition import compatible

        taxa = [f"t{i}" for i in range(5)]
        trees = [yule_tree(taxa, rng) for _ in range(3)]
        counts = cluster_counts(trees)
        chosen = nontrivial_clusters(nelson_consensus(trees))
        chosen_weight = sum(counts[c] for c in chosen)
        candidates = list(counts)
        best = 0
        for size in range(len(candidates) + 1):
            for subset in combinations(candidates, size):
                if all(
                    compatible(x, y) for x, y in combinations(subset, 2)
                ):
                    best = max(best, sum(counts[c] for c in subset))
        assert chosen_weight == best

    def test_tie_between_maximum_cliques_is_pinned(self):
        # {a,b} and {b,c} are incompatible and weigh 1 each; the search
        # returns {b,c} whichever order the trees come in.
        first = parse_newick("((a,b),c,d);")
        second = parse_newick("(a,(b,c),d);")
        for profile in ([first, second], [second, first]):
            assert nontrivial_clusters(nelson_consensus(profile)) == {
                fs("b", "c")
            }

    def test_star_profile(self):
        trees = [parse_newick("(a,b,c,d);")] * 2
        result = nelson_consensus(trees)
        assert nontrivial_clusters(result) == set()

    def test_empty_profile_rejected(self):
        with pytest.raises(ConsensusError):
            nelson_consensus([])
