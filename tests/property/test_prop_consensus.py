"""Property-based tests for the consensus methods."""

from hypothesis import example, given, settings

from repro.consensus import (
    adams_consensus,
    majority_consensus,
    nelson_consensus,
    semistrict_consensus,
    strict_consensus,
)
from repro.trees.bipartition import (
    all_compatible,
    cluster_counts,
    compatible,
    nontrivial_clusters,
    robinson_foulds,
)
from repro.trees.newick import parse_newick
from repro.trees.validate import check_tree, is_leaf_labeled

from tests.property.strategies import leaf_labeled_trees, same_taxa_profiles

ALL_METHODS = [
    strict_consensus,
    majority_consensus,
    semistrict_consensus,
    adams_consensus,
    nelson_consensus,
]


@settings(max_examples=40, deadline=None)
@given(profile=same_taxa_profiles())
def test_every_method_produces_a_valid_phylogeny(profile):
    taxa = profile[0].leaf_labels()
    for method in ALL_METHODS:
        result = method(profile)
        check_tree(result)
        assert is_leaf_labeled(result)
        assert result.leaf_labels() == taxa
        assert all_compatible(nontrivial_clusters(result))


@settings(max_examples=40, deadline=None)
@given(tree=leaf_labeled_trees())
def test_unanimous_profile_is_fixed_point(tree):
    """Consensus of copies of one tree is that tree (all methods)."""
    profile = [tree, tree, tree]
    for method in ALL_METHODS:
        assert robinson_foulds(method(profile), tree) == 0.0


@settings(max_examples=40, deadline=None)
@given(profile=same_taxa_profiles(min_trees=2))
def test_inclusion_chain(profile):
    """strict <= majority and strict <= semistrict (cluster sets)."""
    strict = nontrivial_clusters(strict_consensus(profile))
    majority = nontrivial_clusters(majority_consensus(profile))
    semi = nontrivial_clusters(semistrict_consensus(profile))
    assert strict <= majority
    assert strict <= semi


# Majority keeps {ab} (3 of 5 trees), but the Nelson clique {bc, bcd}
# weighs 2 + 2 = 4 > 3: majority clusters need not join Nelson's set.
MAJORITY_NOT_IN_NELSON = [parse_newick("((a,b),c,d,e);")] * 3 + [
    parse_newick("(((b,c),d),a,e);")
] * 2


def _replication(clusters, counts):
    return sum(counts[cluster] for cluster in clusters)


def _max_compatible_weight(counts):
    """Brute force: the heaviest pairwise-compatible cluster family."""
    candidates = sorted(counts, key=lambda cluster: sorted(cluster))
    best = 0

    def extend(start, chosen, weight):
        nonlocal best
        best = max(best, weight)
        for index in range(start, len(candidates)):
            cluster = candidates[index]
            if all(compatible(cluster, other) for other in chosen):
                chosen.append(cluster)
                extend(index + 1, chosen, weight + counts[cluster])
                chosen.pop()

    extend(0, [], 0)
    return best


@settings(max_examples=40, deadline=None)
@given(profile=same_taxa_profiles(min_trees=2))
@example(profile=MAJORITY_NOT_IN_NELSON)
def test_nelson_replication_at_least_majority(profile):
    """The majority clusters are one compatible family, so the
    max-replication clique weighs at least as much."""
    counts = cluster_counts(profile)
    majority = nontrivial_clusters(majority_consensus(profile))
    nelson = nontrivial_clusters(nelson_consensus(profile))
    assert _replication(nelson, counts) >= _replication(majority, counts)


@settings(max_examples=40, deadline=None)
@given(profile=same_taxa_profiles(min_trees=2, max_trees=4))
@example(profile=MAJORITY_NOT_IN_NELSON)
def test_nelson_is_a_maximum_weight_compatible_set(profile):
    counts = cluster_counts(profile)
    nelson = nontrivial_clusters(nelson_consensus(profile))
    assert nelson <= set(counts)
    assert all_compatible(nelson)
    assert _replication(nelson, counts) == _max_compatible_weight(counts)


def test_majority_clusters_can_lose_to_heavier_nelson_clique():
    counts = cluster_counts(MAJORITY_NOT_IN_NELSON)
    majority = nontrivial_clusters(majority_consensus(MAJORITY_NOT_IN_NELSON))
    nelson = nontrivial_clusters(nelson_consensus(MAJORITY_NOT_IN_NELSON))
    assert majority == {frozenset("ab")}
    assert nelson == {frozenset("bc"), frozenset("bcd")}
    assert (_replication(majority, counts), _replication(nelson, counts)) == (3, 4)


@settings(max_examples=40, deadline=None)
@given(profile=same_taxa_profiles(min_trees=2))
def test_profile_order_irrelevant(profile):
    """Consensus is a function of the multiset of input trees."""
    reversed_profile = list(reversed(profile))
    for method in ALL_METHODS:
        forward = method(profile)
        backward = method(reversed_profile)
        assert robinson_foulds(forward, backward) == 0.0


@settings(max_examples=30, deadline=None)
@given(profile=same_taxa_profiles(min_trees=2))
def test_strict_clusters_occur_in_every_tree(profile):
    per_tree = [nontrivial_clusters(tree) for tree in profile]
    for cluster in nontrivial_clusters(strict_consensus(profile)):
        assert all(cluster in clusters for clusters in per_tree)
