"""Naive all-pairs reference miner.

Section 7 of the paper contrasts its guided enumeration with "taking
random pairs of nodes and finding out what kind of cousins they are".
This module implements exactly that brute-force strategy: every pair of
labeled nodes, an explicit LCA computation, and the Figure 2 distance
formula.  It is the differential-testing oracle for the two real
miners (:func:`repro.core.single_tree.mine_tree` and
:func:`repro.core.updown.mine_tree_updown`) and the baseline of the
ablation benchmark.

:func:`mine_forest_reference` does the same for ``Multiple_Tree_Mining``:
the paper's Section 3 procedure spelled out with per-tree item lists
and a dict of supporter lists, the oracle the packed aggregation
(:func:`repro.core.multi_tree.aggregate_frequent`) is tested against.
Only tests and benchmarks should call it.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Sequence

from repro.core.cousins import CousinPairItem, distance_from_heights
from repro.core.multi_tree import FrequentCousinPair
from repro.core.params import MiningParams
from repro.trees.tree import Tree
from repro.trees.traversal import TreeIndex

__all__ = ["mine_tree_reference", "mine_forest_reference"]

# (label_a, label_b, distance); distance is None when ignored
_PatternKey = tuple[str, str, float | None]


def mine_tree_reference(
    tree: Tree,
    maxdist: float = 1.5,
    minoccur: int = 1,
    max_generation_gap: int = 1,
    max_height: int | None = None,
) -> list[CousinPairItem]:
    """All-pairs brute-force cousin pair item enumeration.

    Same contract and output ordering as
    :func:`repro.core.single_tree.mine_tree`; cost is
    ``O(|T|^2 * height)`` instead of the guided miners' output-bounded
    ``O(|T|^2)``.
    """
    params = MiningParams(
        maxdist=maxdist,
        minoccur=minoccur,
        minsup=1,
        max_generation_gap=max_generation_gap,
        max_height=max_height,
    )
    if tree.root is None:
        return []
    index = TreeIndex(tree)
    labeled = [node for node in index.preorder() if node.label is not None]
    counts: Counter[tuple[str, str, float]] = Counter()
    for i, first in enumerate(labeled):
        depth_first = index.depth(first)
        for second in labeled[i + 1 :]:
            ancestor = index.lca(first, second)
            height_a = depth_first - index.depth(ancestor)
            height_b = index.depth(second) - index.depth(ancestor)
            if not params.admits_heights(height_a, height_b):
                continue
            distance = distance_from_heights(
                height_a, height_b, params.max_generation_gap
            )
            if first.label <= second.label:
                key = (first.label, second.label, distance)
            else:
                key = (second.label, first.label, distance)
            counts[key] += 1
    items = [
        CousinPairItem(label_a, label_b, distance, occurrences)
        for (label_a, label_b, distance), occurrences in counts.items()
        if occurrences >= params.minoccur
    ]
    items.sort()
    return items


def mine_forest_reference(
    trees: Sequence[Tree],
    maxdist: float = 1.5,
    minoccur: int = 1,
    minsup: int = 2,
    ignore_distance: bool = False,
    max_generation_gap: int = 1,
    max_height: int | None = None,
) -> list[FrequentCousinPair]:
    """Brute-force ``Multiple_Tree_Mining``: same contract as ``mine_forest``.

    Mines every tree with :func:`mine_tree_reference`, then counts
    supporting trees per item in a dict of position lists.  With
    ``ignore_distance`` a tree's occurrences of a label pair are summed
    across distances before the ``minoccur`` test.
    """
    params = MiningParams(
        maxdist=maxdist,
        minoccur=minoccur,
        minsup=minsup,
        max_generation_gap=max_generation_gap,
        max_height=max_height,
    )
    supporters: dict[_PatternKey, list[int]] = defaultdict(list)
    occurrence_totals: Counter[_PatternKey] = Counter()
    for position, tree in enumerate(trees):
        items = mine_tree_reference(
            tree,
            maxdist=params.maxdist,
            minoccur=1 if ignore_distance else params.minoccur,
            max_generation_gap=params.max_generation_gap,
            max_height=params.max_height,
        )
        if ignore_distance:
            collapsed: Counter[tuple[str, str]] = Counter()
            for item in items:
                collapsed[item.label_key] += item.occurrences
            for label_key, occurrences in collapsed.items():
                if occurrences >= params.minoccur:
                    key = (label_key[0], label_key[1], None)
                    supporters[key].append(position)
                    occurrence_totals[key] += occurrences
        else:
            for item in items:
                supporters[item.key].append(position)
                occurrence_totals[item.key] += item.occurrences
    results = [
        FrequentCousinPair(
            label_a=key[0],
            label_b=key[1],
            distance=key[2],
            support=len(positions),
            tree_indexes=tuple(positions),
            total_occurrences=occurrence_totals[key],
        )
        for key, positions in supporters.items()
        if len(positions) >= params.minsup
    ]
    results.sort(
        key=lambda pair: (
            -pair.support,
            pair.label_a,
            pair.label_b,
            pair.distance if pair.distance is not None else -1.0,
        )
    )
    return results
