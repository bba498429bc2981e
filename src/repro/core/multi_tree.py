"""``Multiple_Tree_Mining``: frequent cousin pairs across a forest.

Section 2 of the paper defines the *support* of a cousin pair
``(u, v)`` with respect to a distance value ``d`` as the number of
trees in the database containing at least one occurrence of the pair at
that distance; a pair is *frequent* when its support reaches the
user-specified ``minsup``.  Section 3 describes the procedure: mine
every tree individually, then count the trees in which each qualifying
item occurs — ``O(k * n^2)`` for ``k`` trees of at most ``n`` nodes.

Distances can be ignored ("``*``" in the paper's notation) so that
support counts trees containing the label pair at *any* distance.

The counting step is one packed aggregation,
:func:`aggregate_frequent`, shared by :func:`mine_forest`,
:meth:`repro.store.PairStore.frequent_pairs` and
:meth:`repro.engine.delta.VersionedCorpus.frequent_pairs`
(:class:`repro.core.index.CousinPairIndex` still answers from its own
per-label index).  It works on parallel integer columns — packed pair
keys, occurrence counts and owning-tree positions — in the occurrence-
list style of Chehreghani & Bruynooghe: group equal keys with one
stable sort, read support, supporters and totals off the group runs,
cut at ``minsup``, and build :class:`FrequentCousinPair` objects only
for the survivors.  The dict-of-lists form of the same computation is
kept as the test oracle :func:`repro.core.reference
.mine_forest_reference`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.cousins import CousinPairItem
from repro.core.fastmine import PackedCounts, mine_arena, mine_tree
from repro.core.params import MiningParams, validate_minoccur, validate_minsup
from repro.obs.context import get_tracer
from repro.trees.arena import LabelTable, TreeArena
from repro.trees.packing import DIST_SHIFT, LABEL_BITS, LABEL_MASK, PAIR_MASK
from repro.trees.tree import Tree

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.engine import MiningEngine

__all__ = [
    "FrequentCousinPair",
    "aggregate_frequent",
    "frequent_from_packed",
    "mine_forest",
    "support",
    "forest_pair_items",
]


@dataclass(frozen=True)
class FrequentCousinPair:
    """A frequent cousin pair found across a tree database.

    Attributes
    ----------
    label_a, label_b:
        The unordered label pair (sorted, ``label_a <= label_b``).
    distance:
        The cousin distance this support count refers to, or ``None``
        when distances were ignored (the paper's ``*``).
    support:
        Number of trees containing the pair (at the distance, when one
        is specified) with at least ``minoccur`` occurrences.
    tree_indexes:
        Positions (into the input sequence) of the supporting trees —
        the information needed to highlight the pattern in the source
        phylogenies as in Figure 8 of the paper.
    total_occurrences:
        Sum of the pair's occurrence counts over the supporting trees.
    """

    label_a: str
    label_b: str
    distance: float | None
    support: int
    tree_indexes: tuple[int, ...] = field(compare=False)
    total_occurrences: int = field(compare=False, default=0)

    def describe(self) -> str:
        """One-line rendering used by reports and the CLI."""
        where = (
            f"distance {self.distance:g}" if self.distance is not None else "any distance"
        )
        return (
            f"({self.label_a}, {self.label_b}) at {where}: "
            f"support {self.support} "
            f"(trees {', '.join(str(i) for i in self.tree_indexes)})"
        )


def aggregate_frequent(
    keys: np.ndarray,
    counts: np.ndarray,
    owners: np.ndarray,
    labels: Sequence[str],
    *,
    minoccur: int = 1,
    minsup: int = 2,
    ignore_distance: bool = False,
) -> list[FrequentCousinPair]:
    """Algorithm 2's counting step over packed occurrence columns.

    Parameters
    ----------
    keys, counts, owners:
        Parallel int64 columns, one row per (tree, pair item): the
        packed key (:mod:`repro.trees.packing` layout, ids into
        ``labels``), its occurrence count in that tree, and the tree's
        position.  ``owners`` must be non-decreasing and each
        ``(owner, key)`` must appear at most once.
    labels:
        The sorted label tuple the ids index — ids must follow sorted
        label order (as :class:`~repro.trees.arena.LabelTable` assigns
        them), because the output order is computed on ids.
    minoccur, minsup, ignore_distance:
        As in :func:`mine_forest`.  With ``ignore_distance`` every key
        is collapsed onto its label pair and a tree's counts are summed
        across distances before the ``minoccur`` test.

    Returns
    -------
    list[FrequentCousinPair]
        Exactly :func:`mine_forest`'s records: sorted by descending
        support, then labels, then distance, with supporters in
        ascending position.
    """
    minoccur = validate_minoccur(minoccur)
    minsup = validate_minsup(minsup)
    with get_tracer().span(
        "multi_tree.aggregate",
        metric="multi_tree.aggregate.seconds",
        rows=int(keys.size),
    ):
        if ignore_distance:
            keys = keys & PAIR_MASK
        elif minoccur > 1:
            keep = counts >= minoccur
            keys, counts, owners = keys[keep], counts[keep], owners[keep]
        if keys.size == 0:
            return []
        # Stable, so each key's rows keep the input (owner) order.
        order = np.argsort(keys, kind="stable")
        keys, counts, owners = keys[order], counts[order], owners[order]
        if ignore_distance:
            # One tree's distances of a pair are now adjacent: sum them,
            # then apply minoccur to the per-tree totals.
            runs = np.flatnonzero(
                np.concatenate(
                    ([True], (keys[1:] != keys[:-1]) | (owners[1:] != owners[:-1]))
                )
            )
            counts = np.add.reduceat(counts, runs)
            keys, owners = keys[runs], owners[runs]
            if minoccur > 1:
                keep = counts >= minoccur
                keys, counts, owners = keys[keep], counts[keep], owners[keep]
                if keys.size == 0:
                    return []
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        supports = np.diff(np.append(starts, keys.size))
        totals = np.add.reduceat(counts, starts)
        frequent = np.flatnonzero(supports >= minsup)
        if frequent.size == 0:
            return []
        starts = starts[frequent]
        supports = supports[frequent]
        totals = totals[frequent]
        survivors = keys[starts]
        half_steps = survivors >> DIST_SHIFT
        label_a = (survivors >> LABEL_BITS) & LABEL_MASK
        label_b = survivors & LABEL_MASK
        # Last key is primary: support descending, then labels (ids
        # follow sorted label order), then distance.
        rank = np.lexsort((half_steps, label_b, label_a, -supports))
        positions = owners.tolist()
        return [
            FrequentCousinPair(
                label_a=labels[a],
                label_b=labels[b],
                distance=None if ignore_distance else steps / 2.0,
                support=size,
                tree_indexes=tuple(positions[start : start + size]),
                total_occurrences=total,
            )
            for a, b, steps, size, start, total in zip(
                label_a[rank].tolist(),
                label_b[rank].tolist(),
                half_steps[rank].tolist(),
                supports[rank].tolist(),
                starts[rank].tolist(),
                totals[rank].tolist(),
            )
        ]


def frequent_from_packed(
    packed: Sequence[PackedCounts],
    *,
    minoccur: int = 1,
    minsup: int = 2,
    ignore_distance: bool = False,
) -> list[FrequentCousinPair]:
    """:func:`aggregate_frequent` over per-tree kernel output.

    ``packed[i]`` is tree ``i``'s :class:`PackedCounts` at the
    ``minoccur=1`` level, each with its own label table.  The tables
    are merged into one sorted union and every local id is re-interned
    through one concatenated remap array (tree ``i``'s ids start at
    its offset); both tables are in sorted order, so the remap is
    monotone and ``label_a <= label_b`` survives it.
    """
    local = [label for counts in packed for label in counts.labels]
    table = LabelTable(local)
    remap = np.fromiter(map(table.intern, local), dtype=np.int64, count=len(local))
    label_sizes = np.fromiter(
        (len(counts.labels) for counts in packed), dtype=np.int64, count=len(packed)
    )
    sizes = np.fromiter(
        (len(counts.counts) for counts in packed), dtype=np.int64, count=len(packed)
    )
    rows = int(sizes.sum())
    keys = np.fromiter(
        chain.from_iterable(counts.counts.keys() for counts in packed),
        dtype=np.int64,
        count=rows,
    )
    occurrences = np.fromiter(
        chain.from_iterable(counts.counts.values() for counts in packed),
        dtype=np.int64,
        count=rows,
    )
    owners = np.repeat(np.arange(len(packed), dtype=np.int64), sizes)
    base = np.repeat(np.cumsum(label_sizes) - label_sizes, sizes)
    keys = (
        ((keys >> DIST_SHIFT) << DIST_SHIFT)
        | (remap[base + ((keys >> LABEL_BITS) & LABEL_MASK)] << LABEL_BITS)
        | remap[base + (keys & LABEL_MASK)]
    )
    return aggregate_frequent(
        keys,
        occurrences,
        owners,
        table.labels,
        minoccur=minoccur,
        minsup=minsup,
        ignore_distance=ignore_distance,
    )


def forest_pair_items(
    trees: Sequence[Tree],
    maxdist: float = 1.5,
    minoccur: int = 1,
    max_generation_gap: int = 1,
    max_height: int | None = None,
    engine: "MiningEngine | None" = None,
) -> list[list[CousinPairItem]]:
    """Per-tree qualifying cousin pair items (the first mining phase).

    With an ``engine``, the per-tree passes run through
    :class:`repro.engine.MiningEngine` (cached counters); the output is
    identical either way.
    """
    if engine is not None:
        return engine.items(
            trees,
            maxdist=maxdist,
            minoccur=minoccur,
            max_generation_gap=max_generation_gap,
            max_height=max_height,
        )
    return [
        mine_tree(
            tree,
            maxdist=maxdist,
            minoccur=minoccur,
            max_generation_gap=max_generation_gap,
            max_height=max_height,
        )
        for tree in trees
    ]


def mine_forest(
    trees: Sequence[Tree],
    maxdist: float = 1.5,
    minoccur: int = 1,
    minsup: int = 2,
    ignore_distance: bool = False,
    max_generation_gap: int = 1,
    max_height: int | None = None,
    engine: "MiningEngine | None" = None,
) -> list[FrequentCousinPair]:
    """Find all frequent cousin pairs in a database of trees.

    Parameters
    ----------
    trees:
        The tree database (the paper's set ``S``).
    maxdist, minoccur, minsup:
        The Table 2 parameters; see :class:`repro.core.params.MiningParams`.
    ignore_distance:
        When true, a tree supports a label pair if the pair occurs as
        cousins at *any* distance up to ``maxdist`` (occurrences summed
        across distances for the ``minoccur`` test), and results carry
        ``distance=None``.
    max_generation_gap:
        Generation-gap cut-off forwarded to the single-tree miner.
    max_height:
        Optional horizontal limit forwarded to the single-tree miner
        (see :class:`repro.core.params.MiningParams`).
    engine:
        Optional :class:`repro.engine.MiningEngine`; when given, the
        per-tree mining phase runs through its cache and the result is
        memoised per forest (:meth:`~repro.engine.MiningEngine
        .frequent_pairs`).  Results are identical to the engine-free
        path (enforced by the equivalence suite in ``tests/engine``).

    Returns
    -------
    list[FrequentCousinPair]
        Sorted by descending support, then labels, then distance.
    """
    params = MiningParams(
        maxdist=maxdist,
        minoccur=minoccur,
        minsup=minsup,
        max_generation_gap=max_generation_gap,
        max_height=max_height,
    )
    # Phase 1: every tree's raw packed counts; the minoccur filter is
    # the aggregation's (after the collapse when ignoring distances).
    if engine is not None:
        return engine.frequent_pairs(trees, params, ignore_distance)
    packed = [mine_arena(TreeArena.from_tree(tree), params) for tree in trees]
    return frequent_from_packed(
        packed,
        minoccur=params.minoccur,
        minsup=params.minsup,
        ignore_distance=ignore_distance,
    )


def support(
    trees: Sequence[Tree],
    label_a: str,
    label_b: str,
    distance: float | None = None,
    maxdist: float = 1.5,
    minoccur: int = 1,
    max_generation_gap: int = 1,
    max_height: int | None = None,
) -> int:
    """The support of one label pair, per the paper's definition.

    ``distance=None`` ignores distances (the paper's example: the
    support of (b, e) is 3 when distances are ignored but 2 with
    respect to distance 1).
    """
    if label_a > label_b:
        label_a, label_b = label_b, label_a
    count = 0
    for tree in trees:
        items = mine_tree(
            tree,
            maxdist=maxdist,
            minoccur=1,
            max_generation_gap=max_generation_gap,
            max_height=max_height,
        )
        if distance is None:
            occurrences = sum(
                item.occurrences
                for item in items
                if item.label_key == (label_a, label_b)
            )
        else:
            occurrences = sum(
                item.occurrences
                for item in items
                if item.key == (label_a, label_b, distance)
            )
        if occurrences >= minoccur:
            count += 1
    return count
