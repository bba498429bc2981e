"""Kernel trees from groups of phylogenies (Section 5.3).

Given ``g`` groups of phylogenies ``Cust_1 .. Cust_g`` — each group
holding equally parsimonious trees for one taxon set, different groups
sharing some but not all taxa — the kernel trees are one representative
``Kert_i`` per group chosen so that the *average pairwise cousin-based
distance between the selected representatives* is minimal.  The paper
proposes the selection as a good starting point for supertree
construction, and measures the selection time for 2..5 groups
(Figure 10).

The selection is solved exactly, on the packed distance kernel
(:mod:`repro.core.distvec`): every tree is mined once into a shared
sparse-vector universe, and the combination space is explored with
branch-and-bound over partial sums.  Cross-group distances are
evaluated *lazily* — before a candidate's distances are joined, the
admissible size bound ``d >= 1 - min(|A|,|B|)/max(|A|,|B|)`` screens
the candidate against the current best, so pairs that cannot matter
are never evaluated at all (reported as
:attr:`KernelResult.pairs_pruned`).  The selected kernels and the
minimised average are identical to exhaustive evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING, Callable, Sequence

from repro.core.distance import DistanceMode
from repro.core.distvec import DistanceVectors
from repro.core.params import validate_mode
from repro.obs.context import get_registry, get_tracer
from repro.trees.tree import Tree

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.engine import MiningEngine

__all__ = ["KernelResult", "find_kernel_trees"]


@dataclass(frozen=True)
class KernelResult:
    """Outcome of a kernel-tree search.

    Attributes
    ----------
    indexes:
        Selected tree position within each group (``indexes[i]`` points
        into ``groups[i]``).
    trees:
        The selected kernel trees themselves, one per group.
    average_distance:
        The minimised average pairwise distance between the kernels.
    pairwise_evaluations:
        How many distinct tree-pair distances were actually joined
        (the quantity that grows with the number of groups and drives
        Figure 10).
    pairs_pruned:
        Cross-group tree pairs the size bound proved irrelevant —
        never evaluated.  ``pairwise_evaluations + pairs_pruned`` is
        the full cross-group pair count an exhaustive search would
        compute.
    """

    indexes: tuple[int, ...]
    trees: tuple[Tree, ...]
    average_distance: float
    pairwise_evaluations: int
    pairs_pruned: int = 0


def find_kernel_trees(
    groups: Sequence[Sequence[Tree]],
    mode: DistanceMode | str = DistanceMode.DIST_OCCUR,
    maxdist: float = 1.5,
    minoccur: int = 1,
    max_generation_gap: int = 1,
    engine: "MiningEngine | None" = None,
) -> KernelResult:
    """Select one kernel tree per group minimising average distance.

    Parameters
    ----------
    groups:
        Two or more non-empty groups of trees.  Groups may (and in the
        paper's setting do) have different taxon sets.
    mode:
        Which cousin-based distance variant to use; the paper uses the
        full ``DIST_OCCUR`` variant.
    engine:
        Optional :class:`repro.engine.MiningEngine`.  Per-tree mining
        (the dominant cost for Figure 10) is then cached — duplicate
        trees across groups are mined exactly once —
        with identical selection output, and the evaluated/pruned pair
        counts are added to the engine's ``distance_*`` stats.

    Raises
    ------
    ValueError
        If fewer than two groups are given, any group is empty, or
        ``mode`` is not a known variant
        (:class:`repro.errors.MiningParameterError`).
    """
    if len(groups) < 2:
        raise ValueError("kernel-tree search needs at least two groups")
    for position, group in enumerate(groups):
        if not group:
            raise ValueError(f"group {position} is empty")
    mode = validate_mode(mode)

    # Mine every tree once, into one shared vector universe.
    flat = [tree for group in groups for tree in group]
    with get_tracer().span(
        "kernel.vectors", metric="kernel.vectors.seconds", trees=len(flat)
    ):
        vectors = DistanceVectors.from_trees(
            flat,
            maxdist=maxdist,
            minoccur=minoccur,
            max_generation_gap=max_generation_gap,
            engine=engine,
        )
    offsets: list[int] = []
    cursor = 0
    for group in groups:
        offsets.append(cursor)
        cursor += len(group)

    memo: dict[tuple[int, int], float] = {}

    def bound(first: int, second: int) -> float:
        """Admissible lower bound; exact once the pair is memoised."""
        value = memo.get((first, second))
        if value is not None:
            return value
        return vectors.lower_bound(first, second, mode)

    def evaluate(first: int, second: int) -> float:
        value = memo.get((first, second))
        if value is None:
            value = vectors.distance(first, second, mode)
            memo[(first, second)] = value
        return value

    with get_tracer().span(
        "kernel.search", metric="kernel.search.seconds", groups=len(groups)
    ):
        best_sum, best_choice = _search(groups, offsets, bound, evaluate)

    evaluations = len(memo)
    total_cross_pairs = sum(
        len(groups[group_i]) * len(groups[group_j])
        for group_i, group_j in combinations(range(len(groups)), 2)
    )
    pruned = total_cross_pairs - evaluations
    registry = get_registry()
    registry.counter("kernel.evaluations").add(evaluations)
    registry.counter("kernel.pruned").add(pruned)
    if engine is not None:
        engine.stats.distance_pairs_computed += evaluations
        engine.stats.distance_pairs_pruned += pruned
    pair_count = len(groups) * (len(groups) - 1) // 2
    return KernelResult(
        indexes=best_choice,
        trees=tuple(groups[i][choice] for i, choice in enumerate(best_choice)),
        average_distance=best_sum / pair_count,
        pairwise_evaluations=evaluations,
        pairs_pruned=pruned,
    )


def _search(
    groups: Sequence[Sequence[Tree]],
    offsets: Sequence[int],
    bound: Callable[[int, int], float],
    evaluate: Callable[[int, int], float],
) -> tuple[float, tuple[int, ...]]:
    """Branch-and-bound over one-choice-per-group combinations.

    State: a partial assignment for groups ``0..k-1`` with the sum of
    distances among chosen trees so far; since all distances are
    non-negative, the partial sum is an admissible lower bound.  Before
    a candidate's real distances are evaluated, the same sum is formed
    from per-pair lower bounds (memoised exact values where available);
    bounds never exceed the true distances and both sums accumulate in
    the same order, so a screened-out candidate is exactly one the
    exhaustive search would have discarded on entry — selection and
    float accumulation are unchanged.
    """
    group_count = len(groups)
    best_sum = float("inf")
    best_choice: tuple[int, ...] = ()
    choice: list[int] = []

    def extend(group_index: int, partial_sum: float) -> None:
        nonlocal best_sum, best_choice
        if partial_sum >= best_sum:
            return
        if group_index == group_count:
            best_sum = partial_sum
            best_choice = tuple(choice)
            return
        for candidate in range(len(groups[group_index])):
            flat_candidate = offsets[group_index] + candidate
            screen = 0.0
            for earlier in range(group_index):
                screen += bound(
                    offsets[earlier] + choice[earlier], flat_candidate
                )
            if partial_sum + screen >= best_sum:
                continue
            added = 0.0
            for earlier in range(group_index):
                added += evaluate(
                    offsets[earlier] + choice[earlier], flat_candidate
                )
            choice.append(candidate)
            extend(group_index + 1, partial_sum + added)
            choice.pop()

    extend(0, 0.0)
    return best_sum, best_choice
