"""Differential suite: every frequent-pair path against the slow oracle.

``mine_forest`` (with and without an engine), ``PairStore
.frequent_pairs`` and ``VersionedCorpus.frequent_pairs`` all route
through the one packed aggregation in :mod:`repro.core.multi_tree`;
:func:`repro.core.reference.mine_forest_reference` is the independent
dict-of-lists oracle built on the brute-force single-tree miner.
"Matches" means every field of every record — ``tree_indexes`` and
``total_occurrences`` included — in the same order.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.multi_tree import mine_forest
from repro.core.params import MiningParams
from repro.core.reference import mine_forest_reference
from repro.engine import MiningEngine
from repro.engine.delta import VersionedCorpus
from repro.store import PairStore
from repro.trees.newick import parse_newick
from repro.trees.tree import Tree

from tests.delta.equivalence import pattern_tuples
from tests.property.strategies import trees

# Overlapping and disjoint label universes, plus one label ("solo")
# that at most the trees drawing that alphabet carry.
ALPHABETS = (list("abc"), list("cde"), list("xyz"), ["solo", "a"])
MINOCCURS = st.sampled_from([1, 2, 3])
MINSUPS = st.sampled_from([1, 2, 3, 4])


@st.composite
def mixed_trees(draw) -> Tree:
    kind = draw(st.sampled_from(["shared", "disjoint", "unlabeled", "empty"]))
    if kind == "empty":
        return Tree()
    if kind == "unlabeled":
        return draw(trees(max_size=8, labels=st.none()))
    if kind == "disjoint":
        alphabet = draw(st.sampled_from(ALPHABETS))
        return draw(
            trees(max_size=14, labels=st.one_of(st.none(), st.sampled_from(alphabet)))
        )
    return draw(trees(max_size=14))


forests = st.lists(mixed_trees(), min_size=0, max_size=6)

FIXED = [
    # a label ("solo") present in only one tree
    [parse_newick("((a,solo),(b,c));"), parse_newick("((a,b),c);"), parse_newick("((a,b),c);")],
    # disjoint label sets, one label-free and one empty tree
    [parse_newick("((a,b),(a,b));"), parse_newick("((x,y),z);"), parse_newick("((,),);"), Tree()],
    # repeated pairs across distances (ignore_distance sums them)
    [parse_newick("((a,b),(a,b));"), parse_newick("(((a,b),c),(a,(b,d)));")],
    [],
]


def _oracle(forest, maxdist, minoccur, minsup, ignore_distance):
    return pattern_tuples(
        mine_forest_reference(
            forest,
            maxdist=maxdist,
            minoccur=minoccur,
            minsup=minsup,
            ignore_distance=ignore_distance,
        )
    )


@settings(max_examples=80, deadline=None)
@given(
    forest=forests,
    maxdist=st.sampled_from([0.5, 1.0, 1.5, 2.5]),
    minoccur=MINOCCURS,
    minsup=MINSUPS,
    ignore_distance=st.booleans(),
)
@example(forest=FIXED[0], maxdist=1.5, minoccur=1, minsup=1, ignore_distance=False)
@example(forest=FIXED[1], maxdist=1.5, minoccur=1, minsup=1, ignore_distance=True)
@example(forest=FIXED[2], maxdist=1.5, minoccur=2, minsup=1, ignore_distance=True)
@example(forest=FIXED[2], maxdist=1.5, minoccur=2, minsup=2, ignore_distance=False)
@example(forest=FIXED[3], maxdist=1.5, minoccur=1, minsup=1, ignore_distance=True)
def test_mine_forest_matches_oracle(forest, maxdist, minoccur, minsup, ignore_distance):
    want = _oracle(forest, maxdist, minoccur, minsup, ignore_distance)
    kwargs = dict(
        maxdist=maxdist,
        minoccur=minoccur,
        minsup=minsup,
        ignore_distance=ignore_distance,
    )
    assert pattern_tuples(mine_forest(forest, **kwargs)) == want
    engine = MiningEngine()
    for _temperature in ("cold", "warm"):
        assert pattern_tuples(mine_forest(forest, engine=engine, **kwargs)) == want


@settings(max_examples=30, deadline=None)
@given(forest=forests, minoccur=MINOCCURS)
@example(forest=FIXED[0], minoccur=1)
@example(forest=FIXED[1], minoccur=1)
@example(forest=FIXED[2], minoccur=2)
@example(forest=FIXED[3], minoccur=1)
def test_pair_store_matches_oracle(forest, minoccur, tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("store"))
    params = MiningParams(maxdist=1.5, minoccur=minoccur, minsup=1)
    PairStore.pack(directory, forest, params)
    store = PairStore.open(directory)
    for minsup in (1, 2, 3):
        for ignore_distance in (False, True):
            assert pattern_tuples(
                store.frequent_pairs(minsup=minsup, ignore_distance=ignore_distance)
            ) == _oracle(forest, 1.5, minoccur, minsup, ignore_distance)


@settings(max_examples=40, deadline=None)
@given(
    forest=forests,
    extra=st.lists(mixed_trees(), max_size=3),
    minoccur=MINOCCURS,
)
@example(forest=FIXED[0], extra=FIXED[1], minoccur=1)
@example(forest=FIXED[2], extra=[], minoccur=2)
@example(forest=FIXED[3], extra=FIXED[3], minoccur=1)
def test_versioned_corpus_matches_oracle(forest, extra, minoccur):
    corpus = VersionedCorpus(forest, minoccur=minoccur)
    if extra:
        # member order after churn: the survivors, then the new trees
        if forest:
            corpus.remove_trees([0])
        corpus.add_trees(extra)
    current = list(corpus.trees)
    for minsup in (1, 2, 3):
        for ignore_distance in (False, True):
            assert pattern_tuples(
                corpus.frequent_pairs(minsup=minsup, ignore_distance=ignore_distance)
            ) == _oracle(current, 1.5, minoccur, minsup, ignore_distance)
