"""Fixtures for the engine equivalence harness."""

from __future__ import annotations

import pytest

from repro.trees.newick import parse_newick


FOREST_NEWICKS = [
    "((a,b),(c,d));",
    "((a,b),(c,e));",
    "((b,a),(d,c));",          # isomorphic to the first (reordered)
    "(a,(b,(c,(d,e))));",      # caterpillar
    "((a,a),(a,b));",          # repeated labels
    "(((a,b),(c,d)),((e,f),(g,a)));",
    "(a,b,c,d,e);",            # star
    "(a);",
]


@pytest.fixture
def forest():
    """A mixed forest with duplicates, stars, chains, repeated labels."""
    return [parse_newick(text) for text in FOREST_NEWICKS]
