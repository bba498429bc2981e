"""Shared fixtures and Hypothesis profiles for the test suite."""

from __future__ import annotations

import datetime
import os
import random

import pytest
from hypothesis import settings

from repro.trees.newick import parse_newick
from repro.trees.tree import Tree

# ---------------------------------------------------------------------------
# Hypothesis profiles
# ---------------------------------------------------------------------------
# The "ci" profile makes property-suite failures reproducible and
# flake-free on shared runners: derandomize pins the example stream to
# a fixed seed bucket (the same examples every run, no fuzzing drift
# between CI and a local repro), the explicit 2 s deadline is generous
# enough that a cold-cache runner never trips it yet still catches
# pathological slowdowns, and print_blob emits the
# ``@reproduce_failure`` blob needed to replay a failing example
# locally.  Selected automatically under CI (GitHub Actions always
# sets ``CI=1``) or explicitly via ``HYPOTHESIS_PROFILE=ci``.
settings.register_profile(
    "ci",
    derandomize=True,
    deadline=datetime.timedelta(seconds=2),
    print_blob=True,
)
# The "nightly" profile is the scheduled CI run that hunts for false
# properties: fresh random examples every run (not derandomised), a
# 500-example budget, and the ``@reproduce_failure`` blob so a find can
# be replayed and pinned as an ``@example``.
settings.register_profile(
    "nightly",
    max_examples=500,
    derandomize=False,
    deadline=None,
    print_blob=True,
)
settings.register_profile("default", settings.default)
PROFILE = os.environ.get(
    "HYPOTHESIS_PROFILE", "ci" if os.environ.get("CI") else "default"
)
settings.load_profile(PROFILE)


def pytest_collection_modifyitems(config, items):
    """Under ``nightly``, lift every property test to the profile budget.

    Most tests pin a small tier-1 budget with ``@settings(max_examples=
    ...)``, which would otherwise override the profile; the wrapped
    test's settings object is re-derived with the larger budget.
    """
    if PROFILE != "nightly":
        return
    budget = settings.get_profile("nightly").max_examples
    for item in items:
        test = getattr(item.obj, "__func__", item.obj)
        current = getattr(test, "_hypothesis_internal_use_settings", None)
        if current is not None and current.max_examples < budget:
            test._hypothesis_internal_use_settings = settings(
                current, max_examples=budget
            )


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG, reseeded per test."""
    return random.Random(0xC0FFEE)


@pytest.fixture
def small_tree() -> Tree:
    """A 9-node tree with duplicate labels and an unlabeled internal."""
    return parse_newick("((a,b,(d)x),(c,(a,e)));", name="small")


@pytest.fixture
def caterpillar() -> Tree:
    """A deep, narrow tree: ladder of ten 2-child levels."""
    newick = "(l0,(l1,(l2,(l3,(l4,(l5,(l6,(l7,(l8,l9)))))))));"
    return parse_newick(newick, name="caterpillar")


@pytest.fixture
def star_tree() -> Tree:
    """A flat tree: one root with eight leaf children."""
    return parse_newick("(a,b,c,d,e,f,g,h);", name="star")


def make_random_tree(rng: random.Random, max_size: int = 40) -> Tree:
    """A random tree drawn from one of the generator families."""
    from repro.generate.random_trees import (
        fixed_fanout_tree,
        random_attachment_tree,
        uniform_free_tree,
    )

    size = rng.randint(1, max_size)
    family = rng.choice(["fixed", "attach", "uniform"])
    alphabet = rng.choice([2, 5, 20])
    if family == "fixed":
        return fixed_fanout_tree(size, rng.randint(1, 6), alphabet, rng)
    if family == "attach":
        return random_attachment_tree(size, alphabet, rng)
    return uniform_free_tree(size, alphabet, rng)
