"""Property-based tests for profile rollups over random span forests.

The span strategy mirrors the tree strategy in ``strategies.py``: a
shrinkable parent array where ``parents[i] < i`` (spans close in the
order they were opened), with each child's duration drawn as a
fraction of its parent's, so every generated forest is one a real
tracer could have recorded.  The invariants: self times sum to the
root wall-clock per root and overall, the critical path is a real
root-to-leaf chain that starts at the heaviest root, and the folded
micro totals reconcile with the rollups.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.profile import build_profile, folded_lines

NAMES = list("abcde")


def approx(value):
    return pytest.approx(value, rel=1e-9, abs=1e-9)


@st.composite
def span_forests(draw, max_spans: int = 20):
    """A list of span dicts forming a well-nested forest."""
    count = draw(st.integers(min_value=0, max_value=max_spans))
    spans = []
    seconds = []
    for i in range(count):
        parent = draw(
            st.one_of(
                st.none(),
                st.integers(min_value=0, max_value=i - 1),
            )
        ) if i else None
        if parent is None:
            duration = draw(
                st.floats(min_value=1e-4, max_value=10.0,
                          allow_nan=False, allow_infinity=False)
            )
        else:
            # Children consume a fraction of what the parent has left,
            # so sibling durations can never exceed the parent's.
            used = sum(
                seconds[j] for j in range(i) if spans[j]["parent"] == parent
            )
            remaining = max(0.0, seconds[parent] - used)
            fraction = draw(
                st.floats(min_value=0.0, max_value=1.0,
                          allow_nan=False, allow_infinity=False)
            )
            duration = remaining * fraction
        spans.append(
            {
                "id": i,
                "parent": parent,
                "name": draw(st.sampled_from(NAMES)),
                "seconds": duration,
            }
        )
        seconds.append(duration)
    return spans


@settings(max_examples=80, deadline=None)
@given(spans=span_forests())
def test_self_times_sum_to_root_wall_clock(spans):
    profile = build_profile(spans)
    roots_total = sum(seconds for _, seconds in profile.roots)
    assert sum(row.self_seconds for row in profile.rows) == (
        approx(roots_total)
    )
    assert profile.total_seconds == approx(roots_total)
    assert profile.span_count == len(spans)


@settings(max_examples=80, deadline=None)
@given(spans=span_forests())
def test_cumulative_time_counts_every_span_once(spans):
    profile = build_profile(spans)
    by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span in spans:
        by_name[span["name"]] = by_name.get(span["name"], 0.0) + span["seconds"]
        calls[span["name"]] = calls.get(span["name"], 0) + 1
    assert {row.name: row.calls for row in profile.rows} == calls
    for row in profile.rows:
        assert row.cum_seconds == approx(by_name[row.name])
        assert 0.0 <= row.self_seconds <= row.cum_seconds + 1e-9


def _span(sid, parent, seconds):
    return {"id": sid, "parent": parent, "name": "a", "seconds": seconds}


# A 0.0 s sibling and a 2.2e-313 s sibling: within any tolerance of
# each other, but only the heavier one ends the critical path.
SUBNORMAL_SIBLINGS = [
    _span(0, None, 1.0),
    _span(1, 0, 0.0),
    _span(2, 1, 0.0),
    _span(3, 0, 2.2250738585e-313),
]


@settings(max_examples=80, deadline=None)
@given(spans=span_forests())
@example(spans=SUBNORMAL_SIBLINGS)
def test_critical_path_is_a_real_root_to_leaf_chain(spans):
    profile = build_profile(spans)
    path = profile.critical_path
    if not spans:
        assert path == ()
        return
    assert path  # non-empty input always yields a path
    # The head is the heaviest root.
    assert path[0].seconds == approx(
        max(seconds for _, seconds in profile.roots)
    )
    # Each step's (name, seconds) matches an actual recorded span
    # exactly, and consecutive steps are a parent/child pair in the
    # span forest.  Equal (name, seconds) siblings are all followed, so
    # the chain only has to exist, not to run through the first match.
    chains = [None]
    for step in path:
        chains = [
            span
            for span in spans
            if span["name"] == step.name
            and span["seconds"] == step.seconds
            and any(
                (span["parent"] is None) if parent is None
                else span["parent"] == parent["id"]
                for parent in chains
            )
        ]
        assert chains
    assert any(
        not any(span["parent"] == end["id"] for span in spans)
        for end in chains
    )


@settings(max_examples=80, deadline=None)
@given(spans=span_forests())
def test_folded_totals_reconcile_with_self_times(spans):
    profile = build_profile(spans)
    folded_micros = sum(
        int(line.rsplit(" ", 1)[1]) for line in folded_lines(profile)
    )
    self_micros = sum(
        round(row.self_seconds * 1_000_000) for row in profile.rows
    )
    # folded_lines drops zero-microsecond stacks; the total can only
    # fall short by rounding, never exceed the rollup total.
    assert folded_micros <= self_micros + len(spans)
    assert folded_micros >= self_micros - len(spans)
    for line in folded_lines(profile):
        stack, micros = line.rsplit(" ", 1)
        assert int(micros) > 0
        assert all(part in NAMES for part in stack.split(";"))
