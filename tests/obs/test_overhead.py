"""Tracing must not change results, and its no-op path must be cheap.

Two guarantees:

- **Differential**: a mining/distance run with tracing enabled is
  byte-identical to the same run with tracing disabled — spans observe,
  never steer.
- **Overhead gate**: the disabled-tracer span path costs under 5% of a
  smoke ``mine_forest`` run.  The gate multiplies the *measured*
  per-span cost of the disabled path by the span count an enabled run
  actually produces, which keeps the assertion robust on noisy CI
  boxes (the two measurements are each best-of-N tight loops, not one
  racy subtraction of two full runs).
"""

from __future__ import annotations

import json
import random

from repro.core.distance import DistanceMode, distance_matrix
from repro.engine import MiningEngine
from repro.generate.random_trees import SyntheticTreeParams, synthetic_forest
from repro.obs.metrics import MetricsRegistry, stopwatch
from repro.obs.trace import Tracer

TREES = 60
TREESIZE = 25


def make_forest():
    params = SyntheticTreeParams(
        treesize=TREESIZE, databasesize=TREES, fanout=4, alphabetsize=40
    )
    return synthetic_forest(params, random.Random(71))


def strict(patterns):
    return [
        (p.label_a, p.label_b, p.distance, p.support, p.tree_indexes,
         p.total_occurrences)
        for p in patterns
    ]


def traced_engine():
    registry = MetricsRegistry()
    return MiningEngine(registry=registry, tracer=Tracer(registry))


class TestDifferential:
    def test_mine_forest_byte_identical_tracing_on_and_off(self):
        forest = make_forest()
        plain = MiningEngine().mine_forest(forest)
        traced = traced_engine().mine_forest(forest)
        assert (
            json.dumps(strict(traced)).encode("utf-8")
            == json.dumps(strict(plain)).encode("utf-8")
        )

    def test_distance_matrix_byte_identical_tracing_on_and_off(self):
        forest = make_forest()[:12]
        plain = distance_matrix(
            forest, mode=DistanceMode.DIST_OCCUR, engine=MiningEngine()
        )
        traced = distance_matrix(
            forest, mode=DistanceMode.DIST_OCCUR, engine=traced_engine()
        )
        assert (
            json.dumps(traced).encode("utf-8")
            == json.dumps(plain).encode("utf-8")
        )


class TestOverheadGate:
    def test_noop_span_overhead_under_5_percent(self):
        forest = make_forest()
        # Baseline: the untraced smoke run (best of 3 to cut noise).
        baseline = float("inf")
        for _ in range(3):
            with stopwatch() as watch:
                MiningEngine().mine_forest(forest)
            baseline = min(baseline, watch.seconds)

        # How many spans would that run execute if traced?
        engine = traced_engine()
        engine.mine_forest(forest)
        span_count = len(engine.tracer.records)
        assert span_count >= TREES  # one fastmine.sweep per tree at least

        # Per-span cost of the *disabled* path, worst case: a
        # metric-bearing span still pays a registry Timer.
        disabled = Tracer(MetricsRegistry(), enabled=False)
        rounds = 2000
        per_span = float("inf")
        for _ in range(3):
            with stopwatch() as watch:
                for _ in range(rounds):
                    with disabled.span("x", metric="x.seconds"):
                        pass
            per_span = min(per_span, watch.seconds / rounds)

        overhead = span_count * per_span
        assert overhead < 0.05 * baseline, (
            f"{span_count} no-op spans x {per_span:.2e}s = {overhead:.6f}s "
            f"is not < 5% of the {baseline:.6f}s smoke run"
        )
