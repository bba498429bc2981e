"""Delta-mining benchmark: incremental churn vs full re-mine (BENCH_delta.json).

Times a 1% churn step — replacing 15 of 1,500 synthetic trees — two
ways, landing in the *same* fully materialised state (frequent pairs
at ``minsup=2`` plus one full distance matrix):

- ``scratch`` — the non-incremental path: :func:`repro.core.multi_tree
  .mine_forest` over the post-churn forest plus a from-scratch
  :class:`repro.core.distvec.DistanceVectors` build and matrix;
- ``incremental`` — a :class:`repro.engine.delta.VersionedCorpus`
  already warm at the pre-churn state with its matrix materialised:
  the timed region is ``replace_trees`` (which re-mines only the 15
  arrivals and patches 15 rows) plus the two queries.

Both sides are single-thread and the results must be byte-identical —
the same ``FrequentCousinPair`` records (``tree_indexes`` and
``total_occurrences`` included) and an exactly equal matrix.  The gate
asserts the incremental path is >= 10x faster.

Run under pytest (``pytest benchmarks/bench_delta.py``) to regenerate
``BENCH_delta.json``, or standalone::

    PYTHONPATH=src python benchmarks/bench_delta.py          # full gate
    PYTHONPATH=src python benchmarks/bench_delta.py --smoke  # CI smoke

Smoke mode churns a tiny corpus and only asserts no regression
(>= 1x) plus byte identity — enough for CI to catch a broken or
slowed delta path without a long perf job.
"""

from __future__ import annotations

import argparse
import json
import random
import time
from pathlib import Path

try:
    from benchmarks.conftest import write_run_manifest
except ImportError:  # script invocation: sys.path[0] is benchmarks/
    from conftest import write_run_manifest

from repro.core.distance import DistanceMode
from repro.core.distvec import DistanceVectors
from repro.core.multi_tree import mine_forest
from repro.core.params import MiningParams
from repro.engine import MiningEngine
from repro.engine.delta import VersionedCorpus
from repro.generate.random_trees import SyntheticTreeParams, synthetic_forest
from repro.obs.context import scope
from repro.obs.metrics import MetricsRegistry, stopwatch

COUNT = 1500
CHURN = 15  # 1% of COUNT
TREESIZE = 20
MINSUP = 2
MODE = DistanceMode.DIST
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_delta.json"

SMOKE_COUNT = 120
SMOKE_CHURN = 2


def make_corpus(count: int, seed: int) -> list:
    params = SyntheticTreeParams(
        treesize=TREESIZE, databasesize=count, fanout=4, alphabetsize=100
    )
    return synthetic_forest(params, random.Random(seed))


def pattern_tuples(patterns) -> list[tuple]:
    """Every field, the non-compared (``compare=False``) ones included."""
    return [
        (p.label_a, p.label_b, p.distance, p.support, p.tree_indexes,
         p.total_occurrences)
        for p in patterns
    ]


def run(count: int, churn: int, smoke: bool) -> tuple[dict, MetricsRegistry]:
    registry = MetricsRegistry()
    params = MiningParams(maxdist=1.5, minoccur=1, minsup=1)
    with scope(registry), stopwatch() as corpus_watch:
        before = make_corpus(count, seed=6000 + count)
        arrivals = make_corpus(churn, seed=6600 + count)
        # Evenly spread replacement positions: every churn step touches
        # rows across the whole matrix, not one contiguous band.
        positions = [i * count // churn for i in range(churn)]
        after = list(before)
        for position, tree in zip(positions, arrivals):
            after[position] = tree

    # --- scratch: the non-incremental path over the post-churn forest.
    with scope(registry):
        started = time.perf_counter()
        scratch_patterns = mine_forest(
            after, maxdist=params.maxdist, minoccur=params.minoccur,
            minsup=MINSUP,
        )
        scratch_mine_seconds = time.perf_counter() - started
        started = time.perf_counter()
        scratch_vectors = DistanceVectors.from_trees(after, params)
        scratch_vectors.build_index()
        scratch_matrix = scratch_vectors.matrix(MODE)
        scratch_matrix_seconds = time.perf_counter() - started
    scratch_seconds = scratch_mine_seconds + scratch_matrix_seconds

    # --- incremental: a corpus warm at the pre-churn state.
    engine = MiningEngine()
    with scope(registry), stopwatch() as warm_watch:
        corpus = VersionedCorpus(before, params, engine=engine)
        corpus.frequent_pairs(minsup=MINSUP)
        corpus.distance_matrix(MODE)
    started = time.perf_counter()
    corpus.replace_trees(dict(zip(positions, arrivals)))
    delta_patterns = corpus.frequent_pairs(minsup=MINSUP)
    delta_matrix = corpus.distance_matrix(MODE)
    incremental_seconds = time.perf_counter() - started

    identical = (
        pattern_tuples(delta_patterns) == pattern_tuples(scratch_patterns)
        and delta_matrix == scratch_matrix
    )
    gate = 1.0 if smoke else 10.0
    phases = {
        "corpus": corpus_watch.seconds,
        "warm_build": warm_watch.seconds,
        "scratch": scratch_seconds,
        "incremental": incremental_seconds,
    }
    payload = {
        "mode": "smoke" if smoke else "full",
        "corpus": {"trees": count, "treesize": TREESIZE, "fanout": 4,
                   "alphabetsize": 100},
        "churn_trees": churn,
        "churn_fraction": churn / count,
        "minsup": MINSUP,
        "distance_mode": MODE.value,
        "scratch_mine_seconds": scratch_mine_seconds,
        "scratch_matrix_seconds": scratch_matrix_seconds,
        "scratch_total_seconds": scratch_seconds,
        "incremental_seconds": incremental_seconds,
        "speedup": scratch_seconds / incremental_seconds,
        "identical": identical,
        "gate": gate,
        "phases": [
            {"name": name, "seconds": seconds}
            for name, seconds in phases.items()
        ],
        "note": (
            "single-thread; both sides end in the same materialised "
            f"state (frequent pairs at minsup={MINSUP} plus the full "
            f"{MODE.value} matrix) over the post-churn forest; the "
            "warm pre-churn build is excluded from the incremental "
            f"timing; the gate asserts speedup >= {gate:.0f}x with "
            "byte-identical results"
        ),
    }
    return payload, registry


def check(payload: dict) -> None:
    assert payload["identical"], (
        "incremental churn results diverged from the full re-mine"
    )
    assert payload["speedup"] >= payload["gate"], payload


def report_rows(payload: dict) -> list[str]:
    corpus = payload["corpus"]
    return [
        f"corpus: {corpus['trees']} trees x ~{corpus['treesize']} nodes, "
        f"churn {payload['churn_trees']} "
        f"({payload['churn_fraction']:.1%})",
        f"scratch: mine {payload['scratch_mine_seconds']:.3f}s + "
        f"{payload['distance_mode']} matrix "
        f"{payload['scratch_matrix_seconds']:.3f}s = "
        f"{payload['scratch_total_seconds']:.3f}s",
        f"incremental: {payload['incremental_seconds']:.3f}s "
        f"({payload['speedup']:.2f}x, gate {payload['gate']:.0f}x)",
        f"identical: {payload['identical']}",
    ]


def test_delta_churn_speedup_gate(benchmark, print_rows):
    payload, registry = benchmark.pedantic(
        lambda: run(COUNT, CHURN, smoke=False), rounds=1, iterations=1
    )
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    write_run_manifest("bench_delta", payload, OUTPUT, registry=registry)
    print_rows(
        "Delta mining — incremental churn vs full re-mine "
        "(BENCH_delta.json)",
        report_rows(payload),
    )
    check(payload)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny corpus, >=1x no-regression gate (CI-sized)",
    )
    parser.add_argument(
        "--manifest", default=None, metavar="PATH",
        help="also write the run manifest (params, git revision, "
             "phase timings, metrics snapshot) to PATH",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        payload, registry = run(SMOKE_COUNT, SMOKE_CHURN, smoke=True)
    else:
        payload, registry = run(COUNT, CHURN, smoke=False)
        OUTPUT.write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
        write_run_manifest("bench_delta", payload, OUTPUT, registry=registry)
    if args.manifest:
        write_run_manifest(
            "bench_delta", payload, OUTPUT,
            registry=registry, path=args.manifest,
        )
    print(f"[delta mining benchmark — {payload['mode']}]")
    for row in report_rows(payload):
        print(f"  {row}")
    check(payload)
    print("ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
