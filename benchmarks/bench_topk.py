"""Top-k similarity benchmark: exact ranking vs sorted all-pairs row (BENCH_topk.json).

Answers the §5.3 query "which trees are nearest to mine?" two ways
over a TreeBASE-like synthetic corpus (studies of related trees
drawing taxa from a shared namespace, so the inverted index alone
cannot prune much) and for all four ``DistanceMode``s:

- ``brute`` — one full :meth:`repro.core.distvec.DistanceVectors.row`
  per query (the exact merge-joins ``distance_matrix`` would spend on
  that row), sorted in Python;
- ``exact`` — :func:`repro.core.topk.topk_search`: the zero-overlap
  fill, one batched join of the overlapping trees, one stable sort.

Both sides start from vectors in the corpus id space: the brute row
belongs to a corpus member and the exact side gets the same tree,
mined and projected before the clock starts.  Each query is timed
``ROUNDS`` times, alternating the two sides, and the fastest round of
each side counts.  The end-to-end :meth:`repro.engine.MiningEngine
.topk_similar` time, query lookup included, is recorded but not
gated.

The gates: the neighbours must be **byte-identical** to the sorted
brute row (same distances, ties broken by the smaller tree index) for
every query and mode, and the exact ranking's wall time must not
exceed the brute rows'.  Both gates hold in full and ``--smoke`` mode.

Run under pytest (``pytest benchmarks/bench_topk.py``) to regenerate
``BENCH_topk.json``, or standalone::

    PYTHONPATH=src python benchmarks/bench_topk.py          # full gate
    PYTHONPATH=src python benchmarks/bench_topk.py --smoke  # CI smoke
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
from repro.core.params import MiningParams
from repro.core.topk import query_vector, topk_search
from repro.engine import MiningEngine
from repro.generate.treebase import synthetic_treebase_corpus
from repro.obs.context import scope
from repro.obs.metrics import MetricsRegistry, stopwatch
from repro.trees.ops import relabel

COUNT = 400
ALPHABET = 400
MIN_NODES = 40
MAX_NODES = 120
QUERIES = 8
K = 10
ROUNDS = 15
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_topk.json"

SMOKE_COUNT = 60
SMOKE_ALPHABET = 120
SMOKE_MIN_NODES = 15
SMOKE_MAX_NODES = 40
SMOKE_QUERIES = 3


def make_corpus(count: int, alphabet: int, min_nodes: int, max_nodes: int):
    studies = synthetic_treebase_corpus(
        num_trees=count,
        trees_per_study=4,
        min_nodes=min_nodes,
        max_nodes=max_nodes,
        alphabet_size=alphabet,
        rng=7000 + count,
    )
    return [tree for study in studies for tree in study.trees]


def plant_variants(forest, query_indexes, variants, rng):
    """Append near-duplicates of every query tree to the corpus.

    Variant ``v`` of a query relabels ``v + 1`` of its leaves to fresh
    taxa — a graded cloud of close neighbours, the TreeBASE situation
    where later studies republish a phylogeny with a few taxa swapped,
    so every query has real nearest neighbours to find.
    """
    planted = []
    for query_position, index in enumerate(query_indexes):
        source = forest[index]
        leaves = sorted(source.leaf_labels())
        for variant in range(variants):
            chosen = rng.sample(leaves, min(len(leaves), variant + 1))
            mapping = {
                label: f"Variant{query_position:02d}_{variant:02d}_{i:02d}"
                for i, label in enumerate(chosen)
            }
            planted.append(relabel(source, mapping))
    return planted


def run(
    count: int,
    alphabet: int,
    min_nodes: int,
    max_nodes: int,
    queries: int,
    smoke: bool,
) -> tuple[dict, MetricsRegistry]:
    registry = MetricsRegistry()
    params = MiningParams(maxdist=1.5, minoccur=1, minsup=1)
    with scope(registry), stopwatch() as corpus_watch:
        forest = make_corpus(count, alphabet, min_nodes, max_nodes)
        # Queries are corpus members spread across studies: the natural
        # catalog workload ("which trees resemble this study's tree?").
        # Each query also gets a planted cloud of k + 2 near-duplicates
        # so the workload has real nearest neighbours to find.
        query_indexes = [i * count // queries for i in range(queries)]
        forest.extend(
            plant_variants(forest, query_indexes, K + 2, random.Random(13))
        )
    total = len(forest)

    engine = MiningEngine()
    with scope(registry), stopwatch() as build_watch:
        vectors = engine.distance_vectors(forest, params)
        vectors.build_index()
        _keys, packed = engine.packed_counts(
            [forest[index] for index in query_indexes], params
        )
        projected = [
            query_vector(vectors, counts, params.minoccur)
            for counts in packed
        ]

    per_mode = []
    identical = True
    with scope(registry):
        for mode in DistanceMode:
            brute_best = [float("inf")] * queries
            exact_best = [float("inf")] * queries
            for round_number in range(ROUNDS):
                references = []
                results = []
                for position, index in enumerate(query_indexes):
                    # Alternate which side runs first, so neither always
                    # finds the other's arrays warm in the CPU cache.
                    for side in (0, 1) if round_number % 2 else (1, 0):
                        started = time.perf_counter()
                        if side == 0:
                            row, _computed, _pruned = vectors.row(index, mode)
                            ranked = sorted(
                                (distance, tree)
                                for tree, distance in enumerate(row)
                            )
                            references.append(tuple(
                                (tree, distance)
                                for distance, tree in ranked[:K]
                            ))
                            brute_best[position] = min(
                                brute_best[position],
                                time.perf_counter() - started,
                            )
                        else:
                            results.append(topk_search(
                                vectors, projected[position], K, mode
                            ))
                            exact_best[position] = min(
                                exact_best[position],
                                time.perf_counter() - started,
                            )
            started = time.perf_counter()
            engine_results = [
                engine.topk_similar(vectors, forest[index], K, mode, params)
                for index in query_indexes
            ]
            engine_seconds = time.perf_counter() - started
            mode_identical = all(
                result.neighbors == reference
                and engine_result.neighbors == reference
                for result, engine_result, reference in zip(
                    results, engine_results, references
                )
            )
            identical = identical and mode_identical
            per_mode.append(
                {
                    "mode": mode.value,
                    "overlapping_trees": sum(
                        result.exact_joins for result in results
                    ),
                    "identical": mode_identical,
                    "brute_seconds": sum(brute_best),
                    "exact_seconds": sum(exact_best),
                    "engine_seconds": engine_seconds,
                }
            )

    brute_seconds = sum(entry["brute_seconds"] for entry in per_mode)
    exact_seconds = sum(entry["exact_seconds"] for entry in per_mode)
    engine_seconds = sum(entry["engine_seconds"] for entry in per_mode)
    phases = {
        "corpus": corpus_watch.seconds,
        "build": build_watch.seconds,
        "brute": brute_seconds,
        "exact": exact_seconds,
        "engine": engine_seconds,
    }
    payload = {
        "mode": "smoke" if smoke else "full",
        "corpus": {
            "trees": total,
            "base_trees": count,
            "planted_variants": total - count,
            "min_nodes": min_nodes,
            "max_nodes": max_nodes,
            "alphabetsize": alphabet,
        },
        "queries": queries,
        "k": K,
        "rounds": ROUNDS,
        "per_mode": per_mode,
        "brute_seconds": brute_seconds,
        "exact_seconds": exact_seconds,
        "engine_seconds": engine_seconds,
        "speedup": brute_seconds / exact_seconds if exact_seconds else None,
        "identical": identical,
        "phases": [
            {"name": name, "seconds": seconds}
            for name, seconds in phases.items()
        ],
        "note": (
            "single-thread; TreeBASE-like studies over a shared taxon "
            "namespace; per query and mode the top-k neighbours must "
            "equal the sorted all-pairs row exactly (ties by smaller "
            "index), and the exact ranking's wall time (fastest of "
            f"{ROUNDS} alternating rounds per query) must not exceed "
            "the brute rows'; engine_seconds adds the query's cache "
            "lookup and projection and is not gated"
        ),
    }
    return payload, registry


def check(payload: dict) -> None:
    assert payload["identical"], (
        "top-k neighbours diverged from the sorted all-pairs row"
    )
    assert payload["exact_seconds"] <= payload["brute_seconds"], payload


def report_rows(payload: dict) -> list[str]:
    corpus = payload["corpus"]
    rows = [
        f"corpus: {corpus['trees']} trees x {corpus['min_nodes']}-"
        f"{corpus['max_nodes']} nodes, {corpus['alphabetsize']} taxa; "
        f"{payload['queries']} queries, k={payload['k']}",
    ]
    for entry in payload["per_mode"]:
        rows.append(
            f"{entry['mode']:>10}: brute {entry['brute_seconds']:.4f}s vs "
            f"exact {entry['exact_seconds']:.4f}s "
            f"({entry['overlapping_trees']} overlapping tree(s) joined); "
            f"engine {entry['engine_seconds']:.4f}s"
        )
    speedup = payload.get("speedup")
    rows.append(
        f"wall-clock: brute {payload['brute_seconds']:.4f}s vs exact "
        f"{payload['exact_seconds']:.4f}s"
        + (f" ({speedup:.2f}x)" if speedup is not None else "")
    )
    rows.append(f"identical: {payload['identical']}")
    return rows


def test_topk_exact_ranking_gate(benchmark, print_rows):
    payload, registry = benchmark.pedantic(
        lambda: run(COUNT, ALPHABET, MIN_NODES, MAX_NODES, QUERIES,
                    smoke=False),
        rounds=1, iterations=1,
    )
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    write_run_manifest("bench_topk", payload, OUTPUT, registry=registry)
    print_rows(
        "Top-k similarity — exact ranking vs all-pairs row "
        "(BENCH_topk.json)",
        report_rows(payload),
    )
    check(payload)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny corpus, same gates (CI-sized)",
    )
    parser.add_argument(
        "--manifest", default=None, metavar="PATH",
        help="also write the run manifest (params, git revision, "
             "phase timings, metrics snapshot) to PATH",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        payload, registry = run(
            SMOKE_COUNT, SMOKE_ALPHABET, SMOKE_MIN_NODES, SMOKE_MAX_NODES,
            SMOKE_QUERIES, smoke=True,
        )
    else:
        payload, registry = run(
            COUNT, ALPHABET, MIN_NODES, MAX_NODES, QUERIES, smoke=False
        )
        OUTPUT.write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
        write_run_manifest("bench_topk", payload, OUTPUT, registry=registry)
    if args.manifest:
        write_run_manifest(
            "bench_topk", payload, OUTPUT,
            registry=registry, path=args.manifest,
        )
    print(f"[top-k similarity benchmark — {payload['mode']}]")
    for row in report_rows(payload):
        print(f"  {row}")
    check(payload)
    print("ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
