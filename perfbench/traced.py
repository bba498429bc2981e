"""The traced run: one workload step replayed in-process, layer by layer.

The untraced end-to-end numbers come from ``repro-mine`` processes; this
run gives the per-layer split.  It first runs one ordinary step through
the CLI (the per-command wall clock and child CPU per wall), then
replays the same work in this process through each layer's public
calls, each call inside a benchmark-side span.  Spans never nest, so
the spans plus the ``obs.untraced_s`` residual add up to the replay's
wall clock (``obs.replay_s``) exactly, and ``obs.trace_overhead`` is the
replay's wall clock over the CLI step's.

Counts come from the program's own metrics registry (``engine.registry``),
which repeats exactly for a given seed.  Layers a workload never
touches report zero.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

from perfbench import workloads
from perfbench.client import Client
from perfbench.workloads import K, Checker, State

#: name -> unit: the per-layer table, in BENCHMARK.json order.
PER_LAYER = {
    "trees.parse_s": "s",
    "trees.parse_mb_per_s": "MB/s",
    "cli.import_s": "s",
    "cli.render_s": "s",
    "cmd.frequent_s": "s",
    "cmd.similar_s": "s",
    "cmd.add_s": "s",
    "cmd.remove_s": "s",
    "engine.cpu_per_wall.frequent": "ratio",
    "engine.cpu_per_wall.similar": "ratio",
    "engine.cpu_per_wall.add": "ratio",
    "engine.cpu_per_wall.remove": "ratio",
    "engine.packed_counts_s": "s",
    "engine.batch_s": "s",
    "engine.lookups": "count",
    "engine.cache.misses": "count",
    "engine.batches_parallel": "count",
    "fastmine.sweep_s": "s",
    "fastmine.nodes": "count",
    "fastmine.keys": "count",
    "multi_tree.aggregate_s": "s",
    "multi_tree.items": "count",
    "multi_tree.patterns": "count",
    "multi_tree.patterns_per_item": "ratio",
    "topk.cold_query_s": "s",
    "topk.warm_query_s": "s",
    "topk.sketch_build_s": "s",
    "topk.candidates": "count",
    "topk.exact_joins": "count",
    "topk.pruned_index": "count",
    "topk.pruned_bound": "count",
    "topk.join_ratio": "ratio",
    "store.open_s": "s",
    "store.vectors_s": "s",
    "store.generations": "count",
    "store.rows_dead": "count",
    "store.mb": "MB",
    "corpus.open_s": "s",
    "corpus.add_s": "s",
    "corpus.remove_s": "s",
    "corpus.save_s": "s",
    "corpus.json_mb": "MB",
    "corpus.write_amp": "ratio",
    "obs.replay_s": "s",
    "obs.untraced_s": "s",
    "obs.trace_overhead": "ratio",
}

#: Span names; span ``x`` sums into the per-layer metric ``x_s``.
SPAN_METRICS = (
    "trees.parse", "cli.import", "cli.render", "engine.packed_counts",
    "multi_tree.aggregate", "topk.cold_query", "topk.warm_query",
    "store.open", "store.vectors", "corpus.open", "corpus.add",
    "corpus.remove", "corpus.save",
)


class Spans:
    """Flat, non-overlapping benchmark-side spans: (name, start, end)."""

    def __init__(self) -> None:
        self.records: list[tuple[str, float, float]] = []

    @contextmanager
    def span(self, name: str):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.records.append((name, started, time.perf_counter()))

    def seconds(self, name: str) -> float:
        return sum(end - start for span, start, end in self.records if span == name)

    @property
    def total(self) -> float:
        return sum(end - start for _name, start, end in self.records)


def _sum_counts(engines) -> dict:
    """Counters and histogram totals summed over the engines' registries."""
    summed: dict[str, float] = {}
    for engine in engines:
        snapshot = engine.registry.snapshot()
        for name, value in snapshot["counters"].items():
            summed[name] = summed.get(name, 0) + value
        for name, histogram in snapshot["histograms"].items():
            key = name + ".total"
            summed[key] = summed.get(key, 0.0) + histogram["total"]
    return summed


def _store_shape(directory: Path) -> tuple[int, int]:
    """(generations, dead rows) from the store manifest."""
    manifest = json.loads((directory / "store.json").read_text())
    stored = sum(int(g["trees"]) for g in manifest["generations"])
    return len(manifest["generations"]), stored - len(manifest["rows"])


def _file_stats(*directories: Path) -> dict:
    stats = {}
    for directory in directories:
        for folder, _dirs, files in os.walk(directory):
            for file in files:
                path = os.path.join(folder, file)
                info = os.stat(path)
                stats[path] = (info.st_size, info.st_mtime_ns, info.st_ino)
    return stats


def _rewritten_bytes(before: dict, after: dict) -> int:
    return sum(
        stat[0] for path, stat in after.items() if before.get(path) != stat
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _render_similar(result, names) -> list[str]:
    return [f"# {result.describe()}"] + [
        f"{distance:.6f}  {names[index]} (#{index})"
        for index, distance in result.neighbors
    ]


def _topk(spans: Spans, directory: Path, query, values: dict, checker, expected):
    """Open the store, build its vectors, query it cold then warm."""
    from repro.engine import MiningEngine
    from repro.store import PairStore

    engine = MiningEngine()
    with spans.span("store.open"):
        engine.attach_store(PairStore.open(str(directory)))
    with spans.span("store.vectors"):
        engine.store_vectors()
    with spans.span("topk.cold_query"):
        cold = engine.store_topk(query, K)
    with spans.span("topk.warm_query"):
        warm = engine.store_topk(query, K)
    with spans.span("cli.render"):
        lines = _render_similar(cold, engine.store.names)
    checker.expect(
        lines[1:] == expected and warm.neighbors == cold.neighbors,
        "traced similar",
    )
    values["topk.candidates"] = cold.candidates
    values["topk.exact_joins"] = cold.exact_joins
    values["topk.pruned_index"] = cold.pruned_index
    values["topk.pruned_bound"] = cold.pruned_bound
    values["store.generations"], values["store.rows_dead"] = _store_shape(directory)
    values["store.mb"] = workloads.disk_bytes(directory) / 1e6
    return engine


def replay(
    name: str, client: Client, checker: Checker, state: State, step_index: int
) -> dict:
    """Replay one step of ``name`` under spans; returns raw values."""
    from repro.apps.corpus import CorpusStore
    from repro.core.multi_tree import mine_forest
    from repro.engine import MiningEngine
    from repro.store import PairStore
    from repro.trees.newick import read_newick_file

    spans = Spans()
    values: dict[str, float] = {}
    engines = []
    parsed_bytes = 0
    started = time.perf_counter()
    with spans.span("cli.import"):
        imported = client.python("-c", "import repro.cli")
    checker.check(imported, True, "import repro.cli")
    if name == "fig7-frequent":
        path = state.inputs / "corpus.nwk"
        parsed_bytes = path.stat().st_size
        with spans.span("trees.parse"):
            trees = read_newick_file(str(path))
        engine = MiningEngine()
        engines.append(engine)
        with spans.span("engine.packed_counts"):
            _keys, packed = engine.packed_counts(trees)
        with spans.span("multi_tree.aggregate"):
            patterns = mine_forest(trees, minsup=2, engine=engine)
        with spans.span("cli.render"):
            text = workloads.frequent_text(patterns, len(trees))
        checker.expect(
            workloads.sha256(text.encode("utf-8")) == state.ref["stdout_sha256"],
            "traced frequent",
        )
        values["multi_tree.items"] = sum(len(counts) for counts in packed)
        values["multi_tree.patterns"] = len(patterns)
    elif name == "corpus-churn":
        batch_index = step_index % workloads.CHURN_BATCHES
        expected = state.ref["steps"][batch_index]
        trees = state.ref["trees"]
        path = state.inputs / f"batch{batch_index}.nwk"
        query_path = state.inputs / f"q{batch_index}.nwk"
        batch_bytes = path.stat().st_size
        parsed_bytes = batch_bytes + query_path.stat().st_size
        with spans.span("trees.parse"):
            batch = read_newick_file(str(path))
            query = read_newick_file(str(query_path))[0]

        def open_corpus():
            engine = MiningEngine()
            engines.append(engine)
            with spans.span("corpus.open"):
                store = CorpusStore.open(str(state.corpus), engine=engine)
            with spans.span("store.open"):
                store.corpus.attach_store(
                    PairStore.open(str(state.store)), names=store.names
                )
            return store

        before = _file_stats(state.corpus, state.store)
        corpus = open_corpus()
        with spans.span("corpus.add"):
            positions = corpus.add_trees(batch)
        with spans.span("corpus.save"):
            corpus.save()
        middle = _file_stats(state.corpus, state.store)
        checker.expect(
            positions == list(range(trees, trees + len(batch)))
            and corpus.names[trees:] == expected["names"],
            "traced corpus add",
        )
        engines.append(_topk(
            spans, state.store, query, values, checker,
            expected["similar"],
        ))
        corpus = open_corpus()
        with spans.span("corpus.remove"):
            corpus.remove_trees(positions)
        with spans.span("corpus.save"):
            corpus.save()
        after = _file_stats(state.corpus, state.store)
        state.version += 2
        checker.expect(len(corpus.names) == trees, "traced corpus remove")
        rewritten = _rewritten_bytes(before, middle) + _rewritten_bytes(middle, after)
        values["corpus.write_amp"] = _ratio(rewritten, 2 * batch_bytes)
        values["corpus.json_mb"] = (state.corpus / "corpus.json").stat().st_size / 1e6
    else:
        raise KeyError(name)
    wall = time.perf_counter() - started

    for span_name in SPAN_METRICS:
        values[span_name + "_s"] = spans.seconds(span_name)
    values["trees.parse_mb_per_s"] = _ratio(parsed_bytes / 1e6, values["trees.parse_s"])
    values["topk.sketch_build_s"] = max(
        0.0, values["topk.cold_query_s"] - values["topk.warm_query_s"]
    )
    values["topk.join_ratio"] = _ratio(
        values.get("topk.exact_joins", 0), values.get("topk.candidates", 0)
    )
    values["multi_tree.patterns_per_item"] = _ratio(
        values.get("multi_tree.patterns", 0), values.get("multi_tree.items", 0)
    )
    counts = _sum_counts(engines)
    values["engine.batch_s"] = counts.get("engine.batch.seconds.total", 0.0)
    values["engine.lookups"] = counts.get("engine.lookups", 0)
    values["engine.cache.misses"] = counts.get("engine.cache.misses", 0)
    values["engine.batches_parallel"] = counts.get("engine.batches.parallel", 0)
    values["fastmine.sweep_s"] = counts.get("fastmine.sweep.seconds.total", 0.0)
    values["fastmine.nodes"] = counts.get("fastmine.nodes", 0)
    values["fastmine.keys"] = counts.get("fastmine.keys", 0)
    values["obs.replay_s"] = wall
    values["obs.untraced_s"] = wall - spans.total
    return values


def _kind(argv) -> str:
    """``frequent``/``similar`` or the ``corpus`` action (``add``...)."""
    command = argv[3]
    return argv[4] if command == "corpus" else command


def run(name: str, client: Client, checker: Checker, state: State) -> dict:
    """One CLI step, then its traced replay; returns every per-layer metric."""
    first = len(client.outcomes)
    cli_wall = workloads.step(name, 0, client, checker, state)
    commands = client.outcomes[first:]
    values = replay(name, client, checker, state, step_index=1)
    for outcome in commands:
        kind = _kind(outcome.argv)
        if f"cmd.{kind}_s" in PER_LAYER:
            values[f"cmd.{kind}_s"] = outcome.wall_s
            values[f"engine.cpu_per_wall.{kind}"] = outcome.cpu_per_wall
    values["obs.trace_overhead"] = _ratio(values["obs.replay_s"], cli_wall)
    return {metric: float(values.get(metric, 0.0)) for metric in PER_LAYER}
