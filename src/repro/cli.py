"""Command-line interface.

Mirrors the workflows a user of the original K-language tool would run,
plus the extension workflows::

    repro-mine mine trees.nwk --maxdist 1.5 --minoccur 1 [--free]
    repro-mine frequent trees.nwk --minsup 2
    repro-mine support trees.nwk --pair Gnetum Welwitschia --distance 0
    repro-mine consensus trees.nwk --method majority --score
    repro-mine distance a.nwk b.nwk --mode dist_occur
    repro-mine kernel g1.nwk g2.nwk g3.nwk
    repro-mine treerank query.nwk database.nwk
    repro-mine similar query.nwk database.nwk --k 10
    repro-mine cluster trees.nwk -k 3
    repro-mine supertree study1.nex study2.nex
    repro-mine report trees.nwk --patterns 2
    repro-mine diff old.nwk new.nwk
    repro-mine corpus init DIR --trees trees.nwk
    repro-mine corpus add DIR more.nwk
    repro-mine corpus remove DIR 3 7
    repro-mine corpus log DIR
    repro-mine corpus diff DIR 0 4
    repro-mine corpus pack DIR [--store STOREDIR]
    repro-mine similar query.nwk --store STOREDIR --k 10
    repro-mine distance 0 7 --store STOREDIR
    repro-mine profile trace.jsonl --folded out.folded --top 15
    repro-mine perf ingest BENCH_store.manifest.json
    repro-mine perf log --markdown
    repro-mine perf check BENCH_store.manifest.json --report out.jsonl

Input files may be Newick or NEXUS (sniffed by the ``#NEXUS`` header);
subcommands print plain text to stdout (``--format json|csv`` where
supported).  Also runnable as ``python -m repro``.  See docs/cli.md
for the full manual.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.engine import MiningEngine

from repro.consensus.base import CONSENSUS_METHODS, consensus
from repro.core.distance import DistanceMode, tree_distance
from repro.core.kernel import find_kernel_trees
from repro.core.multi_tree import mine_forest, support
from repro.core.fastmine import mine_tree
from repro.core.params import validate_mode
from repro.core.similarity import average_similarity
from repro.core.treerank import rank_trees
from repro.errors import NewickEmptyStatementError, ReproError
from repro.trees.newick import read_newick_file, write_newick
from repro.trees.nexus import read_nexus_file

__all__ = ["main", "build_parser", "load_trees"]


def load_trees(path: str):
    """Read trees from a Newick or NEXUS file (sniffed by header)."""
    with open(path, encoding="utf-8") as handle:
        head = handle.read(64)
    if head.lstrip().upper().startswith("#NEXUS"):
        return read_nexus_file(path)
    return read_newick_file(path)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-mine",
        description=(
            "Cousin-pair mining in unordered trees "
            "(Shasha, Wang & Zhang, ICDE 2004)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_mining_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--maxdist", type=float, default=1.5,
                       help="maximum cousin distance (default 1.5)")
        p.add_argument("--minoccur", type=int, default=1,
                       help="minimum within-tree occurrences (default 1)")
        p.add_argument("--gap", type=int, default=1,
                       help="maximum generation gap (default 1)")
        p.add_argument("--max-height", type=int, default=None,
                       dest="max_height",
                       help="optional horizontal limit: levels below "
                            "the LCA for the shallower cousin")

    def add_mode_arg(p: argparse.ArgumentParser) -> None:
        # validate_mode as the type callable: bad values raise
        # MiningParameterError (a ValueError), which argparse turns
        # into a clean usage message; good ones arrive as members.
        p.add_argument("--mode", default="dist_occur",
                       type=validate_mode,
                       choices=[mode.value for mode in DistanceMode],
                       help="distance variant (default dist_occur)")

    def add_store_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--store", default=None, metavar="DIR",
                       help="serve from the on-disk pair store at DIR "
                            "(mining knobs come from the store)")

    def add_engine_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", type=int, default=None,
                       help="worker processes for per-tree mining "
                            "(default: all available CPUs; an "
                            "effective count of 1 runs serially "
                            "with no process pool)")
        p.add_argument("--cache-dir", default=None, dest="cache_dir",
                       help="directory for the persistent pair-set "
                            "cache (reused across runs)")
        p.add_argument("--engine-stats", action="store_true",
                       dest="engine_stats",
                       help="print cache and parallelism statistics "
                            "to stderr")
        p.add_argument("--trace", default=None, metavar="PATH",
                       help="record spans and write a JSON-lines "
                            "trace of the run to PATH")
        p.add_argument("--profile", action="store_true",
                       help="record spans and print the top self-time "
                            "table to stderr after the run")

    p_mine = sub.add_parser("mine", help="mine cousin pair items of each tree")
    p_mine.add_argument("file", help="Newick file (one or more trees)")
    add_mining_args(p_mine)
    p_mine.add_argument("--format", default="text",
                        choices=["text", "json", "csv"],
                        help="output format (default text)")
    p_mine.add_argument("--free", action="store_true",
                        help="treat trees as unrooted (Section 6 "
                             "path-length cousin distance)")

    p_freq = sub.add_parser("frequent", help="frequent pairs across a forest")
    p_freq.add_argument("file", help="Newick file with the tree database")
    add_mining_args(p_freq)
    p_freq.add_argument("--minsup", type=int, default=2,
                        help="minimum supporting trees (default 2)")
    p_freq.add_argument("--ignore-distance", action="store_true",
                        help="support counts any-distance occurrences")
    p_freq.add_argument("--format", default="text",
                        choices=["text", "json"],
                        help="output format (default text)")
    add_engine_args(p_freq)

    p_sup = sub.add_parser("support", help="support of one label pair")
    p_sup.add_argument("file")
    p_sup.add_argument("--pair", nargs=2, required=True, metavar=("A", "B"))
    p_sup.add_argument("--distance", type=float, default=None,
                       help="cousin distance (omit to ignore distances)")
    add_mining_args(p_sup)

    p_cons = sub.add_parser("consensus", help="consensus tree of a profile")
    p_cons.add_argument("file")
    p_cons.add_argument("--method", default="majority",
                        choices=sorted(CONSENSUS_METHODS))
    p_cons.add_argument("--score", action="store_true",
                        help="also print the average similarity score")

    p_dist = sub.add_parser("distance", help="cousin-based tree distance")
    p_dist.add_argument("first",
                        help="tree file (or a stored tree's position or "
                             "name with --store)")
    p_dist.add_argument("second",
                        help="tree file (or a stored tree's position or "
                             "name with --store)")
    add_mode_arg(p_dist)
    add_mining_args(p_dist)
    add_store_arg(p_dist)
    add_engine_args(p_dist)

    p_kern = sub.add_parser("kernel", help="kernel trees across groups")
    p_kern.add_argument("files", nargs="+",
                        help="one Newick file per group (>= 2 files)")
    add_mode_arg(p_kern)
    add_mining_args(p_kern)
    add_engine_args(p_kern)

    p_rank = sub.add_parser(
        "treerank", help="rank database trees against a query (UpDown)"
    )
    p_rank.add_argument("query", help="file with exactly one query tree")
    p_rank.add_argument("database", help="file with the candidate trees")
    p_rank.add_argument("--top", type=int, default=10,
                        help="show the best N matches (default 10)")

    p_sim = sub.add_parser(
        "similar",
        help="k nearest database trees under the cousin-based distance",
    )
    p_sim.add_argument("query", help="file with exactly one query tree")
    p_sim.add_argument("database", nargs="?", default=None,
                       help="file with the candidate trees (omit when "
                            "--store serves the database)")
    p_sim.add_argument("--k", type=int, default=10,
                       help="how many neighbours to return (default 10)")
    add_mode_arg(p_sim)
    add_mining_args(p_sim)
    add_store_arg(p_sim)
    add_engine_args(p_sim)

    p_clust = sub.add_parser(
        "cluster", help="cluster trees under the cousin-based distance"
    )
    p_clust.add_argument("file")
    p_clust.add_argument("-k", type=int, required=True,
                         help="number of clusters")
    p_clust.add_argument("--linkage", default="average",
                         choices=["single", "complete", "average"])
    add_mode_arg(p_clust)
    add_engine_args(p_clust)

    p_super = sub.add_parser(
        "supertree", help="assemble a supertree from overlapping trees"
    )
    p_super.add_argument("files", nargs="+",
                         help="tree files (taxa may differ)")

    p_diff = sub.add_parser(
        "diff", help="compare frequent patterns of two snapshots"
    )
    p_diff.add_argument("old", help="old snapshot (tree file)")
    p_diff.add_argument("new", help="new snapshot (tree file)")
    add_mining_args(p_diff)
    p_diff.add_argument("--minsup", type=int, default=2)
    add_mode_arg(p_diff)
    add_engine_args(p_diff)

    p_report = sub.add_parser(
        "report",
        help="Figure 8 style report: trees with patterns highlighted",
    )
    p_report.add_argument("file")
    add_mining_args(p_report)
    p_report.add_argument("--minsup", type=int, default=2)
    p_report.add_argument("--patterns", type=int, default=2,
                          help="how many top patterns to mark (default 2)")
    add_engine_args(p_report)

    p_corpus = sub.add_parser(
        "corpus",
        help="maintain a versioned corpus with incremental delta-mining",
    )
    corpus_sub = p_corpus.add_subparsers(dest="action", required=True)

    pc_init = corpus_sub.add_parser(
        "init", help="initialise a corpus directory from a tree file"
    )
    pc_init.add_argument("dir", help="corpus directory (created if missing)")
    pc_init.add_argument("--trees", default=None, metavar="FILE",
                         help="initial tree file (omit for an empty corpus)")
    add_mining_args(pc_init)
    add_store_arg(pc_init)
    add_engine_args(pc_init)

    pc_add = corpus_sub.add_parser(
        "add", help="append the trees of a file to the corpus"
    )
    pc_add.add_argument("dir")
    pc_add.add_argument("file", help="tree file with the new members")
    add_store_arg(pc_add)
    add_engine_args(pc_add)

    pc_remove = corpus_sub.add_parser(
        "remove", help="remove trees by position (later trees shift down)"
    )
    pc_remove.add_argument("dir")
    pc_remove.add_argument("indexes", nargs="+", type=int, metavar="INDEX")
    add_store_arg(pc_remove)
    add_engine_args(pc_remove)

    pc_log = corpus_sub.add_parser(
        "log", help="show the corpus delta log"
    )
    pc_log.add_argument("dir")
    add_store_arg(pc_log)
    add_engine_args(pc_log)

    pc_diff = corpus_sub.add_parser(
        "diff", help="net structural change between two versions"
    )
    pc_diff.add_argument("dir")
    pc_diff.add_argument("old", type=int, help="older version number")
    pc_diff.add_argument("new", type=int, help="newer version number")
    add_store_arg(pc_diff)
    add_engine_args(pc_diff)

    pc_pack = corpus_sub.add_parser(
        "pack",
        help="pack the corpus into an on-disk pair store "
             "(memmapped .npy shards)",
    )
    pc_pack.add_argument("dir")
    add_store_arg(pc_pack)
    add_engine_args(pc_pack)

    p_prof = sub.add_parser(
        "profile",
        help="aggregate a --trace JSONL into self-time rollups, the "
             "critical path and folded stacks",
    )
    p_prof.add_argument("trace_file", metavar="TRACE",
                        help="JSON-lines trace written by --trace PATH")
    p_prof.add_argument("--folded", default=None, metavar="OUT",
                        help="also write folded stacks "
                             "('name;child micros') for flamegraph "
                             "tooling")
    p_prof.add_argument("--top", type=int, default=15,
                        help="rows in the self-time table (default 15)")

    p_perf = sub.add_parser(
        "perf",
        help="run-history warehouse: ingest benchmark manifests, show "
             "the trajectory, gate on regressions",
    )
    perf_sub = p_perf.add_subparsers(dest="action", required=True)

    def add_history_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--history", default=".repro-history", metavar="DIR",
                       help="warehouse directory "
                            "(default .repro-history)")

    pp_ingest = perf_sub.add_parser(
        "ingest", help="append run manifests to the warehouse"
    )
    pp_ingest.add_argument("manifests", nargs="+", metavar="MANIFEST",
                           help="BENCH_*.manifest.json files")
    add_history_arg(pp_ingest)

    pp_log = perf_sub.add_parser(
        "log", help="show the per-bench trajectory"
    )
    pp_log.add_argument("bench", nargs="?", default=None,
                        help="restrict to one bench name")
    pp_log.add_argument("--metric", default=None,
                        help="print this metric's full series instead "
                             "of the summary")
    pp_log.add_argument("--markdown", action="store_true",
                        help="emit the summary as a Markdown table "
                             "(docs/perf.md)")
    add_history_arg(pp_log)

    pp_check = perf_sub.add_parser(
        "check",
        help="compare manifests against the warehouse's rolling "
             "median; exit 1 on regression",
    )
    pp_check.add_argument("manifests", nargs="+", metavar="MANIFEST")
    add_history_arg(pp_check)
    pp_check.add_argument("--window", type=int, default=8,
                          help="baseline runs considered (default 8)")
    pp_check.add_argument("--min-samples", type=int, default=1,
                          dest="min_samples",
                          help="abstain below this many baseline "
                               "samples (default 1)")
    pp_check.add_argument("--threshold", type=float, default=0.25,
                          help="relative band before a verdict "
                               "(default 0.25)")
    pp_check.add_argument("--floor-seconds", type=float, default=0.005,
                          dest="floor_seconds",
                          help="noise floor: abstain when both sides "
                               "are under it (default 0.005)")
    pp_check.add_argument("--report", default=None, metavar="PATH",
                          help="write one verdict report per manifest "
                               "as JSON lines to PATH")

    return parser


@contextmanager
def _engine_session(args: argparse.Namespace) -> Iterator[MiningEngine]:
    """Build the engine and install its observability scope.

    While the scope is active, ambient metrics and spans (kernel
    search, clustering, diff phases, cache internals) land in the
    engine's registry, so ``--engine-stats`` and ``--trace`` see the
    whole run.  On exit ``--trace PATH`` writes the JSON-lines trace
    (also for failed runs — a partial trace aids debugging) and
    ``--profile`` prints the top self-time table to stderr —
    ``--profile`` reuses the same ambient tracer, so its overhead is
    exactly the tracing overhead already gated at <5%.
    """
    from repro.engine import MiningEngine
    from repro.obs.context import scope
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import Tracer

    trace_path = getattr(args, "trace", None)
    profile = getattr(args, "profile", False)
    registry = MetricsRegistry()
    tracer = Tracer(registry, enabled=trace_path is not None or profile)
    engine = MiningEngine(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        registry=registry,
        tracer=tracer,
    )
    try:
        with scope(registry, tracer):
            yield engine
    finally:
        if trace_path is not None:
            from repro.obs.export import write_trace

            write_trace(trace_path, tracer, registry, command=args.command)
        if profile:
            from repro.obs.profile import build_profile, render_profile

            for line in render_profile(build_profile(tracer.records), top=12):
                print(line, file=sys.stderr)


def _report_engine_stats(engine: MiningEngine, args: argparse.Namespace) -> None:
    if args.engine_stats:
        from repro.obs.export import render_stats

        print(engine.stats.describe(), file=sys.stderr)
        for line in render_stats(engine.registry):
            print(line, file=sys.stderr)


def _attach_pair_store(corpus, directory: str, names=None):
    """Attach the pair store at ``directory``, re-packing on damage.

    A damaged, truncated or parameter-mismatched store degrades to a
    counted rebuild (``store.rebuilds``) from the corpus itself,
    mirroring the poisoned-cache recovery path.
    """
    from repro.errors import StoreError
    from repro.obs.context import get_registry, get_tracer
    from repro.store import PairStore

    try:
        corpus.attach_store(PairStore.open(directory), names=names)
    except StoreError as error:
        get_registry().counter("store.rebuilds").add(1)
        print(f"# rebuilding pair store at {directory}: {error}",
              file=sys.stderr)
        with get_tracer().span(
            "store.rebuild",
            metric="store.rebuild.seconds",
            directory=directory,
        ):
            corpus.pack_store(directory, names=names)
    return corpus.store


def _store_position(store, token: str) -> int:
    """Resolve a CLI token to a stored tree position (index or name)."""
    from repro.errors import StoreError

    names = store.names
    try:
        index = int(token, 10)
    except ValueError:
        index = None
    if index is not None:
        if 0 <= index < len(names):
            return index
        raise StoreError(
            f"tree index {index} out of range "
            f"(store holds {len(names)} trees)"
        )
    if token in names:
        return names.index(token)
    raise StoreError(
        f"no tree named {token!r} in the pair store at {store.directory}"
    )


def _cmd_mine(args: argparse.Namespace) -> int:
    trees = load_trees(args.file)
    if args.free:
        from repro.core.freetree import FreeTree, mine_free_tree

        per_tree = [
            mine_free_tree(
                FreeTree.from_rooted(tree, suppress_root=True),
                maxdist=args.maxdist,
                minoccur=args.minoccur,
            )
            for tree in trees
        ]
    else:
        per_tree = [
            mine_tree(
                tree,
                maxdist=args.maxdist,
                minoccur=args.minoccur,
                max_generation_gap=args.gap,
                max_height=args.max_height,
            )
            for tree in trees
        ]
    if args.format == "json":
        from repro.io import items_to_json

        merged = [item for items in per_tree for item in items]
        print(items_to_json(merged))
        return 0
    if args.format == "csv":
        from repro.io import items_to_csv

        merged = [item for items in per_tree for item in items]
        print(items_to_csv(merged), end="")
        return 0
    for index, (tree, items) in enumerate(zip(trees, per_tree)):
        name = tree.name or f"tree {index}"
        print(f"# {name}: {len(items)} cousin pair item(s)")
        for item in items:
            print(f"  {item.describe()}")
    return 0


def _cmd_frequent(args: argparse.Namespace) -> int:
    trees = load_trees(args.file)
    with _engine_session(args) as engine:
        patterns = mine_forest(
            trees,
            maxdist=args.maxdist,
            minoccur=args.minoccur,
            minsup=args.minsup,
            ignore_distance=args.ignore_distance,
            max_generation_gap=args.gap,
            max_height=args.max_height,
            engine=engine,
        )
        _report_engine_stats(engine, args)
    if args.format == "json":
        from repro.io import patterns_to_json

        print(patterns_to_json(patterns))
        return 0
    print(f"# {len(patterns)} frequent pair(s) in {len(trees)} tree(s)")
    for pattern in patterns:
        print(f"  {pattern.describe()}")
    return 0


def _cmd_support(args: argparse.Namespace) -> int:
    trees = load_trees(args.file)
    value = support(
        trees,
        args.pair[0],
        args.pair[1],
        distance=args.distance,
        maxdist=args.maxdist,
        minoccur=args.minoccur,
        max_generation_gap=args.gap,
    )
    where = f"distance {args.distance:g}" if args.distance is not None else "any distance"
    print(f"support of ({args.pair[0]}, {args.pair[1]}) at {where}: {value}")
    return 0


def _cmd_consensus(args: argparse.Namespace) -> int:
    trees = load_trees(args.file)
    result = consensus(trees, method=args.method)
    print(write_newick(result, include_lengths=False))
    if args.score:
        score = average_similarity(result, trees)
        print(f"# average similarity score: {score:.3f}", file=sys.stderr)
    return 0


def _cmd_distance(args: argparse.Namespace) -> int:
    if args.store is not None:
        with _engine_session(args) as engine:
            store = engine.open_store(args.store)
            first = _store_position(store, args.first)
            second = _store_position(store, args.second)
            value = engine.store_vectors().distance(
                first, second, args.mode
            )
            _report_engine_stats(engine, args)
        print(f"{value:.6f}")
        return 0
    first = load_trees(args.first)
    second = load_trees(args.second)
    if len(first) != 1 or len(second) != 1:
        print("distance expects exactly one tree per file", file=sys.stderr)
        return 2
    with _engine_session(args) as engine:
        value = tree_distance(
            first[0],
            second[0],
            mode=args.mode,
            maxdist=args.maxdist,
            minoccur=args.minoccur,
            max_generation_gap=args.gap,
            engine=engine,
        )
        _report_engine_stats(engine, args)
    print(f"{value:.6f}")
    return 0


def _cmd_kernel(args: argparse.Namespace) -> int:
    if len(args.files) < 2:
        print("kernel needs at least two group files", file=sys.stderr)
        return 2
    groups = [load_trees(path) for path in args.files]
    with _engine_session(args) as engine:
        result = find_kernel_trees(
            groups,
            mode=args.mode,
            maxdist=args.maxdist,
            minoccur=args.minoccur,
            max_generation_gap=args.gap,
            engine=engine,
        )
        _report_engine_stats(engine, args)
    print(f"# average pairwise distance: {result.average_distance:.6f}")
    for path, index, tree in zip(args.files, result.indexes, result.trees):
        name = tree.name or f"tree {index}"
        print(f"{path}: {name} (#{index})")
    return 0


def _cmd_treerank(args: argparse.Namespace) -> int:
    queries = load_trees(args.query)
    if len(queries) != 1:
        print("treerank expects exactly one query tree", file=sys.stderr)
        return 2
    database = load_trees(args.database)
    ranking = rank_trees(queries[0], database)
    for position, score in ranking[: args.top]:
        name = database[position].name or f"tree {position}"
        print(f"{score:7.2f}  {name} (#{position})")
    return 0


def _cmd_similar(args: argparse.Namespace) -> int:
    queries = load_trees(args.query)
    if len(queries) != 1:
        print("similar expects exactly one query tree", file=sys.stderr)
        return 2
    if args.store is not None:
        with _engine_session(args) as engine:
            store = engine.open_store(args.store)
            result = engine.store_topk(queries[0], args.k, mode=args.mode)
            names = store.names
            _report_engine_stats(engine, args)
        print(f"# {result.describe()}")
        for index, distance in result.neighbors:
            print(f"{distance:.6f}  {names[index]} (#{index})")
        return 0
    if args.database is None:
        print("similar needs a database file or --store DIR",
              file=sys.stderr)
        return 2
    database = load_trees(args.database)
    with _engine_session(args) as engine:
        vectors = engine.distance_vectors(
            database,
            maxdist=args.maxdist,
            minoccur=args.minoccur,
            max_generation_gap=args.gap,
            max_height=args.max_height,
        )
        result = engine.topk_similar(
            vectors,
            queries[0],
            args.k,
            mode=args.mode,
            maxdist=args.maxdist,
            minoccur=args.minoccur,
            max_generation_gap=args.gap,
            max_height=args.max_height,
        )
        _report_engine_stats(engine, args)
    print(f"# {result.describe()}")
    for index, distance in result.neighbors:
        name = database[index].name or f"tree {index}"
        print(f"{distance:.6f}  {name} (#{index})")
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.apps.clustering import cluster_trees

    trees = load_trees(args.file)
    with _engine_session(args) as engine:
        result = cluster_trees(
            trees, args.k, mode=args.mode, linkage=args.linkage, engine=engine
        )
        _report_engine_stats(engine, args)
    for index, (cluster, medoid) in enumerate(
        zip(result.clusters, result.medoids)
    ):
        names = ", ".join(
            trees[member].name or f"tree {member}" for member in cluster
        )
        medoid_name = trees[medoid].name or f"tree {medoid}"
        print(f"cluster {index}: {names}")
        print(f"  medoid: {medoid_name} (#{medoid})")
    return 0


def _cmd_supertree(args: argparse.Namespace) -> int:
    from repro.apps.supertree import build_supertree

    trees = [tree for path in args.files for tree in load_trees(path)]
    result = build_supertree(trees)
    print(write_newick(result.tree, include_lengths=False))
    if result.conflict_count:
        print(
            f"# {result.conflict_count} conflicting triple(s) dropped",
            file=sys.stderr,
        )
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.apps.diff import diff_forests

    with _engine_session(args) as engine:
        delta = diff_forests(
            load_trees(args.old),
            load_trees(args.new),
            maxdist=args.maxdist,
            minoccur=args.minoccur,
            minsup=args.minsup,
            max_generation_gap=args.gap,
            mode=args.mode,
            engine=engine,
        )
        _report_engine_stats(engine, args)
    print(delta.describe())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.apps.cooccurrence import find_cooccurring_patterns
    from repro.trees.drawing import render_pattern_report

    trees = load_trees(args.file)
    with _engine_session(args) as engine:
        report = find_cooccurring_patterns(
            trees,
            maxdist=args.maxdist,
            minoccur=args.minoccur,
            minsup=args.minsup,
            max_generation_gap=args.gap,
            engine=engine,
        )
        _report_engine_stats(engine, args)
    print(render_pattern_report(report, max_patterns=args.patterns))
    return 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    from repro.apps.corpus import CorpusStore
    from repro.core.params import MiningParams

    with _engine_session(args) as engine:
        if args.action == "init":
            trees = load_trees(args.trees) if args.trees is not None else []
            params = MiningParams(
                maxdist=args.maxdist,
                minoccur=args.minoccur,
                minsup=1,
                max_generation_gap=args.gap,
                max_height=args.max_height,
            )
            store = CorpusStore.create(args.dir, trees, params, engine=engine)
            print(
                f"initialised corpus at {args.dir}: "
                f"{len(store.corpus)} tree(s), v{store.corpus.version}"
            )
            if args.store is not None:
                pair_store = store.corpus.pack_store(
                    args.store, names=store.names
                )
                print(
                    f"packed pair store at {args.store}: "
                    f"{len(pair_store.names)} tree(s), "
                    f"{len(pair_store.labels)} label(s)"
                )
        elif args.action == "pack":
            store = CorpusStore.open(args.dir, engine=engine)
            target = (
                args.store
                if args.store is not None
                else os.path.join(args.dir, "pairstore")
            )
            pair_store = store.corpus.pack_store(target, names=store.names)
            print(
                f"packed pair store at {target}: "
                f"{len(pair_store.names)} tree(s), "
                f"{len(pair_store.labels)} label(s), "
                f"v{pair_store.version}"
            )
        elif args.action == "add":
            store = CorpusStore.open(args.dir, engine=engine)
            if args.store is not None:
                _attach_pair_store(
                    store.corpus, args.store, names=store.names
                )
            trees = load_trees(args.file)
            positions = store.add_trees(trees)
            store.save()
            print(store.corpus.log()[-1].describe())
            for position in positions:
                print(f"  added {store.names[position]} at #{position}")
        elif args.action == "remove":
            store = CorpusStore.open(args.dir, engine=engine)
            if args.store is not None:
                _attach_pair_store(
                    store.corpus, args.store, names=store.names
                )
            # Out-of-range indexes are rejected by the corpus itself
            # (before any mutation); only name the valid ones here.
            gone = [
                store.names[index]
                for index in sorted(set(args.indexes))
                if 0 <= index < len(store.names)
            ]
            store.remove_trees(args.indexes)
            store.save()
            print(store.corpus.log()[-1].describe())
            for name in gone:
                print(f"  removed {name}")
        elif args.action == "log":
            store = CorpusStore.open(args.dir, engine=engine)
            if args.store is not None:
                _attach_pair_store(
                    store.corpus, args.store, names=store.names
                )
            for delta in store.corpus.log():
                print(delta.describe())
        else:  # diff
            store = CorpusStore.open(args.dir, engine=engine)
            if args.store is not None:
                _attach_pair_store(
                    store.corpus, args.store, names=store.names
                )
            diff = store.corpus.diff(args.old, args.new)
            print(diff.describe())
            for ref in diff.added:
                print(f"  + {ref.describe()}")
            for ref in diff.removed:
                print(f"  - {ref.describe()}")
        _report_engine_stats(engine, args)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs.profile import profile_trace, render_profile, write_folded

    profile = profile_trace(args.trace_file)
    for line in render_profile(profile, top=args.top):
        print(line)
    if args.folded is not None:
        count = write_folded(args.folded, profile)
        print(f"# wrote {count} folded stack(s) to {args.folded}")
    return 0


def _headline_metric(record) -> tuple[str, float] | None:
    """The largest phase timing of one history record (the bench's
    dominant cost, hence the trajectory table's headline)."""
    phases = {
        name: value
        for name, value in record.get("metrics", {}).items()
        if name.startswith("phase.")
    }
    if not phases:
        return None
    name = max(phases, key=lambda key: (phases[key], key))
    return name, phases[name]


def _cmd_perf(args: argparse.Namespace) -> int:
    from repro.obs.history import RunHistory

    history = RunHistory.open(args.history)
    if args.action == "ingest":
        added = 0
        for path in args.manifests:
            if history.ingest_file(path):
                added += 1
                print(f"ingested {path}")
            else:
                print(f"already present: {path}")
        print(
            f"# {added} new record(s), {history.count} total "
            f"in {args.history}"
        )
        return 0

    if args.action == "log":
        benches = [args.bench] if args.bench else history.benches()
        if args.metric is not None:
            for bench in benches:
                for revision, value in history.series(bench, args.metric):
                    short = (revision or "unknown")[:12]
                    print(f"{bench}  {short}  {args.metric}  {value:g}")
            return 0
        rows = []
        for bench in benches:
            runs = history.runs(bench)
            if not runs:
                continue
            latest = runs[-1]
            headline = _headline_metric(latest)
            metric, value = headline if headline else ("-", float("nan"))
            short = (latest.get("git_revision") or "unknown")[:12]
            rows.append((bench, len(runs), metric, value, short))
        if args.markdown:
            print("| bench | runs | headline metric | latest | revision |")
            print("|---|---|---|---|---|")
            for bench, count, metric, value, short in rows:
                shown = f"{value:.3f}s" if value == value else "-"
                print(
                    f"| {bench} | {count} | `{metric}` | {shown} "
                    f"| `{short}` |"
                )
        else:
            for bench, count, metric, value, short in rows:
                shown = f"{value:.3f}s" if value == value else "-"
                print(f"{bench}: {count} run(s), {metric} = {shown} ({short})")
        return 0

    # check
    import json as _json

    from repro.obs.regress import RegressPolicy, check_manifest, render_report

    policy = RegressPolicy(
        window=args.window,
        min_samples=args.min_samples,
        threshold=args.threshold,
        floor_seconds=args.floor_seconds,
    )
    reports = []
    for path in args.manifests:
        try:
            with open(path, encoding="utf-8") as handle:
                manifest = _json.load(handle)
        except (OSError, ValueError) as error:
            print(f"error: cannot read manifest {path}: {error}",
                  file=sys.stderr)
            return 2
        report = check_manifest(
            history,
            manifest,
            policy=policy,
            source=os.path.basename(path),
        )
        reports.append(report)
        for line in render_report(report):
            print(line)
    if args.report is not None:
        with open(args.report, "w", encoding="utf-8") as handle:
            for report in reports:
                handle.write(
                    _json.dumps(report, sort_keys=True,
                                separators=(",", ":"))
                )
                handle.write("\n")
    return 1 if any(r["status"] == "regressed" for r in reports) else 0


_COMMANDS = {
    "mine": _cmd_mine,
    "frequent": _cmd_frequent,
    "support": _cmd_support,
    "consensus": _cmd_consensus,
    "distance": _cmd_distance,
    "kernel": _cmd_kernel,
    "treerank": _cmd_treerank,
    "similar": _cmd_similar,
    "cluster": _cmd_cluster,
    "supertree": _cmd_supertree,
    "report": _cmd_report,
    "diff": _cmd_diff,
    "corpus": _cmd_corpus,
    "profile": _cmd_profile,
    "perf": _cmd_perf,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except NewickEmptyStatementError as error:
        # The file does not hold the trees it appears to: a usage-class
        # failure, like a tree-count mismatch.
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
