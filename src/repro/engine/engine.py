"""The cached mining engine.

``Multiple_Tree_Mining`` and every Section 5 application reduce to the
same hot inner step: one kernel pass over one tree
(:func:`repro.core.fastmine.mine_arena`).  The §5.3 distance
applications recompute identical pair sets for every pairwise
comparison, which makes that step memoisable.

:class:`MiningEngine` packages the memo behind one object:

- each input tree is flattened once into a
  :class:`repro.trees.arena.TreeArena`; the flat form addresses the
  cache (:func:`repro.engine.cache.arena_cache_key`) and feeds the
  interned kernel directly;
- per-tree :class:`repro.core.fastmine.PackedCounts` are looked up in
  a content-addressed :class:`repro.engine.cache.PairSetCache`
  (in-process LRU plus an optional persistent directory) and
  materialised into string-keyed counters / item lists only at the
  public boundary;
- cache misses are mined serially, in-process;
- duplicate trees inside one batch are mined once and re-served;
- whole-forest results (frequent-pair records, distance vectors and
  matrices) are memoised by a digest of the per-tree content
  addresses, so a warm pass over one forest skips Algorithm 2 too;
- every batch updates an :class:`repro.engine.stats.EngineStats`.

The engine has no process pool.  The paper's ``O(k * n^2)`` bound is
a sum of independent per-tree terms, but on a 2-CPU host a pool made
``frequent`` and ``similar --store`` slower than the serial path with
identical output (``docs/perf.md``, "Serial engine").

Results are *bit-identical* to the serial reference paths regardless
of cache temperature: the mined counts are deterministic and misses
are reassembled by content address.  ``tests/engine`` and
``tests/property/test_prop_engine.py`` enforce this equivalence.
"""

from __future__ import annotations

import hashlib
from collections import Counter, OrderedDict
from typing import TYPE_CHECKING, Sequence

from repro.core.cousins import CousinPairItem
from repro.core.distance import DistanceMode
from repro.core.distvec import DistanceVectors, assemble_matrix
from repro.core.fastmine import PackedCounts, mine_arena
from repro.core.pairset import CousinPairSet
from repro.core.params import MiningParams, validate_mode
from repro.core.topk import TopKResult, query_vector, topk_search
from repro.engine.cache import PairSetCache, arena_cache_key
from repro.engine.stats import EngineStats
from repro.errors import EngineError
from repro.obs.context import scope as obs_scope
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.trees.arena import TreeArena
from repro.trees.tree import Tree

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.multi_tree import FrequentCousinPair
    from repro.store import PairStore

__all__ = ["MiningEngine"]

_PENDING = object()


class MiningEngine:
    """Runs per-tree mining across forests, cached.

    Parameters
    ----------
    cache:
        An explicit :class:`PairSetCache` to share between engines;
        mutually exclusive with ``cache_size``/``cache_dir``.
    cache_size:
        Capacity of the in-process LRU layer (``0`` disables it,
        ``None`` unbounded).
    cache_dir:
        Optional directory for the persistent cache layer.
    registry:
        The :class:`repro.obs.metrics.MetricsRegistry` backing
        ``engine.stats`` and every kernel metric counted during this
        engine's batches.  A private registry when omitted; pass one to
        share it with a CLI session or a manifest writer.
    tracer:
        The :class:`repro.obs.trace.Tracer` used for the engine's
        spans (``engine.batch`` / ``engine.lookup`` / ``engine.mine`` /
        ``engine.distance.*``).  A *disabled* tracer over ``registry``
        when omitted — spans then cost nothing beyond the timing
        histograms the stats surface needs.
    """

    def __init__(
        self,
        cache: PairSetCache | None = None,
        cache_size: int | None = 4096,
        cache_dir: str | None = None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if cache is not None and (cache_size != 4096 or cache_dir is not None):
            raise EngineError(
                "pass either an explicit cache or cache_size/cache_dir, not both"
            )
        self.cache = (
            cache
            if cache is not None
            else PairSetCache(max_entries=cache_size, cache_dir=cache_dir)
        )
        if registry is None:
            registry = tracer.registry if tracer is not None else MetricsRegistry()
        self.registry = registry
        self.tracer = (
            tracer if tracer is not None else Tracer(registry, enabled=False)
        )
        self.stats = EngineStats(registry)
        # Derived-projection memo: profiling shows building and sorting
        # the CousinPairItem lists costs ~2x the counter mining itself,
        # so warm passes also skip the projection.  Keyed by
        # (kind, counter address, minoccur) — fully determined by the
        # content-addressed counter plus the post-filter.
        self._projections: OrderedDict[tuple, object] = OrderedDict()
        self._projection_cap = self.cache.max_entries
        # A stats reset starts a fresh measurement window: drop the
        # distance vector/matrix memos with it so the zeroed counters
        # can never record tile hits against pre-reset state.
        self.stats.on_reset(self.invalidate_distance_memos)
        # The attached on-disk pair store, when mine/distance/top-k
        # queries should be served from memmapped shards instead of
        # re-mining (see attach_store / open_store).
        self._store: "PairStore | None" = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MiningEngine(cache={self.cache!r})"

    # ------------------------------------------------------------------
    # Core batch pass
    # ------------------------------------------------------------------
    def counters(
        self,
        trees: Sequence[Tree],
        params: MiningParams | None = None,
        *,
        maxdist: float = 1.5,
        max_generation_gap: int = 1,
        max_height: int | None = None,
    ) -> list[Counter]:
        """Raw per-tree counters, aligned with the input order.

        Equivalent to ``[mine_tree_counter(t, ...) for t in trees]``;
        misses come from the cache layers or (de-duplicated) mining.
        Each returned counter is materialised fresh from the interned
        cached form — mutating it never corrupts the cache.
        """
        params = self._resolve(params, maxdist, 1, max_generation_gap, max_height)
        keys, resolved = self._resolved_packed(trees, params)
        return [resolved[key].to_counter() for key in keys]

    def packed_counts(
        self,
        trees: Sequence[Tree],
        params: MiningParams | None = None,
        *,
        maxdist: float = 1.5,
        max_generation_gap: int = 1,
        max_height: int | None = None,
    ) -> tuple[list[str], list[PackedCounts]]:
        """Per-tree content addresses plus interned packed counts.

        The delta-mining layer (:class:`repro.engine.delta
        .VersionedCorpus`) uses this to maintain one contribution per
        tree: the content address keys its bookkeeping and the
        :class:`PackedCounts` carry every occurrence at
        ``minoccur=1`` so any filter can be re-derived later.  The
        returned objects are the engine's cached instances — callers
        must treat them as read-only.
        """
        params = self._resolve(params, maxdist, 1, max_generation_gap, max_height)
        keys, resolved = self._resolved_packed(trees, params)
        return keys, [resolved[key] for key in keys]

    def invalidate_distance_memos(self) -> None:
        """Drop memoised distance vectors and matrices.

        Per-tree packed counts stay cached — they are content-addressed
        and remain valid for any corpus — but whole-forest projections
        (``distvec`` / ``distmat`` entries) are
        fingerprinted over a *specific* tree sequence and must go when
        that sequence mutates
        (a :class:`repro.engine.delta.VersionedCorpus` update) or when
        a stats reset opens a fresh measurement window.
        """
        stale = [
            key
            for key in self._projections
            if key[0] in ("distvec", "distmat")
        ]
        for key in stale:
            del self._projections[key]

    def _resolved_packed(
        self, trees: Sequence[Tree], params: MiningParams
    ) -> tuple[list[str], dict[str, PackedCounts]]:
        """Content addresses per tree plus the address -> counts map.

        Each tree is flattened once; the arena both addresses the
        cache and feeds the kernel on a miss.
        The returned :class:`PackedCounts` are the engine's own cached
        objects — internal callers only read them; the public surface
        materialises fresh counters / item lists from them.
        """
        stats = self.stats
        tracer = self.tracer
        with obs_scope(self.registry, tracer), tracer.span(
            "engine.batch", metric="engine.batch.seconds", trees=len(trees)
        ):
            stats.batches += 1
            stats.trees_seen += len(trees)

            resolved: dict[str, object] = {}
            to_mine: list[tuple[str, TreeArena]] = []
            with tracer.span("engine.lookup"):
                arenas = [TreeArena.from_tree(tree) for tree in trees]
                keys = [arena_cache_key(arena, params) for arena in arenas]
                for arena, key in zip(arenas, keys):
                    if key in resolved:
                        # Same content seen earlier in this batch (cached
                        # or queued for mining): served from process
                        # memory.
                        stats.memory_hits += 1
                        continue
                    found = self.cache.lookup(key)
                    if found is not None and not self._admissible(
                        found[1], arena
                    ):
                        # A payload that is not interned packed counts, or
                        # whose label table disagrees with the arena it is
                        # being served for (poisoned disk entry, stale
                        # scheme, hash collision): reject it and re-mine
                        # rather than decode garbage.
                        stats.rejected += 1
                        found = None
                    if found is None:
                        stats.misses += 1
                        resolved[key] = _PENDING
                        to_mine.append((key, arena))
                    else:
                        layer, packed = found
                        if layer == "memory":
                            stats.memory_hits += 1
                        else:
                            stats.disk_hits += 1
                        resolved[key] = packed

            if to_mine:
                with tracer.span(
                    "engine.mine",
                    metric="engine.mine.seconds",
                    misses=len(to_mine),
                ):
                    for key, arena in to_mine:
                        packed = mine_arena(arena, params)
                        resolved[key] = packed
                        self.cache.put(key, packed)

            return keys, resolved

    # ------------------------------------------------------------------
    # Projections (mirror the serial reference APIs exactly)
    # ------------------------------------------------------------------
    def items(
        self,
        trees: Sequence[Tree],
        params: MiningParams | None = None,
        *,
        maxdist: float = 1.5,
        minoccur: int = 1,
        max_generation_gap: int = 1,
        max_height: int | None = None,
    ) -> list[list[CousinPairItem]]:
        """Per-tree qualifying items — ``mine_tree`` for each tree."""
        params = self._resolve(
            params, maxdist, minoccur, max_generation_gap, max_height
        )
        keys, resolved = self._resolved_packed(trees, params)
        per_tree: list[list[CousinPairItem]] = []
        for key in keys:
            items = self._projection(
                ("items", key, params.minoccur), resolved[key], params,
                self._build_items,
            )
            # Shallow copy: the items are frozen, the list is the
            # caller's to reorder.
            per_tree.append(list(items))
        return per_tree

    @staticmethod
    def _build_items(
        packed: PackedCounts, params: MiningParams
    ) -> list[CousinPairItem]:
        return packed.items(params.minoccur)

    def pair_sets(
        self,
        trees: Sequence[Tree],
        params: MiningParams | None = None,
        *,
        maxdist: float = 1.5,
        minoccur: int = 1,
        max_generation_gap: int = 1,
        max_height: int | None = None,
    ) -> list[CousinPairSet]:
        """Per-tree pair sets — ``CousinPairSet.from_tree`` for each."""
        params = self._resolve(
            params, maxdist, minoccur, max_generation_gap, max_height
        )
        keys, resolved = self._resolved_packed(trees, params)
        return [
            self._projection(
                ("pairset", key, params.minoccur), resolved[key], params,
                self._build_pair_set,
            )
            for key in keys
        ]

    @staticmethod
    def _build_pair_set(
        packed: PackedCounts, params: MiningParams
    ) -> CousinPairSet:
        return CousinPairSet(packed.filtered_counter(params.minoccur))

    def frequent_pairs(
        self,
        trees: Sequence[Tree],
        params: MiningParams,
        ignore_distance: bool = False,
    ) -> "list[FrequentCousinPair]":
        """Algorithm 2's frequent pairs over ``trees``, memoised per forest.

        Identical to :func:`repro.core.multi_tree.frequent_from_packed`
        over the trees' packed counts, filtered by ``params.minoccur``
        and ``params.minsup``.  The records are memoised by the
        :meth:`distance_vectors` fingerprint of the per-tree content
        addresses plus the filters, so a warm pass over the same forest
        skips the aggregation as well as the mining: on a 600-tree
        forest the aggregation costs more than the mining it follows.
        The records are frozen; the returned list is the caller's.
        """
        from repro.core.multi_tree import frequent_from_packed

        keys, resolved = self._resolved_packed(trees, params)
        fingerprint = _forest_fingerprint(keys, params)
        # The fingerprint is a content address of the whole forest and the
        # records are frozen and copied out, so no corpus mutation can
        # make an entry stale.
        # repro-lint: disable-next-line=RPL103,RPL104 -- the digest folds the trees' content addresses and minoccur into the fingerprint
        patterns = self._projection(
            ("frequent", fingerprint, params.minsup, ignore_distance),
            [resolved[key] for key in keys],
            params,
            lambda packed, _params: frequent_from_packed(
                packed,
                minoccur=params.minoccur,
                minsup=params.minsup,
                ignore_distance=ignore_distance,
            ),
        )
        return list(patterns)

    # ------------------------------------------------------------------
    # Distance kernel (Section 5.3 matrix builds)
    # ------------------------------------------------------------------
    def distance_vectors(
        self,
        trees: Sequence[Tree],
        params: MiningParams | None = None,
        *,
        maxdist: float = 1.5,
        minoccur: int = 1,
        max_generation_gap: int = 1,
        max_height: int | None = None,
    ) -> DistanceVectors:
        """Packed distance vectors for ``trees``, cached end to end.

        Identical to :meth:`repro.core.distvec.DistanceVectors
        .from_trees` without an engine: per-tree mining goes through
        the content-addressed cache, and the assembled vectors are
        memoised by a fingerprint of the per-tree content addresses
        (plus ``minoccur``), so a repeat forest skips the re-interning
        pass too.  The fingerprint is left on the returned object
        (``vectors.fingerprint``) and keys matrix memoisation in
        :meth:`distance_matrix`.
        """
        params = self._resolve(
            params, maxdist, minoccur, max_generation_gap, max_height
        )
        with obs_scope(self.registry, self.tracer), self.tracer.span(
            "engine.distance.vectors", trees=len(trees)
        ):
            self.stats.distance_builds += 1
            keys, resolved = self._resolved_packed(trees, params)
            fingerprint = _forest_fingerprint(keys, params)
            # repro-lint: disable-next-line=RPL103 -- the digest folds minoccur into the fingerprint
            vectors = self._projection(
                ("distvec", fingerprint),
                [resolved[key] for key in keys],
                params,
                self._build_vectors,
            )
            vectors.fingerprint = fingerprint
            return vectors

    @staticmethod
    def _build_vectors(
        packed: Sequence[PackedCounts], params: MiningParams
    ) -> DistanceVectors:
        return DistanceVectors.from_packed(packed, minoccur=params.minoccur)

    def distance_matrix(
        self,
        vectors: DistanceVectors,
        mode: DistanceMode | str = DistanceMode.DIST_OCCUR,
    ) -> list[list[float]]:
        """Full symmetric distance matrix over prebuilt vectors.

        Identical to ``vectors.matrix(mode)``: one triangle tile over
        every row.  Whole matrices are memoised by the vectors' engine
        fingerprint, and every call updates the ``distance_*`` counters
        of :class:`repro.engine.stats.EngineStats`.
        """
        mode = validate_mode(mode)
        with obs_scope(self.registry, self.tracer), self.tracer.span(
            "engine.distance.matrix",
            metric="engine.distance.seconds",
            trees=len(vectors),
            mode=mode.value,
        ):
            self.stats.distance_builds += 1
            memo_key = (
                ("distmat", vectors.fingerprint, mode.value)
                if vectors.fingerprint is not None and self._projection_cap != 0
                else None
            )
            if memo_key is not None:
                cached = self._projections.get(memo_key)
                if isinstance(cached, list):
                    self._projections.move_to_end(memo_key)
                    self.stats.distance_tile_hits += 1
                    return [row[:] for row in cached]
            size = len(vectors)
            self.stats.distance_tiles += 1
            rows, computed, pruned = vectors.triangle(0, size, mode)
            self.stats.distance_pairs_computed += computed
            self.stats.distance_pairs_pruned += pruned
            matrix = assemble_matrix(size, [(0, rows)])
            if memo_key is not None:
                self._projections[memo_key] = matrix
                if self._projection_cap is not None:
                    while len(self._projections) > self._projection_cap:
                        self._projections.popitem(last=False)
            return [row[:] for row in matrix]

    def topk_similar(
        self,
        vectors: DistanceVectors,
        query: Tree,
        k: int,
        mode: DistanceMode | str = DistanceMode.DIST_OCCUR,
        params: MiningParams | None = None,
        *,
        maxdist: float = 1.5,
        minoccur: int = 1,
        max_generation_gap: int = 1,
        max_height: int | None = None,
    ) -> TopKResult:
        """The k corpus trees nearest ``query``, exactly.

        Identical output to :func:`repro.core.topk.topk_similar`
        without an engine; the query tree is mined through the
        content-addressed cache.  ``params`` (or the raw knobs) must
        match the values the corpus vectors were built with, or the
        distances stop matching the all-pairs reference.
        """
        mode = validate_mode(mode)
        params = self._resolve(
            params, maxdist, minoccur, max_generation_gap, max_height
        )
        with obs_scope(self.registry, self.tracer), self.tracer.span(
            "engine.topk",
            metric="engine.topk.seconds",
            trees=len(vectors),
            mode=mode.value,
        ):
            keys, resolved = self._resolved_packed([query], params)
            projected = query_vector(
                vectors, resolved[keys[0]], params.minoccur
            )
            return topk_search(vectors, projected, k, mode)

    # ------------------------------------------------------------------
    # On-disk pair store (repro.store)
    # ------------------------------------------------------------------
    @property
    def store(self) -> "PairStore | None":
        """The attached on-disk pair store, if any."""
        return self._store

    def attach_store(self, store: "PairStore") -> "PairStore":
        """Serve subsequent store queries from ``store``.

        Whole-forest memos are dropped: they may describe a different
        tree sequence than the store's, and the store's own
        fingerprints re-key them on first use.
        """
        from repro.store import PairStore

        if not isinstance(store, PairStore):
            raise EngineError(
                f"attach_store takes a PairStore, got {type(store).__name__}"
            )
        self._store = store
        self.invalidate_distance_memos()
        return store

    def open_store(self, directory: str) -> "PairStore":
        """Open the pair store in ``directory`` and attach it.

        Only the manifest is read and the shard sizes checked
        (:meth:`repro.store.PairStore.open`), so a warm reopen is
        cheap; a corrupt or stale store raises
        :class:`~repro.errors.StoreError` after counting
        ``store.read_errors``.
        """
        from repro.store import PairStore

        with obs_scope(self.registry, self.tracer):
            return self.attach_store(PairStore.open(directory))

    def _attached_store(self) -> "PairStore":
        if self._store is None:
            raise EngineError(
                "no pair store attached (call attach_store or open_store)"
            )
        return self._store

    def store_vectors(self, minoccur: int | None = None) -> DistanceVectors:
        """Distance vectors over the attached store's memmapped rows.

        Memoised beside engine-built vectors under the store's
        vectors fingerprint — the same digest
        :meth:`distance_vectors` would stamp on an in-RAM build of
        the identical tree sequence — so matrices memoised against
        either source interchange.
        """
        store = self._attached_store()
        with obs_scope(self.registry, self.tracer):
            resolved = (
                store.params.minoccur if minoccur is None else minoccur
            )
            fingerprint = store.vectors_fingerprint(resolved)
            # repro-lint: disable-next-line=RPL103 -- the store digest folds minoccur into the fingerprint
            vectors = self._projection(
                ("distvec", fingerprint),
                resolved,
                store.params,
                lambda threshold, _params: store.as_vectors(
                    minoccur=threshold
                ),
            )
            vectors.fingerprint = fingerprint
            return vectors

    def store_frequent_pairs(
        self, minsup: int = 2, ignore_distance: bool = False
    ) -> "list[FrequentCousinPair]":
        """Frequent pairs served from the attached store's shards.

        Byte-identical to :func:`repro.core.multi_tree.mine_forest`
        over the store's tree sequence with its parameters — no tree
        is re-mined; see :meth:`repro.store.PairStore
        .frequent_pairs`.
        """
        store = self._attached_store()
        with obs_scope(self.registry, self.tracer):
            return store.frequent_pairs(
                minsup=minsup, ignore_distance=ignore_distance
            )

    def store_topk(
        self,
        query: Tree,
        k: int,
        mode: DistanceMode | str = DistanceMode.DIST_OCCUR,
    ) -> TopKResult:
        """The k stored trees nearest ``query``, off the memmapped rows.

        Routes :meth:`topk_similar` over :meth:`store_vectors` with
        the store's own mining parameters, so the query tree is mined
        under the exact knobs the corpus was packed with.
        """
        store = self._attached_store()
        return self.topk_similar(
            self.store_vectors(), query, k, mode, store.params
        )

    def _projection(self, memo_key: tuple, packed, params: MiningParams, build):
        """Serve a derived view of cached packed counts, memoised by address.

        ``CousinPairSet`` instances are shared (their counters are never
        mutated through the public API); item lists are shared but
        copied by the caller.  Disabled alongside the memory cache
        (``cache_size=0``).
        """
        if self._projection_cap == 0:
            return build(packed, params)
        cached = self._projections.get(memo_key)
        if cached is None:
            cached = build(packed, params)
            self._projections[memo_key] = cached
            if self._projection_cap is not None:
                while len(self._projections) > self._projection_cap:
                    self._projections.popitem(last=False)
        else:
            self._projections.move_to_end(memo_key)
        return cached

    def mine_forest(self, trees: Sequence[Tree], **kwargs):
        """Frequent pairs across a forest via this engine.

        Same signature and output as
        :func:`repro.core.multi_tree.mine_forest` (which this simply
        routes through with ``engine=self``).
        """
        from repro.core.multi_tree import mine_forest

        return mine_forest(trees, engine=self, **kwargs)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _admissible(payload: object, arena: TreeArena) -> bool:
        """Whether a cached payload may be served for ``arena``.

        The content address already binds the payload to the tree's
        canonical form, but the payload itself must be interned packed
        counts whose label universe matches the arena's — isomorphic
        trees share a label set, so any disagreement means the entry is
        corrupt or from a foreign scheme.
        """
        return (
            isinstance(payload, PackedCounts)
            and payload.labels == arena.table.labels
        )

    @staticmethod
    def _resolve(
        params: MiningParams | None,
        maxdist: float,
        minoccur: int,
        max_generation_gap: int,
        max_height: int | None,
    ) -> MiningParams:
        if params is not None:
            return params
        return MiningParams(
            maxdist=maxdist,
            minoccur=minoccur,
            minsup=1,
            max_generation_gap=max_generation_gap,
            max_height=max_height,
        )


def _forest_fingerprint(keys: Sequence[str], params: MiningParams) -> str:
    """Digest of a forest's per-tree content addresses plus ``minoccur``."""
    digest = hashlib.sha256("|".join(keys).encode("ascii"))
    digest.update(f"|minoccur={params.minoccur}".encode("ascii"))
    return digest.hexdigest()
