"""Incremental corpus delta-mining: versioned forests, patched results.

The paper's phylogeny workloads (Sections 5–6) are naturally
incremental — a database of phylogenies grows sample by sample — yet
``Multiple_Tree_Mining`` as specified is a batch pass: adding one tree
to a 1,500-tree corpus re-mines every pair set, rebuilds the inverted
pair-key → tree index and recounts every support.  The batch pass is,
however, a *sum of independent per-tree contributions* (the
``O(k * n^2)`` bound is ``k`` unrelated ``O(n^2)`` terms, which is
also what makes it parallel), so all of its products can be maintained
under churn by touching only the contributions that changed:

- per-tree :class:`~repro.core.fastmine.PackedCounts` come from the
  engine's content-addressed cache (an unchanged tree is never
  re-mined);
- the occurrence map — pair item → per-tree occurrence counts, kept at
  the ``minoccur=1`` level so *any* threshold can be re-derived — is
  patched by deleting the departing tree's entries and inserting the
  arriving tree's;
- :class:`~repro.core.distvec.DistanceVectors` rows are appended,
  removed or swapped in place (the monotone label remap keeps every
  key array sorted), and materialised distance matrices are patched
  one *row* per affected tree instead of one triangle per mutation.

:class:`VersionedCorpus` packages this behind a mutable forest with
``add_trees`` / ``remove_trees`` / ``replace_trees``.  Every mutation
bumps a monotone ``version``, appends a structural
:class:`CorpusDelta` to the log, and bumps the engine's ``delta_*``
counters; :meth:`VersionedCorpus.diff` composes any log span into one
net :class:`CorpusDiff`.  Query results are *byte-identical* to a
from-scratch re-mine of the current tree sequence —
:meth:`frequent_pairs` against :func:`repro.core.multi_tree
.mine_forest`, :meth:`distance_matrix` against
:meth:`DistanceVectors.matrix` — enforced at every churn step by the
differential harness in ``tests/delta``.

Corpus-level frequent-pair results are memoised through the engine's
:class:`~repro.engine.cache.PairSetCache` under
:func:`~repro.engine.cache.corpus_cache_key` (corpus content
fingerprint + version + query knobs) and carried as
:class:`~repro.engine.cache.CorpusResult` payloads whose embedded
binding is re-checked at serve time, so a stale entry for a mutated
corpus degrades to a recompute, never to wrong results.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.core.distance import DistanceMode
from repro.core.distvec import DistanceVectors
from repro.core.fastmine import PackedCounts
from repro.core.multi_tree import FrequentCousinPair, frequent_from_packed
from repro.core.params import MiningParams, validate_minsup, validate_mode
from repro.core.topk import TopKResult
from repro.engine.cache import CorpusResult, corpus_cache_key
from repro.engine.engine import MiningEngine
from repro.errors import EngineError
from repro.obs.context import scope as obs_scope
from repro.trees.packing import DIST_SHIFT, LABEL_BITS, LABEL_MASK
from repro.trees.tree import Tree

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.store import PairStore

__all__ = [
    "TreeRef",
    "CorpusDelta",
    "CorpusDiff",
    "CorpusSnapshot",
    "VersionedCorpus",
]

# A pair item as the delta layer tracks it: (label_a, label_b,
# distance) with sorted labels and a float distance — the
# ``CousinPairItem.key`` of the item.
PairKey = tuple[str, str, float]


@dataclass(frozen=True)
class TreeRef:
    """A corpus member: stable uid plus its mining content address.

    The ``uid`` is unique across the corpus lifetime (a replaced tree
    gets a fresh uid even at the same position), so log entries stay
    unambiguous under churn; the ``content_key`` is the engine cache
    address (:func:`repro.engine.cache.arena_cache_key`), equal iff
    the trees are isomorphic under the same parameters.
    """

    uid: int
    content_key: str

    def describe(self) -> str:
        return f"#{self.uid}@{self.content_key[:12]}"

    def as_dict(self) -> dict:
        return {"uid": self.uid, "content_key": self.content_key}


@dataclass(frozen=True)
class CorpusDelta:
    """The structural record of one corpus mutation (or the init load).

    ``keys_gained`` / ``keys_lost`` are the pair items whose occurrence
    list went empty → occupied (or back) in this step — existence-level
    changes, independent of any ``minsup``/``minoccur`` threshold —
    and ``supports_changed`` counts the (pair item, tree) occurrence
    entries touched.
    """

    version: int
    op: str
    added: tuple[TreeRef, ...]
    removed: tuple[TreeRef, ...]
    trees_after: int
    keys_gained: tuple[PairKey, ...]
    keys_lost: tuple[PairKey, ...]
    supports_changed: int

    def describe(self) -> str:
        return (
            f"v{self.version} {self.op}: "
            f"+{len(self.added)}/-{len(self.removed)} tree(s), "
            f"{self.trees_after} after; "
            f"{len(self.keys_gained)} pair key(s) gained, "
            f"{len(self.keys_lost)} lost, "
            f"{self.supports_changed} support entr(ies) touched"
        )

    def as_dict(self) -> dict:
        return {
            "version": self.version,
            "op": self.op,
            "added": [ref.as_dict() for ref in self.added],
            "removed": [ref.as_dict() for ref in self.removed],
            "trees_after": self.trees_after,
            "keys_gained": [list(key) for key in self.keys_gained],
            "keys_lost": [list(key) for key in self.keys_lost],
            "supports_changed": self.supports_changed,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "CorpusDelta":
        return cls(
            version=int(payload["version"]),
            op=str(payload["op"]),
            added=tuple(
                TreeRef(int(ref["uid"]), str(ref["content_key"]))
                for ref in payload["added"]
            ),
            removed=tuple(
                TreeRef(int(ref["uid"]), str(ref["content_key"]))
                for ref in payload["removed"]
            ),
            trees_after=int(payload["trees_after"]),
            keys_gained=tuple(
                (str(la), str(lb), float(d))
                for la, lb, d in payload["keys_gained"]
            ),
            keys_lost=tuple(
                (str(la), str(lb), float(d))
                for la, lb, d in payload["keys_lost"]
            ),
            supports_changed=int(payload["supports_changed"]),
        )


@dataclass(frozen=True)
class CorpusDiff:
    """The net structural change between two corpus versions.

    Composed from the log by :meth:`VersionedCorpus.diff`: a tree
    added then removed inside the span cancels out (by uid), as does a
    pair key gained then lost.  ``updates`` counts the mutations
    spanned; ``supports_changed`` sums their touched entries (gross,
    not netted — it measures work done, not state).
    """

    from_version: int
    to_version: int
    added: tuple[TreeRef, ...]
    removed: tuple[TreeRef, ...]
    keys_gained: tuple[PairKey, ...]
    keys_lost: tuple[PairKey, ...]
    supports_changed: int
    updates: int

    def describe(self) -> str:
        return (
            f"v{self.from_version}..v{self.to_version}: "
            f"+{len(self.added)}/-{len(self.removed)} tree(s), "
            f"{len(self.keys_gained)} pair key(s) gained, "
            f"{len(self.keys_lost)} lost across {self.updates} update(s) "
            f"({self.supports_changed} support entr(ies) touched)"
        )


@dataclass(frozen=True)
class CorpusSnapshot:
    """An immutable view of the corpus membership at one version."""

    version: int
    fingerprint: str
    refs: tuple[TreeRef, ...]

    def __len__(self) -> int:
        return len(self.refs)


class VersionedCorpus:
    """A mutable, versioned forest with incrementally maintained mining.

    Wraps a :class:`~repro.engine.engine.MiningEngine` and keeps, per
    member tree: its :class:`~repro.core.fastmine.PackedCounts`
    contribution (engine-cached), its decoded occurrence entries in the
    corpus-wide pair-item → tree map, and — once distance queries have
    materialised them — its :class:`~repro.core.distvec
    .DistanceVectors` row and its row/column in each distance-mode
    matrix.  Mutations patch exactly the affected entries; queries
    re-derive results from the maintained state and are byte-identical
    to a from-scratch re-mine of the current tree sequence.

    Parameters
    ----------
    trees:
        The initial forest (version 0; logged as the ``init`` delta).
    params:
        A full :class:`~repro.core.params.MiningParams`; mutually
        exclusive with the raw knobs.  ``minoccur`` here is the
        corpus's occurrence threshold (``minsup`` is a per-query knob
        of :meth:`frequent_pairs`).
    engine:
        The engine to mine and cache through; a private one when
        omitted.
    """

    def __init__(
        self,
        trees: Sequence[Tree] = (),
        params: MiningParams | None = None,
        *,
        engine: MiningEngine | None = None,
        maxdist: float = 1.5,
        minoccur: int = 1,
        max_generation_gap: int = 1,
        max_height: int | None = None,
    ) -> None:
        if params is None:
            params = MiningParams(
                maxdist=maxdist,
                minoccur=minoccur,
                minsup=1,
                max_generation_gap=max_generation_gap,
                max_height=max_height,
            )
        self.params = params
        self.engine = engine if engine is not None else MiningEngine()
        self.version = 0
        self._uids: list[int] = []
        self._next_uid = 0
        self._trees: dict[int, Tree] = {}
        self._content_keys: dict[int, str] = {}
        self._packed: dict[int, PackedCounts] = {}
        # pair item -> {uid: occurrences}, at minoccur=1 so every
        # threshold filters the same maintained state; _tree_items is
        # the per-tree reverse view that makes retirement O(own keys).
        self._occurrences: dict[PairKey, dict[int, int]] = {}
        self._tree_items: dict[int, dict[PairKey, int]] = {}
        self._vectors: DistanceVectors | None = None
        self._matrices: dict[DistanceMode, np.ndarray] = {}
        self._store: "PairStore | None" = None
        self._store_names: dict[int, str] = {}
        self._log: list[CorpusDelta] = []
        gained: set[PairKey] = set()
        refs = []
        patched = 0
        if trees:
            refs, patched = self._ingest(trees, gained, set())
            self._uids.extend(ref.uid for ref in refs)
        self._log.append(
            CorpusDelta(
                version=0,
                op="init",
                added=tuple(refs),
                removed=(),
                trees_after=len(self._uids),
                keys_gained=tuple(sorted(gained)),
                keys_lost=(),
                supports_changed=patched,
            )
        )

    @classmethod
    def restore(
        cls,
        trees: Sequence[Tree],
        params: MiningParams | None = None,
        *,
        engine: MiningEngine | None = None,
        version: int,
        history: Sequence[CorpusDelta | Mapping],
        uids: Sequence[int] | None = None,
    ) -> "VersionedCorpus":
        """Rebuild a corpus from persisted state (the CLI store).

        ``trees`` is the *current* membership, ``history`` the full
        delta log (records or their :meth:`CorpusDelta.as_dict` forms)
        and ``uids`` the members' stable ids — positional when omitted.
        Mining state is re-derived from the trees (per-tree passes hit
        the engine cache when warm); version and log are adopted as-is
        rather than replayed, and no ``delta_*`` counters move.
        """
        if version < 0:
            raise EngineError(f"version must be >= 0, got {version!r}")
        trees = list(trees)
        if uids is None:
            uids = list(range(len(trees)))
        else:
            uids = [int(uid) for uid in uids]
        if len(uids) != len(trees) or len(set(uids)) != len(uids):
            raise EngineError(
                f"uids must be {len(trees)} distinct ids, got {uids!r}"
            )
        corpus = cls((), params, engine=engine)
        keys, packed = corpus.engine.packed_counts(trees, corpus.params)
        for uid, tree, content_key, counts in zip(uids, trees, keys, packed):
            corpus._trees[uid] = tree
            corpus._content_keys[uid] = content_key
            corpus._packed[uid] = counts
            corpus._enroll(uid, counts, set(), set())
        corpus._uids = list(uids)
        corpus._next_uid = max(uids, default=-1) + 1
        corpus.version = version
        corpus._log = [
            delta
            if isinstance(delta, CorpusDelta)
            else CorpusDelta.from_dict(delta)
            for delta in history
        ]
        return corpus

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._uids)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"VersionedCorpus(v{self.version}, {len(self._uids)} trees)"
        )

    @property
    def trees(self) -> tuple[Tree, ...]:
        """The current tree sequence (positions match query indexes)."""
        return tuple(self._trees[uid] for uid in self._uids)

    @property
    def fingerprint(self) -> str:
        """Content fingerprint of the current tree sequence.

        A digest over the ordered per-tree content addresses — equal
        iff the corpora hold isomorphic trees in the same order under
        the same parameters.  Combined with :attr:`version` it binds
        cached corpus-level results (:func:`repro.engine.cache
        .corpus_cache_key`).
        """
        digest = hashlib.sha256()
        for uid in self._uids:
            digest.update(self._content_keys[uid].encode("ascii"))
            digest.update(b"|")
        return digest.hexdigest()

    def snapshot(self) -> CorpusSnapshot:
        """The current membership as an immutable record."""
        return CorpusSnapshot(
            version=self.version,
            fingerprint=self.fingerprint,
            refs=tuple(
                TreeRef(uid, self._content_keys[uid]) for uid in self._uids
            ),
        )

    def log(self) -> tuple[CorpusDelta, ...]:
        """Every delta applied so far, the version-0 init load included."""
        return tuple(self._log)

    def diff(self, old: int, new: int) -> CorpusDiff:
        """The net change between two versions (``old <= new``).

        Composes the log entries in ``(old, new]``: a tree added then
        removed inside the span cancels (matched by uid), as does a
        pair key gained then lost.
        """
        if not 0 <= old <= new <= self.version:
            raise EngineError(
                f"diff range ({old}, {new}) outside versions "
                f"0..{self.version}"
            )
        added: dict[int, TreeRef] = {}
        removed: list[TreeRef] = []
        gained: set[PairKey] = set()
        lost: set[PairKey] = set()
        supports = 0
        updates = 0
        for delta in self._log:
            if not old < delta.version <= new:
                continue
            updates += 1
            supports += delta.supports_changed
            for ref in delta.removed:
                if ref.uid in added:
                    del added[ref.uid]
                else:
                    removed.append(ref)
            for ref in delta.added:
                added[ref.uid] = ref
            for key in delta.keys_lost:
                if key in gained:
                    gained.discard(key)
                else:
                    lost.add(key)
            for key in delta.keys_gained:
                if key in lost:
                    lost.discard(key)
                else:
                    gained.add(key)
        return CorpusDiff(
            from_version=old,
            to_version=new,
            added=tuple(added.values()),
            removed=tuple(removed),
            keys_gained=tuple(sorted(gained)),
            keys_lost=tuple(sorted(lost)),
            supports_changed=supports,
            updates=updates,
        )

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def add_trees(self, trees: Sequence[Tree]) -> list[int]:
        """Append trees; returns their positions.  One version bump."""
        trees = list(trees)
        if not trees:
            return []
        engine = self.engine
        with obs_scope(engine.registry, engine.tracer), engine.tracer.span(
            "delta.update", op="add", trees=len(trees)
        ):
            gained: set[PairKey] = set()
            refs, patched = self._ingest(trees, gained, set())
            start = len(self._uids)
            self._uids.extend(ref.uid for ref in refs)
            positions = list(range(start, len(self._uids)))
            rows = self._patch_rows_added(positions, refs)
            self._commit(
                "add",
                added=refs,
                removed=(),
                gained=gained,
                lost=set(),
                supports_patched=patched,
                rows_patched=rows,
            )
            return positions

    def remove_trees(self, indexes: Sequence[int]) -> None:
        """Remove the trees at ``indexes`` (positions); later trees
        shift down.  One version bump."""
        drop = sorted(set(indexes))
        if not drop:
            return
        size = len(self._uids)
        for index in drop:
            if not 0 <= index < size:
                raise EngineError(
                    f"tree index {index} out of range for {size} trees"
                )
        engine = self.engine
        with obs_scope(engine.registry, engine.tracer), engine.tracer.span(
            "delta.update", op="remove", trees=len(drop)
        ):
            lost: set[PairKey] = set()
            removed = []
            patched = 0
            for index in drop:
                uid = self._uids[index]
                removed.append(TreeRef(uid, self._content_keys[uid]))
                patched += self._retire(uid, lost)
            for index in reversed(drop):
                del self._uids[index]
            rows = self._patch_rows_removed(drop)
            self._commit(
                "remove",
                added=(),
                removed=tuple(removed),
                gained=set(),
                lost=lost,
                supports_patched=patched,
                rows_patched=rows,
            )

    def replace_trees(self, replacements: Mapping[int, Tree]) -> None:
        """Swap the trees at the given positions in place.

        Positions and the corpus size are unchanged; each replacement
        gets a fresh uid.  One version bump for the whole mapping.
        """
        if not replacements:
            return
        size = len(self._uids)
        for index in replacements:
            if not 0 <= index < size:
                raise EngineError(
                    f"tree index {index} out of range for {size} trees"
                )
        engine = self.engine
        positions = sorted(replacements)
        with obs_scope(engine.registry, engine.tracer), engine.tracer.span(
            "delta.update", op="replace", trees=len(positions)
        ):
            gained: set[PairKey] = set()
            lost: set[PairKey] = set()
            removed = []
            patched = 0
            for index in positions:
                uid = self._uids[index]
                removed.append(TreeRef(uid, self._content_keys[uid]))
                patched += self._retire(uid, lost)
            refs, enrolled = self._ingest(
                [replacements[index] for index in positions], gained, lost
            )
            patched += enrolled
            for index, ref in zip(positions, refs):
                self._uids[index] = ref.uid
            rows = self._patch_rows_replaced(positions, refs)
            self._commit(
                "replace",
                added=refs,
                removed=tuple(removed),
                gained=gained,
                lost=lost,
                supports_patched=patched,
                rows_patched=rows,
            )

    # ------------------------------------------------------------------
    # Queries (byte-identical to a from-scratch re-mine)
    # ------------------------------------------------------------------
    def frequent_pairs(
        self, minsup: int = 2, ignore_distance: bool = False
    ) -> list[FrequentCousinPair]:
        """Frequent cousin pairs over the current corpus.

        Byte-identical to :func:`repro.core.multi_tree.mine_forest`
        over :attr:`trees` with this corpus's parameters — same
        records, same ``tree_indexes``, same order — but derived from
        the maintained occurrence map, never from a re-mine.  Results
        are memoised through the engine cache (memory + disk) under
        :func:`~repro.engine.cache.corpus_cache_key`; a served payload
        must carry this corpus's exact fingerprint *and* version or it
        is rejected and recomputed.
        """
        minsup = validate_minsup(minsup)
        fingerprint = self.fingerprint
        key = corpus_cache_key(
            fingerprint,
            self.version,
            self.params,
            minsup=minsup,
            ignore_distance=ignore_distance,
        )
        registry = self.engine.registry
        found = self.engine.cache.lookup(key)
        if found is not None:
            _layer, payload = found
            if (
                isinstance(payload, CorpusResult)
                and payload.fingerprint == fingerprint
                and payload.version == self.version
            ):
                registry.counter("delta.corpus.hits").add(1)
                return list(payload.patterns)
            # Wrong binding under the right key: a stale or foreign
            # entry (poisoned disk file, scheme collision) — refuse it
            # and recompute rather than serve pre-mutation results.
            registry.counter("delta.corpus.rejected").add(1)
        patterns = tuple(self._derive_frequent(minsup, ignore_distance))
        self.engine.cache.put(
            key, CorpusResult(fingerprint, self.version, patterns)
        )
        return list(patterns)

    def support(
        self, label_a: str, label_b: str, distance: float | None = None
    ) -> int:
        """The support of one label pair, per the paper's definition.

        ``distance=None`` ignores distances (occurrences summed across
        distances before the ``minoccur`` test) — equal to
        :func:`repro.core.multi_tree.support` over :attr:`trees` with
        this corpus's ``minoccur``.
        """
        if label_a > label_b:
            label_a, label_b = label_b, label_a
        minoccur = self.params.minoccur
        if distance is not None:
            owners = self._occurrences.get(
                (label_a, label_b, float(distance)), {}
            )
            return sum(1 for count in owners.values() if count >= minoccur)
        totals: dict[int, int] = {}
        for (la, lb, _dist), owners in self._occurrences.items():
            if (la, lb) == (label_a, label_b):
                for uid, count in owners.items():
                    totals[uid] = totals.get(uid, 0) + count
        return sum(1 for count in totals.values() if count >= minoccur)

    def distance_vectors(self) -> DistanceVectors:
        """The live, incrementally patched vectors (treat as read-only)."""
        with obs_scope(self.engine.registry, self.engine.tracer):
            return self._ensure_vectors()

    def distance_matrix(
        self, mode: DistanceMode | str = DistanceMode.DIST_OCCUR
    ) -> list[list[float]]:
        """The full distance matrix for ``mode`` as nested lists.

        Materialised once per mode (through the engine's tiled,
        memoised build) and patched row-by-row under churn; always
        byte-identical to ``DistanceVectors.from_trees(corpus.trees,
        minoccur).matrix(mode)``.  The returned lists are copies.
        """
        mode = validate_mode(mode)
        with obs_scope(self.engine.registry, self.engine.tracer):
            self._ensure_vectors()
            matrix = self._matrices.get(mode)
            if matrix is None:
                rows = self.engine.distance_matrix(self._vectors, mode)
                matrix = np.asarray(rows, dtype=np.float64).reshape(
                    len(rows), len(rows)
                )
                self._matrices[mode] = matrix
        return matrix.tolist()

    def topk_similar(
        self,
        query: Tree,
        k: int,
        mode: DistanceMode | str = DistanceMode.DIST_OCCUR,
    ) -> "TopKResult":
        """The k corpus trees nearest ``query``, exactly, at this version.

        Runs :meth:`repro.engine.MiningEngine.topk_similar` over the
        live incrementally patched vectors with this corpus's mining
        parameters.  Neighbour indexes are positions in
        :attr:`trees` order.  The engine memoises the corpus sketch
        arrays under the vectors' fingerprint; every mutation commits
        through :meth:`MiningEngine.invalidate_distance_memos`, so a
        query after churn always sketches the current corpus.
        """
        mode = validate_mode(mode)
        with obs_scope(self.engine.registry, self.engine.tracer):
            vectors = self._ensure_vectors()
        return self.engine.topk_similar(vectors, query, k, mode, self.params)

    # ------------------------------------------------------------------
    # On-disk pair store (repro.store)
    # ------------------------------------------------------------------
    @property
    def store(self) -> "PairStore | None":
        """The attached on-disk pair store, if any."""
        return self._store

    def pack_store(
        self,
        directory: str,
        names: Mapping[int, str] | Sequence[str] | None = None,
    ) -> "PairStore":
        """Write this corpus's packed rows as a fresh store and attach it.

        The store persists each tree's ``minoccur=1``-level
        contribution under its stable uid and content address, so a
        later :meth:`attach_store` (or
        :meth:`repro.engine.engine.MiningEngine.open_store`) serves
        the same byte-identical results without re-mining.  ``names``
        overrides the stored display names (a uid -> name mapping, or
        a sequence aligned with the current positions) for callers —
        like :class:`repro.apps.corpus.CorpusStore` — that track names
        outside the trees themselves.
        """
        from repro.store import PairStore

        self._record_store_names(names)
        engine = self.engine
        with obs_scope(engine.registry, engine.tracer):
            store = PairStore.build(
                directory,
                [(uid, self._content_keys[uid]) for uid in self._uids],
                self._packed,
                self.params,
                version=self.version,
                names={uid: self._store_name(uid) for uid in self._uids},
            )
        self._store = store
        return store

    def attach_store(
        self,
        store: "PairStore",
        names: Mapping[int, str] | Sequence[str] | None = None,
    ) -> None:
        """Keep ``store`` in sync with this corpus from now on.

        The store's mining parameters must match the corpus's
        (:meth:`repro.store.PairStore.check_params`); its membership
        is brought up to this corpus's current state immediately, and
        every subsequent mutation commit re-syncs it — add/remove/
        replace against an attached store stays byte-identical to a
        from-scratch re-mine at every step (the ``tests/delta``
        differential harness extends to this path).  ``names`` is the
        same display-name override :meth:`pack_store` accepts.
        """
        store.check_params(self.params)
        self._record_store_names(names)
        self._store = store
        self._sync_store()

    def _record_store_names(
        self, names: Mapping[int, str] | Sequence[str] | None
    ) -> None:
        if names is None:
            return
        if isinstance(names, Mapping):
            pairs = [(int(uid), str(name)) for uid, name in names.items()]
        else:
            pairs = [
                (uid, str(name)) for uid, name in zip(self._uids, names)
            ]
        self._store_names.update(pairs)

    def _store_name(self, uid: int) -> str:
        recorded = self._store_names.get(uid)
        if recorded is not None:
            return recorded
        return self._trees[uid].name or f"t{uid}"

    def _sync_store(self) -> None:
        assert self._store is not None
        engine = self.engine
        with obs_scope(engine.registry, engine.tracer):
            self._store.apply(
                [(uid, self._content_keys[uid]) for uid in self._uids],
                self._packed,
                version=self.version,
                names={uid: self._store_name(uid) for uid in self._uids},
            )

    # ------------------------------------------------------------------
    # Maintained-state plumbing
    # ------------------------------------------------------------------
    def _ingest(
        self,
        trees: Sequence[Tree],
        gained: set[PairKey],
        lost: set[PairKey],
    ) -> tuple[tuple[TreeRef, ...], int]:
        """Mine ``trees`` through the engine and enroll their entries.

        Returns the new :class:`TreeRef` records (fresh uids, in input
        order) and the number of occurrence entries written.  The
        caller decides where the uids land in ``_uids``.
        """
        keys, packed = self.engine.packed_counts(trees, self.params)
        refs = []
        patched = 0
        for tree, content_key, counts in zip(trees, keys, packed):
            uid = self._next_uid
            self._next_uid += 1
            self._trees[uid] = tree
            self._content_keys[uid] = content_key
            self._packed[uid] = counts
            patched += self._enroll(uid, counts, gained, lost)
            refs.append(TreeRef(uid, content_key))
        return tuple(refs), patched

    def _enroll(
        self,
        uid: int,
        packed: PackedCounts,
        gained: set[PairKey],
        lost: set[PairKey],
    ) -> int:
        """Decode one tree's packed counts into the occurrence map."""
        labels = packed.labels
        items: dict[PairKey, int] = {}
        occurrences = self._occurrences
        for packed_key, count in packed.counts.items():
            key = (
                labels[(packed_key >> LABEL_BITS) & LABEL_MASK],
                labels[packed_key & LABEL_MASK],
                (packed_key >> DIST_SHIFT) / 2.0,
            )
            items[key] = count
            owners = occurrences.get(key)
            if owners is None:
                occurrences[key] = {uid: count}
                # A key lost and regained inside one mutation (replace)
                # existed before and after: no net existence change.
                if key in lost:
                    lost.discard(key)
                else:
                    gained.add(key)
            else:
                owners[uid] = count
        self._tree_items[uid] = items
        return len(items)

    def _retire(self, uid: int, lost: set[PairKey]) -> int:
        """Remove one tree's entries from the occurrence map."""
        items = self._tree_items.pop(uid)
        occurrences = self._occurrences
        for key in items:
            owners = occurrences[key]
            del owners[uid]
            if not owners:
                del occurrences[key]
                lost.add(key)
        del self._trees[uid]
        del self._content_keys[uid]
        del self._packed[uid]
        return len(items)

    def _derive_frequent(
        self, minsup: int, ignore_distance: bool
    ) -> list[FrequentCousinPair]:
        """Re-derive mine_forest's exact output from maintained state.

        The maintained per-tree packed counts, in member order, go
        through the same kernel :func:`~repro.core.multi_tree
        .mine_forest` uses — no tree is re-mined.
        """
        return frequent_from_packed(
            [self._packed[uid] for uid in self._uids],
            minoccur=self.params.minoccur,
            minsup=minsup,
            ignore_distance=ignore_distance,
        )

    # ------------------------------------------------------------------
    # Distance-state patching
    # ------------------------------------------------------------------
    def _ensure_vectors(self) -> DistanceVectors:
        if self._vectors is None:
            self._vectors = DistanceVectors.from_packed(
                [self._packed[uid] for uid in self._uids],
                minoccur=self.params.minoccur,
            )
            self._vectors.fingerprint = self._vectors_fingerprint()
        return self._vectors

    def _vectors_fingerprint(self) -> str:
        # Same digest MiningEngine.distance_vectors would stamp on a
        # from-scratch build of this sequence, so engine-level matrix
        # memo entries stay interchangeable either way.
        digest = hashlib.sha256(
            "|".join(self._content_keys[uid] for uid in self._uids).encode(
                "ascii"
            )
        )
        digest.update(f"|minoccur={self.params.minoccur}".encode("ascii"))
        return digest.hexdigest()

    def _patch_rows_added(
        self, positions: Sequence[int], refs: Sequence[TreeRef]
    ) -> int:
        if self._vectors is None:
            return 0
        self._vectors.append_packed(
            [self._packed[ref.uid] for ref in refs],
            minoccur=self.params.minoccur,
        )
        self._vectors.fingerprint = self._vectors_fingerprint()
        rows = len(positions)
        if self._matrices:
            size = len(self._uids)
            for mode, old in list(self._matrices.items()):
                grown = np.zeros((size, size), dtype=np.float64)
                grown[: old.shape[0], : old.shape[1]] = old
                self._write_rows(grown, positions, mode)
                self._matrices[mode] = grown
            rows *= len(self._matrices)
        return rows

    def _patch_rows_removed(self, drop: Sequence[int]) -> int:
        if self._vectors is None:
            return 0
        self._vectors.remove_rows(drop)
        self._vectors.fingerprint = self._vectors_fingerprint()
        rows = len(drop)
        if self._matrices:
            gone = np.asarray(drop, dtype=np.int64)
            for mode, old in list(self._matrices.items()):
                self._matrices[mode] = np.delete(
                    np.delete(old, gone, axis=0), gone, axis=1
                )
            rows *= len(self._matrices)
        return rows

    def _patch_rows_replaced(
        self, positions: Sequence[int], refs: Sequence[TreeRef]
    ) -> int:
        if self._vectors is None:
            return 0
        self._vectors.replace_rows(
            {
                index: self._packed[ref.uid]
                for index, ref in zip(positions, refs)
            },
            minoccur=self.params.minoccur,
        )
        self._vectors.fingerprint = self._vectors_fingerprint()
        rows = len(positions)
        if self._matrices:
            for mode, matrix in self._matrices.items():
                self._write_rows(matrix, positions, mode)
            rows *= len(self._matrices)
        return rows

    def _write_rows(
        self,
        matrix: np.ndarray,
        positions: Sequence[int],
        mode: DistanceMode,
    ) -> None:
        """Recompute and mirror one matrix row per affected position.

        Rows are computed against the fully patched vectors, so when a
        mutation touches several trees their mutual entries are written
        twice with the same (symmetric, bit-identical) value.
        """
        assert self._vectors is not None
        for index in positions:
            row, _computed, _pruned = self._vectors.row(index, mode)
            values = np.asarray(row, dtype=np.float64)
            matrix[index, :] = values
            matrix[:, index] = values

    def _commit(
        self,
        op: str,
        *,
        added: tuple[TreeRef, ...],
        removed: tuple[TreeRef, ...],
        gained: set[PairKey],
        lost: set[PairKey],
        supports_patched: int,
        rows_patched: int,
    ) -> None:
        self.version += 1
        self._log.append(
            CorpusDelta(
                version=self.version,
                op=op,
                added=added,
                removed=removed,
                trees_after=len(self._uids),
                keys_gained=tuple(sorted(gained)),
                keys_lost=tuple(sorted(lost)),
                supports_changed=supports_patched,
            )
        )
        stats = self.engine.stats
        stats.delta_updates += 1
        stats.delta_trees_added += len(added)
        stats.delta_trees_removed += len(removed)
        stats.delta_rows_patched += rows_patched
        stats.delta_supports_patched += supports_patched
        # Whole-forest engine memos are fingerprinted over a specific
        # tree sequence; this corpus's sequence just changed.
        self.engine.invalidate_distance_memos()
        # An attached pair store follows every version bump: new trees
        # land as an appended generation (or a compaction), departures
        # leave the row map.  The manifest replace commits the sync.
        if self._store is not None:
            self._sync_store()
