"""Crash-consistency: damaged stores degrade to counted errors.

Every failure mode a crashed or interrupted writer can leave behind —
truncated shard, corrupt manifest, a half-written generation from a
mid-compaction kill, a manifest referencing a swept generation — must
surface as a :class:`repro.errors.StoreError` with a
``store.read_errors`` count, never as silent wrong answers; and the
CLI attach path must degrade further to a counted rebuild
(``store.rebuilds``) from the corpus itself.
"""

from __future__ import annotations

import json
import os
import shutil

import pytest

from repro.cli import _attach_pair_store
from repro.engine import MiningEngine, VersionedCorpus
from repro.errors import StoreError
from repro.generate import SyntheticTreeParams, synthetic_forest
from repro.obs.context import scope as obs_scope
from repro.obs.metrics import MetricsRegistry
from repro.store import STORE_FILE, PairStore

from tests.delta.equivalence import pattern_tuples


def forest(count=8, seed=3):
    return synthetic_forest(
        SyntheticTreeParams(treesize=12, databasesize=count, alphabetsize=6),
        rng=seed,
    )


@pytest.fixture
def registry():
    reg = MetricsRegistry()
    with obs_scope(registry=reg):
        yield reg


def read_errors(registry):
    return registry.snapshot()["counters"].get("store.read_errors", 0)


def packed(tmp_path):
    trees = forest()
    PairStore.pack(str(tmp_path / "store"), trees)
    return trees, str(tmp_path / "store")


def shard_path(directory, stem="full_keys"):
    for name in sorted(os.listdir(directory)):
        if name.startswith("gen-"):
            return os.path.join(directory, name, f"{stem}.npy")
    raise AssertionError("no generation directory")


class TestTruncatedShard:
    def test_open_fails_counted(self, tmp_path, registry):
        _, directory = packed(tmp_path)
        path = shard_path(directory)
        with open(path, "r+b") as handle:
            handle.truncate(10)
        before = read_errors(registry)
        with pytest.raises(StoreError, match="truncated"):
            PairStore.open(directory)
        assert read_errors(registry) > before

    def test_same_size_garbage_fails_at_load(self, tmp_path, registry):
        _, directory = packed(tmp_path)
        path = shard_path(directory)
        size = os.path.getsize(path)
        with open(path, "wb") as handle:
            handle.write(b"\x00" * size)
        store = PairStore.open(directory)  # stat-level check passes
        before = read_errors(registry)
        with pytest.raises(StoreError):
            store.as_vectors()
        assert read_errors(registry) > before


class TestCorruptManifest:
    def test_garbage_json_fails_counted(self, tmp_path, registry):
        _, directory = packed(tmp_path)
        with open(os.path.join(directory, STORE_FILE), "w") as handle:
            handle.write("{not json")
        before = read_errors(registry)
        with pytest.raises(StoreError):
            PairStore.open(directory)
        assert read_errors(registry) > before

    def test_unknown_format_fails_counted(self, tmp_path, registry):
        _, directory = packed(tmp_path)
        path = os.path.join(directory, STORE_FILE)
        with open(path) as handle:
            manifest = json.load(handle)
        manifest["format"] = 99
        with open(path, "w") as handle:
            json.dump(manifest, handle)
        before = read_errors(registry)
        with pytest.raises(StoreError):
            PairStore.open(directory)
        assert read_errors(registry) > before

    def test_unsorted_label_table_fails_counted(self, tmp_path, registry):
        # Frequent pairs are ordered by comparing label ids, so a table
        # out of sorted order would reorder results silently.
        _, directory = packed(tmp_path)
        path = os.path.join(directory, STORE_FILE)
        with open(path) as handle:
            manifest = json.load(handle)
        manifest["labels"].reverse()
        with open(path, "w") as handle:
            json.dump(manifest, handle)
        before = read_errors(registry)
        with pytest.raises(StoreError, match="sorted"):
            PairStore.open(directory)
        assert read_errors(registry) > before

    def test_out_of_range_row_fails_counted(self, tmp_path, registry):
        _, directory = packed(tmp_path)
        path = os.path.join(directory, STORE_FILE)
        with open(path) as handle:
            manifest = json.load(handle)
        manifest["rows"][0]["row"] = 10_000
        with open(path, "w") as handle:
            json.dump(manifest, handle)
        before = read_errors(registry)
        with pytest.raises(StoreError):
            PairStore.open(directory)
        assert read_errors(registry) > before

    def test_missing_store_is_a_plain_error(self, tmp_path, registry):
        before = read_errors(registry)
        with pytest.raises(StoreError, match="corpus pack"):
            PairStore.open(str(tmp_path / "nowhere"))
        # Absence is not damage: no read error counted.
        assert read_errors(registry) == before


class TestMidCompactionKill:
    def test_orphan_generation_is_ignored_then_swept(
        self, tmp_path, registry
    ):
        trees, directory = packed(tmp_path)
        # A compaction killed between shard writes and the manifest
        # commit leaves an unreferenced generation directory behind.
        orphan = os.path.join(directory, "gen-000099")
        os.makedirs(orphan)
        with open(os.path.join(orphan, "full_keys.npy"), "wb") as handle:
            handle.write(b"partial write")
        store = PairStore.open(directory)
        want = pattern_tuples(store.frequent_pairs(minsup=2))
        # The next committed mutation sweeps the orphan.
        engine = MiningEngine()
        keys, packs = engine.packed_counts(list(trees), store.params)
        store.apply(
            [(index, key) for index, key in enumerate(keys)],
            dict(enumerate(packs)),
            version=1,
        )
        assert not os.path.exists(orphan)
        reopened = PairStore.open(directory)
        assert pattern_tuples(reopened.frequent_pairs(minsup=2)) == want

    def test_orphan_never_clobbers_new_generations(self, tmp_path, registry):
        trees, directory = packed(tmp_path)
        orphan = os.path.join(directory, "gen-000099")
        os.makedirs(orphan)
        store = PairStore.open(directory)
        extra = forest(count=2, seed=9)
        combined = list(trees) + list(extra)
        keys, packs = MiningEngine().packed_counts(combined, store.params)
        store.apply(
            [(index, key) for index, key in enumerate(keys)],
            dict(enumerate(packs)),
            version=1,
        )
        # Fresh serials are allocated past any directory on disk, so
        # the append never reused the orphan's name.
        assert {g["name"] for g in store._manifest["generations"]}.isdisjoint(
            {"gen-000099"}
        )


class TestStaleGeneration:
    def test_referenced_generation_missing_fails_counted(
        self, tmp_path, registry
    ):
        _, directory = packed(tmp_path)
        gen_dir = os.path.dirname(shard_path(directory))
        shutil.rmtree(gen_dir)
        before = read_errors(registry)
        with pytest.raises(StoreError):
            PairStore.open(directory)
        assert read_errors(registry) > before


class TestApplyGuards:
    def test_content_key_mismatch_is_rejected(self, tmp_path, registry):
        _, directory = packed(tmp_path)
        store = PairStore.open(directory)
        members = list(store.members)
        members[0] = (members[0][0], "sha256:not-the-same-tree")
        with pytest.raises(StoreError, match="content"):
            store.apply(members, {}, version=1)

    def test_missing_packed_rows_are_rejected(self, tmp_path, registry):
        _, directory = packed(tmp_path)
        store = PairStore.open(directory)
        members = list(store.members) + [(999, "sha256:new-tree")]
        with pytest.raises(StoreError):
            store.apply(members, {}, version=1)


class TestCliRebuild:
    def test_damaged_store_rebuilds_counted(self, tmp_path, registry):
        trees = forest()
        engine = MiningEngine()
        corpus = VersionedCorpus(trees, engine=engine)
        directory = str(tmp_path / "store")
        corpus.pack_store(directory)
        path = shard_path(directory)
        with open(path, "r+b") as handle:
            handle.truncate(4)

        fresh = VersionedCorpus(trees, engine=engine)
        store = _attach_pair_store(fresh, directory)
        # The helper counts on the ambient registry (the CLI installs
        # the engine's registry as the ambient scope; here it is the
        # fixture's).
        rebuilds = registry.snapshot()["counters"]["store.rebuilds"]
        assert rebuilds == 1
        assert store is fresh.store
        reopened = PairStore.open(directory)
        assert pattern_tuples(reopened.frequent_pairs(minsup=2)) == (
            pattern_tuples(fresh.frequent_pairs(minsup=2))
        )

    def test_intact_store_attaches_without_rebuild(self, tmp_path, registry):
        trees = forest()
        engine = MiningEngine()
        corpus = VersionedCorpus(trees, engine=engine)
        directory = str(tmp_path / "store")
        corpus.pack_store(directory)

        fresh = VersionedCorpus(trees, engine=engine)
        _attach_pair_store(fresh, directory)
        counters = registry.snapshot()["counters"]
        assert counters.get("store.rebuilds", 0) == 0
