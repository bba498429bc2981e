"""Self-tests of the benchmark: inputs, churn, metric table, bare checkout.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

The runs here use shrunken corpora and a temporary cache, so they take
seconds and never touch the benchmark's real input cache.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run, traced, workloads  # noqa: E402
from perfbench.client import Client, child_env  # noqa: E402

WORKLOADS = sorted(workloads.SPECS)


@pytest.fixture
def small(monkeypatch, tmp_path):
    """Shrink every corpus and point the caches at ``tmp_path``."""
    monkeypatch.setattr(workloads, "TREEBASE_TREES", 24)
    monkeypatch.setattr(workloads, "CHURN_TREES", 24)
    monkeypatch.setattr(run, "CACHE", tmp_path / "cache")
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    # In-process, so the shrunken sizes apply (run.py uses a helper process).
    monkeypatch.setattr(
        run, "prepare",
        lambda name, seed: workloads.prepare(name, seed, ROOT, tmp_path / "cache"),
    )
    return tmp_path


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_gives_identical_inputs(small, name):
    first = workloads.generate(name, 5)
    assert first == workloads.generate(name, 5)
    assert first != workloads.generate(name, 6)


def test_cached_inputs_are_digest_checked(small):
    cache = small / "cache"
    directory = workloads.prepare_inputs("fig7-frequent", 3, cache)
    corpus = directory / "corpus.nwk"
    original = corpus.read_bytes()
    corpus.write_bytes(b"(a,b);\n")
    assert workloads.prepare_inputs("fig7-frequent", 3, cache) == directory
    assert corpus.read_bytes() == original


def _state(tmp_path: Path, name: str, seed: int):
    inputs = workloads.prepare_inputs(name, seed, tmp_path / "cache")
    ref = workloads.reference(name, seed, inputs, ROOT, tmp_path / "cache")
    work = tmp_path / "work"
    work.mkdir(exist_ok=True)
    client = Client(child_env(ROOT, work, seed), work)
    state = workloads.State(inputs, work / "corpus", work / "store", ref)
    return client, state


def test_churn_step_restores_membership(small):
    from repro.apps.corpus import CorpusStore
    from repro.store import PairStore

    client, state = _state(small, "corpus-churn", 2)
    checker = workloads.Checker()
    workloads.setup("corpus-churn", client, checker, state)
    members = CorpusStore.open(str(state.corpus)).names
    for index in range(2):
        workloads.churn_step(index, client, checker, state)
        assert CorpusStore.open(str(state.corpus)).names == members
        assert PairStore.open(str(state.store)).names == members
    assert checker.problems == []
    assert (checker.attempted, checker.failed) == (8, 0)


def test_wrong_output_counts_as_failed(small):
    client, state = _state(small, "corpus-churn", 2)
    checker = workloads.Checker()
    workloads.setup("corpus-churn", client, checker, state)
    state.ref["steps"][0]["similar"] = ["0.000000  nowhere (#0)"]
    workloads.step("corpus-churn", 0, client, checker, state)
    workloads.step("corpus-churn", 1, client, checker, state)
    assert (checker.attempted, checker.failed) == (8, 1)


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_code():
    declared = _declared()
    assert declared["command"] == ["python3", "perfbench/run.py"]
    assert declared["paths"] == ["perfbench"]
    assert [w["name"] for w in declared["workloads"]] == list(workloads.SPECS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == traced.PER_LAYER


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_run_emits_exactly_the_declared_metrics(small, name, trace):
    table = _declared()["per_layer" if trace else "end_to_end"]
    result, diagnostics = run.run_workload(name, 4, 1.0, trace)
    assert diagnostics["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {key: m["unit"] for key, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in table
    }
    values = {key: m["value"] for key, m in result["metrics"].items()}
    if trace:
        spans = sum(values[f"{span}_s"] for span in traced.SPAN_METRICS)
        assert spans + values["obs.untraced_s"] == pytest.approx(values["obs.replay_s"])
    else:
        assert all(value > 0 for value in values.values())
    assert list((small / "work").iterdir()) == []


def test_bare_checkout_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".cache", ".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig7-frequent",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
