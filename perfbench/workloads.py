"""The two workloads: their inputs, references, set-up and steps.

Every workload is a closed loop of *steps* driven by one client: a step
is a fixed sequence of ``repro-mine`` commands, so every sample of the
step median is the same kind of work.

- ``fig7-frequent`` — the paper's Fig 7 run: ``frequent`` over 1,500
  TreeBASE-like phylogenies.  Parse, keying, mining and the Algorithm-2
  aggregation; no store, no top-k, no corpus.
- ``corpus-churn`` — one persisted 500-tree corpus; a step adds a
  5-tree batch, reads the churned store with ``similar`` and removes
  the batch again.  Corpus open/save, delta mining, store append and the
  reads that see the generations and dead rows writes leave behind.

Inputs come from the seed alone and are cached per seed under the
benchmark's own directory with a digest check.  References are
computed in-process, untimed, through independent slow paths:
``mine_forest`` with no engine, and a brute-force sorted distance row
with ties to the smaller index.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from dataclasses import dataclass
from pathlib import Path

from perfbench.client import Client, Outcome

#: Bump when generation changes, so cached inputs are regenerated.
INPUT_VERSION = 1
K = 10
TREEBASE_TREES = 1500
CHURN_TREES = 500
CHURN_BATCH = 5
CHURN_BATCHES = 8


@dataclass(frozen=True)
class Spec:
    """How a workload sizes one run.

    A run issues ``max(min_steps, round(seconds / nominal_step_s))``
    steps, a fixed count for a given ``--seconds``, so every run of a
    workload measures the same work.  ``nominal_step_s`` is the step's
    wall time on a 2-CPU x86-64 host.
    """

    name: str
    nominal_step_s: float
    min_steps: int
    setup_repeats: int

    def steps(self, seconds: float) -> int:
        return max(self.min_steps, round(seconds / self.nominal_step_s))


SPECS = {
    spec.name: spec
    for spec in (
        Spec(
            "fig7-frequent",
            nominal_step_s=10.0, min_steps=5, setup_repeats=3,
        ),
        Spec(
            "corpus-churn",
            nominal_step_s=10.0, min_steps=5, setup_repeats=2,
        ),
    )
}


# ----------------------------------------------------------------------
# Input generation
# ----------------------------------------------------------------------
def _newick(trees) -> str:
    from repro.trees.newick import write_newick

    return "".join(
        write_newick(tree, include_lengths=False) + "\n" for tree in trees
    )


def _treebase_studies(count: int, seed: int):
    from repro.generate.treebase import synthetic_treebase_corpus

    return synthetic_treebase_corpus(num_trees=count, rng=seed)


def _near_duplicate(tree, rng: random.Random, alphabet: list[str], changes: int):
    """A copy of ``tree`` with ``changes`` leaves relabelled."""
    from repro.trees.newick import parse_newick, write_newick

    copy = parse_newick(write_newick(tree, include_lengths=False))
    leaves = list(copy.leaves())
    for position in rng.sample(range(len(leaves)), min(changes, len(leaves))):
        leaf = leaves[position]
        leaf.label = rng.choice(
            [label for label in alphabet if label != leaf.label]
        )
    return copy


def generate(name: str, seed: int) -> dict[str, str]:
    """The workload's input files (name -> Newick text) for ``seed``."""
    rng = random.Random(f"perfbench/{name}/{seed}")
    if name == "fig7-frequent":
        trees = [t for s in _treebase_studies(TREEBASE_TREES, seed) for t in s.trees]
        return {"corpus.nwk": _newick(trees)}
    if name == "corpus-churn":
        from repro.generate.treebase import synthetic_study

        studies = _treebase_studies(CHURN_TREES, seed)
        files = {"corpus.nwk": _newick([t for s in studies for t in s.trees])}
        for index in range(CHURN_BATCHES):
            # New trees for an existing study, over taxa the corpus
            # already holds: the store appends a generation instead of
            # compacting for label growth.
            study = studies[rng.randrange(len(studies))]
            taxa = sorted({leaf.label for t in study.trees for leaf in t.leaves()})
            batch = synthetic_study(
                f"B{index}", taxa, CHURN_BATCH, rng=rng
            ).trees
            files[f"batch{index}.nwk"] = _newick(batch)
            files[f"q{index}.nwk"] = _newick(
                [_near_duplicate(batch[0], rng, taxa, 1)]
            )
        return files
    raise KeyError(name)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def prepare_inputs(name: str, seed: int, cache_dir: Path) -> Path:
    """The directory of the workload's inputs for ``seed``.

    Reused when every file still matches its recorded digest;
    regenerated otherwise.
    """
    directory = cache_dir / "inputs" / f"{name}-s{seed}-v{INPUT_VERSION}"
    digest_path = directory / "digest.json"
    if digest_path.exists():
        recorded = json.loads(digest_path.read_text())
        if all(
            (directory / file).is_file()
            and sha256((directory / file).read_bytes()) == digest
            for file, digest in recorded.items()
        ):
            return directory
    directory.mkdir(parents=True, exist_ok=True)
    digests = {}
    for file, text in generate(name, seed).items():
        data = text.encode("utf-8")
        (directory / file).write_bytes(data)
        digests[file] = sha256(data)
    digest_path.write_text(json.dumps(digests, indent=1, sort_keys=True))
    return directory


# ----------------------------------------------------------------------
# References
# ----------------------------------------------------------------------
def source_digest(root: Path) -> str:
    """Digest of the program's and the benchmark's Python sources."""
    digest = hashlib.sha256()
    paths = sorted((root / "src").rglob("*.py"))
    paths += sorted((root / "perfbench").glob("*.py"))
    for path in paths:
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def frequent_text(patterns, tree_count: int) -> str:
    """What ``repro-mine frequent`` prints for ``patterns``."""
    lines = [f"# {len(patterns)} frequent pair(s) in {tree_count} tree(s)"]
    lines.extend(f"  {pattern.describe()}" for pattern in patterns)
    return "".join(line + "\n" for line in lines)


def ranked_lines(row, members: list[int], names: list[str]) -> list[str]:
    """Neighbour lines over live ``members`` (row indexes in live order)."""
    ranked = sorted((row[index], position) for position, index in enumerate(members))
    return [
        f"{distance:.6f}  {names[position]} (#{position})"
        for distance, position in ranked[:K]
    ]


def _read(path: Path):
    from repro.trees.newick import read_newick_file

    return read_newick_file(str(path))


def compute_reference(name: str, inputs: Path) -> dict:
    from repro.core.distvec import DistanceVectors
    from repro.core.multi_tree import mine_forest

    if name == "fig7-frequent":
        trees = _read(inputs / "corpus.nwk")
        text = frequent_text(mine_forest(trees, minsup=2), len(trees))
        return {"stdout_sha256": sha256(text.encode("utf-8"))}
    if name == "corpus-churn":
        base = _read(inputs / "corpus.nwk")
        batches = [_read(inputs / f"batch{i}.nwk") for i in range(CHURN_BATCHES)]
        queries = [_read(inputs / f"q{i}.nwk")[0] for i in range(CHURN_BATCHES)]
        everything = base + [t for batch in batches for t in batch] + queries
        vectors = DistanceVectors.from_trees(everything)
        query_offset = len(base) + CHURN_BATCHES * CHURN_BATCH
        steps = []
        for index, batch in enumerate(batches):
            start = len(base) + index * CHURN_BATCH
            members = list(range(len(base))) + list(range(start, start + len(batch)))
            names = [t.name for t in base] + [t.name for t in batch]
            row = vectors.row(query_offset + index)[0]
            steps.append({
                "names": [t.name for t in batch],
                "similar": ranked_lines(row, members, names),
            })
        return {"trees": len(base), "steps": steps}
    raise KeyError(name)


def reference(name: str, seed: int, inputs: Path, root: Path, cache_dir: Path) -> dict:
    """The workload's reference outputs, cached per seed and source tree."""
    key = sha256(
        (source_digest(root) + (inputs / "digest.json").read_text()).encode()
    )[:20]
    path = cache_dir / "reference" / f"{name}-s{seed}-{key}.json"
    if path.exists():
        return json.loads(path.read_text())
    result = compute_reference(name, inputs)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result))
    return result


def prepare(name: str, seed: int, root: Path, cache_dir: Path) -> tuple[Path, dict]:
    """The inputs directory and the references of one run."""
    inputs = prepare_inputs(name, seed, cache_dir)
    return inputs, reference(name, seed, inputs, root, cache_dir)


# ----------------------------------------------------------------------
# Set-up and steps
# ----------------------------------------------------------------------
class Checker:
    """Counts operations attempted and failed against the references."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, outcome: Outcome, good: bool, what: str) -> bool:
        self.attempted += 1
        ok = outcome.ok and good
        if not ok:
            self.failed += 1
            detail = outcome.stderr.decode("utf-8", "replace").strip()[-300:]
            self.problems.append(
                f"{what}: exit {outcome.code}: "
                + (detail if not outcome.ok else "output differs from the reference")
            )
        return ok

    def expect(self, good: bool, what: str) -> bool:
        """Count one in-process operation of the traced replay."""
        self.attempted += 1
        if not good:
            self.failed += 1
            self.problems.append(f"{what}: output differs from the reference")
        return good


def _lines(outcome: Outcome) -> list[str]:
    return outcome.stdout.decode("utf-8", "replace").splitlines()


@dataclass
class State:
    """The persisted corpus and store one run works on."""

    inputs: Path
    corpus: Path
    store: Path
    ref: dict
    version: int = 0


def setup(name: str, client: Client, checker: Checker, state: State) -> float:
    """Run the set-up commands into ``state``; returns their wall time."""
    help_run = client.repro("--help")
    checker.check(
        help_run, help_run.stdout.startswith(b"usage: repro-mine"), "--help"
    )
    wall = help_run.wall_s
    if name == "fig7-frequent":
        return wall
    init = client.repro(
        "corpus", "init", str(state.corpus),
        "--trees", str(state.inputs / "corpus.nwk"), "--store", str(state.store),
    )
    trees = state.ref["trees"]
    lines = _lines(init)
    checker.check(
        init,
        len(lines) == 2
        and lines[0] == f"initialised corpus at {state.corpus}: {trees} tree(s), v0"
        and lines[1].startswith(
            f"packed pair store at {state.store}: {trees} tree(s), "
        ),
        "corpus init",
    )
    state.version = 0
    return wall + init.wall_s


def _check_similar(
    checker: Checker, outcome: Outcome, trees: int, expected: list[str]
) -> None:
    lines = _lines(outcome)
    header = f"# top-{K} (dist_occur): {K} neighbor(s) of {trees} candidate(s);"
    checker.check(
        outcome,
        bool(lines) and lines[0].startswith(header) and lines[1:] == expected,
        "similar",
    )


def step(
    name: str, index: int, client: Client, checker: Checker, state: State
) -> float:
    """Run step ``index``; returns the wall time of its commands."""
    ref = state.ref
    if name == "fig7-frequent":
        run = client.repro("frequent", str(state.inputs / "corpus.nwk"))
        checker.check(run, sha256(run.stdout) == ref["stdout_sha256"], "frequent")
        return run.wall_s
    if name == "corpus-churn":
        return churn_step(index, client, checker, state)
    raise KeyError(name)


def churn_step(index: int, client: Client, checker: Checker, state: State) -> float:
    batch = index % CHURN_BATCHES
    expected = state.ref["steps"][batch]
    trees = state.ref["trees"]
    after = trees + len(expected["names"])
    add = client.repro(
        "corpus", "add", str(state.corpus),
        str(state.inputs / f"batch{batch}.nwk"), "--store", str(state.store),
    )
    state.version += 1
    lines = _lines(add)
    checker.check(
        add,
        bool(lines)
        and lines[0].startswith(
            f"v{state.version} add: +{len(expected['names'])}/-0 tree(s), "
            f"{after} after;"
        )
        and lines[1:] == [
            f"  added {name} at #{trees + offset}"
            for offset, name in enumerate(expected["names"])
        ],
        "corpus add",
    )
    similar = client.repro(
        "similar", str(state.inputs / f"q{batch}.nwk"),
        "--store", str(state.store), "--k", str(K),
    )
    _check_similar(checker, similar, after, expected["similar"])
    remove = client.repro(
        "corpus", "remove", str(state.corpus),
        *[str(position) for position in range(trees, after)],
        "--store", str(state.store),
    )
    state.version += 1
    lines = _lines(remove)
    checker.check(
        remove,
        bool(lines)
        and lines[0].startswith(
            f"v{state.version} remove: +0/-{len(expected['names'])} tree(s), "
            f"{trees} after;"
        )
        and lines[1:] == [f"  removed {name}" for name in expected["names"]],
        "corpus remove",
    )
    return add.wall_s + similar.wall_s + remove.wall_s


def disk_bytes(*directories: Path) -> int:
    """Bytes of the files under ``directories`` (missing ones hold none)."""
    return sum(
        os.path.getsize(os.path.join(folder, file))
        for directory in directories
        for folder, _dirs, files in os.walk(directory)
        for file in files
    )


def input_bytes(inputs: Path) -> int:
    """Bytes of the generated input files (the digest record excluded)."""
    return sum(
        path.stat().st_size for path in inputs.iterdir() if path.name != "digest.json"
    )


if __name__ == "__main__":
    # python -m perfbench.workloads NAME SEED CACHE_DIR: fill the caches.
    prepare(
        sys.argv[1], int(sys.argv[2]), Path(__file__).resolve().parent.parent,
        Path(sys.argv[3]),
    )
