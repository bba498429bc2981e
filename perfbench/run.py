"""Run one workload of the end-to-end benchmark, or all of them.

    python3 perfbench/run.py --workload fig7-frequent --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20

With ``--trace 0`` a run times ``repro-mine`` commands from one client
and reports the end-to-end metrics; with ``--trace 1`` it replays one
step in-process under spans and reports the per-layer metrics
(``perfbench/traced.py``).  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The line
before it, starting ``# host``, holds the host-noise diagnostics.

The program is run from ``src/`` of the checkout the benchmark sits in;
without it the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
#: Inputs and references, reused across runs (per seed).
CACHE = BENCH / ".cache"
#: Fresh per-run state (corpus and store directories), removed after.
WORK = BENCH / ".work"

#: A run issues no new step after this many seconds, so that on a slow
#: host a run still ends near its usual 60-65 s (a normal run starts its
#: last step by about 55 s).
RUN_BUDGET_S = 60.0

#: name -> unit: the end-to-end table (bounds live in BENCHMARK.json).
END_TO_END = {"setup_s": "s", "step_s": "s", "peak_rss_mb": "MB", "disk_mb": "MB"}


def _load_program() -> None:
    """Put the checkout's ``src/`` first on the path and import it."""
    source = ROOT / "src"
    if not (source / "repro" / "cli.py").is_file():
        raise SystemExit(f"error: no program at {source}/repro; nothing to benchmark")
    sys.path[:0] = [str(source), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (source / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {source}")


def prepare(name: str, seed: int) -> tuple[Path, dict]:
    """The run's inputs and references, made in a separate interpreter.

    A child's ``ru_maxrss`` from ``wait4`` includes the resident memory
    of the process it was spawned from, so the client must stay small:
    a helper process fills the caches, and the client only reads them.
    """
    from perfbench import workloads

    subprocess.run(
        [sys.executable, "-m", "perfbench.workloads", name, str(seed), str(CACHE)],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True,
    )
    return workloads.prepare(name, seed, ROOT, CACHE)


def measure(
    name: str, seconds: float, client, checker, state_for, spec, deadline
) -> dict:
    """Set up ``spec.setup_repeats`` times, then run the timed steps.

    Steps stop early only past ``deadline`` (a host far slower than
    usual), so a run always ends inside its time limit.
    """
    from perfbench import workloads

    setups = []
    for repeat in range(spec.setup_repeats):
        if repeat:
            shutil.rmtree(state.corpus.parent, ignore_errors=True)
        state = state_for(repeat)
        setups.append(workloads.setup(name, client, checker, state))
    steps = []
    for index in range(spec.steps(seconds)):
        if steps and time.perf_counter() > deadline:
            break
        steps.append(workloads.step(name, index, client, checker, state))
    disk = workloads.input_bytes(state.inputs) + workloads.disk_bytes(
        state.corpus, state.store
    )
    return {
        "setup_s": statistics.median(setups),
        "step_s": statistics.median(steps),
        "peak_rss_mb": client.peak_rss_mb,
        "disk_mb": disk / 1e6,
    }


def run_workload(
    name: str, seed: int, seconds: float, trace: bool
) -> tuple[dict, dict]:
    """One run; returns (result line, host diagnostics)."""
    from perfbench import host, traced, workloads
    from perfbench.client import Client, child_env

    spec = workloads.SPECS[name]
    started = time.perf_counter()
    before = host.snapshot()
    inputs, ref = prepare(name, seed)
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-s{seed}-", dir=WORK))
    try:
        client = Client(child_env(ROOT, work, seed), work)
        checker = workloads.Checker()

        def state_for(repeat: int) -> workloads.State:
            base = work / f"state{repeat}"
            return workloads.State(inputs, base / "corpus", base / "store", ref)

        if trace:
            state = state_for(0)
            workloads.setup(name, client, checker, state)
            metrics = traced.run(name, client, checker, state)
            units = traced.PER_LAYER
        else:
            metrics = measure(
                name, seconds, client, checker, state_for, spec, started + RUN_BUDGET_S
            )
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    diagnostics = host.diagnostics(before, host.snapshot())
    diagnostics["command_walls_s"] = [round(o.wall_s, 3) for o in client.outcomes]
    diagnostics["problems"] = checker.problems[:5]
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            key: {"value": value, "unit": units[key]} for key, value in metrics.items()
        },
    }
    return result, diagnostics


def _print_table(name: str, result: dict) -> None:
    print(f"== {name}: {result['attempted']} attempted, {result['failed']} failed")
    for key, metric in result["metrics"].items():
        print(f"  {key:32s} {metric['value']:14.6f} {metric['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    choice = parser.add_mutually_exclusive_group(required=True)
    choice.add_argument("--workload")
    choice.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _load_program()
    from perfbench.workloads import SPECS

    if args.workload is not None and args.workload not in SPECS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(SPECS)}")
    names = sorted(SPECS) if args.all else [args.workload]
    results = {}
    for name in names:
        result, diagnostics = run_workload(
            name, args.seed, args.seconds, bool(args.trace)
        )
        _print_table(name, result)
        print("# host " + json.dumps(diagnostics))
        results[name] = result
    print(json.dumps(results if args.all else results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
