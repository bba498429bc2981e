"""One blocking client that runs ``repro-mine`` commands as a user does.

Each command is a fresh ``python -m repro …`` process.  The client
blocks until the process has exited, timing it from spawn to exit with
its standard output fully written, and reads the child's resource
usage (CPU seconds and peak resident set) straight from ``wait4``.
Nothing else runs while a command runs.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

#: A command still running after this many seconds is killed and
#: counted as failed, so a hung program cannot stall the benchmark.
COMMAND_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Outcome:
    """What one command did: exit code, wall clock, child usage, output."""

    argv: tuple[str, ...]
    code: int
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    stdout: bytes
    stderr: bytes

    @property
    def ok(self) -> bool:
        return self.code == 0

    @property
    def cpu_per_wall(self) -> float:
        return self.cpu_s / self.wall_s if self.wall_s > 0 else 0.0


def child_env(root: Path, tmp_dir: Path, seed: int) -> dict:
    """The environment every command runs under.

    ``PYTHONHASHSEED`` is derived from the workload seed, so string
    hashing (set and dict iteration order) repeats from run to run, and
    temporary files stay inside the run's own directory.
    """
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("PYTHON")
    }
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = str(seed % 4_294_967_295)
    env["TMPDIR"] = str(tmp_dir)
    return env


class Client:
    """Runs commands one at a time in ``cwd`` under ``env``."""

    def __init__(self, env: dict, cwd: Path) -> None:
        self.env = env
        self.cwd = cwd
        self.outcomes: list[Outcome] = []

    def repro(self, *args: str) -> Outcome:
        """``python -m repro ARGS`` — one ``repro-mine`` command."""
        return self.python("-m", "repro", *args)

    def python(self, *args: str) -> Outcome:
        argv = (sys.executable, *args)
        with tempfile.TemporaryFile(dir=self.cwd) as out, \
                tempfile.TemporaryFile(dir=self.cwd) as err:
            started = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                env=self.env, cwd=self.cwd,
            )
            killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - started
            # wait4 reaped the child; tell Popen so it never waits again.
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            outcome = Outcome(
                argv=argv,
                code=proc.returncode,
                wall_s=wall,
                cpu_s=usage.ru_utime + usage.ru_stime,
                maxrss_kb=usage.ru_maxrss,
                stdout=out.read(),
                stderr=err.read(),
            )
        self.outcomes.append(outcome)
        return outcome

    @property
    def peak_rss_mb(self) -> float:
        """Largest child ``ru_maxrss`` seen so far, in MB."""
        return max((o.maxrss_kb for o in self.outcomes), default=0) / 1024.0
