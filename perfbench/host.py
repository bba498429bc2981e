"""Host-noise diagnostics, reported beside the metrics, never as metrics.

On a shared machine the same pure-Python loop can take half as long
again from one minute to the next.  Each run records a fixed reference
loop before and after, the hypervisor steal ticks in between and the
load average, so a noisy verdict can be put down to the host or to the
program.
"""

from __future__ import annotations

import os
import time

REFERENCE_LOOP_ITERATIONS = 1_000_000


def reference_loop_s() -> float:
    """Wall time of a fixed pure-Python loop."""
    started = time.perf_counter()
    total = 0
    for value in range(REFERENCE_LOOP_ITERATIONS):
        total += value * value % 7
    return time.perf_counter() - started


def steal_ticks() -> int | None:
    """Cumulative steal ticks of all CPUs from ``/proc/stat``, if readable."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    # "cpu user nice system idle iowait irq softirq steal ..."
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    return int(fields[8])


def snapshot() -> dict:
    return {
        "loop_s": reference_loop_s(),
        "steal": steal_ticks(),
        "loadavg_1m": os.getloadavg()[0],
    }


def diagnostics(before: dict, after: dict) -> dict:
    steal = (
        after["steal"] - before["steal"]
        if before["steal"] is not None and after["steal"] is not None
        else None
    )
    return {
        "loop_before_s": before["loop_s"],
        "loop_after_s": after["loop_s"],
        "steal_ticks": steal,
        "loadavg_1m_before": before["loadavg_1m"],
        "loadavg_1m_after": after["loadavg_1m"],
        "cpus": os.cpu_count(),
    }
