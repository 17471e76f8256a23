"""Host speed probe: scales measured wall times to a reference host speed.

On a shared host the same single-threaded work runs up to twice as slowly
for seconds at a time, whenever neighbours load the cores' shared caches.
The benchmark therefore runs a fixed piece of pure-Python work (regex
scanning, object construction, sorting, JSON round trip, like the program's
own mix) right before and right after each timed command, and scales the
command's wall time by

    REFERENCE_S / (mean of the two probe times)

The result reads in seconds: the command's wall time on a host that runs the
probe in REFERENCE_S.  The probe imports nothing from gridforge, so no change
to the program changes it, and the cyclic garbage collector is off while it
runs, so the program's heap size does not change it either.
"""

from __future__ import annotations

import gc
import json
import re
import time

# Probe time on the reference host (2-vCPU x86-64 VM, CPython 3.11), between
# its fast (4.5 ms) and slow (8 ms) periods.
REFERENCE_S = 0.0060

_ROUNDS = 3
_PATTERN = re.compile(r"(\w+)-(\d+) = (\w+)\(([^)]*)\)")
_TEXT = "\n".join(f"server-{i} = OpenCCM(/opt/OpenCCM-{i % 13},JacORB-{i % 7})" for i in range(400))


class _Node:
    __slots__ = ("id", "deps", "state")

    def __init__(self, node_id: str, deps: list[str]):
        self.id = node_id
        self.deps = deps
        self.state = "PRISTINE"


def _work() -> int:
    nodes = {}
    for m in _PATTERN.finditer(_TEXT):
        node_id = f"{m.group(1)}/{m.group(2)}"
        nodes[node_id] = _Node(node_id, [p.strip() for p in m.group(4).split(",")])
    order = sorted(nodes.values(), key=lambda n: (len(n.deps), n.id))
    for node in order:
        node.state = "STARTED" if node.deps else "INSTALLED"
    doc = json.dumps({n.id: {"state": n.state, "deps": n.deps} for n in order}, sort_keys=True)
    return sum(len(v["deps"]) for v in json.loads(doc).values())


def probe() -> float:
    """Seconds the fixed probe work takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(_ROUNDS):
            _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scaled(wall_s: float, before_s: float, after_s: float) -> float:
    """`wall_s` at reference speed, from the probes around it."""
    return wall_s * REFERENCE_S / ((before_s + after_s) / 2)


if __name__ == "__main__":
    times = sorted(probe() for _ in range(200))
    print(f"probe: min {times[0]:.5f} s, median {times[100]:.5f} s, max {times[-1]:.5f} s")
