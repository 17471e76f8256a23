"""Deterministic simulated grid: nodes with observable state, virtual time.

SimNodes record every step applied to them; replaying the log from an
empty node reproduces (env, files, processes) exactly.  A fleet runs the
same few steps on every node, so a saved fleet holds each distinct step
once, in a step table, and each node's log as indices into it.  The
virtual clock is advanced by latency charges from the sim transport,
never by wall time, so identical configuration and seed give identical
reported durations.
"""

from __future__ import annotations

import json
import re
import threading
import zlib
from dataclasses import dataclass

from .steps import Step, StepKind


@dataclass
class SimClockConfig:
    """Latency model for the simulated transport.

    jitter_seed 0 disables jitter; any other value perturbs each latency
    deterministically (pure function of seed, node, payload and step index,
    so durations do not depend on worker interleaving).
    """

    connect_latency: float = 5.0
    step_latency: float = 10.0
    jitter_seed: int = 0

    def latency(self, base: float, *salt: str) -> float:
        if self.jitter_seed == 0 or base == 0.0:
            return base
        return jittered(base, zlib.crc32("|".join((str(self.jitter_seed),) + salt).encode()))


def jittered(base: float, key_crc: int) -> float:
    """base scaled into [0.9, 1.1] by a key's crc32."""
    return base * (0.9 + 0.2 * (key_crc / 0xFFFFFFFF))


_VAR = re.compile(r"\$\{(\w+)\}|\$(\w+)")
_STEP_KINDS = {k.value: k for k in StepKind}  # saved name -> kind, without an Enum call per step


class SimNode:
    """In-memory stand-in for one grid node."""

    def __init__(self, node_id: str):
        self.id = node_id
        self.env: dict[str, str] = {}
        self.files: set[str] = set()
        self.processes: set[str] = set()
        self.log: list[Step] = []

    def observable(self) -> tuple[dict[str, str], set[str], set[str]]:
        return dict(self.env), set(self.files), set(self.processes)

    def exists(self, path: str) -> bool:
        prefix = path.rstrip("/") + "/"
        return any(f == path or f.startswith(prefix) for f in self.files)

    def substitute(self, text: str) -> str:
        def repl(m: re.Match) -> str:
            return self.env.get(m.group(1) or m.group(2), "")

        return _VAR.sub(repl, text)

    def apply(self, step: Step) -> tuple[int, str]:
        """Apply one step, append it to the log, return (status, output)."""
        self.log.append(step)
        k = step.kind
        if k is StepKind.SET_VAR:
            if step.b == "":
                self.env.pop(step.a, None)
            else:
                self.env[step.a] = step.b
            return 0, ""
        if k is StepKind.APPEND_PATH:
            current = self.env.get("PATH", "")
            self.env["PATH"] = step.a if not current else f"{current}:{step.a}"
            return 0, ""
        if k is StepKind.FETCH:
            self.files.add(step.b)
            return 0, ""
        if k is StepKind.START_PROCESS:
            self.processes.add(step.a)
            return 0, ""
        if k is StepKind.STOP_PROCESS:
            self.processes.discard(step.a)
            return 0, ""
        if k is StepKind.REMOVE:
            prefix = step.a.rstrip("/") + "/"
            self.files = {f for f in self.files if f != step.a and not f.startswith(prefix)}
            return 0, ""
        return self._exec(step.a)

    def _exec(self, command: str) -> tuple[int, str]:
        # Small command model: enough for env-probing and scripted failures.
        cmd = command.strip()
        if cmd == "true" or not cmd:
            return 0, ""
        if cmd == "false":
            return 1, ""
        if cmd.startswith("exit "):
            try:
                return int(cmd[5:].strip()), ""
            except ValueError:
                return 2, ""
        if cmd.startswith("echo "):
            return 0, self.substitute(cmd[5:])
        return 0, ""

    # -- persistence -------------------------------------------------------

    def to_dict(self, log: list[int]) -> dict:
        """The saved node, whose log is `log`: its steps' indices in the
        fleet's step table (`Fleet.to_dict`)."""
        return {
            "id": self.id,
            "env": dict(self.env),
            "files": sorted(self.files),
            "processes": sorted(self.processes),
            "log": log,
        }

    @classmethod
    def from_dict(cls, data: dict, steps: list[Step] | dict[tuple, Step] | None = None) -> "SimNode":
        """Rebuild a saved node.  A list `steps` is its fleet's step table,
        which the log indexes.  Otherwise the log holds the steps themselves,
        as older versions saved them: kind and two operands, or a fourth,
        always-empty field; `steps` then maps each entry already built to
        its Step, so the nodes of one fleet share them."""
        node = cls(data["id"])
        node.env = dict(data["env"])
        node.files = set(data["files"])
        node.processes = set(data["processes"])
        if isinstance(steps, list):
            indices = data["log"]
            if indices and min(indices) < 0:  # a negative index would count from the table's end
                raise IndexError(f"{node.id}: step index {min(indices)} out of range")
            node.log = [steps[i] for i in indices]
            return node
        if steps is None:
            steps = {}
        log = node.log
        for entry in data["log"]:
            key = (entry[0], entry[1], entry[2])
            step = steps.get(key)
            if step is None:
                step = steps[key] = Step(_STEP_KINDS[key[0]], key[1], key[2])
            log.append(step)
        return node


def replay_log(log: list[Step]) -> SimNode:
    """Independent rebuild of node state by re-applying a recorded log."""
    node = SimNode("replay")
    for step in log:
        node.apply(step)
    return node


class Fleet:
    """A set of SimNodes, keyed by hostname.

    A fleet restored from a state file keeps what was saved and builds its
    SimNodes the first time `nodes` or `get_or_create` is used, so a
    command that contacts no node never decodes them.
    """

    def __init__(self) -> None:
        self._nodes: dict[str, SimNode] | None = {}
        self._saved: str | dict | None = None

    @property
    def nodes(self) -> dict[str, SimNode]:
        # The sim starts no threads, so decoding on first use needs no lock.
        if self._nodes is None:
            saved = self._saved
            self._nodes = Fleet.from_dict(json.loads(saved) if isinstance(saved, str) else saved).nodes
            self._saved = None
        return self._nodes

    def restore(self, saved: str | dict) -> None:
        """Replace the nodes by a saved fleet, `to_dict`'s document or its
        JSON text, decoded the first time the nodes are used."""
        self._nodes, self._saved = None, saved

    def get_or_create(self, hostname: str) -> SimNode:
        node = self.nodes.get(hostname)
        if node is None:
            node = self.nodes[hostname] = SimNode(hostname)
        return node

    def to_dict(self) -> dict:
        """The saved fleet: each distinct step once in "steps", in the
        order first met walking the nodes in fleet order, so the document
        does not depend on the hash seed; each node's log as indices into
        it."""
        steps: list[list[str]] = []
        # A build's payloads share their Step objects among the nodes, so a
        # lookup by identity almost always hits; the Step's own (Python-level)
        # hash is taken only for an object not met before.
        by_id: dict[int, int] = {}
        by_step: dict[Step, int] = {}
        nodes = []
        for node in self.nodes.values():
            log = []
            for step in node.log:
                i = by_id.get(id(step))
                if i is None:
                    i = by_step.get(step)
                    if i is None:
                        i = by_step[step] = len(steps)
                        # `_value_` is the kind's name, read without Enum's Python-level property.
                        steps.append([step.kind._value_, step.a, step.b])
                    by_id[id(step)] = i
                log.append(i)
            nodes.append(node.to_dict(log))
        return {"nodes": nodes, "steps": steps}

    @classmethod
    def from_dict(cls, data: dict) -> "Fleet":
        """Rebuild a saved fleet, of `to_dict`'s layout or of older ones,
        which have no step table."""
        fleet = cls()
        nodes = fleet.nodes
        table = data.get("steps")
        steps = {} if table is None else [Step(_STEP_KINDS[kind], a, b) for kind, a, b in table]
        for nd in data["nodes"]:
            node = SimNode.from_dict(nd, steps)
            nodes[node.id] = node
        return fleet


class VirtualClock:
    """Monotonic logical clock advanced by latency charges.

    Charges made while an action meter is open accumulate on that meter
    instead of moving global time; the executor folds meter totals into
    global time stage by stage, which is how a parallel stage costs its
    slot schedule's latest end rather than the sum of its actions.  The sim
    starts no worker threads (every action runs on the calling thread, and
    a failure stops dispatch at the failing action), so one meter stack
    serves all actions.
    """

    virtual = True

    def __init__(self) -> None:
        self._now = 0.0
        self._meters: list[float] = []

    def now_ms(self) -> float:
        return self._now

    def charge(self, ms: float) -> None:
        if self._meters:
            self._meters[-1] += ms
        else:
            self._now += ms

    def advance(self, ms: float) -> None:
        self._now += ms

    def begin_action(self) -> None:
        self._meters.append(0.0)

    def end_action(self) -> float:
        total = self._meters.pop()
        if self._meters:
            self._meters[-1] += total  # nested meters fold outward
        return total


class WallClock:
    """Real-time counterpart of VirtualClock for local/ssh transports."""

    virtual = False

    def __init__(self) -> None:
        self._meters = threading.local()

    def now_ms(self) -> float:
        import time

        return time.monotonic() * 1000.0

    def charge(self, ms: float) -> None:
        pass

    def advance(self, ms: float) -> None:
        pass

    def begin_action(self) -> None:
        stack = getattr(self._meters, "stack", None)
        if stack is None:
            stack = self._meters.stack = []
        stack.append(self.now_ms())

    def end_action(self) -> float:
        stack = self._meters.stack
        return self.now_ms() - stack.pop()
