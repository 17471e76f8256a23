"""Transports carry rendered steps to nodes: simulated, local shell, ssh.

A payload holds both the structured steps and their rendered sh script.
The sim transport interprets the steps against SimNodes and charges the
virtual clock; local and ssh run the script through a real shell.
"""

from __future__ import annotations

import os
import shlex
import zlib
from dataclasses import dataclass
from functools import cached_property

from .errors import AuthFailed, ConnectFailed, TransportError
from .simgrid import Fleet, SimClockConfig, VirtualClock, jittered
from .steps import Step, render_sh

SSH_CONNECT_TIMEOUT = 10  # seconds ssh waits for a node to answer


@dataclass(frozen=True, slots=True)
class NodeAccess:
    """Resolved connection parameters for one node; a run keeps one per
    node shell."""

    hostname: str
    port: int = 22
    user: str = ""
    identity: str = ""

    @property
    def target(self) -> str:
        return f"{self.user}@{self.hostname}" if self.user else self.hostname


@dataclass(frozen=True)
class Payload:
    steps: tuple[Step, ...]
    script: str

    @classmethod
    def of(cls, steps: list[Step] | tuple[Step, ...]) -> "Payload":
        return cls(tuple(steps), render_sh(list(steps)))

    @cached_property
    def digest(self) -> str:
        return format(zlib.crc32(self.script.encode()), "08x")

    @cached_property
    def step_keys(self) -> tuple[bytes, ...]:
        """Each step's index as it ends the step's jitter key: b"0", b"1", ..."""
        return tuple(str(i).encode() for i in range(len(self.steps)))


class Transport:
    name = "abstract"

    def send(self, access: NodeAccess, payload: Payload) -> tuple[int, str]:
        raise NotImplementedError

    def exists(self, access: NodeAccess, path: str) -> bool:
        raise NotImplementedError


class SimTransport(Transport):
    """Applies steps to a simulated fleet, charging virtual latencies.

    Unknown hostnames are materialized on first contact: the fleet stands
    in for whatever the reservation handed out.
    """

    name = "sim"

    def __init__(self, fleet: Fleet, clock: VirtualClock, config: SimClockConfig | None = None):
        self.fleet = fleet
        self.clock = clock
        self.config = config or SimClockConfig()

    def send(self, access: NodeAccess, payload: Payload) -> tuple[int, str]:
        """Jitter keys `seed|node|digest|connect` and `seed|node|digest|<i>`
        share a prefix: its crc32 is taken once and continued with each
        suffix, which equals the crc32 of the whole key.  A step's jitter is
        `jittered`'s expression written inline, over the payload's
        `step_keys`, so each step makes one Python call, its `charge`."""
        node = self.fleet.get_or_create(access.hostname)
        cfg = self.config
        charge = self.clock.charge
        seed = cfg.jitter_seed
        if seed:
            prefix = zlib.crc32(f"{seed}|{node.id}|{payload.digest}|".encode())
            charge(jittered(cfg.connect_latency, zlib.crc32(b"connect", prefix)))
            keys = payload.step_keys
        else:
            charge(cfg.connect_latency)
        step_ms = cfg.step_latency
        outputs: list[str] = []
        for i, step in enumerate(payload.steps):
            charge(step_ms * (0.9 + 0.2 * (zlib.crc32(keys[i], prefix) / 0xFFFFFFFF)) if seed else step_ms)
            status, out = node.apply(step)
            if out:
                outputs.append(out)
            if status != 0:
                return status, "\n".join(outputs)
        return 0, "\n".join(outputs)

    def exists(self, access: NodeAccess, path: str) -> bool:
        node = self.fleet.get_or_create(access.hostname)
        cfg = self.config
        self.clock.charge(cfg.latency(cfg.connect_latency, node.id, path, "probe"))
        return node.exists(path)


class LocalTransport(Transport):
    """Runs the rendered script on this machine in a single sh session."""

    name = "local"

    def send(self, access: NodeAccess, payload: Payload) -> tuple[int, str]:
        if not payload.script:
            return 0, ""
        import subprocess
        proc = subprocess.run(
            ["sh", "-c", "set -e\n" + payload.script],
            capture_output=True,
            text=True,
        )
        return proc.returncode, proc.stdout + proc.stderr

    def exists(self, access: NodeAccess, path: str) -> bool:
        return os.path.exists(os.path.expanduser(path))


class SshTransport(Transport):
    """Invokes the system ssh client; one session per payload."""

    name = "ssh"

    def command(self, access: NodeAccess, script: str) -> list[str]:
        argv = ["ssh", "-o", "BatchMode=yes", "-o", f"ConnectTimeout={SSH_CONNECT_TIMEOUT}"]
        if access.port != 22:
            argv += ["-p", str(access.port)]
        if access.identity:
            argv += ["-i", os.path.expanduser(access.identity)]
        argv.append(access.target)
        argv.append(script)
        return argv

    def send(self, access: NodeAccess, payload: Payload) -> tuple[int, str]:
        if not payload.script:
            return 0, ""
        import subprocess
        argv = self.command(access, "set -e\n" + payload.script)
        try:
            proc = subprocess.run(argv, capture_output=True, text=True)
        except OSError as exc:
            raise TransportError(f"ssh invocation failed: {exc}") from exc
        output = proc.stdout + proc.stderr
        if proc.returncode == 255:
            if "Permission denied" in output:
                raise AuthFailed(f"{access.target}: {output.strip()}")
            raise ConnectFailed(f"{access.target}: {output.strip()}")
        return proc.returncode, output

    def exists(self, access: NodeAccess, path: str) -> bool:
        status, _ = self.send(access, Payload(steps=(), script=f"test -e {shlex.quote(path)}"))
        return status == 0
