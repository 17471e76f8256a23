"""Reusable infrastructure components: hosts, ports, users, protocols, shells.

Each kind is an ordinary lifecycle component.  A build makes one behavior
per kind, shared by every component of that kind, so `act` and queries
read the component's own `args`.  Host, port and user behaviors answer
queries (`get`, `key_path`); protocols, shells, file transfer and the
node-ready barrier run the base `Behavior`, because their mechanism is the
transport itself.  A behavior that runs steps, `ScriptBehavior`, reaches
its node through `shell_access`, which follows the shell's bindings
(`resolve_access`), never globals.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

from .core import Behavior, Component, PortSpec
from .errors import IndexOutOfRange, NodeListMissing, UnboundPort
from .transports import NodeAccess

# Interface names (what a provided port is called on the wire).
HOSTNAME = "Hostname"
PORT = "Port"
USER = "User"
PROTOCOL = "Protocol"
SHELL = "Shell"
TRANSFER = "Transfer"
NODELIST = "NodeList"
NODE = "Node"


@dataclass(frozen=True)
class ParamSpec:
    name: str
    kind: str = "str"  # str | int | path | resources
    required: bool = True
    default: object = None


@dataclass(frozen=True)
class KindSpec:
    """Registry entry: how to build one component kind."""

    name: str
    provides: frozenset
    ports: tuple = ()
    params: tuple = ()
    factory: object = Behavior  # callable() -> Behavior, called once per kind per build
    composite: bool = False  # node template: children + defaults
    group: bool = False  # members deploy as one parallel stage
    root: bool = False  # deployment container
    defaults: tuple = ()  # (role, kind) pairs filled into composites

    @cached_property
    def required_params(self) -> int:
        """How many arguments a constructor call must give at least."""
        return sum(1 for p in self.params if p.required)


# -- binding resolution helpers --------------------------------------------


def bound_component(assembly, component: Component, port: str) -> Component | None:
    binding = component.bound.get(port)
    return assembly.components[binding.server] if binding else None


def node_ordinal(assembly, component: Component) -> int:
    if component.owner and component.owner in assembly.composites:
        return assembly.composites[component.owner].ordinal
    return 0


def resolve_access(assembly, protocol: Component) -> NodeAccess:
    """Compute connection parameters from a protocol component's bindings."""
    host = bound_component(assembly, protocol, "hostname")
    if host is None:
        raise UnboundPort(f"{protocol.id}: hostname port unbound")
    hostname = host.behavior.get(host, node_ordinal(assembly, protocol))
    port_comp = bound_component(assembly, protocol, "port")
    port = port_comp.behavior.get(port_comp) if port_comp else 22
    user_comp = bound_component(assembly, protocol, "user")
    login, identity = ("", "")
    if user_comp:
        login = user_comp.args.get("login", "")
        identity = user_comp.behavior.key_path(user_comp)
    return NodeAccess(hostname=hostname, port=port, user=login, identity=identity)


def shell_access(ctx, shell: Component) -> NodeAccess:
    """The access of the node a shell component reaches, resolved once per
    shell per run: kept in `ctx.access` by shell id.  A failure is not
    kept, so a nodelist missing before the reservation runs raises on
    every try.  Two pool threads may both resolve a shell; they agree."""
    access = ctx.access.get(shell.id)
    if access is None:
        protocol = bound_component(ctx.assembly, shell, "protocol")
        if protocol is None:
            raise UnboundPort(f"{shell.id}: protocol port unbound")
        access = ctx.access[shell.id] = resolve_access(ctx.assembly, protocol)
    return access


# -- behaviors ---------------------------------------------------------------


class StaticHostBehavior(Behavior):
    def get(self, component: Component, index: int = 0) -> str:
        return component.args["value"]


class DynamicHostBehavior(Behavior):
    """Hostname provider backed by nodelist files, each read on first use
    and kept for the rest of the build: a snapshot per `path` argument."""

    def __init__(self) -> None:
        self._lines: dict[str, list[str]] = {}

    def get(self, component: Component, index: int = 0) -> str:
        raw = component.args["path"]
        lines = self._lines.get(raw)
        if lines is None:
            path = os.path.expanduser(raw)
            if not os.path.exists(path):
                raise NodeListMissing(f"nodelist {raw} absent; has the reservation run?")
            with open(path, encoding="utf-8") as fh:
                lines = self._lines[raw] = [ln.strip() for ln in fh if ln.strip()]
        if index >= len(lines):
            raise IndexOutOfRange(
                f"node index {index} but nodelist {raw} has {len(lines)} entries"
            )
        return lines[index]


class PortBehavior(Behavior):
    def get(self, component: Component) -> int:
        return int(component.args["value"])


class UserBehavior(Behavior):
    def key_path(self, component: Component) -> str:
        # Heuristic: path-shaped credentials are key files, others passwords.
        cred = component.args.get("credential", "")
        if cred.startswith(("~", "/", ".")) or "/" in cred:
            return cred
        return ""


def _spec(name, provides, ports=(), params=(), **kw) -> KindSpec:
    return KindSpec(
        name=name,
        provides=frozenset(provides),
        ports=tuple(ports),
        params=tuple(params),
        **kw,
    )


BUILTIN_KINDS: tuple[KindSpec, ...] = (
    _spec(
        "StaticHost",
        [HOSTNAME],
        params=[ParamSpec("value")],
        factory=StaticHostBehavior,
    ),
    _spec(
        "DynamicHost",
        [HOSTNAME],
        ports=[PortSpec("nodelist", NODELIST, required=False)],
        params=[ParamSpec("path", kind="path")],
        factory=DynamicHostBehavior,
    ),
    _spec("Port", [PORT], params=[ParamSpec("value", kind="int")], factory=PortBehavior),
    _spec(
        "User",
        [USER],
        params=[ParamSpec("login"), ParamSpec("credential", required=False, default="")],
        factory=UserBehavior,
    ),
    _spec(
        "SSH",
        [PROTOCOL],
        ports=[
            PortSpec("hostname", HOSTNAME),
            PortSpec("port", PORT, required=False),
            PortSpec("user", USER, required=False),
        ],
    ),
    _spec("SH", [SHELL], ports=[PortSpec("protocol", PROTOCOL)]),
    _spec("FileTransfer", [TRANSFER], ports=[PortSpec("shell", SHELL)]),
    _spec("NodeReady", [NODE]),
)
