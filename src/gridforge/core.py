"""Component model: lifecycle state machine, ports, bindings, composites.

Every deployable thing is a component with the four generic lifecycle
actions (install, start, stop, uninstall).  Ordering between components is
never stored here; it is derived from bindings by the planner.  Within a
composite the children are ordered by their bindings; composites stamped
from one node body share that order through a `ChildLayout`, sorted once on
first use, and one whose children gain a binding of their own is sorted
alone.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .errors import (
    ActionFailed,
    IllegalTransition,
    UnboundPort,
    UnknownComponent,
)


# Members hash by identity, in C, instead of through Enum's Python-level
# __hash__: the transition tables below are looked up on every action.
# Identity hashes follow memory addresses, so no set of members may be
# iterated where its order could reach an output.
class LifecycleState(Enum):
    UNINSTALLED = "Uninstalled"
    INSTALLED = "Installed"
    STARTED = "Started"

    __hash__ = object.__hash__


class LifecycleAction(Enum):
    INSTALL = "Install"
    START = "Start"
    STOP = "Stop"
    UNINSTALL = "Uninstall"

    __hash__ = object.__hash__


S = LifecycleState
A = LifecycleAction

# The four legal raw transitions of the lifecycle machine.
TRANSITIONS: dict[tuple[LifecycleState, LifecycleAction], LifecycleState] = {
    (S.UNINSTALLED, A.INSTALL): S.INSTALLED,
    (S.INSTALLED, A.START): S.STARTED,
    (S.STARTED, A.STOP): S.INSTALLED,
    (S.INSTALLED, A.UNINSTALL): S.UNINSTALLED,
}

# Shortest action path for every (state, target) pair; never longer than 2.
ENSURE_PATHS: dict[tuple[LifecycleState, LifecycleState], tuple[LifecycleAction, ...]] = {
    (S.UNINSTALLED, S.UNINSTALLED): (),
    (S.UNINSTALLED, S.INSTALLED): (A.INSTALL,),
    (S.UNINSTALLED, S.STARTED): (A.INSTALL, A.START),
    (S.INSTALLED, S.UNINSTALLED): (A.UNINSTALL,),
    (S.INSTALLED, S.INSTALLED): (),
    (S.INSTALLED, S.STARTED): (A.START,),
    (S.STARTED, S.UNINSTALLED): (A.STOP, A.UNINSTALL),
    (S.STARTED, S.INSTALLED): (A.STOP,),
    (S.STARTED, S.STARTED): (),
}

# The Behavior method that performs each action.
_HOOKS: dict[LifecycleAction, str] = {action: action.name.lower() for action in LifecycleAction}


class Behavior:
    """Per-kind lifecycle implementation.  Hooks may raise to abort an action.

    Hooks receive the component and the execution context (transport, clock,
    assembly); pure-model components ignore the context.
    """

    def install(self, component: "Component", ctx=None) -> None:
        pass

    def start(self, component: "Component", ctx=None) -> None:
        pass

    def stop(self, component: "Component", ctx=None) -> None:
        pass

    def uninstall(self, component: "Component", ctx=None) -> None:
        pass


@dataclass(slots=True)
class PortSpec:
    """A client port: a named requirement on some interface."""

    name: str
    interface: str
    required: bool = True


class Binding(NamedTuple):
    """Directed dependency: client's port is served by server's interface.

    A named tuple, not a frozen dataclass: generation builds one per port,
    and a tuple is built in C rather than by a setattr per field.
    """

    client: str
    port: str
    server: str
    interface: str


@dataclass(slots=True)
class Component:
    """A named deployable unit with lifecycle state and typed ports."""

    id: str
    kind: str
    provides: frozenset[str] = frozenset()
    ports: tuple[PortSpec, ...] = ()
    behavior: Behavior = field(default_factory=Behavior)
    args: dict = field(default_factory=dict)
    owner: str | None = None  # composite this component belongs to, if any
    state: LifecycleState = LifecycleState.UNINSTALLED
    bound: dict[str, Binding] = field(default_factory=dict)

    def unbound_required_ports(self) -> list[str]:
        return [p.name for p in self.ports if p.required and p.name not in self.bound]


class ChildLayout:
    """The child order shared by the composites stamped from one node body
    in one block, whose bindings between children are the same up to ids.

    `order` holds child positions, in the order `child_order` sorts them;
    it is filled on the first call, so a command that never drives a
    composite never sorts one."""

    __slots__ = ("order",)

    def __init__(self) -> None:
        self.order: tuple[int, ...] | None = None


@dataclass(slots=True)
class Composite:
    """Hierarchical grouping; children may be shared with other composites."""

    id: str
    kind: str
    children: dict[str, str] = field(default_factory=dict)  # role -> component id
    exports: dict[str, str] = field(default_factory=dict)  # interface -> child id
    ordinal: int = 0  # position among nodes sharing one hostname provider
    # Shared with the composites of the same body; None sorts this one alone.
    layout: ChildLayout | None = field(default=None, compare=False, repr=False)


class JournalRecord(NamedTuple):
    """One performed action.  A named tuple, as `Binding` is: the executor
    makes one per transition."""

    timestamp: str
    component_id: str
    action: LifecycleAction
    ok: bool
    millis: float

    def line(self) -> str:
        outcome = "ok" if self.ok else "fail"
        # `_value_` is the member's value, read without Enum's Python-level property.
        return f"{self.timestamp} {self.component_id} {self.action._value_} {outcome} {self.millis:.3f}"


class Journal:
    """Append-only action log.  Appends take no lock, since the sim runs
    every action on the calling thread; worker threads append only inside
    `shared()`."""

    def __init__(self) -> None:
        self._records: list[JournalRecord] = []
        self.append = self._records.append
        self._second: tuple[int, str] = (-1, "")  # last second stamped, formatted
        self._last: tuple[int, str] = (-1, "")  # last millisecond stamped, and its stamp

    def stamp(self) -> str:
        """The UTC time now, as isoformat(timespec="milliseconds") writes it;
        the date and time of day are formatted once per second, and the
        records of one millisecond share one stamp.  Two threads may both
        format a stamp; they agree."""
        now = time.time_ns() // 1_000_000
        last = self._last
        if last[0] == now:
            return last[1]
        second, ms = divmod(now, 1000)
        cached = self._second
        if cached[0] != second:
            cached = self._second = (second, time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(second)))
        stamp = f"{cached[1]}.{ms:03d}+00:00"
        self._last = (now, stamp)
        return stamp

    @contextmanager
    def shared(self) -> Iterator[None]:
        """For the duration, every append takes one lock, so that a pool's
        worker threads may append side by side."""
        lock = threading.Lock()
        append = self._records.append

        def locked(record: JournalRecord) -> None:
            with lock:
                append(record)

        self.append = locked
        try:
            yield
        finally:
            self.append = append

    def records(self) -> list[JournalRecord]:
        return list(self._records)

    def export_lines(self) -> list[str]:
        return [r.line() for r in self._records]

    def __len__(self) -> int:
        return len(self._records)


def replay(records: list[JournalRecord]) -> dict[str, LifecycleState]:
    """Recompute final states from a journal, starting everything Uninstalled."""
    states: dict[str, LifecycleState] = {}
    for rec in records:
        if not rec.ok:
            continue
        current = states.get(rec.component_id, LifecycleState.UNINSTALLED)
        states[rec.component_id] = TRANSITIONS[(current, rec.action)]
    return states


class Assembly:
    """A set of components, composites and the bindings between them.

    Also carries the planner's inputs (services, groups, shared units, node
    assignment), which generation fills in.  Owns the execution journal.
    Lifecycle actions are single-writer per component; the caller (normally
    the runtime executor) guarantees that.
    """

    def __init__(self) -> None:
        self.components: dict[str, Component] = {}
        self.composites: dict[str, Composite] = {}
        self.bindings: list[Binding] = []
        self.services: list = []  # assembly.ServiceEntry, declaration order
        self.groups: dict[str, list[str]] = {}  # group id -> member ids
        self.shared: list[str] = []  # top-level infrastructure component ids
        self.node_assignment: dict[str, str] = {}  # service id -> node id
        self.journal = Journal()

    # -- construction ----------------------------------------------------

    def provider_id(self, target: str, interface: str) -> str | None:
        """Resolve a component-or-composite id to the component serving
        `interface` (composites answer through their exports)."""
        if target in self.composites:
            return self.composites[target].exports.get(interface)
        comp = self.components.get(target)
        if comp is not None and interface in comp.provides:
            return comp.id
        return None

    def add_binding(self, binding: Binding) -> Binding:
        """Record a binding of an existing client without checking it;
        validate() reports what is wrong with it.  A binding between two
        children of one composite gives that composite its own child order."""
        client = self.components[binding.client]
        client.bound[binding.port] = binding
        self.bindings.append(binding)
        if client.owner is not None:
            server = self.components.get(binding.server)
            if server is not None and server.owner == client.owner:
                composite = self.composites.get(client.owner)
                if composite is not None:
                    composite.layout = None
        return binding

    def dependency_graph(self) -> dict[str, list[str]]:
        """component id -> the components its ports are bound to, in binding order."""
        return {
            cid: [b.server for b in c.bound.values() if b.server in self.components]
            for cid, c in self.components.items()
        }

    # -- lifecycle -------------------------------------------------------

    def transition(self, component_id: str, action: LifecycleAction, ctx=None) -> LifecycleState:
        """Run one raw lifecycle action.  State is untouched if the hook fails."""
        component = self.components.get(component_id)
        if component is None:
            raise UnknownComponent(component_id)
        reached = TRANSITIONS.get((component.state, action))
        if reached is None:
            raise IllegalTransition(component_id, component.state, action)
        bound = component.bound
        for port in component.ports:
            if port.required and port.name not in bound:
                missing = ", ".join(component.unbound_required_ports())
                raise UnboundPort(f"{component_id}: required ports unbound: {missing}")
        clock = getattr(ctx, "clock", None)
        if clock is None:
            started = time.monotonic()
        else:
            clock.begin_action()
        try:
            getattr(component.behavior, _HOOKS[action])(component, ctx)
            failure = None
        except Exception as exc:
            failure = exc
        millis = clock.end_action() if clock is not None else (time.monotonic() - started) * 1000.0
        journal = self.journal
        journal.append(JournalRecord(journal.stamp(), component_id, action, failure is None, millis))
        if failure is not None:
            raise ActionFailed(component_id, action, failure) from failure
        component.state = reached
        return reached

    def transitions_to(self, target_id: str, target: LifecycleState) -> list[tuple[str, LifecycleAction]]:
        """The (component id, action) pairs that drive a component or a
        composite to `target` from the current states, in order.

        A component follows its shortest legal path; a composite cascades
        over its children in dependency order, reversed when tearing down.
        Children already at `target` contribute nothing, so driving a shared
        child through a second parent is a no-op.
        """
        if target_id in self.composites:
            components = self.components
            children = self.composites[target_id].children.values()
            if all(components[c].state is target for c in children if c in components):
                return []
            order = self.child_order(target_id)
            if target is LifecycleState.UNINSTALLED:
                order.reverse()
        elif target_id in self.components:
            order = [target_id]
        else:
            raise UnknownComponent(target_id)
        return [
            (cid, action)
            for cid in order
            for action in ENSURE_PATHS[(self.components[cid].state, target)]
        ]

    def ensure(self, target_id: str, target: LifecycleState, ctx=None) -> list[tuple[str, LifecycleAction]]:
        """Perform transitions_to(target_id, target) and return the pairs.

        Idempotent: returns [] when already there.  On a hook failure the
        failing component stays in the last state it actually reached.
        """
        performed = self.transitions_to(target_id, target)
        for cid, action in performed:
            self.transition(cid, action, ctx)
        return performed

    def child_order(self, composite_id: str) -> list[str]:
        """Children of a composite, topologically sorted by their bindings.

        Declaration order breaks ties.  Only edges between two children of
        this composite count; external dependencies are the planner's job.
        Composites that share a layout are sorted once, on the first call,
        and each reads the shared order by position.
        """
        composite = self.composites[composite_id]
        layout = composite.layout
        if layout is None:
            return self._sorted_children(composite)
        children = list(composite.children.values())
        if layout.order is None:
            position = {cid: i for i, cid in enumerate(children)}
            layout.order = tuple([position[cid] for cid in self._sorted_children(composite)])
        return [children[i] for i in layout.order]

    def _sorted_children(self, composite: Composite) -> list[str]:
        members = [cid for cid in composite.children.values() if cid in self.components]
        member_set = set(members)
        deps: dict[str, set[str]] = {
            m: {b.server for b in self.components[m].bound.values() if b.server in member_set}
            for m in members
        }
        order: list[str] = []
        placed: set[str] = set()
        remaining = list(members)
        while remaining:
            ready = [m for m in remaining if deps[m] <= placed]
            if not ready:
                # cycle inside a composite; surface deterministically
                ready = [remaining[0]]
            order.extend(ready)
            placed.update(ready)
            remaining = [m for m in remaining if m not in placed]
        return order

    def status(self) -> dict[str, LifecycleState]:
        return {cid: c.state for cid, c in self.components.items()}
