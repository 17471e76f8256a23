"""Component model: lifecycle state machine, ports, bindings, composites.

Every deployable thing is a component with the four generic lifecycle
actions (install, start, stop, uninstall), which its kind's `Behavior`
performs through one method, `act`.  Ordering between components is
never stored here; it is derived from bindings by the planner.  Within a
composite the children are ordered by their bindings: generation fixes the
order of each node body once and the composites stamped from it share it
(`Composite.order`).  Time is not measured here: the executor meters each
plan action, whatever transitions it takes (`runtime._measured`).
"""

from __future__ import annotations

import threading
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


class Behavior:
    """Per-kind lifecycle implementation.

    `act(action, component, ctx=None)` performs one lifecycle action and
    may raise to abort it; it receives the execution context (transport,
    clock, assembly), which pure-model components ignore.  The base class
    has no `act` (None): its components' actions do nothing, so
    `Assembly.transition` calls nothing for them.
    """

    act = None


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


@dataclass(slots=True)
class Composite:
    """Hierarchical grouping; children may be shared with other composites."""

    id: str
    kind: str
    children: dict[str, str] = field(default_factory=dict)  # role -> component id
    exports: dict[str, str] = field(default_factory=dict)  # interface -> child id
    ordinal: int = 0  # position among nodes sharing one hostname provider
    # Child positions in `child_order`'s order, which generation fixes and
    # the composites wired alike share.
    order: tuple[int, ...] = field(default=(), compare=False, repr=False)


class JournalRecord(NamedTuple):
    """One performed action.  A named tuple, as `Binding` is: the executor
    makes one per transition.  What it cost is metered once per plan
    action, by the executor (`runtime.ActionOutcome.millis`)."""

    component_id: str
    action: LifecycleAction
    ok: bool


class Journal:
    """Append-only log of the actions one command performed.  It is not
    saved: a command reads its length to know whether it changed anything.
    Appends take no lock, since the sim runs every action on the calling
    thread; worker threads append only inside `shared()`."""

    def __init__(self) -> None:
        self._records: list[JournalRecord] = []
        self.append = self._records.append

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
        """Record a binding of an existing client.  Its server is not
        checked: the caller resolves it first, as generation does."""
        self.components[binding.client].bound[binding.port] = binding
        self.bindings.append(binding)
        return binding

    def dependency_graph(self) -> dict[str, list[str]]:
        """component id -> the components its ports are bound to, in binding order."""
        return {
            cid: [b.server for b in c.bound.values()]
            for cid, c in self.components.items()
        }

    # -- lifecycle -------------------------------------------------------

    def transition(self, component_id: str, action: LifecycleAction, ctx=None) -> LifecycleState:
        """Run one raw lifecycle action.  State is untouched if `act` fails,
        but the failure is journalled (`ok` False) before `ActionFailed` is
        raised.

        A behaviour without an `act` does nothing and is not called.  The
        record is built in C (`tuple.__new__`), as generation builds
        bindings."""
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
        act = component.behavior.act
        if act is not None:
            try:
                act(action, component, ctx)
            except Exception as exc:
                self.journal.append(tuple.__new__(JournalRecord, (component_id, action, False)))
                raise ActionFailed(component_id, action, exc) from exc
        self.journal.append(tuple.__new__(JournalRecord, (component_id, action, True)))
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
        components = self.components
        if target_id in self.composites:
            for child in self.composites[target_id].children.values():
                if components[child].state is not target:
                    break
            else:
                return []
            order = self.child_order(target_id)
            if target is LifecycleState.UNINSTALLED:
                order.reverse()
        elif target_id in components:
            order = [target_id]
        else:
            raise UnknownComponent(target_id)
        pairs = []
        for cid in order:
            for action in ENSURE_PATHS[(components[cid].state, target)]:
                pairs.append((cid, action))
        return pairs

    def ensure(self, target_id: str, target: LifecycleState, ctx=None) -> list[tuple[str, LifecycleAction]]:
        """Perform transitions_to(target_id, target) and return the pairs.

        Idempotent: returns [] when already there.  On a failed action the
        failing component stays in the last state it actually reached.
        """
        performed = self.transitions_to(target_id, target)
        for cid, action in performed:
            self.transition(cid, action, ctx)
        return performed

    def child_order(self, composite_id: str) -> list[str]:
        """Children of a composite in the order generation fixed: bound
        children after their servers among its children, declaration order
        breaking ties.  External dependencies are the planner's job."""
        composite = self.composites[composite_id]
        children = list(composite.children.values())
        return list(map(children.__getitem__, composite.order))

    def status(self) -> dict[str, LifecycleState]:
        return {cid: c.state for cid, c in self.components.items()}
