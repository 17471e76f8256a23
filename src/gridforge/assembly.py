"""Assembly generation, validation, and deployment planning.

generate() compiles an expanded configuration against the kind registry
into the live component model (`core.Assembly`): every component with its
behaviour, every binding, every composite, plus the services, groups and
shared units the planner reads.  The runtime executes that same object.
validate() returns diagnostics instead of raising so callers can show all
problems at once.  plan() turns the binding graph into ordered stages;
bindings are the only source of ordering constraints, declaration order is
the only tie-break.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Assembly, Binding, Component, Composite, LifecycleState, PortSpec
from .dsl import Block, Ctor, Entry, ExpandedConfig, Ref
from .errors import (
    ArityMismatch,
    ConfigError,
    CyclicDependency,
    DanglingNodeRef,
    UnknownKind,
)
from .personalities import Registry
from .stdlib import HOSTNAME, NODE, NODELIST, KindSpec

SERVICE_BLOCKS = frozenset({"services"})
BARRIER_ROLE = "ready"


@dataclass(frozen=True)
class ServiceEntry:
    id: str
    group: str | None = None


# -- generation ---------------------------------------------------------------


class _Generator:
    def __init__(self, config: ExpandedConfig, registry: Registry):
        self.config = config
        self.registry = registry
        self.asm = Assembly()
        self._pending_roles: dict[str, dict[str, str]] = {}
        self._barrier_ports: dict[tuple, tuple[PortSpec, ...]] = {}  # (role, interface) pairs -> ports

    def run(self) -> Assembly:
        for entry in self.config.root.entries:
            if not isinstance(entry.value, Block):
                raise ConfigError(
                    f"top-level entry {entry.name} must be a block",
                    entry.span.line,
                    entry.span.column,
                )
            in_services = entry.name in SERVICE_BLOCKS
            for child in entry.value.entries:
                self._block_entry(entry.name, child, in_services)
        self._autobind()
        self._assign_ordinals()
        self._bind_nodelists()
        self._assign_nodes()
        return self.asm

    # entry dispatch

    def _block_entry(self, block: str, entry: Entry, in_services: bool) -> None:
        value = entry.value
        if isinstance(value, Ref):
            raise ConfigError(
                f"{block}/{entry.name}: references are only valid inside component bodies",
                entry.span.line,
                entry.span.column,
            )
        if isinstance(value, Block):
            raise ConfigError(
                f"{block}/{entry.name}: nested plain blocks are not supported",
                entry.span.line,
                entry.span.column,
            )
        spec = self._kind(value, entry)
        if spec.composite:
            self._composite(block, entry, spec)
        elif spec.group:
            if not in_services:
                raise ConfigError(
                    f"{block}/{entry.name}: {spec.name} groups belong in services",
                    entry.span.line,
                    entry.span.column,
                )
            self._group(block, entry)
        elif spec.root:
            raise ConfigError(
                f"{block}/{entry.name}: {spec.name} cannot be nested",
                entry.span.line,
                entry.span.column,
            )
        else:
            cid = f"{block}/{entry.name}"
            self._component(cid, spec, self._args(value, spec), None)
            if in_services:
                self.asm.services.append(ServiceEntry(cid))
                self._service_bindings(cid, entry, spec)
            else:
                self.asm.shared.append(cid)

    def _kind(self, value: Ctor, entry: Entry) -> KindSpec:
        spec = self.registry.get(value.kind)
        if spec is None:
            raise UnknownKind(
                f"unknown kind {value.kind!r} for {entry.name}",
                value.span.line,
                value.span.column,
            )
        return spec

    def _args(self, value: Ctor, spec: KindSpec) -> dict:
        params = spec.params
        required = spec.required_params
        if not (required <= len(value.args) <= len(params)):
            raise ArityMismatch(
                f"{spec.name} takes {required}..{len(params)} arguments, got {len(value.args)}",
                value.span.line,
                value.span.column,
            )
        args: dict = {}
        for param, arg in zip(params, value.args):
            if param.kind == "int" and arg.kind != "int":
                raise ArityMismatch(
                    f"{spec.name}: parameter {param.name} wants an integer, got {arg.text!r}",
                    arg.span.line,
                    arg.span.column,
                )
            if param.kind == "resources" and arg.kind not in ("resources", "str"):
                raise ArityMismatch(
                    f"{spec.name}: parameter {param.name} wants key=count resources",
                    arg.span.line,
                    arg.span.column,
                )
            args[param.name] = arg.value if param.kind == "int" else arg.text
        for param in params[len(value.args) :]:
            if param.default is not None:
                args[param.name] = param.default
        return args

    def _component(
        self, cid: str, spec: KindSpec, args: dict, owner: str | None, ports: tuple | None = None
    ) -> None:
        self.asm.components[cid] = Component(
            id=cid,
            kind=spec.name,
            provides=spec.provides,
            ports=spec.ports if ports is None else ports,
            behavior=spec.behavior(args),
            args=args,
            owner=owner,
        )

    # composites

    def _composite(self, block: str, entry: Entry, spec: KindSpec) -> None:
        comp_id = f"{block}/{entry.name}"
        body = entry.value.body or Block()
        roles: list[tuple[str, object]] = []
        declared = set()
        for child in body.entries:
            declared.add(child.name)
            roles.append((child.name, child))
        for role, kind_name in spec.defaults:
            if role not in declared:
                roles.append((role, Entry(role, Ctor(kind_name), entry.span)))

        composite = Composite(id=comp_id, kind=spec.name)
        self.asm.composites[comp_id] = composite
        role_refs: dict[str, str] = {}
        for role, child in roles:
            if role == BARRIER_ROLE:
                raise ConfigError(
                    f"{comp_id}/{role}: role name {BARRIER_ROLE!r} is reserved for the node's readiness barrier",
                    child.span.line,
                    child.span.column,
                )
            value = child.value
            if isinstance(value, Ref):
                role_refs[role] = "/".join(value.path)
                continue
            if isinstance(value, Block):
                raise ConfigError(
                    f"{comp_id}/{role}: plain blocks are not valid node roles",
                    child.span.line,
                    child.span.column,
                )
            child_spec = self._kind(value, child)
            if value.body is not None and value.body.entries:
                raise ConfigError(
                    f"{comp_id}/{role}: nested bodies are not supported here",
                    child.span.line,
                    child.span.column,
                )
            child_id = f"{comp_id}/{role}"
            self._component(child_id, child_spec, self._args(value, child_spec), comp_id)
            composite.children[role] = child_id

        barrier_id = f"{comp_id}/{BARRIER_ROLE}"
        signature = tuple(
            (role, min(self.asm.components[child_id].provides, default=""))
            for role, child_id in composite.children.items()
        )
        barrier_ports = self._barrier_ports.get(signature)
        if barrier_ports is None:
            barrier_ports = self._barrier_ports[signature] = tuple(
                PortSpec(role, iface, required=True) for role, iface in signature
            )
        barrier_spec = self.registry.get("NodeReady")
        self._component(barrier_id, barrier_spec, {}, comp_id, barrier_ports)
        for port, child_id in zip(barrier_ports, composite.children.values()):
            self.asm.add_binding(Binding(barrier_id, port.name, child_id, port.interface))
        composite.children[BARRIER_ROLE] = barrier_id

        for role, child_id in composite.children.items():
            for iface in sorted(self.asm.components[child_id].provides):
                composite.exports.setdefault(iface, child_id)
        composite.exports[NODE] = barrier_id
        self._pending_roles[comp_id] = role_refs

    def _group(self, block: str, entry: Entry) -> None:
        group_id = f"{block}/{entry.name}"
        body = entry.value.body or Block()
        members: list[str] = []
        for child in body.entries:
            if not isinstance(child.value, Ctor):
                raise ConfigError(
                    f"{group_id}: group members must be constructors",
                    child.span.line,
                    child.span.column,
                )
            spec = self._kind(child.value, child)
            cid = f"{group_id}/{child.name}"
            self._component(cid, spec, self._args(child.value, spec), None)
            self.asm.services.append(ServiceEntry(cid, group=group_id))
            self._service_bindings(cid, child, spec)
            members.append(cid)
        self.asm.groups[group_id] = members

    # bindings

    def _service_bindings(self, cid: str, entry: Entry, spec: KindSpec) -> None:
        body = entry.value.body or Block()
        ports = {p.name: p for p in spec.ports}
        for child in body.entries:
            if not isinstance(child.value, Ref):
                raise ConfigError(
                    f"{cid}/{child.name}: service bodies hold only references",
                    child.span.line,
                    child.span.column,
                )
            port = ports.get(child.name)
            if port is None:
                raise ConfigError(
                    f"{cid}: kind {spec.name} has no port named {child.name!r}",
                    child.span.line,
                    child.span.column,
                )
            target = "/".join(child.value.path)
            server = self.asm.provider_id(target, port.interface)
            if server is None:
                raise DanglingNodeRef(
                    f"{cid}: {child.name} = {target} provides no {port.interface}",
                    child.span.line,
                    child.span.column,
                )
            self.asm.add_binding(Binding(cid, port.name, server, port.interface))

    def _autobind(self) -> None:
        """Wire unbound ports inside composites by interface matching.

        A same-named role reference wins, then a sibling, then any role
        reference, then a shared component of the composite's block.
        """
        components = self.asm.components
        shared_of: dict[str, dict[str, str]] = {}  # block -> interface -> first shared provider
        for composite in self.asm.composites.values():
            role_refs = self._pending_roles.get(composite.id, {})
            siblings: dict[str, list[str]] = {}  # interface -> children providing it, in order
            for cid in composite.children.values():
                for iface in components[cid].provides:
                    siblings.setdefault(iface, []).append(cid)
            block = composite.id.rsplit("/", 1)[0]
            shared = shared_of.get(block)
            if shared is None:
                shared = shared_of[block] = self._shared_providers(block)
            for role, cid in composite.children.items():
                if role == BARRIER_ROLE:
                    continue
                child = components[cid]
                for port in child.ports:
                    if port.name in child.bound:
                        continue
                    server = self._find_provider(role_refs, siblings, shared, cid, port)
                    if server is not None:
                        self.asm.add_binding(Binding(cid, port.name, server, port.interface))

    def _shared_providers(self, block: str) -> dict[str, str]:
        """interface -> the first shared component of `block` providing it."""
        providers: dict[str, str] = {}
        for cid in self.asm.shared:
            if cid.startswith(block + "/"):
                for iface in self.asm.components[cid].provides:
                    providers.setdefault(iface, cid)
        return providers

    def _find_provider(self, role_refs, siblings, shared, client_id, port) -> str | None:
        if port.name in role_refs:
            server = self.asm.provider_id(role_refs[port.name], port.interface)
            if server is not None:
                return server
        for cid in siblings.get(port.interface, ()):
            if cid != client_id:
                return cid
        for target in role_refs.values():
            server = self.asm.provider_id(target, port.interface)
            if server is not None:
                return server
        return shared.get(port.interface)

    def _assign_ordinals(self) -> None:
        """Number each composite among those resolving hostnames through
        the same provider; the index picks the provider's nodelist line.
        Nodes with their own static host are alone in their group."""
        hostname_server: dict[str, str] = {}
        for binding in self.asm.bindings:
            if binding.interface != HOSTNAME:
                continue
            client = self.asm.components.get(binding.client)
            if client is not None and client.owner:
                hostname_server.setdefault(client.owner, binding.server)
        counters: dict[str, int] = {}
        for composite in self.asm.composites.values():
            provider = hostname_server.get(composite.id, composite.id)
            composite.ordinal = counters.get(provider, 0)
            counters[provider] = composite.ordinal + 1

    def _bind_nodelists(self) -> None:
        """Dynamic hostname resolvers depend on whichever service publishes
        the nodelist file they read (path equality)."""
        providers = [
            c
            for c in self.asm.components.values()
            if NODELIST in c.provides and "nodelist" in c.args
        ]
        if not providers:
            return
        for comp in self.asm.components.values():
            for port in comp.ports:
                if port.interface == NODELIST:
                    break
            else:
                continue
            if port.name in comp.bound:
                continue
            path = comp.args.get("path")
            for provider in providers:
                if provider.args["nodelist"] == path:
                    self.asm.add_binding(Binding(comp.id, port.name, provider.id, NODELIST))
                    break

    def _assign_nodes(self) -> None:
        barrier_owner = {
            c.children[BARRIER_ROLE]: c.id for c in self.asm.composites.values()
        }
        node_server = {b.client: b.server for b in self.asm.bindings if b.interface == NODE}
        for service in self.asm.services:
            server = node_server.get(service.id)
            if server is not None:
                self.asm.node_assignment[service.id] = barrier_owner.get(server, server)


def generate(config: ExpandedConfig, registry: Registry) -> Assembly:
    return _Generator(config, registry).run()


# -- validation ---------------------------------------------------------------


@dataclass(frozen=True)
class Diagnostic:
    code: str
    subject: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}: {self.subject}: {self.detail}"


def _acyclic(graph: dict) -> bool:
    """Kahn's algorithm: can every node be peeled off with no edge left
    into it?  Edges to nodes outside the graph do not count."""
    indegree = dict.fromkeys(graph, 0)
    for succs in graph.values():
        for succ in succs:
            if succ in indegree:
                indegree[succ] += 1
    ready = [node for node, degree in indegree.items() if degree == 0]
    peeled = 0
    while ready:
        peeled += 1
        for succ in graph[ready.pop()]:
            if succ in indegree:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
    return peeled == len(indegree)


def _strongly_connected(graph: dict) -> list[list[str]]:
    """Tarjan's algorithm, iterative; returns components of size > 1
    (plus self-loop singletons).  An acyclic graph, the usual case, is
    recognised by the cheaper _acyclic() first."""
    if _acyclic(graph):
        return []
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set = set()
    stack: list[str] = []
    counter = [0]
    sccs: list[list[str]] = []

    for root in graph:
        if root in index:
            continue
        work = [(root, iter(graph[root]))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in graph:
                    continue
                if succ not in index:
                    index[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(graph[succ])))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                scc = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                if len(scc) > 1 or node in graph.get(node, ()):
                    sccs.append(sorted(scc))
    return sccs


def validate(asm: Assembly) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for binding in asm.bindings:
        client = asm.components.get(binding.client)
        server = asm.components.get(binding.server)
        if client is None or server is None:
            missing = binding.client if client is None else binding.server
            out.append(Diagnostic("unknown-component", missing, "binding endpoint not declared"))
            continue
        if binding.interface not in server.provides:
            out.append(
                Diagnostic(
                    "interface-mismatch",
                    f"{binding.client}.{binding.port}",
                    f"{binding.server} does not provide {binding.interface}",
                )
            )
    for comp in asm.components.values():
        for port in comp.unbound_required_ports():
            out.append(Diagnostic("unbound-port", comp.id, f"required port {port} is unbound"))
    for service_id, node_id in asm.node_assignment.items():
        if node_id not in asm.composites and node_id not in asm.components:
            out.append(Diagnostic("dangling-node", service_id, f"unknown node {node_id}"))
    for group_id, members in asm.groups.items():
        for member in members:
            if member not in asm.components:
                out.append(Diagnostic("unknown-component", member, f"listed in {group_id}"))
    for scc in _strongly_connected(asm.dependency_graph()):
        out.append(
            Diagnostic("cycle", ", ".join(scc), "binding dependencies form a cycle")
        )
    return out


# -- planning -----------------------------------------------------------------


@dataclass(frozen=True)
class PlanAction:
    target: str  # component or composite id
    state: LifecycleState


@dataclass(frozen=True)
class PlanStage:
    label: str
    mode: str  # "sequential" | "parallel"
    actions: tuple
    prelude: tuple = ()  # run sequentially before parallel dispatch
    postlude: tuple = ()  # run sequentially after the actions


@dataclass(frozen=True)
class DeploymentPlan:
    stages: tuple

    def coverage(self) -> list[str]:
        seen: list[str] = []
        for stage in self.stages:
            for action in stage.prelude + stage.actions + stage.postlude:
                seen.append(action.target)
        return seen


def _unit_graph(asm: Assembly) -> dict:
    units: dict[str, set] = {}
    for composite_id in asm.composites:
        units[composite_id] = set()
    for cid in asm.shared:
        units[cid] = set()
    for service in asm.services:
        units[service.id] = set()
    unit_of = {cid: c.owner or cid for cid, c in asm.components.items()}
    for binding in asm.bindings:
        client = unit_of.get(binding.client, binding.client)
        server = unit_of.get(binding.server, binding.server)
        if client != server and client in units and server in units:
            units[client].add(server)
    return units


def plan(asm: Assembly) -> DeploymentPlan:
    deps = _unit_graph(asm)
    order = {uid: i for i, uid in enumerate(deps)}
    node_units = set(asm.composites)
    shared_units = set(asm.shared)
    service_ids = [s.id for s in asm.services]
    group_of = {s.id: s.group for s in asm.services}

    done: set = set()
    pending_nodes = [u for u in deps if u in node_units]
    pending_services = list(service_ids)
    pending_set = set(service_ids)  # membership twin of pending_services
    stages: list[PlanStage] = []
    started = LifecycleState.STARTED

    def unblocked(unit: str, horizon: set) -> bool:
        return all(d in horizon for d in deps[unit])

    def nonservice_closure(unit: str) -> list[str] | None:
        """Not-yet-done units this one needs, topo-ordered; None when the
        closure contains another pending service (must wait for it)."""
        seen: list[str] = []
        visiting: set = set()

        def visit(u: str) -> bool:
            if u in done or u in visiting:
                return True
            if u != unit and u in pending_set:
                return False
            visiting.add(u)
            for d in sorted(deps[u], key=order.get):
                if not visit(d):
                    return False
            if u != unit:
                seen.append(u)
            return True

        return seen if visit(unit) else None

    prep_waves = 0

    def emit_wave(ready_nodes: list[str], shared_ready: set) -> None:
        nonlocal prep_waves, pending_nodes
        prelude_units = sorted(
            {d for u in ready_nodes for d in deps[u] if d in shared_ready},
            key=order.get,
        )
        prep_waves += 1
        label = "node-prep" if prep_waves == 1 else f"node-prep-{prep_waves}"
        stages.append(
            PlanStage(
                label=label,
                mode="parallel",
                actions=tuple(PlanAction(u, started) for u in ready_nodes),
                prelude=tuple(PlanAction(u, started) for u in prelude_units),
            )
        )
        done.update(ready_nodes)
        done.update(prelude_units)
        pending_nodes = [u for u in pending_nodes if u not in done]

    while pending_nodes or pending_services:
        # Eager node preparation: when every remaining node stack is
        # unblocked, they all deploy in one parallel wave before any
        # further service stage.  While some are still blocked (waiting
        # on a reservation, say), services go first and pull the node
        # stacks they personally need into their own stage.
        shared_ready = {u for u in shared_units if u not in done and unblocked(u, done)}
        ready_nodes = [u for u in pending_nodes if unblocked(u, done | shared_ready)]
        if pending_nodes and len(ready_nodes) == len(pending_nodes):
            emit_wave(ready_nodes, shared_ready)
            continue

        emitted = False
        # A group's verdict depends only on `done` and the pending services,
        # which change only when a stage is emitted, and that ends the pass.
        blocked_groups: set = set()
        for sid in pending_services:
            group = group_of[sid]
            if group is not None:
                if group in blocked_groups:
                    continue
                members = asm.groups[group]
                closures = []
                for m in members:
                    closure = nonservice_closure(m)
                    if closure is None:
                        break
                    closures.append(closure)
                if len(closures) < len(members):
                    blocked_groups.add(group)
                    continue
                extra = list(dict.fromkeys(u for closure in closures for u in closure))
                stages.append(
                    PlanStage(
                        label=group,
                        mode="parallel",
                        actions=tuple(PlanAction(m, started) for m in members),
                        prelude=tuple(PlanAction(u, started) for u in extra),
                    )
                )
                done.update(members)
                done.update(extra)
                pending_set.difference_update(members)
                pending_services = [s for s in pending_services if s in pending_set]
                pending_nodes = [u for u in pending_nodes if u not in done]
                emitted = True
                break
            closure = nonservice_closure(sid)
            if closure is None:
                continue
            actions = [PlanAction(u, started) for u in closure]
            actions.append(PlanAction(sid, started))
            stages.append(PlanStage(label=sid, mode="sequential", actions=tuple(actions)))
            done.update(closure)
            done.add(sid)
            pending_services.remove(sid)
            pending_set.discard(sid)
            pending_nodes = [u for u in pending_nodes if u not in done]
            emitted = True
            break
        if not emitted:
            if ready_nodes:
                # No service can move yet; release what node stacks we can
                # (cross-node dependency chains resolve wave by wave).
                emit_wave(ready_nodes, shared_ready)
                continue
            raise CyclicDependency(
                "no deployable unit among: "
                + ", ".join(pending_services + pending_nodes)
            )

    leftovers = [u for u in deps if u not in done and u in shared_units]
    ordered: list[str] = []
    while leftovers:
        ready = [u for u in leftovers if all(d in done for d in deps[u])]
        if not ready:
            raise CyclicDependency("unreferenced components form a cycle: " + ", ".join(leftovers))
        ordered.extend(ready)
        done.update(ready)
        leftovers = [u for u in leftovers if u not in done]
    if ordered:
        stages.append(
            PlanStage(
                label="unreferenced",
                mode="sequential",
                actions=tuple(PlanAction(u, started) for u in ordered),
            )
        )

    return DeploymentPlan(tuple(stages))


_INVERSE_TARGET = {
    LifecycleState.STARTED: LifecycleState.UNINSTALLED,
    LifecycleState.UNINSTALLED: LifecycleState.STARTED,
    LifecycleState.INSTALLED: LifecycleState.INSTALLED,
}


def plan_inverse(p: DeploymentPlan) -> DeploymentPlan:
    """Teardown plan: stages reversed, targets flipped, shared infra
    released after its dependents (prelude and postlude swap)."""

    def flip(actions: tuple) -> tuple:
        return tuple(
            PlanAction(a.target, _INVERSE_TARGET[a.state]) for a in reversed(actions)
        )

    stages = tuple(
        PlanStage(
            label=stage.label,
            mode=stage.mode,
            actions=flip(stage.actions),
            prelude=flip(stage.postlude),
            postlude=flip(stage.prelude),
        )
        for stage in reversed(p.stages)
    )
    return DeploymentPlan(stages)


# -- inspection ---------------------------------------------------------------


def emit_text(asm: Assembly, deployment_plan: DeploymentPlan | None = None) -> str:
    """Stable, line-oriented rendering for inspection and golden tests."""
    lines: list[str] = ["[components]"]
    for comp in asm.components.values():
        args = ",".join([f"{k}={comp.args[k]}" for k in sorted(comp.args)]) if comp.args else ""
        owner = comp.owner or "-"
        lines.append(f"{comp.id} kind={comp.kind} owner={owner} args=({args})")
    lines.append("[bindings]")
    for b in asm.bindings:
        lines.append(f"{b.client}.{b.port} -> {b.server} [{b.interface}]")
    lines.append("[composites]")
    for composite in asm.composites.values():
        roles = ",".join(f"{r}={c}" for r, c in composite.children.items())
        lines.append(f"{composite.id} kind={composite.kind} ordinal={composite.ordinal} children=({roles})")
    lines.append("[services]")
    for service in asm.services:
        group = service.group or "-"
        node = asm.node_assignment.get(service.id, "-")
        lines.append(f"{service.id} group={group} node={node}")
    if deployment_plan is not None:
        lines.append("[plan]")
        for i, stage in enumerate(deployment_plan.stages):
            lines.append(f"stage {i} label={stage.label} mode={stage.mode}")
            for action in stage.prelude:
                lines.append(f"  prelude {action.target} -> {action.state.name}")
            for action in stage.actions:
                lines.append(f"  action {action.target} -> {action.state.name}")
            for action in stage.postlude:
                lines.append(f"  postlude {action.target} -> {action.state.name}")
    return "\n".join(lines) + "\n"
