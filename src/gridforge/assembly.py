"""Assembly generation, validation, and deployment planning.

generate() compiles an expanded configuration against the kind registry
into the live component model (`core.Assembly`): every component with its
arguments and its kind's behaviour (one per kind per build, shared), every
binding, every composite, plus the services, groups and shared units the
planner reads.  The runtime executes that same object.
generate() compiles each node body once per build into a template: every
role's kind, checked arguments and ports, the default roles, the readiness
barrier's ports and the export order.  Each node written with that body is
then stamped from the template, which only makes ids, components, the
composite and bindings; a role whose arguments vary per node
(`StaticHost(simnode-%{i})`) is checked per node, its siblings are not.
Components stamped from one role share its `args` dict, which nothing
mutates.  Autobind decisions are memoised per body shape and block.
Autobind numbers each composite as it wires it, and binding a service's
Node port records its node; only the nodelist bindings, whose providers
are services declared after the nodes, take a pass of their own.
validate() returns diagnostics instead of raising so callers can show all
problems at once.

plan() orders the units (node stacks, shared units, services) by their
bindings, ties broken by declaration order.  The next stage is the first of:
1. all pending node stacks, when each dependency of each is done or is a
   shared unit whose own dependencies are done: a parallel `node-prep`
   (then `node-prep-k`) stage with those shared units as its prelude;
2. the first ungrouped service or group that needs no other pending service,
   after the not-yet-done units it needs, dependencies first, under its id;
3. the ready node stacks, as a partial wave; 4. CyclicDependency.
Shared units that nothing needs come last, in an `unreferenced` stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .core import Assembly, Behavior, Binding, ChildLayout, Component, Composite, LifecycleState, PortSpec
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


class _Role(NamedTuple):
    """One role of a node body, checked once per `Entry`."""

    key: tuple  # (role, kind, None), or (role, None, referenced path) for a role reference
    part: tuple | None  # (role, kind, provides, ports, behavior, args) it stamps; None for a reference


class _Shape(NamedTuple):
    """What the roles, kinds and role references of a node body fix,
    whatever its arguments.  `_shapes` keeps each one for the build, so its
    id keys the autobind memo."""

    barrier: tuple  # the readiness barrier's part
    bindings: tuple  # (port, interface, child index) per barrier binding
    exports: tuple  # (interface, child index) in export order
    role_refs: dict  # role -> referenced path


class _Template(NamedTuple):
    """A node body compiled once per build: each node written with it is
    stamped from it."""

    kind: str
    children: tuple  # each child's part, the barrier last
    shape: _Shape


class _Generator:
    def __init__(self, config: ExpandedConfig, registry: Registry):
        self.config = config
        self.registry = registry
        self.asm = Assembly()
        self._behaviors: dict[str, Behavior] = {}  # kind -> the behaviour its components share
        # Compiled node bodies, keyed by object identity: `expand` shares the
        # loop-invariant parts of a body between nodes.  The config and
        # `_default_roles` keep every keyed object alive while the build lasts.
        self._templates: dict[int, _Template] = {}  # id(composite Ctor) -> template
        self._roles: dict[int, _Role] = {}  # id(role Entry) -> its checked role
        self._default_roles: dict[tuple, Entry] = {}  # (composite kind, role) -> its default
        self._shapes: dict[tuple, _Shape] = {}  # the roles' keys, in order -> shape
        self._wirings: dict[tuple, tuple] = {}  # (id(shape), block) -> (decisions, hostname server, layout)
        self._stamped: list[tuple] = []  # (block, template, composite, child components) per composite

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
        self._bind_nodelists()
        return self.asm

    # entry dispatch

    def _block_entry(self, block: str, entry: Entry, in_services: bool) -> None:
        value = entry.value
        template = self._templates.get(id(value))
        if template is not None:
            self._stamp(block, entry.name, template)
            return
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
            self._stamp(block, entry.name, self._template(f"{block}/{entry.name}", entry, spec))
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

    def _behavior(self, spec: KindSpec) -> Behavior:
        behavior = self._behaviors.get(spec.name)
        if behavior is None:
            behavior = self._behaviors[spec.name] = spec.factory()
        return behavior

    def _component(self, cid: str, spec: KindSpec, args: dict, owner: str | None) -> None:
        self.asm.components[cid] = Component(
            id=cid,
            kind=spec.name,
            provides=spec.provides,
            ports=spec.ports,
            behavior=self._behavior(spec),
            args=args,
            owner=owner,
        )

    # composites: each node body is compiled once, then every node is stamped

    def _template(self, comp_id: str, entry: Entry, spec: KindSpec) -> _Template:
        """Compile the body of `entry`, the first composite written with it.

        The roles are checked in the order they are written, then the
        kind's default roles, so the first node with a fault reports it.  A
        role `Entry` checked for an earlier body is not checked again, nor
        is a role list laid out twice."""
        body = entry.value.body.entries if entry.value.body is not None else []
        roles = [self._checked(comp_id, child) for child in body]
        declared = {child.name for child in body}
        for role, kind_name in spec.defaults:
            if role not in declared:
                default = self._default_roles.get((spec.name, role))
                if default is None:
                    default = self._default_roles[spec.name, role] = Entry(role, Ctor(kind_name), entry.span)
                roles.append(self._checked(comp_id, default))
        key = tuple([r.key for r in roles])
        shape = self._shapes.get(key)
        if shape is None:
            shape = self._shapes[key] = self._shape(roles)
        template = _Template(spec.name, (*[r.part for r in roles if r.part], shape.barrier), shape)
        self._templates[id(entry.value)] = template
        return template

    def _checked(self, comp_id: str, child: Entry) -> _Role:
        role = self._roles.get(id(child))
        if role is None:
            role = self._roles[id(child)] = self._role(comp_id, child)
        return role

    def _role(self, comp_id: str, child: Entry) -> _Role:
        role = child.name
        if role == BARRIER_ROLE:
            raise ConfigError(
                f"{comp_id}/{role}: role name {BARRIER_ROLE!r} is reserved for the node's readiness barrier",
                child.span.line,
                child.span.column,
            )
        value = child.value
        if isinstance(value, Ref):
            return _Role((role, None, "/".join(value.path)), None)
        if isinstance(value, Block):
            raise ConfigError(
                f"{comp_id}/{role}: plain blocks are not valid node roles",
                child.span.line,
                child.span.column,
            )
        spec = self._kind(value, child)
        if value.body is not None and value.body.entries:
            raise ConfigError(
                f"{comp_id}/{role}: nested bodies are not supported here",
                child.span.line,
                child.span.column,
            )
        if not spec.provides:  # the barrier's port for the role needs an interface
            raise ConfigError(
                f"{comp_id}/{role}: kind {spec.name} provides no interface, so it cannot be a node role",
                child.span.line,
                child.span.column,
            )
        args = self._args(value, spec)
        return _Role((role, spec.name, None), (role, spec.name, spec.provides, spec.ports, self._behavior(spec), args))

    def _shape(self, roles: list[_Role]) -> _Shape:
        """The barrier guards every child; each interface is exported by its
        first provider, in sorted order per child, and Node by the barrier."""
        children = [r.part for r in roles if r.part]
        ports = tuple(PortSpec(part[0], min(part[2], default=""), required=True) for part in children)
        spec = self.registry.get("NodeReady")
        barrier = (BARRIER_ROLE, spec.name, spec.provides, ports, self._behavior(spec), {})
        exports: dict[str, int] = {}
        for i, part in enumerate([*children, barrier]):
            for iface in sorted(part[2]):
                exports.setdefault(iface, i)
        exports[NODE] = len(children)
        return _Shape(
            barrier,
            tuple((port.name, port.interface, i) for i, port in enumerate(ports)),
            tuple(exports.items()),
            {r.key[0]: r.key[2] for r in roles if not r.part},
        )

    def _stamp(self, block: str, name: str, template: _Template) -> None:
        """Make one composite's ids, components and barrier bindings."""
        comp_id = f"{block}/{name}"
        components = self.asm.components
        children: dict[str, str] = {}
        comps = []
        for role, kind, provides, ports, behavior, args in template.children:
            cid = children[role] = f"{comp_id}/{role}"
            component = components[cid] = Component(cid, kind, provides, ports, behavior, args, comp_id)
            comps.append(component)
        barrier = comps[-1]
        bindings = self.asm.bindings
        for port, iface, i in template.shape.bindings:
            binding = barrier.bound[port] = Binding(barrier.id, port, comps[i].id, iface)
            bindings.append(binding)
        exports = {iface: comps[i].id for iface, i in template.shape.exports}
        composite = self.asm.composites[comp_id] = Composite(comp_id, template.kind, children, exports)
        self._stamped.append((block, template, composite, comps))

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
        """Bind the ports the service's body names, and record its node."""
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
            if port.interface == NODE:  # a node's barrier stands for the node
                owner = self.asm.components[server].owner
                barrier = owner is not None and self.asm.composites[owner].children[BARRIER_ROLE] == server
                self.asm.node_assignment[cid] = owner if barrier else server

    def _autobind(self) -> None:
        """Wire unbound ports inside composites by interface matching, and
        number each composite.

        A same-named role reference wins, then a sibling, then any role
        reference, then a shared component of the composite's block.  The
        choice is made once per body shape (roles, kinds, role references)
        and block, and the composites it wires share one child layout,
        except one that a role reference binds to its own child.

        A composite's ordinal, which picks a nodelist line, counts the
        composites before it whose first hostname binding has its server.
        """
        wirings = self._wirings
        bindings = self.asm.bindings
        components = self.asm.components
        numbered: dict[str, int] = {}  # hostname server -> composites numbered through it
        for block, template, composite, comps in self._stamped:
            key = (id(template.shape), block)
            wiring = wirings.get(key)
            if wiring is None:
                wiring = wirings[key] = (*self._wiring(template, block), ChildLayout())
            decisions, hostname, layout = wiring
            for client, port, iface, sibling, server in decisions:
                component = comps[client]
                if server is None:
                    server = comps[sibling].id
                elif components[server].owner == composite.id:
                    layout = None
                binding = component.bound[port] = Binding(component.id, port, server, iface)
                bindings.append(binding)
            composite.layout = layout
            if isinstance(hostname, int):
                hostname = comps[hostname].id
            hostname = hostname or composite.id  # no hostname binding: alone
            composite.ordinal = numbered.get(hostname, 0)
            numbered[hostname] = composite.ordinal + 1

    def _wiring(self, template: _Template, block: str) -> tuple[list[tuple], int | str | None]:
        """(client index, port, interface, sibling index, server id) for each
        port that autobind binds: a sibling serves it, or the server id does.
        Then the child index or server id serving the first hostname
        binding, the barrier's before autobind's, or None."""
        role_refs = template.shape.role_refs
        siblings: dict[str, list[int]] = {}  # interface -> children providing it, in order
        for i, child in enumerate(template.children):
            for iface in child[2]:
                siblings.setdefault(iface, []).append(i)
        shared = self._shared_providers(block)
        decisions = []
        for i, child in enumerate(template.children[:-1]):  # not the barrier
            for port in child[3]:
                server = self._find_provider(role_refs, siblings, shared, i, port)
                if server is not None:
                    decisions.append((i, port.name, port.interface, *server))
        hostname = [i for _, iface, i in template.shape.bindings if iface == HOSTNAME]
        hostname += [server or sibling for _, _, iface, sibling, server in decisions if iface == HOSTNAME]
        return decisions, hostname[0] if hostname else None

    def _shared_providers(self, block: str) -> dict[str, str]:
        """interface -> the first shared component of `block` providing it."""
        providers: dict[str, str] = {}
        for cid in self.asm.shared:
            if cid.startswith(block + "/"):
                for iface in self.asm.components[cid].provides:
                    providers.setdefault(iface, cid)
        return providers

    def _find_provider(self, role_refs, siblings, shared, client: int, port) -> tuple | None:
        """(sibling index, None) or (None, server id) serving `port` of child
        `client`; None if nothing does."""
        if port.name in role_refs:
            server = self.asm.provider_id(role_refs[port.name], port.interface)
            if server is not None:
                return None, server
        for i in siblings.get(port.interface, ()):
            if i != client:
                return i, None
        for target in role_refs.values():
            server = self.asm.provider_id(target, port.interface)
            if server is not None:
                return None, server
        server = shared.get(port.interface)
        return None if server is None else (None, server)

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


def _strongly_connected(graph: dict) -> list[list[str]]:
    """Tarjan's algorithm, iterative; returns components of size > 1
    (plus self-loop singletons).  Callers reach it only once a cheaper test
    has found that the graph may hold a cycle."""
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set = set()
    stack: list[str] = []
    work: list = []  # (node, iterator over its successors) of the DFS path
    sccs: list[list[str]] = []

    def enter(node: str) -> None:
        index[node] = lowlink[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        work.append((node, iter(graph[node])))

    for root in graph:
        if root in index:
            continue
        enter(root)
        while work:
            node, it = work[-1]
            for succ in it:
                if succ in graph and succ not in index:
                    enter(succ)
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            else:
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


def _component_cycles(asm: Assembly) -> list[list[str]]:
    """_strongly_connected of the component graph.  Kahn's peel reads each
    component's bound ports directly; the graph is built, and Tarjan run,
    only when the peel leaves components behind."""
    components = asm.components
    indegree = dict.fromkeys(components, 0)
    for comp in components.values():
        for binding in comp.bound.values():
            if binding.server in indegree:
                indegree[binding.server] += 1
    ready = [cid for cid, degree in indegree.items() if degree == 0]
    peeled = 0
    while ready:
        peeled += 1
        for binding in components[ready.pop()].bound.values():
            server = binding.server
            if server in indegree:
                indegree[server] -= 1
                if indegree[server] == 0:
                    ready.append(server)
    if peeled == len(indegree):
        return []
    return _strongly_connected(asm.dependency_graph())


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
    for scc in _component_cycles(asm):
        out.append(
            Diagnostic("cycle", ", ".join(scc), "binding dependencies form a cycle")
        )
    return out + _group_cycles(asm)


def _group_cycles(asm: Assembly) -> list[Diagnostic]:
    """A group starts in one stage, so no member may need a sibling, directly
    or through other units: a cycle once each group is one vertex of the unit
    graph.  Unless something needs a member, no group can be on a cycle."""
    vertex = {m: group for group, members in asm.groups.items() for m in members}
    if not any(b.server in vertex for b in asm.bindings):
        return []
    deps = _unit_graph(asm)
    graph: dict[str, list[str]] = {}
    for unit, needs in deps.items():
        graph.setdefault(vertex.get(unit, unit), []).extend(vertex.get(d, d) for d in needs)

    def sibling_needed(member: str, inside: set) -> str | None:
        stack, seen = [member], {vertex[member]}
        while stack:
            unit = stack.pop()
            for dep in (d for u in asm.groups.get(unit, [unit]) for d in deps.get(u, ())):
                here = vertex.get(dep, dep)
                if here == vertex[member] and dep != member:
                    return dep
                if here in inside and here not in seen:
                    seen.add(here)
                    stack.append(here)
        return None

    out = []
    for scc in _strongly_connected(graph):
        inside = set(scc)
        for member in (m for unit in scc for m in asm.groups.get(unit, ())):
            sibling = sibling_needed(member, inside)
            if sibling is not None:
                out.append(Diagnostic("group-cycle", member, f"needs {sibling} of its own group {vertex[member]}"))
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

    @property
    def all_actions(self) -> tuple:
        """The prelude, the actions and the postlude, in that order."""
        return self.prelude + self.actions + self.postlude


@dataclass(frozen=True)
class DeploymentPlan:
    stages: tuple


def _unit_graph(asm: Assembly) -> dict[str, list[str]]:
    """unit -> the other units it needs, in unit order: node stacks, then
    shared units, then services, each in declaration order."""
    order = {uid: i for i, uid in enumerate([*asm.composites, *asm.shared, *(s.id for s in asm.services)])}
    needs: dict[str, set] = {uid: set() for uid in order}
    unit_of = {cid: c.owner or cid for cid, c in asm.components.items()}
    for binding in asm.bindings:
        client = unit_of.get(binding.client, binding.client)
        server = unit_of.get(binding.server, binding.server)
        if client != server and client in needs and server in needs:
            needs[client].add(server)
    return {uid: sorted(units, key=order.__getitem__) for uid, units in needs.items()}


def _pull(unit: str, deps: dict, done: set, services: set, seen: dict, out: list) -> bool:
    """Append to `out` the not-done units `unit` needs, dependencies first,
    then `unit`; False if one is a service.  `seen`: unit -> pull finished.
    Not nested in plan(): a closure that calls itself is a reference cycle,
    which would keep `deps` alive until the cyclic collector runs."""
    seen[unit] = False
    for dep in deps[unit]:
        if dep in done:
            continue
        if seen.get(dep) is False:
            raise CyclicDependency(f"dependency cycle through {dep} and {unit}")
        if dep in services or (dep not in seen and not _pull(dep, deps, done, services, seen, out)):
            return False
    seen[unit] = True
    out.append(unit)
    return True


def plan(asm: Assembly) -> DeploymentPlan:
    """Order the units into stages by the rule in the module docstring."""
    deps = _unit_graph(asm)
    shared = set(asm.shared)
    services = {s.id for s in asm.services}
    # stage label -> the services it starts: each ungrouped service, each group once
    candidates = {s.group or s.id: asm.groups[s.group] if s.group else [s.id] for s in asm.services}
    done: set = set()
    nodes = list(asm.composites)  # node stacks not yet done
    stages: list[PlanStage] = []
    waves = 0

    def up(units) -> tuple:
        return tuple(PlanAction(u, LifecycleState.STARTED) for u in units)

    def ready(node: str) -> bool:
        return all(d in done or (d in shared and all(e in done for e in deps[d])) for d in deps[node])

    def node_wave(wave: list[str]) -> PlanStage:
        nonlocal waves
        waves += 1
        needed = {d for n in wave for d in deps[n]}
        prelude = [u for u in asm.shared if u in needed and u not in done]
        return PlanStage("node-prep" if waves == 1 else f"node-prep-{waves}", "parallel", up(wave), up(prelude))

    def next_stage() -> PlanStage:
        wave = [n for n in nodes if ready(n)]
        if wave and len(wave) == len(nodes):
            return node_wave(wave)
        for label, members in candidates.items():
            seen, out = {}, []
            if all(_pull(m, deps, done, services, seen, out) for m in members):
                if label in asm.groups:
                    return PlanStage(label, "parallel", up(members), up(u for u in out if u not in services))
                return PlanStage(label, "sequential", up(out))
        if wave:
            return node_wave(wave)
        pending = [s.id for s in asm.services if s.id not in done]
        raise CyclicDependency("no deployable unit among: " + ", ".join(pending + nodes))

    while candidates or nodes:
        stage = next_stage()
        stages.append(stage)
        done.update(a.target for a in stage.all_actions)
        candidates = {label: members for label, members in candidates.items() if members[0] not in done}
        nodes = [n for n in nodes if n not in done]

    swept: list[str] = []
    while leftovers := [u for u in asm.shared if u not in done]:
        ready_now = [u for u in leftovers if all(d in done for d in deps[u])]
        if not ready_now:
            raise CyclicDependency("unreferenced components form a cycle: " + ", ".join(leftovers))
        swept += ready_now
        done.update(ready_now)
    if swept:
        stages.append(PlanStage("unreferenced", "sequential", up(swept)))
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
    """Stable, line-oriented rendering for inspection and golden tests.

    Its sha256 keys the CLI's state file, so the text must not change.
    Components stamped from one template share their `args` dict, which is
    rendered once per call."""
    lines: list[str] = ["[components]"]
    rendered: dict[int, str] = {}  # id(args) -> "k=v,..."
    for comp in asm.components.values():
        args = rendered.get(id(comp.args))
        if args is None:
            args = rendered[id(comp.args)] = ",".join([f"{k}={comp.args[k]}" for k in sorted(comp.args)])
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
            for part, actions in (("prelude", stage.prelude), ("action", stage.actions), ("postlude", stage.postlude)):
                lines.extend(f"  {part} {a.target} -> {a.state.name}" for a in actions)
    return "\n".join(lines) + "\n"
