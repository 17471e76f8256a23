"""Assembly generation, validation, and deployment planning.

generate() compiles an expanded configuration against the kind registry
into the live component model (`core.Assembly`): every component with its
arguments and its kind's behaviour (one per kind per build, shared), every
binding, every composite, plus the services, groups and shared units the
planner reads.  The runtime executes that same object.
The configuration keeps its loops (`dsl.expand`), so each entry, a loop's
included, is compiled once per build and then stamped once per iteration.
A node body compiles into a template: every role's kind, checked arguments
and ports, the default roles, the readiness barrier's ports and the export
order.  A service compiles into its kind, checked arguments and port
bindings.  Stamping only makes ids, components, the composite and
bindings, and fills in the cells that vary (`StaticHost(simnode-%{i})`,
`nodes/node-%{i}`); an argument filled in is classed and checked again.
A body with a loop of its own, or a role whose name or reference varies,
is compiled for each node instead, every role checked again, and nothing
of it is kept.  Components stamped from one role or one service share its
`args` dict, which nothing mutates.  Autobind decisions, and the child
order they give, are memoised per role list and block; each block's first
shared provider of each interface is indexed once per build.
Autobind numbers each composite as it wires it, and binding a service's
Node port records its node, the composite that owns the port's server (a
server no node owns is refused); only the nodelist bindings, whose providers
are services declared after the nodes, take a pass of their own.
Generation resolves every binding's server before recording it, so each
binding joins two components and its server provides its interface.
Bindings, like plan actions, are named tuples built with `tuple.__new__`,
in C, rather than through their Python-level constructors.
validate() reports, as diagnostics rather than by raising, the three faults
a configuration can still cause: `unbound-port`, `cycle` and `group-cycle`.

plan() orders the units (node stacks, shared units, services) by their
bindings, ties broken by declaration order.  The next stage is the first of:
1. all pending node stacks, when each dependency of each is done or is a
   shared unit whose own dependencies are done: a parallel `node-prep`
   (then `node-prep-k`) stage with those shared units as its prelude;
2. the first ungrouped service or group that needs no other pending service,
   after the not-yet-done units it needs, dependencies first, under its id;
3. the ready node stacks, as a partial wave; 4. CyclicDependency.
Shared units that nothing needs come last, in an `unreferenced` stage.
A stack's readiness is decided once per distinct dependency list per stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import NamedTuple

from .core import Assembly, Behavior, Binding, Component, Composite, LifecycleState, PortSpec
from .dsl import Block, Cell, Ctor, Entry, ExpandedConfig, Loop, Ref, arg_kind, each, fill, joined
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


def _per_node(child: Entry) -> bool:
    """Whether a role's name or referenced path holds a loop variable, so
    that its body is compiled for each node."""
    value = child.value
    return isinstance(child.name, Cell) or (isinstance(value, Ref) and any(isinstance(p, Cell) for p in value.path))


def _arg_value(kind: str, param, text: str, span) -> object:
    """The value of argument `text` for `param`, refused unless its class
    (`dsl.arg_kind`) suits the parameter."""
    if param.kind == "int":
        if arg_kind(text) != "int":
            raise ArityMismatch(f"{kind}: parameter {param.name} wants an integer, got {text!r}", span)
        return int(text)
    if param.kind == "resources" and arg_kind(text) not in ("resources", "str"):
        raise ArityMismatch(f"{kind}: parameter {param.name} wants key=count resources", span)
    return text


def _restamp(kind: str, args: dict, varying: tuple, env: dict[str, int]) -> dict:
    """`args` with each argument that holds a loop variable filled in for
    `env` and checked again."""
    args = dict(args)
    for param, arg in varying:
        args[param.name] = _arg_value(kind, param, fill(arg.text, env), arg.span)
    return args


class _Role(NamedTuple):
    """One role of a node body, checked each time the body is compiled."""

    key: tuple  # (role, kind, None), or (role, None, referenced path) for a role reference
    part: tuple | None  # (role, kind, provides, ports, behavior, args) it stamps; None for a reference
    varying: tuple  # (param, Arg) per argument holding a loop variable


class _Template(NamedTuple):
    """A node body compiled: once per build for a fixed body, every node
    written with it being stamped from it, or once per node otherwise.  Its
    role keys fix everything but the arguments, so with the block they key
    the autobind memo."""

    kind: str
    key: tuple  # each role's key, in order
    children: tuple  # each child's part, the barrier last
    bindings: tuple  # (port, interface, child index) per barrier binding
    exports: tuple  # (interface, child index) in export order
    role_refs: dict  # role -> referenced path
    varying: tuple  # (child index, its role's varying args) per child restamped for each node


class _Generator:
    def __init__(self, config: ExpandedConfig, registry: Registry):
        self.config = config
        self.registry = registry
        self.asm = Assembly()
        self._behaviors: dict[str, Behavior] = {}  # kind -> the behaviour its components share
        # What each entry compiles to, keyed by object identity: a loop's
        # entries are the same objects in every iteration, and the config
        # keeps every keyed object alive while the build lasts.
        self._specs: dict[int, KindSpec] = {}  # id(component Entry) -> its checked kind
        self._argsets: dict[int, tuple] = {}  # id(Ctor) -> (args, varying args)
        self._binds: dict[int, tuple] = {}  # id(service Entry) -> its checked port bindings
        self._templates: dict[int, _Template] = {}  # id(composite Entry) -> its fixed body's template
        self._stamped: list[tuple] = []  # (block, template, composite, child components) per composite

    def run(self) -> Assembly:
        config = self.config
        spec = self.registry.get(config.root_kind)
        if spec is None:
            raise UnknownKind(f"unknown kind {config.root_kind!r} for {config.root_name}", config.root_span)
        if not spec.root:
            message = f"{config.root_name}: {spec.name} is not a deployment root kind"
            raise ConfigError(message, config.root_span)
        for entry, env in each(config.root.entries, {}):
            name = fill(entry.name, env)
            if not isinstance(entry.value, Block):
                raise ConfigError(f"top-level entry {name} must be a block", entry.span)
            in_services = name in SERVICE_BLOCKS
            for child, child_env in each(entry.value.entries, env):
                self._block_entry(name, child, child_env, in_services)
        self._autobind()
        self._bind_nodelists()
        return self.asm

    # entry dispatch: each entry is checked once, then stamped per iteration

    def _block_entry(self, block: str, entry: Entry, env: dict, in_services: bool) -> None:
        name = fill(entry.name, env)
        cid = f"{block}/{name}"
        template = self._templates.get(id(entry))
        if template is not None:
            self._make_composite(block, cid, template, env)
            return
        spec = self._specs.get(id(entry))
        if spec is None:
            value = entry.value
            if isinstance(value, Ref):
                raise ConfigError(f"{cid}: references are only valid inside component bodies", entry.span)
            if isinstance(value, Block):
                raise ConfigError(f"{cid}: nested plain blocks are not supported", entry.span)
            spec = self._specs[id(entry)] = self._kind(value, name)
        if spec.composite:
            self._make_composite(block, cid, self._template(cid, entry, spec, env), env)
        elif spec.group:
            if not in_services:
                raise ConfigError(f"{cid}: {spec.name} groups belong in services", entry.span)
            self._group(cid, entry, env)
        elif spec.root:
            raise ConfigError(f"{cid}: {spec.name} cannot be nested", entry.span)
        elif in_services:
            self._service(cid, entry, spec, env, None)
        else:
            self._component(cid, spec, self._ctor_args(entry.value, spec, env))
            self.asm.shared.append(cid)

    def _kind(self, value: Ctor, name: str) -> KindSpec:
        spec = self.registry.get(value.kind)
        if spec is None:
            raise UnknownKind(f"unknown kind {value.kind!r} for {name}", value.span)
        return spec

    def _args(self, value: Ctor, spec: KindSpec, env: dict) -> tuple[dict, tuple]:
        """The checked arguments of `value` for `env`, and the (param, Arg)
        of each that holds a loop variable."""
        params = spec.params
        required = spec.required_params
        if not (required <= len(value.args) <= len(params)):
            raise ArityMismatch(
                f"{spec.name} takes {required}..{len(params)} arguments, got {len(value.args)}",
                value.span,
            )
        args: dict = {}
        varying = []
        for param, arg in zip(params, value.args):
            text = arg.text
            if isinstance(text, Cell):
                varying.append((param, arg))
                text = fill(text, env)
            args[param.name] = _arg_value(spec.name, param, text, arg.span)
        for param in params[len(value.args) :]:
            if param.default is not None:
                args[param.name] = param.default
        return args, tuple(varying)

    def _ctor_args(self, value: Ctor, spec: KindSpec, env: dict) -> dict:
        """The arguments of a component written as `value`, for `env`: checked
        in full once, then only those that hold a loop variable."""
        argset = self._argsets.get(id(value))
        if argset is None:
            argset = self._argsets[id(value)] = self._args(value, spec, env)
            return argset[0]
        args, varying = argset
        return _restamp(spec.name, args, varying, env) if varying else args

    def _behavior(self, spec: KindSpec) -> Behavior:
        behavior = self._behaviors.get(spec.name)
        if behavior is None:
            behavior = self._behaviors[spec.name] = spec.factory()
        return behavior

    def _component(self, cid: str, spec: KindSpec, args: dict) -> None:
        """A service or shared component: no node owns it."""
        self.asm.components[cid] = Component(cid, spec.name, spec.provides, spec.ports, self._behavior(spec), args)

    # composites: a fixed node body is compiled once, then every node is stamped

    def _template(self, comp_id: str, entry: Entry, spec: KindSpec, env: dict) -> _Template:
        """Compile the body of `entry` for the composite `comp_id`.

        The roles are checked in the order they are written, then the
        kind's default roles, so the first node with a fault reports it.  A
        body with a loop that runs, or a role whose name or reference holds a
        loop variable, is compiled for each node, with that node's
        arguments.  Any other body is compiled once and kept: its arguments
        that hold a loop variable are filled in per node when stamped."""
        body = entry.value.body.entries if entry.value.body is not None else []
        roles = [self._role(comp_id, child, child_env) for child, child_env in each(body, env)]
        declared = {role.key[0] for role in roles}
        for role, kind_name in spec.defaults:
            if role not in declared:
                roles.append(self._role(comp_id, Entry(role, Ctor(kind_name), entry.span), env))
        fixed = not any(child.lo <= child.hi if isinstance(child, Loop) else _per_node(child) for child in body)
        template = self._shape(spec.name, roles, fixed)
        if fixed:
            self._templates[id(entry)] = template
        return template

    def _role(self, comp_id: str, child: Entry, env: dict) -> _Role:
        role = fill(child.name, env)
        if role == BARRIER_ROLE:
            raise ConfigError(
                f"{comp_id}/{role}: role name {BARRIER_ROLE!r} is reserved for the node's readiness barrier",
                child.span,
            )
        value = child.value
        if isinstance(value, Ref):
            return _Role((role, None, fill(joined(value.path), env)), None, ())
        if isinstance(value, Block):
            raise ConfigError(f"{comp_id}/{role}: plain blocks are not valid node roles", child.span)
        spec = self._kind(value, role)
        if value.body is not None and value.body.entries:
            raise ConfigError(f"{comp_id}/{role}: nested bodies are not supported here", child.span)
        if not spec.provides:  # the barrier's port for the role needs an interface
            raise ConfigError(
                f"{comp_id}/{role}: kind {spec.name} provides no interface, so it cannot be a node role",
                child.span,
            )
        args, varying = self._args(value, spec, env)
        part = (role, spec.name, spec.provides, spec.ports, self._behavior(spec), args)
        return _Role((role, spec.name, None), part, varying)

    def _shape(self, kind: str, roles: list[_Role], fixed: bool) -> _Template:
        """The template of a `kind` body with `roles`.  The barrier guards
        every child; each interface is exported by its first provider, in
        sorted order per child, and Node by the barrier.  A fixed body's
        arguments that hold a loop variable are filled in per node."""
        parted = [r for r in roles if r.part]
        children = [r.part for r in parted]
        ports = tuple(PortSpec(part[0], min(part[2], default=""), required=True) for part in children)
        spec = self.registry.get("NodeReady")
        barrier = (BARRIER_ROLE, spec.name, spec.provides, ports, self._behavior(spec), {})
        exports: dict[str, int] = {}
        for i, part in enumerate([*children, barrier]):
            for iface in sorted(part[2]):
                exports.setdefault(iface, i)
        exports[NODE] = len(children)
        varying = [(i, r.varying) for i, r in enumerate(parted) if r.varying and fixed]
        return _Template(
            kind,
            tuple([r.key for r in roles]),
            (*children, barrier),
            tuple((port.name, port.interface, i) for i, port in enumerate(ports)),
            tuple(exports.items()),
            {r.key[0]: r.key[2] for r in roles if not r.part},
            tuple(varying),
        )

    def _make_composite(self, block: str, comp_id: str, template: _Template, env: dict) -> None:
        """Make one composite's ids, components and barrier bindings; the
        arguments that hold a loop variable are filled in for `env`."""
        parts = template.children
        if template.varying:
            parts = list(parts)
            for i, varying in template.varying:
                role, kind, provides, ports, behavior, args = parts[i]
                parts[i] = (role, kind, provides, ports, behavior, _restamp(kind, args, varying, env))
        components = self.asm.components
        children: dict[str, str] = {}
        comps = []
        for role, kind, provides, ports, behavior, args in parts:
            cid = children[role] = f"{comp_id}/{role}"
            component = components[cid] = Component(cid, kind, provides, ports, behavior, args, comp_id)
            comps.append(component)
        barrier = comps[-1]
        bindings = self.asm.bindings
        for port, iface, i in template.bindings:
            binding = barrier.bound[port] = tuple.__new__(Binding, (barrier.id, port, comps[i].id, iface))
            bindings.append(binding)
        exports = {}
        for iface, i in template.exports:
            exports[iface] = comps[i].id
        composite = self.asm.composites[comp_id] = Composite(comp_id, template.kind, children, exports)
        self._stamped.append((block, template, composite, comps))

    def _group(self, group_id: str, entry: Entry, env: dict) -> None:
        body = entry.value.body or Block()
        members: list[str] = []
        for child, child_env in each(body.entries, env):
            name = fill(child.name, child_env)
            spec = self._specs.get(id(child))
            if spec is None:
                if not isinstance(child.value, Ctor):
                    raise ConfigError(f"{group_id}: group members must be constructors", child.span)
                spec = self._specs[id(child)] = self._kind(child.value, name)
            cid = f"{group_id}/{name}"
            self._service(cid, child, spec, child_env, group_id)
            members.append(cid)
        self.asm.groups[group_id] = members

    # bindings

    def _service(self, cid: str, entry: Entry, spec: KindSpec, env: dict, group: str | None) -> None:
        """Make the service `cid` and bind the ports its body names, and
        record its node: the composite that owns its Node port's server,
        refused if none does."""
        self._component(cid, spec, self._ctor_args(entry.value, spec, env))
        self.asm.services.append(ServiceEntry(cid, group))
        binds, refusal = self._binds.get(id(entry)) or self._ports(cid, entry, spec, env)
        for port, target, span, name in binds:
            target = fill(target, env)
            server = self.asm.provider_id(target, port.interface)
            if server is None:
                raise DanglingNodeRef(f"{cid}: {name} = {target} provides no {port.interface}", span)
            self.asm.add_binding(tuple.__new__(Binding, (cid, port.name, server, port.interface)))
            if port.interface == NODE:
                owner = self.asm.components[server].owner
                if owner is None:
                    raise DanglingNodeRef(f"{cid}: {name} = {target} is owned by no node", span)
                self.asm.node_assignment[cid] = owner
        if refusal is not None:
            raise refusal

    def _ports(self, cid: str, entry: Entry, spec: KindSpec, env: dict) -> tuple[list, ConfigError | None]:
        """(port, target, span, name) per reference of the service's body up
        to the first that binds no port, and the refusal of that one; each
        span is its path's, where `expand` places a dangling path too.  Kept
        for the entry unless its body holds a loop that runs or a varying
        name."""
        body = (entry.value.body or Block()).entries
        ports = {p.name: p for p in spec.ports}
        binds, refusal = [], None
        for child, child_env in each(body, env):
            name = fill(child.name, child_env)
            if not isinstance(child.value, Ref):
                refusal = ConfigError(f"{cid}/{name}: service bodies hold only references", child.span)
                break
            port = ports.get(name)
            if port is None:
                refusal = ConfigError(f"{cid}: kind {spec.name} has no port named {name!r}", child.span)
                break
            target = joined(child.value.path)  # filled in per service, unless a loop of the body fills it in
            binds.append((port, target if child_env is env else fill(target, child_env), child.value.span, name))
        compiled = binds, refusal
        if not any(child.lo <= child.hi if isinstance(child, Loop) else isinstance(child.name, Cell) for child in body):
            self._binds[id(entry)] = compiled
        return compiled

    def _autobind(self) -> None:
        """Wire unbound ports inside composites by interface matching, fix
        each composite's child order, and number each composite.

        A same-named role reference wins, then a sibling, then any role
        reference, then a shared component of the composite's block: one
        index, built first, gives each block's first provider of each
        interface.  The choice is made once per role list (roles, kinds,
        role references) and block, and so is the child order; the
        composites wired alike share it, except one that a role reference
        binds to its own child, which gets an order of its own.

        A composite's ordinal, which picks a nodelist line, counts the
        composites before it whose first hostname binding has its server.
        """
        bindings = self.asm.bindings
        components = self.asm.components
        shared: dict[str, dict[str, str]] = {}  # block -> interface -> first shared provider
        for cid in self.asm.shared:
            at = cid.find("/")
            while at != -1:  # each prefix of the id up to a "/" may be its block
                providers = shared.setdefault(cid[:at], {})
                for iface in components[cid].provides:
                    providers.setdefault(iface, cid)
                at = cid.find("/", at + 1)
        wirings: dict[tuple, tuple] = {}  # (role keys, block) -> (decisions, hostname server, edges, child order)
        numbered: dict[str, int] = {}  # hostname server -> composites numbered through it
        for block, template, composite, comps in self._stamped:
            key = (template.key, block)
            wiring = wirings.get(key)
            if wiring is None:
                wiring = wirings[key] = self._wiring(template, shared.get(block, {}))
            decisions, hostname, edges, order = wiring
            own = []  # (client, server) child indices of each role reference bound to its own child
            for client, port, iface, sibling, server in decisions:
                component = comps[client]
                if server is None:
                    server = comps[sibling].id
                elif components[server].owner == composite.id:
                    own.append((client, [c.id for c in comps].index(server)))
                binding = component.bound[port] = tuple.__new__(Binding, (component.id, port, server, iface))
                bindings.append(binding)
            composite.order = _sort_children(len(comps), edges + own) if own else order
            if isinstance(hostname, int):
                hostname = comps[hostname].id
            hostname = hostname or composite.id  # no hostname binding: alone
            composite.ordinal = numbered.get(hostname, 0)
            numbered[hostname] = composite.ordinal + 1

    def _wiring(self, template: _Template, shared: dict[str, str]) -> tuple:
        """(client index, port, interface, sibling index, server id) for each
        port that autobind binds: a sibling serves it, or the server id does.
        Then the child index or server id serving the first hostname
        binding, the barrier's before autobind's, or None; the (client,
        server) child indices of each binding between two children; and
        the child order they give.  `shared`: interface -> the block's
        first shared provider."""
        role_refs = template.role_refs
        siblings: dict[str, list[int]] = {}  # interface -> children providing it, in order
        for i, child in enumerate(template.children):
            for iface in child[2]:
                siblings.setdefault(iface, []).append(i)
        decisions = []
        for i, child in enumerate(template.children[:-1]):  # not the barrier
            for port in child[3]:
                server = self._find_provider(role_refs, siblings, shared, i, port)
                if server is not None:
                    decisions.append((i, port.name, port.interface, *server))
        hostname = [i for _, iface, i in template.bindings if iface == HOSTNAME]
        hostname += [server or sibling for _, _, iface, sibling, server in decisions if iface == HOSTNAME]
        count = len(template.children)
        edges = [(count - 1, i) for _, _, i in template.bindings]  # the barrier's
        edges += [(client, sibling) for client, _, _, sibling, server in decisions if server is None]
        return decisions, hostname[0] if hostname else None, edges, _sort_children(count, edges)

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
                    self.asm.add_binding(tuple.__new__(Binding, (comp.id, port.name, provider.id, NODELIST)))
                    break


def _sort_children(count: int, edges: list[tuple[int, int]]) -> tuple[int, ...]:
    """The indices of `count` children in dependency order, given the
    (client, server) indices of the bindings between them.  Each round takes,
    in declaration order, every child whose servers are placed; a round with
    none ready (a cycle inside the node) takes the first remaining child."""
    needs = [set() for _ in range(count)]
    for client, server in edges:
        needs[client].add(server)
    order: list[int] = []
    placed: set[int] = set()
    remaining = range(count)
    while remaining:
        ready = [i for i in remaining if needs[i] <= placed] or [remaining[0]]
        order += ready
        placed.update(ready)
        remaining = [i for i in remaining if i not in placed]
    return tuple(order)


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
    (plus self-loop singletons).  Every successor must be a vertex of
    `graph`.  Callers reach it only once a cheaper test has found that the
    graph may hold a cycle."""
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
                if succ not in index:
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
                    if len(scc) > 1 or node in graph[node]:
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
            indegree[binding.server] += 1
    ready = [cid for cid, degree in indegree.items() if degree == 0]
    peeled = 0
    while ready:
        peeled += 1
        for binding in components[ready.pop()].bound.values():
            server = binding.server
            indegree[server] -= 1
            if indegree[server] == 0:
                ready.append(server)
    if peeled == len(indegree):
        return []
    return _strongly_connected(asm.dependency_graph())


def validate(asm: Assembly) -> list[Diagnostic]:
    """Unbound required ports, then binding cycles, then group cycles.  The
    ports are checked inline: no Python call per component."""
    out: list[Diagnostic] = []
    for comp in asm.components.values():
        bound = comp.bound
        for port in comp.ports:
            if port.required and port.name not in bound:
                out.append(Diagnostic("unbound-port", comp.id, f"required port {port.name} is unbound"))
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
    if vertex.keys().isdisjoint([b.server for b in asm.bindings]):
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


class PlanAction(NamedTuple):
    """Drive one unit to one state.  A named tuple, as `core.Binding` is:
    the planner builds one per unit per stage, with `_action`."""

    target: str  # component or composite id
    state: LifecycleState


# PlanAction((target, state)) without the Python-level constructor: in C.
_action = partial(tuple.__new__, PlanAction)


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
    order = {uid: i for i, uid in enumerate([*asm.composites, *asm.shared, *[s.id for s in asm.services]])}
    needs: dict[str, set] = {uid: set() for uid in order}
    unit_of = {cid: c.owner or cid for cid, c in asm.components.items()}
    for binding in asm.bindings:
        client = unit_of[binding.client]
        server = unit_of[binding.server]
        if client != server:
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


def _up(units) -> tuple:
    """A PlanAction to Started per unit, in order."""
    return tuple(map(_action, zip(units, repeat(LifecycleState.STARTED))))


def plan(asm: Assembly) -> DeploymentPlan:
    """Order the units into stages by the rule in the module docstring.

    Per stage, whether a node stack is ready is decided once per distinct
    dependency list, not once per stack: the stacks stamped from one body
    mostly need the same units.  A service whose dependencies are all done
    joins its stage without a `_pull`."""
    deps = _unit_graph(asm)
    shared = set(asm.shared)
    services = {s.id for s in asm.services}
    # stage label -> the services it starts: each ungrouped service, each group once
    candidates = {s.group or s.id: asm.groups[s.group] if s.group else [s.id] for s in asm.services}
    done: set = set()
    nodes = list(asm.composites)  # node stacks not yet done
    needs = {n: tuple(deps[n]) for n in nodes}  # node stack -> its dependency list, hashable
    stages: list[PlanStage] = []
    waves = 0

    def ready(units: tuple) -> bool:
        return all(d in done or (d in shared and done.issuperset(deps[d])) for d in units)

    def node_wave(wave: list[str]) -> PlanStage:
        nonlocal waves
        waves += 1
        needed = {d for n in wave for d in deps[n]}
        prelude = [u for u in asm.shared if u in needed and u not in done]
        return PlanStage("node-prep" if waves == 1 else f"node-prep-{waves}", "parallel", _up(wave), _up(prelude))

    def next_stage() -> PlanStage:
        verdict = {units: ready(units) for units in dict.fromkeys(map(needs.__getitem__, nodes))}
        wave = [n for n in nodes if verdict[needs[n]]]
        if wave and len(wave) == len(nodes):
            return node_wave(wave)
        for label, members in candidates.items():
            seen, out = {}, []
            for m in members:
                if done.issuperset(deps[m]):  # what _pull would do, without the call
                    seen[m] = True
                    out.append(m)
                elif not _pull(m, deps, done, services, seen, out):
                    break
            else:
                if label in asm.groups:
                    return PlanStage(label, "parallel", _up(members), _up([u for u in out if u not in services]))
                return PlanStage(label, "sequential", _up(out))
        if wave:
            return node_wave(wave)
        pending = [s.id for s in asm.services if s.id not in done]
        raise CyclicDependency("no deployable unit among: " + ", ".join(pending + nodes))

    while candidates or nodes:
        stage = next_stage()
        stages.append(stage)
        done.update([a.target for a in stage.all_actions])
        candidates = {label: members for label, members in candidates.items() if members[0] not in done}
        nodes = [n for n in nodes if n not in done]

    swept: list[str] = []
    while leftovers := [u for u in asm.shared if u not in done]:
        ready_now = [u for u in leftovers if done.issuperset(deps[u])]
        if not ready_now:
            raise CyclicDependency("unreferenced components form a cycle: " + ", ".join(leftovers))
        swept += ready_now
        done.update(ready_now)
    if swept:
        stages.append(PlanStage("unreferenced", "sequential", _up(swept)))
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
        return tuple(map(_action, [(a.target, _INVERSE_TARGET[a.state]) for a in reversed(actions)]))

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
