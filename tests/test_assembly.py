"""Assembly generation, validation, and plan order against brute-force oracles."""

import hashlib
import random

import pytest

from configs import MINI, chain, paper_pair, random_config, reserved
from conftest import DATA
from gridforge.assembly import (
    DeploymentPlan,
    PlanAction,
    PlanStage,
    ServiceEntry,
    emit_text,
    generate,
    plan,
    plan_inverse,
    validate,
)
from gridforge.bench import middleware_config
from gridforge.cli import _state_key
from gridforge.core import Assembly, Behavior, Binding, Component, Composite, LifecycleState, PortSpec
from gridforge.dsl import expand, load_config, merge, parse
from gridforge.errors import (
    ArityMismatch,
    ConfigError,
    CyclicDependency,
    DanglingNodeRef,
    UnknownKind,
    ValidationFailed,
)
from gridforge.personalities import ScriptBehavior, default_registry
from gridforge.pipeline import assemble, build, build_from_text
from gridforge.stdlib import KindSpec


@pytest.fixture(scope="module")
def registry_m():
    return default_registry()


@pytest.fixture(scope="module")
def combined(registry_m):
    """Assembly of the full deployment plus its reservation fragment."""
    config = load_config([str(DATA / "paper.gdf"), str(DATA / "reservation.gdf")])
    return generate(config, registry_m)


@pytest.fixture(scope="module")
def combined_plan(combined):
    return plan(combined)


def assembly_for(text, registry):
    return generate(expand(parse(text)), registry)


# -- oracles -------------------------------------------------------------


class _CapHit(Exception):
    pass


def all_topological_orders(nodes, edges, cap=200_000):
    """Every linear extension of the DAG, by backtracking.

    Returns None when more than `cap` recursion steps would be needed;
    callers then fall back to the definitional check.
    """
    succ = {n: [] for n in nodes}
    indeg = {n: 0 for n in nodes}
    for before, after in edges:
        succ[before].append(after)
        indeg[after] += 1
    orders = []
    prefix = []
    steps = 0

    def backtrack():
        nonlocal steps
        steps += 1
        if steps > cap:
            raise _CapHit
        if len(prefix) == len(nodes):
            orders.append(tuple(prefix))
            return
        for n in nodes:
            if indeg[n] == 0 and n not in prefix:
                prefix.append(n)
                for m in succ[n]:
                    indeg[m] -= 1
                backtrack()
                for m in succ[n]:
                    indeg[m] += 1
                prefix.pop()

    try:
        backtrack()
    except _CapHit:
        return None
    return orders


def is_topological(order, edges):
    pos = {n: i for i, n in enumerate(order)}
    return all(pos[before] < pos[after] for before, after in edges)


def service_dag(n, edges):
    """Services s0..s{n-1}; an edge (i, j) makes sj depend on si."""
    asm = Assembly()
    needs = {j: sorted(i for i, jj in edges if jj == j) for j in range(n)}
    for i in range(n):
        asm.components[f"s{i}"] = Component(
            id=f"s{i}",
            kind="Svc",
            provides=frozenset({f"I{i}"}),
            ports=tuple(PortSpec(f"d{k}", f"I{k}") for k in needs.get(i, [])),
        )
        asm.services.append(ServiceEntry(f"s{i}"))
    for i, j in edges:
        asm.add_binding(Binding(f"s{j}", f"d{i}", f"s{i}", f"I{i}"))
    return asm


def emitted_order(deployment_plan):
    return [
        action.target
        for stage in deployment_plan.stages
        for action in stage.all_actions
    ]


def random_dag(rng):
    n = rng.randint(2, 12)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    return n, edges


def random_assembly(rng):
    """Node stacks of two children, shared units, services in up to three
    groups, bound along a random order of the units, each group counting
    as one unit: acyclic, and no group member needs a sibling.  A node's
    second child may also need its first."""
    asm = Assembly()
    units = []  # the components of each unit, a group's members as one

    def bind(client, server):
        asm.add_binding(Binding(client, f"p{len(asm.components[client].bound)}", server, "I"))

    for i in range(rng.randint(0, 4)):
        node = f"n{i}"
        children = {role: f"{node}/{role}" for role in ("a", "b")}
        for cid in children.values():
            asm.components[cid] = Component(id=cid, kind="T", owner=node)
        asm.composites[node] = Composite(id=node, kind="Node", children=children)
        units.append(list(children.values()))
        if rng.random() < 0.5:
            bind(children["b"], children["a"])
    for i in range(rng.randint(0, 3)):
        asm.components[f"x{i}"] = Component(id=f"x{i}", kind="T")
        asm.shared.append(f"x{i}")
        units.append([f"x{i}"])
    for i in range(rng.randint(1, 6)):
        sid, group = f"s{i}", rng.choice([None, None, None, "g0", "g1", "g2"])
        asm.components[sid] = Component(id=sid, kind="T")
        asm.services.append(ServiceEntry(sid, group))
        if group is None:
            units.append([sid])
        elif group in asm.groups:
            asm.groups[group].append(sid)
        else:
            asm.groups[group] = [sid]
            units.append(asm.groups[group])
    rng.shuffle(units)
    for k, clients in enumerate(units):
        for servers in units[:k]:
            if rng.random() < 0.3:
                bind(rng.choice(clients), rng.choice(servers))
    return asm


def unit_edges(asm):
    """(client unit, server unit) for every binding between two units."""
    unit_of = lambda cid: asm.components[cid].owner or cid  # noqa: E731
    edges = set()
    for b in asm.bindings:
        client, server = unit_of(b.client), unit_of(b.server)
        if client != server:
            edges.add((client, server))
    return edges


def reachable(edges):
    """unit -> every unit it needs, directly or not."""
    succ = {}
    for a, b in edges:
        succ.setdefault(a, set()).add(b)
    reach = {}
    for start in succ:
        frontier, seen = [start], set()
        while frontier:
            for nxt in succ.get(frontier.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        reach[start] = seen
    return reach


def parallel_members_independent(deployment_plan, edges):
    reach = reachable(edges)
    for stage in deployment_plan.stages:
        if stage.mode == "parallel":
            members = {a.target for a in stage.actions}
            for start in members:
                if reach.get(start, set()) & (members - {start}):
                    return False
    return True


# -- generation ----------------------------------------------------------


class TestGeneration:
    def test_counts(self, combined):
        assert len(combined.composites) == 502  # 501 nodes + frontend
        assert len(combined.components) == 4015
        assert len(combined.services) == 503  # ns, dci, 500 servers, reservation
        assert len(combined.groups["services/servers"]) == 500

    def test_service_declaration_order(self, combined):
        ids = [s.id for s in combined.services]
        assert ids[0] == "services/ns"
        assert ids[1] == "services/dci"
        assert ids[2] == "services/servers/server-1"
        assert ids[-1] == "services/reservation"  # appended by the fragment

    def test_group_membership(self, combined):
        members = combined.groups["services/servers"]
        assert members[0] == "services/servers/server-1"
        assert members[-1] == "services/servers/server-500"
        by_id = {s.id: s for s in combined.services}
        assert by_id["services/servers/server-9"].group == "services/servers"
        assert by_id["services/ns"].group is None

    def test_explicit_bindings(self, combined):
        assert (
            Binding("services/dci", "ns", "services/ns", "NameService")
            in combined.bindings
        )
        assert (
            Binding("services/servers/server-250", "dci", "services/dci", "DCI")
            in combined.bindings
        )

    def test_services_bind_node_barriers(self, combined):
        node_edges = {
            (b.client, b.server)
            for b in combined.bindings
            if b.interface == "Node" and b.client.startswith("services/")
        }
        assert ("services/ns", "nodes/node-0/ready") in node_edges
        assert ("services/servers/server-42", "nodes/node-42/ready") in node_edges
        assert combined.node_assignment["services/ns"] == "nodes/node-0"

    def test_nodelist_binding_derived_from_path_equality(self, combined):
        assert (
            Binding("nodes/hostname", "nodelist", "services/reservation", "NodeList")
            in combined.bindings
        )

    def test_ordinals_number_nodes_per_hostname_provider(self, combined):
        assert combined.composites["nodes/node-0"].ordinal == 0
        assert combined.composites["nodes/node-399"].ordinal == 399
        assert combined.composites["nodes/oar_server"].ordinal == 0  # own static host

    def test_ordinals_unaffected_by_earlier_static_nodes(self, registry_m):
        asm = assembly_for(reserved(3, granted=3), registry_m)
        for i in range(3):
            assert asm.composites[f"nodes/node-{i}"].ordinal == i

    def test_nodes_served_by_another_nodes_host_are_numbered_after_it(self, registry_m):
        """node-0's own StaticHost serves the hostnames of nodes 1-3 too, so
        all four are numbered through it, node-0 first: node-0 reaches it
        through its barrier, the others through their protocol."""
        asm = assembly_for(
            "app = OpenCCM.Deployment {\n"
            "  nodes = {\n"
            "    node-0 = Grid5000_NODE { hostname = StaticHost(simnode-0) }\n"
            "    apply FOR(i,1,3) {\n"
            "      node-%{i} = Grid5000_NODE { hostname = nodes/node-0/hostname }\n"
            "    }\n"
            "  }\n"
            "}\n",
            registry_m,
        )
        assert [c.ordinal for c in asm.composites.values()] == [0, 1, 2, 3]

    def test_services_are_assigned_the_node_their_node_port_reaches(self, registry_m):
        """A service written against a node is bound to the node's barrier
        and assigned the node; one bound to a shared NodeReady, or to a
        NodeReady role that is not the barrier, is assigned that component."""
        asm = assembly_for(
            "app = OpenCCM.Deployment {\n"
            "  nodes = {\n"
            "    nr = NodeReady\n"
            "    node-0 = Grid5000_NODE { hostname = StaticHost(simnode-0) }\n"
            "    node-1 = Grid5000_NODE {\n"
            "      hostname = StaticHost(simnode-1)\n"
            "      extra = NodeReady\n"
            "    }\n"
            "  }\n"
            "  services = {\n"
            "    ns = OpenCCM.NameService { node = nodes/node-1 }\n"
            "    spare = OpenCCM.NameService { node = nodes/nr }\n"
            "    image = Kadeploy { node = nodes/node-1/extra }\n"
            "    idle = Kadeploy\n"
            "  }\n"
            "}\n",
            registry_m,
        )
        served = {b.client: b.server for b in asm.bindings if b.client.startswith("services/")}
        assert served == {
            "services/ns": "nodes/node-1/ready",
            "services/spare": "nodes/nr",
            "services/image": "nodes/node-1/extra",
        }
        assert asm.node_assignment == {
            "services/ns": "nodes/node-1",
            "services/spare": "nodes/nr",
            "services/image": "nodes/node-1/extra",
        }

    def test_barrier_guards_every_owned_child(self, combined):
        composite = combined.composites["nodes/node-7"]
        barrier = combined.components[composite.children["ready"]]
        guarded = {
            b.server for b in combined.bindings if b.client == barrier.id
        }
        owned = {cid for role, cid in composite.children.items() if role != "ready"}
        assert guarded == owned
        assert composite.exports["Node"] == barrier.id

    def test_node_defaults_filled_in(self, combined):
        frontend = combined.composites["nodes/oar_server"]
        roles = set(frontend.children)
        assert roles == {"hostname", "protocol", "shell", "ready"}
        assert combined.components[frontend.children["protocol"]].kind == "SSH"
        assert combined.components[frontend.children["shell"]].kind == "SH"

    def test_shared_components_not_owned(self, combined):
        assert "nodes/hostname" in combined.shared
        assert combined.components["nodes/hostname"].owner is None
        for composite in combined.composites.values():
            assert "nodes/hostname" not in composite.children.values()

    def test_validates_clean(self, combined):
        assert validate(combined) == []

    def test_autobind_precedence(self):
        """A same-named role reference, then a sibling other than the client
        itself, then any role reference, then the block's first shared
        provider."""
        registry = default_registry()
        registry.add(KindSpec("Relay", frozenset({"Link"}), ports=(PortSpec("link", "Link", required=False),)))
        registry.add(KindSpec("Rack", frozenset({"Node"}), composite=True))
        asm = assembly_for(
            "app = OpenCCM.Deployment {\n"
            "  nodes = {\n"
            "    hub = Relay\n"
            "    spare = Relay\n"
            "    rack = Rack { a = Relay\n b = Relay }\n"
            "    solo = Rack { c = Relay }\n"
            "    tied = Rack { link = nodes/spare\n e = Relay\n f = Relay }\n"
            "    ref = Rack { up = nodes/spare\n g = Relay }\n"
            "  }\n"
            "}\n",
            registry,
        )
        served = {b.client: b.server for b in asm.bindings if b.port == "link"}
        assert served == {
            "nodes/rack/a": "nodes/rack/b",
            "nodes/rack/b": "nodes/rack/a",
            "nodes/solo/c": "nodes/hub",
            "nodes/tied/e": "nodes/spare",
            "nodes/tied/f": "nodes/spare",
            "nodes/ref/g": "nodes/spare",
        }

    def test_nodes_of_one_body_share_their_child_order(self, registry_m):
        """The nodes of one loop share one child layout, sorted on the first
        call; node-0, whose role reference binds its protocol to its own
        host, keeps an order of its own.  Every order equals a fresh sort."""
        asm = assembly_for(
            "app = OpenCCM.Deployment {\n"
            "  nodes = {\n"
            "    apply FOR(i,0,2) {\n"
            "      node-%{i} = Grid5000_NODE {\n"
            "        protocol = SSH\n"
            "        h = StaticHost(simnode-0)\n"
            "        hostname = nodes/node-0/h\n"
            "      }\n"
            "    }\n"
            "  }\n"
            "}\n",
            registry_m,
        )
        first, second, third = (asm.composites[f"nodes/node-{i}"] for i in range(3))
        assert first.layout is None
        assert second.layout is third.layout and second.layout.order is None
        for composite in (first, second, third):
            assert asm.child_order(composite.id) == asm._sorted_children(composite)
        assert asm.child_order(first.id)[:2] == ["nodes/node-0/h", "nodes/node-0/protocol"]
        assert asm.child_order(second.id)[:2] == ["nodes/node-1/protocol", "nodes/node-1/h"]

    def test_binding_added_after_generate_drops_the_shared_order(self, registry_m):
        """A binding between two children of a node, added once the shared
        order was sorted, gives that node a fresh sort and leaves the others
        sharing theirs.  No generated port is free to bind, so the test
        gives node-1's jre one more optional port first."""
        asm = assembly_for(
            "app = OpenCCM.Deployment {\n"
            "  nodes = {\n"
            "    apply FOR(i,0,2) {\n"
            "      node-%{i} = Grid5000_NODE {\n"
            "        hostname = StaticHost(simnode-%{i})\n"
            "        jre = Jre(/opt/java/jre)\n"
            "        var = Variable(MODE)\n"
            "      }\n"
            "    }\n"
            "  }\n"
            "}\n",
            registry_m,
        )
        shared = [asm.child_order(f"nodes/node-{i}") for i in range(3)]
        assert [cid.rsplit("/", 1)[1] for cid in shared[1]] == ["hostname", "protocol", "shell", "jre", "var", "ready"]
        jre = asm.components["nodes/node-1/jre"]
        jre.ports = (*jre.ports, PortSpec("after", "Variable", required=False))
        asm.add_binding(Binding(jre.id, "after", "nodes/node-1/var", "Variable"))
        node1 = asm.composites["nodes/node-1"]
        assert node1.layout is None
        assert asm.child_order(node1.id) == asm._sorted_children(node1)
        assert [cid.rsplit("/", 1)[1] for cid in asm.child_order(node1.id)] == [
            "hostname", "protocol", "shell", "var", "jre", "ready"
        ]
        assert [asm.child_order(f"nodes/node-{i}") for i in (0, 2)] == [shared[0], shared[2]]
        assert asm.composites["nodes/node-0"].layout is asm.composites["nodes/node-2"].layout


class TestGenerationErrors:
    def test_unknown_kind(self, registry_m):
        with pytest.raises(UnknownKind):
            assembly_for("a = K {\n  nodes = {\n    x = Bogus(1)\n  }\n  services = {\n  }\n}\n", registry_m)

    def test_missing_required_argument(self, registry_m):
        text = MINI.replace("Jre(/opt/java/jre)", "Jre")
        with pytest.raises(ArityMismatch):
            assembly_for(text, registry_m)

    def test_int_parameter_wants_integer(self, registry_m):
        text = MINI.replace("hostname = StaticHost(simnode-0)", "hostname = StaticHost(simnode-0)\n      port = Port(twenty)")
        with pytest.raises(ArityMismatch):
            assembly_for(text, registry_m)

    def test_service_body_must_hold_references(self, registry_m):
        text = MINI.replace("node = nodes/node-0", "node = Port(1)")
        with pytest.raises(ConfigError):
            assembly_for(text, registry_m)

    def test_unknown_service_port(self, registry_m):
        text = MINI.replace("node = nodes/node-0", "nod = nodes/node-0")
        with pytest.raises(ConfigError):
            assembly_for(text, registry_m)

    def test_ready_role_is_reserved(self, registry_m):
        """`ready` names the node's readiness barrier; a user role of that
        name is refused where it is written, not replaced by the barrier."""
        text = MINI.replace("jre = Jre(/opt/java/jre)", "ready = Jre(/opt/java/jre)")
        with pytest.raises(ConfigError, match="'ready' is reserved") as info:
            assembly_for(text, registry_m)
        assert (info.value.line, info.value.column) == (6, 7)

    LOOP = (
        "app = OpenCCM.Deployment {{\n"
        "  nodes = {{\n"
        "    hostname = DynamicHost(~/nodelist)\n"
        "    apply FOR(i,0,3) {{\n"
        "      node-%{{i}} = Grid5000_NODE {{\n"
        "        hostname = {host}\n"
        "        {role}\n"
        "      }}\n"
        "    }}\n"
        "  }}\n"
        "}}\n"
    )

    @pytest.mark.parametrize("host", ["nodes/hostname", "StaticHost(simnode-%{i})"], ids=["shared", "varying"])
    @pytest.mark.parametrize(
        "role, error, position, message",
        [
            ("jre = Jre", ArityMismatch, (7, 15), "Jre takes 1..2 arguments, got 0"),
            ("port = Port(twenty)", ArityMismatch, (7, 21), "Port: parameter value wants an integer, got 'twenty'"),
            (
                "ready = Jre(/opt/java/jre)",
                ConfigError,
                (7, 9),
                "nodes/node-0/ready: role name 'ready' is reserved for the node's readiness barrier",
            ),
        ],
        ids=["missing-argument", "not-an-integer", "reserved-role"],
    )
    def test_errors_in_a_loop_body_name_where_they_are_written(self, registry_m, host, role, error, position, message):
        """A fault in a node body shared by every node of a loop, or in one
        whose hostname varies per node, is reported at its place in the
        source, for the first node that has it."""
        with pytest.raises(error) as info:
            assembly_for(self.LOOP.format(host=host, role=role), registry_m)
        assert type(info.value) is error
        assert (info.value.line, info.value.column) == position
        assert str(info.value) == f"{position[0]}:{position[1]}: {message}"

    def test_node_ref_must_provide_the_interface(self, registry_m):
        text = (
            "app = OpenCCM.Deployment {\n"
            "  nodes = {\n"
            "    hostname = DynamicHost(~/nodelist)\n"
            "    node-0 = Grid5000_NODE {\n"
            "      hostname = nodes/hostname\n"
            "    }\n"
            "  }\n"
            "  services = {\n"
            "    ns = OpenCCM.NameService {\n"
            "      node = nodes/hostname\n"
            "    }\n"
            "  }\n"
            "}\n"
        )
        with pytest.raises(DanglingNodeRef):
            assembly_for(text, registry_m)

    def test_node_role_kind_must_provide_an_interface(self, tmp_path):
        """The barrier's port for a role wants what the role provides, so a
        kind that provides nothing is refused where the role is written."""
        (tmp_path / "mark.yaml").write_text("kinds:\n  - kind: Mark\n")
        registry = default_registry(extra_dirs=[str(tmp_path)])
        text = "app = K {\n  nodes = {\n    node-0 = Grid5000_NODE {\n      hostname = StaticHost(h)\n      mark = Mark\n    }\n  }\n}\n"
        with pytest.raises(ConfigError) as info:
            assembly_for(text, registry)
        assert type(info.value) is ConfigError
        assert str(info.value) == "5:7: nodes/node-0/mark: kind Mark provides no interface, so it cannot be a node role"


class TestValidation:
    def test_unbound_required_port_reported(self, registry_m):
        text = MINI.replace("node = nodes/node-0", "")
        asm = assembly_for(text, registry_m)
        codes = {d.code for d in validate(asm)}
        assert "unbound-port" in codes

    def test_build_raises_validation_failed(self):
        with pytest.raises(ValidationFailed) as err:
            build_from_text(MINI.replace("node = nodes/node-0", ""))
        assert any(d.code == "unbound-port" for d in err.value.diagnostics)

    def test_cycle_reported(self):
        asm = service_dag(2, [(0, 1)])
        asm.components["s0"].ports = (PortSpec("back", "I1"),)
        asm.add_binding(Binding("s0", "back", "s1", "I1"))
        diagnostics = validate(asm)
        cycles = [d for d in diagnostics if d.code == "cycle"]
        assert len(cycles) == 1
        assert "s0" in cycles[0].subject and "s1" in cycles[0].subject

    def test_cycles_keep_their_discovery_order(self):
        """Depth first from s0: s0 -> s5 -> s2 closes s2 <-> s3 before
        s0 <-> s4 closes; the self-loop on s1 comes last."""
        asm = service_dag(6, [(4, 0), (0, 4), (1, 1), (3, 2), (2, 3), (2, 5), (5, 0)])
        assert [d.subject for d in validate(asm) if d.code == "cycle"] == ["s2, s3", "s0, s4", "s1"]

    def test_cycle_reported_iff_a_service_reaches_itself(self):
        rng = random.Random(31)
        for _ in range(60):
            n, edges = random_dag(rng)
            edges += [(j, i) for i, j in edges if rng.random() < 0.1]
            edges += [(i, i) for i in range(n) if rng.random() < 0.05]
            reach = {i: {j for a, j in edges if a == i} for i in range(n)}
            for k in range(n):  # transitive closure, Floyd-Warshall order
                for i in range(n):
                    if k in reach[i]:
                        reach[i] |= reach[k]
            on_cycle = {f"s{i}" for i in range(n) if i in reach[i]}
            reported = [d.subject.split(", ") for d in validate(service_dag(n, edges)) if d.code == "cycle"]
            assert {s for subject in reported for s in subject} == on_cycle
            assert sum(map(len, reported)) == len(on_cycle)

    def test_dangling_node_reported(self, registry_m):
        asm = assembly_for(MINI, registry_m)
        asm.node_assignment["services/ns"] = "nodes/ghost"
        assert any(d.code == "dangling-node" for d in validate(asm))

    def test_binding_to_missing_component(self):
        asm = service_dag(1, [])
        asm.add_binding(Binding("s0", "x", "ghost", "I9"))
        assert any(d.code == "unknown-component" for d in validate(asm))

    def test_interface_mismatch(self):
        asm = service_dag(2, [])
        asm.add_binding(Binding("s1", "d0", "s0", "NotProvided"))
        assert any(d.code == "interface-mismatch" for d in validate(asm))

    @pytest.mark.parametrize(
        "edges, groups, expected",
        [
            ([(0, 1)], {"g": ["s0", "s1"]}, ["s1: needs s0 of its own group g"]),
            ([(0, 2), (2, 1)], {"g": ["s0", "s1"]}, ["s1: needs s0 of its own group g"]),
            (
                [(0, 2), (3, 1)],
                {"g": ["s0", "s1"], "h": ["s2", "s3"]},
                ["s1: needs s0 of its own group g", "s2: needs s3 of its own group h"],
            ),
            ([(0, 2), (1, 3)], {"g": ["s0", "s1"], "h": ["s2", "s3"]}, []),
        ],
    )
    def test_group_member_needing_a_sibling(self, edges, groups, expected):
        """A group starts in one stage: a member may not need a sibling,
        directly, through another unit, or through another group that in
        turn needs this one."""
        asm = service_dag(4, edges)
        asm.groups.update(groups)
        assert [f"{d.subject}: {d.detail}" for d in validate(asm) if d.code == "group-cycle"] == expected

    def test_group_member_missing(self):
        asm = service_dag(1, [])
        asm.groups["g"] = ["s0", "ghost"]
        assert any(d.code == "unknown-component" for d in validate(asm))


# -- plan order ----------------------------------------------------------


class TestDiamond:
    def test_emitted_order_in_enumerated_set(self):
        edges = [(0, 1), (0, 2), (1, 3), (2, 3)]
        orders = all_topological_orders([f"s{i}" for i in range(4)], [(f"s{i}", f"s{j}") for i, j in edges])
        # oracle self-check: the diamond has exactly two linear extensions
        assert set(orders) == {("s0", "s1", "s2", "s3"), ("s0", "s2", "s1", "s3")}
        emitted = tuple(emitted_order(plan(service_dag(4, edges))))
        assert emitted in orders

    def test_declaration_order_breaks_ties(self):
        emitted = emitted_order(plan(service_dag(4, [(0, 1), (0, 2), (1, 3), (2, 3)])))
        assert emitted == ["s0", "s1", "s2", "s3"]


class TestRandomDags:
    def test_sixty_random_plans_are_linear_extensions(self):
        rng = random.Random(2024)
        enumerated = 0
        for _ in range(60):
            n, edges = random_dag(rng)
            asm = service_dag(n, edges)
            emitted = tuple(emitted_order(plan(asm)))
            assert len(emitted) == n
            named = [(f"s{i}", f"s{j}") for i, j in edges]
            orders = all_topological_orders([f"s{i}" for i in range(n)], named)
            if orders is not None:
                enumerated += 1
                assert emitted in orders
            else:
                assert is_topological(emitted, named)
        assert enumerated >= 50  # the cap fallback stays the exception

    def test_plan_is_deterministic(self):
        rng = random.Random(5)
        n, edges = random_dag(rng)
        asm = service_dag(n, edges)
        assert plan(asm) == plan(asm)

    def test_inverse_order_is_reverse(self):
        rng = random.Random(9)
        for _ in range(10):
            n, edges = random_dag(rng)
            asm = service_dag(n, edges)
            forward = plan(asm)
            backward = plan_inverse(forward)
            assert emitted_order(backward) == list(reversed(emitted_order(forward)))
            for stage in backward.stages:
                for action in stage.all_actions:
                    assert action.state is LifecycleState.UNINSTALLED

    def test_service_cycle_refused(self):
        asm = service_dag(2, [(0, 1)])
        asm.components["s0"].ports = (PortSpec("back", "I1"),)
        asm.add_binding(Binding("s0", "back", "s1", "I1"))
        with pytest.raises(CyclicDependency):
            plan(asm)

    def test_cycle_through_a_shared_unit_refused(self):
        """s needs shared x and x needs s: no order of the two honours both."""
        asm = service_dag(1, [])
        asm.components["x"] = Component(id="x", kind="Shared")
        asm.shared.append("x")
        asm.add_binding(Binding("s0", "x", "x", "Ix"))
        asm.add_binding(Binding("x", "s", "s0", "I0"))
        with pytest.raises(CyclicDependency):
            plan(asm)


class TestRandomAssemblies:
    """Plans of 500 seeded random assemblies: the invariants every plan
    keeps, and a digest of the plans (or refusals) that pins their exact
    shape."""

    DIGEST = "4878832137b13a82688fd5df090440c9fd07853789843d18fb33e5bf87a79384"

    def test_plans_keep_invariants_and_digest(self):
        rng = random.Random(9151)
        texts = []
        for _ in range(500):
            asm = random_assembly(rng)
            try:
                deployment_plan = plan(asm)
            except CyclicDependency as err:
                texts.append(f"refused: {err}\n")
                continue
            texts.append(emit_text(asm, deployment_plan))
            assert plan(asm) == deployment_plan
            order = emitted_order(deployment_plan)
            assert sorted(order) == sorted([*asm.composites, *asm.shared, *(s.id for s in asm.services)])
            position = {unit: i for i, unit in enumerate(order)}
            edges = unit_edges(asm)
            assert all(position[server] < position[client] for client, server in edges)
            assert parallel_members_independent(deployment_plan, edges)
        assert sum(text.startswith("refused") for text in texts) < 25
        assert sha256("".join(texts)) == self.DIGEST


def hostname_servers(asm):
    """composite id -> the server of its first hostname binding, in binding
    order: the whole-assembly scan that numbered composites before
    generate numbered them while binding."""
    servers = {}
    for binding in asm.bindings:
        client = asm.components.get(binding.client)
        if binding.interface == "Hostname" and client is not None and client.owner:
            servers.setdefault(client.owner, binding.server)
    return servers


def ordinals_by_scan(asm):
    """composite id -> ordinal: its index, in declaration order, among the
    composites with the same hostname server; one with none is alone."""
    servers = hostname_servers(asm)
    counters, ordinals = {}, {}
    for cid in asm.composites:
        server = servers.get(cid, cid)
        ordinals[cid] = counters.get(server, 0)
        counters[server] = ordinals[cid] + 1
    return ordinals


def nodes_by_scan(asm):
    """service id -> node, by the whole-assembly scan that assigned nodes
    before generate assigned them while binding: the server of the
    service's Node binding, or the composite whose barrier that is."""
    barrier_owner = {c.children["ready"]: c.id for c in asm.composites.values()}
    node_server = {b.client: b.server for b in asm.bindings if b.interface == "Node"}
    return {
        s.id: barrier_owner.get(node_server[s.id], node_server[s.id]) for s in asm.services if s.id in node_server
    }


class TestRandomConfigs:
    def test_ordinals_and_node_assignment_match_whole_assembly_scans(self, registry_m):
        """On 1,000 seeded random configurations, generate numbers the
        composites and assigns the services' nodes as the whole-assembly
        scans do.  The sample holds nodes numbered through another node's
        own host, and services bound to NodeReady units that are not a
        barrier."""
        rng = random.Random(4409)
        built = through_another_node = to_a_non_barrier = 0
        for _ in range(1000):
            try:
                asm = assembly_for(random_config(rng), registry_m)
            except ConfigError:
                continue
            built += 1
            assert {cid: c.ordinal for cid, c in asm.composites.items()} == ordinals_by_scan(asm)
            assert list(asm.node_assignment.items()) == list(nodes_by_scan(asm).items())
            owners = {cid: asm.components[server].owner for cid, server in hostname_servers(asm).items()}
            through_another_node += any(owner not in (None, cid) for cid, owner in owners.items())
            to_a_non_barrier += any(node not in asm.composites for node in asm.node_assignment.values())
        assert built > 800
        assert through_another_node > 50 and to_a_non_barrier > 50, (through_another_node, to_a_non_barrier)


class TestPlanShape:
    def test_reservation_comes_first(self, registry_m):
        asm = assembly_for(reserved(3, granted=3), registry_m)
        stages = plan(asm).stages
        assert [s.label for s in stages] == [
            "services/reservation",
            "node-prep",
            "services/ns",
        ]
        assert [s.mode for s in stages] == ["sequential", "parallel", "sequential"]
        # the frontend deploys inside the reservation stage, before it
        assert [a.target for a in stages[0].actions] == [
            "nodes/frontend",
            "services/reservation",
        ]
        assert [a.target for a in stages[1].prelude] == ["nodes/hostname"]
        assert len(stages[1].actions) == 3

    def test_minimal_plan(self, registry_m):
        asm = assembly_for(MINI, registry_m)
        stages = plan(asm).stages
        assert [s.label for s in stages] == ["node-prep", "services/ns"]
        assert stages[0].actions == (PlanAction("nodes/node-0", LifecycleState.STARTED),)

    def test_group_forms_one_parallel_stage(self, registry_m):
        asm = assembly_for(chain(4), registry_m)
        stages = plan(asm).stages
        assert [s.label for s in stages] == [
            "node-prep",
            "services/ns",
            "services/dci",
            "services/servers",
        ]
        servers = stages[-1]
        assert servers.mode == "parallel"
        assert len(servers.actions) == 3

    def test_unreferenced_shared_component_swept(self, registry_m):
        asm = assembly_for(
            "app = OpenCCM.Deployment {\n"
            "  nodes = {\n"
            "    lone = StaticHost(unused.example)\n"
            "  }\n"
            "  services = {\n"
            "  }\n"
            "}\n",
            registry_m,
        )
        stages = plan(asm).stages
        assert [s.label for s in stages] == ["unreferenced"]
        assert [a.target for a in stages[0].actions] == ["nodes/lone"]

    def test_cross_node_dependency_waves(self):
        """A node stack depending on another node's stack cannot share its
        wave; the planner falls back to successive partial waves."""
        asm = Assembly()
        for name in ("a", "b"):
            asm.components[f"{name}/c"] = Component(id=f"{name}/c", kind="T", provides=frozenset({f"I{name}"}), owner=name)
            asm.composites[name] = Composite(id=name, kind="Node", children={"c": f"{name}/c"})
        asm.components["b/c"].ports = (PortSpec("dep", "Ia"),)
        asm.add_binding(Binding("b/c", "dep", "a/c", "Ia"))
        stages = plan(asm).stages
        assert [s.label for s in stages] == ["node-prep", "node-prep-2"]
        assert [a.target for a in stages[0].actions] == ["a"]
        assert [a.target for a in stages[1].actions] == ["b"]


    def test_paper_shape_with_reservation_second(self, registry_m):
        app, reservation = paper_pair(5)
        asm = generate(expand(merge(parse(app), parse(reservation))), registry_m)
        stages = plan(asm).stages
        assert [s.label for s in stages] == [
            "services/reservation",
            "node-prep",
            "services/ns",
            "services/dci",
            "services/servers",
        ]
        targets = [
            ([a.target for a in s.prelude], [a.target for a in s.actions], [a.target for a in s.postlude])
            for s in stages
        ]
        assert targets == [
            ([], ["nodes/oar_server", "services/reservation"], []),
            (["nodes/hostname"], [f"nodes/node-{i}" for i in range(5)], []),
            ([], ["services/ns"], []),
            ([], ["services/dci"], []),
            ([], [f"services/servers/server-{i}" for i in range(1, 5)], []),
        ]

    def test_blocked_group_does_not_hold_back_a_ready_one(self, registry_m):
        """`early` waits on the reservation declared after it; `late` runs
        on static hosts and goes first, pulling its node stacks along."""
        asm = assembly_for(
            "app = OpenCCM.Deployment {\n"
            "  nodes = {\n"
            "    hostname = DynamicHost(~/nodelist)\n"
            "    frontend = Grid5000_NODE {\n"
            "      hostname = StaticHost(frontend.example)\n"
            "    }\n"
            "    apply FOR(i,0,1) {\n"
            "      dyn-%{i} = Grid5000_NODE {\n"
            "        hostname = nodes/hostname\n"
            "      }\n"
            "      st-%{i} = Grid5000_NODE {\n"
            "        hostname = StaticHost(st-%{i}.example)\n"
            "      }\n"
            "    }\n"
            "  }\n"
            "  services = {\n"
            "    early = ParallelRunner {\n"
            "      apply FOR(i,0,1) {\n"
            "        ns-%{i} = OpenCCM.NameService {\n"
            "          node = nodes/dyn-%{i}\n"
            "        }\n"
            "      }\n"
            "    }\n"
            "    late = ParallelRunner {\n"
            "      apply FOR(i,0,1) {\n"
            "        ns-%{i} = OpenCCM.NameService {\n"
            "          node = nodes/st-%{i}\n"
            "        }\n"
            "      }\n"
            "    }\n"
            "    reservation = OARGrid(site=2,~/nodelist) {\n"
            "      node = nodes/frontend\n"
            "    }\n"
            "  }\n"
            "}\n",
            registry_m,
        )
        up = lambda *targets: tuple(PlanAction(t, LifecycleState.STARTED) for t in targets)  # noqa: E731
        assert plan(asm) == DeploymentPlan(
            (
                PlanStage(
                    "services/late",
                    "parallel",
                    up("services/late/ns-0", "services/late/ns-1"),
                    prelude=up("nodes/st-0", "nodes/st-1"),
                ),
                PlanStage(
                    "services/reservation",
                    "sequential",
                    up("nodes/frontend", "services/reservation"),
                ),
                PlanStage(
                    "node-prep",
                    "parallel",
                    up("nodes/dyn-0", "nodes/dyn-1"),
                    prelude=up("nodes/hostname"),
                ),
                PlanStage(
                    "services/early",
                    "parallel",
                    up("services/early/ns-0", "services/early/ns-1"),
                ),
            )
        )


class TestPlanInvariants:
    def test_every_unit_exactly_once(self, combined, combined_plan):
        covered = emitted_order(combined_plan)
        assert len(covered) == len(set(covered))
        units = (
            set(combined.composites)
            | set(combined.shared)
            | {s.id for s in combined.services}
        )
        assert set(covered) == units

    def test_every_component_driven_exactly_once(self, combined, combined_plan):
        seen = []
        for target in emitted_order(combined_plan):
            if target in combined.composites:
                seen.extend(combined.composites[target].children.values())
            else:
                seen.append(target)
        assert len(seen) == len(set(seen))
        assert set(seen) == set(combined.components)

    def test_parallel_stages_hold_independent_units(self, combined, combined_plan):
        """No unit in a parallel wave may reach another unit of the same
        wave through the dependency graph."""
        assert parallel_members_independent(combined_plan, unit_edges(combined))

    def test_clients_never_precede_their_servers(self, combined, combined_plan):
        edges = unit_edges(combined)
        order = {t: i for i, t in enumerate(emitted_order(combined_plan))}
        for client, server in edges:
            assert order[server] < order[client], (client, server)

    def test_inverse_is_an_involution(self, combined_plan):
        assert plan_inverse(plan_inverse(combined_plan)) == combined_plan

    def test_inverse_swaps_preludes(self, registry_m):
        asm = assembly_for(reserved(2, granted=2), registry_m)
        forward = plan(asm)
        backward = plan_inverse(forward)
        assert backward.stages[0].label == forward.stages[-1].label
        node_prep = next(s for s in backward.stages if s.label == "node-prep")
        assert [a.target for a in node_prep.postlude] == ["nodes/hostname"]
        assert node_prep.prelude == ()


# -- the generated assembly and its text -----------------------------------


class TestGeneratedAssembly:
    def test_every_component_starts_uninstalled(self, registry_m):
        asm = assembly_for(MINI, registry_m)
        assert isinstance(asm, Assembly)
        assert asm.components and asm.bindings
        assert all(c.state is LifecycleState.UNINSTALLED for c in asm.components.values())
        assert asm.journal.records() == []

    def test_behaviors_match_kinds(self, registry_m):
        asm = assembly_for(MINI, registry_m)
        assert isinstance(asm.components["nodes/node-0/jre"].behavior, ScriptBehavior)
        assert type(asm.components["nodes/node-0/ready"].behavior) is Behavior

    def test_ports_arrive_bound(self, registry_m):
        asm = assembly_for(MINI, registry_m)
        ns = asm.components["services/ns"]
        assert ns.bound["node"].server == "nodes/node-0/ready"
        recorded = [b for c in asm.components.values() for b in c.bound.values()]
        assert sorted(map(str, recorded)) == sorted(map(str, asm.bindings))

    def test_bad_binding_is_a_diagnostic(self, registry_m):
        """Generation records bindings unchecked; validate() names the fault."""
        asm = assembly_for(MINI, registry_m)
        asm.add_binding(Binding("services/ns", "node", "nodes/node-0/jre", "Node"))
        assert [d.code for d in validate(asm)] == ["interface-mismatch"]


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestGolden:
    """emit_text hashes of the shipped configurations, pinned so that a
    refactoring of the model cannot change its output unnoticed.  The first
    16 hex characters of an assembly's hash are its CLI state key."""

    PAPER = str(DATA / "paper.gdf")

    def test_paper_state_key(self, registry_m):
        asm = generate(load_config([self.PAPER]), registry_m)
        assert sha256(emit_text(asm))[:16] == "521530787f73582a"
        assert _state_key(build([self.PAPER], registry=registry_m).assembly) == "521530787f73582a"
        assert _state_key(assemble([self.PAPER], registry=registry_m)) == "521530787f73582a"

    def test_paper_with_plan(self, registry_m):
        asm = generate(load_config([self.PAPER]), registry_m)
        digest = sha256(emit_text(asm, plan(asm)))
        assert digest == "155fedd6a27b57b367e70829fc22776d9da5936580cb5eb5326913ffb2ba4d39"

    def test_paper_and_reservation_with_plan(self, combined, combined_plan):
        digest = sha256(emit_text(combined, combined_plan))
        assert digest == "7c3a2126d3dd5df2106b954d98758a27689f45c417387d083c8886d63cf96d73"
        assert sha256(emit_text(combined))[:16] == "99285d5015b6bfef"


# One node overrides a default role (its `protocol` comes before `user`), one
# node is written outside any loop, and one has no body: it sits in a block
# with no shared hostname, so validate() reports its SSH's unbound port.
MIXED = """
Mixed = OpenCCM.Deployment {
  nodes = {
    hostname = DynamicHost(~/nodelist)
    gateway = Grid5000_NODE {
      hostname = StaticHost(gw.example)
      port = Port(2222)
    }
    apply FOR(i,0,3) {
      node-%{i} = Grid5000_NODE {
        hostname = nodes/hostname
        jre = Jre(/opt/java/jre)
      }
    }
    special = Grid5000_NODE {
      hostname = nodes/hostname
      protocol = SSH
      user = User(alice,~/.ssh/id_rsa.pub)
      jre = Jre(/opt/java/jre)
    }
  }
  spare = {
    bare = Grid5000_NODE
  }
  services = {
    ns = OpenCCM.NameService {
      node = nodes/gateway
    }
  }
}
"""

NO_DIAGNOSTICS = sha256("")


class TestGoldenShapes:
    """Digests of emit_text with the plan and of validate()'s report for
    node bodies that vary per node, are shared by every node, or mix
    both with written-out and bodiless nodes."""

    @pytest.mark.parametrize(
        "text, emitted, diagnostics",
        [
            (
                middleware_config(50),
                "eb9dbcfd9d4f06bc0a09c5a67e4d86e41513d883cb07859eab0171786bb5dd07",
                NO_DIAGNOSTICS,
            ),
            (
                reserved(50, 50),
                "f589f4adc3f578cc44a457328c6860c4c33f80772ec06fce44c767635f493b13",
                NO_DIAGNOSTICS,
            ),
            (
                MIXED,
                "6a4d80424aab35858b6f5103410400fbce59b7f8a352d2b52c0bef1024cdeba1",
                "28371fbc1312d4e69526ad38d60d7e457a658e92643d137e43c099263055ce52",
            ),
        ],
        ids=["varying-body", "shared-body", "mixed"],
    )
    def test_digests(self, registry_m, text, emitted, diagnostics):
        asm = assembly_for(text, registry_m)
        assert sha256("".join(f"{d}\n" for d in validate(asm))) == diagnostics
        assert sha256(emit_text(asm, plan(asm))) == emitted


class TestEmission:
    def test_sections_and_determinism(self, registry_m):
        asm = assembly_for(MINI, registry_m)
        deployment_plan = plan(asm)
        text = emit_text(asm, deployment_plan)
        assert text == emit_text(asm, deployment_plan)
        for section in ("[components]", "[bindings]", "[composites]", "[services]", "[plan]"):
            assert section in text
        assert "stage 0 label=node-prep mode=parallel" in text
