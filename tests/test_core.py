"""Lifecycle state machine: transition table, ensure paths, journal replay."""

from collections import deque

import pytest

from conftest import fix_order
from gridforge.core import (
    ENSURE_PATHS,
    TRANSITIONS,
    Assembly,
    Behavior,
    Binding,
    Component,
    Composite,
    LifecycleAction,
    LifecycleState,
    PortSpec,
    replay,
)
from gridforge.errors import (
    ActionFailed,
    IllegalTransition,
    UnboundPort,
    UnknownComponent,
)

S = LifecycleState
A = LifecycleAction

# Oracle: all 12 (state, action) pairs spelled out by hand. None = illegal.
FULL_TABLE = {
    (S.UNINSTALLED, A.INSTALL): S.INSTALLED,
    (S.UNINSTALLED, A.START): None,
    (S.UNINSTALLED, A.STOP): None,
    (S.UNINSTALLED, A.UNINSTALL): None,
    (S.INSTALLED, A.INSTALL): None,
    (S.INSTALLED, A.START): S.STARTED,
    (S.INSTALLED, A.STOP): None,
    (S.INSTALLED, A.UNINSTALL): S.UNINSTALLED,
    (S.STARTED, A.INSTALL): None,
    (S.STARTED, A.START): None,
    (S.STARTED, A.STOP): S.INSTALLED,
    (S.STARTED, A.UNINSTALL): None,
}


def fresh(cid="c", state=S.UNINSTALLED, **kwargs):
    asm = Assembly()
    comp = asm.components[cid] = Component(id=cid, kind="Test", **kwargs)
    comp.state = state
    return asm, comp


def bfs_shortest_path(start, target):
    """Independent oracle: shortest action sequence through TRANSITIONS."""
    queue = deque([(start, ())])
    seen = {start}
    while queue:
        state, path = queue.popleft()
        if state == target:
            return path
        for (from_state, action), to_state in TRANSITIONS.items():
            if from_state == state and to_state not in seen:
                seen.add(to_state)
                queue.append((to_state, path + (action,)))
    raise AssertionError("unreachable target")


class TestTransitionTable:
    def test_exactly_four_legal_transitions(self):
        assert len(TRANSITIONS) == 4
        legal = {k for k, v in FULL_TABLE.items() if v is not None}
        assert set(TRANSITIONS) == legal

    @pytest.mark.parametrize("state", list(S))
    @pytest.mark.parametrize("action", list(A))
    def test_every_pair_matches_oracle(self, state, action):
        asm, comp = fresh(state=state)
        expected = FULL_TABLE[(state, action)]
        if expected is None:
            with pytest.raises(IllegalTransition):
                asm.transition("c", action)
            assert comp.state == state  # rejected actions change nothing
        else:
            assert asm.transition("c", action) == expected
            assert comp.state == expected

    def test_unknown_component(self):
        asm = Assembly()
        with pytest.raises(UnknownComponent):
            asm.transition("ghost", A.INSTALL)


class TestEnsure:
    @pytest.mark.parametrize("start", list(S))
    @pytest.mark.parametrize("target", list(S))
    def test_path_is_bfs_shortest(self, start, target):
        assert ENSURE_PATHS[(start, target)] == bfs_shortest_path(start, target)

    @pytest.mark.parametrize("start", list(S))
    @pytest.mark.parametrize("target", list(S))
    def test_ensure_reaches_target(self, start, target):
        asm, comp = fresh(state=start)
        performed = asm.ensure("c", target)
        assert comp.state == target
        assert len(performed) <= 2
        # second call is a no-op
        assert asm.ensure("c", target) == []

    def test_full_cycle(self):
        asm, comp = fresh()
        assert asm.ensure("c", S.STARTED) == [("c", A.INSTALL), ("c", A.START)]
        assert asm.ensure("c", S.UNINSTALLED) == [("c", A.STOP), ("c", A.UNINSTALL)]
        assert comp.state == S.UNINSTALLED

    def test_unknown_target(self):
        with pytest.raises(UnknownComponent):
            Assembly().ensure("ghost", S.STARTED)


class TestRandomWalks:
    def test_thousand_walks_replay_consistent(self):
        """Random legal action sequences tracked against the hand oracle;
        afterwards the journal replays to the exact same states."""
        import random

        rng = random.Random(12)
        asm = Assembly()
        shadow = {}
        for i in range(50):
            asm.components[f"c{i}"] = Component(id=f"c{i}", kind="Test")
            shadow[f"c{i}"] = S.UNINSTALLED
        steps = 0
        while steps < 1000:
            cid = f"c{rng.randrange(50)}"
            legal = [a for a in A if FULL_TABLE[(shadow[cid], a)] is not None]
            action = rng.choice(legal)
            new_state = asm.transition(cid, action)
            shadow[cid] = FULL_TABLE[(shadow[cid], action)]
            assert new_state == shadow[cid]
            steps += 1
        replayed = replay(asm.journal.records())
        for cid, state in shadow.items():
            assert replayed.get(cid, S.UNINSTALLED) == state

    def test_replay_skips_failed_records(self):
        class Flaky(Behavior):
            def __init__(self):
                self.fail_next = False

            def act(self, action, component, ctx=None):
                if action is A.START and self.fail_next:
                    raise RuntimeError("boom")

        asm, comp = fresh(behavior=Flaky())
        asm.transition("c", A.INSTALL)
        comp.behavior.fail_next = True
        with pytest.raises(ActionFailed):
            asm.transition("c", A.START)
        assert replay(asm.journal.records())["c"] == S.INSTALLED


class TestFailureSemantics:
    def test_failed_hook_preserves_state(self):
        class Broken(Behavior):
            def act(self, action, component, ctx=None):
                if action is A.START:
                    raise RuntimeError("no start for you")

        asm, comp = fresh(behavior=Broken())
        asm.transition("c", A.INSTALL)
        with pytest.raises(ActionFailed) as err:
            asm.transition("c", A.START)
        assert comp.state == S.INSTALLED
        assert err.value.component_id == "c"
        assert err.value.action == A.START

    def test_failure_journaled_as_fail(self):
        class Broken(Behavior):
            def act(self, action, component, ctx=None):
                raise RuntimeError("nope")

        asm, _ = fresh(behavior=Broken())
        with pytest.raises(ActionFailed):
            asm.transition("c", A.INSTALL)
        records = asm.journal.records()
        assert len(records) == 1
        assert not records[0].ok

    def test_unbound_required_port_blocks_actions(self):
        asm = Assembly()
        asm.components["srv"] = Component(id="srv", kind="Test", provides=frozenset({"I"}))
        asm.components["cli"] = Component(id="cli", kind="Test", ports=(PortSpec("dep", "I"),))
        with pytest.raises(UnboundPort):
            asm.transition("cli", A.INSTALL)
        asm.add_binding(Binding("cli", "dep", "srv", "I"))
        assert asm.transition("cli", A.INSTALL) == S.INSTALLED

    def test_optional_port_may_stay_unbound(self):
        asm = Assembly()
        asm.components["cli"] = Component(id="cli", kind="Test", ports=(PortSpec("dep", "I", required=False),))
        assert asm.transition("cli", A.INSTALL) == S.INSTALLED


class TestBindings:
    def make(self):
        asm = Assembly()
        asm.components["srv"] = Component(id="srv", kind="Test", provides=frozenset({"I"}))
        asm.components["cli"] = Component(id="cli", kind="Test", ports=(PortSpec("dep", "I"),))
        return asm

    def test_add_binding_records_edge(self):
        asm = self.make()
        binding = asm.add_binding(Binding("cli", "dep", "srv", "I"))
        assert asm.bindings == [binding]
        assert asm.components["cli"].bound == {"dep": binding}
        assert asm.dependency_graph()["cli"] == ["srv"]

    def test_double_bind_rejected(self):
        """A service binds a port by naming it in its body, so the one way
        to bind a port twice is to name it twice, which is refused."""
        from gridforge.assembly import generate
        from gridforge.dsl import expand, parse
        from gridforge.errors import DuplicateName
        from gridforge.personalities import default_registry

        text = (
            "app = OpenCCM.Deployment {\n"
            "  nodes = { node-0 = Grid5000_NODE { hostname = StaticHost(simnode-0) } }\n"
            "  services = {\n"
            "    ns = OpenCCM.NameService {\n"
            "      node = nodes/node-0\n"
            "      node = nodes/node-0\n"
            "    }\n"
            "  }\n"
            "}\n"
        )
        with pytest.raises(DuplicateName) as err:
            generate(expand(parse(text)), default_registry())
        assert err.value.args[0] == "services/ns/node declared twice"
        assert (err.value.line, err.value.column) == (6, 7)

    def test_unknown_endpoints(self):
        """add_binding needs its client to exist, and records nothing
        otherwise."""
        asm = self.make()
        with pytest.raises(KeyError):
            asm.add_binding(Binding("ghost", "dep", "srv", "I"))
        assert asm.bindings == []

    def node_and_service(self):
        """A hand-built node `n` (a host and the barrier guarding it) and a
        service `svc` whose Node port is still free."""
        from gridforge.assembly import ServiceEntry

        asm = Assembly()
        asm.components["n/host"] = Component(
            id="n/host", kind="StaticHost", provides=frozenset({"Hostname"}), owner="n"
        )
        asm.components["n/ready"] = Component(
            id="n/ready", kind="NodeReady", provides=frozenset({"Node"}),
            ports=(PortSpec("host", "Hostname"),), owner="n",
        )
        asm.add_binding(Binding("n/ready", "host", "n/host", "Hostname"))
        asm.composites["n"] = Composite(
            id="n", kind="Node", children={"host": "n/host", "ready": "n/ready"},
            exports={"Hostname": "n/host", "Node": "n/ready"},
        )
        asm.components["svc"] = Component(id="svc", kind="Service", ports=(PortSpec("node", "Node"),))
        asm.services.append(ServiceEntry("svc"))
        return asm

    def test_composite_provides_through_its_exports(self):
        asm = self.node_and_service()
        assert asm.provider_id("n", "Node") == "n/ready"
        assert asm.provider_id("n", "Jre") is None
        assert asm.provider_id("n/host", "Hostname") == "n/host"
        assert asm.provider_id("n/host", "Node") is None

    def test_service_bound_to_a_node_export(self):
        from gridforge.assembly import plan, validate

        asm = self.node_and_service()
        asm.add_binding(Binding("svc", "node", "n/ready", "Node"))
        assert asm.dependency_graph()["svc"] == ["n/ready"]
        assert validate(asm) == []
        assert [stage.label for stage in plan(asm).stages] == ["node-prep", "svc"]

    def test_duplicate_id_rejected(self):
        """A component's id is its block and its name, so two components of
        one id would need one name declared twice in a block: refused."""
        from gridforge.assembly import generate
        from gridforge.dsl import expand, parse
        from gridforge.errors import DuplicateName
        from gridforge.personalities import default_registry

        text = (
            "app = OpenCCM.Deployment {\n"
            "  nodes = {\n"
            "    node-0 = Grid5000_NODE { hostname = StaticHost(simnode-0) }\n"
            "    node-0 = Grid5000_NODE { hostname = StaticHost(simnode-1) }\n"
            "  }\n"
            "}\n"
        )
        with pytest.raises(DuplicateName) as err:
            generate(expand(parse(text)), default_registry())
        assert err.value.args[0] == "nodes/node-0 declared twice"
        assert (err.value.line, err.value.column) == (4, 5)

    def test_binding_value_semantics(self):
        binding = Binding(client="cli", port="dep", server="srv", interface="I")
        assert binding == Binding("cli", "dep", "srv", "I")
        assert binding != Binding("cli", "dep", "srv", "J")
        assert hash(binding) == hash(Binding("cli", "dep", "srv", "I"))
        assert len({binding, Binding("cli", "dep", "srv", "I")}) == 1
        assert (binding.client, binding.port, binding.server, binding.interface) == ("cli", "dep", "srv", "I")
        for name in ("client", "port", "server", "interface"):
            with pytest.raises(AttributeError):
                setattr(binding, name, "x")
        assert binding.server == "srv"


class TestJournal:
    def test_append_order_preserved(self):
        asm, _ = fresh()
        asm.ensure("c", S.STARTED)
        actions = [r.action for r in asm.journal.records()]
        assert actions == [A.INSTALL, A.START]


class TestAct:
    def test_act_is_called_for_every_action_or_for_none(self):
        """A behaviour with an `act`, its own or inherited, has it called
        for each of the four actions.  One without (`Behavior` itself, or a
        subclass that defines none) calls nothing.  Either way each action
        journals one ok record."""
        events = []

        class Acting(Behavior):
            def act(self, action, component, ctx=None):
                events.append(action)

        class Subclass(Acting):
            pass

        class Inert(Behavior):
            pass

        assert Behavior.act is None and Inert.act is None
        actions = (A.INSTALL, A.START, A.STOP, A.UNINSTALL)
        records = {}
        for behavior in (Subclass(), Inert()):
            asm, comp = fresh(behavior=behavior)
            for action in actions:
                asm.transition("c", action)
            assert comp.state == S.UNINSTALLED
            records[type(behavior)] = [(r.action, r.ok) for r in asm.journal.records()]
        assert events == list(actions)
        assert records[Subclass] == records[Inert] == [(action, True) for action in actions]


class TestComposites:
    def diamond(self):
        """d depends on b and c, both depend on a; all children of one node."""
        asm = Assembly()
        for cid in ("n/a", "n/b", "n/c", "n/d"):
            asm.components[cid] = Component(
                id=cid,
                kind="Test",
                provides=frozenset({"I"}),
                ports=(PortSpec("dep", "I", required=False), PortSpec("dep2", "I", required=False)),
                owner="n",
            )
        asm.composites["n"] = Composite(id="n", kind="Node", children={"a": "n/a", "b": "n/b", "c": "n/c", "d": "n/d"})
        for client, port, server in (("n/b", "dep", "n/a"), ("n/c", "dep", "n/a"), ("n/d", "dep", "n/b"), ("n/d", "dep2", "n/c")):
            asm.add_binding(Binding(client, port, server, "I"))
        fix_order(asm, "n")
        return asm

    def test_child_order_is_topological(self):
        asm = self.diamond()
        order = asm.child_order("n")
        pos = {cid: i for i, cid in enumerate(order)}
        assert pos["n/a"] < pos["n/b"] < pos["n/d"]
        assert pos["n/a"] < pos["n/c"] < pos["n/d"]

    def test_child_order_ignores_external_servers(self):
        """n/c also depends on a component outside the composite; that edge
        is the planner's business, so n/c is ready at once and only
        declaration order puts n/a before it."""
        asm = Assembly()
        asm.components["ext"] = Component(id="ext", kind="Test", provides=frozenset({"I"}))
        for cid in ("n/a", "n/b", "n/c"):
            asm.components[cid] = Component(
                id=cid,
                kind="Test",
                provides=frozenset({"I"}),
                ports=(PortSpec("dep", "I", required=False),),
                owner="n",
            )
        asm.composites["n"] = Composite(id="n", kind="Node", children={"a": "n/a", "b": "n/b", "c": "n/c"})
        asm.add_binding(Binding("n/c", "dep", "ext", "I"))
        asm.add_binding(Binding("n/b", "dep", "n/a", "I"))
        fix_order(asm, "n")
        assert asm.child_order("n") == ["n/a", "n/c", "n/b"]
        asm.composites["m"] = Composite(id="m", kind="Node", children={"c": "n/c", "b": "n/b", "a": "n/a"})
        fix_order(asm, "m")
        assert asm.child_order("m") == ["n/c", "n/a", "n/b"]

    def test_cascade_up_then_down(self):
        asm = self.diamond()
        listed = asm.transitions_to("n", S.STARTED)
        assert set(asm.status().values()) == {S.UNINSTALLED}  # listing performs nothing
        up = asm.ensure("n", S.STARTED)
        assert up == listed
        assert [cid for cid, _ in up][:2] == ["n/a", "n/a"]  # a installed+started first
        assert set(asm.status().values()) == {S.STARTED}
        down = asm.ensure("n", S.UNINSTALLED)
        assert [cid for cid, _ in down][:2] == ["n/d", "n/d"]  # teardown reversed
        assert set(asm.status().values()) == {S.UNINSTALLED}

    def test_composite_state_least_advanced(self):
        """A composite is at a state only once every child is, and a cascade
        moves just the children short of it."""
        asm = self.diamond()
        asm.ensure("n/a", S.STARTED)
        assert asm.transitions_to("n", S.STARTED) == [
            (cid, action) for cid in ("n/b", "n/c", "n/d") for action in (A.INSTALL, A.START)
        ]
        for cid in ("n/b", "n/c", "n/d"):
            asm.ensure(cid, S.INSTALLED)
        assert asm.transitions_to("n", S.INSTALLED) == [("n/a", A.STOP)]
        asm.ensure("n/a", S.INSTALLED)
        assert asm.transitions_to("n", S.INSTALLED) == []

    def test_composite_at_target_skips_child_order(self, monkeypatch):
        asm = self.diamond()
        asm.ensure("n", S.STARTED)

        def no_sort(composite_id):
            raise AssertionError("child_order called for a composite already at its target")

        monkeypatch.setattr(asm, "child_order", no_sort)
        assert asm.transitions_to("n", S.STARTED) == []
        asm.components["n/d"].state = S.INSTALLED
        with pytest.raises(AssertionError):
            asm.transitions_to("n", S.STARTED)

    def test_shared_child_second_cascade_noop(self):
        asm = Assembly()
        asm.components["shared"] = Component(id="shared", kind="Test", provides=frozenset({"I"}))
        asm.composites["p1"] = Composite(id="p1", kind="Node", children={"s": "shared"})
        asm.composites["p2"] = Composite(id="p2", kind="Node", children={"s": "shared"})
        fix_order(asm, "p1")
        fix_order(asm, "p2")
        assert asm.ensure("p1", S.STARTED) != []
        assert asm.ensure("p2", S.STARTED) == []
