"""Lifecycle state machine: transition table, ensure paths, journal replay."""

import re
from collections import deque
from datetime import datetime, timezone

import pytest

from gridforge import core
from gridforge.core import (
    ENSURE_PATHS,
    TRANSITIONS,
    Assembly,
    Behavior,
    Binding,
    Component,
    Composite,
    Journal,
    LifecycleAction,
    LifecycleState,
    PortSpec,
    replay,
)
from gridforge.errors import (
    ActionFailed,
    IllegalTransition,
    InterfaceMismatch,
    PortAlreadyBound,
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
    comp = asm.add(Component(id=cid, kind="Test", **kwargs))
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
            asm.add(Component(id=f"c{i}", kind="Test"))
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

            def start(self, component, ctx=None):
                if self.fail_next:
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
            def start(self, component, ctx=None):
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
            def install(self, component, ctx=None):
                raise RuntimeError("nope")

        asm, _ = fresh(behavior=Broken())
        with pytest.raises(ActionFailed):
            asm.transition("c", A.INSTALL)
        records = asm.journal.records()
        assert len(records) == 1
        assert not records[0].ok

    def test_unbound_required_port_blocks_actions(self):
        asm = Assembly()
        asm.add(Component(id="srv", kind="Test", provides=frozenset({"I"})))
        asm.add(Component(id="cli", kind="Test", ports=(PortSpec("dep", "I"),)))
        with pytest.raises(UnboundPort):
            asm.transition("cli", A.INSTALL)
        asm.bind(("cli", "dep"), "srv")
        assert asm.transition("cli", A.INSTALL) == S.INSTALLED

    def test_optional_port_may_stay_unbound(self):
        asm = Assembly()
        asm.add(Component(id="cli", kind="Test", ports=(PortSpec("dep", "I", required=False),)))
        assert asm.transition("cli", A.INSTALL) == S.INSTALLED


class TestBindings:
    def make(self):
        asm = Assembly()
        asm.add(Component(id="srv", kind="Test", provides=frozenset({"I"})))
        asm.add(Component(id="cli", kind="Test", ports=(PortSpec("dep", "I"),)))
        return asm

    def test_bind_records_edge(self):
        asm = self.make()
        binding = asm.bind(("cli", "dep"), "srv")
        assert binding.client == "cli" and binding.server == "srv"
        assert asm.dependency_graph()["cli"] == ["srv"]

    def test_double_bind_rejected(self):
        asm = self.make()
        asm.bind(("cli", "dep"), "srv")
        with pytest.raises(PortAlreadyBound):
            asm.bind(("cli", "dep"), "srv")

    def test_interface_mismatch(self):
        asm = self.make()
        asm.add(Component(id="other", kind="Test", provides=frozenset({"J"})))
        with pytest.raises(InterfaceMismatch):
            asm.bind(("cli", "dep"), "other")

    def test_unknown_endpoints(self):
        asm = self.make()
        with pytest.raises(UnknownComponent):
            asm.bind(("cli", "dep"), "ghost")
        with pytest.raises(UnknownComponent):
            asm.bind(("ghost", "dep"), "srv")

    def node_and_service(self):
        """A hand-built node `n` (a host and the barrier guarding it) and a
        service `svc` whose Node port is still free."""
        from gridforge.assembly import ServiceEntry

        asm = Assembly()
        asm.add(Component(id="n/host", kind="StaticHost", provides=frozenset({"Hostname"}), owner="n"))
        asm.add(
            Component(
                id="n/ready", kind="NodeReady", provides=frozenset({"Node"}),
                ports=(PortSpec("host", "Hostname"),), owner="n",
            )
        )
        asm.bind(("n/ready", "host"), "n/host")
        asm.add_composite(
            Composite(id="n", kind="Node", children={"host": "n/host", "ready": "n/ready"},
                      exports={"Hostname": "n/host", "Node": "n/ready"})
        )
        asm.add(Component(id="svc", kind="Service", ports=(PortSpec("node", "Node"),)))
        asm.services.append(ServiceEntry("svc"))
        return asm

    def test_bind_to_a_composite_binds_its_export(self):
        from gridforge.assembly import plan, validate

        asm = self.node_and_service()
        binding = asm.bind(("svc", "node"), "n")
        assert binding == Binding("svc", "node", "n/ready", "Node")
        assert asm.dependency_graph()["svc"] == ["n/ready"]
        assert validate(asm) == []
        assert [stage.label for stage in plan(asm).stages] == ["node-prep", "svc"]

    def test_bind_to_a_composite_without_the_export(self):
        asm = self.node_and_service()
        asm.add(Component(id="app", kind="App", ports=(PortSpec("dep", "Jre"),)))
        with pytest.raises(InterfaceMismatch):
            asm.bind(("app", "dep"), "n")
        assert "dep" not in asm.components["app"].bound

    def test_duplicate_id_rejected(self):
        asm = self.make()
        with pytest.raises(PortAlreadyBound):
            asm.add(Component(id="srv", kind="Test"))

    def test_binding_value_semantics(self):
        binding = Binding(client="cli", port="dep", server="srv", interface="I")
        assert binding == Binding("cli", "dep", "srv", "I")
        assert binding != Binding("cli", "dep", "srv", "J")
        assert hash(binding) == hash(Binding("cli", "dep", "srv", "I"))
        assert len({binding, Binding("cli", "dep", "srv", "I")}) == 1
        assert str(binding) == "cli.dep -> srv [I]"
        assert (binding.client, binding.port, binding.server, binding.interface) == ("cli", "dep", "srv", "I")
        for name in ("client", "port", "server", "interface"):
            with pytest.raises(AttributeError):
                setattr(binding, name, "x")
        assert binding.server == "srv"


class TestJournal:
    LINE = re.compile(
        r"^\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}\.\d{3}\+00:00 "
        r"\S+ (Install|Start|Stop|Uninstall) (ok|fail) \d+\.\d{3}$"
    )

    def test_line_format(self):
        asm, _ = fresh()
        asm.ensure("c", S.STARTED)
        for line in asm.journal.export_lines():
            assert self.LINE.match(line), line

    def test_append_order_preserved(self):
        asm, _ = fresh()
        asm.ensure("c", S.STARTED)
        actions = [r.action for r in asm.journal.records()]
        assert actions == [A.INSTALL, A.START]

    def test_stamp_matches_datetime_isoformat(self, monkeypatch):
        """Stamps read as datetime's UTC isoformat, also where the cached
        second, minute and day roll over."""
        journal = Journal()
        for ms in (1_700_000_000_998, 1_700_000_000_999, 1_700_000_001_000, 1_700_000_059_999,
                   1_700_000_060_000, 1_700_006_399_999, 1_700_006_400_001, 1_700_000_001_500):
            monkeypatch.setattr(core.time, "time_ns", lambda ms=ms: ms * 1_000_000 + 123_456)
            want = datetime.fromtimestamp(ms / 1000, timezone.utc).isoformat(timespec="milliseconds")
            assert journal.stamp() == want

    def test_records_of_one_millisecond_share_one_stamp(self, monkeypatch):
        journal = Journal()
        monkeypatch.setattr(core.time, "time_ns", lambda: 1_700_000_000_998_123_456)
        first = journal.stamp()
        assert journal.stamp() is first
        monkeypatch.setattr(core.time, "time_ns", lambda: 1_700_000_000_999_000_000)
        assert journal.stamp() == "2023-11-14T22:13:20.999+00:00"


class TestComposites:
    def diamond(self):
        """d depends on b and c, both depend on a; all children of one node."""
        asm = Assembly()
        for cid in ("n/a", "n/b", "n/c", "n/d"):
            asm.add(
                Component(
                    id=cid,
                    kind="Test",
                    provides=frozenset({"I"}),
                    ports=(PortSpec("dep", "I", required=False), PortSpec("dep2", "I", required=False)),
                    owner="n",
                )
            )
        asm.add_composite(Composite(id="n", kind="Node", children={"a": "n/a", "b": "n/b", "c": "n/c", "d": "n/d"}))
        asm.bind(("n/b", "dep"), "n/a")
        asm.bind(("n/c", "dep"), "n/a")
        asm.bind(("n/d", "dep"), "n/b")
        asm.bind(("n/d", "dep2"), "n/c")
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
        asm.add(Component(id="ext", kind="Test", provides=frozenset({"I"})))
        for cid in ("n/a", "n/b", "n/c"):
            asm.add(
                Component(
                    id=cid,
                    kind="Test",
                    provides=frozenset({"I"}),
                    ports=(PortSpec("dep", "I", required=False),),
                    owner="n",
                )
            )
        asm.add_composite(Composite(id="n", kind="Node", children={"a": "n/a", "b": "n/b", "c": "n/c"}))
        asm.bind(("n/c", "dep"), "ext")
        asm.bind(("n/b", "dep"), "n/a")
        assert asm.child_order("n") == ["n/a", "n/c", "n/b"]
        asm.add_composite(Composite(id="m", kind="Node", children={"c": "n/c", "b": "n/b", "a": "n/a"}))
        assert asm.child_order("m") == ["n/c", "n/a", "n/b"]

    def test_cascade_up_then_down(self):
        asm = self.diamond()
        listed = asm.transitions_to("n", S.STARTED)
        assert asm.composite_state("n") == S.UNINSTALLED  # listing performs nothing
        up = asm.ensure("n", S.STARTED)
        assert up == listed
        assert [cid for cid, _ in up][:2] == ["n/a", "n/a"]  # a installed+started first
        assert asm.composite_state("n") == S.STARTED
        down = asm.ensure("n", S.UNINSTALLED)
        assert [cid for cid, _ in down][:2] == ["n/d", "n/d"]  # teardown reversed
        assert asm.composite_state("n") == S.UNINSTALLED

    def test_composite_state_least_advanced(self):
        asm = self.diamond()
        asm.ensure("n/a", S.STARTED)
        assert asm.composite_state("n") == S.UNINSTALLED
        for cid in ("n/b", "n/c", "n/d"):
            asm.ensure(cid, S.INSTALLED)
        assert asm.composite_state("n") == S.INSTALLED

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
        asm.add(Component(id="shared", kind="Test", provides=frozenset({"I"})))
        asm.add_composite(Composite(id="p1", kind="Node", children={"s": "shared"}))
        asm.add_composite(Composite(id="p2", kind="Node", children={"s": "shared"}))
        assert asm.ensure("p1", S.STARTED) != []
        assert asm.ensure("p2", S.STARTED) == []
