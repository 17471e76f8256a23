"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single `acceptance N: PASS|FAIL` line (visible even
under plain `pytest`) and carries its own time budget where one applies.
The heavyweight ones run the full 501-node configuration.
"""

import random
import time
from collections import Counter

import pytest

from conftest import DATA, seed_nodelist
from oracles import parse_sh_line
from test_assembly import all_topological_orders, emitted_order, service_dag

from gridforge.assembly import generate, plan, plan_inverse, validate
from gridforge.bench import measure_scaling, r_squared, to_csv
from gridforge.core import (
    ENSURE_PATHS,
    Assembly,
    Component,
    LifecycleAction,
    LifecycleState,
    replay,
)
from gridforge.dsl import load_config
from gridforge.errors import IllegalTransition
from gridforge.personalities import default_registry
from gridforge.pipeline import make_context
from gridforge.runtime import ExecOptions, execute
from gridforge.steps import (
    StepKind,
    append_path,
    exec_cmd,
    fetch,
    remove,
    render_sh,
    render_sh_line,
    set_var,
    start_process,
    stop_process,
)

S = LifecycleState
A = LifecycleAction

PAPER = str(DATA / "paper.gdf")
RESERVATION = str(DATA / "reservation.gdf")


def _run(capsys, number: int, body) -> None:
    try:
        detail = body()
    except BaseException as exc:
        with capsys.disabled():
            print(f"\nacceptance {number}: FAIL - {exc}")
        raise
    with capsys.disabled():
        print(f"\nacceptance {number}: PASS - {detail}")


@pytest.fixture(scope="module")
def paper_machine():
    """Configuration and plan of the 501-node deployment, built once; a
    run generates its own assembly, which the plan addresses by id."""
    registry = default_registry()
    config = load_config([PAPER])
    assembly = generate(config, registry)
    assert validate(assembly) == []
    return registry, config, plan(assembly)


def test_1_config_fidelity(capsys):
    def body():
        t0 = time.monotonic()
        registry = default_registry()
        config = load_config([PAPER, RESERVATION])
        descriptor = generate(config, registry)
        diagnostics = validate(descriptor)
        deployment_plan = plan(descriptor)
        elapsed = time.monotonic() - t0

        assert diagnostics == [], diagnostics
        nodes = [c for c in descriptor.composites if c.startswith("nodes/node-")]
        assert len(nodes) == 501, f"expected 501 nodes, got {len(nodes)}"
        members = descriptor.groups["services/servers"]
        assert len(members) == 500
        assert set(members) == {f"services/servers/server-{i}" for i in range(1, 501)}
        reservations = [
            s.id for s in descriptor.services
            if descriptor.components[s.id].kind == "OARGrid"
        ]
        assert reservations == ["services/reservation"]

        labels = [stage.label for stage in deployment_plan.stages]
        assert labels == [
            "services/reservation",
            "node-prep",
            "services/ns",
            "services/dci",
            "services/servers",
        ], labels
        last = deployment_plan.stages[-1]
        assert last.mode == "parallel"
        assert {a.target for a in last.actions} == set(members)
        assert elapsed < 2.0, f"took {elapsed:.1f}s"
        return (
            "501 nodes, 500 parallel servers, 1 reservation, "
            f"stage order reservation/prep/ns/dci/servers ({elapsed:.1f}s)"
        )

    _run(capsys, 1, body)


def test_2_linear_scaling(capsys):
    def body():
        t0 = time.monotonic()
        sizes = list(range(10, 201, 10))
        points = measure_scaling(sizes, max_workers=10)  # zero jitter default
        fit = r_squared([p.n_nodes for p in points], [p.effective_ms for p in points])
        elapsed = time.monotonic() - t0

        assert all(p.overhead_ms > 0.0 for p in points)
        assert all(p.effective_ms > 0.0 for p in points)
        header = to_csv(points).splitlines()[0]
        assert header == "n_nodes,overhead_ms,effective_ms"
        assert fit >= 0.98, f"r^2 = {fit:.4f}"
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        return f"r^2 = {fit:.4f} over {len(sizes)} sizes ({elapsed:.1f}s)"

    _run(capsys, 2, body)


def test_3_state_machine(capsys):
    def body():
        t0 = time.monotonic()
        legal = {
            (S.UNINSTALLED, A.INSTALL): S.INSTALLED,
            (S.INSTALLED, A.START): S.STARTED,
            (S.STARTED, A.STOP): S.INSTALLED,
            (S.INSTALLED, A.UNINSTALL): S.UNINSTALLED,
        }
        asm = Assembly()
        probe = asm.components["probe"] = Component(id="probe", kind="T")
        for state in S:
            for action in A:
                probe.state = state
                if (state, action) in legal:
                    assert asm.transition("probe", action) == legal[(state, action)]
                else:
                    with pytest.raises(IllegalTransition):
                        asm.transition("probe", action)
                    assert probe.state == state

        assert ENSURE_PATHS[(S.UNINSTALLED, S.STARTED)] == (A.INSTALL, A.START)
        assert ENSURE_PATHS[(S.STARTED, S.UNINSTALLED)] == (A.STOP, A.UNINSTALL)
        for state in S:
            assert ENSURE_PATHS[(state, state)] == ()
        assert ENSURE_PATHS[(S.UNINSTALLED, S.INSTALLED)] == (A.INSTALL,)
        assert ENSURE_PATHS[(S.INSTALLED, S.STARTED)] == (A.START,)
        assert ENSURE_PATHS[(S.STARTED, S.INSTALLED)] == (A.STOP,)
        assert ENSURE_PATHS[(S.INSTALLED, S.UNINSTALLED)] == (A.UNINSTALL,)

        rng = random.Random(0xBEEF)
        walked = Assembly()
        shadow: dict[str, LifecycleState] = {}
        for i in range(1000):
            cid = f"c{i}"
            walked.components[cid] = Component(id=cid, kind="T")
            state = S.UNINSTALLED
            for _ in range(rng.randint(1, 15)):
                action = rng.choice(
                    [a for a in A if (state, a) in legal]
                )
                state = walked.transition(cid, action)
                assert state == legal[(shadow.get(cid, S.UNINSTALLED), action)]
                shadow[cid] = state
        assert replay(walked.journal.records()) == shadow
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0, f"took {elapsed:.1f}s"
        return f"12/12 table entries, 1000 sequences replay-consistent ({elapsed:.1f}s)"

    _run(capsys, 3, body)


def test_4_topological_oracle(capsys):
    def body():
        rng = random.Random(0xACCE)
        checked = 0
        regenerated = 0
        while checked < 200:
            n = rng.randint(2, 12)
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.5
            ]
            orders = all_topological_orders(list(range(n)), edges, cap=2_000_000)
            if orders is None:  # too sparse to enumerate; draw another
                regenerated += 1
                continue
            emitted = emitted_order(plan(service_dag(n, edges)))
            as_indices = tuple(int(name[1:]) for name in emitted)
            assert as_indices in orders, f"{as_indices} not a valid order of {edges}"
            checked += 1
        return f"200 random DAG plans inside enumerated sets ({regenerated} redrawn)"

    _run(capsys, 4, body)


def _plan_units(deployment_plan, live) -> dict[str, str]:
    """Component id -> the plan action target (composite or component) that drives it."""
    unit = {}
    for stage in deployment_plan.stages:
        for action in stage.prelude + stage.actions + stage.postlude:
            if action.target in live.composites:
                for child in live.composites[action.target].children.values():
                    unit.setdefault(child, action.target)
            else:
                unit.setdefault(action.target, action.target)
    return unit


def test_5_order_under_parallelism(capsys, sim_home, paper_machine):
    def body():
        registry, config, deployment_plan = paper_machine
        seed_nodelist(sim_home, 501)
        worker_grid = (1, 4, 16)
        state_maps = []
        crossing = 0
        for i in range(100):
            live = generate(config, registry)
            ctx = make_context(live)
            report = execute(
                deployment_plan,
                ctx,
                ExecOptions(max_workers=worker_grid[i % 3], seed=i),
            )
            started_at = {}
            for idx, record in enumerate(live.journal.records()):
                if record.action is A.START and record.ok:
                    started_at.setdefault(record.component_id, idx)
            for binding in live.bindings:
                assert started_at[binding.server] < started_at[binding.client], (
                    f"run {i}: {binding.client} started before {binding.server}"
                )
            # In virtual time, a server's plan unit ends before its client's starts.
            unit = _plan_units(deployment_plan, live)
            outcome = {a.target: a for a in report.actions}
            crossing = 0
            for binding in live.bindings:
                server, client = unit[binding.server], unit[binding.client]
                if server == client:
                    continue
                crossing += 1
                server_end = outcome[server].start_ms + outcome[server].millis
                assert server_end <= outcome[client].start_ms, (
                    f"run {i}: {client} starts at {outcome[client].start_ms} "
                    f"before {server} ends at {server_end}"
                )
            state_maps.append({c: s.name for c, s in live.status().items()})
        assert all(m == state_maps[0] for m in state_maps)
        assert set(state_maps[0].values()) == {"STARTED"}
        return (
            "100 seeded runs at 1/4/16 workers: no client before its server "
            f"(journal order; virtual intervals of {crossing} cross-unit bindings)"
        )

    _run(capsys, 5, body)


def test_6_deploy_undeploy_involution(capsys, sim_home, paper_machine):
    def body():
        registry, config, deployment_plan = paper_machine
        seed_nodelist(sim_home, 501)
        live = generate(config, registry)
        ctx = make_context(live)

        execute(deployment_plan, ctx, ExecOptions(max_workers=16))
        first = len(live.journal.records())
        assert len(ctx.fleet.nodes) == 501

        execute(plan_inverse(deployment_plan), ctx, ExecOptions(max_workers=16))
        second = len(live.journal.records())
        for node in ctx.fleet.nodes.values():
            assert node.env == {}, f"{node.id} env left over: {node.env}"
            assert node.files == set(), f"{node.id} files left over"
            assert node.processes == set(), f"{node.id} processes left over"
        assert set(live.status().values()) == {S.UNINSTALLED}

        execute(deployment_plan, ctx, ExecOptions(max_workers=16))
        records = live.journal.records()
        multiset = lambda rs: Counter((r.component_id, r.action.value) for r in rs)
        assert multiset(records[:first]) == multiset(records[second:])
        assert set(live.status().values()) == {S.STARTED}
        return "501 sim nodes restored to pristine; redeploy action multiset identical"

    _run(capsys, 6, body)


def test_7_transport_boundary(capsys, paper_machine):
    def body():
        registry, config, _ = paper_machine
        live = generate(config, registry)
        jre = live.components["nodes/node-0/jre"]
        steps = jre.behavior.scripts.build("start", jre.args)[0].steps
        script = render_sh(steps)
        assert "export JAVA_HOME=/opt/java/jdk-1.5.0_05" in script, script

        examples = [
            set_var("JAVA_HOME", "/opt/java/jdk-1.5.0_05"),
            set_var("OLD_VAR", ""),  # unset form
            append_path("/opt/java/jdk-1.5.0_05/bin"),
            fetch("http://mirror.invalid/java/jre.tar.gz", "/tmp/jre.tar.gz"),
            exec_cmd("tar -xzf /tmp/jre.tar.gz -C /opt"),
            start_process("NS", "java -cp /opt/ns.jar Main"),
            stop_process("NS"),
            remove("/opt/java/jdk-1.5.0_05"),
        ]
        assert {e.kind for e in examples} == set(StepKind)
        for step in examples:
            assert parse_sh_line(render_sh_line(step)) == step
        return "JAVA_HOME export rendered; all step kinds round-trip through sh"

    _run(capsys, 7, body)
