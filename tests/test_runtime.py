"""Plan execution: virtual timing, worker bounds, failure and dry-run modes."""

import math
import sys
import threading
import time
import types

import pytest

from configs import MINI, chain, reserved
from gridforge import core
from gridforge.assembly import DeploymentPlan, PlanAction, PlanStage
from gridforge.core import Assembly, Behavior, Component, LifecycleState
from gridforge.errors import StageFailed
from gridforge.pipeline import DeployContext, build_from_text
from gridforge.runtime import ExecOptions, execute
from gridforge.simgrid import SimClockConfig, VirtualClock, WallClock

S = LifecycleState

# Per-action virtual costs under the default latency model (connect 5,
# step 10, probe 5), derived from the shipped personality scripts.
JRE = (5 + 5 + 2 * 10) + (5 + 2 * 10)  # guarded install + start = 55
OPENCCM = (5 + 5 + 3 * 10) + (5 + 3 * 10)  # guarded install + start = 75
NODE_STACK = JRE + OPENCCM  # 130
SERVICE = 5 + 10  # one StartProcess session = 15


def rounds(n, workers):
    return math.ceil(n / workers)


class Charge(Behavior):
    """Charges a fixed virtual cost per install."""

    def __init__(self, cost):
        self.cost = cost

    def install(self, component, ctx=None):
        ctx.clock.charge(self.cost)


def wave(behaviors, mode="parallel", clock=None):
    """Hand-built assembly of c0..cN plus one stage installing them all."""
    asm = Assembly()
    for i, behavior in enumerate(behaviors):
        asm.components[f"c{i}"] = Component(id=f"c{i}", kind="T", behavior=behavior)
    stage = PlanStage(
        label="wave",
        mode=mode,
        actions=tuple(PlanAction(f"c{i}", S.INSTALLED) for i in range(len(behaviors))),
    )
    return asm, DeploymentPlan((stage,)), DeployContext(asm, None, clock or VirtualClock())


def charge_wave(costs, mode="parallel"):
    _, plan, ctx = wave([Charge(cost) for cost in costs], mode)
    return plan, ctx


class TestVirtualTiming:
    def test_minimal_deployment_total(self):
        deployment = build_from_text(MINI)
        report = deployment.execute()
        assert report.total_ms == JRE + SERVICE

    def test_stage_walls_match_cost_model(self):
        n, workers = 10, 10
        deployment = build_from_text(chain(n))
        report = deployment.execute(ExecOptions(max_workers=workers))
        walls = {m.label: m.wall_ms for m in report.stages}
        assert walls["node-prep"] == rounds(n, workers) * NODE_STACK
        assert walls["services/ns"] == SERVICE
        assert walls["services/dci"] == SERVICE
        assert walls["services/servers"] == rounds(n - 1, workers) * SERVICE
        assert report.total_ms == sum(walls.values())

    @pytest.mark.parametrize("workers", [1, 4, 16])
    def test_makespan_scales_with_workers(self, workers):
        n = 10
        deployment = build_from_text(chain(n))
        report = deployment.execute(ExecOptions(max_workers=workers))
        walls = {m.label: m.wall_ms for m in report.stages}
        assert walls["node-prep"] == rounds(n, workers) * NODE_STACK
        assert walls["services/servers"] == rounds(n - 1, workers) * SERVICE

    @pytest.mark.parametrize(
        "mode,workers,expected",
        [("sequential", 8, 21.0), ("parallel", 2, 14.0), ("parallel", 1, 21.0)],
    )
    def test_sequential_sums_parallel_makespans(self, mode, workers, expected):
        plan, ctx = charge_wave([7.0] * 3, mode)
        report = execute(plan, ctx, ExecOptions(max_workers=workers))
        assert report.stages[0].wall_ms == expected
        assert report.total_ms == expected

    @pytest.mark.parametrize(
        "costs,workers,expected",
        [
            ([], 4, 0.0),
            ([7.0], 4, 7.0),
            ([130.0] * 10, 10, 130.0),
            ([130.0] * 10, 4, 390.0),
            ([5.0, 9.0, 3.0], 1, 17.0),
            ([10.0, 1.0, 1.0, 9.0], 2, 11.0),
        ],
    )
    def test_makespan_oracle(self, costs, workers, expected):
        # greedy multi-slot schedule, checked against hand-computed cases
        plan, ctx = charge_wave(costs)
        report = execute(plan, ctx, ExecOptions(max_workers=workers))
        assert report.stages[0].wall_ms == expected
        assert report.total_ms == expected
        assert max((a.start_ms + a.millis for a in report.actions), default=0.0) == expected

    def test_zero_workers_refused_like_the_pool(self):
        for clock in (VirtualClock(), WallClock()):
            _, plan, ctx = wave([Charge(1.0)], clock=clock)
            with pytest.raises(ValueError):
                execute(plan, ctx, ExecOptions(max_workers=0))

    def test_actions_start_on_earliest_free_slot(self):
        plan, ctx = charge_wave([10.0, 1.0, 1.0, 9.0])
        ctx.clock.advance(100.0)  # starts are absolute virtual times
        report = execute(plan, ctx, ExecOptions(max_workers=2))
        assert [a.start_ms for a in report.actions] == [100.0, 100.0, 101.0, 102.0]

    def test_sequential_actions_start_back_to_back(self):
        plan, ctx = charge_wave([5.0, 9.0, 3.0], mode="sequential")
        report = execute(plan, ctx, ExecOptions(max_workers=4))
        assert [a.start_ms for a in report.actions] == [0.0, 5.0, 14.0]

    def test_parallel_hooks_run_on_calling_thread(self):
        seen = set()

        class Where(Behavior):
            def install(self, component, ctx=None):
                seen.add(threading.get_ident())

        _, plan, ctx = wave([Where()] * 8)
        execute(plan, ctx, ExecOptions(max_workers=4))
        assert seen == {threading.get_ident()}

    def test_sim_deploy_acquires_no_lock(self, monkeypatch):
        """The sim starts no thread, so a deploy and an undeploy of the
        middleware chain, parallel stages included, take no lock."""
        acquired = [0]
        monkeypatch.setattr(threading, "Lock", counting_lock(acquired, threading.Lock))
        monkeypatch.setattr(threading, "RLock", counting_lock(acquired, threading.RLock))
        deployment = build_from_text(chain(6))
        deployment.execute(ExecOptions(max_workers=4, seed=1))
        deployment.execute_inverse(ExecOptions(max_workers=4, seed=1))
        assert len(deployment.assembly.journal) > 0
        assert acquired == [0]


class TestDeterminism:
    def test_metrics_byte_identical_across_runs(self):
        reports = [
            build_from_text(chain(8)).execute(ExecOptions(max_workers=4, seed=7))
            for _ in range(2)
        ]
        assert reports[0].metrics_csv() == reports[1].metrics_csv()

    def test_jittered_metrics_still_reproducible(self):
        cfg = SimClockConfig(jitter_seed=99)
        reports = [
            build_from_text(chain(8), sim_config=cfg).execute(
                ExecOptions(max_workers=4, seed=7)
            )
            for _ in range(2)
        ]
        assert reports[0].metrics_csv() == reports[1].metrics_csv()

    def test_final_states_worker_independent(self):
        results = []
        for workers in (1, 4, 16):
            deployment = build_from_text(chain(6))
            deployment.execute(ExecOptions(max_workers=workers, seed=workers))
            results.append(
                {cid: st.name for cid, st in deployment.assembly.status().items()}
            )
        assert results[0] == results[1] == results[2]
        assert set(results[0].values()) == {"STARTED"}


def counting_wave(count, concurrency_box=None, fail_at=None, delay=0.0, clock=None):
    """One parallel wave over `count` components that sleep, fail or count overlap."""
    lock = threading.Lock()
    live = {"value": 0}

    class Probe(Behavior):
        def install(self, component, ctx=None):
            if concurrency_box is not None:
                with lock:
                    live["value"] += 1
                    concurrency_box[0] = max(concurrency_box[0], live["value"])
            if delay:
                time.sleep(delay)
            if fail_at is not None and component.id == f"c{fail_at}":
                raise RuntimeError("injected")
            if concurrency_box is not None:
                with lock:
                    live["value"] -= 1

    return wave([Probe() for _ in range(count)], clock=clock)


def counting_lock(acquired: list, make):
    """A lock class over `make` whose instances add each acquisition to
    acquired[0], counted while the lock is held."""

    class Counting:
        def __init__(self):
            self._lock = make()

        def acquire(self, *args):
            got = self._lock.acquire(*args)
            if got:
                acquired[0] += 1
            return got

        def release(self):
            self._lock.release()

        def __enter__(self):
            return self.acquire()

        def __exit__(self, *exc):
            self.release()

    return Counting


class TestWorkerPool:
    """The thread pool serves real-time transports (WallClock) only."""

    def test_pool_appends_to_the_journal_under_a_lock(self, monkeypatch):
        """Only the pool synchronises the journal: 64 actions on 16 workers,
        with threads switching every 10 us, append 64 records, each under
        the journal's lock, and none is lost.  Once the stage is over,
        appends take no lock again."""
        acquired = [0]
        monkeypatch.setattr(core, "threading", types.SimpleNamespace(Lock=counting_lock(acquired, threading.Lock)))
        asm, plan, ctx = counting_wave(64, clock=WallClock())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            execute(plan, ctx, ExecOptions(max_workers=16))
        finally:
            sys.setswitchinterval(interval)
        assert sorted(r.component_id for r in asm.journal.records()) == sorted(f"c{i}" for i in range(64))
        assert acquired == [64]
        asm.ensure("c0", S.STARTED, ctx)
        assert len(asm.journal) == 65
        assert acquired == [64]

    def test_concurrency_never_exceeds_max_workers(self):
        box = [0]
        asm, plan, ctx = counting_wave(12, concurrency_box=box, delay=0.005, clock=WallClock())
        execute(plan, ctx, ExecOptions(max_workers=3))
        assert 1 <= box[0] <= 3

    def test_single_worker_serializes(self):
        box = [0]
        asm, plan, ctx = counting_wave(6, concurrency_box=box, delay=0.002, clock=WallClock())
        execute(plan, ctx, ExecOptions(max_workers=1))
        assert box[0] == 1

    def test_stages_do_not_overlap(self):
        asm, plan, ctx = counting_wave(6, delay=0.002, clock=WallClock())
        second = PlanStage(
            label="wave2",
            mode="parallel",
            actions=tuple(PlanAction(f"c{i}", S.STARTED) for i in range(6)),
        )
        report = execute(DeploymentPlan(plan.stages + (second,)), ctx, ExecOptions(max_workers=3))
        first, later = report.actions[:6], report.actions[6:]
        assert len(later) == 6
        assert max(a.start_ms + a.millis for a in first) <= min(a.start_ms for a in later)


class TestFailureHandling:
    def test_failed_stage_reports_position_and_keeps_progress(self):
        deployment = build_from_text(chain(3))

        class Broken(Behavior):
            def start(self, component, ctx=None):
                raise RuntimeError("injected outage")

        deployment.assembly.components["services/dci"].behavior = Broken()
        with pytest.raises(StageFailed) as err:
            deployment.execute()
        assert err.value.stage_index == 2  # node-prep, ns, then dci
        assert err.value.component_id == "services/dci"
        assert err.value.report is not None
        states = deployment.assembly.status()
        assert states["services/ns"] == S.STARTED
        assert states["services/dci"] == S.INSTALLED  # install ok, start refused
        assert states["services/servers/server-1"] == S.UNINSTALLED
        fails = [r for r in deployment.assembly.journal.records() if not r.ok]
        assert [r.component_id for r in fails] == ["services/dci"]

    def test_parallel_failure_cancels_queued_actions(self):
        # each action sleeps, so the queue is still full when c2 breaks;
        # at most the one already-running action slips through the cancel
        asm, plan, ctx = counting_wave(30, fail_at=2, delay=0.02, clock=WallClock())
        with pytest.raises(StageFailed) as err:
            execute(plan, ctx, ExecOptions(max_workers=1))
        assert err.value.component_id == "c2"
        executed = err.value.report.actions
        assert 3 <= len(executed) <= 6
        assert asm.components["c29"].state == S.UNINSTALLED

    def test_virtual_parallel_failure_stops_dispatch(self):
        asm, plan, ctx = counting_wave(30, fail_at=2)
        with pytest.raises(StageFailed) as err:
            execute(plan, ctx, ExecOptions(max_workers=4))
        assert err.value.component_id == "c2"
        assert [a.target for a in err.value.report.actions] == ["c0", "c1", "c2"]
        assert [a.ok for a in err.value.report.actions] == [True, True, False]
        assert asm.components["c1"].state == S.INSTALLED
        assert all(asm.components[f"c{i}"].state == S.UNINSTALLED for i in range(2, 30))

    def test_partial_report_still_carries_metrics(self):
        asm, plan, ctx = counting_wave(5, fail_at=0)
        with pytest.raises(StageFailed) as err:
            execute(plan, ctx, ExecOptions(max_workers=2))
        csv = err.value.report.metrics_csv()
        assert csv.startswith("stage,mode,actions,wall_ms\n")
        assert "wave,parallel,5," in csv


class TestDryRun:
    def test_nothing_touched(self):
        deployment = build_from_text(MINI)
        report = deployment.execute(ExecOptions(dry_run=True))
        assert report.dry_run
        assert deployment.ctx.fleet.nodes == {}  # no node ever contacted
        assert len(deployment.assembly.journal.records()) == 0
        states = set(deployment.assembly.status().values())
        assert states == {S.UNINSTALLED}

    def test_planned_actions_are_listed(self):
        deployment = build_from_text(MINI)
        report = deployment.execute(ExecOptions(dry_run=True))
        labels = [a.target for a in report.actions]
        assert "nodes/node-0/jre:install" in labels
        assert "services/ns:start" in labels
        install = labels.index("nodes/node-0/jre:install")
        start = labels.index("nodes/node-0/jre:start")
        assert install < start

    def test_dry_undeploy_reverses_child_order(self):
        deployment = build_from_text(MINI)
        deployment.execute()
        report = deployment.execute_inverse(ExecOptions(dry_run=True))
        labels = [a.target for a in report.actions]
        stop = labels.index("nodes/node-0/jre:stop")
        uninstall = labels.index("nodes/node-0/jre:uninstall")
        assert stop < uninstall
        assert labels.index("services/ns:stop") < stop
        # planning only: everything still deployed
        assert deployment.assembly.status()["services/ns"] == S.STARTED


    @pytest.mark.parametrize("config", [MINI, reserved(6, granted=6)], ids=["mini", "reserved-6"])
    def test_dry_run_lists_what_execution_performs(self, config, sim_home):
        """At one worker a dry run's labels are the transitions the real run
        journals, in the same order, for deploy and for undeploy."""
        deployment = build_from_text(config)
        journal = deployment.assembly.journal
        for run in (deployment.execute, deployment.execute_inverse):
            listed = [a.target for a in run(ExecOptions(max_workers=1, dry_run=True)).actions]
            before = len(journal)
            run(ExecOptions(max_workers=1))
            performed = [f"{r.component_id}:{r.action.name.lower()}" for r in journal.records()[before:]]
            assert listed and listed == performed


class TestReportShape:
    def test_metrics_csv_layout(self):
        deployment = build_from_text(MINI)
        report = deployment.execute()
        lines = report.metrics_csv().splitlines()
        assert lines[0] == "stage,mode,actions,wall_ms"
        assert lines[1] == f"node-prep,parallel,1,{float(JRE):.3f}"
        assert lines[2] == f"services/ns,sequential,1,{float(SERVICE):.3f}"

    def test_actions_record_outcomes(self):
        deployment = build_from_text(MINI)
        report = deployment.execute()
        assert all(a.ok for a in report.actions)
        targets = [a.target for a in report.actions]
        assert targets == ["nodes/node-0", "services/ns"]
