"""Plan execution: sequential stages in order, parallel stages on a
bounded set of worker slots, with per-action and per-stage accounting.

Under the virtual clock (the sim) no worker thread is started: a parallel
stage runs its actions inline in dispatch order, each on the earliest-free
of maxWorkers slots (Graham's list scheduling), and costs the latest slot
end.  A sequential stage costs the sum of its action costs.  Action costs
are pure functions of configuration and seed, so reports and metrics are
reproducible byte for byte.  Real transports (local, ssh) run a parallel
stage with maxWorkers above 1 on a thread pool of maxWorkers threads, the
only place where worker threads append to the journal, so only there do
appends take a lock (`core.Journal.shared`).  Either way a failure stops
dispatch at the failing action; on the pool, actions already running
finish.

Per action only what varies per node is worked out again.  Within one run
(one `DeployContext`, which a deploy and its inverse share in process) the
access of each node shell is resolved once (`stdlib.shell_access`), the
access each scripted component's actions reach is found once and kept in
the same memo (`ScriptBehavior._run`), and the nodes stamped from one body
share one child order, sorted on the first action that drives one of them
(`core.Assembly.child_order`).
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field

from .assembly import DeploymentPlan, PlanAction, PlanStage
from .core import LifecycleState
from .errors import DeploymentError, StageFailed


@dataclass
class ExecOptions:
    max_workers: int = 8
    dry_run: bool = False
    seed: int | None = None  # shuffles parallel dispatch order when set


@dataclass
class ActionOutcome:
    target: str
    state: LifecycleState
    ok: bool
    millis: float
    error: str | None = None
    start_ms: float = 0.0


@dataclass
class StageMetric:
    index: int
    label: str
    mode: str
    actions: int
    wall_ms: float


@dataclass
class ExecutionReport:
    actions: list = field(default_factory=list)  # ActionOutcome
    stages: list = field(default_factory=list)  # StageMetric
    total_ms: float = 0.0
    dry_run: bool = False

    def metrics_csv(self) -> str:
        lines = ["stage,mode,actions,wall_ms"]
        for stage in self.stages:
            lines.append(
                f"{stage.label},{stage.mode},{stage.actions},{stage.wall_ms:.3f}"
            )
        return "\n".join(lines) + "\n"


def _measured(ctx, action: PlanAction, start_ms: float | None = None) -> ActionOutcome:
    clock = ctx.clock
    start_ms = clock.now_ms() if start_ms is None else start_ms
    clock.begin_action()
    error = None
    try:
        ctx.assembly.ensure(action.target, action.state, ctx)
    except DeploymentError as exc:
        error = str(exc)
    return ActionOutcome(action.target, action.state, error is None, clock.end_action(), error, start_ms)


class _StageRunner:
    def __init__(self, ctx, options: ExecOptions, report: ExecutionReport):
        self.ctx = ctx
        self.options = options
        self.report = report

    def run(self, index: int, stage: PlanStage) -> None:
        clock = self.ctx.clock
        start = clock.now_ms()
        count = len(stage.all_actions)
        if self.options.dry_run:
            self._dry(stage)
            self.report.stages.append(StageMetric(index, stage.label, stage.mode, count, 0.0))
            return
        order = list(stage.actions)
        width = 1
        if stage.mode == "parallel":
            width = self.options.max_workers
            if self.options.seed is not None:
                random.Random(f"{self.options.seed}:{index}").shuffle(order)
        failed = self._dispatch(stage.prelude, 1) or self._dispatch(order, width) or self._dispatch(stage.postlude, 1)
        wall = clock.now_ms() - start
        self.report.stages.append(StageMetric(index, stage.label, stage.mode, count, wall))
        if failed is not None:
            raise StageFailed(index, failed.target, failed.error, self.report)

    def _dry(self, stage: PlanStage) -> None:
        for action in stage.all_actions:
            for cid, step in self.ctx.assembly.transitions_to(action.target, action.state):
                self.report.actions.append(
                    ActionOutcome(f"{cid}:{step.name.lower()}", action.state, True, 0.0)
                )

    def _dispatch(self, order: tuple | list, width: int) -> ActionOutcome | None:
        """Run `order` on `width` worker slots, stopping at the first
        failure.  On a wall clock more than one slot is a thread pool;
        otherwise each action runs inline on the earliest-free slot and
        starts there, and the segment costs the latest slot end."""
        clock = self.ctx.clock
        if width > 1 and not clock.virtual:
            return self._pooled(order, width)
        if width < 1:  # as the pool would refuse it
            raise ValueError("max_workers must be greater than 0")
        start = clock.now_ms()
        slots = [0.0] * width
        latest = 0.0
        failed: ActionOutcome | None = None
        for action in order:
            free = heapq.heappop(slots)
            outcome = _measured(self.ctx, action, start + free)
            end = free + outcome.millis
            latest = max(latest, end)
            heapq.heappush(slots, end)
            self.report.actions.append(outcome)
            if not outcome.ok:
                failed = outcome
                break
        clock.advance(latest)
        return failed

    def _pooled(self, order: list, width: int) -> ActionOutcome | None:
        from concurrent.futures import ThreadPoolExecutor  # real transports only
        outcomes: list[ActionOutcome | None] = [None] * len(order)
        first_failure: ActionOutcome | None = None
        with self.ctx.assembly.journal.shared(), ThreadPoolExecutor(max_workers=width) as pool:
            futures = [pool.submit(_measured, self.ctx, action) for action in order]
            for i, future in enumerate(futures):
                if future.cancelled():
                    continue
                outcome = future.result()
                outcomes[i] = outcome
                if not outcome.ok and first_failure is None:
                    first_failure = outcome
                    for later in futures[i + 1 :]:
                        later.cancel()
        self.report.actions.extend(o for o in outcomes if o is not None)
        return first_failure


def execute(plan: DeploymentPlan, ctx, options: ExecOptions | None = None) -> ExecutionReport:
    """Run every stage of the plan; raises StageFailed on the first broken
    stage with the partial report attached."""
    options = options or ExecOptions()
    report = ExecutionReport(dry_run=options.dry_run)
    clock = ctx.clock
    start = clock.now_ms()
    runner = _StageRunner(ctx, options, report)
    try:
        for index, stage in enumerate(plan.stages):
            runner.run(index, stage)
    finally:
        report.total_ms = clock.now_ms() - start
    return report
