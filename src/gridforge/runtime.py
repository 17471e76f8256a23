"""Plan execution: `execute` runs the stages in order in one loop.  Each
stage dispatches its prelude, its actions and its postlude, appends one
`StageMetric`, and at its first failed action raises StageFailed with the
report so far.  A parallel stage runs on maxWorkers worker slots, in an
order shuffled per stage when a seed is set; a sequential one on one slot.
A dry run takes the same loop and runs nothing: it lists the transitions
that `Assembly.transitions_to` expands each plan action into.

Under the virtual clock (the sim) no worker thread is started: actions run
inline in dispatch order, each on the earliest-free slot (Graham's list
scheduling), and a stage costs its latest slot end.  Action costs are pure
functions of configuration and seed, so reports and metrics are
reproducible byte for byte.  Real transports (local, ssh) run a parallel
stage with maxWorkers above 1 on a thread pool, the only place where
worker threads append to the journal, so only there do appends take a
lock (`core.Journal.shared`).  There a failure cancels the actions not yet
started, and those already running finish.

Per action only what varies per node is worked out again.  Within one run
(one `DeployContext`, which a deploy and its inverse share in process) the
access of each node shell is resolved once (`stdlib.shell_access`), the
access each scripted component's actions reach is found once and kept in
the same memo (`ScriptBehavior.act`).  The nodes stamped from one body
share the child order that generation fixed for it
(`core.Assembly.child_order`).  Time is metered here only, once per plan
action (`_measured`): the transitions within it are not metered, and a
behaviour without an `act` is not called (`core.Assembly.transition`),
so the node shells, hosts and barriers of a stack cost no call.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field

from .assembly import DeploymentPlan, PlanAction
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
    label: str
    mode: str
    actions: int
    wall_ms: float


@dataclass
class ExecutionReport:
    actions: list = field(default_factory=list)  # ActionOutcome
    stages: list = field(default_factory=list)  # StageMetric
    total_ms: float = 0.0

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
    begun = clock.begin_action()
    error = None
    try:
        ctx.assembly.ensure(action.target, action.state, ctx)
    except DeploymentError as exc:
        error = str(exc)
    return ActionOutcome(action.target, action.state, error is None, clock.end_action(begun), error, start_ms)


def _dispatch(ctx, report: ExecutionReport, order: tuple | list, width: int) -> ActionOutcome | None:
    """Run `order` on `width` worker slots, stopping at the first
    failure.  On a wall clock more than one slot is a thread pool;
    otherwise each action runs inline on the earliest-free slot and
    starts there, and the segment costs the latest slot end."""
    clock = ctx.clock
    if width > 1 and not clock.virtual:
        return _pooled(ctx, report, order, width)
    if width < 1:  # as the pool would refuse it
        raise ValueError("max_workers must be greater than 0")
    start = clock.now_ms()
    slots = [0.0] * width
    latest = 0.0
    failed: ActionOutcome | None = None
    for action in order:
        free = heapq.heappop(slots)
        outcome = _measured(ctx, action, start + free)
        end = free + outcome.millis
        latest = max(latest, end)
        heapq.heappush(slots, end)
        report.actions.append(outcome)
        if not outcome.ok:
            failed = outcome
            break
    clock.advance(latest)
    return failed


def _pooled(ctx, report: ExecutionReport, order: list, width: int) -> ActionOutcome | None:
    from concurrent.futures import ThreadPoolExecutor  # real transports only
    first_failure: ActionOutcome | None = None
    with ctx.assembly.journal.shared(), ThreadPoolExecutor(max_workers=width) as pool:
        futures = [pool.submit(_measured, ctx, action) for action in order]
        for future in futures:
            if future.cancelled():
                continue
            outcome = future.result()
            report.actions.append(outcome)
            if not outcome.ok and first_failure is None:
                first_failure = outcome
                for later in futures:
                    later.cancel()
    return first_failure


def execute(plan: DeploymentPlan, ctx, options: ExecOptions | None = None) -> ExecutionReport:
    """Run every stage of the plan; raises StageFailed on the first broken
    stage with the partial report attached."""
    options = options or ExecOptions()
    report = ExecutionReport()
    clock = ctx.clock
    start = clock.now_ms()
    try:
        for index, stage in enumerate(plan.stages):
            if options.dry_run:
                report.actions.extend(
                    ActionOutcome(f"{cid}:{step.name.lower()}", action.state, True, 0.0)
                    for action in stage.all_actions
                    for cid, step in ctx.assembly.transitions_to(action.target, action.state)
                )
                report.stages.append(StageMetric(stage.label, stage.mode, len(stage.all_actions), 0.0))
                continue
            stage_start = clock.now_ms()
            order, width = list(stage.actions), 1
            if stage.mode == "parallel":
                width = options.max_workers
                if options.seed is not None:
                    random.Random(f"{options.seed}:{index}").shuffle(order)
            failed = (_dispatch(ctx, report, stage.prelude, 1) or _dispatch(ctx, report, order, width)
                      or _dispatch(ctx, report, stage.postlude, 1))
            wall = clock.now_ms() - stage_start
            report.stages.append(StageMetric(stage.label, stage.mode, len(stage.all_actions), wall))
            if failed is not None:
                raise StageFailed(index, failed.target, failed.error, report)
    finally:
        report.total_ms = clock.now_ms() - start
    return report
