"""Whole-pipeline differential: one digest over what 2,000 seeded random
configurations produce, from the text to a deploy and undeploy on the sim.

Per input it hashes the refusal (class, message, line and column), or
validate's diagnostics, `emit_text` with the plan and the CLI state key;
for an input that plans, a deploy and then an undeploy on three workers
with a fixed dispatch seed and latency jitter: each report's total, each
action's target, outcome, cost and start, each stage failure, and every
SimNode's observable state and step log.  A change to parsing, expansion,
generation, validation, planning, child order or execution that moves any
of these moves the digest.
"""

import hashlib
import random

from configs import random_config, unroll
from conftest import seed_nodelist
from gridforge.assembly import emit_text, generate, plan, validate
from gridforge.cli import _state_key
from gridforge.dsl import expand, parse
from gridforge.errors import ConfigError, CyclicDependency, StageFailed
from gridforge.pipeline import Deployment, make_context
from gridforge.runtime import ExecOptions
from gridforge.simgrid import SimClockConfig

INPUTS = 2000
DIGEST = "dc9e79808cffbb94d8a7ce2303677016da9e089e6e52807496edfec5c29ff45a"


def _reset_nodelists(home) -> None:
    """~/nodelist covers every node of a random configuration, ~/other only
    the first three, and ~/elsewhere is there only once a reservation
    writes it."""
    seed_nodelist(home, 8)
    (home / "other").write_text("".join(f"other-{i}\n" for i in range(3)))
    (home / "elsewhere").unlink(missing_ok=True)


def _run(deployment: Deployment, inverse: bool) -> list[str]:
    options = ExecOptions(max_workers=3, seed=11)
    try:
        report = (deployment.execute_inverse if inverse else deployment.execute)(options)
        failure = "ok"
    except StageFailed as err:
        report, failure = err.report, str(err)
    lines = [f"{'undeploy' if inverse else 'deploy'} {failure} total={report.total_ms!r}"]
    lines += [f"  {a.target} {a.ok} {a.millis!r} {a.start_ms!r}" for a in report.actions]
    return lines


def _outcome(text: str, registry, home, placed: bool = True) -> str:
    """What `text` gives, a refusal with its line and column unless not
    `placed`."""
    try:
        asm = generate(expand(parse(text)), registry)
    except ConfigError as err:
        at = f" {err.line}:{err.column}" if placed else ""
        return f"refused {type(err).__name__} {err.args[0]}{at}\n"
    diagnostics = validate(asm)
    if diagnostics:
        return "diagnostics\n" + "".join(f"{d}\n" for d in diagnostics)
    try:
        deployment_plan = plan(asm)
    except CyclicDependency as err:
        return f"unplanned {err}\n"
    lines = [emit_text(asm, deployment_plan), _state_key(asm)]
    _reset_nodelists(home)
    ctx = make_context(asm, "sim", SimClockConfig(jitter_seed=5))
    deployment = Deployment(deployment_plan, ctx, 0.0)
    lines += _run(deployment, inverse=False) + _run(deployment, inverse=True)
    for node in ctx.fleet.nodes.values():
        env, files, processes = node.observable()
        lines.append(f"{node.id} {sorted(env.items())} {sorted(files)} {sorted(processes)}")
        lines += [f"  {step.kind.value} {step.a!r} {step.b!r}" for step in node.log]
    return "\n".join(lines) + "\n"


def test_pipeline_digest(registry, sim_home):
    """The digest of 2,000 seeded inputs; more than 1,000 of them plan and
    run both ways, and some of those runs fail part way."""
    rng = random.Random(2207)
    digest = hashlib.sha256()
    ran = failed = 0
    for _ in range(INPUTS):
        outcome = _outcome(random_config(rng), registry, sim_home)
        digest.update(outcome.encode())
        ran += "\ndeploy " in outcome
        failed += "\ndeploy stage " in outcome
    assert ran > 1000 and failed > 0, (ran, failed)
    assert digest.hexdigest() == DIGEST


def test_loops_give_what_their_unrolled_text_gives(registry, sim_home):
    """The unrolling relation: each seeded input that holds an `apply FOR`
    gives what its hand-unrolled text (`configs.unroll`) gives.  A refusal
    has the same class and message, though not the same line and column,
    since the text moves; anything else is the same diagnostics, or the same
    emit_text with the plan, state key, and deploy and undeploy on the sim."""
    rng = random.Random(2207)
    looped = refused = ran = 0
    for _ in range(INPUTS):
        text = random_config(rng)
        if "apply FOR" not in text:
            continue
        outcome = _outcome(text, registry, sim_home, placed=False)
        assert _outcome(unroll(text), registry, sim_home, placed=False) == outcome, text
        looped += 1
        refused += outcome.startswith("refused ")
        ran += "\ndeploy " in outcome
    assert looped > 1000 and refused > 100 and ran > 1000, (looped, refused, ran)
