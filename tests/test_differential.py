"""Whole-pipeline differential: one digest over what 2,000 seeded random
configurations produce, from the text to a deploy and undeploy on the sim.

Per input it hashes the refusal (class, message, line and column), or
validate's diagnostics, `emit_text` with the plan and the CLI state key;
for an input that plans, a deploy and then an undeploy on three workers
with a fixed dispatch seed and latency jitter: each report's total, each
action's target, outcome, cost and start, each stage failure, and every
SimNode's observable state and step log.  A change to parsing, expansion,
generation, validation, planning, child order or execution that moves any
of these moves the digest.  Before validate, every generated assembly is
checked for what generation guarantees and validate leaves unchecked
(`_assert_well_formed`).

The metamorphic relations need no recorded answer: an input with loops
gives what its unrolled text gives; an input split into a primary and a
fragment gives, through `merge`, what the whole text gives; parse, unparse
and parse again gives the first parse; a deploy at one worker leaves the SimNodes as one at three
workers does, and as a save and restore of the fleet gives them back; and
the undeploy that follows leaves every SimNode pristine.

Run as a script, `python tests/test_differential.py --dump FILE` writes
the digest's outcomes to FILE in digest order, each after a `### <index>`
line, so that `diff` of two checkouts' files shows what moved a digest.
"""

import argparse
import hashlib
import os
import pathlib
import random
import sys
import tempfile

import pytest

if __name__ == "__main__":  # run as a script: import gridforge from this checkout
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from configs import paper_pair, random_config, unroll
from conftest import seed_nodelist
from oracles import unparse
from gridforge.assembly import emit_text, generate, plan, validate
from gridforge.cli import _state_key
from gridforge.core import Binding
from gridforge.dsl import Block, ConfigAST, Entry, expand, merge, parse
from gridforge.errors import ConfigError, CyclicDependency, StageFailed
from gridforge.personalities import default_registry
from gridforge.pipeline import Deployment, make_context
from gridforge.runtime import ExecOptions
from gridforge.simgrid import Fleet, SimClockConfig

INPUTS = 2000
RELATION_INPUTS = 500  # the first of the INPUTS, for the relations that deploy twice
DIGEST = "6f8e7a5bcb9250156c37f28285f78546196407a422b7ae8429c7e059fa436544"


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
        assert not failure.endswith(": None"), f"a stage failed without a cause: {failure}"
    lines = [f"{'undeploy' if inverse else 'deploy'} {failure} total={report.total_ms!r}"]
    lines += [f"  {a.target} {a.ok} {a.millis!r} {a.start_ms!r}" for a in report.actions]
    return lines


def _assert_well_formed(asm) -> None:
    """What generation guarantees of every assembly it returns: each binding
    joins two components, its server provides its interface, and it is its
    client's binding for that port, which no other binding is; each node
    assignment names a composite, and each group member is a component."""
    components = asm.components
    for b in asm.bindings:
        assert b.client in components and b.server in components, f"binding endpoint not a component: {b}"
        assert b.interface in components[b.server].provides, f"server does not provide the interface: {b}"
        assert components[b.client].bound.get(b.port) is b, f"binding not its client's bound port: {b}"
    assert len(asm.bindings) == sum(len(c.bound) for c in components.values()), "a bound port has no binding"
    for service, node in asm.node_assignment.items():
        assert node in asm.composites, f"{service} assigned to unknown node {node}"
    for group, members in asm.groups.items():
        assert all(m in components for m in members), f"{group} lists a member that is not a component"


# fault -> what it does to a generated assembly, and the assertion that names it
FAULTS = {
    "binding to an undeclared server": (
        lambda asm: asm.add_binding(Binding("services/ns", "extra", "ghost", "Node")),
        "binding endpoint not a component",
    ),
    "server without the interface": (
        lambda asm: asm.add_binding(Binding("services/ns", "extra", "nodes/node-0/jre", "Node")),
        "server does not provide the interface",
    ),
    "port bound twice": (
        lambda asm: asm.add_binding(Binding("services/dci", "ns", "services/ns", "NameService")),
        "binding not its client's bound port",
    ),
    "bound port without a binding": (
        lambda asm: asm.components["services/dci"].bound.update(
            extra=Binding("services/dci", "extra", "services/ns", "NameService")
        ),
        "a bound port has no binding",
    ),
    "node assignment to an unknown node": (
        lambda asm: asm.node_assignment.update({"services/ns": "nodes/ghost"}),
        "services/ns assigned to unknown node nodes/ghost",
    ),
    "group member not a component": (
        lambda asm: asm.groups["services/servers"].append("services/servers/ghost"),
        "services/servers lists a member that is not a component",
    ),
}


@pytest.mark.parametrize("fault", FAULTS, ids=list(FAULTS))
def test_well_formed_names_each_fault(fault, registry):
    """The paper's assembly is well formed; each fault that generation
    never makes, written into it by hand, fails the check by name."""
    asm = generate(expand(parse(paper_pair(2)[0])), registry)
    _assert_well_formed(asm)
    make, message = FAULTS[fault]
    make(asm)
    with pytest.raises(AssertionError, match=message):
        _assert_well_formed(asm)


def _outcome(text: str, registry, home, placed: bool = True) -> str:
    """What `text` gives, a refusal with its line and column unless not
    `placed`."""
    try:
        asm = generate(expand(parse(text)), registry)
    except ConfigError as err:
        at = f" {err.line}:{err.column}" if placed else ""
        return f"refused {type(err).__name__} {err.args[0]}{at}\n"
    _assert_well_formed(asm)
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


def _outcomes(registry, home):
    """The outcomes of the 2,000 seeded inputs, in digest order."""
    rng = random.Random(2207)
    for _ in range(INPUTS):
        yield _outcome(random_config(rng), registry, home)


def test_pipeline_digest(registry, sim_home):
    """The digest of 2,000 seeded inputs; more than 1,000 of them plan and
    run both ways, and some of those runs fail part way."""
    digest = hashlib.sha256()
    ran = failed = 0
    for outcome in _outcomes(registry, sim_home):
        digest.update(outcome.encode())
        ran += "\ndeploy " in outcome
        failed += "\ndeploy stage " in outcome
    assert ran > 1000 and failed > 0, (ran, failed)
    assert digest.hexdigest() == DIGEST


def test_every_input_that_plans_deploys_on_ample_nodelists(registry, sim_home):
    """With nodelists that cover every node, each seeded input that
    generates, validates and plans deploys fully: what generation accepts
    runs, and a deploy fails part way only for want of nodes."""
    rng = random.Random(2207)
    deployed = 0
    for _ in range(INPUTS):
        text = random_config(rng)
        try:
            asm = generate(expand(parse(text)), registry)
        except ConfigError:
            continue
        if validate(asm):
            continue
        try:
            deployment_plan = plan(asm)
        except CyclicDependency:
            continue
        _reset_nodelists(sim_home)
        (sim_home / "other").write_text("".join(f"other-{i}\n" for i in range(8)))
        ctx = make_context(asm, "sim", SimClockConfig(jitter_seed=5))
        try:
            Deployment(deployment_plan, ctx, 0.0).execute(ExecOptions(max_workers=3, seed=11))
        except StageFailed as err:
            pytest.fail(f"{err}\n{text}")
        deployed += 1
    assert deployed > 1000, deployed


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


def _split(text: str, rng) -> tuple[str, str]:
    """`text` as a primary and a fragment, cut at a seeded boundary between
    two entries of its root's blocks, or before the first: the primary keeps
    the entries before the cut, and the fragment holds the rest, at least
    one entry, block by block, so that
    `merge` appends each where it stood.  A block left empty is dropped
    from the primary."""
    ast = parse(text)
    body = ast.entries[0].value.body
    cut = rng.randrange(sum(len(block.value.entries) for block in body.entries))
    moved = []
    for block in body.entries:
        entries = block.value.entries
        if entries[cut:]:
            moved.append(Entry(block.name, Block(entries[cut:])))
        block.value.entries = entries[:cut]
        cut = max(0, cut - len(entries))
    body.entries = [block for block in body.entries if block.value.entries]
    return unparse(ast), unparse(ConfigAST(moved))


def _built(ast: ConfigAST, registry) -> str:
    """The refusal's class and message, validate's diagnostics, the
    planner's refusal, or `emit_text` with the plan and the state key."""
    try:
        asm = generate(expand(ast), registry)
    except ConfigError as err:
        return f"refused {type(err).__name__} {err.args[0]}\n"
    diagnostics = validate(asm)
    if diagnostics:
        return "diagnostics\n" + "".join(f"{d}\n" for d in diagnostics)
    try:
        return emit_text(asm, plan(asm)) + _state_key(asm)
    except CyclicDependency as err:
        return f"unplanned {err}\n"


def test_a_fragment_gives_what_the_whole_text_gives(registry):
    """The fragment relation: each seeded input, split into a primary and a
    fragment at a seeded boundary (`_split`), gives through `merge` what
    the whole text gives: the same refusal class and message, though not
    the same line and column, or the same diagnostics, or the same
    `emit_text` with the plan and state key."""
    rng, cuts = random.Random(2207), random.Random(3301)
    refused = planned = 0
    for _ in range(INPUTS):
        text = random_config(rng)
        primary, fragment = _split(text, cuts)
        whole = _built(parse(text), registry)
        assert _built(merge(parse(primary), parse(fragment)), registry) == whole, (text, primary, fragment)
        refused += whole.startswith("refused ")
        planned += whole.startswith("[components]")
    assert refused > 100 and planned > 1000, (refused, planned)


def test_parse_of_unparse_is_the_parse():
    """parse(unparse(parse(x))) equals parse(x), spans aside, for each of the
    first inputs (every one of which parses)."""
    rng = random.Random(2207)
    for _ in range(RELATION_INPUTS):
        text = random_config(rng)
        ast = parse(text)
        assert parse(unparse(ast)) == ast, text


def _logged(fleet: Fleet) -> dict:
    """SimNode id -> its env, files, processes and step log."""
    return {node.id: (*node.observable(), list(node.log)) for node in fleet.nodes.values()}


def _sim_nodes(asm, deployment_plan, home, workers: int) -> tuple[dict, dict] | None:
    """Every SimNode's observable state and step log after a deploy of
    `asm` at `workers` workers, which the fleet saved and restored must
    hold too, then every SimNode's observable state after the undeploy that
    follows; None if the deploy fails.  Dispatch seed and latency jitter
    are fixed."""
    _reset_nodelists(home)
    ctx = make_context(asm, "sim", SimClockConfig(jitter_seed=5))
    deployment = Deployment(deployment_plan, ctx, 0.0)
    options = ExecOptions(max_workers=workers, seed=11)
    try:
        deployment.execute(options)
    except StageFailed:
        return None
    deployed = _logged(ctx.fleet)
    assert _logged(Fleet.from_dict(ctx.fleet.to_dict())) == deployed, "the saved fleet restores other SimNodes"
    deployment.execute_inverse(options)
    undeployed = {node.id: node.observable() for node in ctx.fleet.nodes.values()}
    return deployed, undeployed


def test_workers_do_not_change_what_a_deploy_leaves_and_undeploy_leaves_nothing(registry, sim_home):
    """For each of the first inputs that deploys fully, a deploy at one
    worker and one at three leave every SimNode with the same observable
    state and step log, and each undeploy that follows leaves every SimNode
    pristine.  Each deployed fleet, saved and restored, is unchanged."""
    rng = random.Random(2207)
    deployed = 0
    for _ in range(RELATION_INPUTS):
        text = random_config(rng)
        try:
            config = expand(parse(text))
            asm = generate(config, registry)
        except ConfigError:
            continue
        if validate(asm):
            continue
        try:
            deployment_plan = plan(asm)
        except CyclicDependency:
            continue
        one = _sim_nodes(asm, deployment_plan, sim_home, 1)
        if one is None:
            continue
        three = _sim_nodes(generate(config, registry), deployment_plan, sim_home, 3)
        assert three is not None, text
        assert one[0] == three[0], text
        pristine = ({}, set(), set())
        for undeployed in (one[1], three[1]):
            assert undeployed.keys() == one[0].keys(), text
            assert all(state == pristine for state in undeployed.values()), text
        deployed += 1
    assert deployed > RELATION_INPUTS // 2, deployed


def _dump(path: str) -> None:
    """Write each outcome the digest hashes to `path`, after a `### <index>`
    line, with HOME pointed at a temporary directory for the nodelists."""
    with tempfile.TemporaryDirectory() as home, open(path, "w", encoding="utf-8") as out:
        os.environ["HOME"] = home
        for index, outcome in enumerate(_outcomes(default_registry(), pathlib.Path(home))):
            out.write(f"### {index}\n{outcome}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Dump the pipeline digest's outcomes.")
    parser.add_argument("--dump", metavar="FILE", required=True, help="where to write the outcomes")
    _dump(parser.parse_args().dump)
