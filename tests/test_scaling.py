"""Real overhead grows linearly in fleet size.

The paper shape with its reservation merged second is built at 100 and 400
nodes, from parsing its text to the emit_text that keys the state file; a
reservation-backed fleet of each size is deployed and undeployed
on the sim, and saved to and loaded from the CLI's state file.  Linear work
takes about 4x as long at four times the fleet; the gate allows 8x, well
under the 16x of work that is quadratic in the fleet.
Timings are interleaved and the best of three is kept, so a slow spell on
a shared host hits both sizes or neither.  The cyclic collector's work is
gated by counts, which repeat exactly: collections trigger on allocation
counts.
"""

import collections
import gc
import json
import sys
import time

import pytest

from configs import paper_pair, reserved
from conftest import count_decoded, record_decodes, seed_nodelist
from gridforge import assembly, cli, stdlib
from gridforge.assembly import _Generator, emit_text, generate, plan, validate
from gridforge.bench import middleware_config
from gridforge.cli import load_state, save_state
from gridforge.core import Assembly
from gridforge.dsl import ConfigAST, Ctor, Entry, expand, merge, parse, unparse
from gridforge.personalities import ScriptBehavior, default_registry
from gridforge.pipeline import build_from_text
from gridforge.transports import Payload

SMALL, LARGE = 100, 400
ROUNDS = 3
MAX_RATIO = 8.0


def _best(fn, arg_small, arg_large) -> tuple[float, float]:
    best = {SMALL: float("inf"), LARGE: float("inf")}
    for _ in range(ROUNDS):
        for n, arg in ((SMALL, arg_small), (LARGE, arg_large)):
            t0 = time.perf_counter()
            fn(arg)
            best[n] = min(best[n], time.perf_counter() - t0)
    return best[SMALL], best[LARGE]


def _config(n):
    app, reservation = paper_pair(n)
    return expand(merge(parse(app), parse(reservation)))


def test_generate_and_plan_grow_linearly():
    registry = default_registry()
    small, large = _best(lambda config: plan(generate(config, registry)), _config(SMALL), _config(LARGE))
    assert large / small < MAX_RATIO, f"generate+plan: {small * 1e3:.1f} ms -> {large * 1e3:.1f} ms"


def test_whole_build_grows_linearly():
    """Every command's build: parse, expand, generate, validate, plan and
    the emit_text that keys the state file."""
    registry = default_registry()

    def build(texts):
        app, reservation = texts
        assembly = generate(expand(merge(parse(app), parse(reservation))), registry)
        assert validate(assembly) == []
        emit_text(assembly, plan(assembly))

    small, large = _best(build, paper_pair(SMALL), paper_pair(LARGE))
    assert large / small < MAX_RATIO, f"build: {small * 1e3:.1f} ms -> {large * 1e3:.1f} ms"


def test_generate_checks_each_node_body_once(monkeypatch):
    """Nodes are stamped from one compiled body per loop: 400 reserved
    nodes take as many kind and argument checks as 100, and a body whose
    hostname varies per node compiles that one role again per extra node."""
    registry = default_registry()
    calls = collections.Counter()
    for name in ("_kind", "_args", "_role", "_shape"):

        def counted(self, *args, _original=getattr(_Generator, name), _name=name):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(_Generator, name, counted)

    def counts(text):
        calls.clear()
        generate(expand(parse(text)), registry)
        return dict(calls)

    small, large = counts(reserved(SMALL, SMALL)), counts(reserved(LARGE, LARGE))
    assert small == large, (small, large)
    small, large = counts(middleware_config(SMALL)), counts(middleware_config(LARGE))
    assert large["_role"] - small["_role"] == LARGE - SMALL, (small, large)
    assert large["_shape"] == small["_shape"], (small, large)


def test_child_order_grows_linearly():
    registry = default_registry()

    def live(n):
        return generate(_config(n), registry)

    def order_all(assembly):
        for composite_id in assembly.composites:
            assembly.child_order(composite_id)

    small, large = _best(order_all, live(SMALL), live(LARGE))
    assert large / small < MAX_RATIO, f"child_order: {small * 1e3:.1f} ms -> {large * 1e3:.1f} ms"


def test_state_save_and_load_grow_linearly(sim_home, monkeypatch):
    monkeypatch.setenv("GRIDFORGE_STATE_DIR", str(sim_home / "state"))

    def deployed(n):
        deployment = build_from_text(reserved(n, n))
        deployment.execute()
        return deployment

    def round_trip(deployment):
        key = f"reserved-{len(deployment.ctx.fleet.nodes)}"
        save_state(deployment, key)
        load_state(deployment.assembly, key, deployment.ctx.fleet)

    small, large = _best(round_trip, deployed(SMALL), deployed(LARGE))
    assert large / small < MAX_RATIO, f"save+load state: {small * 1e3:.1f} ms -> {large * 1e3:.1f} ms"


def test_state_reads_decode_only_what_each_command_uses(sim_home, monkeypatch):
    """A resume deploy and `status -c` decode no SimNode and no journal
    line at 100 or at 400 reserved nodes; an undeploy, which contacts every
    node, decodes each saved SimNode once and the journal never."""
    monkeypatch.setenv("GRIDFORGE_STATE_DIR", str(sim_home / "state"))
    for n in (SMALL, LARGE):
        config = sim_home / f"reserved-{n}.gdf"
        config.write_text(reserved(n, n))
        assert cli.main(["deploy", "-c", str(config)]) == 0
        (path,) = (sim_home / "state").glob("*.json")
        saved = json.loads(path.read_text())
        journal = set(saved["journal"])
        assert journal and saved["fleet"]["nodes"]
        with monkeypatch.context() as patch:
            decoded = record_decodes(patch)
            for argv, nodes_expected in (
                (["deploy"], 0),
                (["status"], 0),
                (["undeploy"], len(saved["fleet"]["nodes"])),
            ):
                decoded.clear()
                assert cli.main([*argv, "-c", str(config)]) == 0
                nodes = count_decoded(decoded, lambda v: isinstance(v, dict) and "log" in v)
                lines = count_decoded(decoded, lambda v: isinstance(v, str) and v in journal)
                assert (nodes, lines) == (nodes_expected, 0), (n, argv)
        path.unlink()


def test_status_never_plans(sim_home, monkeypatch):
    """At 100 and at 400 reserved nodes, `status -c` generates and validates
    once and plans never, while `plan` and `deploy` plan once each."""
    monkeypatch.setenv("GRIDFORGE_STATE_DIR", str(sim_home / "state"))
    calls = collections.Counter()
    for name in ("generate", "validate", "plan"):
        original = getattr(assembly, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        # Every module that imported the function by name calls it there.
        for module in [m for k, m in sys.modules.items() if k.startswith("gridforge") and m is not None]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    for n in (SMALL, LARGE):
        config = sim_home / f"reserved-{n}.gdf"
        config.write_text(reserved(n, n))
        for command, plans in (("plan", 1), ("deploy", 1), ("status", 0)):
            calls.clear()
            assert cli.main([command, "-c", str(config)]) == 0
            assert (calls["generate"], calls["validate"], calls["plan"]) == (1, 1, plans), (n, command)


def test_execute_and_undeploy_grow_linearly(sim_home):
    texts = {SMALL: reserved(SMALL, SMALL), LARGE: reserved(LARGE, LARGE)}
    best = {(verb, n): float("inf") for verb in ("execute", "undeploy") for n in texts}
    for _ in range(ROUNDS):
        for n, text in texts.items():
            deployment = build_from_text(text)
            for verb, run in (("execute", deployment.execute), ("undeploy", deployment.execute_inverse)):
                t0 = time.perf_counter()
                run()
                best[verb, n] = min(best[verb, n], time.perf_counter() - t0)
    for verb in ("execute", "undeploy"):
        small, large = best[verb, SMALL], best[verb, LARGE]
        assert large / small < MAX_RATIO, f"{verb}: {small * 1e3:.1f} ms -> {large * 1e3:.1f} ms"


def _python_calls(run) -> int:
    """How many Python function calls (generator resumptions included)
    `run()` makes; built-in calls are not counted."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def _counted(run):
    """(the Python calls `run()` makes, what it returns)."""
    result = []
    return _python_calls(lambda: result.append(run())), result[0]


def _unrolled(n) -> str:
    """The loop-free text of reserved(n, n): one entry per node."""
    config = expand(parse(reserved(n, n)))
    return unparse(ConfigAST([Entry(config.root_name, Ctor(config.root_kind, [], config.root))]))


def test_parse_execute_and_undeploy_calls_grow_linearly(sim_home):
    """Counted, not timed: parsing the unrolled text, execute and its
    inverse make 4 +- 0.05 times the Python calls at four times the
    reserved fleet, and so do expand, generate, validate, plan and the
    state key (emit_text and its hash) of the middleware configuration at
    four times its nodes.  The per-run calls that do not grow with the
    fleet (the reservation, one child sort per node layout) are about 3
    nodes' worth, which fits that bound from about 200 nodes on; the gate
    counts 400 and 1,600."""
    n = 400
    registry = default_registry()
    counts = {}
    for size in (n, 4 * n):
        text = _unrolled(size)
        counts["parse", size] = _python_calls(lambda: parse(text))
        deployment = build_from_text(reserved(size, size))
        counts["execute", size] = _python_calls(deployment.execute)
        counts["undeploy", size] = _python_calls(deployment.execute_inverse)
        ast = parse(middleware_config(size))
        counts["expand", size], config = _counted(lambda: expand(ast))
        counts["generate", size], asm = _counted(lambda: generate(config, registry))
        counts["validate", size], _ = _counted(lambda: validate(asm))
        counts["plan", size], _ = _counted(lambda: plan(asm))
        counts["state key", size], _ = _counted(lambda: cli._state_key(asm))
    for verb in ("parse", "execute", "undeploy", "expand", "generate", "validate", "plan", "state key"):
        ratio = counts[verb, 4 * n] / counts[verb, n]
        assert abs(ratio - 4) <= 0.05, f"{verb}: {counts[verb, n]} -> {counts[verb, 4 * n]} calls ({ratio:.3f}x)"


def test_execute_resolves_each_node_once_and_sorts_each_layout_once(sim_home, monkeypatch):
    """A CLI deploy and undeploy of 100 and of 400 reserved nodes find the
    shell of each scripted component once per command, resolve the access
    of each node shell once per command (every node and the reservation's
    frontend) and sort the children of each node body layout once, however
    many nodes share it."""
    monkeypatch.setenv("GRIDFORGE_STATE_DIR", str(sim_home / "state"))
    resolved, sorts, walked = [], [], []
    resolve = stdlib.resolve_access
    monkeypatch.setattr(stdlib, "resolve_access", lambda asm, protocol: resolved.append(protocol.id) or resolve(asm, protocol))
    shell = ScriptBehavior._shell
    monkeypatch.setattr(ScriptBehavior, "_shell", lambda self, ctx, comp: walked.append(comp.id) or shell(self, ctx, comp))
    sort = Assembly._sorted_children
    monkeypatch.setattr(Assembly, "_sorted_children", lambda self, composite: sorts.append(composite.id) or sort(self, composite))
    sorted_per_command = {}
    for n in (SMALL, LARGE):
        config = sim_home / f"reserved-{n}.gdf"
        config.write_text(reserved(n, n))
        for command in ("deploy", "undeploy"):
            resolved.clear()
            sorts.clear()
            walked.clear()
            assert cli.main([command, "-c", str(config)]) == 0
            assert len(resolved) == len(set(resolved)) == n + 1, (n, command, len(resolved))
            assert len(walked) == len(set(walked)) > n, (n, command, len(walked))
            sorted_per_command[n, command] = len(sorts)
    for command in ("deploy", "undeploy"):
        assert sorted_per_command[SMALL, command] == sorted_per_command[LARGE, command], sorted_per_command


def test_payloads_do_not_grow_with_the_fleet(sim_home, monkeypatch):
    """Each action's payload is built once per argument values, not once per
    node: a sim deploy and undeploy of 4 and of 16 reserved nodes build the
    same number of payloads."""
    built = []
    of = Payload.of.__func__
    monkeypatch.setattr(Payload, "of", classmethod(lambda cls, steps: built.append(steps) or of(cls, steps)))
    counts = {}
    for n in (4, 16):
        built.clear()
        deployment = build_from_text(reserved(n, n))
        deployment.execute()
        deployment.execute_inverse()
        counts[n] = len(built)
    assert counts[4] == counts[16], counts


def test_step_table_does_not_grow_with_the_fleet(sim_home):
    """Every node of a reservation runs the same steps, so the saved fleet's
    step table after a deploy and undeploy of 400 reserved nodes is as long
    as after one of 1,600, while the logs grow with the fleet."""
    tables, logged = {}, {}
    for n in (400, 1600):
        deployment = build_from_text(reserved(n, n))
        deployment.execute()
        deployment.execute_inverse()
        saved = deployment.ctx.fleet.to_dict()
        tables[n] = len(saved["steps"])
        logged[n] = sum(len(nd["log"]) for nd in saved["nodes"])
    assert tables[400] == tables[1600], tables
    assert logged[1600] > 3 * logged[400], logged


def test_one_behaviour_per_kind_per_build(sim_home):
    """Every component of a kind shares the kind's behaviour, so a build
    makes as many behaviours at 400 nodes as at 100.  Each build makes its
    own: a nodelist rewritten between two builds is read again, while one
    build keeps the snapshot it read first."""
    registry = default_registry()
    counts = {}
    for n in (SMALL, LARGE):
        assembly = generate(expand(parse(middleware_config(n))), registry)
        by_kind = {}
        for component in assembly.components.values():
            by_kind.setdefault(component.kind, set()).add(component.behavior)
        shared = {kind: len(behaviors) for kind, behaviors in by_kind.items() if len(behaviors) > 1}
        assert shared == {}, f"{n} nodes: behaviours per kind {shared}"
        counts[n] = len({c.behavior for c in assembly.components.values()})
    assert counts[SMALL] == counts[LARGE], counts

    seed_nodelist(sim_home, 2, prefix="first-")
    first = generate(expand(parse(reserved(2, 2))), registry)
    host = first.components["nodes/hostname"]
    assert host.behavior.get(host, 1) == "first-1"
    seed_nodelist(sim_home, 2, prefix="second-")
    assert host.behavior.get(host, 1) == "first-1"
    second = generate(expand(parse(reserved(2, 2))), registry)
    again = second.components["nodes/hostname"]
    assert again.behavior is not host.behavior
    assert again.behavior.get(again, 1) == "second-1"


COMMANDS = (["plan"], ["deploy"], ["status"], ["undeploy"])


def _reserved_files(home, sizes) -> dict:
    """size -> the path of a reserved(size, size) configuration under `home`."""
    paths = {}
    for n in sizes:
        paths[n] = home / f"reserved-{n}.gdf"
        paths[n].write_text(reserved(n, n))
    return paths


def test_commands_run_no_collection(sim_home, monkeypatch):
    """At 400 and at 1,600 reserved nodes, `plan`, `deploy`, `status -c`
    and `undeploy` start no collection of the cyclic collector while
    `cli.main` runs, and leave it enabled."""
    monkeypatch.setenv("GRIDFORGE_STATE_DIR", str(sim_home / "state"))
    inside = []

    def record(phase, info):
        """Note each collection that starts with cli.main on the stack."""
        frame = sys._getframe().f_back
        while frame is not None and frame.f_code is not cli.main.__code__:
            frame = frame.f_back
        if phase == "start" and frame is not None:
            inside.append(info["generation"])

    gc.callbacks.append(record)
    try:
        for n, config in _reserved_files(sim_home, (LARGE, 4 * LARGE)).items():
            for argv in COMMANDS:
                assert cli.main([*argv, "-c", str(config)]) == 0
                assert (inside, gc.isenabled()) == ([], True), (n, argv)
    finally:
        gc.callbacks.remove(record)


def test_commands_leave_no_garbage_that_grows_with_the_fleet(sim_home, monkeypatch):
    """After each command, `gc.collect()` finds as many unreachable objects
    at 1,600 reserved nodes as at 400, so pausing the collector for a
    command holds no more memory on a larger fleet.  The caller's collector
    is off here, and stays off."""
    monkeypatch.setenv("GRIDFORGE_STATE_DIR", str(sim_home / "state"))
    found = {}
    gc.disable()
    try:
        for n, config in _reserved_files(sim_home, (LARGE, 4 * LARGE)).items():
            for argv in COMMANDS:
                gc.collect()
                assert cli.main([*argv, "-c", str(config)]) == 0
                assert not gc.isenabled()
                found[argv[0], n] = gc.collect()
    finally:
        gc.enable()
    for command, in COMMANDS:
        assert found[command, LARGE] == found[command, 4 * LARGE], found


def _fail(args):
    raise RuntimeError("injected")


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_collector_state_restored_on_every_exit(sim_home, monkeypatch, enabled):
    """The collector is left as the caller had it after exit 0, exit 2 (a
    configuration that does not parse), exit 3 (a damaged state file),
    argparse's SystemExit (`--max-workers 0`) and an exception."""
    monkeypatch.setenv("GRIDFORGE_STATE_DIR", str(sim_home / "state"))
    good, bad = sim_home / "good.gdf", sim_home / "bad.gdf"
    good.write_text(reserved(2, 2))
    bad.write_text("app = OpenCCM.Deployment {")
    assert cli.main(["deploy", "-c", str(good)]) == 0
    (state,) = (sim_home / "state").glob("*.json")
    state.write_text(state.read_text()[:-40])

    def outcome(argv):
        try:
            return cli.main(argv)
        except (SystemExit, RuntimeError) as exc:
            return type(exc).__name__

    (gc.enable if enabled else gc.disable)()
    try:
        results = [
            (outcome(["plan", "-c", str(good)]), gc.isenabled()),
            (outcome(["plan", "-c", str(bad)]), gc.isenabled()),
            (outcome(["deploy", "-c", str(good)]), gc.isenabled()),
            (outcome(["deploy", "-c", str(good), "--max-workers", "0"]), gc.isenabled()),
        ]
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_build", _fail)
            results.append((outcome(["plan", "-c", str(good)]), gc.isenabled()))
    finally:
        gc.enable()
    assert results == [(code, enabled) for code in (0, 2, 3, "SystemExit", "RuntimeError")]
