"""Real overhead grows linearly in fleet size.

The paper shape with its reservation merged second is built at 100 and 400
nodes, from parsing its text to the emit_text that keys the state file; a
reservation-backed fleet of each size is deployed and undeployed
on the sim, and saved to and loaded from the CLI's state file.  Linear work
takes about 4x as long at four times the fleet; the gate allows 8x, well
under the 16x of work that is quadratic in the fleet.
Timings are interleaved and the best of three is kept, so a slow spell on
a shared host hits both sizes or neither.
"""

import collections
import json
import sys
import time

from configs import paper_pair, reserved
from conftest import count_decoded, record_decodes, seed_nodelist
from gridforge import assembly, cli
from gridforge.assembly import _Generator, emit_text, generate, plan, validate
from gridforge.bench import middleware_config
from gridforge.cli import load_state, save_state
from gridforge.dsl import expand, merge, parse
from gridforge.personalities import default_registry
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
