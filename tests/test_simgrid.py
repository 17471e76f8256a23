"""Simulated fleet: node semantics, log replay, virtual time, jitter."""

import json
import os
import pathlib
import random
import subprocess
import sys
import threading
import tracemalloc
import zlib

import pytest

from configs import reserved
from gridforge import simgrid
from gridforge.pipeline import build_from_text
from gridforge.runtime import ExecOptions
from gridforge.simgrid import Fleet, SimClockConfig, SimNode, VirtualClock, WallClock, replay_log
from gridforge.steps import (
    append_path,
    exec_cmd,
    fetch,
    remove,
    set_var,
    start_process,
    stop_process,
)
from gridforge.transports import NodeAccess, Payload, SimTransport


class TestSimNode:
    def test_set_and_unset_var(self):
        node = SimNode("n")
        node.apply(set_var("A", "1"))
        assert node.env == {"A": "1"}
        node.apply(set_var("A", ""))
        assert node.env == {}

    def test_append_path_joins_with_colon(self):
        node = SimNode("n")
        node.apply(append_path("/a/bin"))
        node.apply(append_path("/b/bin"))
        assert node.env["PATH"] == "/a/bin:/b/bin"

    def test_fetch_creates_dest(self):
        node = SimNode("n")
        node.apply(fetch("http://mirror/x.tar.gz", "/opt/x.tar.gz"))
        assert "/opt/x.tar.gz" in node.files

    def test_remove_discards_prefix(self):
        node = SimNode("n")
        node.apply(fetch("u", "/opt/java/jre.tar.gz"))
        node.apply(fetch("u", "/opt/java/bin/java"))
        node.apply(fetch("u", "/etc/keep"))
        node.apply(remove("/opt/java"))
        assert node.files == {"/etc/keep"}

    def test_exists_exact_or_prefix(self):
        node = SimNode("n")
        node.apply(fetch("u", "/opt/java/bin/java"))
        assert node.exists("/opt/java/bin/java")
        assert node.exists("/opt/java")  # directory implied by content
        assert not node.exists("/opt/jav")

    def test_process_lifecycle(self):
        node = SimNode("n")
        node.apply(start_process("NS", "ns_start"))
        assert node.processes == {"NS"}
        node.apply(stop_process("NS"))
        assert node.processes == set()

    def test_exec_exit_codes(self):
        node = SimNode("n")
        assert node.apply(exec_cmd("true"))[0] == 0
        assert node.apply(exec_cmd("false"))[0] == 1
        assert node.apply(exec_cmd("exit 3"))[0] == 3
        assert node.apply(exec_cmd("tar -xzf /x.tar.gz"))[0] == 0

    def test_echo_substitutes_env(self):
        node = SimNode("n")
        node.apply(set_var("JAVA_HOME", "/opt/java"))
        status, out = node.apply(exec_cmd("echo $JAVA_HOME/bin"))
        assert status == 0
        assert out == "/opt/java/bin"
        status, out = node.apply(exec_cmd("echo ${JAVA_HOME}"))
        assert out == "/opt/java"

    def test_serialization_round_trip(self):
        """A saved node's log holds its steps' indices in the fleet's step table."""
        steps = [set_var("A", "1"), fetch("u", "/f"), start_process("P", "cmd")]
        node = SimNode("n")
        for step in steps:
            node.apply(step)
        clone = SimNode.from_dict(node.to_dict([0, 1, 2]), steps)
        assert clone.observable() == node.observable()
        assert clone.id == node.id
        assert clone.log == node.log

    def test_log_entries_are_kind_and_two_operands(self):
        """A step table entry is the kind's name and the step's two operands."""
        fleet = Fleet()
        fleet.get_or_create("n0").apply(set_var("A", "1"))
        saved = fleet.to_dict()
        assert saved["steps"] == [["SetVar", "A", "1"]]
        assert saved["nodes"][0]["log"] == [0]

    def test_loads_four_field_log_entries(self):
        """State files written before steps lost their node field still
        load: their fleet has no step table, and each log entry carries a
        fourth, always-empty field."""
        saved = {
            "nodes": [
                {
                    "id": "n",
                    "env": {"A": "1"},
                    "files": ["/f"],
                    "processes": [],
                    "log": [["SetVar", "A", "1", ""], ["Fetch", "u", "/f", ""]],
                }
            ]
        }
        node = Fleet.from_dict(saved).nodes["n"]
        assert node.log == [set_var("A", "1"), fetch("u", "/f")]
        assert replay_log(node.log).observable() == node.observable()
        assert SimNode.from_dict(saved["nodes"][0]).log == node.log


def random_steps(rng, count):
    makers = [
        lambda: set_var(f"V{rng.randrange(4)}", str(rng.randrange(10))),
        lambda: set_var(f"V{rng.randrange(4)}", ""),
        lambda: append_path(f"/p{rng.randrange(4)}/bin"),
        lambda: fetch("u", f"/f{rng.randrange(6)}"),
        lambda: remove(f"/f{rng.randrange(6)}"),
        lambda: start_process(f"P{rng.randrange(3)}", "cmd"),
        lambda: stop_process(f"P{rng.randrange(3)}"),
        lambda: exec_cmd("echo hi"),
    ]
    return [rng.choice(makers)() for _ in range(count)]


class TestReplay:
    def test_log_replay_rebuilds_state(self):
        """Re-applying the recorded log to a fresh node is a second,
        independent path to the same observable state."""
        rng = random.Random(7)
        node = SimNode("n")
        for step in random_steps(rng, 300):
            node.apply(step)
        assert replay_log(node.log).observable() == node.observable()

    def test_interleaved_nodes_stay_isolated(self):
        """Two nodes driven from two threads end up exactly as if each had
        been driven alone."""
        rng = random.Random(21)
        scripts = {f"n{i}": random_steps(rng, 200) for i in range(2)}
        fleet = Fleet()
        for name in scripts:
            fleet.get_or_create(name)
        barrier = threading.Barrier(2)

        def drive(name):
            barrier.wait()
            for step in scripts[name]:
                fleet.nodes[name].apply(step)

        threads = [threading.Thread(target=drive, args=(f"n{i}",)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for name, steps in scripts.items():
            solo = SimNode("solo")
            for step in steps:
                solo.apply(step)
            assert fleet.nodes[name].observable() == solo.observable()


class TestSavedFleet:
    """A saved fleet holds each distinct step once and each log as indices."""

    def _fleet(self, seed):
        """Five nodes driven by random steps.  Some steps are shared objects,
        as a build's payloads share theirs; others are equal but distinct
        objects, as after a load."""
        rng = random.Random(seed)
        pool = random_steps(rng, 12)
        fleet = Fleet()
        for node in [fleet.get_or_create(f"n{i}") for i in range(5)]:
            for step in random_steps(rng, rng.randrange(0, 60)) + rng.sample(pool, 6):
                node.apply(step)
        return fleet

    @pytest.mark.parametrize("seed", range(8))
    def test_round_trip_through_json(self, seed):
        fleet = self._fleet(seed)
        saved = fleet.to_dict()
        loaded = Fleet.from_dict(json.loads(json.dumps(saved)))
        assert list(loaded.nodes) == list(fleet.nodes)
        for name, node in fleet.nodes.items():
            clone = loaded.nodes[name]
            assert clone.log == node.log
            assert clone.observable() == node.observable()
            assert replay_log(clone.log).observable() == clone.observable()
        # Saving what was loaded gives the same document.
        assert json.dumps(loaded.to_dict()) == json.dumps(saved)

    @pytest.mark.parametrize("seed", range(8))
    def test_table_holds_each_distinct_step_once(self, seed):
        fleet = self._fleet(seed)
        saved = fleet.to_dict()
        rows = [tuple(row) for row in saved["steps"]]
        applied = [step for node in fleet.nodes.values() for step in node.log]
        assert len(rows) == len(set(rows)) == len(set(applied)) < len(applied)
        # First-seen order, walking the nodes in fleet order.
        first_seen = dict.fromkeys((s.kind.value, s.a, s.b) for s in applied)
        assert rows == list(first_seen)
        for nd, node in zip(saved["nodes"], fleet.nodes.values()):
            assert [saved["steps"][i] for i in nd["log"]] == [[s.kind.value, s.a, s.b] for s in node.log]

    @pytest.mark.parametrize("extra", [[], [""]], ids=["3-field", "4-field"])
    def test_inline_layout_loads_to_the_same_fleet(self, extra):
        """A fleet saved before the step table, each log entry written out
        in full, loads to the fleet the table layout gives."""
        fleet = self._fleet(11)
        saved = fleet.to_dict()
        legacy = {
            "nodes": [
                {**nd, "log": [saved["steps"][i] + extra for i in nd["log"]]} for nd in saved["nodes"]
            ]
        }
        loaded = Fleet.from_dict(json.loads(json.dumps(legacy)))
        assert list(loaded.nodes) == list(fleet.nodes)
        for name, node in fleet.nodes.items():
            assert loaded.nodes[name].log == node.log
            assert loaded.nodes[name].observable() == node.observable()
        assert loaded.to_dict() == saved

    @pytest.mark.parametrize("index", [-1, 1, "0"])
    def test_index_outside_the_table_is_refused(self, index):
        node = {"id": "n", "env": {}, "files": [], "processes": [], "log": [0, index]}
        saved = {"nodes": [node], "steps": [["Exec", "true", ""]]}
        with pytest.raises((LookupError, TypeError)):
            Fleet.from_dict(saved)

    def test_document_does_not_depend_on_the_hash_seed(self, tmp_path):
        """A reserved deploy and undeploy saves the same fleet document
        under two hash seeds."""
        probe = (
            "import json\n"
            "from configs import reserved\n"
            "from gridforge.pipeline import build_from_text\n"
            "d = build_from_text(reserved(20, 20))\n"
            "d.execute()\n"
            "d.execute_inverse()\n"
            "print(json.dumps(d.ctx.fleet.to_dict()))\n"
        )
        src = pathlib.Path(simgrid.__file__).resolve().parents[1]
        path = os.pathsep.join([str(src), str(pathlib.Path(__file__).parent)])
        saved = [
            subprocess.run(
                [sys.executable, "-c", probe],
                capture_output=True,
                text=True,
                check=True,
                env={**os.environ, "PYTHONPATH": path, "HOME": str(tmp_path), "PYTHONHASHSEED": seed},
            ).stdout
            for seed in ("1", "2")
        ]
        assert json.loads(saved[0])["steps"]
        assert saved[0] == saved[1]


class TestFleet:
    def test_create_names_sequentially(self):
        """Nodes keep the order they were first contacted in, in the fleet,
        in its saved document and once loaded."""
        fleet = Fleet()
        for name in ("simnode-2", "simnode-0", "simnode-1", "simnode-0"):
            fleet.get_or_create(name)
        order = ["simnode-2", "simnode-0", "simnode-1"]
        assert list(fleet.nodes) == order
        saved = fleet.to_dict()
        assert [nd["id"] for nd in saved["nodes"]] == order
        assert list(Fleet.from_dict(json.loads(json.dumps(saved))).nodes) == order

    def test_create_zero(self):
        """A fleet of no nodes saves and loads as one."""
        saved = Fleet().to_dict()
        assert saved == {"nodes": [], "steps": []}
        assert Fleet.from_dict(json.loads(json.dumps(saved))).nodes == {}

    def test_get_or_create_materializes_once(self):
        fleet = Fleet()
        assert fleet.nodes == {}
        a = fleet.get_or_create("h")
        assert fleet.get_or_create("h") is a
        assert list(fleet.nodes) == ["h"]

    def test_thousand_nodes_stay_cheap(self):
        """Nodes are plain state holders: no threads, bounded memory."""
        before = threading.active_count()
        tracemalloc.start()
        fleet = Fleet()
        for i in range(1000):
            fleet.get_or_create(f"simnode-{i}")
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert threading.active_count() == before
        assert len(fleet.nodes) == 1000
        assert peak < 20 * 1024 * 1024

    def test_serialization_round_trip(self):
        fleet = Fleet()
        fleet.get_or_create("simnode-0").apply(set_var("A", "1"))
        fleet.get_or_create("simnode-1")
        clone = Fleet.from_dict(fleet.to_dict())
        assert sorted(clone.nodes) == sorted(fleet.nodes)
        assert clone.nodes["simnode-0"].observable() == fleet.nodes["simnode-0"].observable()

    def test_restore_decodes_on_first_use(self):
        """A restored fleet decodes its saved text when a node is first
        looked up; a text that does not decode fails every lookup alike."""
        fleet = Fleet()
        fleet.get_or_create("simnode-0")
        fleet.restore("{not json")
        for _ in range(2):
            with pytest.raises(json.JSONDecodeError):
                fleet.get_or_create("simnode-0")
        saved = Fleet()
        saved.get_or_create("simnode-0")
        saved.get_or_create("simnode-1").apply(set_var("A", "1"))
        fleet.restore(json.dumps(saved.to_dict()))
        assert fleet.get_or_create("simnode-1").env == {"A": "1"}
        assert fleet.to_dict() == saved.to_dict()


class TestVirtualClock:
    def test_charge_without_meter_moves_time(self):
        clock = VirtualClock()
        clock.charge(5.0)
        assert clock.now_ms() == 5.0

    def test_meter_absorbs_charges(self):
        clock = VirtualClock()
        clock.begin_action()
        clock.charge(5.0)
        clock.charge(10.0)
        assert clock.now_ms() == 0.0  # meter open: global time untouched
        assert clock.end_action() == 15.0

    def test_nested_meters_fold_outward(self):
        clock = VirtualClock()
        clock.begin_action()
        clock.charge(5.0)
        clock.begin_action()
        clock.charge(7.0)
        assert clock.end_action() == 7.0
        assert clock.end_action() == 12.0

    def test_advance(self):
        clock = VirtualClock()
        clock.advance(130.0)
        assert clock.now_ms() == 130.0
        assert clock.virtual


class TestWallClock:
    def test_meters_measure_elapsed(self):
        import time

        clock = WallClock()
        clock.begin_action()
        time.sleep(0.01)
        assert clock.end_action() >= 5.0
        assert not clock.virtual

    def test_charge_is_ignored(self):
        clock = WallClock()
        t0 = clock.now_ms()
        clock.charge(1000.0)
        assert clock.now_ms() - t0 < 1000.0


class TestJitter:
    def test_seed_zero_disables(self):
        cfg = SimClockConfig()
        assert cfg.latency(10.0, "n", "x") == 10.0

    def test_jitter_is_pure_and_bounded(self):
        cfg = SimClockConfig(jitter_seed=42)
        values = {cfg.latency(10.0, "n1", str(i)) for i in range(50)}
        assert len(values) > 1  # actually perturbs
        for v in values:
            assert 9.0 <= v <= 11.0
        assert cfg.latency(10.0, "n1", "3") == cfg.latency(10.0, "n1", "3")

    def test_different_seeds_differ(self):
        a = SimClockConfig(jitter_seed=1).latency(10.0, "n", "0")
        b = SimClockConfig(jitter_seed=2).latency(10.0, "n", "0")
        assert a != b


class TestSimCharges:
    """What the sim transport charges, pinned to the latency model."""

    def _send(self, steps):
        cfg = SimClockConfig(connect_latency=5.0, step_latency=10.0, jitter_seed=7)
        clock = VirtualClock()
        payload = Payload.of(steps)
        status, _ = SimTransport(Fleet(), clock, cfg).send(NodeAccess("simnode-3"), payload)
        digest = format(zlib.crc32(payload.script.encode()), "08x")
        return cfg, digest, clock.now_ms(), status

    def test_send_charges_connect_plus_every_step(self):
        steps = [set_var(f"V{i}", str(i)) for i in range(6)]
        cfg, digest, charged, status = self._send(steps)
        expected = cfg.latency(5.0, "simnode-3", digest, "connect")
        for i in range(len(steps)):
            expected += cfg.latency(10.0, "simnode-3", digest, str(i))
        assert status == 0
        assert charged == expected

    def test_failing_step_is_the_last_charged(self):
        steps = [set_var("A", "1"), set_var("B", "2"), exec_cmd("exit 3"), set_var("C", "3")]
        cfg, digest, charged, status = self._send(steps)
        expected = cfg.latency(5.0, "simnode-3", digest, "connect")
        for i in range(3):
            expected += cfg.latency(10.0, "simnode-3", digest, str(i))
        assert status == 3
        assert charged == expected

    def test_one_prefix_latencies_equal_whole_keys(self):
        """Each charge equals `latency` over the whole key, for random seeds
        (0 among them), node ids, digests, step counts and 0 ms bases."""

        class Recording(VirtualClock):
            def __init__(self):
                super().__init__()
                self.charges = []

            def charge(self, ms):
                self.charges.append(ms)

        rng = random.Random(20261018)
        bases = [(5.0, 10.0), (0.0, 10.0), (5.0, 0.0), (0.0, 0.0)]
        for trial in range(300):
            seed = rng.choice([0, rng.randrange(-(2**31), 2**31)])
            connect, step = bases[trial % 4] if trial < 40 else (rng.uniform(0, 50), rng.uniform(0, 50))
            node = f"node-{rng.randrange(10**6)}.site{rng.randrange(4)}"
            count = rng.randrange(0, 15)
            payload = Payload(tuple(set_var(f"V{i}", "") for i in range(count)), f"# {rng.random()}")
            cfg = SimClockConfig(connect_latency=connect, step_latency=step, jitter_seed=seed)
            clock = Recording()
            SimTransport(Fleet(), clock, cfg).send(NodeAccess(node), payload)
            whole = [cfg.latency(connect, node, payload.digest, "connect")]
            whole += [cfg.latency(step, node, payload.digest, str(i)) for i in range(count)]
            assert clock.charges == whole, (seed, node, payload.digest, count)

    def test_reserved_fleet_total_ms(self, sim_home):
        deployment = build_from_text(reserved(20, 20), sim_config=SimClockConfig(jitter_seed=99))
        options = ExecOptions(max_workers=4)
        assert deployment.execute(options).total_ms == 305.3461830142993
        assert deployment.execute_inverse(options).total_ms == 232.80716291996828
