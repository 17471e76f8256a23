"""Command-line behavior: subcommands, exit codes, persisted state."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from configs import MINI, reserved
from conftest import record_decodes
from gridforge import cli
from gridforge.pipeline import build_from_text
from gridforge.simgrid import SimNode


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    """Isolated HOME and state dir, plus the minimal config on disk."""
    home = tmp_path / "home"
    home.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setenv("GRIDFORGE_STATE_DIR", str(tmp_path / "state"))
    cfg = tmp_path / "mini.gdf"
    cfg.write_text(MINI)
    return tmp_path


GROUP_WITH_SIBLING_NEED = """
app = OpenCCM.Deployment {
  nodes = {
    node-0 = Grid5000_NODE {
      hostname = StaticHost(simnode-0)
      jre = Jre(/opt/java/jre)
      openccm = OpenCCM(/opt/OpenCCM,/opt/CORBA/JacORB)
    }
  }
  services = {
    ns = OpenCCM.NameService {
      node = nodes/node-0
    }
    servers = ParallelRunner {
      dci-a = OpenCCM.DCIManager(MyDCI) {
        ns = services/ns
        node = nodes/node-0
      }
      srv = OpenCCM.DCI_NODE(NM_1) {
        dci = services/servers/dci-a
        node = nodes/node-0
      }
    }
  }
}
"""


# node-0's openccm needs the JRE its jre role names, the service myjre, and
# myjre needs node-0's shell.  The cycle runs between units (node-0, myjre)
# and not between components, so the configuration validates and the
# planner finds no order.
UNPLANNABLE = """
app = OpenCCM.Deployment {
  nodes = {
    node-0 = Grid5000_NODE {
      hostname = StaticHost(simnode-0)
      shell = SH
      jre = services/myjre
      openccm = OpenCCM(/opt/OpenCCM,/opt/CORBA/JacORB)
    }
  }
  services = {
    myjre = Jre(/opt/java/jre) {
      shell = nodes/node-0/shell
    }
  }
}
"""


def write_config(workdir, name, text):
    path = workdir / name
    path.write_text(text)
    return str(path)


def state_files(workdir):
    directory = workdir / "state"
    if not directory.is_dir():
        return []
    return sorted(p.name for p in directory.iterdir() if p.suffix == ".json")


def test_cold_import_leaves_out_what_the_sim_path_never_runs():
    """`bench`'s statistics, the thread pool and subprocess load on demand."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    probe = "import sys, gridforge.cli; print(' '.join(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src}
    ).stdout.split()
    assert "gridforge.cli" in out
    loaded = {"statistics", "fractions", "decimal", "concurrent.futures", "logging", "subprocess"} & set(out)
    assert loaded == set()


def test_status_help_says_the_run_options_are_ignored(capsys):
    with pytest.raises(SystemExit):
        cli.main(["status", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "--transport, --connect-latency, --step-latency and --jitter-seed are accepted" in text
    assert "and ignored" in text


class TestPlan:
    def test_stage_listing(self, workdir, capsys):
        assert cli.main(["plan", "-c", str(workdir / "mini.gdf")]) == 0
        out = capsys.readouterr().out
        assert out == (
            "stage 0: node-prep [parallel] 1 action(s)\n"
            "  nodes/node-0 -> started\n"
            "stage 1: services/ns [sequential] 1 action(s)\n"
            "  services/ns -> started\n"
        )

    def test_emit_to_stdout(self, workdir, capsys):
        assert cli.main(["plan", "-c", str(workdir / "mini.gdf"), "--emit", "-"]) == 0
        out = capsys.readouterr().out
        for section in ("[components]", "[bindings]", "[composites]", "[plan]"):
            assert section in out
        assert "stage 0 label=node-prep mode=parallel" in out

    def test_plan_writes_no_state(self, workdir, capsys):
        cli.main(["plan", "-c", str(workdir / "mini.gdf")])
        assert state_files(workdir) == []


class TestDeployCycle:
    def test_deploy_status_undeploy(self, workdir, capsys):
        cfg = str(workdir / "mini.gdf")

        assert cli.main(["deploy", "-c", cfg]) == 0
        out = capsys.readouterr().out
        # 55 ms node stack + 15 ms naming service under default latencies
        assert out.startswith(
            "deploy complete: 2 action(s), 12 transition(s) performed, effective 70.0 ms"
        )
        assert len(state_files(workdir)) == 1

        assert cli.main(["status", "-c", cfg]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "services/ns STARTED" in lines
        assert "nodes/node-0/jre STARTED" in lines
        assert all(line.endswith(" STARTED") for line in lines)

        # stop 25 + uninstall 15 on the jre, stop 15 on the service
        assert cli.main(["undeploy", "-c", cfg]) == 0
        out = capsys.readouterr().out
        assert out.startswith(
            "undeploy complete: 2 action(s), 12 transition(s) performed, effective 55.0 ms"
        )

        assert cli.main(["status", "-c", cfg]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert all(line.endswith(" UNINSTALLED") for line in lines)

    def test_second_deploy_is_idempotent(self, workdir, capsys):
        cfg = str(workdir / "mini.gdf")
        cli.main(["deploy", "-c", cfg])
        capsys.readouterr()
        assert cli.main(["deploy", "-c", cfg]) == 0
        out = capsys.readouterr().out
        assert out.startswith(
            "deploy complete: 2 action(s), 0 transition(s) performed, effective 0.0 ms"
        )

    def test_state_key_rendered_once_per_command(self, workdir, capsys, monkeypatch):
        """The state key hashes the whole assembly text: render it once."""
        cfg = str(workdir / "mini.gdf")
        calls = []
        render = cli.emit_text
        monkeypatch.setattr(cli, "emit_text", lambda *a: calls.append(a) or render(*a))
        for command in ("deploy", "status", "undeploy"):
            calls.clear()
            assert cli.main([command, "-c", cfg]) == 0
            assert len(calls) == 1, command

    def test_dry_run_touches_nothing(self, workdir, capsys):
        cfg = str(workdir / "mini.gdf")
        assert cli.main(["deploy", "-c", cfg, "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "transition(s) planned" in out
        assert state_files(workdir) == []

    def test_metrics_file(self, workdir, capsys):
        cfg = str(workdir / "mini.gdf")
        metrics = workdir / "metrics.csv"
        cli.main(["deploy", "-c", cfg, "--metrics", str(metrics)])
        lines = metrics.read_text().splitlines()
        assert lines == [
            "stage,mode,actions,wall_ms",
            "node-prep,parallel,1,55.000",
            "services/ns,sequential,1,15.000",
        ]


class TestStatusListing:
    def test_no_state_dir(self, workdir, capsys):
        assert cli.main(["status"]) == 0
        assert capsys.readouterr().out == "no recorded deployments\n"

    def test_recorded_deployments(self, workdir, capsys):
        cli.main(["deploy", "-c", str(workdir / "mini.gdf")])
        capsys.readouterr()
        assert cli.main(["status"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("deployment ")
        assert "  services/ns STARTED" in out.splitlines()

    @pytest.mark.parametrize("indent", [None, 1], ids=["compact", "indented"])
    def test_listing_reads_the_states_alone(self, workdir, capsys, monkeypatch, indent):
        """A compact file is read by section, so its journal and fleet stay
        undecoded; an indented one is decoded whole, with the same lines."""
        cli.main(["deploy", "-c", str(workdir / "mini.gdf")])
        capsys.readouterr()
        (fname,) = state_files(workdir)
        path = workdir / "state" / fname
        if indent:
            path.write_text(json.dumps(json.loads(path.read_text()), indent=indent, sort_keys=True))
        decoded = record_decodes(monkeypatch)
        assert cli.main(["status"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [f"deployment {fname[: -len('.json')]}:", *(f"  {line}" for line in sorted(MINI_STATUS))]
        whole = [value for value in decoded if isinstance(value, dict) and "journal" in value]
        assert len(whole) == (1 if indent else 0)

    def test_state_file_contents(self, workdir, capsys):
        cli.main(["deploy", "-c", str(workdir / "mini.gdf")])
        (fname,) = state_files(workdir)
        data = json.loads((workdir / "state" / fname).read_text())
        assert data["states"]["services/ns"] == "STARTED"
        assert data["descriptor"] == fname[: -len(".json")]
        assert len(data["journal"]) == 12
        assert any(n["id"] == "simnode-0" for n in data["fleet"]["nodes"])

    def test_crash_during_save_keeps_previous_state(self, workdir, capsys, monkeypatch):
        cfg = str(workdir / "mini.gdf")
        cli.main(["deploy", "-c", cfg])
        capsys.readouterr()

        encode = cli._encode

        def torn_encode(value):
            # The document's head is already written when a SimNode fails.
            if isinstance(value, dict) and "log" in value:
                raise OSError("disk full")
            return encode(value)

        with monkeypatch.context() as patch, pytest.raises(OSError):
            patch.setattr(cli, "_encode", torn_encode)
            cli.main(["undeploy", "-c", cfg])

        (fname,) = state_files(workdir)
        data = json.loads((workdir / "state" / fname).read_text())
        assert set(data["states"].values()) == {"STARTED"}
        assert list((workdir / "state").glob("*.tmp")) == []
        assert cli.main(["status"]) == 0
        out = capsys.readouterr().out
        assert out.count("deployment ") == 1
        assert ".tmp" not in out
        assert "  services/ns STARTED" in out.splitlines()


# `status -c` of reserved(3, granted=2) after its deploy failed at node-2.
PARTIAL_STATUS = [
    "nodes/hostname STARTED",
    "nodes/frontend/hostname STARTED",
    "nodes/frontend/protocol STARTED",
    "nodes/frontend/shell STARTED",
    "nodes/frontend/ready STARTED",
    "nodes/node-0/jre STARTED",
    "nodes/node-0/protocol STARTED",
    "nodes/node-0/shell STARTED",
    "nodes/node-0/ready STARTED",
    "nodes/node-1/jre STARTED",
    "nodes/node-1/protocol STARTED",
    "nodes/node-1/shell STARTED",
    "nodes/node-1/ready STARTED",
    "nodes/node-2/jre UNINSTALLED",
    "nodes/node-2/protocol STARTED",
    "nodes/node-2/shell STARTED",
    "nodes/node-2/ready UNINSTALLED",
    "services/reservation STARTED",
    "services/ns UNINSTALLED",
]


def _indent(path):
    """Rewrite a state file in the indented layout of older versions."""
    path.write_text(json.dumps(json.loads(path.read_text()), indent=1, sort_keys=True))


class TestStatusWithConfig:
    """`status -c` assembles the configuration and applies the saved states;
    it never plans."""

    @pytest.mark.parametrize("indent", [False, True], ids=["compact", "indented"])
    def test_listing_bytes(self, workdir, capsys, indent):
        cfg = write_config(workdir, "over.gdf", reserved(3, granted=2))
        assert cli.main(["deploy", "-c", cfg]) == 3
        if indent:
            (fname,) = state_files(workdir)
            _indent(workdir / "state" / fname)
        capsys.readouterr()
        assert cli.main(["status", "-c", cfg]) == 0
        assert capsys.readouterr().out == "".join(f"{line}\n" for line in PARTIAL_STATUS)

    def test_configuration_the_planner_refuses(self, workdir, capsys):
        """plan and deploy exit 3; status lists every component, none ever
        deployed."""
        cfg = write_config(workdir, "unplannable.gdf", UNPLANNABLE)
        for command in ("plan", "deploy"):
            assert cli.main([command, "-c", cfg]) == 3
            assert "dependency cycle through services/myjre and nodes/node-0" in capsys.readouterr().err
        assert cli.main(["status", "-c", cfg]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "nodes/node-0/hostname UNINSTALLED",
            "nodes/node-0/shell UNINSTALLED",
            "nodes/node-0/openccm UNINSTALLED",
            "nodes/node-0/protocol UNINSTALLED",
            "nodes/node-0/ready UNINSTALLED",
            "services/myjre UNINSTALLED",
        ]
        assert state_files(workdir) == []


MINI_STATUS = [
    "nodes/node-0/hostname STARTED",
    "nodes/node-0/jre STARTED",
    "nodes/node-0/protocol STARTED",
    "nodes/node-0/shell STARTED",
    "nodes/node-0/ready STARTED",
    "services/ns STARTED",
]


class TestStateFile:
    @pytest.fixture()
    def deployed(self, workdir, capsys):
        """MINI deployed once; returns (config path, state file path)."""
        cfg = str(workdir / "mini.gdf")
        assert cli.main(["deploy", "-c", cfg]) == 0
        capsys.readouterr()
        (fname,) = state_files(workdir)
        return cfg, workdir / "state" / fname

    def test_resume_leaves_file_untouched(self, deployed, capsys):
        cfg, path = deployed
        before, mtime = path.read_bytes(), path.stat().st_mtime_ns
        assert cli.main(["deploy", "-c", cfg]) == 0
        assert "0 transition(s) performed" in capsys.readouterr().out
        assert path.read_bytes() == before
        assert path.stat().st_mtime_ns == mtime
        assert len(json.loads(before)["journal"]) == 12

    def test_transitions_rewrite_the_file(self, deployed, capsys):
        cfg, path = deployed
        before = path.read_bytes()
        assert cli.main(["undeploy", "-c", cfg]) == 0
        data = json.loads(path.read_bytes())
        assert path.read_bytes() != before
        assert set(data["states"].values()) == {"UNINSTALLED"}
        assert len(data["journal"]) == 12

    def test_compact_json(self, deployed):
        _, path = deployed
        assert "\n" not in path.read_text()

    def test_indented_file_still_loads(self, deployed, capsys):
        cfg, path = deployed
        _indent(path)
        assert cli.main(["deploy", "-c", cfg]) == 0
        assert "0 transition(s) performed" in capsys.readouterr().out
        assert cli.main(["status", "-c", cfg]) == 0
        assert capsys.readouterr().out.splitlines() == MINI_STATUS

    def test_status_lines(self, deployed, capsys):
        cfg, _ = deployed
        assert cli.main(["status", "-c", cfg]) == 0
        assert capsys.readouterr().out.splitlines() == MINI_STATUS

    @pytest.mark.parametrize(
        "damage",
        [
            lambda text: text[:-40],
            lambda text: json.dumps(json.loads(text), indent=1, sort_keys=True)[:-40],
            lambda text: text.replace('"services/ns":"STARTED"', '"services/ns":"RUNNING"'),
        ],
        ids=["truncated-compact", "truncated-indented", "unknown-state"],
    )
    def test_damaged_file_exits_3(self, deployed, capsys, damage):
        """Every command that reads the file names it in one line of stderr,
        exits 3 and leaves the file as it was."""
        cfg, path = deployed
        damaged = damage(path.read_text())
        assert damaged != path.read_text()
        path.write_text(damaged)
        mtime = path.stat().st_mtime_ns
        for argv in (["status"], ["status", "-c", cfg], ["deploy", "-c", cfg], ["undeploy", "-c", cfg]):
            assert cli.main(argv) == 3, argv
            out, err = capsys.readouterr()
            assert out == ""
            assert len(err.splitlines()) == 1 and str(path) in err, (argv, err)
            assert path.read_text() == damaged
            assert path.stat().st_mtime_ns == mtime
        assert list(path.parent.glob("*.tmp")) == []

    def test_undecodable_fleet_exits_3(self, deployed, capsys):
        """The saved SimNodes are decoded at the first node contact, after
        the file was read: an undeploy whose fleet section no longer decodes
        names the file in one line of stderr, exits 3 and leaves it as it was."""
        cfg, path = deployed
        damaged = path.read_bytes().replace(b'"files":[', b'"files":[[', 1)
        assert damaged != path.read_bytes()
        path.write_bytes(damaged)
        assert cli.main(["undeploy", "-c", cfg]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and str(path) in err, err
        assert path.read_bytes() == damaged
        assert list(path.parent.glob("*.tmp")) == []


def _saved_and_loaded(text, key, edit=None):
    """A deployed assembly saved under `key`, after `edit(fleet)`, and a
    fresh build of the same text that loaded it."""
    deployment = build_from_text(text)
    deployment.execute()
    if edit is not None:
        edit(deployment.ctx.fleet)
    cli.save_state(deployment, key)
    loaded = build_from_text(text)
    assert cli.load_state(loaded.assembly, key, loaded.ctx.fleet)
    return deployment, loaded


def _state_keys_in_env(fleet):
    fleet.nodes["simnode-0"].env.update(states="{", journal="[")


def _state_key_in_path(fleet):
    fleet.nodes["simnode-0"].files.add('/opt/a,"states":{"x')


class TestStateReader:
    """load_state reads save_state's layout by section and decodes any other
    text whole; both give the same states and SimNodes."""

    @pytest.mark.parametrize("edit", [_state_keys_in_env, _state_key_in_path], ids=["env-keys", "file-path"])
    def test_round_trip(self, workdir, edit):
        deployment, loaded = _saved_and_loaded(MINI, "edited", edit)
        path = pathlib.Path(cli._state_path("edited"))
        text = path.read_text(encoding="utf-8")
        assert isinstance(cli._read_state(text)["fleet"], str)
        assert loaded.assembly.status() == deployment.assembly.status()
        assert loaded.ctx.fleet.to_dict() == deployment.ctx.fleet.to_dict()
        cli.save_state(loaded, "edited")
        resaved = json.loads(path.read_text(encoding="utf-8"))
        assert {**resaved, "journal": None} == {**json.loads(text), "journal": None}

        path.write_text(json.dumps(json.loads(text), indent=1, sort_keys=True))
        whole = build_from_text(MINI)
        assert cli.load_state(whole.assembly, "edited", whole.ctx.fleet)
        assert whole.assembly.status() == deployment.assembly.status()
        assert whole.ctx.fleet.to_dict() == deployment.ctx.fleet.to_dict()

    @pytest.mark.parametrize("tail", ["}\n", ',"zz":{"states":{"b":"STOPPED"}}}'], ids=["newline", "later-key"])
    def test_other_text_is_decoded_whole(self, tail):
        head = '{"descriptor":"k","fleet":null,"journal":["x"],"states":{"a":"STARTED"}'
        assert cli._read_state(head + "}") == {"descriptor": "k", "fleet": None, "states": {"a": "STARTED"}}
        assert cli._read_state(head + tail) == json.loads(head + tail)

    def test_four_field_log_entries(self, workdir):
        """Entries of older versions carry a fourth, empty field; every
        distinct step is built once and shared by the nodes that logged it."""
        deployment, _ = _saved_and_loaded(reserved(2, 2), "four")
        path = pathlib.Path(cli._state_path("four"))
        data = json.loads(path.read_text())
        for node in data["fleet"]["nodes"]:
            node["log"] = [[*entry, ""] for entry in node["log"]]
        path.write_text(json.dumps(data, sort_keys=True, separators=(",", ":")))
        loaded = build_from_text(reserved(2, 2))
        assert cli.load_state(loaded.assembly, "four", loaded.ctx.fleet)
        assert loaded.ctx.fleet.to_dict() == deployment.ctx.fleet.to_dict()
        steps = [step for node in loaded.ctx.fleet.nodes.values() for step in node.log]
        assert len({id(step) for step in steps}) == len(set(steps)) < len(steps)

    def test_failed_deploy_saves_the_fleet_it_decoded(self, workdir, capsys, monkeypatch):
        """A deploy that decodes the saved fleet on its first node contact
        and fails partway saves every SimNode, reached or not; a rerun
        resumes from there to the nodes a whole deploy leaves."""
        cfg = write_config(workdir, "reserved.gdf", reserved(3, 3))
        assert cli.main(["deploy", "-c", cfg]) == 0
        (fname,) = state_files(workdir)
        path = workdir / "state" / fname

        def saved_nodes():
            return {node["id"]: node for node in json.loads(path.read_text())["fleet"]["nodes"]}

        def observable():
            return {node_id: (node["env"], node["files"], node["processes"]) for node_id, node in saved_nodes().items()}

        deployed = observable()
        assert cli.main(["undeploy", "-c", cfg]) == 0
        before = saved_nodes()
        reached = set()
        apply = SimNode.apply

        def failing(node, step):
            reached.add(node.id)
            return (1, "injected") if node.id == "simnode-1" else apply(node, step)

        with monkeypatch.context() as patch:
            patch.setattr(SimNode, "apply", failing)
            assert cli.main(["deploy", "-c", cfg]) == 3
        after = saved_nodes()
        assert list(after) == list(before)
        unreached = set(before) - reached
        assert reached and unreached
        for node_id in unreached:
            assert after[node_id] == before[node_id]

        assert cli.main(["deploy", "-c", cfg]) == 0
        assert observable() == deployed


def _reference_bytes(deployment, key):
    """The state document as one json.dumps call writes it."""
    fleet = deployment.ctx.fleet
    document = {
        "descriptor": key,
        "states": {cid: c.state.name for cid, c in deployment.assembly.components.items()},
        "journal": deployment.assembly.journal.export_lines(),
        "fleet": fleet.to_dict() if fleet is not None and fleet.nodes else None,
    }
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


class TestStateWriter:
    """save_state writes, piece by piece, exactly the bytes of json.dumps."""

    @pytest.mark.parametrize("text", [MINI, reserved(6, 6)], ids=["mini", "reserved-6-6"])
    def test_deployed_fleet(self, workdir, text):
        deployment = build_from_text(text)
        deployment.execute()
        assert len(deployment.assembly.journal) > 0 and deployment.ctx.fleet.nodes
        path = pathlib.Path(cli.save_state(deployment, "deployed"))
        assert path.read_text(encoding="utf-8") == _reference_bytes(deployment, "deployed")

    def test_empty_fleet(self, workdir):
        deployment = build_from_text(MINI)
        assert not deployment.ctx.fleet.nodes
        text = pathlib.Path(cli.save_state(deployment, "empty")).read_text(encoding="utf-8")
        assert '"fleet":null' in text
        assert text == _reference_bytes(deployment, "empty")


class TestFailures:
    def test_config_error_exits_2(self, workdir, capsys):
        cfg = write_config(
            workdir, "bad.gdf", "app = OpenCCM.Deployment {\n  nodes = {\n"
        )
        assert cli.main(["plan", "-c", cfg]) == 2
        assert capsys.readouterr().err.strip() != ""

    def test_missing_config_file_exits_2(self, workdir, capsys):
        assert cli.main(["plan", "-c", str(workdir / "nope.gdf")]) == 2
        err = capsys.readouterr().err
        assert "cannot read configuration" in err
        assert "nope.gdf" in err

    def test_unknown_kind_exits_2(self, workdir, capsys):
        cfg = write_config(
            workdir,
            "unknown.gdf",
            "app = OpenCCM.Deployment {\n  nodes = {\n    node-0 = NoSuchKind {\n    }\n  }\n}\n",
        )
        assert cli.main(["plan", "-c", cfg]) == 2
        assert "NoSuchKind" in capsys.readouterr().err

    def test_group_member_needing_a_sibling_exits_2(self, workdir, capsys):
        """Both members start in the group's one stage, so srv cannot have
        dci-a started first: a configuration error, not a runtime one."""
        cfg = write_config(workdir, "sibling.gdf", GROUP_WITH_SIBLING_NEED)
        assert cli.main(["plan", "-c", cfg]) == 2
        err = capsys.readouterr().err
        assert "group-cycle: services/servers/srv: needs services/servers/dci-a" in err
        assert "of its own group services/servers" in err

    def test_oversubscribed_reservation_exits_3(self, workdir, capsys):
        cfg = write_config(workdir, "over.gdf", reserved(3, granted=2))
        assert cli.main(["deploy", "-c", cfg]) == 3
        err = capsys.readouterr().err
        assert "failed at nodes/node-2" in err
        assert "node index 2" in err

    def test_malformed_sizes_rejected(self, workdir):
        with pytest.raises(SystemExit):
            cli.main(["bench", "--sizes", "30:10:10"])

    @pytest.mark.parametrize("command", ["deploy", "undeploy", "bench"])
    def test_zero_workers_exits_2(self, workdir, capsys, command):
        config = [] if command == "bench" else ["-c", str(workdir / "mini.gdf")]
        with pytest.raises(SystemExit) as exit_info:
            cli.main([command, *config, "--max-workers", "0"])
        assert exit_info.value.code == 2
        assert "--max-workers: must be at least 1, got 0" in capsys.readouterr().err
        assert state_files(workdir) == []


class TestBench:
    def test_csv_and_fit(self, workdir, capsys, monkeypatch):
        """The fit is over real overhead; the virtual effective times are
        linear by construction and would always fit perfectly."""
        from gridforge import bench

        points = [bench.ScalingPoint(n, overhead, 15.0 * n) for n, overhead in ((10, 1.0), (20, 2.0), (30, 4.0))]
        monkeypatch.setattr(bench, "measure_scaling", lambda sizes, **_: points)
        out_path = workdir / "scaling.csv"
        assert cli.main(["bench", "--sizes", "10:30:10", "--out", str(out_path)]) == 0
        assert capsys.readouterr().err == "linear fit of overhead_ms over 3 sizes: r^2 = 0.9643\n"
        assert out_path.read_text().splitlines() == [
            "n_nodes,overhead_ms,effective_ms",
            "10,1.000,150.000",
            "20,2.000,300.000",
            "30,4.000,450.000",
        ]

    def test_measured_effective_times(self, workdir, capsys):
        out_path = workdir / "scaling.csv"
        assert cli.main(["bench", "--sizes", "10:30:10", "--out", str(out_path)]) == 0
        assert "linear fit of overhead_ms over 3 sizes: r^2 = " in capsys.readouterr().err
        rows = out_path.read_text().splitlines()
        assert rows[0] == "n_nodes,overhead_ms,effective_ms"
        # 130 ms per ten-node wave plus 30 ms fixed services, 15 per server wave
        effective = {
            int(r.split(",")[0]): r.split(",")[2] for r in rows[1:]
        }
        assert effective == {10: "175.000", 20: "320.000", 30: "465.000"}

    def test_stdout_output(self, workdir, capsys):
        assert cli.main(["bench", "--sizes", "10:10:1"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("n_nodes,overhead_ms,effective_ms\n10,")
