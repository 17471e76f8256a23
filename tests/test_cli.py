"""Command-line behavior: subcommands, exit codes, persisted state."""

import collections
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from configs import MINI, chain, reserved
from conftest import record_decodes
from gridforge import cli
from gridforge.pipeline import build_from_text
from gridforge.simgrid import SimNode
from gridforge.transports import LocalTransport


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

    def test_emit_to_file(self, workdir, capsys):
        """The file holds what `--emit -` appends to the stage listing."""
        cfg, target = str(workdir / "mini.gdf"), workdir / "emitted.txt"
        assert cli.main(["plan", "-c", cfg]) == 0
        listing = capsys.readouterr().out
        assert cli.main(["plan", "-c", cfg, "--emit", "-"]) == 0
        both = capsys.readouterr().out
        assert cli.main(["plan", "-c", cfg, "--emit", str(target)]) == 0
        assert capsys.readouterr().out == listing
        assert listing + target.read_text() == both
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
        """And it counts the plan's actions and the transitions the real
        deploy then performs."""
        cfg = str(workdir / "mini.gdf")
        assert cli.main(["deploy", "-c", cfg, "--dry-run"]) == 0
        planned = capsys.readouterr().out
        assert "transition(s) planned" in planned
        assert state_files(workdir) == []
        assert cli.main(["deploy", "-c", cfg]) == 0
        performed = capsys.readouterr().out
        counts = re.compile(r"deploy complete: (\d+) action\(s\), (\d+) transition\(s\) (planned|performed)")
        assert counts.match(planned).groups() == ("2", "12", "planned")
        assert counts.match(performed).groups() == ("2", "12", "performed")

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

    def test_state_dir_without_state_files(self, workdir, capsys):
        """`status -c` of a configuration never deployed makes the directory
        (for its lock) but saves no state, so the listing still has none."""
        assert cli.main(["status", "-c", str(workdir / "mini.gdf")]) == 0
        assert os.listdir(cli.state_dir()) == [".lock"]
        capsys.readouterr()
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
        """A compact file is read by section, so its fleet stays undecoded;
        an indented one is decoded whole, with the same lines."""
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
        whole = [value for value in decoded if isinstance(value, dict) and "descriptor" in value]
        assert len(whole) == (1 if indent else 0)

    def test_state_file_contents(self, workdir, capsys):
        cli.main(["deploy", "-c", str(workdir / "mini.gdf")])
        (fname,) = state_files(workdir)
        data = json.loads((workdir / "state" / fname).read_text())
        assert data["states"]["services/ns"] == "STARTED"
        assert data["descriptor"] == fname[: -len(".json")]
        assert list(data) == ["descriptor", "fleet", "states"]
        assert any(n["id"] == "simnode-0" for n in data["fleet"]["nodes"])

    def test_crash_during_save_keeps_previous_state(self, workdir, capsys, monkeypatch):
        cfg = str(workdir / "mini.gdf")
        cli.main(["deploy", "-c", cfg])
        capsys.readouterr()

        encode = cli._encode

        def torn_encode(value):
            # The temporary file is open when the fleet fails to encode.
            if isinstance(value, dict) and "steps" in value:
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

    def test_transitions_rewrite_the_file(self, deployed, capsys):
        cfg, path = deployed
        before = path.read_bytes()
        assert cli.main(["undeploy", "-c", cfg]) == 0
        data = json.loads(path.read_bytes())
        assert path.read_bytes() != before
        assert set(data["states"].values()) == {"UNINSTALLED"}
        assert "journal" not in data

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

    def test_file_with_a_journal_still_works(self, deployed, capsys, monkeypatch):
        """A file in the older layout, which also saved the last command's
        journal between the fleet and the states, is decoded whole: a deploy
        resumes from it with 0 transitions, `status -c` lists the same
        states, and the undeploy leaves every SimNode pristine and saves
        the file without the journal."""
        cfg, path = deployed
        ids = [line.split()[0] for line in MINI_STATUS]
        lines = [f"2026-01-01T00:00:00.000+00:00 {cid} {act} ok 5.000" for cid in ids for act in ("Install", "Start")]
        text = path.read_text()
        at = text.index(',"states":{')
        path.write_text(f'{text[:at]},"journal":{json.dumps(lines, separators=(",", ":"))}{text[at:]}')
        assert list(json.loads(path.read_text())) == ["descriptor", "fleet", "journal", "states"]
        decoded = record_decodes(monkeypatch)
        assert cli.main(["deploy", "-c", cfg]) == 0
        assert "0 transition(s) performed" in capsys.readouterr().out
        assert [value for value in decoded if isinstance(value, dict) and "journal" in value]
        assert cli.main(["status", "-c", cfg]) == 0
        assert capsys.readouterr().out.splitlines() == MINI_STATUS
        assert cli.main(["undeploy", "-c", cfg]) == 0
        data = json.loads(path.read_text())
        assert list(data) == ["descriptor", "fleet", "states"]
        assert set(data["states"].values()) == {"UNINSTALLED"}
        nodes = data["fleet"]["nodes"]
        assert nodes and not any(nd["env"] or nd["files"] or nd["processes"] for nd in nodes)

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


# chain(2) deployed and saved in the layout without a step table.
INLINE_STATE = pathlib.Path(__file__).parent / "data" / "chain-2-inline-state.json"


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
        assert path.read_text(encoding="utf-8") == text

        path.write_text(json.dumps(json.loads(text), indent=1, sort_keys=True))
        whole = build_from_text(MINI)
        assert cli.load_state(whole.assembly, "edited", whole.ctx.fleet)
        assert whole.assembly.status() == deployment.assembly.status()
        assert whole.ctx.fleet.to_dict() == deployment.ctx.fleet.to_dict()

    @pytest.mark.parametrize("tail", ["}\n", ',"zz":{"states":{"b":"STOPPED"}}}'], ids=["newline", "later-key"])
    def test_other_text_is_decoded_whole(self, tail):
        head = '{"descriptor":"k","fleet":null,"states":{"a":"STARTED"}'
        assert cli._read_state(head + "}") == {"descriptor": "k", "fleet": None, "states": {"a": "STARTED"}}
        assert cli._read_state(head + tail) == json.loads(head + tail)

    def test_four_field_log_entries(self, workdir):
        """Fleets of older versions have no step table, and their log
        entries carry a fourth, empty field; every distinct step is built
        once and shared by the nodes that logged it."""
        deployment, _ = _saved_and_loaded(reserved(2, 2), "four")
        path = pathlib.Path(cli._state_path("four"))
        data = json.loads(path.read_text())
        table = data["fleet"].pop("steps")
        for node in data["fleet"]["nodes"]:
            node["log"] = [[*table[i], ""] for i in node["log"]]
        path.write_text(json.dumps(data, sort_keys=True, separators=(",", ":")))
        loaded = build_from_text(reserved(2, 2))
        assert cli.load_state(loaded.assembly, "four", loaded.ctx.fleet)
        assert loaded.ctx.fleet.to_dict() == deployment.ctx.fleet.to_dict()
        steps = [step for node in loaded.ctx.fleet.nodes.values() for step in node.log]
        assert len({id(step) for step in steps}) == len(set(steps)) < len(steps)

    def test_file_without_step_table(self, workdir, capsys):
        """A state file saved before the step table, each SimNode's log
        written out in full (chain(2) deployed), loads to the states and
        SimNodes a deploy gives.  The next save writes the table, and
        loading and saving that file again gives the same bytes of the
        fleet and the same states."""
        cfg = write_config(workdir, "chain.gdf", chain(2))
        deployed = build_from_text(chain(2))
        deployed.execute()
        key = cli._state_key(deployed.assembly)
        path = pathlib.Path(cli._state_path(key))
        path.parent.mkdir()
        path.write_bytes(INLINE_STATE.read_bytes())
        loaded = build_from_text(chain(2))
        assert cli.load_state(loaded.assembly, key, loaded.ctx.fleet)
        assert loaded.assembly.status() == deployed.assembly.status()
        assert loaded.ctx.fleet.to_dict() == deployed.ctx.fleet.to_dict()

        assert cli.main(["undeploy", "-c", cfg]) == 0
        saved = path.read_text(encoding="utf-8")
        fleet = json.loads(saved)["fleet"]
        inline = json.loads(INLINE_STATE.read_text())["fleet"]["nodes"]
        assert [nd["id"] for nd in fleet["nodes"]] == [nd["id"] for nd in inline]
        for before, after in zip(inline, fleet["nodes"]):
            assert [fleet["steps"][i] for i in after["log"][: len(before["log"])]] == before["log"]
            assert not (after["env"] or after["files"] or after["processes"])

        again = build_from_text(chain(2))
        assert cli.load_state(again.assembly, key, again.ctx.fleet)
        assert again.ctx.fleet.nodes
        cli.save_state(again, key)
        assert cli._read_state(path.read_text(encoding="utf-8")) == cli._read_state(saved)

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
        "fleet": fleet.to_dict() if fleet is not None and fleet.nodes else None,
    }
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


class TestStateWriter:
    """save_state writes, section by section, exactly the bytes of json.dumps."""

    @pytest.mark.parametrize("text", [MINI, reserved(6, 6)], ids=["mini", "reserved-6-6"])
    def test_deployed_fleet(self, workdir, text):
        deployment = build_from_text(text)
        deployment.execute()
        assert len(deployment.assembly.journal) > 0 and deployment.ctx.fleet.nodes
        path = pathlib.Path(cli.save_state(deployment, "deployed"))
        assert path.read_text(encoding="utf-8") == _reference_bytes(deployment, "deployed")

    def test_fields_the_benchmark_reads(self, workdir, capsys, monkeypatch):
        """After a deploy and after the undeploy that follows, each saved
        SimNode keeps its id, env, files and processes, and its log has one
        entry per step applied to it; the undeploy leaves every node empty."""
        cfg = write_config(workdir, "chain.gdf", chain(3))
        applied = collections.Counter()
        apply = SimNode.apply

        def counted(node, step):
            applied[node.id] += 1
            return apply(node, step)

        monkeypatch.setattr(SimNode, "apply", counted)
        for command in ("deploy", "undeploy"):
            assert cli.main([command, "-c", cfg]) == 0
            (fname,) = state_files(workdir)
            nodes = json.loads((workdir / "state" / fname).read_text())["fleet"]["nodes"]
            assert [sorted(nd) for nd in nodes] == [["env", "files", "id", "log", "processes"]] * 3
            assert {nd["id"]: len(nd["log"]) for nd in nodes} == dict(applied), command
        assert not any(nd["env"] or nd["files"] or nd["processes"] for nd in nodes)

    def test_sim_state_file_is_reproducible(self, tmp_path, monkeypatch, capsys):
        """Deploy then undeploy of reserved(6, 6), run twice, each time under
        a fresh HOME and state directory with the same seeds, write the same
        bytes after each command."""
        cfg = write_config(tmp_path, "reserved.gdf", reserved(6, 6))
        runs = []
        for run in (tmp_path / "first", tmp_path / "second"):
            (run / "home").mkdir(parents=True)
            monkeypatch.setenv("HOME", str(run / "home"))
            monkeypatch.setenv("GRIDFORGE_STATE_DIR", str(run / "state"))
            saved = []
            for command in ("deploy", "undeploy"):
                assert cli.main([command, "-c", cfg, "--seed", "7", "--jitter-seed", "3"]) == 0
                (path,) = (run / "state").glob("*.json")
                saved.append(path.read_bytes())
            runs.append(saved)
        assert runs[0] == runs[1]

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

    @pytest.mark.parametrize("command", ["plan", "deploy", "status"])
    @pytest.mark.parametrize("role, kind", [("protocol", "Telnet"), ("shell", "CSH"), ("shell", "WindowsCmd")])
    def test_unimplemented_protocol_or_shell_exits_2(self, workdir, capsys, command, role, kind):
        """Refused where the role is written, before any node is touched."""
        jre = "      jre = Jre(/opt/java/jre)\n"
        cfg = write_config(workdir, "standin.gdf", MINI.replace(jre, f"{jre}      {role} = {kind}\n"))
        assert cli.main([command, "-c", cfg]) == 2
        column = 7 + len(f"{role} = ")
        assert capsys.readouterr() == ("", f"7:{column}: unknown kind '{kind}' for {role}\n")
        assert state_files(workdir) == []

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

    @pytest.mark.parametrize("command", ["deploy", "undeploy", "plan", "status", "bench"])
    @pytest.mark.parametrize(
        "flag, value",
        [("--step-latency", "-50"), ("--connect-latency", "nan"), ("--step-latency", "inf"), ("--connect-latency", "-inf")],
    )
    def test_latency_below_0_or_not_finite_exits_2(self, workdir, capsys, command, flag, value):
        config = [] if command == "bench" else ["-c", str(workdir / "mini.gdf")]
        with pytest.raises(SystemExit) as exit_info:
            cli.main([command, *config, f"{flag}={value}"])
        assert exit_info.value.code == 2
        assert f"{flag}: must be a finite number of ms, at least 0, got {value}" in capsys.readouterr().err
        assert state_files(workdir) == []

    def test_zero_latency_is_accepted(self, workdir, capsys):
        cfg = str(workdir / "mini.gdf")
        assert cli.main(["deploy", "-c", cfg, "--step-latency", "0", "--connect-latency", "0"]) == 0
        assert "effective 0.0 ms" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["deploy", "undeploy"])
    def test_unwritable_metrics_path_exits_2_before_any_action(self, workdir, capsys, command):
        """One line of stderr names the path, and no action runs: the state
        file is as the command found it, and the next run does all the work."""
        cfg = str(workdir / "mini.gdf")
        if command == "undeploy":
            assert cli.main(["deploy", "-c", cfg]) == 0
            capsys.readouterr()
        before = {name: (workdir / "state" / name).read_bytes() for name in state_files(workdir)}
        metrics = workdir / "missing" / "m.csv"
        assert cli.main([command, "-c", cfg, "--metrics", str(metrics)]) == 2
        assert capsys.readouterr() == ("", f"cannot write {metrics}: No such file or directory\n")
        assert {name: (workdir / "state" / name).read_bytes() for name in state_files(workdir)} == before
        assert cli.main([command, "-c", cfg]) == 0
        assert "12 transition(s) performed" in capsys.readouterr().out

    def test_unwritable_emit_path_exits_2(self, workdir, capsys):
        """One line of stderr names the path, and nothing reaches stdout."""
        emit = workdir / "missing" / "e.txt"
        assert cli.main(["plan", "-c", str(workdir / "mini.gdf"), "--emit", str(emit)]) == 2
        assert capsys.readouterr() == ("", f"cannot write {emit}: No such file or directory\n")

    @pytest.mark.parametrize("command", ["deploy", "undeploy", "status"])
    @pytest.mark.parametrize(
        "under, reason",
        [("", "File exists"), ("sub", "Not a directory")],
        ids=["is-a-file", "under-a-file"],
    )
    def test_unusable_state_dir_exits_2(self, workdir, capsys, monkeypatch, command, under, reason):
        """A state directory that is a regular file, or lies under one, is
        refused by one line of stderr that names it, before any action
        runs or any state is read; the file is left as it was."""
        blocker = workdir / "blocker"
        blocker.write_text("not a directory\n")
        directory = blocker / under if under else blocker
        monkeypatch.setenv("GRIDFORGE_STATE_DIR", str(directory))
        assert cli.main([command, "-c", str(workdir / "mini.gdf")]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"cannot use state directory {directory}: {reason}\n")
        assert "Traceback" not in err
        assert blocker.read_text() == "not a directory\n"

    @pytest.mark.parametrize("under", ["", "sub"], ids=["is-a-file", "under-a-file"])
    def test_plan_and_status_listing_ignore_an_unusable_state_dir(self, workdir, capsys, monkeypatch, under):
        """`plan` reads no state, and `status` without -c lists no deployment
        from a state directory that is not one."""
        blocker = workdir / "blocker"
        blocker.write_text("not a directory\n")
        monkeypatch.setenv("GRIDFORGE_STATE_DIR", str(blocker / under if under else blocker))
        assert cli.main(["plan", "-c", str(workdir / "mini.gdf")]) == 0
        assert cli.main(["status"]) == 0
        out, err = capsys.readouterr()
        assert out.endswith("no recorded deployments\n") and err == ""
        assert blocker.read_text() == "not a directory\n"


# Three nodes and nothing else: no role runs a script, so a deploy through
# any transport sends nothing.
NODES_ONLY = """
app = OpenCCM.Deployment {
  nodes = {
    apply FOR(i,0,2) {
      node-%{i} = Grid5000_NODE {
        hostname = StaticHost(localhost)
      }
    }
  }
}
"""


class TestLocalTransport:
    @pytest.mark.parametrize("workers", ["1", "4"])
    def test_nodes_only_deploy_and_undeploy(self, workdir, capsys, monkeypatch, workers):
        """The node stage runs on a pool of `workers` threads, under the wall
        clock; every component goes up, then down again."""
        calls = []
        monkeypatch.setattr(LocalTransport, "send", lambda self, *a: calls.append(a) or (0, ""))
        monkeypatch.setattr(LocalTransport, "exists", lambda self, *a: calls.append(a) or False)
        cfg = write_config(workdir, "nodes.gdf", NODES_ONLY)
        run = ["-c", cfg, "--transport", "local", "--max-workers", workers]
        for command, verb, state in (("deploy", "deploy", "STARTED"), ("undeploy", "undeploy", "UNINSTALLED")):
            assert cli.main([command, *run]) == 0
            assert capsys.readouterr().out.startswith(f"{verb} complete: 3 action(s), 24 transition(s) performed")
            assert cli.main(["status", "-c", cfg]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert len(lines) == 12 and all(line.endswith(f" {state}") for line in lines)
        assert calls == []
        assert len(state_files(workdir)) == 1


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

    def test_unwritable_out_path_exits_2(self, workdir, capsys, monkeypatch):
        """Refused before anything is measured."""
        from gridforge import bench

        monkeypatch.setattr(bench, "measure_scaling", lambda sizes, **_: pytest.fail("measured"))
        out_path = workdir / "missing" / "scaling.csv"
        assert cli.main(["bench", "--sizes", "10:10:1", "--out", str(out_path)]) == 2
        assert capsys.readouterr().err == f"cannot write {out_path}: No such file or directory\n"

    def test_stdout_output(self, workdir, capsys):
        assert cli.main(["bench", "--sizes", "10:10:1"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("n_nodes,overhead_ms,effective_ms\n10,")
