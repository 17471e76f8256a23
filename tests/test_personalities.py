"""Software personalities: scripted lifecycles, reservations, the registry."""

from importlib import resources as importlib_resources

import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

from configs import MINI, chain, reserved
from gridforge import cli, personalities
from gridforge.core import Component, LifecycleState
from gridforge.errors import ConfigError, StageFailed, UnboundPort
from gridforge.personalities import (
    Registry,
    ScriptBehavior,
    default_registry,
    load_personality_file,
    parse_resource_request,
)
from gridforge.pipeline import build_from_text
from gridforge.stdlib import BUILTIN_KINDS
from gridforge.steps import parse_sh_line, render_sh_line, set_var, start_process, stop_process
from conftest import seed_nodelist

PAPER_KINDS = [
    "OpenCCM.Deployment",
    "DynamicHost",
    "StaticHost",
    "Grid5000_NODE",
    "SSH",
    "SH",
    "Port",
    "User",
    "Jre",
    "OpenCCM",
    "OpenCCM.NameService",
    "OpenCCM.DCIManager",
    "OpenCCM.DCI_NODE",
    "ParallelRunner",
    "OARGrid",
]


class TestRegistry:
    @pytest.mark.parametrize("kind", PAPER_KINDS)
    def test_every_deployment_kind_registered(self, registry, kind):
        assert registry.get(kind) is not None

    def test_kadeploy_actions_send_nothing(self, registry):
        """Kadeploy declares no scripts, so an install builds no payload and
        runs without the context a send would need."""
        behavior = registry.get("Kadeploy").factory()
        component = Component(id="k", kind="Kadeploy", behavior=behavior, args={"image": ""})
        assert behavior.scripts.build("install", component.args) == (None, None)
        behavior.install(component, None)

    def test_extra_dir_kinds_load(self, tmp_path):
        (tmp_path / "custom.yaml").write_text(
            "kinds:\n"
            "  - kind: Banner\n"
            "    provides: [Banner]\n"
            "    ports:\n"
            "      - {name: shell, interface: Shell, required: true}\n"
            "    params:\n"
            "      - {name: text, type: str, required: true}\n"
            "    scripts:\n"
            "      start:\n"
            "        steps:\n"
            "          - [SetVar, BANNER, \"${text}\"]\n"
        )
        registry = default_registry(extra_dirs=[str(tmp_path)])
        assert registry.get("Banner") is not None
        deployment = build_from_text(
            "app = OpenCCM.Deployment {\n"
            "  nodes = {\n"
            "    node-0 = Grid5000_NODE {\n"
            "      hostname = StaticHost(simnode-0)\n"
            "      motd = Banner(welcome)\n"
            "    }\n"
            "  }\n"
            "  services = {\n"
            "  }\n"
            "}\n",
            registry=registry,
        )
        deployment.execute()
        assert deployment.ctx.fleet.nodes["simnode-0"].env["BANNER"] == "welcome"

    def test_unknown_param_type_rejected(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            "kinds:\n"
            "  - kind: Broken\n"
            "    params:\n"
            "      - {name: x, type: float}\n"
        )
        with pytest.raises(ConfigError):
            load_personality_file(str(bad))

    def test_registry_lookup(self):
        registry = Registry()
        assert registry.get("Nope") is None
        spec = BUILTIN_KINDS[0]
        registry.add(spec)
        assert registry.get(spec.name) is spec


class TestMalformedPersonalityFiles:
    """A broken file in an extra directory is a ConfigError naming it."""

    def _load(self, tmp_path, text):
        (tmp_path / "broken.yaml").write_text(text)
        with pytest.raises(ConfigError) as info:
            default_registry([str(tmp_path)])
        assert "broken.yaml" in str(info.value)
        return str(info.value)

    @pytest.mark.parametrize("text", ["", "- just\n- a list\n"])
    def test_empty_or_non_mapping_document(self, tmp_path, text):
        assert "expected a mapping" in self._load(tmp_path, text)

    def test_unknown_behavior(self, tmp_path):
        message = self._load(tmp_path, "kinds:\n  - kind: Wizard\n    behavior: magic\n")
        assert "Wizard: unknown behavior 'magic'" in message

    @pytest.mark.parametrize(
        "text, field",
        [
            ("kinds:\n  - provides: [X]\n", "'kind'"),
            ("kinds:\n  - kind: P\n    ports:\n      - {interface: Shell}\n", "'name'"),
        ],
    )
    def test_missing_field(self, tmp_path, text, field):
        assert f"missing field {field}" in self._load(tmp_path, text)

    def test_yaml_syntax_error(self, tmp_path):
        assert "malformed YAML" in self._load(tmp_path, "kinds: [unclosed\n")

    @pytest.mark.parametrize(
        "text, complaint",
        [
            ("kinds: abc\n", "'kinds' must be a list"),
            ("kinds:\n  - kind: P\n    ports: 5\n", "P: 'ports' must be a list"),
            ("kinds:\n  - kind: P\n    ports: [5]\n", "P: 'ports' must be a list of mappings"),
            ("kinds:\n  - kind: P\n    params: x\n", "P: 'params' must be a list"),
            ("kinds:\n  - kind: P\n    provides: 5\n", "P: 'provides' must be a list"),
            ("kinds:\n  - kind: P\n    defaults: 5\n", "P: 'defaults' must be a mapping"),
            ("kinds:\n  - kind: P\n    scripts: [install]\n", "P: 'scripts' must be a mapping"),
        ],
        ids=["kinds-str", "ports-int", "port-row-int", "params-str", "provides-int", "defaults-int", "scripts-list"],
    )
    def test_wrongly_typed_field(self, tmp_path, text, complaint):
        assert complaint in self._load(tmp_path, text)

    @pytest.mark.parametrize(
        "script, action, placeholder",
        [
            ("start:\n        steps:\n          - [StartProcess, NS, \"${lanch}\"]\n", "start", "${lanch}"),
            ("install:\n        unless_exists: \"${root}\"\n        steps: []\n", "install", "${root}"),
        ],
        ids=["cell", "guard"],
    )
    def test_undeclared_placeholder_refused_at_load(self, tmp_path, script, action, placeholder):
        text = (
            "kinds:\n"
            "  - kind: Typo\n"
            "    params:\n"
            "      - {name: launch, type: str, required: false, default: ns_start}\n"
            "    scripts:\n"
            "      " + script
        )
        message = self._load(tmp_path, text)
        assert f"Typo: action '{action}' uses undeclared {placeholder}" in message

    @pytest.mark.parametrize(
        "row, complaint",
        [
            ('[Sleep, "5"]', "unknown step ['Sleep', '5']"),
            ("[Fetch, x]", "Fetch takes 2..2 cells, got 1"),
        ],
        ids=["unknown-kind", "short-row"],
    )
    def test_malformed_step_row_refused_at_load(self, tmp_path, row, complaint):
        text = "kinds:\n  - kind: Slow\n    scripts:\n      start:\n        steps:\n          - " + row + "\n"
        assert f"Slow: action 'start': {complaint}" in self._load(tmp_path, text)

    def test_script_not_a_mapping(self, tmp_path):
        assert "script 'start' must be a mapping" in self._load(
            tmp_path, "kinds:\n  - kind: P\n    scripts:\n      start: [SetVar, A, B]\n"
        )


def _bundled_files():
    data = importlib_resources.files("gridforge") / "data"
    return sorted((e for e in data.iterdir() if e.name.endswith(".yaml")), key=lambda e: e.name)


class TestYamlLoader:
    """libyaml's loader, where PyYAML has it, reads what SafeLoader reads."""

    @pytest.mark.parametrize("entry", _bundled_files(), ids=lambda e: e.name)
    def test_bundled_file_same_document(self, entry):
        text = entry.read_text(encoding="utf-8")
        assert yaml.load(text, Loader=personalities._YAML_LOADER) == yaml.load(text, Loader=yaml.SafeLoader)

    def test_registry_same_with_pure_python_loader(self, monkeypatch):
        fast = default_registry()
        monkeypatch.setattr(personalities, "_YAML_LOADER", yaml.SafeLoader)
        slow = default_registry()
        assert list(fast.kinds) == list(slow.kinds)
        builtin = {spec.name for spec in BUILTIN_KINDS}
        for name in fast.kinds.keys() - builtin:
            a, b = fast.get(name), slow.get(name)
            assert (a.provides, a.ports, a.params, a.defaults) == (b.provides, b.ports, b.params, b.defaults)
            assert (a.composite, a.group, a.root) == (b.composite, b.group, b.root)
            behavior_a, behavior_b = a.factory(), b.factory()
            assert type(behavior_a) is type(behavior_b)
            assert getattr(behavior_a, "scripts", None) == getattr(behavior_b, "scripts", None)


class TestScriptBehavior:
    def test_script_without_context_refuses(self):
        behavior = ScriptBehavior({"start": {"steps": [["SetVar", "A", "1"]]}})
        component = Component(id="k", kind="K")
        with pytest.raises(UnboundPort):
            behavior.start(component, None)

    def test_unknown_placeholder_rejected(self):
        behavior = ScriptBehavior({"start": {"steps": [["SetVar", "A", "${missing}"]]}})
        with pytest.raises(ConfigError):
            behavior.scripts.build("start", {})

    def test_actions_without_scripts_are_noops(self):
        behavior = ScriptBehavior({})
        behavior.install(Component(id="k", kind="K"), None)  # empty script list, context unused


def _sent(deployment) -> list:
    """(hostname, payload) of every send the deployment's transport makes."""
    sent = []
    send = deployment.ctx.transport.send

    def recording(access, payload):
        sent.append((access.hostname, payload))
        return send(access, payload)

    deployment.ctx.transport.send = recording
    return sent


class TestCompiledScripts:
    """A payload is built once per (kind, action, argument values) and registry."""

    def test_equal_args_send_the_same_payload(self):
        deployment = build_from_text(chain(3))
        sent = _sent(deployment)
        deployment.execute()
        jre_installs = {host: p for host, p in sent if any(s.b.endswith("/jre.tar.gz") for s in p.steps)}
        assert sorted(jre_installs) == ["simnode-0", "simnode-1", "simnode-2"]
        assert jre_installs["simnode-1"] is jre_installs["simnode-0"]
        assert jre_installs["simnode-2"] is jre_installs["simnode-0"]

    def test_different_args_get_their_own_payloads(self):
        deployment = build_from_text(chain(3))
        sent = _sent(deployment)
        deployment.execute()
        servers = {host: p for host, p in sent if p.steps and p.steps[0].a.startswith("NM_")}
        assert servers["simnode-1"].steps == (start_process("NM_1", "component_server_start NM_1"),)
        assert servers["simnode-2"].steps == (start_process("NM_2", "component_server_start NM_2"),)
        assert servers["simnode-1"].digest != servers["simnode-2"].digest

    def test_fresh_registry_fresh_memo(self):
        args = {"install_root": "/opt/java/jre", "archive_url": "http://mirror.invalid/jre.tar.gz"}
        registry = default_registry()
        first = registry.get("Jre").factory()
        again = registry.get("Jre").factory()
        fresh = default_registry().get("Jre").factory()
        payload, guard = first.scripts.build("install", dict(args))
        assert first.scripts is again.scripts
        assert again.scripts.build("install", dict(args)) == (payload, guard)
        assert again.scripts.build("install", dict(args))[0] is payload
        assert fresh.scripts is not first.scripts
        fresh_payload, fresh_guard = fresh.scripts.build("install", dict(args))
        assert fresh_payload == payload and fresh_payload is not payload
        assert fresh_guard == guard == "/opt/java/jre"

    def test_missing_parameter_raises_at_action_time_and_is_not_memoised(self):
        scripts = {"start": {"steps": [["SetVar", "A", "${x}"]]}}
        broken = ScriptBehavior(scripts)
        with pytest.raises(ConfigError, match=r"\$\{x\} has no parameter"):
            broken.scripts.build("start", {})
        assert broken.scripts._built == {}
        whole = ScriptBehavior(broken.scripts)
        assert whole.scripts is broken.scripts
        payload, guard = whole.scripts.build("start", {"x": 1})
        assert (list(payload.steps), guard) == ([set_var("A", "1")], None)


# A component server on a node of its own, whose process name is `{name}`.
SERVER_ALONE = """
app = OpenCCM.Deployment {{
  nodes = {{
    node-0 = Grid5000_NODE {{
      hostname = StaticHost(simnode-0)
    }}
    node-1 = Grid5000_NODE {{
      hostname = StaticHost(simnode-1)
    }}
  }}
  services = {{
    ns = OpenCCM.NameService {{
      node = nodes/node-0
    }}
    dci = OpenCCM.DCIManager(MyDCI) {{
      ns = services/ns
      node = nodes/node-0
    }}
    server = OpenCCM.DCI_NODE({name}) {{
      dci = services/dci
      node = nodes/node-1
    }}
  }}
}}
"""


class TestProcessNames:
    """A process name goes unquoted into the pid file path of the sh
    rendering, so one outside [A-Za-z0-9_.-] is refused before it is sent."""

    @pytest.mark.parametrize("name", ["a;b", "a b", "$(reboot)", "x/y"])
    def test_unsafe_name_refused_before_anything_is_sent(self, sim_home, monkeypatch, name):
        deployment = build_from_text(SERVER_ALONE.format(name=name))
        with pytest.raises(StageFailed) as err:
            deployment.execute()
        assert f"process name {name!r}" in str(err.value)
        assert "simnode-0" in deployment.ctx.fleet.nodes  # ns and dci ran
        assert "simnode-1" not in deployment.ctx.fleet.nodes
        monkeypatch.setenv("GRIDFORGE_STATE_DIR", str(sim_home / "state"))
        config = sim_home / "server.gdf"
        config.write_text(SERVER_ALONE.format(name=name))
        assert cli.main(["deploy", "-c", str(config)]) == 3

    @given(st.one_of(st.from_regex(r"[A-Za-z0-9_.\-]+", fullmatch=True), st.text(min_size=1)))
    def test_a_name_is_accepted_exactly_when_it_round_trips(self, name):
        scripts = personalities.Scripts(
            {"start": {"steps": [["StartProcess", "${name}", "serve"]]}, "stop": {"steps": [["StopProcess", "${name}"]]}}
        )
        for action, step in (("start", start_process(name, "serve")), ("stop", stop_process(name))):
            try:
                payload, _ = scripts.build(action, {"name": name})
            except ConfigError:
                assert parse_sh_line(render_sh_line(step)) != step, name
            else:
                assert payload.steps == (step,)
                assert parse_sh_line(render_sh_line(step)) == step, name


class TestMiddlewareStack:
    def test_deploy_publishes_env_files_processes(self):
        deployment = build_from_text(chain(1))
        deployment.execute()
        node = deployment.ctx.fleet.nodes["simnode-0"]
        assert node.env["JAVA_HOME"] == "/opt/java/jre"
        assert node.env["OPENCCM_HOME"] == "/opt/openccm"
        assert node.env["ORB_HOME"] == "/opt/orb"
        assert node.env["PATH"] == "/opt/java/jre/bin:/opt/openccm/bin"
        assert node.exists("/opt/java/jre")
        assert node.exists("/opt/openccm")
        assert node.processes == {"NS"}

    def test_undeploy_restores_pristine_node(self):
        deployment = build_from_text(chain(1))
        before = deployment.ctx.fleet.get_or_create("simnode-0").observable()
        deployment.execute()
        deployment.execute_inverse()
        assert deployment.ctx.fleet.nodes["simnode-0"].observable() == before

    def test_install_skipped_when_already_present(self):
        deployment = build_from_text(MINI)
        node = deployment.ctx.fleet.get_or_create("simnode-0")
        node.files.add("/opt/java/jre")  # pre-provisioned image
        deployment.execute()
        assert "/opt/java/jre/jre.tar.gz" not in node.files  # fetch skipped
        assert node.env["JAVA_HOME"] == "/opt/java/jre"  # start still ran

    def test_manager_and_servers_run_where_bound(self):
        deployment = build_from_text(chain(3))
        deployment.execute()
        fleet = deployment.ctx.fleet
        assert fleet.nodes["simnode-0"].processes == {"NS", "BenchDCI"}
        assert fleet.nodes["simnode-1"].processes == {"NM_1"}
        assert fleet.nodes["simnode-2"].processes == {"NM_2"}


class TestReservation:
    def test_start_publishes_nodelist(self, sim_home):
        deployment = build_from_text(reserved(3, granted=3))
        deployment.execute()
        lines = (sim_home / "nodelist").read_text().splitlines()
        assert lines == ["simnode-0", "simnode-1", "simnode-2"]

    def test_stop_truncates_nodelist(self, sim_home):
        deployment = build_from_text(reserved(3, granted=3))
        deployment.execute()
        deployment.execute_inverse()
        assert (sim_home / "nodelist").read_text() == ""

    def test_oversubscription_fails_at_the_extra_node(self, sim_home):
        deployment = build_from_text(reserved(3, granted=2))
        with pytest.raises(StageFailed) as err:
            deployment.execute()
        assert "node index 2" in str(err.value)
        states = deployment.assembly.status()
        # the reserved nodes deployed, the extra one could not
        assert states["nodes/node-2/jre"] == LifecycleState.UNINSTALLED

    def test_empty_grant_refused(self, sim_home):
        deployment = build_from_text(reserved(2, granted=0))
        with pytest.raises(StageFailed) as err:
            deployment.execute()
        assert "allocates no nodes" in str(err.value)

    def test_resource_request_parsing(self):
        sites = parse_resource_request("gdx=300|azur=100|grillon=50|lille=50")
        assert sites == [("gdx", 300), ("azur", 100), ("grillon", 50), ("lille", 50)]
        assert sum(count for _, count in sites) == 500

    @pytest.mark.parametrize("text", ["", "gdx", "gdx=", "=3", "gdx=3|", "gdx=three"])
    def test_malformed_requests_rejected(self, text):
        with pytest.raises(ConfigError):
            parse_resource_request(text)


class TestDynamicNodes:
    def test_nodes_resolve_through_published_list(self, sim_home, paper_config, reservation_config):
        """Reservation output feeds hostname resolution: after deploy the
        fleet holds exactly the granted nodes plus the frontend."""
        deployment = build_from_text(reserved(4, granted=4))
        deployment.execute()
        fleet = deployment.ctx.fleet
        assert sorted(fleet.nodes) == [
            "frontend.example",
            "simnode-0",
            "simnode-1",
            "simnode-2",
            "simnode-3",
        ]

    def test_preseeded_nodelist_works_without_reservation(self, sim_home, paper_config):
        seed_nodelist(sim_home, 2)
        deployment = build_from_text(
            "app = OpenCCM.Deployment {\n"
            "  nodes = {\n"
            "    hostname = DynamicHost(~/nodelist)\n"
            "    apply FOR(i,0,1) {\n"
            "      node-%{i} = Grid5000_NODE {\n"
            "        hostname = nodes/hostname\n"
            "        jre = Jre(/opt/java/jre)\n"
            "      }\n"
            "    }\n"
            "  }\n"
            "  services = {\n"
            "  }\n"
            "}\n"
        )
        deployment.execute()
        assert deployment.ctx.fleet.nodes["simnode-1"].env["JAVA_HOME"] == "/opt/java/jre"
