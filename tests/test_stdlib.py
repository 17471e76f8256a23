"""Infrastructure kinds: hostname resolution, access, shells, transports."""

import hashlib
import shlex
import shutil
import subprocess

import pytest

from gridforge.core import Assembly, Behavior, Binding, Component, Composite, PortSpec
from gridforge.errors import IndexOutOfRange, NodeListMissing, RemoteError
from gridforge.personalities import ScriptBehavior, default_registry
from gridforge.pipeline import DeployContext
from gridforge.simgrid import Fleet, VirtualClock
from gridforge.steps import exec_cmd, fetch, set_var
from gridforge.stdlib import (
    BUILTIN_KINDS,
    DynamicHostBehavior,
    PortBehavior,
    StaticHostBehavior,
    UserBehavior,
    node_ordinal,
    resolve_access,
    shell_access,
)
from gridforge.transports import LocalTransport, NodeAccess, Payload, SimTransport, SshTransport


def component(kind, **args):
    return Component(id=kind.lower(), kind=kind, args=args)


class TestHostnameProviders:
    def test_static_ignores_ordinal(self):
        host = component("StaticHost", value="oar.lille.example")
        assert StaticHostBehavior().get(host, 0) == "oar.lille.example"
        assert StaticHostBehavior().get(host, 400) == "oar.lille.example"

    def test_dynamic_indexes_nodelist(self, tmp_path):
        path = tmp_path / "nodelist"
        path.write_text("alpha\nbeta\n\ngamma\n")
        behavior, host = DynamicHostBehavior(), component("DynamicHost", path=str(path))
        assert behavior.get(host, 0) == "alpha"
        assert behavior.get(host, 2) == "gamma"  # blank lines skipped

    def test_dynamic_missing_file(self, tmp_path):
        host = component("DynamicHost", path=str(tmp_path / "nope"))
        with pytest.raises(NodeListMissing):
            DynamicHostBehavior().get(host, 0)

    def test_dynamic_index_out_of_range(self, tmp_path):
        path = tmp_path / "nodelist"
        path.write_text("only\n")
        host = component("DynamicHost", path=str(path))
        with pytest.raises(IndexOutOfRange):
            DynamicHostBehavior().get(host, 1)

    def test_dynamic_reads_once(self, tmp_path):
        """The allocation is a snapshot; later file edits do not move nodes."""
        path = tmp_path / "nodelist"
        path.write_text("first\n")
        behavior, host = DynamicHostBehavior(), component("DynamicHost", path=str(path))
        assert behavior.get(host, 0) == "first"
        path.write_text("changed\n")
        assert behavior.get(host, 0) == "first"

    def test_dynamic_expands_home(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path))
        (tmp_path / "nodelist").write_text("home-node\n")
        assert DynamicHostBehavior().get(component("DynamicHost", path="~/nodelist"), 0) == "home-node"


def node_stack(ordinal=None, with_port=None, with_user=None):
    """Hand-built hostname/protocol/shell triple, optionally inside a composite."""
    asm = Assembly()
    owner = "n" if ordinal is not None else None
    proto_ports = (
        PortSpec("hostname", "Hostname"),
        PortSpec("port", "Port", required=False),
        PortSpec("user", "User", required=False),
    )
    stack = [
        Component(
            id="host", kind="StaticHost", provides=frozenset({"Hostname"}),
            args={"value": "simnode-0"}, behavior=StaticHostBehavior(),
        ),
        Component(id="proto", kind="SSH", provides=frozenset({"Protocol"}), ports=proto_ports, owner=owner),
        Component(id="sh", kind="SH", provides=frozenset({"Shell"}), ports=(PortSpec("protocol", "Protocol"),), owner=owner),
    ]
    bindings = [Binding("proto", "hostname", "host", "Hostname"), Binding("sh", "protocol", "proto", "Protocol")]
    if with_port is not None:
        stack.append(
            Component(id="p", kind="Port", provides=frozenset({"Port"}), args={"value": with_port}, behavior=PortBehavior())
        )
        bindings.append(Binding("proto", "port", "p", "Port"))
    if with_user is not None:
        stack.append(Component(id="u", kind="User", provides=frozenset({"User"}), args=with_user, behavior=UserBehavior()))
        bindings.append(Binding("proto", "user", "u", "User"))
    for comp in stack:
        asm.components[comp.id] = comp
    for binding in bindings:
        asm.add_binding(binding)
    if ordinal is not None:
        asm.composites["n"] = Composite(id="n", kind="Node", children={"proto": "proto", "sh": "sh"}, ordinal=ordinal)
    return asm


class TestAccessResolution:
    def test_defaults(self):
        asm = node_stack()
        access = resolve_access(asm, asm.components["proto"])
        assert access == NodeAccess(hostname="simnode-0", port=22, user="", identity="")
        assert access.target == "simnode-0"

    def test_explicit_port_and_user(self):
        asm = node_stack(with_port=2222, with_user={"login": "aflissi", "credential": "~/.ssh/id_rsa.pub"})
        access = resolve_access(asm, asm.components["proto"])
        assert access.port == 2222
        assert access.user == "aflissi"
        assert access.identity == "~/.ssh/id_rsa.pub"
        assert access.target == "aflissi@simnode-0"

    def test_password_credentials_are_not_identity_files(self):
        user = component("User", login="u", credential="hunter2")
        assert UserBehavior().key_path(user) == ""

    def test_ordinal_comes_from_owning_composite(self):
        asm = node_stack(ordinal=7)
        assert node_ordinal(asm, asm.components["proto"]) == 7
        assert node_ordinal(asm, asm.components["host"]) == 0  # unowned


def sim_ctx(asm, fleet=None, config=None):
    fleet = fleet if fleet is not None else Fleet()
    clock = VirtualClock()
    return DeployContext(asm, SimTransport(fleet, clock, config), clock, fleet)


def scripted(asm, *rows):
    """A component bound to the stack's shell whose start runs `rows`."""
    app = asm.components["app"] = Component(
        id="app", kind="App", ports=(PortSpec("shell", "Shell"),),
        behavior=ScriptBehavior({"start": {"steps": [list(row) for row in rows]}}),
    )
    asm.add_binding(Binding("app", "shell", "sh", "Shell"))
    return app


class TestShellExecution:
    def test_steps_reach_the_right_node(self):
        asm = node_stack()
        app, ctx = scripted(asm, ["SetVar", "A", "1"]), sim_ctx(asm)
        app.behavior.start(app, ctx)
        assert ctx.fleet.nodes["simnode-0"].env == {"A": "1"}

    def test_empty_steps_skip_the_transport(self):
        asm = node_stack()
        app = scripted(asm)
        ctx = DeployContext(asm, None, VirtualClock())  # would explode if used
        app.behavior.start(app, ctx)
        assert ctx.access == {}

    def test_nonzero_exit_raises_remote_error(self):
        asm = node_stack()
        app, ctx = scripted(asm, ["Exec", "exit 3"]), sim_ctx(asm)
        with pytest.raises(RemoteError) as err:
            app.behavior.start(app, ctx)
        assert err.value.status == 3

    def test_latency_charged_per_connect_and_step(self):
        asm = node_stack()
        app, ctx = scripted(asm, ["SetVar", "A", "1"], ["SetVar", "B", "2"]), sim_ctx(asm)
        app.behavior.start(app, ctx)
        assert ctx.clock.now_ms() == 5.0 + 2 * 10.0

    def test_access_is_resolved_once_per_shell_per_run(self, tmp_path):
        """A failure is not kept: a nodelist missing at first is read once
        the reservation has written it, and then kept for the run."""
        asm = node_stack()
        host = asm.components["host"]
        host.behavior, host.args = DynamicHostBehavior(), {"path": str(tmp_path / "nodelist")}
        ctx, shell = sim_ctx(asm), asm.components["sh"]
        for _ in range(2):
            with pytest.raises(NodeListMissing):
                shell_access(ctx, shell)
        (tmp_path / "nodelist").write_text("alpha\n")
        access = shell_access(ctx, shell)
        assert access == NodeAccess("alpha")
        assert shell_access(ctx, shell) is access
        assert ctx.access == {"sh": access}
        assert shell_access(sim_ctx(asm), shell) is not access

    def test_exists_charges_a_probe(self):
        asm = node_stack()
        ctx = sim_ctx(asm)
        access = NodeAccess(hostname="simnode-0")
        assert not ctx.transport.exists(access, "/opt/java")
        assert ctx.clock.now_ms() == 5.0


class TestVariables:
    """`Variable` is a script kind of the bundled personalities."""

    def wire(self, **args):
        spec = default_registry().get("Variable")
        asm = node_stack()
        var = asm.components["var"] = Component(
            id="var", kind=spec.name, provides=spec.provides, ports=spec.ports,
            args=args, behavior=spec.factory(),
        )
        asm.add_binding(Binding("var", "shell", "sh", "Shell"))
        return var, sim_ctx(asm)

    def test_variable_sets_then_clears(self):
        var, ctx = self.wire(name="MODE", value="grid")
        var.behavior.start(var, ctx)
        assert ctx.fleet.nodes["simnode-0"].env == {"MODE": "grid"}
        var.behavior.stop(var, ctx)
        assert ctx.fleet.nodes["simnode-0"].env == {}

    @pytest.mark.parametrize(
        "action, value, step",
        [("start", "grid", set_var("MODE", "grid")), ("start", "", set_var("MODE", "")), ("stop", "grid", set_var("MODE", ""))],
    )
    def test_payload_is_one_set_var(self, action, value, step):
        """The very payload, hence digest and jitter keys, of one SetVar step."""
        var, _ = self.wire(name="MODE", value=value)
        payload, guard = var.behavior.scripts.build(action, var.args)
        assert (payload, guard) == (Payload.of([step]), None)
        assert payload.digest == Payload.of([step]).digest

    def test_install_and_uninstall_send_nothing(self):
        var, ctx = self.wire(name="MODE", value="grid")
        var.behavior.install(var, ctx)
        var.behavior.uninstall(var, ctx)
        assert ctx.clock.now_ms() == 0.0 and ctx.access == {}


class TestLocalTransport:
    def test_runs_real_shell(self):
        transport = LocalTransport()
        status, out = transport.send(
            NodeAccess("localhost"), Payload.of([set_var("GREETING", "hi"), exec_cmd("echo $GREETING")])
        )
        assert status == 0
        assert out.strip() == "hi"

    def test_empty_payload(self):
        assert LocalTransport().send(NodeAccess("localhost"), Payload.of([])) == (0, "")

    def test_exists(self, tmp_path):
        target = tmp_path / "marker"
        target.write_text("x")
        transport = LocalTransport()
        assert transport.exists(NodeAccess("localhost"), str(target))
        assert not transport.exists(NodeAccess("localhost"), str(tmp_path / "nope"))

    @pytest.mark.skipif(shutil.which("curl") is None, reason="curl not installed")
    def test_fetch_preserves_bytes(self, tmp_path):
        source = tmp_path / "src.bin"
        source.write_bytes(bytes(range(256)) * 64)
        dest = tmp_path / "sub" / "dest.bin"
        status, _ = LocalTransport().send(
            NodeAccess("localhost"), Payload.of([fetch(f"file://{source}", str(dest))])
        )
        assert status == 0
        assert hashlib.sha256(dest.read_bytes()).digest() == hashlib.sha256(source.read_bytes()).digest()


class TestSshCommand:
    def test_default_port_omits_flag(self):
        argv = SshTransport().command(NodeAccess("h.example"), "true")
        assert argv[0] == "ssh"
        assert "-p" not in argv
        assert argv[-2:] == ["h.example", "true"]
        assert "BatchMode=yes" in " ".join(argv)

    def test_custom_port_user_identity(self):
        access = NodeAccess("h.example", port=2200, user="aflissi", identity="~/.ssh/id_rsa.pub")
        argv = SshTransport(connect_timeout=3).command(access, "true")
        assert "-p" in argv and "2200" in argv
        assert "-i" in argv
        assert "aflissi@h.example" in argv
        assert "ConnectTimeout=3" in " ".join(argv)

    def test_exists_quotes_the_path(self, monkeypatch):
        sent = []

        def fake_run(argv, **kwargs):
            sent.append(argv)
            return subprocess.CompletedProcess(argv, 1, "", "")

        monkeypatch.setattr(subprocess, "run", fake_run)
        path = "/opt/my dir;touch /tmp/pwned"
        assert SshTransport().exists(NodeAccess("h.example"), path) is False
        (argv,) = sent
        assert argv[0] == "ssh"
        assert argv[-1] == "set -e\ntest -e '/opt/my dir;touch /tmp/pwned'"
        assert shlex.split(argv[-1].split("\n", 1)[1]) == ["test", "-e", path]


class TestRegistryBuiltins:
    def test_no_stand_in_kinds(self):
        """Unimplemented protocols and shells are not registered at all."""
        registry = default_registry()
        assert not {"Telnet", "CSH", "WindowsCmd"} & set(registry.kinds)

    def test_builtin_names(self):
        names = {k.name for k in BUILTIN_KINDS}
        assert names == {"StaticHost", "DynamicHost", "Port", "User", "SSH", "SH", "FileTransfer", "NodeReady"}
        assert "Variable" in default_registry().kinds

    @pytest.mark.parametrize("kind", ["SSH", "SH", "FileTransfer", "NodeReady"])
    def test_transport_kinds_run_the_base_behavior(self, kind):
        """Their mechanism is the transport: every action is a no-op."""
        (spec,) = [k for k in BUILTIN_KINDS if k.name == kind]
        assert type(spec.factory()) is Behavior

    def test_payload_digest_tracks_script(self):
        a = Payload.of([set_var("A", "1")])
        b = Payload.of([set_var("A", "2")])
        assert a.digest != b.digest
        assert a.digest == Payload.of([set_var("A", "1")]).digest
