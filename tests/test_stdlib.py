"""Infrastructure kinds: hostname resolution, access, shells, transports."""

import hashlib
import shlex
import shutil
import subprocess

import pytest

from gridforge.core import Assembly, Behavior, Component, Composite, PortSpec
from gridforge.errors import ConnectFailed, IndexOutOfRange, NodeListMissing, RemoteError
from gridforge.pipeline import DeployContext
from gridforge.simgrid import Fleet, VirtualClock
from gridforge.steps import exec_cmd, fetch, set_var
from gridforge.stdlib import (
    BUILTIN_KINDS,
    DynamicHostBehavior,
    PortBehavior,
    ReservedBehavior,
    StaticHostBehavior,
    UserBehavior,
    VariableBehavior,
    node_ordinal,
    resolve_access,
    shell_access,
    shell_execute,
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
    asm.add(
        Component(
            id="host",
            kind="StaticHost",
            provides=frozenset({"Hostname"}),
            args={"value": "simnode-0"}, behavior=StaticHostBehavior(),
        )
    )
    proto_ports = [
        PortSpec("hostname", "Hostname"),
        PortSpec("port", "Port", required=False),
        PortSpec("user", "User", required=False),
    ]
    owner = "n" if ordinal is not None else None
    asm.add(
        Component(
            id="proto", kind="SSH", provides=frozenset({"Protocol"}),
            ports=tuple(proto_ports), owner=owner,
        )
    )
    asm.add(
        Component(
            id="sh", kind="SH", provides=frozenset({"Shell"}),
            ports=(PortSpec("protocol", "Protocol"),), owner=owner,
        )
    )
    asm.bind(("proto", "hostname"), "host")
    asm.bind(("sh", "protocol"), "proto")
    if with_port is not None:
        asm.add(
            Component(
                id="p", kind="Port", provides=frozenset({"Port"}),
                args={"value": with_port}, behavior=PortBehavior(),
            )
        )
        asm.bind(("proto", "port"), "p")
    if with_user is not None:
        asm.add(
            Component(
                id="u", kind="User", provides=frozenset({"User"}),
                args=with_user, behavior=UserBehavior(),
            )
        )
        asm.bind(("proto", "user"), "u")
    if ordinal is not None:
        asm.add_composite(Composite(id="n", kind="Node", children={"proto": "proto", "sh": "sh"}, ordinal=ordinal))
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


def sim_ctx(asm, strict=False, fleet=None, config=None):
    fleet = fleet if fleet is not None else Fleet()
    clock = VirtualClock()
    return DeployContext(asm, SimTransport(fleet, clock, config, strict), clock, fleet)


class TestShellExecution:
    def test_steps_reach_the_right_node(self):
        asm = node_stack()
        ctx = sim_ctx(asm)
        status, _ = shell_execute(ctx, asm.components["sh"], [set_var("A", "1")])
        assert status == 0
        assert ctx.fleet.get("simnode-0").env == {"A": "1"}

    def test_empty_steps_skip_the_transport(self):
        asm = node_stack()
        ctx = DeployContext(asm, None, VirtualClock())  # would explode if used
        assert shell_execute(ctx, asm.components["sh"], []) == (0, "")

    def test_nonzero_exit_raises_remote_error(self):
        asm = node_stack()
        ctx = sim_ctx(asm)
        with pytest.raises(RemoteError) as err:
            shell_execute(ctx, asm.components["sh"], [exec_cmd("exit 3")])
        assert err.value.status == 3

    def test_latency_charged_per_connect_and_step(self):
        asm = node_stack()
        ctx = sim_ctx(asm)
        shell_execute(ctx, asm.components["sh"], [set_var("A", "1"), set_var("B", "2")])
        assert ctx.clock.now_ms() == 5.0 + 2 * 10.0

    def test_strict_transport_refuses_unknown_hosts(self):
        asm = node_stack()
        ctx = sim_ctx(asm, strict=True)
        with pytest.raises(ConnectFailed):
            shell_execute(ctx, asm.components["sh"], [set_var("A", "1")])

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
    def wire(self):
        asm = node_stack()
        asm.add(
            Component(
                id="var", kind="Variable", provides=frozenset({"Variable"}),
                ports=(PortSpec("shell", "Shell"),),
                args={"name": "MODE", "value": "grid"}, behavior=VariableBehavior(),
            )
        )
        asm.bind(("var", "shell"), "sh")
        return asm, sim_ctx(asm)

    def test_variable_sets_then_clears(self):
        asm, ctx = self.wire()
        var = asm.components["var"]
        var.behavior.start(var, ctx)
        assert ctx.fleet.get("simnode-0").env == {"MODE": "grid"}
        var.behavior.stop(var, ctx)
        assert ctx.fleet.get("simnode-0").env == {}


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
    def test_reserved_kinds_refuse_actions(self):
        reserved = [k for k in BUILTIN_KINDS if k.factory is ReservedBehavior]
        assert {k.name for k in reserved} == {"Telnet", "CSH", "WindowsCmd"}
        behavior = reserved[0].factory()
        assert isinstance(behavior, ReservedBehavior)
        with pytest.raises(NotImplementedError, match=f"kind {reserved[0].name} is reserved"):
            behavior.install(component(reserved[0].name))

    def test_builtin_names(self):
        names = {k.name for k in BUILTIN_KINDS}
        assert {"StaticHost", "DynamicHost", "Port", "User", "SSH", "SH",
                "FileTransfer", "Variable", "NodeReady"} <= names

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
