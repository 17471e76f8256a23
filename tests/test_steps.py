"""Deployment steps and their POSIX sh rendering."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import parse_sh, parse_sh_line

from gridforge.steps import (
    StepKind,
    append_path,
    exec_cmd,
    fetch,
    remove,
    render_sh,
    render_sh_line,
    set_var,
    start_process,
    stop_process,
)


class TestRendering:
    def test_set_var(self):
        assert render_sh_line(set_var("JAVA_HOME", "/opt/java/jre")) == "export JAVA_HOME=/opt/java/jre"

    def test_set_var_empty_means_unset(self):
        assert render_sh_line(set_var("JAVA_HOME", "")) == "unset JAVA_HOME"

    def test_append_path(self):
        assert render_sh_line(append_path("/opt/java/jre/bin")) == "PATH=$PATH:/opt/java/jre/bin"

    def test_fetch_is_fail_fast_and_silent(self):
        line = render_sh_line(fetch("http://mirror/x.tar.gz", "/opt/x.tar.gz"))
        assert line == "curl -f -s --create-dirs -o /opt/x.tar.gz http://mirror/x.tar.gz"

    def test_exec_verbatim(self):
        assert render_sh_line(exec_cmd("tar -xzf /tmp/a.tar.gz -C /opt")) == "tar -xzf /tmp/a.tar.gz -C /opt"

    def test_start_process_records_pid(self):
        line = render_sh_line(start_process("NS", "ns_start"))
        assert line == "nohup ns_start >/tmp/gf.NS.log 2>&1 & echo $! >/tmp/gf.NS.pid"

    def test_stop_process_uses_recorded_pid(self):
        line = render_sh_line(stop_process("NS"))
        assert line == 'kill "$(cat /tmp/gf.NS.pid)" 2>/dev/null; rm -f /tmp/gf.NS.pid'

    def test_remove(self):
        assert render_sh_line(remove("/opt/java/jre")) == "rm -rf /opt/java/jre"

    def test_values_with_spaces_are_quoted(self):
        assert render_sh_line(set_var("MSG", "hello world")) == "export MSG='hello world'"

    def test_script_is_one_line_per_step(self):
        script = render_sh([set_var("A", "1"), exec_cmd("true")])
        assert script == "export A=1\ntrue"


NAME = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]*", fullmatch=True)
PROC = st.from_regex(r"[A-Za-z0-9_.\-]+", fullmatch=True)
SAFE = st.text(string.ascii_letters + string.digits + "/._-~", min_size=1)
VALUE = st.text(
    string.ascii_letters + string.digits + string.punctuation.replace("'", "") + " ",
    min_size=1,
)
# Exec commands that do not imitate a reserved rendering.
COMMAND = st.text(string.ascii_letters + string.digits + " /._-", min_size=1).filter(
    lambda s: s.strip() and not s.startswith(("unset ", "export ", "PATH=", "curl ", "nohup ", "kill ", "rm "))
)


def steps_strategy():
    return st.one_of(
        st.builds(set_var, NAME, VALUE),
        st.builds(set_var, NAME, st.just("")),
        st.builds(append_path, SAFE),
        st.builds(fetch, SAFE, SAFE),
        st.builds(exec_cmd, COMMAND),
        st.builds(start_process, PROC, COMMAND),
        st.builds(stop_process, PROC),
        st.builds(remove, SAFE),
    )


class TestRoundTrip:
    @given(steps_strategy())
    @settings(max_examples=300)
    def test_render_parse_inverse(self, step):
        assert parse_sh_line(render_sh_line(step)) == step

    @given(st.lists(steps_strategy(), max_size=8))
    def test_script_round_trip(self, steps):
        assert parse_sh(render_sh(steps)) == steps

    def test_every_kind_round_trips(self):
        examples = [
            set_var("JAVA_HOME", "/opt/java/jre"),
            set_var("JAVA_HOME", ""),
            append_path("/opt/java/jre/bin"),
            fetch("http://mirror.invalid/jre.tar.gz", "/opt/java/jre/jre.tar.gz"),
            exec_cmd("tar -xzf /opt/java/jre/jre.tar.gz -C /opt/java/jre"),
            start_process("NS", "ns_start"),
            stop_process("NS"),
            remove("/opt/java/jre"),
        ]
        assert {s.kind for s in examples} == set(StepKind)
        for step in examples:
            assert parse_sh_line(render_sh_line(step)) == step

    def test_unrecognized_line_parses_as_exec(self):
        step = parse_sh_line("systemctl restart nginx")
        assert step.kind is StepKind.EXEC
        assert step.a == "systemctl restart nginx"
