"""Transport-independent deployment steps and the sh dialect.

A Step is the unit the simulated backend applies directly and the real
backends receive as rendered shell text.  render_sh/parse_sh_line are exact
inverses for every step kind, which is what lets one personality codebase
drive both kinds of transport.
"""

from __future__ import annotations

import re
import shlex
from dataclasses import dataclass
from enum import Enum


class StepKind(Enum):
    SET_VAR = "SetVar"
    APPEND_PATH = "AppendPath"
    FETCH = "Fetch"
    EXEC = "Exec"
    START_PROCESS = "StartProcess"
    STOP_PROCESS = "StopProcess"
    REMOVE = "Remove"


@dataclass(frozen=True, slots=True)
class Step:
    kind: StepKind
    a: str = ""
    b: str = ""


def set_var(name: str, value: str) -> Step:
    return Step(StepKind.SET_VAR, name, value)


def append_path(value: str) -> Step:
    return Step(StepKind.APPEND_PATH, value)


def fetch(url: str, dest: str) -> Step:
    return Step(StepKind.FETCH, url, dest)


def exec_cmd(command: str) -> Step:
    return Step(StepKind.EXEC, command)


def start_process(name: str, command: str) -> Step:
    return Step(StepKind.START_PROCESS, name, command)


def stop_process(name: str) -> Step:
    return Step(StepKind.STOP_PROCESS, name)


def remove(path: str) -> Step:
    return Step(StepKind.REMOVE, path)


# --- sh dialect ----------------------------------------------------------

_PID_DIR = "/tmp"


def _q(value: str) -> str:
    return shlex.quote(value) if value else "''"


def render_sh_line(step: Step) -> str:
    """One POSIX sh line per step.

    SetVar with an empty value means "unset".  Process management uses a
    /tmp/gf.<name>.pid convention so stop can find what start launched.
    """
    k = step.kind
    if k is StepKind.SET_VAR:
        if step.b == "":
            return f"unset {step.a}"
        return f"export {step.a}={_q(step.b)}"
    if k is StepKind.APPEND_PATH:
        return f"PATH=$PATH:{_q(step.a)}"
    if k is StepKind.FETCH:
        return f"curl -f -s --create-dirs -o {_q(step.b)} {_q(step.a)}"
    if k is StepKind.START_PROCESS:
        log = f"{_PID_DIR}/gf.{step.a}.log"
        pid = f"{_PID_DIR}/gf.{step.a}.pid"
        return f"nohup {step.b} >{log} 2>&1 & echo $! >{pid}"
    if k is StepKind.STOP_PROCESS:
        pid = f"{_PID_DIR}/gf.{step.a}.pid"
        return f'kill "$(cat {pid})" 2>/dev/null; rm -f {pid}'
    if k is StepKind.REMOVE:
        return f"rm -rf {_q(step.a)}"
    return step.a  # EXEC: the command line verbatim


def render_sh(steps: list[Step]) -> str:
    return "\n".join(render_sh_line(s) for s in steps)


_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_PROC = r"[A-Za-z0-9_.\-]+"
PROCESS_NAME = re.compile(_PROC)  # what a pid file path carries unquoted
_RE_UNSET = re.compile(rf"^unset ({_NAME})$")
_RE_EXPORT = re.compile(rf"^export ({_NAME})=(.*)$")
_RE_PATH = re.compile(r"^PATH=\$PATH:(.*)$")
_RE_FETCH = re.compile(r"^curl -f -s --create-dirs -o (.+) (\S+|'[^']*')$")
_RE_START = re.compile(
    rf"^nohup (.+) >{_PID_DIR}/gf\.({_PROC})\.log 2>&1 & echo \$! >{_PID_DIR}/gf\.\2\.pid$"
)
_RE_STOP = re.compile(
    rf'^kill "\$\(cat {_PID_DIR}/gf\.({_PROC})\.pid\)" 2>/dev/null; rm -f {_PID_DIR}/gf\.\1\.pid$'
)
_RE_REMOVE = re.compile(r"^rm -rf (.+)$")


def _unquote(text: str) -> str:
    parts = shlex.split(text)
    if len(parts) != 1:
        raise ValueError(f"expected a single token, got {text!r}")
    return parts[0]


def parse_sh_line(line: str) -> Step:
    """Inverse of render_sh_line.

    A line matching none of the known renderings parses as Exec, so an
    Exec command that imitates a reserved rendering does not round-trip.
    """
    try:
        m = _RE_UNSET.match(line)
        if m:
            return set_var(m.group(1), "")
        m = _RE_EXPORT.match(line)
        if m:
            return set_var(m.group(1), _unquote(m.group(2)))
        m = _RE_PATH.match(line)
        if m:
            return append_path(_unquote(m.group(1)))
        m = _RE_FETCH.match(line)
        if m:
            return fetch(_unquote(m.group(2)), _unquote(m.group(1)))
        m = _RE_START.match(line)
        if m:
            return start_process(m.group(2), m.group(1))
        m = _RE_STOP.match(line)
        if m:
            return stop_process(m.group(1))
        m = _RE_REMOVE.match(line)
        if m:
            return remove(_unquote(m.group(1)))
    except ValueError:
        pass
    return exec_cmd(line)


def parse_sh(script: str) -> list[Step]:
    return [parse_sh_line(line) for line in script.splitlines() if line.strip()]
