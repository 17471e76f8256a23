"""Transport-independent deployment steps and the sh dialect.

A Step is the unit the simulated backend applies directly and the real
backends receive as rendered shell text.
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


_PROC = r"[A-Za-z0-9_.\-]+"
PROCESS_NAME = re.compile(_PROC)  # what a pid file path carries unquoted
