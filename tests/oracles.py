"""Reference implementations the tests compare the engine against.

The engine only renders: steps to sh text, a configuration to
components, a fleet to logs.  The inverses below read those outputs
back, so a test can check that nothing was lost on the way.

render_sh/parse_sh_line are exact inverses for every step kind, which is
what lets one personality codebase drive both kinds of transport.
"""

from __future__ import annotations

import re
import shlex

from gridforge.dsl import Block, ConfigAST, Loop, Ref
from gridforge.simgrid import SimNode
from gridforge.steps import (
    _PID_DIR,
    _PROC,
    Step,
    append_path,
    exec_cmd,
    fetch,
    remove,
    set_var,
    start_process,
    stop_process,
)

# -- sh dialect ----------------------------------------------------------------

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
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


# -- unparse -------------------------------------------------------------------


def unparse(ast: ConfigAST) -> str:
    lines: list[str] = []
    for entry in ast.entries:
        _unparse_entry(entry, 0, lines)
    return "\n".join(lines) + "\n"


def _unparse_entry(entry, depth: int, lines: list[str]) -> None:
    pad = "  " * depth
    if isinstance(entry, Loop):
        lines.append(f"{pad}apply FOR({entry.var},{entry.lo},{entry.hi}) {{")
        for child in entry.body:
            _unparse_entry(child, depth + 1, lines)
        lines.append(f"{pad}}}")
        return
    lines.append(f"{pad}{entry.name} = {_unparse_value(entry.value, depth)}")


def _unparse_value(value, depth: int) -> str:
    pad = "  " * depth
    if isinstance(value, Ref):
        return "/".join(value.path)
    if isinstance(value, Block):
        inner: list[str] = []
        for child in value.entries:
            _unparse_entry(child, depth + 1, inner)
        return "{\n" + "\n".join(inner) + f"\n{pad}}}"
    text = value.kind
    if value.args:
        text += "(" + ",".join(a.text for a in value.args) + ")"
    if value.body is not None:
        text += " " + _unparse_value(value.body, depth)
    return text


# -- sim log replay ------------------------------------------------------------


def replay_log(log: list[Step]) -> SimNode:
    """Independent rebuild of node state by re-applying a recorded log."""
    node = SimNode("replay")
    for step in log:
        node.apply(step)
    return node
