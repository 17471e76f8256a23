"""Configuration language: parse, unparse, loop expansion, reference checks.

The language is deliberately small.  A file holds one root block:

    MyDeployment = OpenCCM.Deployment {
      nodes = {
        hostname = DynamicHost(~/nodelist)
        apply FOR(i,0,500) {
          node-%{i} = Grid5000_NODE { ... }
        }
      }
      services = { ... }
    }

Entries assign a name to a constructor call (`Port(22)`, bare `SSH`), a
reference path rooted at the top block (`nodes/node-0`), or a nested
block.  `apply FOR(var,lo,hi) { ... }` repeats its body with both bounds
included.  `%{var}` interpolates loop variables into names, arguments
and reference paths.  `#` starts a line comment.  Constructor arguments
are unquoted literals: integers, file paths (`~` or `/` prefixed),
resource requests (`gdx=300|azur=100`), anything else a plain string.

Extra files are fragments whose top-level blocks (`nodes = {...}`,
`services = {...}`) merge into the root configuration in order.

Every node and refusal carries a `Span`: the reader moves by compiled
patterns matched at an offset, and turns an offset into a line and column
(from 1, columns in characters) by bisecting the offsets of line starts.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import NoReturn

from .errors import (
    ConfigError,
    DanglingReference,
    DslSyntaxError,
    DuplicateName,
    UnboundLoopVariable,
)

_SPACE = re.compile(r"(?:\s|#[^\n]*)*")  # `\s` is exactly `str.isspace`
_WORD = re.compile(r"(?:[A-Za-z0-9_.~/-]|%\{[^}]*\})*")
_WHITESPACE = re.compile(r"\s*")
_MARK = re.compile(r"[(),]")
_INTERP = re.compile(r"%\{(\w+)\}")
_INT = re.compile(r"^[0-9]+$")
_RESOURCES = re.compile(r"^\w+=\d+(\|\w+=\d+)*$")


@dataclass(frozen=True)
class Span:
    line: int = 0
    column: int = 0


@dataclass
class Arg:
    """One constructor argument, kept raw until expansion classifies it."""

    text: str
    span: Span = field(default=Span(), compare=False)

    @property
    def kind(self) -> str:
        if _INT.match(self.text):
            return "int"
        if _RESOURCES.match(self.text):
            return "resources"
        if self.text.startswith(("~", "/")):
            return "path"
        return "str"

    @property
    def value(self):
        return int(self.text) if self.kind == "int" else self.text


@dataclass
class Ctor:
    kind: str
    args: list[Arg] = field(default_factory=list)
    body: "Block | None" = None
    span: Span = field(default=Span(), compare=False)


@dataclass
class Ref:
    path: tuple[str, ...]
    span: Span = field(default=Span(), compare=False)


@dataclass
class Block:
    entries: list = field(default_factory=list)  # Entry | Loop
    span: Span = field(default=Span(), compare=False)


@dataclass
class Entry:
    name: str
    value: "Ctor | Ref | Block"
    span: Span = field(default=Span(), compare=False)


@dataclass
class Loop:
    var: str
    lo: int
    hi: int
    body: list = field(default_factory=list)  # Entry | Loop
    span: Span = field(default=Span(), compare=False)


@dataclass
class ConfigAST:
    """One parsed file: exactly one top-level entry per file is typical,
    but fragment files may carry several (merged later)."""

    entries: list[Entry] = field(default_factory=list)


class _Reader:
    """One parse of one text.  The reader stands at an offset, `pos`, and
    moves by compiled patterns matched there; a `Span` is worked out only
    when one is made, by bisecting the offsets at which lines start."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self._starts = [0, *(m.end() for m in re.finditer("\n", text))]

    def span(self, pos: int | None = None) -> Span:
        pos = self.pos if pos is None else pos
        line = bisect_right(self._starts, pos)
        return Span(line, pos - self._starts[line - 1] + 1)

    def fail(self, message: str, at: Span | None = None) -> NoReturn:
        """Refuse the text at `at`, by default where the reader stands."""
        raise DslSyntaxError(message, at or self.span())

    def peek(self) -> str:
        """The next character after space and comments, "" at the end."""
        self.pos = _SPACE.match(self.text, self.pos).end()
        return self.text[self.pos : self.pos + 1]

    def take(self, ch: str) -> None:
        if self.peek() != ch:
            self.fail(f"expected {ch!r}")
        self.pos += 1

    def word(self) -> tuple[str, Span]:
        self.peek()
        start = self.pos
        self.pos = _WORD.match(self.text, start).end()
        if self.text.startswith("%{", self.pos):
            self.fail("unterminated %{...}")
        if self.pos == start:
            self.fail("expected a name")
        return self.text[start : self.pos], self.span(start)

    def raw_args(self) -> list[Arg]:
        """Read `(...)` capturing arguments as raw text split on commas,
        each placed at its first character after whitespace."""
        self.take("(")
        opened = self.pos - 1
        args: list[Arg] = []
        start = _WHITESPACE.match(self.text, self.pos).end()
        depth = 1
        for mark in _MARK.finditer(self.text, start):
            ch = mark.group()
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    break
            elif depth == 1:
                args.append(Arg(self.text[start : mark.start()].strip(), self.span(start)))
                start = _WHITESPACE.match(self.text, mark.end()).end()
        else:
            self.fail("unterminated argument list", self.span(opened))
        tail = self.text[start : mark.start()].strip()
        if tail or args:
            args.append(Arg(tail, self.span(start)))
        self.pos = mark.end()
        return args

    def parse(self) -> ConfigAST:
        ast = ConfigAST()
        while self.peek():
            ast.entries.append(self._entry())
        if not ast.entries:
            self.fail("empty configuration")
        return ast

    def _entry(self):
        name, span = self.word()
        if name == "apply":
            return self._loop(span)
        if "/" in name:
            self.fail(f"entry name {name!r} may not contain '/'")
        self.take("=")
        return Entry(name, self._value(), span)

    def _value(self):
        if self.peek() == "{":
            return self._block()
        word, span = self.word()
        if "/" in word:
            return Ref(tuple(word.split("/")), span)
        args = self.raw_args() if self.peek() == "(" else []
        body = self._block() if self.peek() == "{" else None
        return Ctor(word, args, body, span)

    def _block(self) -> Block:
        span = self.span()
        self.take("{")
        entries = []
        while (ch := self.peek()) != "}":
            if not ch:
                self.fail("unclosed block")
            entries.append(self._entry())
        self.pos += 1
        return Block(entries, span)

    def _loop(self, span: Span) -> Loop:
        head, _ = self.word()
        if head != "FOR":
            self.fail(f"expected FOR after apply, got {head!r}")
        args = self.raw_args()
        if len(args) != 3:
            self.fail("FOR takes (var, lo, hi)")
        var = args[0].text
        bounds = []
        for bound in args[1:]:
            try:
                bounds.append(int(bound.text))
            except ValueError:
                self.fail("FOR bounds must be integers", bound.span)
        lo, hi = bounds
        body_block = self._block()
        return Loop(var, lo, hi, body_block.entries, span)


def parse(text: str) -> ConfigAST:
    return _Reader(text).parse()


# -- unparse -----------------------------------------------------------------


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


# -- expansion ---------------------------------------------------------------


@dataclass
class ExpandedConfig:
    """Loop-free, interpolation-free configuration with a name table."""

    root_name: str
    root_kind: str
    root: Block
    table: dict[str, Entry] = field(default_factory=dict)
    root_span: Span = field(default=Span(), compare=False)  # where the root kind is written


def _interpolate(text: str, env: dict[str, int], span: Span) -> str:
    if "%" not in text:
        return text

    def repl(m: re.Match) -> str:
        var = m.group(1)
        if var not in env:
            raise UnboundLoopVariable(f"%{{{var}}} is not bound by any enclosing FOR", span)
        return str(env[var])

    return _INTERP.sub(repl, text)


class _Expander:
    """One expansion.  A source subtree with no `%` in any name, argument
    or path segment and no loop inside is the same in every iteration, so
    it is reused as it is instead of being copied."""

    def __init__(self) -> None:
        self._invariant: dict[int, bool] = {}  # id(source node) -> loop-invariant

    def invariant(self, node) -> bool:
        known = self._invariant.get(id(node))
        if known is None:
            known = self._invariant[id(node)] = self._scan(node)
        return known

    def _scan(self, node) -> bool:
        if isinstance(node, Entry):
            return "%" not in node.name and self.invariant(node.value)
        if isinstance(node, Ref):
            return not any("%" in p for p in node.path)
        if isinstance(node, Block):
            return all(self.invariant(e) for e in node.entries)
        if isinstance(node, Ctor):
            return not any("%" in a.text for a in node.args) and (
                node.body is None or self.invariant(node.body)
            )
        return False  # a Loop

    def entries(self, entries, env: dict[str, int]) -> list[Entry]:
        out: list[Entry] = []
        for entry in entries:
            if isinstance(entry, Loop):
                inner = dict(env)
                for i in range(entry.lo, entry.hi + 1):
                    inner[entry.var] = i
                    out.extend(self.entries(entry.body, inner))
            elif self.invariant(entry):
                out.append(entry)
            else:
                name = _interpolate(entry.name, env, entry.span)
                out.append(Entry(name, self.value(entry.value, env), entry.span))
        return out

    def value(self, value, env: dict[str, int]):
        if self.invariant(value):
            return value
        if isinstance(value, Ref):
            path = tuple(_interpolate(p, env, value.span) for p in value.path)
            return Ref(path, value.span)
        if isinstance(value, Block):
            return Block(self.entries(value.entries, env), value.span)
        args = [Arg(_interpolate(a.text, env, a.span), a.span) for a in value.args]
        body = self.value(value.body, env) if value.body is not None else None
        return Ctor(value.kind, args, body, value.span)


def _index(block: Block, prefix: str, table: dict[str, Entry], refs: list[Ref]) -> None:
    """Key every entry of `block` under `prefix` into `table`, a key seen
    before being a DuplicateName, and collect every Ref into `refs`."""
    for entry in block.entries:
        key = prefix + entry.name
        if key in table:
            raise DuplicateName(f"{key} declared twice", entry.span)
        table[key] = entry
        value = entry.value
        if isinstance(value, Ref):
            refs.append(value)
            continue
        child = value.body if isinstance(value, Ctor) else value
        if child is not None:
            _index(child, key + "/", table, refs)


def _is_root(entry) -> bool:
    """Whether a top-level entry is a root block, `Name = Kind { ... }`."""
    return isinstance(entry, Entry) and isinstance(entry.value, Ctor) and entry.value.body is not None


def _refuse_roots(message: str, entries: list) -> ConfigError:
    """The refusal of top-level `entries` that are not one root block alone,
    placed at the first surplus root block, else at the first entry beside
    the one root block, else at the first entry."""
    roots = [e for e in entries if _is_root(e)]
    if len(roots) > 1:
        at = roots[1]
    elif roots:
        at = next(e for e in entries if e is not roots[0])
    else:
        at = entries[0] if entries else None
    return ConfigError(message, at.span if at is not None else None)


def expand(ast: ConfigAST) -> ExpandedConfig:
    """Unroll loops, substitute interpolations, verify names and references.

    One walk over the expanded tree keys every entry, which finds any
    duplicate name, and collects every reference; the references are
    resolved once the table is whole, so a duplicate anywhere is reported
    ahead of a dangling reference.  The result shares every loop-invariant
    subtree with `ast`, so neither may be mutated afterwards; `merge`
    fragments in before expanding."""
    entries = ast.entries
    if len(entries) != 1 or not _is_root(entries[0]):
        raise _refuse_roots("configuration needs exactly one root block `Name = Kind { ... }`", entries)
    root_entry = entries[0]
    body = _Expander().value(root_entry.value.body, {})
    config = ExpandedConfig(root_entry.name, root_entry.value.kind, body, root_span=root_entry.value.span)
    refs: list[Ref] = []
    _index(body, "", config.table, refs)
    for ref in refs:
        key = "/".join(ref.path)
        if key not in config.table:
            raise DanglingReference(f"reference {key} resolves to nothing", ref.span)
    return config


def merge(primary: ConfigAST, *fragments: ConfigAST) -> ConfigAST:
    """Fold fragment files (`nodes = {...}` at top level) into the root AST."""
    roots = [e for e in primary.entries if _is_root(e)]
    if len(roots) != 1:
        raise _refuse_roots("primary configuration needs exactly one root block", primary.entries)
    root = roots[0]
    blocks = {e.name: e for e in root.value.body.entries if isinstance(e, Entry)}
    for fragment in fragments:
        for entry in fragment.entries:
            if not isinstance(entry.value, Block):
                raise ConfigError(f"fragment entry {entry.name} must be a plain block", entry.span)
            target = blocks.get(entry.name)
            if target is None or not isinstance(target.value, Block):
                root.value.body.entries.append(entry)
                blocks[entry.name] = entry
            else:
                target.value.entries.extend(entry.value.entries)
    return primary


def load_config(paths: list[str]) -> ExpandedConfig:
    """Parse one or more .gdf files (first is primary) and expand the result."""
    asts = []
    for path in paths:
        try:
            with open(path, encoding="utf-8") as fh:
                asts.append(parse(fh.read()))
        except OSError as exc:
            raise ConfigError(f"cannot read configuration {path}: {exc.strerror}") from exc
    return expand(merge(asts[0], *asts[1:]))
