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
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import (
    ConfigError,
    DanglingReference,
    DslSyntaxError,
    DuplicateName,
    UnboundLoopVariable,
)

_WORD_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.~/-")
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


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.column = 1

    def span(self) -> Span:
        return Span(self.line, self.column)

    def _advance(self, n: int = 1) -> None:
        for _ in range(n):
            if self.pos < len(self.text) and self.text[self.pos] == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
            self.pos += 1

    def skip_space(self) -> None:
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch == "#":
                while self.pos < len(self.text) and self.text[self.pos] != "\n":
                    self._advance()
            elif ch.isspace():
                self._advance()
            else:
                return

    def peek(self) -> str:
        self.skip_space()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> None:
        if self.peek() != ch:
            self.fail(f"expected {ch!r}", {ch})
        self._advance()

    def word(self) -> tuple[str, Span]:
        self.skip_space()
        start = self.pos
        span = self.span()
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch == "%" and self.text[self.pos : self.pos + 2] == "%{":
                close = self.text.find("}", self.pos)
                if close < 0:
                    self.fail("unterminated %{...}", {"}"})
                self._advance(close - self.pos + 1)
            elif ch in _WORD_CHARS:
                self._advance()
            else:
                break
        if self.pos == start:
            self.fail("expected a name", {"name"})
        return self.text[start : self.pos], span

    def raw_args(self) -> list[Arg]:
        """Scan `(...)` capturing arguments as raw text split on commas,
        each placed at its first character."""
        self.skip_space()
        opened = self.span()
        self.take("(")
        args: list[Arg] = []
        self._skip_blanks()
        start = self.pos
        span = self.span()
        depth = 1
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    break
            elif ch == "," and depth == 1:
                args.append(Arg(self.text[start : self.pos].strip(), span))
                self._advance()
                self._skip_blanks()
                start = self.pos
                span = self.span()
                continue
            self._advance()
        if self.pos >= len(self.text):
            self.fail("unterminated argument list", {")"}, opened)
        tail = self.text[start : self.pos].strip()
        if tail or args:
            args.append(Arg(tail, span))
        self._advance()  # consume ')'
        return args

    def _skip_blanks(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self._advance()

    def at_end(self) -> bool:
        self.skip_space()
        return self.pos >= len(self.text)

    def fail(self, message: str, expected: set[str] | None = None, at: Span | None = None) -> None:
        """Refuse the text at `at`, by default where the scan stands."""
        at = at or self.span()
        raise DslSyntaxError(message, at.line, at.column, expected)


class _Parser:
    def __init__(self, text: str):
        self.scan = _Scanner(text)

    def parse(self) -> ConfigAST:
        ast = ConfigAST()
        while not self.scan.at_end():
            ast.entries.append(self._entry())
        if not ast.entries:
            self.scan.fail("empty configuration", {"name"})
        return ast

    def _entry(self):
        name, span = self.scan.word()
        if name == "apply":
            return self._loop(span)
        if "/" in name:
            self.scan.fail(f"entry name {name!r} may not contain '/'", {"name"})
        self._expect_equals()
        return Entry(name, self._value(), span)

    def _expect_equals(self) -> None:
        self.scan.take("=")

    def _value(self):
        ch = self.scan.peek()
        if ch == "{":
            return self._block()
        word, span = self.scan.word()
        if "/" in word:
            return Ref(tuple(word.split("/")), span)
        args = self.scan.raw_args() if self.scan.peek() == "(" else []
        body = self._block() if self.scan.peek() == "{" else None
        return Ctor(word, args, body, span)

    def _block(self) -> Block:
        span = self.scan.span()
        self.scan.take("{")
        entries = []
        while self.scan.peek() != "}":
            if self.scan.at_end():
                self.scan.fail("unclosed block", {"}"})
            entries.append(self._entry())
        self.scan.take("}")
        return Block(entries, span)

    def _loop(self, span: Span) -> Loop:
        head, _ = self.scan.word()
        if head != "FOR":
            self.scan.fail(f"expected FOR after apply, got {head!r}", {"FOR"})
        args = self.scan.raw_args()
        if len(args) != 3:
            self.scan.fail("FOR takes (var, lo, hi)", {"var,lo,hi"})
        var = args[0].text
        bounds = []
        for bound in args[1:]:
            try:
                bounds.append(int(bound.text))
            except ValueError:
                self.scan.fail("FOR bounds must be integers", {"integer"}, bound.span)
        lo, hi = bounds
        body_block = self._block()
        return Loop(var, lo, hi, body_block.entries, span)


def parse(text: str) -> ConfigAST:
    return _Parser(text).parse()


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

    def resolve(self, path: tuple[str, ...]) -> Entry:
        key = "/".join(path)
        entry = self.table.get(key)
        if entry is None:
            raise DanglingReference(f"reference {key} resolves to nothing")
        return entry

    def block(self, name: str) -> Block:
        entry = self.table.get(name)
        if entry is None or not isinstance(entry.value, (Block, Ctor)):
            return Block()
        value = entry.value
        if isinstance(value, Ctor):
            return value.body or Block()
        return value


def _interpolate(text: str, env: dict[str, int], span: Span) -> str:
    if "%" not in text:
        return text

    def repl(m: re.Match) -> str:
        var = m.group(1)
        if var not in env:
            raise UnboundLoopVariable(
                f"%{{{var}}} is not bound by any enclosing FOR", span.line, span.column
            )
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
            raise DuplicateName(f"{key} declared twice", entry.span.line, entry.span.column)
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
    span = at.span if at is not None else Span()
    return ConfigError(message, span.line, span.column)


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
    config = ExpandedConfig(root_entry.name, root_entry.value.kind, body)
    refs: list[Ref] = []
    _index(body, "", config.table, refs)
    for ref in refs:
        key = "/".join(ref.path)
        if key not in config.table:
            raise DanglingReference(f"reference {key} resolves to nothing", ref.span.line, ref.span.column)
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
                raise ConfigError(
                    f"fragment entry {entry.name} must be a plain block",
                    entry.span.line,
                    entry.span.column,
                )
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
