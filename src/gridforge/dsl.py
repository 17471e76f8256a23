"""Configuration language: parse, loop variable, name and reference checks.

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

The reader compiles every `%{var}` cell once into a `Cell` as it reads
it.  Expansion keeps each loop and copies nothing: `expand` checks the
parsed tree in one walk, refusing unbound variables and checking names
and references for the whole loop where it can show them sound, and only
where it cannot does a second walk check them iteration by iteration;
generation stamps the iterations.  A loop that runs no iteration is
absent to every check and to generation.

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


def arg_kind(text: str) -> str:
    """The class of an argument's text: int, resources, path or str."""
    if _INT.match(text):
        return "int"
    if _RESOURCES.match(text):
        return "resources"
    if text.startswith(("~", "/")):
        return "path"
    return "str"


class Cell(str):
    """A name, argument or path segment that holds a loop variable, compiled
    once, as the reader reads it.  It is the text as written; `parts`
    alternates literal text and variable names, literal first and last;
    `fill` gives its text for one iteration.  Both derive from the text, so
    a copy or unpickling, which passes only the text, rebuilds them."""

    def __new__(cls, written: str):
        cell = super().__new__(cls, written)
        cell.parts = parts = tuple(_INTERP.split(written))
        cell.pattern = "".join(p.replace("%", "%%") if i % 2 == 0 else f"%({p})s" for i, p in enumerate(parts))
        return cell


def _cell(text: str) -> str:
    """`text`, or its Cell if it holds a loop variable."""
    return Cell(text) if "%{" in text and _INTERP.search(text) else text


@dataclass
class Arg:
    """One constructor argument, kept raw until generation classifies it."""

    text: str
    span: Span = field(default=Span(), compare=False)


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
        return Entry(_cell(name), self._value(), span)

    def _value(self):
        if self.peek() == "{":
            return self._block()
        word, span = self.word()
        if "/" in word:
            return Ref(tuple([_cell(p) for p in word.split("/")]), span)
        args = self.raw_args() if self.peek() == "(" else []
        for arg in args:
            arg.text = _cell(arg.text)
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


# -- expansion ---------------------------------------------------------------


def fill(text: str, env: dict[str, int]) -> str:
    """`text` for one iteration: a Cell filled in from `env`, else as is."""
    return text.pattern % env if isinstance(text, Cell) else text


def each(entries: list, env: dict[str, int]):
    """(entry, env) for each entry, a loop's body once per value of its
    variable, both bounds included."""
    for entry in entries:
        if not isinstance(entry, Loop):
            yield entry, env
            continue
        for i in range(entry.lo, entry.hi + 1):
            inner = {**env, entry.var: i}
            for child in entry.body:
                if isinstance(child, Loop):
                    yield from each((child,), inner)
                else:
                    yield child, inner


def joined(path: tuple) -> str:
    """The key a reference path names, a Cell if a segment is one."""
    written = "/".join(path)
    return Cell(written) if any(isinstance(p, Cell) for p in path) else written


@dataclass
class ExpandedConfig:
    """A checked configuration: the root block's parsed body, loops kept.

    Every name, argument text and reference segment in `root` that holds a
    loop variable is a `Cell`, as `parse` read it, and `each` walks its
    iterations; a loop that runs no iteration is absent."""

    root_name: str
    root_kind: str
    root: Block
    root_span: Span = field(default=Span(), compare=False)  # where the root kind is written


def _refuse_unbound(text: str, bound: dict, span: Span) -> None:
    """Refuse `text` if it is a Cell naming a variable that no enclosing
    FOR binds (no key of `bound`)."""
    if isinstance(text, Cell):
        for var in text.parts[1::2]:
            if var not in bound:
                raise UnboundLoopVariable(f"%{{{var}}} is not bound by any enclosing FOR", span)


_DECIMAL = re.compile(r"^-?[0-9]+$")


def _declares(name: str, head: str, tail: str, lo: int, hi: int) -> bool:
    """Whether `name` is `head` + i + `tail` for an i in lo..hi."""
    if len(name) <= len(head) + len(tail) or not (name.startswith(head) and name.endswith(tail)):
        return False
    digits = name[len(head) : len(name) - len(tail)]
    return _DECIMAL.match(digits) is not None and str(int(digits)) == digits and lo <= int(digits) <= hi


class _Scope:
    """The names one block declares in each of its instances: written
    names, and per loop entry directly in the block the head and tail
    around its one variable, with the loop's range."""

    def __init__(self) -> None:
        self.names: dict[str, Entry] = {}
        self.loops: list[tuple[str, str, int, int, Entry]] = []

    def find(self, name: str) -> Entry | None:
        """The entry declaring `name`, None if none does."""
        entry = self.names.get(name)
        if entry is None:
            for head, tail, lo, hi, looped in self.loops:
                if _declares(name, head, tail, lo, hi):
                    return looped
        return entry

    def covering(self, head: str, tail: str, lo: int, hi: int) -> Entry | None:
        """The loop entry declaring `head` + i + `tail` for every i in lo..hi."""
        for h, t, first, last, looped in self.loops:
            if (h, t) == (head, tail) and first <= lo and hi <= last:
                return looped
        return None

    def distinct(self, head: str, tail: str, lo: int, hi: int) -> bool:
        """Whether `head` + i + `tail`, i in lo..hi, is shown to be no name
        the block declares already: another loop's names share no range
        with them, or no text, their heads or tails differing."""
        for h, t, first, last, _ in self.loops:
            k, j = min(len(h), len(head)), min(len(t), len(tail))
            if h[:k] == head[:k] and t[len(t) - j :] == tail[len(tail) - j :]:
                if (h, t) != (head, tail) or (first <= hi and lo <= last):
                    return False
        return not any(_declares(name, head, tail, lo, hi) for name in self.names)


class _Names:
    """Shows, once per loop rather than once per iteration, that every name
    is declared once and that every reference resolves.  Its one walk of
    the tree also refuses the first loop variable that no enclosing FOR
    binds: entry by entry, in its name, then its arguments or path, then
    its body.

    Within one block instance, names are shown distinct when each is
    written without a variable, or is an entry directly in a loop of the
    block whose name holds that loop's variable once; two such loop names
    must share neither range nor text.  Entries of distinct block instances
    have distinct keys.  A reference resolves when each segment finds its
    entry, a segment holding one variable finding a loop entry of the same
    head and tail whose range covers the variable's.  What is not shown is
    in doubt, and `_index` then checks each iteration."""

    def __init__(self) -> None:
        self.scopes: dict[int, _Scope] = {}  # id(block) -> its names
        self.refs: list[tuple[Ref, dict]] = []  # each reference, with its loop ranges
        self.doubt = False

    def shown(self, root: Block) -> bool:
        self.block(root, {})
        return not self.doubt and all(self.resolves(root, ref, ranges) for ref, ranges in self.refs)

    def block(self, block: Block, ranges: dict) -> None:
        """Declare the names of `block` and collect its references; a loop
        that runs no iteration is absent.  `ranges` maps each variable an
        enclosing FOR binds to its range."""
        scope = self.scopes[id(block)] = _Scope()
        for entry in block.entries:
            if isinstance(entry, Loop):
                self.loop(scope, entry, ranges)
                continue
            name = entry.name
            _refuse_unbound(name, ranges, entry.span)
            if isinstance(name, Cell) or scope.find(name) is not None:
                self.doubt = True
            else:
                scope.names[name] = entry
            self.value(entry.value, ranges)

    def loop(self, scope: _Scope, loop: Loop, ranges: dict) -> None:
        """Declare the names a loop adds to its block's `scope`."""
        if loop.lo > loop.hi:
            return
        inner = {**ranges, loop.var: (loop.lo, loop.hi)}
        for child in loop.body:
            if isinstance(child, Loop):
                self.doubt = True
                self.loop(scope, child, inner)
                continue
            _refuse_unbound(child.name, inner, child.span)
            parts = child.name.parts if isinstance(child.name, Cell) else ()
            if len(parts) != 3 or parts[1] != loop.var:
                self.doubt = True
            else:
                head, _, tail = parts
                if not scope.distinct(head, tail, loop.lo, loop.hi):
                    self.doubt = True
                scope.loops.append((head, tail, loop.lo, loop.hi, child))
            self.value(child.value, inner)

    def value(self, value, ranges: dict) -> None:
        if isinstance(value, Ref):
            for segment in value.path:
                _refuse_unbound(segment, ranges, value.span)
            self.refs.append((value, ranges))
            return
        if isinstance(value, Ctor):
            for arg in value.args:
                _refuse_unbound(arg.text, ranges, arg.span)
            value = value.body
        if value is not None:
            self.block(value, ranges)

    def resolves(self, root: Block, ref: Ref, ranges: dict) -> bool:
        block, looped = root, False
        for segment in ref.path:
            if block is None:
                return False
            scope = self.scopes[id(block)]
            if isinstance(segment, Cell):
                parts = segment.parts
                if looped or len(parts) != 3:
                    return False
                looped = True
                entry = scope.covering(parts[0], parts[2], *ranges[parts[1]])
            else:
                entry = scope.find(segment)
            if entry is None:
                return False
            value = entry.value
            block = value.body if isinstance(value, Ctor) else value if isinstance(value, Block) else None
        return True


def _index(entries, prefix: str, env: dict[str, int], keys: dict, refs: list) -> None:
    """Key every entry of `entries` under `prefix`, once per iteration of
    each loop, a key seen before being a DuplicateName, and collect each
    reference's key and span into `refs`."""
    for entry, entry_env in each(entries, env):
        key = prefix + fill(entry.name, entry_env)
        if key in keys:
            raise DuplicateName(f"{key} declared twice", entry.span)
        keys[key] = entry
        value = entry.value
        if isinstance(value, Ref):
            refs.append(("/".join([fill(p, entry_env) for p in value.path]), value.span))
            continue
        child = value.body if isinstance(value, Ctor) else value
        if child is not None:
            _index(child.entries, key + "/", entry_env, keys, refs)


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
    """Check the parsed configuration: loop variables, names and references.

    Loops stay loops, and nothing is copied: the result's `root` is the
    parsed root body, each `%{...}` cell compiled as it was read.  One walk
    (`_Names`) refuses the first variable no enclosing FOR binds and shows
    names and references sound for each loop as a whole; where that is in
    doubt, a second walk keys the entry of every iteration, which finds
    any duplicate name, and collects every reference, each resolved once
    the keys are whole, so a duplicate anywhere is reported ahead of a
    dangling reference.  A loop that runs no iteration is absent to every
    check.  The result shares the tree with `ast`, so neither may be
    mutated afterwards; `merge` fragments in before expanding."""
    entries = ast.entries
    if len(entries) != 1 or not _is_root(entries[0]):
        raise _refuse_roots("configuration needs exactly one root block `Name = Kind { ... }`", entries)
    root_entry = entries[0]
    body = root_entry.value.body
    if not _Names().shown(body):
        keys: dict[str, Entry] = {}
        refs: list[tuple[str, Span]] = []
        _index(body.entries, "", {}, keys, refs)
        for key, span in refs:
            if key not in keys:
                raise DanglingReference(f"reference {key} resolves to nothing", span)
    return ExpandedConfig(root_entry.name, root_entry.value.kind, body, root_entry.value.span)


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
