"""Configuration language: parsing, loop expansion, merging, diagnostics."""

import copy
import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from configs import unroll
from oracles import unparse
from gridforge import dsl
from gridforge.dsl import (
    Arg,
    Block,
    Cell,
    Ctor,
    Entry,
    Loop,
    Ref,
    arg_kind,
    expand,
    fill,
    load_config,
    merge,
    parse,
)
from gridforge.errors import (
    ConfigError,
    DanglingReference,
    DslSyntaxError,
    DuplicateName,
    UnboundLoopVariable,
)


def expand_text(text):
    return expand(parse(text))


def iterations(config) -> dict:
    """key -> (entry, env) for the entry of each iteration of the loops
    `config` keeps, in the order the unrolled text would declare them."""
    keyed = {}

    def walk(entries, prefix, env):
        for entry in entries:
            if isinstance(entry, Loop):
                for i in range(entry.lo, entry.hi + 1):
                    walk(entry.body, prefix, {**env, entry.var: i})
                continue
            key = prefix + fill(entry.name, env)
            keyed[key] = entry, env
            value = entry.value
            child = value.body if isinstance(value, Ctor) else value if isinstance(value, Block) else None
            if child is not None:
                walk(child.entries, key + "/", env)

    walk(config.root.entries, "", {})
    return keyed


class TestParsing:
    def test_full_deployment_shape(self, paper_config):
        ast = parse(Path(paper_config).read_text())
        assert len(ast.entries) == 1
        root = ast.entries[0]
        assert root.name == "MyDeployment"
        assert isinstance(root.value, Ctor)
        assert root.value.kind == "OpenCCM.Deployment"
        names = [e.name for e in root.value.body.entries]
        assert names == ["nodes", "services"]

    def test_loop_header(self, paper_config):
        ast = parse(Path(paper_config).read_text())
        nodes = ast.entries[0].value.body.entries[0].value
        loops = [e for e in nodes.entries if isinstance(e, Loop)]
        assert len(loops) == 1
        assert (loops[0].var, loops[0].lo, loops[0].hi) == ("i", 0, 500)

    def test_reference_value(self):
        ast = parse("a = K { x = nodes/node-0 }\n")
        ref = ast.entries[0].value.body.entries[0].value
        assert isinstance(ref, Ref)
        assert ref.path == ("nodes", "node-0")

    def test_bare_word_is_zero_arg_constructor(self):
        ast = parse("a = K { shell = SH }\n")
        ctor = ast.entries[0].value.body.entries[0].value
        assert isinstance(ctor, Ctor)
        assert ctor.kind == "SH" and ctor.args == [] and ctor.body is None

    def test_constructor_args_stay_raw(self):
        ast = parse("a = K { u = User(aflissi, ~/.ssh/id_rsa.pub) }\n")
        args = ast.entries[0].value.body.entries[0].value.args
        assert [a.text for a in args] == ["aflissi", "~/.ssh/id_rsa.pub"]
        assert [arg_kind(a.text) for a in args] == ["str", "path"]

    def test_arg_classification(self):
        ast = parse(
            "a = K {\n"
            "  p = Port(22)\n"
            "  r = OARGrid(gdx=300|azur=100|grillon=50|lille=50,~/nodelist)\n"
            "}\n"
        )
        port, oar = [e.value for e in ast.entries[0].value.body.entries]
        assert arg_kind(port.args[0].text) == "int"
        assert [arg_kind(a.text) for a in oar.args] == ["resources", "path"]

    def test_comments_ignored(self):
        ast = parse("# heading\na = K { # trailing\n  x = Port(1)\n}\n")
        assert ast.entries[0].value.body.entries[0].name == "x"

    def test_unclosed_block_reports_position(self):
        with pytest.raises(DslSyntaxError) as err:
            parse("a = K {\n  x = Port(1)\n")
        assert err.value.line >= 2

    def test_garbage_rejected(self):
        with pytest.raises(DslSyntaxError):
            parse("a = = K {}\n")


# Layouts the reader accepts: space between tokens, breaks between entries,
# blanks or line breaks after `(` and around the commas of an argument list.
GAP = st.sampled_from(["", " ", "\t", "\n", "\r\n", "  # note\n", "\n\t"])
BREAK = st.sampled_from([" ", "\t", "\n", "\r\n", " # note\r\n  "])
ARG_SEP = st.sampled_from([",", ", ", ",\t", " ,", "\n,", "\r\n, ", "\n\t,  ", ",\n", ",\r\n    ", ", \n\t"])
NAME = st.sampled_from(["a", "node-%{i}", "x_%{ i }", "b.c", "%{\ti\t}-n", "OpenCCM.DCI_NODE"])
KIND = st.sampled_from(["K", "Port", "Grid5000_NODE", "OpenCCM.NameService"])
REF = st.sampled_from(["nodes/node-0", "nodes/node-%{ i }", "a/b/c"])
ARG = st.sampled_from(["22", "~/x", "/opt/jre", "NM_%{ i }", "gdx=3|azur=1", "a b", "-1"])


@st.composite
def layouts(draw):
    def arg_list(items):
        text = "(" + draw(st.sampled_from(["", " ", "\t", "\n  ", "\r\n\t"])) + items[0]
        for item in items[1:]:
            text += draw(ARG_SEP) + item
        return text + draw(st.sampled_from(["", " ", "\n"])) + ")"

    def block(depth):
        return "{" + draw(GAP) + entries(depth + 1) + draw(GAP) + "}"

    def entry(depth):
        shape = draw(st.sampled_from(["ctor", "ref", "block", "loop"] if depth < 3 else ["ctor", "ref"]))
        if shape == "loop":
            return f"apply{draw(BREAK)}FOR{draw(GAP)}{arg_list(['i', '0', '2'])}{draw(GAP)}{block(depth)}"
        head = draw(NAME) + draw(GAP) + "=" + draw(GAP)
        if shape != "ctor":
            return head + (draw(REF) if shape == "ref" else block(depth))
        text = head + draw(KIND)
        if draw(st.booleans()):
            text += draw(GAP) + arg_list(draw(st.lists(ARG, min_size=1, max_size=3)))
        if depth < 3 and draw(st.booleans()):
            text += draw(GAP) + block(depth)
        return text

    def entries(depth):
        count = draw(st.integers(1 if depth == 0 else 0, 3))
        return "".join(entry(depth) + draw(BREAK) for _ in range(count))

    return draw(GAP) + entries(0)


def _spanned(entries):
    """(node, the source text its span must point at) for every Entry,
    Loop, Ctor, Ref and Arg under `entries`."""
    for entry in entries:
        if isinstance(entry, Loop):
            yield entry, "apply"
            yield from _spanned(entry.body)
            continue
        yield entry, entry.name
        value = entry.value
        if isinstance(value, Ref):
            yield value, "/".join(value.path)
        elif isinstance(value, Block):
            yield from _spanned(value.entries)
        else:
            yield value, value.kind
            for arg in value.args:
                yield arg, arg.text
            if value.body is not None:
                yield from _spanned(value.body.entries)


class TestSpans:
    @given(layouts())
    @settings(max_examples=300)
    def test_every_span_points_at_its_text(self, text):
        lines = text.split("\n")
        for node, written in _spanned(parse(text).entries):
            at = lines[node.span.line - 1][node.span.column - 1 :]
            assert at.startswith(written), (type(node).__name__, written, node.span, text)


class TestRoundTrip:
    def test_unparse_parse_is_identity(self, paper_config, reservation_config):
        for path in (paper_config, reservation_config):
            ast = parse(Path(path).read_text())
            assert parse(unparse(ast)).entries == ast.entries

    def test_unparse_indents_each_loop_body_one_level_in(self):
        text = (
            "app = Kind {\n"
            "  nodes = {\n"
            "    apply FOR(i,0,1) {\n"
            "      apply FOR(j,0,2) {\n"
            "        node-%{i}-%{j} = Node {\n"
            "          host = StaticHost(h-%{i}-%{j})\n"
            "        }\n"
            "      }\n"
            "      peer-%{i} = nodes/node-%{i}-0\n"
            "    }\n"
            "  }\n"
            "}\n"
        )
        assert unparse(parse(text)) == text


LOOP_TEMPLATE = """
app = Kind {{
  items = {{
    apply FOR(i,{lo},{hi}) {{
      item-%{{i}} = Thing(NM_%{{i}})
    }}
  }}
}}
"""


class TestExpansion:
    def test_paper_counts(self, paper_config):
        config = load_config([paper_config])
        assert config.root_name == "MyDeployment"
        keys = iterations(config)
        hostname, nodes = keys["nodes"][0].value.entries  # hostname + one loop of nodes
        assert (hostname.name, nodes.hi - nodes.lo + 1) == ("hostname", 501)
        (servers,) = keys["services/servers"][0].value.body.entries
        assert servers.hi - servers.lo + 1 == 500
        assert sum(key.count("/") == 1 for key in keys if key.startswith("nodes/")) == 1 + 501
        assert sum(key.count("/") == 2 for key in keys if key.startswith("services/servers/")) == 500

    def test_interpolation_reaches_names_args_and_refs(self):
        config = expand_text(
            "app = Kind {\n"
            "  items = {\n"
            "    apply FOR(i,3,4) {\n"
            "      item-%{i} = Thing(NM_%{i}) { peer = items/item-3 }\n"
            "    }\n"
            "  }\n"
            "}\n"
        )
        entry, env = iterations(config)["items/item-4"]
        assert fill(entry.value.args[0].text, env) == "NM_4"
        assert "items/item-3" in iterations(config)

    @given(lo=st.integers(0, 30), hi=st.integers(0, 30))
    @settings(max_examples=60)
    def test_loop_bounds_inclusive(self, lo, hi):
        config = expand_text(LOOP_TEMPLATE.format(lo=lo, hi=hi))
        expected = hi - lo + 1 if hi >= lo else 0
        assert sum(key.startswith("items/") for key in iterations(config)) == expected

    def test_empty_loop_when_reversed(self):
        """The loop is kept as parsed, and runs no iteration."""
        config = expand_text(LOOP_TEMPLATE.format(lo=5, hi=2))
        (loop,) = iterations(config)["items"][0].value.entries
        assert (loop.lo, loop.hi) == (5, 2)
        assert list(iterations(config)) == ["items"]

    def test_nested_loops(self):
        config = expand_text(
            "app = Kind {\n"
            "  grid = {\n"
            "    apply FOR(i,0,1) {\n"
            "      row-%{i} = Row {\n"
            "        apply FOR(j,0,2) {\n"
            "          cell-%{i}-%{j} = Thing(%{j})\n"
            "        }\n"
            "      }\n"
            "    }\n"
            "  }\n"
            "}\n"
        )
        cells = [key for key in iterations(config) if key.startswith("grid/row-1/")]
        assert cells == ["grid/row-1/cell-1-0", "grid/row-1/cell-1-1", "grid/row-1/cell-1-2"]

    def test_unbound_loop_variable(self):
        with pytest.raises(UnboundLoopVariable):
            expand_text("app = K {\n  items = {\n    apply FOR(i,0,1) { x-%{j} = T }\n  }\n}\n")

    def test_duplicate_names_rejected(self):
        with pytest.raises(DuplicateName):
            expand_text("app = K {\n  x = Port(1)\n  x = Port(2)\n}\n")

    def test_loop_collision_with_explicit_entry(self):
        with pytest.raises(DuplicateName):
            expand_text(
                "app = K {\n"
                "  items = {\n"
                "    item-0 = Thing(0)\n"
                "    apply FOR(i,0,1) { item-%{i} = Thing(%{i}) }\n"
                "  }\n"
                "}\n"
            )

    def test_dangling_reference(self):
        with pytest.raises(DanglingReference):
            expand_text("app = K {\n  nodes = {\n    a = T { peer = nodes/missing }\n  }\n}\n")

    def test_root_must_be_single_block(self):
        with pytest.raises(ConfigError):
            expand(parse("a = Port(1)\n"))


PINNED_APP = """
app = Root {
  nodes = {
    apply FOR(i,0,1) {
      node-%{i} = Node(host-%{i}) {
        jre = Jre(/opt/jre)
        peer = nodes/node-%{i}
        apply FOR(j,1,2) {
          disk-%{i}-%{j} = Disk(%{j},/dev/sd%{j})
        }
      }
    }
  }
  services = {
    ns = NameService {
      node = nodes/node-1
    }
  }
}
"""

PINNED_FRAGMENT = """
services = {
  extra = Extra(x) {
    node = nodes/node-0
  }
}
"""


def _pinned_ast():
    return merge(parse(PINNED_APP), parse(PINNED_FRAGMENT))


def _node(i):
    """The hand-expanded `node-%{i}` of PINNED_APP."""
    disks = [
        Entry(f"disk-{i}-{j}", Ctor("Disk", [Arg(str(j)), Arg(f"/dev/sd{j}")]))
        for j in (1, 2)
    ]
    body = Block(
        [
            Entry("jre", Ctor("Jre", [Arg("/opt/jre")])),
            Entry("peer", Ref(("nodes", f"node-{i}"))),
            *disks,
        ]
    )
    return Entry(f"node-{i}", Ctor("Node", [Arg(f"host-{i}")], body))


class TestExpansionPinned:
    """expand() on a config with a nested loop, interpolated names, args and
    reference paths, a loop-invariant subtree and a merged fragment."""

    def test_result_equals_hand_expansion(self):
        """The hand-unrolled text expands to the hand expansion, and the
        loops `expand` keeps fill in, iteration by iteration, to the same
        names, arguments and reference paths."""
        expected = Block(
            [
                Entry("nodes", Block([_node(0), _node(1)])),
                Entry(
                    "services",
                    Block(
                        [
                            Entry("ns", Ctor("NameService", [], Block([Entry("node", Ref(("nodes", "node-1")))]))),
                            Entry("extra", Ctor("Extra", [Arg("x")], Block([Entry("node", Ref(("nodes", "node-0")))]))),
                        ]
                    ),
                ),
            ]
        )
        keys = [
            "nodes",
            "nodes/node-0",
            "nodes/node-0/jre",
            "nodes/node-0/peer",
            "nodes/node-0/disk-0-1",
            "nodes/node-0/disk-0-2",
            "nodes/node-1",
            "nodes/node-1/jre",
            "nodes/node-1/peer",
            "nodes/node-1/disk-1-1",
            "nodes/node-1/disk-1-2",
            "services",
            "services/ns",
            "services/ns/node",
            "services/extra",
            "services/extra/node",
        ]
        unrolled = expand(merge(parse(unroll(PINNED_APP)), parse(PINNED_FRAGMENT)))
        assert (unrolled.root_name, unrolled.root_kind) == ("app", "Root")
        assert unrolled.root == expected
        unrolled_keys = iterations(unrolled)
        assert list(unrolled_keys) == keys

        config = expand(_pinned_ast())
        assert (config.root_name, config.root_kind) == ("app", "Root")
        assert list(iterations(config)) == keys
        for key, (entry, env) in iterations(config).items():
            written = unrolled_keys[key][0]
            assert fill(entry.name, env) == written.name, key
            value = entry.value
            if isinstance(value, Ctor):
                assert [fill(a.text, env) for a in value.args] == [a.text for a in written.value.args], key
            elif isinstance(value, Ref):
                assert tuple(fill(p, env) for p in value.path) == written.value.path, key

    def test_every_entry_is_the_parsed_object(self):
        """expand copies nothing: its root is the parsed root body, and the
        entry of every iteration is the parsed entry, its cells compiled
        once as they were read."""
        ast = _pinned_ast()
        config = expand(ast)
        assert config.root is ast.entries[0].value.body
        parsed = {id(node) for node, _ in _spanned(ast.entries)}
        keys = iterations(config)
        assert all(id(entry) in parsed for entry, _ in keys.values())
        loop = ast.entries[0].value.body.entries[0].value.entries[0]
        node = keys["nodes/node-0"][0]
        assert node is keys["nodes/node-1"][0] is loop.body[0]
        assert isinstance(node.name, Cell) and node.name.parts == ("node-", "i", "")
        assert keys["nodes/node-0/peer"][0] is keys["nodes/node-1/peer"][0] is loop.body[0].value.body.entries[1]

    def test_parse_tree_unchanged_by_expand(self):
        ast = _pinned_ast()
        before = copy.deepcopy(ast)
        expand(ast)
        assert ast == before
        assert unparse(ast) == unparse(before)

    def test_expanded_config_and_parse_tree_copy_and_pickle(self):
        """Deep copies and unpickled copies of a tree that holds cells equal
        it, and their cells fill in as the originals do."""
        ast = parse("app = K {\n  items = {\n    apply FOR(i,0,1) { x-%{i} = T(a-%{i}) }\n  }\n}\n")
        config = expand(ast)
        for tree in (ast, config):
            for copied in (copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
                assert copied == tree
        copied = pickle.loads(pickle.dumps(config))
        (loop,) = copied.root.entries[0].value.entries
        name, arg = loop.body[0].name, loop.body[0].value.args[0].text
        assert isinstance(name, Cell) and name.parts == ("x-", "i", "")
        assert (fill(name, {"i": 1}), fill(arg, {"i": 1})) == ("x-1", "a-1")

    def test_unbound_variable_position_and_message(self):
        cases = {
            "name": ("    apply FOR(i,0,1) {\n      x-%{j} = T\n    }\n", 4, 7),
            "argument": ("    apply FOR(i,0,1) {\n      x-%{i} = T(a,%{j})\n    }\n", 4, 20),
            "path": ("    apply FOR(i,0,1) {\n      x-%{i} = T { p = items/y-%{j} }\n    }\n", 4, 24),
        }
        for where, (loop, line, column) in cases.items():
            with pytest.raises(UnboundLoopVariable) as err:
                expand_text("app = K {\n  items = {\n" + loop + "    y-0 = T\n  }\n}\n")
            assert err.value.args[0] == "%{j} is not bound by any enclosing FOR", where
            assert (err.value.line, err.value.column) == (line, column), where

    def test_unbound_variable_reported_ahead_of_an_earlier_duplicate_name(self):
        """Every unbound variable is refused before any name is checked."""
        with pytest.raises(UnboundLoopVariable) as err:
            expand_text(
                "app = K {\n"
                "  items = {\n"
                "    x = T\n"
                "    x = T\n"
                "    apply FOR(i,0,1) { y-%{j} = T }\n"
                "  }\n"
                "}\n"
            )
        assert err.value.args[0] == "%{j} is not bound by any enclosing FOR"
        assert (err.value.line, err.value.column) == (5, 24)

    def test_unbound_variable_in_name_then_argument_then_body(self):
        """Within one entry the name is checked first, then its arguments or
        path, then its body."""
        cases = [
            ("x-%{j} = T(%{k}) { p = items/y-%{m} }", "j", 24),
            ("x-%{i} = T(%{k}) { p = items/y-%{m} }", "k", 35),
            ("x-%{i} = T(%{i}) { p = items/y-%{m} }", "m", 47),
            ("x-%{i} = items/y-%{m}/z-%{k}", "m", 33),
        ]
        for body, var, column in cases:
            with pytest.raises(UnboundLoopVariable) as err:
                expand_text("app = K {\n  items = {\n    apply FOR(i,0,1) { " + body + " }\n  }\n}\n")
            assert err.value.args[0] == f"%{{{var}}} is not bound by any enclosing FOR", body
            assert (err.value.line, err.value.column) == (3, column), body

    def test_loop_that_runs_no_iteration_is_not_checked(self):
        """An unbound variable, a duplicate name and a dangling reference in
        a loop that runs no iteration are accepted, as the loop is absent."""
        for body in ("x-%{j} = T", "d = T\nd = T", "r = T { p = items/missing }", "q = items/missing-%{i}"):
            config = expand_text("app = K {\n  items = {\n    apply FOR(i,1,0) {\n" + body + "\n    }\n  }\n}\n")
            assert list(iterations(config)) == ["items"], body

    def test_duplicate_name_position_and_message(self):
        with pytest.raises(DuplicateName) as err:
            expand_text(
                "app = K {\n"
                "  items = {\n"
                "    apply FOR(i,0,1) {\n"
                "      item-%{i} = Thing { jre = Jre(/opt/jre) }\n"
                "    }\n"
                "    item-1 = Thing\n"
                "  }\n"
                "}\n"
            )
        assert err.value.args[0] == "items/item-1 declared twice"
        assert (err.value.line, err.value.column) == (6, 5)

    def test_duplicate_name_reported_ahead_of_an_earlier_dangling_reference(self):
        """References are resolved once every name is keyed, so a duplicate
        anywhere is reported, even after a dangling reference in the file."""
        with pytest.raises(DuplicateName) as err:
            expand_text(
                "app = K {\n"
                "  nodes = {\n"
                "    a = T { peer = nodes/missing }\n"
                "    b = T\n"
                "    b = T\n"
                "  }\n"
                "}\n"
            )
        assert err.value.args[0] == "nodes/b declared twice"
        assert (err.value.line, err.value.column) == (5, 5)

    def test_dangling_reference_message(self):
        with pytest.raises(DanglingReference) as err:
            expand_text(
                "app = K {\n"
                "  nodes = {\n"
                "    apply FOR(i,0,1) {\n"
                "      n-%{i} = T { peer = nodes/n-%{i}-spare }\n"
                "    }\n"
                "  }\n"
                "}\n"
            )
        assert err.value.args[0] == "reference nodes/n-0-spare resolves to nothing"
        assert (err.value.line, err.value.column) == (4, 27)  # where the reference is written
        assert str(err.value) == "4:27: reference nodes/n-0-spare resolves to nothing"


WRITTEN = ["n-1", "n11", "n-12", "n--1", "n-01", "x", "m-0"]  # names and reference tails no loop fills in
FILLED = ["n-%{i}", "m-%{i}", "s-%{i}"] * 4 + ["n%{i}", "n1%{i}", "n-%{i}-x", "n-%{i}%{i}"]
INNER = ["n-%{j}", "n-%{i}-%{j}", "n-%{i}"]


@st.composite
def looped_texts(draw):
    """A block of entries, some in loops (one inside another at times),
    whose names and references may collide or dangle in some iteration."""

    def entry(name, tails):
        tail = draw(st.sampled_from([None, *tails, "n-1/p", "n-%{i}/p"]))
        ref = f" q = items/{tail}" if tail else ""
        return f"{name} = T {{ p = T{ref} }}"

    def entries(names, tails):
        written = draw(st.lists(st.sampled_from(names), min_size=1, max_size=2))
        return " ".join(entry(name, tails) for name in dict.fromkeys(written))

    lines = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.integers(0, 3)) == 0:
            lines.append(entries(WRITTEN, WRITTEN))
            continue
        body = entries(FILLED, FILLED + WRITTEN)
        if draw(st.integers(0, 3)) == 0:
            body += f" apply FOR(j,{draw(st.integers(-1, 2))},{draw(st.integers(-1, 2))}) {{ {entries(INNER, INNER)} }}"
        lo = draw(st.integers(-2, 12))
        lines.append(f"apply FOR(i,{lo},{lo + draw(st.integers(-1, 12))}) {{ {body} }}")
    return "app = K {\n  items = {\n" + "".join(f"    {line}\n" for line in lines) + "  }\n}\n"


def _refusal(text, at=True):
    try:
        expand(parse(text))
    except ConfigError as err:
        return (type(err).__name__, err.args[0], *((err.line, err.column) if at else ()))
    return None


class TestLoopNames:
    """expand checks names and references once per loop where it can show
    them sound, and iteration by iteration where it cannot."""

    @given(looped_texts())
    @settings(max_examples=1000, deadline=None)
    def test_checked_as_each_iteration_is(self, text):
        """The same refusal, at the same place, as the check of every
        iteration, and as the hand-unrolled text (same class and message)."""
        refusal = _refusal(text)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dsl._Names, "shown", lambda self, root: self.block(root, {}) or False)
            assert _refusal(text) == refusal, text
        assert _refusal(unroll(text), at=False) == (refusal and refusal[:2]), text

    @pytest.mark.parametrize(
        "body, shown",
        [
            ("apply FOR(i,0,9) { n-%{i} = T { p = T } }\nm = T { q = items/n-9/p }", True),
            ("apply FOR(i,0,9) { n-%{i} = T }\napply FOR(i,10,19) { n-%{i} = T }", True),
            ("apply FOR(i,0,9) { n-%{i} = T }\napply FOR(i,1,9) { s-%{i} = T { q = items/n-%{i} } }", True),
            ("apply FOR(i,0,9) { n-%{i} = T }\nn-10 = T\nn-01 = T", True),
            ("apply FOR(i,0,1) { apply FOR(j,0,1) { n-%{i}-%{j} = T } }", False),
            ("apply FOR(i,0,9) { n-%{i} = T }\napply FOR(i,9,12) { n-%{i} = T }", False),
            ("apply FOR(i,0,9) { n%{i} = T }\napply FOR(i,0,9) { n1%{i} = T }", False),
            ("apply FOR(i,0,9) { n-%{i} = T }\napply FOR(i,0,10) { s-%{i} = T { q = items/n-%{i} } }", False),
        ],
    )
    def test_shown_for_the_whole_loop(self, body, shown):
        """Which names and references are shown sound once per loop; the
        others are checked per iteration (the last three hold a duplicate
        name, a duplicate name and a dangling reference)."""
        block = parse("app = K {\n  items = {\n" + body + "\n  }\n}\n").entries[0].value.body
        assert dsl._Names().shown(block) == shown


class TestMerge:
    def test_fragment_appends_into_matching_blocks(self, paper_config, reservation_config):
        config = load_config([paper_config, reservation_config])
        keys = iterations(config)
        nodes = keys["nodes"][0].value
        written = [e.name if isinstance(e, Entry) else e.hi - e.lo + 1 for e in nodes.entries]
        assert written == ["hostname", 501, "oar_server"]  # hostname, a loop of 501 nodes, oar_server
        assert "nodes/oar_server" in keys
        assert "services/reservation" in keys

    def test_merge_preserves_primary_order(self, paper_config, reservation_config):
        merged = merge(
            parse(Path(paper_config).read_text()), parse(Path(reservation_config).read_text())
        )
        names = [e.name for e in merged.entries[0].value.body.entries]
        assert names == ["nodes", "services"]

    def test_fragment_with_new_block_is_added(self):
        primary = parse("app = K {\n  nodes = {\n    a = T\n  }\n}\n")
        fragment = parse("extras = {\n  b = T\n}\n")
        merged = merge(primary, fragment)
        names = [e.name for e in merged.entries[0].value.body.entries]
        assert names == ["nodes", "extras"]
