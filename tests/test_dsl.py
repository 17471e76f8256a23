"""Configuration language: parsing, loop expansion, merging, diagnostics."""

import copy
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridforge.dsl import (
    Arg,
    Block,
    Ctor,
    Entry,
    Loop,
    Ref,
    expand,
    load_config,
    merge,
    parse,
    unparse,
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
        assert [a.kind for a in args] == ["str", "path"]

    def test_arg_classification(self):
        ast = parse(
            "a = K {\n"
            "  p = Port(22)\n"
            "  r = OARGrid(gdx=300|azur=100|grillon=50|lille=50,~/nodelist)\n"
            "}\n"
        )
        port, oar = [e.value for e in ast.entries[0].value.body.entries]
        assert port.args[0].kind == "int" and port.args[0].value == 22
        assert [a.kind for a in oar.args] == ["resources", "path"]

    def test_comments_ignored(self):
        ast = parse("# heading\na = K { # trailing\n  x = Port(1)\n}\n")
        assert ast.entries[0].value.body.entries[0].name == "x"

    def test_unclosed_block_reports_position(self):
        with pytest.raises(DslSyntaxError) as err:
            parse("a = K {\n  x = Port(1)\n")
        assert err.value.line >= 2
        assert err.value.expected

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
        nodes = config.table["nodes"].value
        assert len(nodes.entries) == 1 + 501  # hostname + unrolled nodes
        servers = config.table["services/servers"].value.body
        assert len(servers.entries) == 500

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
        entry = config.table["items/item-4"]
        assert entry.value.args[0].text == "NM_4"
        assert "items/item-3" in config.table

    @given(lo=st.integers(0, 30), hi=st.integers(0, 30))
    @settings(max_examples=60)
    def test_loop_bounds_inclusive(self, lo, hi):
        config = expand_text(LOOP_TEMPLATE.format(lo=lo, hi=hi))
        expected = hi - lo + 1 if hi >= lo else 0
        assert len(config.table["items"].value.entries) == expected

    def test_empty_loop_when_reversed(self):
        config = expand_text(LOOP_TEMPLATE.format(lo=5, hi=2))
        assert config.table["items"].value.entries == []

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
        row = config.table["grid/row-1"].value.body
        assert [e.name for e in row.entries] == ["cell-1-0", "cell-1-1", "cell-1-2"]

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
        config = expand(_pinned_ast())
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
        assert (config.root_name, config.root_kind) == ("app", "Root")
        assert config.root == expected
        assert list(config.table) == [
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

    def test_loop_invariant_subtree_is_shared(self):
        ast = _pinned_ast()
        loop = ast.entries[0].value.body.entries[0].value.entries[0]
        source_jre = loop.body[0].value.body.entries[0]
        config = expand(ast)
        jre_0 = config.table["nodes/node-0/jre"]
        assert jre_0 is config.table["nodes/node-1/jre"] is source_jre
        # What varies is copied, per iteration.
        assert config.table["nodes/node-0"] is not config.table["nodes/node-1"]
        assert config.table["nodes/node-0/peer"] is not loop.body[0].value.body.entries[1]

    def test_parse_tree_unchanged_by_expand(self):
        ast = _pinned_ast()
        before = copy.deepcopy(ast)
        expand(ast)
        assert ast == before
        assert unparse(ast) == unparse(before)

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


class TestMerge:
    def test_fragment_appends_into_matching_blocks(self, paper_config, reservation_config):
        config = load_config([paper_config, reservation_config])
        nodes = config.table["nodes"].value
        assert len(nodes.entries) == 1 + 501 + 1  # hostname, loop, oar_server
        assert "nodes/oar_server" in config.table
        assert "services/reservation" in config.table

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
