"""Refused configurations: the error type, its message and its position.

One row per refusal of the parser, of `merge`, of `expand` and of the
generator, each on the smallest text that reaches it.  Line and column
are 1-based, and every refusal is placed in the text: one about the root
block at the first entry in the way, or at the first entry when there is
no root block.
"""

import pytest

from gridforge.assembly import generate
from gridforge.dsl import expand, merge, parse
from gridforge.errors import ArityMismatch, ConfigError, DslSyntaxError, UnknownKind


def node(role: str) -> str:
    """A configuration whose one node declares `role`, written on line 4."""
    return "app = K {\n  nodes = {\n    n = Grid5000_NODE {\n      " + role + "\n    }\n  }\n}\n"


PARSE, MERGE, FRAGMENT, GENERATE = "parse", "merge", "fragment", "generate"

# stage -> what it runs on the text: a fragment is merged into a root of its own
STAGES = {
    PARSE: lambda text, registry: parse(text),
    MERGE: lambda text, registry: merge(parse(text)),
    FRAGMENT: lambda text, registry: merge(parse("app = K {\n  nodes = {\n  }\n}\n"), parse(text)),
    GENERATE: lambda text, registry: generate(expand(parse(text)), registry),
}

REFUSALS = {
    # parser
    "missing =": (PARSE, "app K {\n}\n", DslSyntaxError, "expected '='", 1, 5),
    "unterminated %{": (PARSE, "app = K {\n  x-%{i", DslSyntaxError, "unterminated %{...}", 2, 5),
    "unterminated arguments": (PARSE, "app = K {\n  x = T(a,b\n}\n", DslSyntaxError, "unterminated argument list", 2, 8),
    "empty configuration": (PARSE, "# nothing\n", DslSyntaxError, "empty configuration", 2, 1),
    "slash in an entry name": (PARSE, "app = K {\n  a/b = T\n}\n", DslSyntaxError, "entry name 'a/b' may not contain '/'", 2, 6),
    "apply without FOR": (
        PARSE, "app = K {\n  apply EACH(i,0,1) {\n  }\n}\n", DslSyntaxError, "expected FOR after apply, got 'EACH'", 2, 13,
    ),
    "FOR with two arguments": (PARSE, "app = K {\n  apply FOR(i,0) {\n  }\n}\n", DslSyntaxError, "FOR takes (var, lo, hi)", 2, 17),
    "FOR bounds not integers": (
        PARSE, "app = K {\n  apply FOR(i,0,n) {\n  }\n}\n", DslSyntaxError, "FOR bounds must be integers", 2, 17,
    ),
    "FOR lower bound not an integer, spaced": (
        PARSE, "app = K {\n  apply FOR(i, x, 3) {\n  }\n}\n", DslSyntaxError, "FOR bounds must be integers", 2, 16,
    ),
    "FOR lower bound not an integer, after a line break": (
        PARSE, "app = K {\n  apply FOR(i,\n    x, 2) {\n  }\n}\n", DslSyntaxError, "FOR bounds must be integers", 3, 5,
    ),
    # merge
    "no single root": (MERGE, "nodes = {\n  a = T\n}\n", ConfigError, "primary configuration needs exactly one root block", 1, 1),
    "loop at the top level": (MERGE, "apply FOR(i,0,1) {\n}\n", ConfigError, "primary configuration needs exactly one root block", 1, 1),
    "two roots": (MERGE, "a = K {\n}\nb = K {\n}\n", ConfigError, "primary configuration needs exactly one root block", 3, 1),
    "fragment entry not a block": (FRAGMENT, "x = Port(1)\n", ConfigError, "fragment entry x must be a plain block", 1, 1),
    # expansion
    "no root block": (GENERATE, "x = T\n", ConfigError, "configuration needs exactly one root block `Name = Kind { ... }`", 1, 1),
    "entry beside the root": (
        GENERATE, "app = K {\n}\nx = T\n", ConfigError, "configuration needs exactly one root block `Name = Kind { ... }`", 3, 1,
    ),
    # generator
    "top-level entry not a block": (GENERATE, "app = K {\n  x = Port(1)\n}\n", ConfigError, "top-level entry x must be a block", 2, 3),
    "reference directly in a block": (
        GENERATE,
        "app = K {\n  nodes = {\n    a = StaticHost(h)\n    b = nodes/a\n  }\n}\n",
        ConfigError,
        "nodes/b: references are only valid inside component bodies",
        4,
        5,
    ),
    "nested plain block": (
        GENERATE,
        "app = K {\n  nodes = {\n    inner = {\n      a = StaticHost(h)\n    }\n  }\n}\n",
        ConfigError,
        "nodes/inner: nested plain blocks are not supported",
        3,
        5,
    ),
    "group outside services": (
        GENERATE, "app = K {\n  nodes = {\n    g = ParallelRunner\n  }\n}\n", ConfigError,
        "nodes/g: ParallelRunner groups belong in services", 3, 5,
    ),
    "nested root kind": (
        GENERATE, "app = K {\n  nodes = {\n    d = OpenCCM.Deployment\n  }\n}\n", ConfigError,
        "nodes/d: OpenCCM.Deployment cannot be nested", 3, 5,
    ),
    "path for a resources parameter": (
        GENERATE, "app = K {\n  services = {\n    r = OARGrid(/tmp/x,~/nodelist)\n  }\n}\n", ArityMismatch,
        "OARGrid: parameter request wants key=count resources", 3, 17,
    ),
    "plain block as a role": (
        GENERATE, node("jre = {\n        a = StaticHost(h)\n      }"), ConfigError,
        "nodes/n/jre: plain blocks are not valid node roles", 4, 7,
    ),
    "nested body as a role": (
        GENERATE, node("jre = Jre(/opt/jre) {\n        x = StaticHost(h)\n      }"), ConfigError,
        "nodes/n/jre: nested bodies are not supported here", 4, 7,
    ),
    "group member not a constructor": (
        GENERATE,
        "app = K {\n  nodes = {\n    a = StaticHost(h)\n  }\n  services = {\n    g = ParallelRunner {\n      m = nodes/a\n    }\n  }\n}\n",
        ConfigError,
        "services/g: group members must be constructors",
        7,
        7,
    ),
    # unimplemented protocols and shells are not kinds
    "Telnet protocol": (GENERATE, node("protocol = Telnet"), UnknownKind, "unknown kind 'Telnet' for protocol", 4, 18),
    "CSH shell": (GENERATE, node("shell = CSH"), UnknownKind, "unknown kind 'CSH' for shell", 4, 15),
    "WindowsCmd shell": (GENERATE, node("shell = WindowsCmd"), UnknownKind, "unknown kind 'WindowsCmd' for shell", 4, 15),
}


@pytest.mark.parametrize("case", REFUSALS, ids=list(REFUSALS))
def test_refusal(case, registry):
    stage, text, error, message, line, column = REFUSALS[case]
    with pytest.raises(ConfigError) as err:
        STAGES[stage](text, registry)
    assert type(err.value) is error
    assert err.value.args[0] == message
    assert (err.value.line, err.value.column) == (line, column)
