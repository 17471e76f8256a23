"""Package hygiene: the public names resolve, no behaviour is a stand-in,
and `src/` defines nothing that only tests use."""

import ast
import importlib
import inspect
import pathlib
import pkgutil

import pytest

import gridforge
from gridforge.core import Behavior

MODULES = [
    importlib.import_module(f"gridforge.{info.name}")
    for info in pkgutil.iter_modules(gridforge.__path__)
]


@pytest.mark.parametrize("name", gridforge.__all__)
def test_public_name_resolves(name):
    assert getattr(gridforge, name) is not None


def behavior_subclasses():
    return [
        obj
        for module in MODULES
        for obj in vars(module).values()
        if inspect.isclass(obj)
        and issubclass(obj, Behavior)
        and obj is not Behavior
        and obj.__module__ == module.__name__
    ]


def test_behaviors_found():
    assert len(behavior_subclasses()) >= 5


@pytest.mark.parametrize("cls", behavior_subclasses(), ids=lambda c: c.__name__)
def test_behavior_defines_a_method(cls):
    """A kind whose actions are all no-ops runs the base Behavior; a
    subclass that only stores its arguments adds nothing.  A behaviour
    performs its actions through `act`, so a method named after one action
    would never be called."""
    methods = [
        name
        for name, value in vars(cls).items()
        if inspect.isfunction(value) and name != "__init__"
    ]
    assert methods, f"{cls.__name__} defines no method besides __init__"
    hooks = [name for name in ("install", "start", "stop", "uninstall") if name in methods]
    assert not hooks, f"{cls.__name__} defines {hooks}, which no action calls; define act instead"


# Members kept though no `src/` code reads them yet, each for a ROADMAP
# item that gives it a reader: `core.replay` (item 2) and
# `SimNode.observable` (item 19).
AWAITING_A_READER = {"replay", "observable"}


def test_src_defines_no_test_only_member():
    """Every function and class `src/gridforge` defines is used by name
    somewhere in `src/`; a test oracle lives in `tests/oracles.py`.  An
    import does not count as a use, so a name that is only exported is
    still reported."""
    defined, used = set(), set()
    for path in pathlib.Path(gridforge.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.add(node.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert defined - used == AWAITING_A_READER
