"""Package hygiene: the public names resolve, and no behaviour is a stand-in."""

import importlib
import inspect
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
