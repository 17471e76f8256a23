"""Shared fixtures: kind registry, sample configurations, seeded sim homes."""

import json
import pathlib

import pytest

from gridforge.personalities import default_registry

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def registry():
    return default_registry()


@pytest.fixture
def paper_config():
    """The 501-node middleware deployment description."""
    return str(DATA / "paper.gdf")


@pytest.fixture
def reservation_config():
    """The grid reservation fragment (500 nodes across four sites)."""
    return str(DATA / "reservation.gdf")


@pytest.fixture
def sim_home(tmp_path, monkeypatch):
    """Point HOME at a tmpdir so ~/nodelist lands somewhere disposable."""
    monkeypatch.setenv("HOME", str(tmp_path))
    return tmp_path


def seed_nodelist(home: pathlib.Path, count: int, prefix: str = "simnode-") -> pathlib.Path:
    path = home / "nodelist"
    path.write_text("".join(f"{prefix}{i}\n" for i in range(count)))
    return path


def record_decodes(monkeypatch) -> list:
    """Every value a JSON decoder returns from now on, json.loads included."""
    decoded = []
    raw_decode = json.JSONDecoder.raw_decode

    def recording(self, s, idx=0):
        value, end = raw_decode(self, s, idx)
        decoded.append(value)
        return value, end

    monkeypatch.setattr(json.JSONDecoder, "raw_decode", recording)
    return decoded


def count_decoded(values, is_counted) -> int:
    """How many values, nested ones included, `is_counted` accepts."""
    count, pending = 0, list(values)
    while pending:
        value = pending.pop()
        count += bool(is_counted(value))
        if isinstance(value, dict):
            pending.extend(value.values())
        elif isinstance(value, list):
            pending.extend(value)
    return count


def sorted_children(asm, composite) -> list[str]:
    """The reference child order, read from the bindings by component id:
    each round takes, in declaration order, every child whose servers among
    the composite's children are placed, or the first remaining child when
    none is (a cycle inside the node).  Generation fixes the same order on
    child indices."""
    members = list(composite.children.values())
    member_set = set(members)
    deps = {m: {b.server for b in asm.components[m].bound.values() if b.server in member_set} for m in members}
    order: list[str] = []
    placed: set[str] = set()
    remaining = members
    while remaining:
        ready = [m for m in remaining if deps[m] <= placed] or remaining[:1]
        order.extend(ready)
        placed.update(ready)
        remaining = [m for m in remaining if m not in placed]
    return order


def fix_order(asm, composite_id: str) -> None:
    """Give a composite built by hand the child order generation would fix:
    its children's positions in `sorted_children`'s order."""
    composite = asm.composites[composite_id]
    position = {cid: i for i, cid in enumerate(composite.children.values())}
    composite.order = tuple(position[cid] for cid in sorted_children(asm, composite))
