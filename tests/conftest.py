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
