"""Seeded configuration texts for the benchmark workloads.

Written here rather than taken from the library's own generator or the test
data, so that the benchmark's inputs stay the same when those change.  The
seed picks names, paths and how a reservation is split across sites; it never
changes the number of nodes or services, so every seed does the same amount
of work.
"""

from __future__ import annotations

import random

FANOUT_NODES = 300  # short enough for ~20 cycles a run, so the run medians hold still
PAPER_NODES = 150  # the planner still takes most of each command; ~17 cycles a run
STEADY_NODES = 1000

_SITES = ("gdx", "azur", "grillon", "lille")


def _paths(rng: random.Random) -> dict:
    tag = rng.randrange(100, 1000)
    return {
        "jre": f"/opt/java/jre-1.5.{tag}",
        "openccm": f"/opt/OpenCCM-0.{tag}",
        "orb": f"/opt/CORBA/JacORB-2.{tag}",
        "dci": f"DCI{tag}",
        "user": f"user{tag}",
    }


def _split(total: int, rng: random.Random) -> str:
    """`site=n|...` request over the four sites, summing to `total`."""
    cuts = sorted(rng.sample(range(1, total), len(_SITES) - 1))
    counts = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
    return "|".join(f"{site}={n}" for site, n in zip(_SITES, counts))


def _servers(lo: int, hi: int) -> list[str]:
    return [
        "    servers = ParallelRunner {",
        f"      apply FOR(i,{lo},{hi}) {{",
        "        server-%{i} = OpenCCM.DCI_NODE(NM_%{i}) {",
        "          dci = services/dci",
        "          node = nodes/node-%{i}",
        "        }",
        "      }",
        "    }",
    ]


def _text(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def fanout_static(seed: int, n: int = FANOUT_NODES) -> list[tuple[str, str]]:
    """Static-host fleet: JRE and OpenCCM on every node, naming service and
    manager on one seeded node, one component server per node."""
    rng = random.Random(f"fanout-static:{seed}")
    p = _paths(rng)
    host = rng.randrange(n)
    lines = [
        "Fanout = OpenCCM.Deployment {",
        "  nodes = {",
        f"    apply FOR(i,0,{n - 1}) {{",
        "      node-%{i} = Grid5000_NODE {",
        "        hostname = StaticHost(simnode-%{i})",
        f"        jre = Jre({p['jre']})",
        f"        openccm = OpenCCM({p['openccm']},{p['orb']})",
        "      }",
        "    }",
        "  }",
        "  services = {",
        "    ns = OpenCCM.NameService {",
        f"      node = nodes/node-{host}",
        "    }",
        f"    dci = OpenCCM.DCIManager({p['dci']}) {{",
        "      ns = services/ns",
        f"      node = nodes/node-{host}",
        "    }",
        *_servers(0, n - 1),
        "  }",
        "}",
    ]
    return [("fanout.gdf", _text(lines))]


def paper_reserved(seed: int, n: int = PAPER_NODES) -> list[tuple[str, str]]:
    """The paper's deployment at `n` nodes: dynamic hostnames from a
    nodelist, full per-node stack, and a reservation kept in a second
    fragment that is merged after the application and grants >= n slots."""
    rng = random.Random(f"paper-reserved:{seed}")
    p = _paths(rng)
    granted = n + rng.randrange(0, 8)
    app = [
        "Paper = OpenCCM.Deployment {",
        "  nodes = {",
        "    hostname = DynamicHost(~/nodelist)",
        f"    apply FOR(i,0,{n - 1}) {{",
        "      node-%{i} = Grid5000_NODE {",
        "        hostname = nodes/hostname",
        "        protocol = SSH",
        "        port = Port(22)",
        "        shell = SH",
        f"        user = User({p['user']}, ~/.ssh/id_rsa.pub)",
        f"        jre = Jre({p['jre']})",
        f"        openccm = OpenCCM({p['openccm']},{p['orb']})",
        "      }",
        "    }",
        "  }",
        "  services = {",
        "    ns = OpenCCM.NameService {",
        "      node = nodes/node-0",
        "    }",
        f"    dci = OpenCCM.DCIManager({p['dci']}) {{",
        "      ns = services/ns",
        "      node = nodes/node-0",
        "    }",
        *_servers(1, n - 1),
        "  }",
        "}",
    ]
    reservation = [
        "nodes = {",
        "  oar_server = Grid5000_NODE {",
        "    hostname = StaticHost(oar.lille.grid5000.fr)",
        "  }",
        "}",
        "services = {",
        "  reservation =",
        f"    OARGrid({_split(granted, rng)},~/nodelist) {{",
        "    node = nodes/oar_server",
        "  }",
        "}",
    ]
    return [("paper.gdf", _text(app)), ("reservation.gdf", _text(reservation))]


def redeploy_steady(seed: int, n: int = STEADY_NODES) -> list[tuple[str, str]]:
    """Reserved fleet with a JRE per node and only the reservation and a
    naming service as services, declared in one file."""
    rng = random.Random(f"redeploy-steady:{seed}")
    p = _paths(rng)
    host = rng.randrange(n)
    lines = [
        "Steady = OpenCCM.Deployment {",
        "  nodes = {",
        "    hostname = DynamicHost(~/nodelist)",
        "    frontend = Grid5000_NODE {",
        "      hostname = StaticHost(frontend.example)",
        "    }",
        f"    apply FOR(i,0,{n - 1}) {{",
        "      node-%{i} = Grid5000_NODE {",
        "        hostname = nodes/hostname",
        f"        jre = Jre({p['jre']})",
        "      }",
        "    }",
        "  }",
        "  services = {",
        f"    reservation = OARGrid({_split(n, rng)},~/nodelist) {{",
        "      node = nodes/frontend",
        "    }",
        "    ns = OpenCCM.NameService {",
        f"      node = nodes/node-{host}",
        "    }",
        "  }",
        "}",
    ]
    return [("steady.gdf", _text(lines))]
