"""Scaling measurements on the simulated grid.

Generates an N-node middleware configuration, runs the full pipeline,
and reports the framework overhead (configuration loading, generation
and planning, real milliseconds) separately from the effective
deployment time (virtual milliseconds under the sim clock).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from .pipeline import build_from_text
from .runtime import ExecOptions
from .simgrid import SimClockConfig


def middleware_config(n: int) -> str:
    """N-node deployment: naming service on node-0, manager on node-0,
    one component server per remaining node, in a ParallelRunner."""
    if n < 1:
        raise ValueError("need at least one node")
    lines = [
        "Bench = OpenCCM.Deployment {",
        "  nodes = {",
        f"    apply FOR(i,0,{n - 1}) {{",
        "      node-%{i} = Grid5000_NODE {",
        "        hostname = StaticHost(simnode-%{i})",
        "        jre = Jre(/opt/java/jre)",
        "        openccm = OpenCCM(/opt/openccm,/opt/orb)",
        "      }",
        "    }",
        "  }",
        "  services = {",
        "    ns = OpenCCM.NameService {",
        "      node = nodes/node-0",
        "    }",
    ]
    if n >= 2:
        lines += [
            "    dci = OpenCCM.DCIManager(BenchDCI) {",
            "      ns = services/ns",
            "      node = nodes/node-0",
            "    }",
            "    servers = ParallelRunner {",
            f"      apply FOR(i,1,{n - 1}) {{",
            "        server-%{i} = OpenCCM.DCI_NODE(NM_%{i}) {",
            "          dci = services/dci",
            "          node = nodes/node-%{i}",
            "        }",
            "      }",
            "    }",
        ]
    lines += ["  }", "}"]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ScalingPoint:
    n_nodes: int
    overhead_ms: float
    effective_ms: float


def measure_one(n: int, max_workers: int = 10, sim_config: SimClockConfig | None = None) -> ScalingPoint:
    deployment = build_from_text(middleware_config(n), transport="sim", sim_config=sim_config)
    report = deployment.execute(ExecOptions(max_workers=max_workers))
    return ScalingPoint(n, deployment.overhead_ms, report.total_ms)


def measure_scaling(
    sizes: list[int],
    max_workers: int = 10,
    sim_config: SimClockConfig | None = None,
) -> list[ScalingPoint]:
    return [measure_one(n, max_workers, sim_config) for n in sizes]


def to_csv(points: list[ScalingPoint]) -> str:
    lines = ["n_nodes,overhead_ms,effective_ms"]
    for p in points:
        lines.append(f"{p.n_nodes},{p.overhead_ms:.3f},{p.effective_ms:.3f}")
    return "\n".join(lines) + "\n"


def r_squared(xs: list[float], ys: list[float]) -> float:
    """Coefficient of determination of the least-squares line fit."""
    if len(set(ys)) == 1:
        return 1.0
    return statistics.correlation(xs, ys) ** 2
