"""End-to-end wiring: configuration files in, executable deployment out.

Bundles the parse -> expand -> generate -> validate -> plan chain and the
transport/clock pairing for each backend.  generate() already builds the
live assembly the executor drives.  The loading, generation and planning
cost is measured here (overhead), separate from the effective deployment
time the executor reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import runtime
from .assembly import DeploymentPlan, generate, plan, plan_inverse, validate
from .core import Assembly
from .dsl import expand, load_config, parse
from .errors import ValidationFailed
from .personalities import Registry, default_registry
from .simgrid import Fleet, SimClockConfig, VirtualClock, WallClock
from .transports import LocalTransport, SimTransport, SshTransport, Transport


@dataclass
class DeployContext:
    assembly: Assembly
    transport: Transport
    clock: object
    fleet: Fleet | None = None


@dataclass
class Deployment:
    """Everything a caller needs to inspect or run one configuration."""

    plan: DeploymentPlan
    ctx: DeployContext
    overhead_ms: float

    @property
    def assembly(self) -> Assembly:
        return self.ctx.assembly

    def execute(self, options: runtime.ExecOptions | None = None) -> runtime.ExecutionReport:
        return runtime.execute(self.plan, self.ctx, options)

    def execute_inverse(self, options: runtime.ExecOptions | None = None) -> runtime.ExecutionReport:
        return runtime.execute(plan_inverse(self.plan), self.ctx, options)


def make_context(
    assembly: Assembly,
    transport: str = "sim",
    fleet: Fleet | None = None,
    sim_config: SimClockConfig | None = None,
) -> DeployContext:
    if transport == "sim":
        fleet = fleet if fleet is not None else Fleet()
        clock = VirtualClock()
        return DeployContext(assembly, SimTransport(fleet, clock, sim_config), clock, fleet)
    if transport == "local":
        return DeployContext(assembly, LocalTransport(), WallClock())
    if transport == "ssh":
        return DeployContext(assembly, SshTransport(), WallClock())
    raise ValueError(f"unknown transport {transport!r}")


def build(
    paths: list[str],
    transport: str = "sim",
    registry: Registry | None = None,
    fleet: Fleet | None = None,
    sim_config: SimClockConfig | None = None,
) -> Deployment:
    """Full pipeline; raises ConfigError subclasses on bad input and
    ValidationFailed when the generated assembly has diagnostics."""
    t0 = time.monotonic()
    return _deploy(t0, load_config(paths), transport, registry, fleet, sim_config)


def build_from_text(
    text: str,
    transport: str = "sim",
    registry: Registry | None = None,
    fleet: Fleet | None = None,
    sim_config: SimClockConfig | None = None,
) -> Deployment:
    """Same pipeline for in-memory sources (benchmarks, tests)."""
    t0 = time.monotonic()
    return _deploy(t0, expand(parse(text)), transport, registry, fleet, sim_config)


def _deploy(t0, config, transport, registry, fleet, sim_config) -> Deployment:
    """generate -> validate -> plan an expanded config; overhead counts
    from `t0`, taken before the config was loaded."""
    registry = registry or default_registry()
    assembly = generate(config, registry)
    diagnostics = validate(assembly)
    if diagnostics:
        raise ValidationFailed(diagnostics)
    deployment_plan = plan(assembly)
    overhead_ms = (time.monotonic() - t0) * 1000.0
    ctx = make_context(assembly, transport, fleet, sim_config)
    return Deployment(deployment_plan, ctx, overhead_ms)
