"""End-to-end wiring: configuration files in, executable deployment out.

Two stages: `assemble` runs parse -> expand -> generate -> validate and
returns the checked assembly, and `build` plans that assembly and pairs it
with a transport and clock for its backend.  generate() already builds the
live assembly the executor drives, so a caller that only reads component
states (`status -c`) stops after `assemble`.  The loading, generation and
planning cost is measured here (overhead), separate from the effective
deployment time the executor reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import runtime
from .assembly import DeploymentPlan, generate, plan, plan_inverse, validate
from .core import Assembly
from .dsl import expand, load_config, parse
from .errors import ValidationFailed
from .personalities import Registry, default_registry
from .simgrid import Fleet, SimClockConfig, VirtualClock, WallClock
from .transports import LocalTransport, NodeAccess, SimTransport, SshTransport, Transport


@dataclass
class DeployContext:
    assembly: Assembly
    transport: Transport
    clock: object
    fleet: Fleet | None = None
    # component id -> the NodeAccess its actions reach, filled for a shell by
    # stdlib.shell_access and for a scripted component by ScriptBehavior
    access: dict[str, NodeAccess] = field(default_factory=dict, repr=False)


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
    sim_config: SimClockConfig | None = None,
) -> DeployContext:
    if transport == "sim":
        fleet = Fleet()
        clock = VirtualClock()
        return DeployContext(assembly, SimTransport(fleet, clock, sim_config), clock, fleet)
    if transport == "local":
        return DeployContext(assembly, LocalTransport(), WallClock())
    if transport == "ssh":
        return DeployContext(assembly, SshTransport(), WallClock())
    raise ValueError(f"unknown transport {transport!r}")


def assemble(paths: list[str], registry: Registry | None = None) -> Assembly:
    """Load, expand, generate and validate; raises ConfigError subclasses
    on bad input and ValidationFailed when the generated assembly has
    diagnostics."""
    return _checked(load_config(paths), registry)


def build(
    paths: list[str],
    transport: str = "sim",
    registry: Registry | None = None,
    sim_config: SimClockConfig | None = None,
) -> Deployment:
    """`assemble`, then plan; raises as `assemble` does, and
    CyclicDependency when the planner finds no order."""
    t0 = time.monotonic()
    return _deploy(t0, assemble(paths, registry), transport, sim_config)


def build_from_text(
    text: str,
    transport: str = "sim",
    registry: Registry | None = None,
    sim_config: SimClockConfig | None = None,
) -> Deployment:
    """Same pipeline for in-memory sources (benchmarks, tests)."""
    t0 = time.monotonic()
    return _deploy(t0, _checked(expand(parse(text)), registry), transport, sim_config)


def _checked(config, registry: Registry | None) -> Assembly:
    """generate -> validate an expanded config."""
    assembly = generate(config, registry or default_registry())
    diagnostics = validate(assembly)
    if diagnostics:
        raise ValidationFailed(diagnostics)
    return assembly


def _deploy(t0, assembly, transport, sim_config) -> Deployment:
    """Plan a checked assembly; overhead counts from `t0`, taken before
    the config was loaded."""
    deployment_plan = plan(assembly)
    overhead_ms = (time.monotonic() - t0) * 1000.0
    ctx = make_context(assembly, transport, sim_config)
    return Deployment(deployment_plan, ctx, overhead_ms)
