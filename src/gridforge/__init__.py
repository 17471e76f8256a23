"""Deployment orchestration for middleware fleets.

Declarative configurations describe nodes and services; the engine
compiles them into a component assembly, plans staged execution from the
binding graph, and runs the plan against simulated, local, or ssh
transports.
"""

from .assembly import (
    DeploymentPlan,
    Diagnostic,
    PlanAction,
    PlanStage,
    emit_text,
    generate,
    plan,
    plan_inverse,
    validate,
)
from .core import (
    Assembly,
    Behavior,
    Component,
    Composite,
    Journal,
    JournalRecord,
    LifecycleAction,
    LifecycleState,
    PortSpec,
    replay,
)
from .dsl import ConfigAST, ExpandedConfig, expand, load_config, merge, parse
from .errors import (
    ConfigError,
    DeploymentError,
    StageFailed,
    ValidationFailed,
)
from .personalities import Registry, default_registry
from .pipeline import DeployContext, Deployment, assemble, build, build_from_text, make_context
from .runtime import ExecOptions, ExecutionReport, execute
from .simgrid import Fleet, SimClockConfig, SimNode, VirtualClock, WallClock
from .steps import Step, StepKind, render_sh
from .transports import LocalTransport, NodeAccess, Payload, SimTransport, SshTransport

__version__ = "0.1.0"

__all__ = [
    "Assembly",
    "Behavior",
    "Component",
    "Composite",
    "ConfigAST",
    "ConfigError",
    "DeployContext",
    "Deployment",
    "DeploymentError",
    "DeploymentPlan",
    "Diagnostic",
    "ExecOptions",
    "ExecutionReport",
    "ExpandedConfig",
    "Fleet",
    "Journal",
    "JournalRecord",
    "LifecycleAction",
    "LifecycleState",
    "LocalTransport",
    "NodeAccess",
    "Payload",
    "PlanAction",
    "PlanStage",
    "PortSpec",
    "Registry",
    "SimClockConfig",
    "SimNode",
    "SimTransport",
    "SshTransport",
    "StageFailed",
    "Step",
    "StepKind",
    "ValidationFailed",
    "VirtualClock",
    "WallClock",
    "assemble",
    "build",
    "build_from_text",
    "default_registry",
    "emit_text",
    "execute",
    "expand",
    "generate",
    "load_config",
    "make_context",
    "merge",
    "parse",
    "plan",
    "plan_inverse",
    "render_sh",
    "replay",
    "validate",
]
