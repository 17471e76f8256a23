"""Exception hierarchy shared by all gridforge modules."""

from __future__ import annotations


class DeploymentError(Exception):
    """Base class for every error raised by the engine."""


# --- component model ---------------------------------------------------


class IllegalTransition(DeploymentError):
    """Lifecycle action not legal from the component's current state."""

    def __init__(self, component_id: str, state, action):
        super().__init__(f"{component_id}: cannot {action.name} while {state.name}")
        self.component_id = component_id
        self.state = state
        self.action = action


class ActionFailed(DeploymentError):
    """A behaviour's `act` raised; the component keeps its pre-action state."""

    def __init__(self, component_id: str, action, cause: BaseException):
        super().__init__(f"{component_id}: {action.name} failed: {cause}")
        self.component_id = component_id
        self.action = action
        self.cause = cause


class UnknownComponent(DeploymentError):
    pass


class UnboundPort(DeploymentError):
    """A mandatory client port has no binding at lifecycle-action time."""


# --- configuration language --------------------------------------------


class ConfigError(DeploymentError):
    """Base for configuration problems; carries a source position, taken
    from `at`, the `dsl.Span` of the text at fault (0:0 without one)."""

    def __init__(self, message: str, at=None):
        super().__init__(message)
        self.line = at.line if at is not None else 0
        self.column = at.column if at is not None else 0

    def __str__(self) -> str:  # pragma: no cover - formatting only
        base = super().__str__()
        if self.line:
            return f"{self.line}:{self.column}: {base}"
        return base


class DslSyntaxError(ConfigError):
    pass


class UnboundLoopVariable(ConfigError):
    pass


class DuplicateName(ConfigError):
    pass


class DanglingReference(ConfigError):
    pass


# --- assembly compilation ----------------------------------------------


class UnknownKind(ConfigError):
    pass


class ArityMismatch(ConfigError):
    pass


class DanglingNodeRef(ConfigError):
    pass


class CyclicDependency(DeploymentError):
    pass


class ValidationFailed(DeploymentError):
    """An operation that requires a clean assembly got diagnostics."""

    def __init__(self, diagnostics):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = list(diagnostics)


# --- transports and the component library ------------------------------


class TransportError(DeploymentError):
    pass


class ConnectFailed(TransportError):
    pass


class AuthFailed(TransportError):
    pass


class RemoteError(TransportError):
    """Remote command finished with a nonzero exit status."""

    def __init__(self, status: int, output: str = ""):
        super().__init__(f"remote command exited with status {status}")
        self.status = status
        self.output = output


class NodeListMissing(DeploymentError):
    """Dynamic hostname file absent; the reservation likely has not run."""


class IndexOutOfRange(DeploymentError):
    """Nodelist has fewer lines than the requested node ordinal."""


class ReservationFailed(DeploymentError):
    pass


class InsufficientNodes(DeploymentError):
    pass


# --- runtime ------------------------------------------------------------


class StageFailed(DeploymentError):
    """A plan stage aborted; `.report` carries the partial results."""

    def __init__(self, stage_index: int, component_id: str, cause: BaseException, report=None):
        super().__init__(f"stage {stage_index} failed at {component_id}: {cause}")
        self.stage_index = stage_index
        self.component_id = component_id
        self.cause = cause
        self.report = report
