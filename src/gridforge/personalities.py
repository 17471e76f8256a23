"""Software-specific kinds loaded from data files, plus the kind registry.

A personality teaches the generic engine how to deploy one technology. It
is declared in a YAML file: kind name, provided interfaces, ports,
constructor parameters, and per-action step scripts with ${param}
placeholders, each under its action's key (install, start, stop,
uninstall; any other key is refused at load).  `ScriptBehavior.act` runs
the script of the action it is asked to perform.  The bundled families
(jre, openccm, oargrid, kadeploy, variable) plus the node template live
under data/.
"""

from __future__ import annotations

import os
import re
from functools import partial
from importlib import resources as importlib_resources
from pathlib import Path

import yaml

from .core import Behavior, Component, LifecycleAction, PortSpec
from .errors import (
    ConfigError,
    InsufficientNodes,
    RemoteError,
    ReservationFailed,
    TransportError,
    UnboundPort,
)
from .steps import (
    PROCESS_NAME,
    append_path,
    exec_cmd,
    fetch,
    remove,
    set_var,
    start_process,
    stop_process,
)
from .stdlib import (
    BUILTIN_KINDS,
    NODE,
    SHELL,
    KindSpec,
    ParamSpec,
    shell_access,
)
from .transports import Payload

_PLACEHOLDER = re.compile(r"\$\{(\w+)\}")

# The key under a kind's `scripts` that holds each action's script.
_SCRIPT = {action: action.name.lower() for action in LifecycleAction}

# libyaml's loader when PyYAML was built with it: the same documents as
# SafeLoader, parsed about ten times faster.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _process(name: str) -> str:
    """`name`, refused unless it is all `[A-Za-z0-9_.-]`: the sh rendering
    writes it unquoted into the pid file path that stop reads back."""
    if not PROCESS_NAME.fullmatch(name):
        raise ConfigError(f"process name {name!r} may only use [A-Za-z0-9_.-]")
    return name


# Step kind -> (fewest cells, most cells, factory over the substituted cells).
_STEP_KINDS = {
    "SetVar": (1, 2, lambda name, value="": set_var(name, value)),
    "AppendPath": (1, 1, append_path),
    "Fetch": (2, 2, fetch),
    "Exec": (1, 1, exec_cmd),
    "StartProcess": (1, 2, lambda name, command=None: start_process(_process(name), name if command is None else command)),
    "StopProcess": (1, 1, lambda name: stop_process(_process(name))),
    "Remove": (1, 1, remove),
}


def _placeholders(action: str, script) -> tuple[str, ...]:
    """The parameter names an action's cells and guard use, in first-use
    order; ConfigError for steps that are not a list, a guard that is not
    a string or null, and a step row of unknown kind or cell count."""
    if not isinstance(script, dict):
        raise ConfigError(f"script {action!r} must be a mapping")
    steps = _typed(script, "steps", list, f"action {action!r}")
    guard = script.get("unless_exists")
    if not (guard is None or isinstance(guard, str)):
        raise ConfigError(f"action {action!r}: 'unless_exists' must be a string")
    for row in steps:
        if not (isinstance(row, list) and row and isinstance(row[0], str) and row[0] in _STEP_KINDS):
            raise ConfigError(f"action {action!r}: unknown step {row!r}")
        fewest, most, _ = _STEP_KINDS[row[0]]
        if not fewest <= len(row) - 1 <= most:
            raise ConfigError(f"action {action!r}: {row[0]} takes {fewest}..{most} cells, got {len(row) - 1}")
    texts = [str(cell) for row in steps for cell in row[1:]]
    texts.append(guard or "")
    return tuple(dict.fromkeys(_PLACEHOLDER.findall("\n".join(texts))))


def _substitute(text: str, values: dict) -> str:
    return _PLACEHOLDER.sub(lambda m: values[m.group(1)], text)


class Scripts(dict):
    """A kind's `scripts` mapping, compiled once per registry: `names` holds
    each action's placeholder names, and `build` memoises the action's
    frozen Payload (None without steps) and guard by those parameters'
    values, so components with equal values send the very same Payload.
    On the thread pool a race only builds one payload twice.  A key that
    names no lifecycle action is refused: no action would ever run it."""

    def __init__(self, scripts: dict):
        for key in scripts:
            if key not in _SCRIPT.values():
                raise ConfigError(f"scripts key {key!r} names no lifecycle action")
        super().__init__(scripts)
        self.names = {action: _placeholders(action, script or {}) for action, script in scripts.items()}
        self._built: dict[tuple, tuple[Payload | None, str | None]] = {}

    def build(self, action: str, params: dict) -> tuple[Payload | None, str | None]:
        names = self.names.get(action, ())
        try:
            key = (action, *map(str, map(params.__getitem__, names)))
        except KeyError as exc:
            raise ConfigError(f"script placeholder ${{{exc.args[0]}}} has no parameter") from None
        built = self._built.get(key)
        if built is None:
            values = dict(zip(names, key[1:]))
            script = self.get(action) or {}
            steps = [
                _STEP_KINDS[row[0]][2](*[_substitute(str(cell), values) for cell in row[1:]])
                for row in script.get("steps", [])
            ]
            guard = script.get("unless_exists")
            payload = Payload.of(steps) if steps else None
            built = self._built[key] = (payload, _substitute(guard, values) if guard else None)
        return built


class ScriptBehavior(Behavior):
    """Runs declared step scripts through the component's shell.

    Scripts come from the personality data file, one per action under its
    `_SCRIPT` key, and the component's `args` fill their placeholders; an
    `unless_exists` guard on an action skips its steps when the guard path
    is already present on the node (installation idempotency).
    """

    def __init__(self, scripts: dict):
        self.scripts = scripts if isinstance(scripts, Scripts) else Scripts(scripts)

    def _shell(self, ctx, component: Component) -> Component:
        """The shell the first bound Shell port names, or the shell a bound
        Node port's node exports (a node's barrier stands for the node)."""
        assembly = ctx.assembly
        for port in component.ports:
            binding = component.bound.get(port.name)
            if binding is None:
                continue
            if port.interface == SHELL:
                return assembly.components[binding.server]
            if port.interface == NODE:
                barrier = assembly.components[binding.server]
                composite = assembly.composites[barrier.owner]
                return assembly.components[composite.exports[SHELL]]
        raise UnboundPort(f"{component.id}: no shell reachable through bound ports")

    def act(self, action: LifecycleAction, component: Component, ctx=None) -> None:
        key = _SCRIPT[action]
        payload, guard = self.scripts.build(key, component.args)
        if payload is None:
            return
        if ctx is None:
            raise UnboundPort(f"{component.id}: {key} needs an execution context")
        access = ctx.access.get(component.id)
        if access is None:
            access = ctx.access[component.id] = shell_access(ctx, self._shell(ctx, component))
        if guard and ctx.transport.exists(access, guard):
            return
        status, output = ctx.transport.send(access, payload)
        if status != 0:
            raise RemoteError(status, output)


def parse_resource_request(request: str) -> list[tuple[str, int]]:
    """`gdx=300|azur=100` -> [("gdx", 300), ("azur", 100)]."""
    sites: list[tuple[str, int]] = []
    for part in request.split("|"):
        name, _, count = part.partition("=")
        if not name or not count.isdigit():
            raise ConfigError(f"malformed resource request part {part!r}")
        sites.append((name, int(count)))
    return sites


class OarGridBehavior(ScriptBehavior):
    """Grid reservation: submit the request, publish the nodelist.

    The allocated hostnames are written controller-side so that dynamic
    hostname resolvers can read them; the simulated backend fabricates
    `simnode-0..N-1`, the local backend maps every slot to localhost.
    """

    def act(self, action: LifecycleAction, component: Component, ctx=None) -> None:
        if action is LifecycleAction.START:
            self._reserve(component, ctx)
            return
        super().act(action, component, ctx)
        if action is LifecycleAction.STOP:
            path = os.path.expanduser(component.args["nodelist"])
            if os.path.exists(path):
                with open(path, "w", encoding="utf-8"):
                    pass

    def _reserve(self, component: Component, ctx) -> None:
        request = component.args["request"]
        total = sum(count for _, count in parse_resource_request(request))
        if total <= 0:
            raise InsufficientNodes(f"request {request!r} allocates no nodes")
        try:
            super().act(LifecycleAction.START, component, ctx)
        except (RemoteError, TransportError) as exc:
            raise ReservationFailed(str(exc)) from exc
        if ctx.transport.name == "sim":
            hostnames = [f"simnode-{i}" for i in range(total)]
        else:
            hostnames = ["localhost"] * total
        path = os.path.expanduser(component.args["nodelist"])
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(hostnames) + "\n")


_BEHAVIOR_CLASSES = {"script": ScriptBehavior, "oargrid": OarGridBehavior}

_PARAM_TYPES = {"str", "int", "path", "resources"}


_TYPE_NAMES = {list: "list", dict: "mapping", bool: "boolean"}


def _typed(data: dict, field: str, kind: type, owner, default=None):
    """data[field], `default` or else an empty (or False) `kind` when
    absent; ConfigError when it is present but not a `kind` (a list, a
    dict or a bool: a flag is never read as truthy)."""
    value = data.get(field, kind() if default is None else default)
    if not isinstance(value, kind):
        raise ConfigError(f"{owner}: {field!r} must be a {_TYPE_NAMES[kind]}")
    return value


def _rows(data: dict, field: str, owner) -> list[dict]:
    """A field that holds a list of mappings (kinds, ports, params)."""
    rows = _typed(data, field, list, owner)
    if not all(isinstance(row, dict) for row in rows):
        raise ConfigError(f"{owner}: {field!r} must be a list of mappings")
    return rows


def _load_kind(data: dict) -> KindSpec:
    name = data["kind"]
    ports = tuple(
        PortSpec(p["name"], p["interface"], _typed(p, "required", bool, f"{name}: port {p['name']!r}", True))
        for p in _rows(data, "ports", name)
    )
    params = tuple(
        ParamSpec(
            p["name"],
            kind=p.get("type", "str"),
            required=_typed(p, "required", bool, f"{name}: param {p['name']!r}", True),
            default=p.get("default"),
        )
        for p in _rows(data, "params", name)
    )
    for p in params:
        if p.kind not in _PARAM_TYPES:
            raise ConfigError(f"{name}: unknown parameter type {p.kind!r}")
    declared_scripts = _typed(data, "scripts", dict, name)
    try:
        scripts = Scripts(declared_scripts)
    except ConfigError as exc:
        raise ConfigError(f"{name}: {exc}") from exc
    declared = {p.name for p in params}
    for action, names in scripts.names.items():
        undeclared = [n for n in names if n not in declared]
        if undeclared:
            raise ConfigError(f"{name}: action {action!r} uses undeclared ${{{undeclared[0]}}}")
    behavior_name = data.get("behavior", "script")
    cls = _BEHAVIOR_CLASSES.get(behavior_name)
    if cls is None:
        raise ConfigError(f"{name}: unknown behavior {behavior_name!r}")
    return KindSpec(
        name=name,
        provides=frozenset(_typed(data, "provides", list, name)),
        ports=ports,
        params=params,
        factory=partial(cls, scripts),
        composite=_typed(data, "composite", bool, name),
        group=_typed(data, "group", bool, name),
        root=_typed(data, "root", bool, name),
        defaults=tuple(_typed(data, "defaults", dict, name).items()),
    )


def load_personality_file(path) -> list[KindSpec]:
    """Kinds declared in one YAML file: a path, or a package resource."""
    source = Path(path) if isinstance(path, str) else path
    try:
        doc = yaml.load(source.read_text(encoding="utf-8"), Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{source}: malformed YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{source}: expected a mapping with a 'kinds' list")
    kinds = _rows(doc, "kinds", source)
    try:
        return [_load_kind(item) for item in kinds]
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    except KeyError as exc:
        raise ConfigError(f"{source}: missing field {exc}") from exc


class Registry:
    """All known kinds: built-in infrastructure plus personality data files."""

    def __init__(self) -> None:
        self.kinds: dict[str, KindSpec] = {}

    def add(self, spec: KindSpec) -> None:
        self.kinds[spec.name] = spec

    def get(self, name: str) -> KindSpec | None:
        return self.kinds.get(name)


def default_registry(extra_dirs: list[str] | None = None) -> Registry:
    registry = Registry()
    for spec in BUILTIN_KINDS:
        registry.add(spec)
    roots = [importlib_resources.files("gridforge") / "data"]
    roots += [Path(directory) for directory in extra_dirs or []]
    for root in roots:
        for entry in sorted(root.iterdir(), key=lambda e: e.name):
            if entry.name.endswith(".yaml"):
                for spec in load_personality_file(entry):
                    registry.add(spec)
    return registry
