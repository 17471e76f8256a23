"""Per-layer tracing of gridforge from outside the program.

The tracer wraps public functions of each gridforge module by name, records
one span per call (layer, name, start, end, parent span, thread) in memory,
and derives the per-layer metrics from the spans after the run.  A function
that a later version of gridforge no longer has is reported as absent; the
run goes on without it.

The transport layer is traced by handing the program a timing transport:
`pipeline.make_context` is wrapped so that the SimTransport it builds is
wrapped in `TimingTransport` before the deployment uses it.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

LAYERS = ("personalities", "dsl", "assembly", "cli", "runtime", "core", "transports", "simgrid")

# (layer, module, qualified name, value hook).  The hook turns a call's
# result into the count stored on its span.
_TARGETS = (
    ("personalities", "gridforge.personalities", "default_registry", None),
    ("dsl", "gridforge.dsl", "parse", None),
    ("dsl", "gridforge.dsl", "merge", None),
    ("dsl", "gridforge.dsl", "expand", lambda r: len(r.table)),
    ("assembly", "gridforge.assembly", "generate", lambda r: (len(r.components), len(r.bindings))),
    ("assembly", "gridforge.assembly", "validate", None),
    ("assembly", "gridforge.assembly", "plan", lambda r: len(r.stages)),
    ("assembly", "gridforge.assembly", "plan_inverse", None),
    ("assembly", "gridforge.assembly", "instantiate", None),
    ("assembly", "gridforge.assembly", "emit_text", None),
    ("cli", "gridforge.cli", "load_state", None),
    ("cli", "gridforge.cli", "save_state", None),
    ("runtime", "gridforge.runtime", "execute", lambda r: (len(r.actions), sum(not a.ok for a in r.actions))),
    ("core", "gridforge.core", "Assembly.ensure", len),
    ("core", "gridforge.core", "Assembly.ensure_composite", len),
    ("core", "gridforge.core", "Assembly.transition", None),
    ("simgrid", "gridforge.simgrid", "SimNode.apply", None),
    ("simgrid", "gridforge.simgrid", "Fleet.to_dict", None),
    ("simgrid", "gridforge.simgrid", "Fleet.from_dict", None),
)
_DISPATCH = "execute"  # worker-thread spans without a parent belong to this call
_ENSURE = ("Assembly.ensure", "Assembly.ensure_composite")


class Tracer:
    """Collects spans; `install()` patches gridforge, `uninstall()` restores it."""

    def __init__(self) -> None:
        # Span: (id, parent id, layer, name, start s, end s, thread id, value)
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._dispatch_parent = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer: str, name: str, fn, args, kwargs, hook=None):
        stack = self._stack()
        parent = stack[-1] if stack else self._dispatch_parent
        sid = next(self._ids)
        stack.append(sid)
        dispatch = name == _DISPATCH
        if dispatch:
            previous, self._dispatch_parent = self._dispatch_parent, sid
        value = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            value = _count(hook, result)
            return result
        except Exception as exc:
            value = _count(hook, getattr(exc, "report", None))  # StageFailed keeps its report
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            if dispatch:
                self._dispatch_parent = previous
            self.spans.append((sid, parent, layer, name, start, end, threading.get_ident(), value))

    def command(self, verb: str, fn):
        """Run one CLI command as a root span of layer `cli`."""
        return self.call("cli", f"main:{verb}", fn, (), {})

    # -- patching --------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(layer, name, fn, args, kwargs, hook)

        return traced

    def install(self) -> None:
        self.absent = []
        modules = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "gridforge" and m]
        for layer, module_name, qualname, hook in _TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.absent.append(f"{module_name}.{qualname}")
                continue
            if owner_name:
                raw = original.__func__ if isinstance(original, classmethod) else original
                wrapped = self._wrap(layer, qualname, raw, hook)
                self._patch(owner, attr, classmethod(wrapped) if isinstance(original, classmethod) else wrapped)
                continue
            wrapped = self._wrap(layer, qualname, original, hook)
            for mod in modules:  # names imported with `from x import f` too
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)
        self._install_transport(modules)

    def _install_transport(self, modules) -> None:
        original = getattr(sys.modules.get("gridforge.pipeline"), "make_context", None)
        if original is None:
            self.absent.append("gridforge.pipeline.make_context (timing transport)")
            return
        tracer = self

        @functools.wraps(original)
        def make_context(*args, **kwargs):
            ctx = original(*args, **kwargs)
            ctx.transport = TimingTransport(ctx.transport, tracer)
            return ctx

        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, make_context)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------

    def write(self, path: str) -> None:
        fields = ["id", "parent", "layer", "name", "start_us", "dur_us", "thread", "value"]
        t0 = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"fields": %s, "spans": [\n' % json.dumps(fields))
            for i, (sid, parent, layer, name, start, end, tid, value) in enumerate(self.spans):
                row = [sid, parent, layer, name, round((start - t0) * 1e6, 1), round((end - start) * 1e6, 1), tid, value]
                fh.write(("," if i else "") + json.dumps(row) + "\n")
            fh.write("]}\n")


def _count(hook, result):
    """A hook that no longer fits the program's result counts nothing."""
    if hook is None or result is None:
        return None
    try:
        return hook(result)
    except (AttributeError, TypeError):
        return None


class TimingTransport:
    """Delegates to the program's transport, one span per call."""

    def __init__(self, inner, tracer: Tracer):
        self.__dict__["inner"] = inner
        self.__dict__["tracer"] = tracer

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def __setattr__(self, name, value):  # e.g. the CLI swapping in a loaded fleet
        setattr(self.inner, name, value)

    def send(self, access, payload):
        return self.tracer.call(
            "transports", "send", self.inner.send, (access, payload), {}, lambda _r: len(payload.steps)
        )

    def exists(self, access, path):
        return self.tracer.call("transports", "exists", self.inner.exists, (access, path), {}, bool)


# -- metrics ------------------------------------------------------------------


def _union(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans: list[tuple]) -> tuple[dict, dict]:
    """Per-layer metrics (name -> value) and self ms per layer per command.

    A `<function>_ms` metric is the mean wall ms of one call; the sizes
    (entries, components, bindings, stages) are per call of the function that
    returns them; runtime, core, transport and sim counts and `busy_ms` are
    per call of `runtime.execute`; ratios are over all calls of the run.  A
    layer's self time is its spans' time minus what their child spans cover.
    """
    by_name: dict[str, list[tuple]] = {}
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        by_name.setdefault(span[3], []).append(span)
        children.setdefault(span[1], []).append((span[4], span[5]))
    names = {s[0]: s[3] for s in spans}

    def ms(name: str) -> float:
        return _mean((s[5] - s[4]) * 1000.0 for s in by_name.get(name, ()))

    def per_call(name: str, index: int | None = None) -> float:
        values = [s[7] if index is None else s[7][index] for s in by_name.get(name, ()) if s[7] is not None]
        return _mean(values)

    executes = by_name.get("execute", [])
    transport = by_name.get("send", []) + by_name.get("exists", [])
    exec_ms, self_ms, busy_ms = [], [], []
    for ex in executes:
        inside = [(s[4], s[5]) for s in transport if ex[4] <= s[4] and s[5] <= ex[5]]
        exec_ms.append((ex[5] - ex[4]) * 1000.0)
        self_ms.append((ex[5] - ex[4] - _union(inside)) * 1000.0)
        busy_ms.append(sum(b - a for a, b in inside) * 1000.0)
    n_exec = max(1, len(executes))

    # An action is an ensure call made by the runtime, not by another ensure.
    actions = [s for name in _ENSURE for s in by_name.get(name, ()) if names.get(s[1]) not in _ENSURE]
    exists = by_name.get("exists", [])
    metrics = {
        "personalities.registry_ms": ms("default_registry"),
        "dsl.parse_ms": ms("parse"),
        "dsl.merge_ms": ms("merge"),
        "dsl.expand_ms": ms("expand"),
        "dsl.entries": per_call("expand"),
        "assembly.generate_ms": ms("generate"),
        "assembly.components": per_call("generate", 0),
        "assembly.bindings": per_call("generate", 1),
        "assembly.validate_ms": ms("validate"),
        "assembly.plan_ms": ms("plan"),
        "assembly.plan_inverse_ms": ms("plan_inverse"),
        "assembly.stages": per_call("plan"),
        "assembly.instantiate_ms": ms("instantiate"),
        "assembly.emit_text_ms": ms("emit_text"),
        "cli.load_state_ms": ms("load_state"),
        "cli.save_state_ms": ms("save_state"),
        "runtime.execute_ms": _mean(exec_ms),
        "runtime.self_ms": _mean(self_ms),
        "runtime.actions": per_call("execute", 0),
        "runtime.failed_actions": per_call("execute", 1),
        "runtime.useful_action_ratio": _mean(1.0 if s[7] else 0.0 for s in actions),
        "core.transitions": len(by_name.get("Assembly.transition", [])) / n_exec,
        "transports.send_calls": len(by_name.get("send", [])) / n_exec,
        "transports.exists_calls": len(exists) / n_exec,
        "transports.steps": sum(s[7] for s in by_name.get("send", [])) / n_exec,
        "transports.busy_ms": _mean(busy_ms),
        "transports.guard_skip_ratio": _mean(1.0 if s[7] else 0.0 for s in exists),
        "simgrid.steps_applied": len(by_name.get("SimNode.apply", [])) / n_exec,
    }

    commands = [s for s in spans if s[3].startswith("main:")]
    own: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        own[span[2]] += (span[5] - span[4]) - _union(children.get(span[0], ()))
    n_cmd = max(1, len(commands))
    self_per_command = {layer: own[layer] * 1000.0 / n_cmd for layer in LAYERS}
    return metrics, self_per_command
