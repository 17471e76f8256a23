"""Command-line front end: plan, deploy, undeploy, status, bench.

Mutating subcommands persist a state file (assembly hash, component
states, journal, simulated fleet) as compact JSON so status and undeploy
work across processes; `GRIDFORGE_STATE_DIR` overrides its location.  A
command that performs no transition leaves an existing file untouched, so
it keeps the journal of the last command that did.  Exit codes: 0
success, 2 configuration or validation problems, 3 execution failure.

Each command runs only the stages whose result it uses.  `status -c`
parses, expands, generates and validates the configuration
(`pipeline.assemble`), hashes the state key and applies the saved states;
it never plans.  `plan` assembles and plans.  `deploy` and `undeploy`
assemble and plan, hash the key, apply the saved states, execute and
save.

Commands read the file by section.  `deploy`, `undeploy` and `status -c`
decode the component states; `status` decodes each file's descriptor and
states.  The saved SimNodes are decoded the first time the run contacts a
node, so a resume deploy, a dry run and `status -c` never decode them.  No
command decodes the saved journal.  A state file that cannot be decoded, or
that names an unknown component state, is a DeploymentError naming the
file (exit 3), and is left as it is; so is one whose saved SimNodes fail
to decode when a command that contacted a node saves.
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import os
import sys
from dataclasses import fields

from .assembly import emit_text
from .core import Assembly, LifecycleState
from .errors import ConfigError, DeploymentError, StageFailed, ValidationFailed
from .pipeline import Deployment, assemble, build
from .runtime import ExecOptions
from .simgrid import Fleet, SimClockConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def state_dir() -> str:
    return os.environ.get("GRIDFORGE_STATE_DIR") or os.path.expanduser("~/.gridforge")


def _state_key(assembly: Assembly) -> str:
    """Hash of the generated assembly: one state file per configuration."""
    return hashlib.sha256(emit_text(assembly).encode()).hexdigest()[:16]


def _state_path(key: str) -> str:
    return os.path.join(state_dir(), key + ".json")


# save_state writes {"descriptor":…,"fleet":…,"journal":[…],"states":{…}}
# with sorted keys and no whitespace.  JSON escapes every '"' inside a
# string, and the only objects with free-form keys (a SimNode's env, the
# states) have string values, so ,"journal":[ and ,"states":{ can only be
# top-level keys.
_HEAD, _FLEET, _JOURNAL, _STATES = '{"descriptor":', ',"fleet":', ',"journal":[', ',"states":{'
_decoder = json.JSONDecoder()
_STATE_NAMES = {state.name: state for state in LifecycleState}


def _read_state(text: str) -> dict:
    """The state document's "descriptor", "states" and "fleet".

    In save_state's layout only the descriptor and the states are decoded:
    "fleet" is the fleet's undecoded text (None for null), and the journal
    is skipped.  Any other text, such as the indented files of older
    versions, is decoded whole."""
    states_at = text.rfind(_STATES)
    journal_at = text.rfind(_JOURNAL, 0, max(states_at, 0))
    if journal_at > 0 and text.startswith(_HEAD):
        states, end = _decoder.raw_decode(text, states_at + len(_STATES) - 1)
        descriptor, fleet_at = _decoder.raw_decode(text, len(_HEAD))
        if end == len(text) - 1 and text[end] == "}" and text.startswith(_FLEET, fleet_at):
            fleet = text[fleet_at + len(_FLEET) : journal_at]
            return {"descriptor": descriptor, "fleet": None if fleet == "null" else fleet, "states": states}
    return json.loads(text)


def _read_state_file(path: str) -> dict:
    """The state document at `path`, read as _read_state reads it, whose
    every component state is a LifecycleState name.  A file that is not
    such a document raises DeploymentError naming it; a missing one
    raises FileNotFoundError."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = _read_state(fh.read())
        unknown = set(data.get("states", {}).values()) - _STATE_NAMES.keys()
    except (ValueError, TypeError, AttributeError) as exc:
        raise DeploymentError(f"state file {path} is unreadable: {exc}") from None
    if unknown:
        names = ", ".join(sorted(map(repr, unknown)))
        raise DeploymentError(f"state file {path} names unknown component state(s): {names}")
    return data


def load_state(assembly: Assembly, key: str, fleet: Fleet | None = None) -> bool:
    """Apply the saved component states to `assembly` and hand the saved
    fleet to `fleet`, which decodes it on first use; False when there is no
    state file."""
    path = _state_path(key)
    try:
        data = _read_state_file(path)
    except FileNotFoundError:
        return False
    components = assembly.components
    for cid, state_name in data.get("states", {}).items():
        comp = components.get(cid)
        if comp is not None:
            comp.state = _STATE_NAMES[state_name]
    saved_fleet = data.get("fleet")
    if saved_fleet and fleet is not None:
        fleet.restore(saved_fleet)
    return True


# json.dump streams through the pure-Python encoder; encode() takes the C one.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def save_state(deployment: Deployment, key: str) -> str:
    """Write the state file: the bytes json.dumps(document, sort_keys=True,
    separators=(",", ":")) gives, encoded one SimNode at a time so that the
    document is never held as one string."""
    os.makedirs(state_dir(), exist_ok=True)
    path = _state_path(key)
    fleet = deployment.ctx.fleet
    try:
        nodes = fleet.nodes if fleet is not None else {}
    except (ValueError, TypeError, LookupError, AttributeError) as exc:
        # The fleet loaded from `path` is decoded on first use; a damaged
        # one is reported against that file, which is left as it is.
        raise DeploymentError(f"state file {path} is unreadable: {exc}") from None
    states = {cid: c.state.name for cid, c in deployment.assembly.components.items()}
    # Write beside the target, then rename over it: a crash mid-write
    # leaves the previous state file whole, and a failed write its own
    # temporary file removed.
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            # The document's keys in sorted order; "descriptor" is the key
            # name older state files use.
            fh.write(f'{{"descriptor":{_encode(key)},"fleet":')
            if nodes:
                separator = '{"nodes":['
                for node in nodes.values():
                    fh.write(separator)
                    fh.write(_encode(node.to_dict()))
                    separator = ","
                fh.write("]}")
            else:
                fh.write("null")
            fh.write(f',"journal":{_encode(deployment.assembly.journal.export_lines())}')
            fh.write(f',"states":{_encode(states)}}}')
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    return path


class _StateLock:
    def __init__(self) -> None:
        os.makedirs(state_dir(), exist_ok=True)
        self._fh = open(os.path.join(state_dir(), ".lock"), "w")

    def __enter__(self) -> "_StateLock":
        fcntl.flock(self._fh, fcntl.LOCK_EX)
        return self

    def __exit__(self, *exc) -> None:
        fcntl.flock(self._fh, fcntl.LOCK_UN)
        self._fh.close()


def _sim_config(args: argparse.Namespace) -> SimClockConfig:
    return SimClockConfig(**{field.name: getattr(args, field.name) for field in fields(SimClockConfig)})


def _build(args: argparse.Namespace) -> Deployment:
    return build(args.config, transport=args.transport, sim_config=_sim_config(args))


def _exec_options(args: argparse.Namespace) -> ExecOptions:
    return ExecOptions(
        max_workers=args.max_workers,
        dry_run=getattr(args, "dry_run", False),
        seed=args.seed,
    )


def _write_metrics(args: argparse.Namespace, report) -> None:
    if getattr(args, "metrics", None):
        with open(args.metrics, "w", encoding="utf-8") as fh:
            fh.write(report.metrics_csv())


def cmd_plan(args: argparse.Namespace) -> int:
    deployment = _build(args)
    lines = []
    for i, stage in enumerate(deployment.plan.stages):
        actions = stage.all_actions
        lines.append(f"stage {i}: {stage.label} [{stage.mode}] {len(actions)} action(s)\n")
        lines.extend(f"  {action.target} -> {action.state.name.lower()}\n" for action in actions)
    sys.stdout.write("".join(lines))
    if args.emit:
        text = emit_text(deployment.assembly, deployment.plan)
        if args.emit == "-":
            sys.stdout.write(text)
        else:
            with open(args.emit, "w", encoding="utf-8") as fh:
                fh.write(text)
    return EXIT_OK


def _save_if_changed(deployment: Deployment, key: str, found: bool) -> None:
    """Save unless the loaded file is already current: an empty journal
    means no hook ran, so no component state and no SimNode changed."""
    if found and len(deployment.assembly.journal) == 0:
        return
    save_state(deployment, key)


def _run(args: argparse.Namespace, inverse: bool) -> int:
    deployment = _build(args)
    key = _state_key(deployment.assembly)
    with _StateLock():
        found = load_state(deployment.assembly, key, deployment.ctx.fleet)
        options = _exec_options(args)
        try:
            if inverse:
                report = deployment.execute_inverse(options)
            else:
                report = deployment.execute(options)
        except StageFailed as exc:
            report = exc.report
            if report is not None:
                _write_metrics(args, report)
            if not options.dry_run:
                _save_if_changed(deployment, key, found)
            print(f"stage {exc.stage_index} failed at {exc.component_id}: {exc.cause}", file=sys.stderr)
            return EXIT_RUNTIME
        _write_metrics(args, report)
        if not options.dry_run:
            _save_if_changed(deployment, key, found)
    verb = "planned" if options.dry_run else "performed"
    transitions = len(deployment.assembly.journal)
    print(
        f"{'undeploy' if inverse else 'deploy'} complete: "
        f"{len(report.actions)} action(s), {transitions} transition(s) {verb}, "
        f"effective {report.total_ms:.1f} ms, overhead {deployment.overhead_ms:.1f} ms"
    )
    return EXIT_OK


def cmd_deploy(args: argparse.Namespace) -> int:
    return _run(args, inverse=False)


def cmd_undeploy(args: argparse.Namespace) -> int:
    return _run(args, inverse=True)


def cmd_status(args: argparse.Namespace) -> int:
    if args.config:
        assembly = assemble(args.config)
        with _StateLock():
            load_state(assembly, _state_key(assembly))
        # Joined from the ids and state names themselves: a string per line,
        # all alive until the join, raised the peak resident memory of a
        # loop of commands (about 0.25 MB at 150 nodes).
        parts = []
        for cid, state in assembly.status().items():
            parts += (cid, " ", state.name, "\n")
        sys.stdout.write("".join(parts))
        return EXIT_OK
    directory = state_dir()
    if not os.path.isdir(directory):
        print("no recorded deployments")
        return EXIT_OK
    parts = []
    for fname in sorted(os.listdir(directory)):
        if not fname.endswith(".json"):
            continue
        data = _read_state_file(os.path.join(directory, fname))
        parts.append(f"deployment {data.get('descriptor', fname)}:\n")
        for cid, state in data.get("states", {}).items():
            parts += ("  ", cid, " ", state, "\n")
    sys.stdout.write("".join(parts))
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    from . import bench as bench_mod  # statistics and its imports stay off the deploy path
    lo, hi, step = args.sizes
    sizes = list(range(lo, hi + 1, step))
    points = bench_mod.measure_scaling(
        sizes,
        max_workers=args.max_workers,
        sim_config=_sim_config(args),
        parallel=not args.sequential,
    )
    csv_text = bench_mod.to_csv(points)
    if args.out == "-":
        sys.stdout.write(csv_text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    fit = bench_mod.r_squared([p.n_nodes for p in points], [p.overhead_ms for p in points])
    print(f"linear fit of overhead_ms over {len(points)} sizes: r^2 = {fit:.4f}", file=sys.stderr)
    return EXIT_OK


def _sizes(text: str) -> tuple[int, int, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("sizes must be lo:hi:step")
    lo, hi, step = (int(p) for p in parts)
    if lo < 1 or hi < lo or step < 1:
        raise argparse.ArgumentTypeError("sizes must satisfy 1 <= lo <= hi, step >= 1")
    return lo, hi, step


def _workers(text: str) -> int:
    workers = int(text)
    if workers < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {workers}")
    return workers


def _add_common(parser: argparse.ArgumentParser, config_required: bool = True) -> None:
    parser.add_argument(
        "-c",
        "--config",
        action="append",
        default=None,
        required=config_required,
        help="configuration file (.gdf); repeat to merge fragments",
    )
    parser.add_argument("--transport", choices=("sim", "local", "ssh"), default="sim")
    _add_sim_clock(parser)


def _add_sim_clock(parser: argparse.ArgumentParser) -> None:
    """--connect-latency, --step-latency and --jitter-seed, one per
    SimClockConfig field, typed and defaulted by the field's default."""
    for field in fields(SimClockConfig):
        parser.add_argument(f"--{field.name.replace('_', '-')}", type=type(field.default), default=field.default)


def _add_exec(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-workers", type=_workers, default=8)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--dry-run", action="store_true")
    parser.add_argument("--metrics", help="write per-stage CSV to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridforge",
        description="Deploy middleware fleets from declarative configurations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="show the staged deployment plan")
    _add_common(p_plan)
    p_plan.add_argument("--emit", help="write assembly+plan text ('-' for stdout)")
    p_plan.set_defaults(func=cmd_plan)

    p_deploy = sub.add_parser("deploy", help="execute the forward plan")
    _add_common(p_deploy)
    _add_exec(p_deploy)
    p_deploy.set_defaults(func=cmd_deploy)

    p_undeploy = sub.add_parser("undeploy", help="execute the teardown plan")
    _add_common(p_undeploy)
    _add_exec(p_undeploy)
    p_undeploy.set_defaults(func=cmd_undeploy)

    p_status = sub.add_parser(
        "status",
        help="show recorded component states",
        description="Show recorded component states: of every recorded deployment, or with -c of that "
        "configuration.  --transport, --connect-latency, --step-latency and --jitter-seed are "
        "accepted, as by the other commands, and ignored: status runs no action.",
    )
    _add_common(p_status, config_required=False)
    p_status.set_defaults(func=cmd_status)

    p_bench = sub.add_parser("bench", help="run the sim scaling measurement")
    p_bench.add_argument("--sizes", type=_sizes, default=(10, 200, 10), help="lo:hi:step")
    p_bench.add_argument("--max-workers", type=_workers, default=10)
    p_bench.add_argument("--sequential", action="store_true", help="servers without ParallelRunner")
    p_bench.add_argument("--out", default="-", help="CSV output path ('-' for stdout)")
    _add_sim_clock(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationFailed as exc:
        for diagnostic in exc.diagnostics:
            print(str(diagnostic), file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    except StageFailed as exc:
        print(f"stage {exc.stage_index} failed at {exc.component_id}: {exc.cause}", file=sys.stderr)
        return EXIT_RUNTIME
    except DeploymentError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
