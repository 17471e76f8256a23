"""gridforge benchmark: wall time of each CLI command on three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload fanout-static --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --seconds 36          # every workload, one process each

Each run drives the real command line (`gridforge.cli.main(argv)`) in this
process against the simulated transport, as a closed loop: one caller, each
command starts when the previous one has returned.  Every command is checked,
and a failed or wrong command counts in `failed`.  The last line of standard
output is one JSON object: the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`.  Command and set-up wall times are scaled
to a reference host speed with the probe in `hostspeed.py`, run right before
and after each of them, because the shared host they run on changes speed by
up to a factor of two from one second to the next; the log lines give the
medians as measured too.  A traced run alternates untraced and
traced cycles and reports the difference as the tracing overhead; its spans
are written to `.perfbench-runs/spans-<workload>.json`.

Runs are hermetic: HOME and GRIDFORGE_STATE_DIR point at a fresh directory
under `.perfbench-runs/`, which is removed afterwards, and the run fails its
check if any other file of the checkout changed.  The run re-executes itself
with PYTHONHASHSEED=0, so every run sees the same set and dict layout.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import configs  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench-runs"
SKIP_DIRS = {".git", "__pycache__", RUNS.name, ".bench_build"}

# One worker thread: the caller waits on it, so only one thread wants the
# interpreter lock at a time.  Two workers on a two-core shared host made the
# parallel stages' wall time depend on how the host scheduled the two threads.
MAX_WORKERS = 1
HASH_SEED = "0"
SETUP_REPS = 8  # also the fleets redeploy-steady deploys, and so its undeploy samples
VERBS = ("plan", "deploy", "status", "undeploy")
SUMMARY = re.compile(r"(\d+) action\(s\), (\d+) transition\(s\) performed, effective ([0-9.]+) ms")

# name -> (config generator, workload kind, nodes the nodelist must list)
WORKLOADS = {
    "fanout-static": (configs.fanout_static, "cycle", 0),
    "paper-reserved": (configs.paper_reserved, "cycle", configs.PAPER_NODES),
    "redeploy-steady": (configs.redeploy_steady, "steady", configs.STEADY_NODES),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "plan_s": "s",
    "deploy_s": "s",
    "status_s": "s",
    "undeploy_s": "s",
    "deploy_virtual_ms": "ms",
    "undeploy_virtual_ms": "ms",
    "state_bytes": "bytes",
    "peak_rss_mb": "MB",
    "ok_ops": "share",
}


class Bench:
    """Runs CLI commands against one workload's configs and checks each one."""

    def __init__(self, cli, home: Path, seed: int, nodelist_min: int, calibrate: bool):
        self.cli = cli
        self.calibrate = calibrate
        self.home = home
        self.seed = seed
        self.jitter_seed = random.Random(seed).randrange(1, 2**31)  # 0 would turn jitter off
        self.nodelist_min = nodelist_min
        self.config_args: list[str] = []
        # Wall times scaled to reference host speed, and as measured.
        self.samples: dict[str, list[float]] = {verb: [] for verb in VERBS}
        self.raw: dict[str, list[float]] = {verb: [] for verb in VERBS}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, object] = {}
        self.virtual_ms: dict[str, float] = {}
        self.state_bytes = 0
        self.log_steps = 0
        self.tracer: tracing.Tracer | None = None
        self.current = home

    def write_configs(self, files: list[tuple[str, str]]) -> None:
        cfg = self.home / "cfg"
        cfg.mkdir(exist_ok=True)
        self.config_args = []
        for fname, text in files:
            (cfg / fname).write_text(text, encoding="utf-8")
            self.config_args += ["-c", str(cfg / fname)]

    def use_home(self, name: str) -> None:
        """Point HOME (the sim reservation's nodelist) and the CLI state
        directory at a new subdirectory of the run directory."""
        self.current = self.home / name
        (self.current / "state").mkdir(parents=True, exist_ok=True)
        os.environ["HOME"] = str(self.current)
        os.environ["GRIDFORGE_STATE_DIR"] = str(self.current / "state")

    def argv(self, verb: str) -> list[str]:
        argv = [verb, *self.config_args, "--jitter-seed", str(self.jitter_seed)]
        if verb in ("deploy", "undeploy"):
            argv += ["--max-workers", str(MAX_WORKERS), "--seed", str(self.seed)]
        return argv

    def run(self, verb: str, expect: str | None = None, sample: bool = True) -> None:
        """One command; `expect` is "pristine" or "resume" for deploy/undeploy."""
        argv = self.argv(verb)
        out, err = io.StringIO(), io.StringIO()
        gc.collect()  # the previous command's garbage is not this one's cost
        before = hostspeed.probe() if self.calibrate else 0.0
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if self.tracer is not None:
                    rc = self.tracer.command(verb, lambda: self.cli.main(argv))
                else:
                    rc = self.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crash is a failed command; the loop goes on
            rc = "crash"
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
        after = hostspeed.probe() if self.calibrate else 0.0
        self.attempted += 1
        problems = self._check(verb, expect, rc, out.getvalue(), err.getvalue())
        if problems:
            self.failed += 1
            self.problems += [f"{verb}: {p}" for p in problems]
        elif sample:
            self.raw[verb].append(elapsed)
            if self.calibrate:
                self.samples[verb].append(hostspeed.scaled(elapsed, before, after))

    # -- checks --------------------------------------------------------------

    def _state(self) -> dict:
        directory = self.current / "state"
        files = sorted(directory.glob("*.json"))
        if len(files) != 1:
            raise ValueError(f"expected one state file in {directory.name}, found {len(files)}")
        self.state_bytes = files[0].stat().st_size
        return json.loads(files[0].read_text(encoding="utf-8"))

    def _check(self, verb: str, expect: str | None, rc, out: str, err: str) -> list[str]:
        if rc != 0:
            return [f"exit {rc}: {err.strip()[-400:]}"]
        try:
            if verb == "plan":
                return self._check_plan(out)
            if verb == "status":
                return self._check_status(out)
            return self._check_run(verb, expect, out)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            return [f"unreadable result: {exc!r}"]

    def _check_plan(self, out: str) -> list[str]:
        if not out.startswith("stage 0:"):
            return ["plan printed no stages"]
        if self.reference.setdefault("plan", out) != out:
            return ["plan differs from the first plan of this run"]
        return []

    def _check_status(self, out: str) -> list[str]:
        states = [line.rsplit(" ", 1)[-1] for line in out.splitlines()]
        want = self.reference.get("components")
        if len(states) != want or any(s != "STARTED" for s in states):
            started = sum(s == "STARTED" for s in states)
            return [f"{started}/{len(states)} components STARTED, expected {want}"]
        return []

    def _check_run(self, verb: str, expect: str | None, out: str) -> list[str]:
        match = SUMMARY.search(out)
        if match is None:
            return [f"no summary line in {out.strip()[-200:]!r}"]
        transitions, virtual = int(match.group(2)), match.group(3)
        state = self._state()
        states = state["states"]
        n = self.reference.setdefault("components", len(states))
        target = "STARTED" if verb == "deploy" else "UNINSTALLED"
        problems = []
        if len(states) != n or any(s != target for s in states.values()):
            problems.append(f"{sum(s == target for s in states.values())}/{len(states)} components {target}")
        want = 0 if expect == "resume" else 2 * n
        if transitions != want:
            problems.append(f"{transitions} transitions, expected {want}")
        if verb == "undeploy":
            nodes = state["fleet"]["nodes"]
            dirty = [nd["id"] for nd in nodes if nd["env"] or nd["files"] or nd["processes"]]
            if dirty or not nodes:
                problems.append(f"{len(dirty)}/{len(nodes)} sim nodes not pristine")
            self.log_steps = sum(len(nd["log"]) for nd in nodes)
        if expect == "pristine":
            if self.reference.setdefault(f"{verb}_virtual", virtual) != virtual:
                problems.append(f"virtual {virtual} ms differs from {self.reference[f'{verb}_virtual']} ms")
            self.virtual_ms[verb] = float(virtual)
            if verb == "deploy" and self.nodelist_min:
                nodelist = self.current / "nodelist"
                lines = nodelist.read_text(encoding="utf-8").split() if nodelist.exists() else []
                if len(lines) < self.nodelist_min:
                    problems.append(f"nodelist under HOME lists {len(lines)} nodes")
        return problems


# -- workloads -----------------------------------------------------------------


def _cycle(bench: Bench, i: int) -> None:
    """plan, deploy, status, undeploy from a fresh HOME and state directory."""
    bench.use_home(f"cycle-{i}")
    bench.run("plan")
    bench.run("deploy", "pristine")
    bench.run("status")
    bench.run("undeploy", "pristine")
    # Deleted before the kernel writes them back, the cycle's state files
    # never reach the disk, so disk writes do not slow later commands.
    shutil.rmtree(bench.current)


def _steady(bench: Bench, i: int) -> None:
    """A resume deploy that must perform 0 transitions, status, and plan,
    which reads the same state and gives plan_s its samples."""
    bench.run("deploy", "resume")
    bench.run("status")
    bench.run("plan")


def _teardown(bench: Bench, i: int) -> None:
    """Undeploy each fleet that set-up deployed, the loop's one first."""
    for rep in reversed(range(SETUP_REPS)):
        bench.use_home(f"setup-{rep}")
        bench.run("undeploy", "pristine")


def _import_seconds() -> float:
    """Median over fresh interpreters of the time to import the CLI, at
    reference host speed."""
    code = (
        "import sys, time; sys.path[:0] = sys.argv[1:]; import hostspeed; p = hostspeed.probe(); "
        "t = time.perf_counter(); import gridforge.cli; t = time.perf_counter() - t; "
        "print(hostspeed.scaled(t, p, hostspeed.probe()))"
    )
    times = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, "-c", code, str(SRC), str(Path(__file__).resolve().parent)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _snapshot() -> dict[str, tuple[int, int]]:
    files = {}
    for directory, dirs, names in os.walk(ROOT):
        dirs[:] = [d for d in dirs if d not in SKIP_DIRS]
        for name in names:
            path = os.path.join(directory, name)
            st = os.lstat(path)
            files[os.path.relpath(path, ROOT)] = (st.st_size, st.st_mtime_ns)
    return files


def _tail(samples: list[float]) -> str:
    """Highest of p99.9/p99/p90/p75 with at least ten samples beyond it."""
    n = len(samples)
    for p in (99.9, 99.0, 90.0, 75.0):
        if n * (1 - p / 100) >= 10:
            value = sorted(samples)[math.ceil(p / 100 * n) - 1]
            return f"p{p:g} {value:.4f} s"
    return f"no tail percentile (needs >= 40 samples for p75, has {n})"


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    make_files, kind, nodelist_min = WORKLOADS[name]
    RUNS.mkdir(exist_ok=True)
    before = _snapshot()
    home = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=RUNS))
    os.environ["HOME"] = str(home)
    os.environ["GRIDFORGE_STATE_DIR"] = str(home / "state")
    try:
        sys.path.insert(0, str(SRC))
        from gridforge import cli

        import_s = _import_seconds()
        bench = Bench(cli, home, seed, nodelist_min, calibrate=not traced)
        setup_reps, setup_walls = [], []
        for rep in range(SETUP_REPS):
            gc.collect()
            probe_s = hostspeed.probe()
            t = time.perf_counter()
            bench.write_configs(make_files(seed))
            if kind == "steady":
                bench.use_home(f"setup-{rep}")
                bench.run("deploy", "pristine", sample=False)
            setup_walls.append(time.perf_counter() - t)
            setup_reps.append(hostspeed.scaled(setup_walls[-1], probe_s, hostspeed.probe()))
        in_process_setup_s = time.perf_counter() - _PROCESS_START

        # Traced runs alternate untraced and traced cycles, so the two can be
        # compared for the tracing overhead under the same conditions.
        tracer = tracing.Tracer() if traced else None
        walls: dict[bool, list[float]] = {False: [], True: []}
        # The loop stops where the next cycle would, on average, end past
        # the window, leaving room for the teardown, which undeploys as many
        # fleets as set-up deployed; so a run measures about `seconds`.
        reserve = sum(setup_walls) if kind == "steady" else 0.0
        start = time.perf_counter()
        cycles = 0
        last = 0.0
        while cycles < 2 or time.perf_counter() - start + last / 2 + reserve < seconds:
            on = traced and cycles % 2 == 1
            last = _timed_cycle(bench, _cycle if kind == "cycle" else _steady, cycles, tracer if on else None)
            walls[on].append(last)
            cycles += 1
        if kind == "steady":
            _timed_cycle(bench, _teardown, cycles, tracer)
        window_s = time.perf_counter() - start
    finally:
        shutil.rmtree(home, ignore_errors=True)
    after = _snapshot()
    changed = sorted(p for p in before.keys() | after.keys() if before.get(p) != after.get(p))
    if changed:
        bench.failed += 1
        bench.problems.append(f"files outside the run directory changed: {changed[:5]}")

    print(
        f"workload {name}: seed {seed}, --jitter-seed {bench.jitter_seed}, --max-workers {MAX_WORKERS}, "
        f"closed loop with 1 caller, {cycles} cycles in {window_s:.1f} s, trace {int(traced)}"
    )
    for problem in bench.problems[:20]:
        print(f"  FAILED {problem}")
    if traced:
        metrics = _traced_metrics(bench, tracer, walls, name)
    else:
        setup_s = import_s + statistics.median(setup_reps)
        print(
            f"  setup_s {setup_s:.4f} s at reference speed = import {import_s:.4f} s (median of {SETUP_REPS} interpreters) + "
            f"set-up {statistics.median(setup_reps):.4f} s (median of {SETUP_REPS}); "
            f"this process took {in_process_setup_s:.4f} s"
        )
        metrics = _end_to_end_metrics(bench, setup_s)
    for key, entry in metrics.items():
        print(f"  {key} = {entry['value']:.6g} {entry['unit']}")
    print(f"  failed_ops {bench.failed}/{bench.attempted} commands")
    missing = [] if traced else [verb for verb in VERBS if not bench.samples[verb]]
    return {
        "correct": bench.failed == 0 and not missing,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }


def _timed_cycle(bench: Bench, cycle, i: int, tracer) -> float:
    bench.tracer = tracer
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        cycle(bench, i)
    finally:
        if tracer is not None:
            tracer.uninstall()
        bench.tracer = None
    return time.perf_counter() - start


def _end_to_end_metrics(bench: Bench, setup_s: float) -> dict:
    values = {"setup_s": setup_s}
    for verb in VERBS:
        samples = bench.samples[verb]
        values[f"{verb}_s"] = statistics.median(samples) if samples else 0.0
        raw = statistics.median(bench.raw[verb]) if samples else 0.0
        print(
            f"  {verb}_s median {values[f'{verb}_s']:.4f} s at reference speed ({raw:.4f} s as measured) "
            f"of {len(samples)} samples; {_tail(samples)}"
        )
    values["deploy_virtual_ms"] = bench.virtual_ms.get("deploy", 0.0)
    values["undeploy_virtual_ms"] = bench.virtual_ms.get("undeploy", 0.0)
    values["state_bytes"] = float(bench.state_bytes)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["ok_ops"] = 1.0 - bench.failed / max(1, bench.attempted)
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def _traced_metrics(bench: Bench, tracer: tracing.Tracer, walls: dict, name: str) -> dict:
    values, self_ms = tracing.layer_metrics(tracer.spans)
    values["simgrid.log_steps"] = float(bench.log_steps)
    for layer, value in self_ms.items():
        values[f"self.{layer}_ms"] = value
    traced_s, untraced_s = statistics.median(walls[True]), statistics.median(walls[False])
    values["trace.overhead_ratio"] = traced_s / untraced_s - 1.0
    spans_path = RUNS / f"spans-{name}.json"
    tracer.write(str(spans_path))
    print(f"  {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    print(
        f"  tracing overhead {traced_s / untraced_s - 1.0:+.1%}: median traced cycle {traced_s:.4f} s "
        f"({len(walls[True])}) vs untraced {untraced_s:.4f} s ({len(walls[False])})"
    )
    if tracer.absent:
        print(f"  absent, reported as 0: {', '.join(tracer.absent)}")
    print("  self ms per command: " + ", ".join(f"{k} {v:.1f}" for k, v in self_ms.items()))
    return {k: {"value": v, "unit": _layer_unit(k)} for k, v in values.items()}


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    return "share" if name.endswith("_ratio") else "count"


def _run_all(args) -> int:
    """Every workload, each in its own interpreter, one after the other."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing decides set and dict layout, and with it up to 15%
        # of the planner's time; one fixed layout keeps runs comparable.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, __file__, *sys.argv[1:]])
    if not (SRC / "gridforge" / "__init__.py").is_file():
        print(f"gridforge sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
