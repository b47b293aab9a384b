"""finsite benchmark: drive the CLI in-process, check every answer, time it.

Usage, from the repository root:

    python3 perfbench/run.py --workload theorem-groups --seed 1 --seconds 30 --trace 0

Each run imports finsite from ``src/`` of the checkout, writes its inputs
under ``.perfbench/`` (set-up), then calls ``finsite.cli.main(argv)`` for
one item after another: one client, closed loop, no threads.  Items run in
passes (a theorem ladder with fresh relabellings, or a batch of requests);
passes continue while another one fits in ``--seconds``, or until the
inputs set-up wrote are used up.  Every outcome is checked against answers
finsite did not compute; its digest must match earlier runs of the same
input, in this process, in a second process with another hash seed that
replays a sample, and in earlier runs of the same seed and code.

``--trace 0`` reports the end-to-end metrics, each time adjusted for the
host's drifting speed (see hostspeed.py; the raw times are in the details).  ``--trace 1`` runs each
trace item once untraced and twice traced (see tracing.py), interleaved,
and reports the per-layer metrics, every layer's expected effect being
recorded in layers.json.  The last line of stdout is the result object;
the line before it holds the details (sample counts, error rate, the tail
latency where a run has enough items).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

from hostspeed import HostSpeed  # noqa: E402
from tracing import Tracer, load_layers  # noqa: E402
from workloads import OUT, Item, Outcome, build  # noqa: E402

WORKLOADS = ("theorem-groups", "theorem-covers", "cli-requests")
SETUP_REPEATS = 3
REPLAY_BUDGET_S = 1.5  # theorem items replayed: the cheapest ones up to this
REPLAY_REQUESTS = 20
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it


class SetupError(Exception):
    """The checkout does not hold the program to benchmark."""


def import_finsite():
    """A fresh import of finsite from the checkout; returns ``cli.main``.

    Dropping the modules first means no state survives from an earlier
    import, as with a new process per command.
    """
    if not (SRC / "finsite" / "__init__.py").is_file():
        raise SetupError(f"no finsite sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "finsite" or n.startswith("finsite.")]:
        del sys.modules[name]
    cli = importlib.import_module("finsite.cli")
    if SRC not in Path(cli.__file__).resolve().parents:
        raise SetupError(f"finsite was imported from {cli.__file__}, not {SRC}")
    return cli.main


def execute(main, argv: list[str], out_dir: str) -> tuple[Outcome, float]:
    """Run one command line; returns its outcome and wall seconds."""
    argv = [a.replace(OUT, out_dir) for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    elapsed = time.perf_counter() - start
    output = None
    if "-o" in argv:
        output = Path(argv[argv.index("-o") + 1]).read_text(encoding="utf-8")
    return Outcome(code, stdout.getvalue(), stderr.getvalue(), output), elapsed


class Run:
    """Outcomes, timings and failures of one benchmark invocation."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.dir = WORK / workload
        self.out = str(self.dir / "out")
        self.failures: dict[str, str] = {}
        self.digests: dict[str, str] = {}
        self.item_times: dict[str, float] = {}
        self.raw_times: dict[str, float] = {}
        self.speed: HostSpeed | None = None

    def setup(self, tiny: bool = False):
        """Import finsite afresh and write every input; returns cli.main and
        the workload."""
        gc.unfreeze()
        main = import_finsite()
        wl = build(self.workload, self.seed, self.dir, tiny)
        (self.dir / "out").mkdir(parents=True, exist_ok=True)
        return main, wl

    def run_item(self, main, item: Item, tracer: Tracer | None = None) -> float:
        """Run and check one item; returns the seconds spent in finsite,
        host-adjusted while a sampler is running."""
        mark = self.speed.mark() if self.speed else None
        try:
            if tracer is None:
                outcome, elapsed = execute(main, item.argv, self.out)
            else:
                with tracer.item(item.key):
                    outcome, elapsed = execute(main, item.argv, self.out)
        except Exception as exc:  # a crash is a failed item, not a failed run
            self.fail(item.key, f"raised {type(exc).__name__}: {exc}")
            return 0.0
        raw = elapsed
        if self.speed:
            elapsed, raw = self.speed.adjust(mark, elapsed)
        self.item_times[item.key] = elapsed
        self.raw_times[item.key] = raw
        self.record(item, outcome)
        return elapsed

    def record(self, item: Item, outcome: Outcome) -> None:
        digest = outcome.digest()
        seen = self.digests.setdefault(item.key, digest)
        if seen != digest:
            self.fail(item.key, "output differs from an earlier run of the same input")
        try:
            item.check(outcome)
        except Exception as exc:
            self.fail(item.key, f"wrong answer: {type(exc).__name__}: {exc}")

    def fail(self, key: str, message: str) -> None:
        self.failures.setdefault(key, message)

    def compare_stored(self, kind: str, values: dict) -> None:
        """Compare with what an earlier run of this seed and code stored."""
        path = WORK / kind / f"{self.workload}-{self.seed}-{code_version()}.json"
        if path.is_file():
            stored = json.loads(path.read_text(encoding="utf-8"))
            for key in sorted(set(stored) & set(values)):
                if stored[key] != values[key]:
                    self.fail(key, f"{kind} differ from an earlier run of this seed")
            stored.update(values)
            values = stored
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(values, sort_keys=True), encoding="utf-8")

    def replay(self, items: list[Item]) -> int:
        """Re-run items in a second process with another hash seed."""
        request = self.dir / "replay.json"
        request.write_text(
            json.dumps([{"key": i.key, "argv": i.argv} for i in items]), encoding="utf-8"
        )
        replay_out = self.dir / "replay-out"
        replay_out.mkdir(exist_ok=True)
        env = dict(os.environ, PYTHONHASHSEED=str(self.seed % 1000 + 7))
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "replay.py"), str(request), str(replay_out)],
                capture_output=True, text=True, timeout=120, env=env, cwd=str(ROOT),
            )
            problem = proc.stderr.strip()[-300:] if proc.returncode else None
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            problem = "timed out"
        if problem is not None:
            for item in items:
                self.fail(item.key, f"replay failed: {problem}")
            return 0
        replayed = json.loads(proc.stdout.strip().splitlines()[-1])
        for item in items:
            if replayed.get(item.key) != self.digests.get(item.key):
                self.fail(item.key, "output differs in a second process")
        return len(items)

    def replay_sample(self, items: list[Item]) -> list[Item]:
        done = [i for i in items if i.key in self.item_times]
        if self.workload == "cli-requests":
            rng = random.Random(f"{self.seed}/replay")
            return rng.sample(done, min(REPLAY_REQUESTS, len(done)))
        chosen, total = [], 0.0
        for item in sorted(done, key=lambda i: self.item_times[i.key]):
            total += self.item_times[item.key]
            if chosen and total > REPLAY_BUDGET_S:
                break
            chosen.append(item)
        return chosen


def code_version() -> str:
    """Hash of the program and benchmark sources, keying stored results."""
    h = hashlib.sha256()
    for path in sorted((SRC / "finsite").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def tail(times_ms: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least TAIL_BEYOND samples beyond it."""
    n = len(times_ms)
    if n < 10 * TAIL_BEYOND:  # too few for even the 90th percentile
        return None
    pct = min(99, int(100 * (n - TAIL_BEYOND) / n))
    ordered = sorted(times_ms)
    index = max(0, -(-pct * n // 100) - 1)  # nearest rank
    return pct, ordered[index]


def timed(workload: str, seed: int, seconds: float, tiny: bool = False) -> tuple[Run, dict, dict]:
    run = Run(workload, seed)
    setups = []
    with HostSpeed() as speed:
        run.speed = speed
        for _ in range(1 if tiny else SETUP_REPEATS):
            mark, start = speed.mark(), time.perf_counter()
            main, wl = run.setup(tiny)
            setups.append(speed.adjust(mark, time.perf_counter() - start))
        # The items are the benchmark's own objects; keep the collector from
        # rescanning them during the program's collections.
        gc.collect()
        gc.freeze()
        # A pass's wall time is the time spent inside finsite; checking the
        # answers between items is the benchmark's own work.
        pass_times: list[float] = []
        began = time.perf_counter()
        for items in wl.passes:
            pass_times.append(sum(run.run_item(main, item) for item in items))
            spent = time.perf_counter() - began
            if spent + statistics.median(pass_times) > seconds:
                break
        kernel_s = speed.median_kernel()
        run.speed = None
    attempted = sum(len(items) for items in wl.passes[: len(pass_times)])
    run.compare_stored("digests", run.digests)
    replayed = run.replay(run.replay_sample(wl.passes[0]))
    times_ms = [t * 1000 for t in run.item_times.values()]
    raw_passes = [
        sum(run.raw_times.get(item.key, 0.0) for item in items)
        for items in wl.passes[: len(pass_times)]
    ]
    metrics = {
        "wall_s": (statistics.median(pass_times), "s"),
        "setup_s": (statistics.median(a for a, _ in setups), "s"),
        "item_p50_ms": (statistics.median(times_ms) if times_ms else 0.0, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    details = {
        "passes": len(pass_times),
        "pass_s": pass_times,
        "setup_samples_s": [a for a, _ in setups],
        "raw_wall_s": statistics.median(raw_passes),
        "raw_setup_s": statistics.median(r for _, r in setups),
        "raw_item_p50_ms": 1000 * statistics.median(run.raw_times.values()) if times_ms else 0.0,
        "host_kernel_ms": 1000 * kernel_s,
        "items": len(times_ms),
        "attempted": attempted,
        "failed": len(run.failures),
        "error_rate": len(run.failures) / attempted,
        "replayed_in_second_process": replayed,
    }
    tail_figure = tail(times_ms)
    if tail_figure is not None:
        details["item_tail_ms"] = {"value": tail_figure[1], "unit": "ms",
                                   "percentile": tail_figure[0], "samples": len(times_ms)}
    return run, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, details


def traced(workload: str, seed: int, tiny: bool = False) -> tuple[Run, dict, dict]:
    layers = load_layers()
    run = Run(workload, seed)
    _, wl = run.setup(tiny)
    gc.collect()
    gc.freeze()
    passes = wl.passes[: wl.trace_passes]
    # Three separate imports: one untraced, two traced.  Each item runs on
    # all three in turn, so the host's drifting speed hits them alike.
    untraced = import_finsite()
    mains, tracers = [], []
    for _ in range(2):
        mains.append(import_finsite())
        tracers.append(Tracer(layers))
        tracers[-1].install()
    totals = [0.0, 0.0]
    for item in (item for items in passes for item in items):
        totals[0] += run.run_item(untraced, item)
        totals[1] += run.run_item(mains[0], item, tracers[0])
        run.run_item(mains[1], item, tracers[1])
    first, second = tracers
    calls, again = first.calls(), second.calls()
    if calls != again:
        diff = {k: (v, again[k]) for k, v in calls.items() if again[k] != v}
        run.fail("trace", f"calls differ between two traced runs: {diff}")
    for error in first.nesting_errors()[:5]:
        run.fail("trace", error)
    for layer, spec in layers.items():
        mapped = any(workload in wls for wls in spec["moves"].values())
        if mapped and not calls[layer]:
            run.fail("trace", f"{layer} got no calls on {workload}")
    run.compare_stored("calls", calls)
    run.compare_stored("digests", run.digests)
    replayed = run.replay(run.replay_sample(passes[0]))
    first.dump(run.dir / "spans.json")
    wall_untraced, wall_traced = (total / len(passes) for total in totals)
    values = first.metrics()
    values["trace.overhead_s"] = wall_traced - wall_untraced
    units = {"calls": "count", "s": "s", "self_s": "s", "overhead_s": "s",
             "classes_per_pair": "ratio"}
    metrics = {
        name: {"value": value, "unit": units.get(name.rsplit(".", 1)[1], "count")}
        for name, value in values.items()
    }
    attempted = sum(len(items) for items in passes)
    details = {
        "trace_passes": len(passes),
        "wall_untraced_s": wall_untraced,
        "wall_traced_s": wall_traced,
        "spans": len(first.spans),
        "attempted": attempted,
        "failed": len(run.failures),
        "error_rate": len(run.failures) / attempted,
        "replayed_in_second_process": replayed,
    }
    return run, metrics, details


def report(run: Run, metrics: dict, details: dict) -> dict:
    for key, message in list(run.failures.items())[:20]:
        print(f"FAIL {key}: {message}", file=sys.stderr)
    print("details " + json.dumps({"workload": run.workload, "seed": run.seed, **details}))
    return {
        "correct": not run.failures,
        "attempted": details["attempted"],
        "failed": len(run.failures),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        if args.trace:
            result = report(*traced(args.workload, args.seed))
        else:
            result = report(*timed(args.workload, args.seed, args.seconds))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
