"""Run one benchmark workload against the `midconvex` sources of this checkout.

    python3 bench/run.py --workload campaigns|roundtrip|queries \\
        --seed N --seconds S --trace 0|1

The workload's inputs and reference answers are generated from the seed
before the program is imported. Set-up is the import of `midconvex` from
`src/`, timed in fresh interpreters, plus the build of the program-side
inputs, timed in this process. The run then runs whole rounds of items in
one closed loop until at least S seconds have passed. Every output is
checked against its reference.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics of BENCHMARK.json; with `--trace 1` it carries the
per-layer metrics from a traced run instead. Each run also writes a result
file with the environment to `bench/results/`, and a traced run writes its
spans there.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

SETUP_REPEATS = 15  # timed imports, each in a fresh interpreter, and timed builds
MODULES = ("errors", "groups", "intsets", "rationals", "engine", "harness", "dsl", "cli")
# Resource exits, counted over the whole traced run, the known defect probe
# included: a scored item that hits one fails, so they come from the probe.
RUN_TOTALS = ("engine.decompose_rational.cap_exceeded", "cli.run.exit_3")

# A fresh interpreter has loaded nothing of what `midconvex` imports, the
# standard library included, as a user's process starts.
IMPORT_CHILD = (
    "import importlib, sys, time; sys.path.insert(0, sys.argv[1]); started = time.perf_counter(); "
    "[importlib.import_module('midconvex.' + m) for m in sys.argv[2:]]; print(time.perf_counter() - started)"
)


# -- environment --------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, encoding="utf-8") as handle:
            src_lines += sum(1 for _ in handle)
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "src_lines": src_lines,
    }


# -- machine speed ------------------------------------------------------------------
#
# The machine the benchmark was built on (2 vCPUs of an Intel Xeon at 2.0 GHz,
# shared with other tenants) changes speed by up to 2x within minutes, so
# raw times of the same work differ by more than any useful bound from one
# run to the next. Each timed span is therefore scaled by the machine's speed
# at that moment, read from a fixed pure-Python loop timed right before and
# right after it: scaled = wall * REFERENCE_LOOP_S / loop time. The loop is
# the benchmark's own code, so a change to the program cannot move it.

REFERENCE_LOOP_S = 0.003  # the loop's time on that machine when it runs at full speed


def _speed_loop() -> int:
    table = {}
    total = 0
    for i in range(20000):
        table[i & 1023] = total
        total = (total + i * 7) % 1000003
    return total


def loop_time() -> float:
    """Fastest of three timings of the speed loop."""
    best = float("inf")
    for _ in range(3):
        started = perf_counter()
        _speed_loop()
        best = min(best, perf_counter() - started)
    return best


def scale(wall: float, loop_before: float, loop_after: float) -> float:
    return wall * 2 * REFERENCE_LOOP_S / (loop_before + loop_after)


def scaled_median(measure) -> float:
    """Median of SETUP_REPEATS wall times from `measure()`, each scaled by the loop times around it."""
    times = []
    loop_before = loop_time()
    for _ in range(SETUP_REPEATS):
        wall = measure()
        loop_after = loop_time()
        times.append(scale(wall, loop_before, loop_after))
        loop_before = loop_after
    return statistics.median(times)


# -- set-up ---------------------------------------------------------------------


def import_program() -> SimpleNamespace:
    """Import `midconvex` from src/ and return its modules by short name."""
    package = importlib.import_module("midconvex")
    if Path(package.__file__).resolve().parent != SRC / "midconvex":
        raise RuntimeError(f"imported midconvex from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"midconvex.{m}") for m in MODULES})


def import_time() -> float:
    """Wall time of one import of `midconvex` in a fresh interpreter."""
    command = [sys.executable, "-c", IMPORT_CHILD, str(SRC), *MODULES]
    done = subprocess.run(command, capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.split()[-1])


def set_up(workload):
    """Import the program and build the inputs; returns them and the set-up time.

    Set-up time is the median scaled time of a fresh-interpreter import plus
    the median scaled time of a build of the inputs in this process.
    """
    imported = scaled_median(import_time)
    sys.path.insert(0, str(SRC))
    mc = import_program()
    built = [None]  # only the last build is kept

    def build() -> float:
        built[0] = None
        started = perf_counter()
        built[0] = workload.build(mc)
        return perf_counter() - started

    setup_s = imported + scaled_median(build)
    return mc, built[0], setup_s


# -- measurement --------------------------------------------------------------------


class Tally:
    """Latencies, throughput per round and failures of one closed-loop run.

    Latencies and round times are scaled to the reference speed; the wall
    times of the items are kept beside them.
    """

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.wall_latencies: list[float] = []
        self.loop_times: list[float] = []
        self.round_s: list[float] = []
        self.round_rates: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run_round(self, items, tracer=None, first_id: int = 0) -> None:
        """Run the items one after another; only the program calls are timed."""
        busy = 0.0
        done = 0
        loop_before = loop_time()
        for offset, item in enumerate(items):
            if tracer is not None:
                tracer.current_item = first_id + offset
            gc.collect()  # every item starts with an empty collector, as a fresh CLI process does
            t0 = perf_counter()
            try:
                output = item.run()
            except Exception as exc:  # any raise is a failed item
                elapsed = perf_counter() - t0
                problems = [f"raised {type(exc).__name__}: {exc}"]
            else:
                elapsed = perf_counter() - t0
                try:
                    problems = item.check(output)
                except Exception as exc:  # malformed output
                    problems = [f"output check raised {type(exc).__name__}: {exc}"]
            loop_after = loop_time()
            self.loop_times.append(loop_after)
            scaled = scale(elapsed, loop_before, loop_after)
            loop_before = loop_after
            self.latencies.append(scaled)
            self.wall_latencies.append(elapsed)
            busy += scaled
            self.attempted += item.count
            done += item.count
            if problems:
                self.failed += item.count
                self.failures.append(f"{item.label}: {'; '.join(problems)}")
        self.round_s.append(busy)
        self.round_rates.append(done / busy)

    def run_for(self, rounds, seconds: float) -> int:
        """Whole rounds until `seconds` have passed; returns the number of rounds run."""
        started = perf_counter()
        n = 0
        while n == 0 or perf_counter() - started < seconds:
            self.run_round(rounds[n % len(rounds)])
            n += 1
        return n


def end_to_end(tally: Tally, setup_s: float) -> dict:
    deciles = statistics.quantiles(tally.latencies, n=10)  # every round has at least three items
    return {
        "setup_s": setup_s,
        "items_per_s": statistics.median(tally.round_rates),
        "latency_p50_ms": statistics.median(tally.latencies) * 1000,
        "latency_p90_ms": deciles[8] * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_traced(rounds, seconds: float, tracer: tracing.Tracer, modules: dict, plain: Tally):
    """Run each round untraced and then traced, until `seconds` have passed.

    Alternating keeps the two sides under the same drift of machine speed,
    so their difference is the tracing overhead. Returns the number of
    rounds and the tally of the traced side.
    """
    traced = Tally()
    started = perf_counter()
    n = 0
    while n == 0 or perf_counter() - started < seconds:
        items = rounds[n % len(rounds)]
        plain.run_round(items)
        tracer.install(modules)
        try:
            traced.run_round(items, tracer, first_id=n * len(items))
        finally:
            tracer.uninstall()
        n += 1
    return n, traced


def per_layer(tracer: tracing.Tracer, rounds: int, plain: Tally, traced: Tally) -> dict:
    """Per-round averages of every span and counter, plus the tracing overhead."""
    values: dict[str, float] = {}
    for name, stats in tracer.summary().items():
        values[f"{name}.calls"] = stats["calls"] / rounds
        values[f"{name}.self_s"] = stats["self_s"] / rounds
    for name, count in tracer.counters.items():
        values[name] = count / rounds
    values["trace.untraced_round_s"] = statistics.median(plain.round_s)
    values["trace.overhead_s"] = statistics.median(traced.round_s) - values["trace.untraced_round_s"]
    return values


# -- main ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "midconvex" / "__init__.py").is_file():
        print(f"error: no midconvex package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    # inputs and references first: nothing of the program is loaded yet
    workload = workloads.WORKLOADS[args.workload](args.seed)
    mc, rounds, setup_s = set_up(workload)
    gc.collect()
    gc.freeze()  # the benchmark's own inputs and references are never scanned by the collector
    probe = workload.probe_item(mc) if hasattr(workload, "probe_item") else None

    tally = Tally()
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        n, traced = run_traced(rounds, args.seconds, tracer, vars(mc), tally)
        values = per_layer(tracer, n, tally, traced)
        tally.attempted += traced.attempted
        tally.failed += traced.failed
        tally.failures += traced.failures
    else:
        n = tally.run_for(rounds, args.seconds)
        values = end_to_end(tally, setup_s)

    probe_failures = []
    if probe is not None:
        probe_tally = Tally()
        if tracer:
            tracer.install(vars(mc))
        try:
            probe_tally.run_round([probe], tracer, first_id=n * len(rounds[0]))  # the id after the last round's
        finally:
            if tracer:
                tracer.uninstall()
        probe_failures = probe_tally.failures
        values["known_defect.failed"] = probe_tally.failed
    if tracer:
        for name in RUN_TOTALS:
            values[name] = tracer.counters[name]
        RESULTS.mkdir(exist_ok=True)
        tracer.write(RESULTS / f"spans-{args.workload}.bin")

    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in declared}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": n,
        "items": tally.attempted,
        "latency_samples": len(tally.latencies),
        "latencies_ms": [round(t * 1000, 4) for t in tally.latencies],
        "wall_latencies_ms": [round(t * 1000, 4) for t in tally.wall_latencies],
        "speed_loop_ms": {"reference": REFERENCE_LOOP_S * 1000, "median": statistics.median(tally.loop_times) * 1000,
                          "min": min(tally.loop_times) * 1000, "max": max(tally.loop_times) * 1000},
        "failed_frac": tally.failed / tally.attempted,
        "failures": tally.failures[:50],
        "known_defects": probe_failures,
        "environment": environment(),
        **result,
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload={args.workload} seed={args.seed} rounds={n} items={tally.attempted} "
          f"latency_samples={len(tally.latencies)} trace={args.trace}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    wall = sorted(tally.wall_latencies)
    print(f"  wall clock, unscaled: latency p50 {statistics.median(wall) * 1000:.6g} ms, "
          f"p90 {statistics.quantiles(wall, n=10)[8] * 1000:.6g} ms; speed loop "
          f"{record['speed_loop_ms']['median']:.4g} ms median, {REFERENCE_LOOP_S * 1000:.4g} ms reference")
    print(f"  failed_frac = {record['failed_frac']:.6g} ({tally.failed} of {tally.attempted} items)")
    for failure in tally.failures[:20]:
        print(f"  FAILED {failure}")
    for failure in probe_failures:
        print(f"  KNOWN DEFECT {failure}")
    print(f"  result file: {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
