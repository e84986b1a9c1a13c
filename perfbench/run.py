"""ytl benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {ring,iso,reps,cli} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout of the repository; the library is
imported from src/ there. The benchmark is single-threaded and closed-loop
with one client: it starts the next operation only after the previous one
has returned. Each operation's inputs come from the seed alone; only the call
into the library is timed, and every result is checked.

--trace 0 measures the end-to-end metrics: set-up time (median of three to
nine set-ups, most of them in child processes), operations per second and
latency percentiles over whole rounds of operations lasting at least
`--seconds`, peak resident memory, and the share of operations that passed
their check.
Times are scaled to a reference machine speed (see SpeedMeter); the raw
times are in the details line.

--trace 1 gives the per-layer metrics instead: it runs a fixed number of
rounds untraced, then as many further rounds with spans, cProfile and call
timers on, and reports per-module self time, call counts, per-call timings,
lru_cache hit ratios, the scalar probe and the tracing overhead. Spans and
details are written to .perfbench/ in the checkout.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The line before it is a JSON object with the
details: sample counts, raw times, per-kind latencies, failures and run
context.
"""

from __future__ import annotations

import argparse
import collections
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from typing import NamedTuple

import tracing
import workloads as W
from tracing import quantile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

# set-up is sampled at least SETUP_MIN_SAMPLES times and until SETUP_BUDGET_S
# of set-up time is spent, at most SETUP_MAX_SAMPLES times: a short set-up,
# whose time is the noisiest, gets the most samples
SETUP_MIN_SAMPLES = 3
SETUP_MAX_SAMPLES = 9
SETUP_BUDGET_S = 2.0
# `import ytl.cli` child processes for cli.import_s in a traced run
CLI_IMPORT_SAMPLES = 5
# the timed phase runs whole rounds, until --seconds have passed and it has
# this many operations, so that at least ten latencies lie beyond the 90th
# percentile
MIN_OPS = 110
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms",
                    "op_p90_ms": "ms", "peak_rss_mb": "MB", "ok_ratio": "ratio"}


def reference_task():
    """Fixed pure-Python work (rational arithmetic, dicts, sorting), about
    2 ms, whose time tracks the current speed of the machine."""
    acc = {}
    x = Fraction(1, 3)
    for i in range(300):
        x = x * Fraction(i + 2, i + 1) + Fraction(1, i + 7)
        key = (i % 17, i % 5)
        acc[key] = acc.get(key, 0) + i
    sorted(acc.items())
    return x


class SpeedMeter:
    """Scales times to a reference machine speed.

    On a shared machine the speed of the processor can change by tens of
    percent within seconds, for every process alike. Every INTERVAL_S the
    meter times reference_task (median of three); a time measured now is
    scaled by REFERENCE_S over the median of the last WINDOW such times,
    i.e. reported as it would read on a machine where reference_task takes
    REFERENCE_S. The window smooths the noise of single probes and still
    follows changes of speed that last longer than a second.
    """

    REFERENCE_S = 0.002
    INTERVAL_S = 0.1
    WINDOW = 5

    def __init__(self):
        self._last = None
        self._probes = collections.deque(maxlen=self.WINDOW)

    def factor(self):
        now = time.perf_counter()
        if self._last is None or now - self._last >= self.INTERVAL_S:
            runs = []
            for _ in range(3):
                start = time.perf_counter()
                reference_task()
                runs.append(time.perf_counter() - start)
            self._probes.append(statistics.median(runs))
            self._last = time.perf_counter()
        return self.REFERENCE_S / statistics.median(self._probes)


class Record(NamedTuple):
    index: int
    op: tuple
    latency: float
    scaled: float
    raised: bool
    reason: str | None


def run_op(workload, index, op, tracer=None, speed=None):
    """Build inputs, time the call, check the result. An exception at any
    step is a failed operation, not a crash."""
    factor = speed.factor() if speed else 1.0
    try:
        inputs = workload.materialize(op)
    except Exception:
        return Record(index, op, 0.0, 0.0, True, "input build raised: " + _last_line())
    start = time.perf_counter()
    try:
        result = tracer.call(workload, op, inputs) if tracer else workload.call(op, inputs)
    except Exception:
        latency = time.perf_counter() - start
        return Record(index, op, latency, latency * factor, True,
                      "call raised: " + _last_line())
    latency = time.perf_counter() - start
    try:
        reason = workload.check(op, inputs, result)
    except Exception:
        reason = "check raised: " + _last_line()
    return Record(index, op, latency, latency * factor, False, reason)


def _last_line():
    return traceback.format_exc().strip().splitlines()[-1]


def run_ops(workload, seed, seconds=None, rounds=None, first_round=0, tracer=None,
            speed=None):
    """Whole rounds of the seed's stream from first_round on: `rounds` of
    them, or as many as it takes for `seconds` of wall time to pass and
    MIN_OPS operations to be done. Whole rounds keep the mix of a run fixed."""
    records = []
    start = time.perf_counter()
    current = first_round
    for index, op in enumerate(W.op_stream(workload, seed, first_round)):
        if op.round != current:
            current = op.round
            if rounds is not None:
                if current >= first_round + rounds:
                    break
            elif time.perf_counter() - start >= seconds and len(records) >= MIN_OPS:
                break
        records.append(run_op(workload, index, op, tracer, speed))
    return records


def set_up(name, seed, measure_first_touch=False):
    """Import the library, build the workload and run its warm-up pass.
    Returns (workload, (seconds taken, speed factors before and after),
    warm-up failures, first-touch seconds)."""
    before = SpeedMeter().factor()
    start = time.perf_counter()
    lib = W.load_ytl()
    workload = W.WORKLOADS[name](lib, ROOT)
    first_touch = 0.0
    if measure_first_touch and hasattr(workload, "first_touch"):
        t0 = time.perf_counter()
        workload.first_touch()
        first_touch = time.perf_counter() - t0
    workload.fill_tables()
    failures = [r for r in (run_op(workload, i, op)
                            for i, op in enumerate(workload.warm_ops(seed)))
                if r.reason]
    raw = time.perf_counter() - start
    return workload, (raw, [before, SpeedMeter().factor()]), failures, first_touch


def setup_child(name, seed):
    """(seconds, speed factors) of a set-up in a fresh process."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(seed), "--seconds", "0", "--setup-only"]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return tuple(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def import_child():
    """(seconds, speed factors) of a process that only imports ytl.cli."""
    before = SpeedMeter().factor()
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import ytl.cli"], cwd=ROOT,
                   env=dict(os.environ, PYTHONPATH=SRC), timeout=CHILD_TIMEOUT_S, check=True)
    raw = time.perf_counter() - start
    return raw, [before, SpeedMeter().factor()]


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def per_kind(records):
    groups = {}
    for r in records:
        groups.setdefault("%s %s" % (r.op.kind, tuple(r.op.cell)), []).append(r.scaled * 1e3)
    return {k: {"count": len(v), "p50_ms": quantile(v, 0.5)} for k, v in sorted(groups.items())}


def failure_list(records):
    return [{"index": r.index, "round": r.op.round, "cell": list(r.op.cell),
             "kind": r.op.kind, "reason": r.reason} for r in records if r.reason][:20]


def fail_ratio(records):
    return sum(1 for r in records if r.reason) / len(records) if records else 0.0


def run_context():
    commit = "unknown"
    # only the checkout's own repository: git would otherwise search the
    # directories above it
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = 0
    for path in glob.glob(os.path.join(SRC, "ytl", "*.py")):
        with open(path) as fh:
            src_lines += sum(1 for _ in fh)
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit, "src_lines": src_lines}


def _timing_metrics(records, setup, scaled):
    """setup_s, ops_per_s, op_p50_ms and op_p90_ms from scaled or raw times.
    The set-up time is the median of the samples, scaled by the median of
    the speed factors measured around them (one probe is too noisy for a
    set-up of seconds)."""
    latencies = [(r.scaled if scaled else r.latency) * 1e3 for r in records]
    busy = sum(latencies) / 1e3
    factor = statistics.median(f for _, fs in setup for f in fs) if scaled else 1.0
    return {
        "setup_s": statistics.median(raw for raw, _ in setup) * factor,
        "ops_per_s": sum(1 for r in records if not r.raised) / busy if busy else 0.0,
        "op_p50_ms": quantile(latencies, 0.5),
        "op_p90_ms": quantile(latencies, 0.9),
    }


def setup_samples(name, seed):
    """Set-up samples: child processes, then (except for cli, whose set-up is
    the import in each command's process) the set-up of this process.
    Returns (samples, workload, warm-up failures)."""
    own = name != "cli"
    samples = []
    while (len(samples) + own < SETUP_MAX_SAMPLES
           and (len(samples) + own < SETUP_MIN_SAMPLES
                or sum(raw for raw, _ in samples) < SETUP_BUDGET_S)):
        samples.append(setup_child(name, seed) if own else import_child())
    workload, sample, warm_failures, _ = set_up(name, seed)
    if own:
        samples.append(sample)
    return samples, workload, warm_failures


def untraced(name, seed, seconds):
    speed = SpeedMeter()
    setup, workload, warm_failures = setup_samples(name, seed)
    try:
        records = run_ops(workload, seed, seconds=seconds, speed=speed)
    finally:
        workload.close()
    metrics = _timing_metrics(records, setup, scaled=True)
    metrics["peak_rss_mb"] = peak_rss_mb(children=(name == "cli"))
    metrics["ok_ratio"] = 1.0 - fail_ratio(records)
    p90 = metrics["op_p90_ms"]
    details = {
        "workload": name, "seed": seed, "warm_seed": W.warm_seed(seed),
        "samples": {"ops": len(records), "rounds": len({r.op.round for r in records}),
                    "setup": len(setup),
                    "beyond_p90": sum(1 for r in records if r.scaled * 1e3 > p90)},
        "raw": _timing_metrics(records, setup, scaled=False),
        "setup_samples_s": setup,
        "fail_ratio": fail_ratio(records),
        "failures": failure_list(records), "warm_failures": failure_list(warm_failures),
        "per_kind_scaled": per_kind(records), "context": run_context(),
    }
    return records, warm_failures, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, details


def traced(name, seed):
    workload, _, warm_failures, first_touch = set_up(name, seed, measure_first_touch=True)
    lib = workload.lib
    rounds = workload.trace_rounds
    profile_dir = os.path.join(OUT, "prof-%s-%d" % (name, os.getpid()))
    tracer = tracing.Tracer(lib, name)
    try:
        plain = run_ops(workload, seed, rounds=rounds)
        cli_extra = {}
        if name == "cli":
            imports = [import_child()[0] for _ in range(CLI_IMPORT_SAMPLES)]
            cli_extra = tracing.cli_metrics(plain, workload.workdir, imports)
            os.makedirs(profile_dir, exist_ok=True)
            workload.profile_dir = profile_dir
        before = tracing.cache_infos(lib)
        tracer.install()
        try:
            traced_records = run_ops(workload, seed, rounds=rounds, first_round=rounds,
                                     tracer=tracer)
        finally:
            tracer.uninstall()
        delta = tracing.cache_delta(before, tracing.cache_infos(lib))
        children = [(op, path) for op, path in getattr(workload, "children", []) if path]
        metrics = tracing.layer_metrics(
            lib, tracer, children, delta, first_touch, cli_extra,
            untraced_s=sum(r.latency for r in plain),
            traced_s=sum(r.latency for r in traced_records),
            fail_ratio=fail_ratio(plain + traced_records))
    finally:
        workload.close()
        shutil.rmtree(profile_dir, ignore_errors=True)
    records = plain + traced_records
    details = {
        "workload": name, "seed": seed, "rounds_per_pass": rounds,
        "samples": {"untraced_ops": len(plain), "traced_ops": len(traced_records),
                    "spans": len(tracer.spans)},
        "op_digest": W.op_digest(workload, seed, 64),
        "cache_delta": delta,
        "failures": failure_list(records), "warm_failures": failure_list(warm_failures),
        "context": run_context(),
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "trace-%s-s%d.json" % (name, seed)), "w") as fh:
        json.dump({"details": details, "metrics": metrics, "spans": tracer.spans}, fh)
    units = tracing.layer_units()
    return records, warm_failures, {k: (v, units[k]) for k, v in metrics.items()}, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ytl", "__init__.py")):
        print("error: no library at %s; run from a checkout of the repository" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in W.WORKLOADS:
        print("error: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(sorted(W.WORKLOADS))), file=sys.stderr)
        return 2

    if args.setup_only:
        workload, seconds, _, _ = set_up(args.workload, args.seed)
        workload.close()
        print(json.dumps({"setup_s": seconds}))
        return 0

    if args.trace:
        records, warm_failures, metrics, details = traced(args.workload, args.seed)
    else:
        records, warm_failures, metrics, details = untraced(args.workload, args.seed,
                                                            args.seconds)
    failed = sum(1 for r in records if r.reason)
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0 and not warm_failures and bool(records),
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
