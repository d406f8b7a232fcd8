#!/usr/bin/env python3
"""Benchmark for strandtrace.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Runs one workload (certify, crosscheck, sweep or shapes) in this process on
the pure-Python kernel backend, checks every output against values computed
without strandtrace, and prints as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones, measured over whole rounds until --seconds have
passed; with --trace 1 they are the per-layer ones, from one traced round
after one untraced round (two for sweep).  No workload is random: --seed is recorded and
changes nothing.  Every run appends a record to perfbench/out/runs.jsonl;
traced runs also write their spans to perfbench/out/trace-<workload>.json.
See README.md for what each workload and metric means.
"""

import argparse
import datetime
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from fractions import Fraction

STARTED = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
SETUP_SAMPLES = 7
TAIL_LADDER = (50, 90, 95, 97, 98, 99, 99.5, 99.8, 99.9, 99.95, 99.98, 99.99)
ROUND_TAIL = 90

SPAN_METRICS = (
    "orders.enumerate_shapes",
    "orders.diagram_from_lambda",
    "symfun.to_basis",
    "symfun.is_h_positive",
    "diagrams.reduce_to_h",
    "diagrams.closed_form",
    "diagrams.trace_combo",
    "diagrams.diagram_csf",
    "diagrams.search",
    "kernels.colored_census",
    "kernels.restricted_census",
    "oracle.ch_gamma",
    "cli.main",
)
COUNT_METRICS = (
    "orders.candidates_examined",
    "symfun.SymFun.constructed",
    "symfun.arith.calls",
    "symfun.to_basis.calls",
    "symfun.to_basis.identity_calls",
    "diagrams.reduce_to_h.steps",
    "diagrams.closed_form.calls",
    "diagrams.trace_combo.calls",
    "diagrams.trace_combo.terms",
    "diagrams.colorings",
    "diagrams.distinct_composites",
    "kernels.restricted_census.permutations",
    "oracle.cycle_type.calls",
    "cli.output_bytes",
)


def reported(values, kind):
    """The metrics BENCHMARK.json lists under `kind`, in its order and with
    its units; every listed metric must have been measured and vice versa."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = json.load(fh)[kind]
    if {m["name"] for m in listed} != set(values):
        raise RuntimeError("measured %s metrics %s differ from BENCHMARK.json" % (kind, sorted(values)))
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}


def load_program():
    """Import strandtrace from this checkout's src/ and insist on the
    pure-Python kernels; exit with status 1 and no result otherwise."""
    sys.path.insert(0, SRC)
    try:
        from strandtrace import cli, diagrams, kernels, oracle, orders, symfun
    except ImportError as exc:
        sys.exit("perfbench: cannot import strandtrace from %s: %s" % (SRC, exc))
    origin = os.path.abspath(orders.__file__)
    if not origin.startswith(SRC + os.sep):
        sys.exit("perfbench: strandtrace was imported from %s, not %s" % (origin, SRC))
    if kernels.BACKEND != "python":
        sys.exit("perfbench: kernel backend is %r; the benchmark runs the pure-Python one" % kernels.BACKEND)
    return argparse.Namespace(
        cli=cli, diagrams=diagrams, kernels=kernels, oracle=oracle, orders=orders, symfun=symfun
    )


def host_probe_ms():
    """Median time of a fixed Fraction loop that calls no strandtrace code:
    tells a slow host from a slow program."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 2000):
            acc += Fraction(1, i)
        samples.append((time.perf_counter() - start) * 1000)
    return statistics.median(samples)


def nproc():
    return len(os.sched_getaffinity(0))


def git_sha():
    """HEAD of the checkout, read from .git without running git; "unknown"
    outside a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb():
    """Larger of this process's peak resident set and its children's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def setup_sample(workload):
    """Seconds from spawning a fresh interpreter to the moment it has set
    the workload up and would make its first timed call."""
    spawned = time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload, "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1]) - spawned


def tail_percentile(items_per_round):
    """Highest percentile on the ladder with at least ten items beyond it."""
    return max(q for q in TAIL_LADDER if items_per_round * (100 - q) / 100 >= 10)


def nearest_rank(sorted_values, q):
    index = max(0, -(-len(sorted_values) * q // 100) - 1)
    return sorted_values[int(index)]


def timed_run(workload, state, seconds, record):
    """Whole rounds until `seconds` have passed; the last round is started
    only if it should end less than half a round late.

    The host's speed swings by up to a factor of two for seconds to minutes
    at a time.  Where items are timed one by one, every timed call is
    charged its best time over the rounds: what the program costs when the
    host lets it run.  `sweep` has one call per round, and needs both cores
    free at once for its best round, so it is charged its median round.
    Returns (attempted, failed, errors) per round and the end-to-end metrics.
    """
    tallies, round_busy = [], []
    best_items = best_other = None
    begun = time.perf_counter()
    while True:
        r = workload.round(state, nproc())
        tallies.append((r.attempted, r.failed, r.errors))
        round_busy.append(r.busy_s)
        if best_items is None:
            best_items, best_other = r.item_times, r.other_times
        else:
            best_items = array("d", map(min, best_items, r.item_times))
            best_other = array("d", map(min, best_other, r.other_times))
        elapsed = time.perf_counter() - begun
        if elapsed + elapsed / len(tallies) / 2 >= seconds:
            break
    peak = peak_rss_mb()
    setups = [setup_sample(workload.name) for _ in range(SETUP_SAMPLES)]
    if best_items:
        busy = sum(best_items) + sum(best_other)
        q, ranked = tail_percentile(len(best_items)), sorted(best_items)
    else:
        busy = statistics.median(round_busy)
        q, ranked = ROUND_TAIL, sorted(b / r.attempted for b in round_busy)
    record.update(
        measured_s=elapsed,
        rounds=len(tallies),
        tail_percentile=q,
        setup_samples=setups,
        whole_phase_items_per_s=sum(a - f for a, f, _ in tallies) / sum(round_busy),
    )
    values = {
        "items_per_s": (r.attempted - r.failed) / busy,
        "item_p50_ms": statistics.median(ranked) * 1e3,
        "item_tail_ms": nearest_rank(ranked, q) * 1e3,
        "peak_rss_mb": peak,
        "setup_s": statistics.median(setups),
    }
    return tallies, reported(values, "end_to_end")


def traced_run(workload, state, st, record):
    import tracing

    rounds = [workload.round(state, nproc())]
    worker_cpu, parent_cpu, wall = rounds[0].rusage or (0.0, 0.0, 1.0)
    if workload.name == "sweep":
        # traced with one worker so every kernel call happens in-process;
        # the overhead is taken against an untraced round on one worker too
        rounds.append(workload.round(state, 1))
    tracer = tracing.Tracer()
    tracing.install(tracer, st)
    try:
        traced = workload.round(state, 1)
    finally:
        tracer.restore()
    rounds.append(traced)
    tracer.write(os.path.join(OUT_DIR, "trace-%s.json" % workload.name))
    self_s = tracer.self_times()
    values = {name + ".self_s": self_s.get(name, 0.0) for name in SPAN_METRICS}
    values.update({name: tracer.counts.get(name, 0) for name in COUNT_METRICS})
    values["diagrams.closed_form.distinct_keys"] = len(tracer.distinct.get("diagrams.closed_form.keys", ()))
    values["diagrams.search.worker_cpu_s"] = worker_cpu
    values["diagrams.search.parent_cpu_s"] = parent_cpu
    values["diagrams.search.parallel_efficiency"] = worker_cpu / (nproc() * wall)
    values["trace.overhead_s"] = traced.busy_s - rounds[-2].busy_s
    record.update(rounds=len(rounds), spans=len(tracer.spans))
    return [(r.attempted, r.failed, r.errors) for r in rounds], reported(values, "per_layer")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("certify", "crosscheck", "sweep", "shapes"))
    parser.add_argument("--seed", type=int, default=0, help="recorded only: no workload is random")
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time of a timed run, in whole rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    st = load_program()
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    workload = workloads.make(args.workload, OUT_DIR)
    state = workload.setup()
    if args.setup_only:
        print(repr(time.perf_counter()))
        return 0

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "backend": st.kernels.BACKEND,
        "python": platform.python_version(),
        "nproc": nproc(),
        "git_sha": git_sha(),
        "started": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "in_process_setup_s": time.perf_counter() - STARTED,
        "probe_before_ms": host_probe_ms(),
    }
    if args.trace:
        tallies, metrics = traced_run(workload, state, st, record)
    else:
        tallies, metrics = timed_run(workload, state, args.seconds, record)
    record["probe_after_ms"] = host_probe_ms()
    errors = [error for _, _, round_errors in tallies for error in round_errors]
    result = {
        "correct": not errors,
        "attempted": sum(attempted for attempted, _, _ in tallies),
        "failed": sum(failed for _, failed, _ in tallies),
        "metrics": metrics,
    }
    record.update(result, errors=errors[:20])
    with open(os.path.join(OUT_DIR, "runs.jsonl"), "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    for error in errors[:20]:
        sys.stderr.write("CHECK FAILED: %s\n" % error)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
