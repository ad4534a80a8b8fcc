"""The measuring loop of run.py: set-up, warm-up, decks, checks, report.

Imported once srj is importable from the checkout's ``src``.
"""

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import machine
import tracing
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_PROCESSES = 5
SETUP_TIMEOUT_S = 60


def measure_setup(args, root, workdir, count):
    """Seconds from starting a fresh interpreter to the inputs built, per process."""
    tiny = "1" if args.tiny else "0"
    command = [sys.executable, os.path.join(BENCH_DIR, "setup_child.py"), args.workload, str(args.seed), tiny, workdir]
    samples = []
    for _ in range(count):
        start = time.monotonic()
        done = subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"set-up process failed ({done.returncode}): {done.stderr.strip()[-500:]}")
        samples.append(float(done.stdout.split()[-1]) - start)
    return samples


def run_deck(workload, ops, tracer=None):
    """Run ops back to back; return (outputs, seconds per op)."""
    outputs, times = [], []
    for op in ops:
        if tracer is None:
            start = time.perf_counter()
            outputs.append(workload.run(op))
            times.append(time.perf_counter() - start)
        else:
            with tracer.op_span(op.id) as record:
                outputs.append(workload.run(op))
            times.append(record[2] - record[1])
    return outputs, times


def check_deck(workload, ops, outputs, failures):
    passed = 0
    for op, output in zip(ops, outputs):
        reason = workload.check(op, output)
        if reason is None:
            passed += 1
        else:
            failures.append({"op": op.id, "params": repr(op.params), "via_cli": op.via_cli, "reason": reason})
    return passed


def end_to_end(times, passed, attempted, setup_samples):
    timed = sum(times)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s", len(setup_samples)),
        "ops_per_s": (passed / timed, "1/s", len(times)),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms", len(times)),
        "ok_ratio": (passed / attempted, "ratio", attempted),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }
    extra = {}
    # p90 needs at least 10 samples beyond it to mean anything.
    if len(times) >= 100:
        extra["op_p90_ms"] = (statistics.quantiles(times, n=10, method="inclusive")[8] * 1e3, "ms", len(times))
    return metrics, extra


def build_workload(args, workdir, tracer):
    """In-process set-up; a traced run records it as op ``setup``."""
    make = workloads.WORKLOADS[args.workload]
    if tracer is None:
        return make(args.seed, args.tiny, workdir)
    tracer.install()
    try:
        with tracer.op_span("setup"):
            return make(args.seed, args.tiny, workdir)
    finally:
        tracer.restore()


class Run:
    """What a run measured: op times, outcomes, probes."""

    def __init__(self):
        self.times, self.traced_times, self.op_log = [], [], []
        self.failures, self.probes = [], []
        self.passed = self.attempted = self.decks = 0

    def check(self, workload, ops, outputs):
        self.attempted += len(ops)
        self.passed += check_deck(workload, ops, outputs, self.failures)


def measure(args, workload, tracer):
    """Warm up, then run whole decks: untraced until ``--seconds`` of op
    time, or, traced, a fixed deck count with each deck also run untraced
    first as the overhead baseline (a fixed count keeps counts exact)."""
    measured = Run()
    machine.probe(measured.probes)
    warm = workload.warmup_ops()
    warm_failures = []
    if check_deck(workload, warm, run_deck(workload, warm)[0], warm_failures) != len(warm):
        raise RuntimeError(f"warm-up ops failed: {warm_failures}")
    machine.probe(measured.probes)
    while True:
        ops = workload.deck(measured.decks)
        outputs, times = run_deck(workload, ops)
        measured.times.extend(times)
        measured.op_log.extend([op.id, repr(op.params), op.via_cli, t] for op, t in zip(ops, times))
        measured.check(workload, ops, outputs)
        del outputs
        if tracer is not None:
            tracer.install()
            try:
                outputs, times = run_deck(workload, ops, tracer)
            finally:
                tracer.restore()
            measured.traced_times.extend(times)
            measured.check(workload, ops, outputs)
            del outputs
        machine.probe(measured.probes)
        measured.decks += 1
        if tracer is not None:
            done = measured.decks >= workload.trace_decks
        else:
            done = sum(measured.times) >= args.seconds
        if done:
            return measured


def run(args, root):
    """Run one workload as ``args`` says; print the report; return the exit code."""
    workdir = os.path.join(BENCH_DIR, "results")
    os.makedirs(workdir, exist_ok=True)
    # Only the untraced run reports setup_s.
    setup_samples = [] if args.trace else measure_setup(args, root, workdir, 2 if args.tiny else SETUP_PROCESSES)
    tracer = tracing.Tracer() if args.trace else None
    workload = build_workload(args, workdir, tracer)
    measured = measure(args, workload, tracer)

    failed = measured.attempted - measured.passed
    probe_ms = statistics.median(measured.probes)
    if tracer is None:
        metrics, extra = end_to_end(measured.times, measured.passed, measured.attempted, setup_samples)
    else:
        overhead = sum(measured.traced_times) / sum(measured.times)
        metrics = {name: (value, unit, len(measured.traced_times))
                   for name, (value, unit) in tracing.layer_metrics(tracer.spans, overhead, probe_ms).items()}
        extra = {}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    spmv_system = workload.systems[workloads.Solve2D.ADVECTION[0]][0] if args.workload == "solve2d" else None
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "decks": measured.decks,
        "attempted": measured.attempted,
        "failed": failed,
        "failures": measured.failures,
        "metrics": {name: {"value": v, "unit": u, "samples": n} for name, (v, u, n) in {**metrics, **extra}.items()},
        "setup_s_samples": setup_samples,
        "untraced_op_seconds": measured.op_log,
        "host_probe_ms_samples": measured.probes,
        "machine": machine.record(workload.working_set()),
        "spmv_computed": machine.spmv_counts(spmv_system) if spmv_system is not None else None,
    }
    with open(os.path.join(workdir, stem + ".json"), "w") as stream:
        json.dump(result, stream, indent=1)
    if tracer is not None:
        tracer.write(os.path.join(workdir, stem + ".spans.csv.gz"))

    for name, (value, unit, samples) in {**metrics, **extra}.items():
        print(f"{name} = {value:.6g} {unit} (samples={samples})")
    print(f"attempted = {measured.attempted}, failed = {failed}, host.probe_ms median = {probe_ms:.4g} ms")
    for failure in measured.failures:
        print(f"failed op {failure['op']} {failure['params']}: {failure['reason']}")
    correct = failed == 0 and all(math.isfinite(value) for value, _, _ in metrics.values())
    print(json.dumps({
        "correct": correct,
        "attempted": measured.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0

