"""Smoke test of the benchmark on tiny inputs; finishes in under a minute.

Run from the root of a checkout: ``python3 srjbench/smoke.py``.  Runs
every workload of BENCHMARK.json untraced and traced with ``--tiny`` and
asserts that the last output line names every metric BENCHMARK.json
lists, each with its unit and a finite value; that spans which never fire
(or whose function is gone) yield 0; and that the benchmark refuses to
run where the srj sources are missing.
"""

import json
import math
import os
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(BENCH_DIR, "run.py")


def run_benchmark(workload, trace, cwd="."):
    command = [sys.executable, RUN, "--workload", workload, "--seed", "1",
               "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=120)


def check_output(done, expected, label):
    assert done.returncode == 0, f"{label}: exit {done.returncode}\n{done.stderr[-2000:]}"
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, (label, sorted(result))
    assert result["correct"] is True, (label, result)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, (label, result)
    assert result["failed"] == 0, (label, result)
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in expected}, (label, sorted(metrics))
    for metric in expected:
        entry = metrics[metric["name"]]
        assert entry["unit"] == metric["unit"], (label, metric["name"], entry)
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"]), (label, metric["name"], entry)
    return metrics


def check_missing_spans():
    """A target that is gone, and layers that never fire, report 0."""
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, BENCH_DIR)
    import srj.sparse
    import tracing

    tracer = tracing.Tracer()
    original = srj.sparse.spmv
    tracer.install({"gone": ("srj.sparse", "no_such_function"), "sparse.spmv": ("srj.sparse", "spmv")})
    assert srj.sparse.spmv is not original
    tracer.restore()
    assert srj.sparse.spmv is original
    metrics = tracing.layer_metrics([], overhead_ratio=1.0, probe_ms=1.0)
    for name, (value, _) in metrics.items():
        if name not in ("trace.overhead_ratio", "host.probe_ms"):
            assert value == 0, (name, value)


def main():
    start = time.monotonic()
    with open("BENCHMARK.json") as stream:
        spec = json.load(stream)
    for workload in (w["name"] for w in spec["workloads"]):
        check_output(run_benchmark(workload, 0), spec["end_to_end"], f"{workload} untraced")
        traced = check_output(run_benchmark(workload, 1), spec["per_layer"], f"{workload} traced")
        if workload == "derive":
            for name in ("sparse.spmv.calls", "solver.sweeps", "spectral.jacobi_eigenvalues.ms_per_call"):
                assert traced[name]["value"] == 0, (name, traced[name])
        print(f"ok {workload}", flush=True)
    check_missing_spans()
    print("ok missing spans give 0")
    with tempfile.TemporaryDirectory(dir=os.path.join(BENCH_DIR, "results")) as empty:
        done = run_benchmark("select1d", 0, cwd=empty)
        assert done.returncode != 0 and not done.stdout.strip(), (done.returncode, done.stdout)
    print("ok refuses to run without srj sources")
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"smoke took {elapsed:.1f} s"
    print(f"smoke passed in {elapsed:.1f} s")


if __name__ == "__main__":
    main()
