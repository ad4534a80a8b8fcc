"""srj benchmark: one workload, untraced (end-to-end) or traced (per layer).

Run from the root of a checkout:

    python3 srjbench/run.py --workload solve2d --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of BENCHMARK.json, ``--trace
1`` every per-layer metric.  Both print a line per metric (name, value,
unit, sample count) and end with one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A result file with the
machine record goes to ``srjbench/results/``.  See srjbench/README.md.
"""

import os

# Pin BLAS/OpenMP threads before numpy loads; set-up children inherit it.
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import sys  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("solve2d", "derive", "select1d"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="untraced op time to measure, in whole decks")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    return parser.parse_args(argv)


def checkout_src(root):
    """The checkout's ``src`` directory, or None when srj's sources are missing."""
    src = os.path.join(root, "src")
    return src if os.path.isfile(os.path.join(src, "srj", "__init__.py")) else None


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    root = os.getcwd()
    src = checkout_src(root)
    if src is None:
        print(f"srjbench: no srj sources at {os.path.join(root, 'src', 'srj')}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import srj

    if not os.path.realpath(srj.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"srjbench: imported srj from {srj.__file__}, not from {src}", file=sys.stderr)
        return 2
    import harness

    return harness.run(args, root)


if __name__ == "__main__":
    sys.exit(main())
