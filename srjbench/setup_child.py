"""One fresh-interpreter set-up: import srj, build a workload's inputs.

Run by ``run.py`` from the root of a checkout as
``python3 srjbench/setup_child.py <workload> <seed> <tiny 0|1> <workdir>``.
Prints ``time.monotonic()`` once the inputs exist; the parent subtracts
the moment it started this process.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import workloads  # noqa: E402  (imports srj)


def main(argv):
    name, seed, tiny, workdir = argv
    workloads.WORKLOADS[name](int(seed), tiny == "1", workdir)
    print(repr(time.monotonic()), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
