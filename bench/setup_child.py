"""Time the benchmark's set-up in a fresh interpreter.

    python3 bench/setup_child.py <src dir> <workload> <seed>

Imports every module of qseal from <src dir> before anything else, so each
module qseal pulls in is paid for here, then generates the workload's fixed
input set.  Prints the seconds the two took.  run.py starts this several
times and reports the median as setup_s.
"""

import os
import sys
from time import perf_counter

start = perf_counter()
package_dir = os.path.join(os.path.abspath(sys.argv[1]), "qseal")
sys.path.insert(0, os.path.dirname(package_dir))
for name in sorted(os.listdir(package_dir)):
    if name.endswith(".py") and not name.startswith("_"):
        __import__("qseal." + name[:-3])
imported = perf_counter()
if os.path.dirname(os.path.abspath(sys.modules["qseal"].__file__)) != package_dir:
    sys.exit(f"qseal imported from {sys.modules['qseal'].__file__}, not {package_dir}")

import workloads  # noqa: E402  (the benchmark's own module; not timed)

generating = perf_counter()
workloads.Inputs(sys.argv[2], int(sys.argv[3]), workloads.INPUT_BLOCKS)
end = perf_counter()
print(repr((imported - start) + (end - generating)))
