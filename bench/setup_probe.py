"""Time what a command-line user pays before the first VM step.

    python3 bench/setup_probe.py SUBJECT [SUBJECT ...]

In this fresh process: import carvelift, then for each subject parse it
(resolve_program), load its seeds (resolve_seeds) and enumerate its
goals.  Prints the seconds that took, then the same scaled to the
reference host speed (speed.py) by probes timed just before and after.
"""

import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import speed  # noqa: E402

PROBES = 5

before = statistics.median(speed.probe() for _ in range(PROBES))
t0 = perf_counter()

sys.path.insert(0, str(BENCH.parent / "src"))

import carvelift  # noqa: E402
from carvelift.lang.goals import enumerate_goals  # noqa: E402

for spec in sys.argv[1:]:
    program, name = carvelift.resolve_program(spec)
    carvelift.resolve_seeds(None, name)
    enumerate_goals(program)
wall = perf_counter() - t0
after = statistics.median(speed.probe() for _ in range(PROBES))
print(repr(wall), repr(speed.at_reference(wall, (before + after) / 2)))
