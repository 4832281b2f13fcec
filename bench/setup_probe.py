"""Set-up probe: python3 -I bench/setup_probe.py ROOT SCENARIO...

Imports dvfsim from ROOT/src with its CLI, loads and validates each scenario
file, and prints the CLOCK_MONOTONIC time in nanoseconds at which it finished,
followed by the path dvfsim was imported from. The caller reads the clock just
before starting this interpreter, so the difference is the set-up time every
CLI invocation pays.
"""

import sys
import time

sys.path.insert(0, sys.argv[1] + "/src")

import dvfsim  # noqa: E402
import dvfsim.cli  # noqa: E402, F401

for path in sys.argv[2:]:
    dvfsim.load_scenario(path)
done = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
print(done)
print(dvfsim.__file__)
