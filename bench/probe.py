"""Set-up probe: a fresh process that imports the package and builds one
workload's calls, then prints how long that took, scaled like the calls
(see ``calibrate.py``).  Starting the interpreter and importing the
benchmark's own modules are left out.

Usage: python3 bench/probe.py <workload> <seed> <outdir>
"""

import sys

import workloads
from calibrate import Calibration
from run import use_checkout

if __name__ == "__main__":
    use_checkout()
    calibration = Calibration("exact")
    with calibration:
        start = calibration.clock()
        workloads.prepare(sys.argv[1], int(sys.argv[2]), sys.argv[3])
        end = calibration.clock()
    sys.stdout.write(f"{calibration.scale(start, end)!r}\n")
