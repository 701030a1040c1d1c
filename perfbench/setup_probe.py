"""Set-up of one benchmark process, timed from outside by run.py.

    python3 perfbench/setup_probe.py <workload> <seed>

Imports greenbvp and its scipy dependencies, loads the fixtures, generates
the seeded inputs and builds the tasks, then exits.
"""

import sys

import workloads

if __name__ == "__main__":
    workloads.setup(sys.argv[1], int(sys.argv[2]))
