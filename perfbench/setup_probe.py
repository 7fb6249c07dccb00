"""Time one set-up: import wordrep and build a workload's inputs.

    python3 perfbench/setup_probe.py <workload> <seed>

prints the seconds taken and the host speed just after (gauge.py).
run.py runs it in fresh interpreters, so that each import starts cold.
"""

import sys
from pathlib import Path
from time import perf_counter

import gauge


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    start = perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import wordrep  # noqa: F401  (part of what is timed)
    import workloads

    workloads.build(workload, seed)
    seconds = perf_counter() - start
    # the gauge runs after the set-up, which must start cold; its first
    # run in a fresh interpreter is slower, so it is run once unmeasured
    gauge.work()
    speed = gauge.sample() / gauge.NOMINAL_S
    print(seconds, speed)


if __name__ == "__main__":
    main()
