"""Time one workload set-up in a fresh interpreter and print the seconds.

Usage: python3 perfbench/setup_probe.py --workload NAME --seed N --workdir DIR

The time runs from before the first import of numpy and discenv until
everything the first search or solver call needs is built: config
validation, the pair, the obstacle, the families and the requests.
Drawing the inputs is the benchmark's own work and is left out.
Then it times three passes of the host-speed kernel (hostspeed.py) and
prints their median after the set-up seconds, so run.py can turn the
set-up time into reference seconds.  run.py starts this several times
per run and reports the median.
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()
    workloads.load_package()
    wl = workloads.WORKLOADS[args.workload]
    t_gen = perf_counter()
    inputs = wl.generate(args.seed)
    t_gen = perf_counter() - t_gen
    wl.setup(inputs, args.workdir)
    setup_s = perf_counter() - T0 - t_gen
    import hostspeed
    speed = hostspeed.SpeedProbe()
    for _ in range(3):
        speed.probe()
    print(repr(setup_s), repr(speed.median_pass()))


if __name__ == "__main__":
    main()
