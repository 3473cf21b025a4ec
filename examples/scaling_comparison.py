#!/usr/bin/env python3
"""Reproduce the paper's headline comparison (Figs 15, 17, 18) in one run.

Runs the Airfoil app functionally under OpenMP / for_each / async / dataflow,
emits each backend's task graph, simulates the graphs on the modeled 16-core
/ 32-hyperthread Xeon node, and prints execution-time and speedup tables plus
an ASCII strong-scaling plot.

Run:  python examples/scaling_comparison.py [--quick]
"""

import argparse
import time

from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import (
    fig15_exec_time,
    fig17_async,
    fig18_dataflow,
    render_figure,
)
from repro.experiments.report import claim_check


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller mesh / fewer steps (less faithful magnitudes, ~5x faster)",
    )
    args = parser.parse_args()

    config = (
        ExperimentConfig(ni=120, nj=96, niter=2)
        if args.quick
        else ExperimentConfig(niter=3)
    )
    print(
        f"mesh {config.ni}x{config.nj}, {config.niter} timesteps, "
        f"threads {config.threads}\n"
    )

    start = time.perf_counter()
    f15 = fig15_exec_time(config)
    f17 = fig17_async(config)
    f18 = fig18_dataflow(config)
    elapsed = time.perf_counter() - start

    for fig in (f15, f17, f18):
        print(render_figure(fig))
        print()

    report = claim_check(fig15=f15, fig17=f17, fig18=f18)
    print("paper-claim check:")
    print(report.render())
    print(f"\nall claims hold: {report.all_hold}   ({elapsed:.1f}s)")


if __name__ == "__main__":
    main()
