#!/usr/bin/env python3
"""Run the Airfoil CFD application end to end and report convergence.

This is the paper's benchmark workload: a 2-D inviscid Euler solve around a
NACA airfoil on a generated unstructured O-mesh, driven through the OP2 API
under a selectable backend.

Run:  python examples/airfoil_simulation.py [--backend hpx_dataflow]
                                            [--ni 120] [--nj 96]
                                            [--iters 50] [--threads 4]
"""

import argparse
import math
import time

from repro.airfoil import AirfoilApp, ReferenceAirfoil, generate_mesh
from repro.airfoil.validation import compare_states
from repro.backends.registry import available_backends
from repro.op2 import op2_session


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--backend", default="hpx_dataflow", choices=available_backends())
    parser.add_argument("--ni", type=int, default=120, help="cells around the airfoil")
    parser.add_argument("--nj", type=int, default=96, help="cell layers to the far field")
    parser.add_argument("--iters", type=int, default=50)
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--validate", action="store_true", help="check against numpy reference")
    args = parser.parse_args()

    mesh = generate_mesh(ni=args.ni, nj=args.nj)
    print(f"mesh: {mesh.summary()}")
    print(f"backend: {args.backend}, {args.threads} logical workers\n")

    start = time.perf_counter()
    with op2_session(
        backend=args.backend, num_threads=args.threads, block_size=128
    ) as rt:
        app = AirfoilApp(mesh)
        result = app.run(rt, args.iters)
    elapsed = time.perf_counter() - start

    print(f"completed {result.iterations} iterations in {elapsed:.2f}s wall")
    print(f"final accumulated RMS: {result.final_rms(mesh.cells.size):.6f}")
    print(f"solution norm:         {result.q_norm:.6f}")

    if result.rms_history:
        print("\nconvergence (per-step RMS increment, every 10 iters):")
        prev = 0.0
        for i, total in enumerate(result.rms_history, start=1):
            inc = total - prev
            prev = total
            if i % 10 == 0 or i == 1:
                bar = "#" * max(1, int(40 * math.sqrt(inc) / math.sqrt(result.rms_history[0])))
                print(f"  iter {i:4d}  rms_inc {inc:10.5f}  {bar}")

    if args.validate:
        ref = ReferenceAirfoil(mesh)
        ref.run(args.iters)
        diffs = compare_states(app, ref, tol=1e-8)
        print(f"\nvalidated against numpy reference; max deviation {max(diffs.values()):.2e}")


if __name__ == "__main__":
    main()
