#!/usr/bin/env python3
"""A second unstructured application: explicit heat conduction.

Demonstrates that the OP2 framework is not Airfoil-shaped: a different loop
structure (flux + advance with two global reductions, periodic convergence
checks), the same API, every backend. Also shows the async backend's
programmer-placed synchronization versus dataflow's automatic ordering.

Run:  python examples/heat_diffusion.py [--backend hpx_dataflow] [--steps 200]
"""

import argparse
import time

import numpy as np

from repro.airfoil import generate_mesh
from repro.apps.heat import HeatApp, reference_heat_run
from repro.backends.registry import available_backends
from repro.op2 import op2_session


def temperature_profile(app: HeatApp, width: int = 60) -> str:
    """ASCII radial temperature profile (wall -> far field)."""
    ni, nj = app.mesh.ni, app.mesh.nj
    rows = app.t.data[:, 0].reshape(nj, ni).mean(axis=1)
    peak = rows.max() or 1.0
    lines = []
    for j in range(0, nj, max(1, nj // 12)):
        bar = "#" * int(width * rows[j] / peak)
        lines.append(f"  layer {j:3d}  T={rows[j]:.4f}  {bar}")
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--backend", default="hpx_dataflow", choices=available_backends())
    parser.add_argument("--steps", type=int, default=200)
    parser.add_argument("--ni", type=int, default=48)
    parser.add_argument("--nj", type=int, default=24)
    args = parser.parse_args()

    mesh = generate_mesh(ni=args.ni, nj=args.nj)
    print(f"mesh: {mesh.summary()}")
    print(f"backend: {args.backend}\n")

    start = time.perf_counter()
    with op2_session(backend=args.backend, num_threads=4, block_size=64) as rt:
        app = HeatApp(mesh, kappa=1.0, dt=5e-4)
        result = app.run(rt, max_steps=args.steps, tol=1e-7, check_every=20)
    elapsed = time.perf_counter() - start

    print(f"ran {result.steps} steps in {elapsed:.2f}s "
          f"(converged: {result.converged}, max |dT| = {result.max_change:.2e})")
    print(f"total energy: {result.total_energy:.12f} (conserved)\n")
    print("temperature profile (hot wall band diffusing outward):")
    print(temperature_profile(app))

    ref_t, ref_energy = reference_heat_run(
        mesh, kappa=1.0, dt=5e-4, steps=result.steps
    )
    err = float(np.abs(app.t.data[:, 0] - ref_t).max())
    print(f"\nmax deviation vs plain-numpy reference: {err:.2e}")


if __name__ == "__main__":
    main()
