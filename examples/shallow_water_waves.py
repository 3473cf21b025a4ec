#!/usr/bin/env python3
"""Third application: shallow-water waves around the airfoil.

A Volna-style (OP2's tsunami code) finite-volume shallow-water solver on the
same unstructured substrate: a Gaussian free-surface bump collapses and its
waves wrap around the airfoil inside a closed basin. Mass is conserved to
machine precision — watch the drift column.

Run:  python examples/shallow_water_waves.py [--backend hpx_dataflow] [--steps 120]
"""

import argparse
import time

import numpy as np

from repro.airfoil import generate_mesh
from repro.apps.shallow_water import ShallowWaterApp
from repro.backends.registry import available_backends
from repro.op2 import op2_session


def surface_profile(app: ShallowWaterApp, width: int = 64) -> str:
    """ASCII water-surface elevation along a mid-radius cell ring."""
    ni, nj = app.mesh.ni, app.mesh.nj
    j = nj // 2  # mid-radius ring: waves arrive early
    ring = app.u.data[j * ni : (j + 1) * ni, 0]
    lo, hi = float(ring.min()), float(ring.max())
    span = (hi - lo) or 1.0
    cells = np.linspace(0, ni - 1, width).astype(int)
    levels = " .:-=+*#%@"
    return "".join(levels[int((ring[c] - lo) / span * (len(levels) - 1))] for c in cells)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--backend", default="hpx_dataflow", choices=available_backends())
    parser.add_argument("--steps", type=int, default=240)
    parser.add_argument("--ni", type=int, default=64)
    parser.add_argument("--nj", type=int, default=32)
    args = parser.parse_args()

    # Gentle clustering keeps the near-wall cells from crushing the
    # global CFL timestep, so the waves visibly propagate in a short demo.
    mesh = generate_mesh(ni=args.ni, nj=args.nj, far_radius=6.0, clustering=1.5)
    print(f"mesh: {mesh.summary()}")
    print(f"backend: {args.backend}\n")

    start = time.perf_counter()
    with op2_session(backend=args.backend, num_threads=4, block_size=64) as rt:
        app = ShallowWaterApp(mesh, bump_height=0.15)
        m0 = app.total_mass()
        print(f"{'step':>5} {'t':>8} {'dt':>9} {'h_max':>7} {'mass drift':>11}  far-field surface")
        for chunk in range(6):
            res = app.run(rt, args.steps // 6)
            drift = abs(app.total_mass() - m0) / m0
            print(
                f"{(chunk + 1) * (args.steps // 6):5d} {app.time:8.4f} "
                f"{res.dt_history[-1]:9.2e} {res.h_range[1]:7.4f} "
                f"{drift:11.2e}  {surface_profile(app)}"
            )
    elapsed = time.perf_counter() - start

    print(f"\n{args.steps} steps in {elapsed:.2f}s; "
          f"mass conserved to {abs(app.total_mass() - m0) / m0:.1e} (closed basin)")


if __name__ == "__main__":
    main()
