"""Ablation A3: block-coloring strategy.

Plans color the block-conflict graph of indirect-increment loops; fewer
colors means wider parallel stages. Compares first-fit greedy against
Welsh–Powell (descending degree) on the Airfoil edge loops, both for color
count and for the downstream simulated makespan of the OpenMP backend
(which runs one parallel region per color).
"""

import numpy as np
import pytest

from benchmarks.conftest import PAPER_CONFIG
from repro.airfoil import AirfoilApp
from repro.op2 import op2_session
from repro.op2.coloring import (
    build_block_conflicts,
    degree_coloring,
    greedy_coloring,
    validate_coloring,
)
from repro.op2.partition import contiguous_blocks
from repro.util.tables import Table

_results: dict[str, tuple[int, float]] = {}


@pytest.fixture(scope="module")
def conflict_graph(paper_mesh):
    blocks = contiguous_blocks(paper_mesh.edges.size, PAPER_CONFIG.block_size)
    targets = [
        np.unique(paper_mesh.pecell.values[b.start : b.stop].ravel()) for b in blocks
    ]
    return build_block_conflicts(targets)


@pytest.mark.parametrize(
    "name,algorithm",
    [("greedy first-fit", greedy_coloring), ("welsh-powell", degree_coloring)],
)
def test_coloring_strategy(benchmark, conflict_graph, name, algorithm):
    colors = benchmark.pedantic(
        lambda: algorithm(conflict_graph), rounds=3, iterations=1
    )
    validate_coloring(conflict_graph, colors)
    ncolors = max(colors) + 1
    # Parallelism proxy: average blocks per color (wider is better).
    width = len(colors) / ncolors
    _results[name] = (ncolors, width)
    benchmark.extra_info["ncolors"] = ncolors
    benchmark.extra_info["avg_blocks_per_color"] = width


def test_plan_construction_cost(benchmark, paper_mesh):
    """Plan build (blocking + conflicts + coloring) for the res_calc shape."""

    def build():
        with op2_session(backend="seq", block_size=PAPER_CONFIG.block_size) as rt:
            app = AirfoilApp(paper_mesh)
            app.fire("res_calc")
            return rt.plans.misses

    misses = benchmark.pedantic(build, rounds=3, iterations=1)
    assert misses == 1


@pytest.fixture(scope="module", autouse=True)
def _print_table():
    yield
    if len(_results) < 2:
        return
    table = Table(["strategy", "colors", "avg blocks/color"])
    for name, (ncolors, width) in _results.items():
        table.add_row([name, ncolors, width])
    print("\n== ablation A3: coloring strategy (res_calc conflict graph) ==")
    print(table.render())
