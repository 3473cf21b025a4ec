"""Smoke tests: every example script runs to completion offline."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

CASES = [
    ("quickstart.py", []),
    ("airfoil_simulation.py", ["--ni", "24", "--nj", "10", "--iters", "3", "--validate"]),
    ("codegen_translate.py", []),
    ("heat_diffusion.py", ["--ni", "16", "--nj", "8", "--steps", "30"]),
    ("trace_gantt.py", []),
    ("distributed_airfoil.py", ["--ranks", "2", "--ni", "24", "--nj", "12", "--iters", "2"]),
    ("shallow_water_waves.py", ["--ni", "24", "--nj", "12", "--steps", "12"]),
    ("scaling_comparison.py", ["--quick"]),
]


@pytest.mark.parametrize("script,args", CASES, ids=[c[0] for c in CASES])
def test_example_runs(script, args):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "examples must print something"


def test_all_examples_covered():
    """Every example script is smoke-tested here."""
    scripts = {p.name for p in EXAMPLES.glob("*.py")}
    covered = {c[0] for c in CASES}
    assert scripts == covered, f"unaccounted examples: {scripts ^ covered}"
