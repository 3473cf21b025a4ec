"""The repo benchmark: measured Airfoil timestep cost per execution layer.

Run from the repository root::

    python3 perfbench/run.py --workload airfoil-dataflow-2w --seed 1 --seconds 45 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones. The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it are the
readable table and the run's record (host fingerprint, seed, segment
count). The exit code is nonzero when any segment failed or a check of the
benchmark's own instrumentation did not hold. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = (
    "airfoil-dataflow-2w",
    "dist-overlapped-2r",
)


def child_pids() -> list[int]:
    """Pids of the processes, zombies included, whose parent is this one;
    empty where there is no ``/proc``."""
    pids = []
    for entry in Path("/proc").glob("[0-9]*"):
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # ended while we looked
        if int(stat.rsplit(")", 1)[1].split()[1]) == os.getpid():
            pids.append(int(entry.name))
    return sorted(pids)


def stop_children() -> list[int]:
    """Stop every process the run started and wait until each has ended;
    returns the pids of any child still there afterwards.

    ``run_procs`` joins its rank processes itself; this also reaps any rank
    left alive by an error path, and the ``multiprocessing`` resource
    tracker that creating a shared-memory segment launches, which by design
    outlives the process that launched it unless it is stopped.
    """
    import multiprocessing as mp
    from multiprocessing import resource_tracker

    for proc in mp.active_children():
        proc.terminate()
        proc.join(10.0)
        if proc.is_alive():
            proc.kill()
            proc.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    return child_pids()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1, help="cell relabelling seed")
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the repro package from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: repro comes from {repro.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    import harness

    try:
        result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        left = stop_children()
    if left:
        result["correct"] = False
        result["record"]["problems"].append(f"processes left running: {left}")
    print(harness.render(result))
    print("record: " + json.dumps(result["record"], sort_keys=True))
    print(json.dumps(harness.main_result(result)))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
