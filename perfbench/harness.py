"""Workloads, segments and metrics of the repo benchmark.

One *segment* is one public entry-point call of ``K`` timesteps from the
free stream: an ``AirfoilApp.run(rt, K)`` on a live ``op2_session`` in
threads mode, or a ``run_procs(mesh, ProcsConfig(niter=K))`` in procs mode.
A segment is the benchmark's operation: it is timed, checked against the
sequential reference, and counted as attempted or failed.

The untraced run gives the end-to-end metrics. The traced run alternates
traced and untraced segments, takes the per-layer numbers from the traced
ones (see :mod:`layers`) and the tracing overhead from the pair.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import tempfile
import threading
from contextlib import ExitStack, suppress
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.airfoil import AirfoilApp, ReferenceAirfoil, generate_mesh
from repro.airfoil.meshgen import AirfoilMesh
from repro.engine import INNER_ITERS
from repro.op2 import OpMap, OpSet, op2_session
from repro.procs import ProcsConfig, leaked_segments, run_procs

from layers import LayerTrace

ROOT = Path(__file__).resolve().parent.parent

#: Airfoil O-mesh size: 11,520 cells and 22,920 edges.
NI, NJ = 120, 96
#: timesteps per segment, the same on every workload.
K = 6
#: set-ups per run; ``setup_s`` is their median on the threads workloads.
SETUP_REPS = 5
#: max |q - q_ref| a segment may show; the bound the ``dist`` CLI uses.
TOLERANCE = 1e-12
#: a run stops measuring after this many multiples of ``--seconds`` (plus
#: 30 s) of wall time, so it ends in time even when segments hang.
WALL_CAP = 2.5
#: segments that lost more than this share of the VM's CPU time to hypervisor
#: steal are left out of the medians, as long as ``MIN_CLEAN`` others remain
#: (21 keeps the tail percentile above the median); otherwise the
#: ``MIN_CLEAN`` least-stolen ones are used. An untraced run measures up to
#: ``EXTEND`` x ``--seconds`` to collect clean segments.
STEAL_LIMIT = 0.02
MIN_CLEAN = 21
EXTEND = 1.2


@dataclass(frozen=True)
class Workload:
    """One execution layer to measure; ``BENCHMARK.json`` says why each exists."""

    name: str
    mode: str  # "threads" | "procs"
    backend: str = ""
    workers: int = 1
    ranks: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("airfoil-dataflow-2w", "threads", "hpx_dataflow", 2),
        Workload("dist-overlapped-2r", "procs", ranks=2),
    )
}


# -- inputs -------------------------------------------------------------------


def relabel_cells(mesh: AirfoilMesh, seed: int) -> AirfoilMesh:
    """The same mesh with its cells numbered in a seeded random order.

    Generated O-meshes come out perfectly ordered; meshes read from real
    mesh generators do not. A random cell numbering is the worst case of
    that, and it changes what an unstructured code pays for locality
    (gathers, scatters, dependency fan-in) without changing the physics.
    """
    rng = np.random.default_rng(seed)
    ncells = mesh.cells.size
    perm = rng.permutation(ncells)  # perm[old] = new
    cells = OpSet("cells", ncells)
    pcell = np.empty_like(mesh.pcell.values)
    pcell[perm] = mesh.pcell.values
    return AirfoilMesh(
        ni=mesh.ni,
        nj=mesh.nj,
        nodes=mesh.nodes,
        edges=mesh.edges,
        bedges=mesh.bedges,
        cells=cells,
        pedge=mesh.pedge,
        pecell=OpMap("pecell", mesh.edges, cells, 2, perm[mesh.pecell.values]),
        pbedge=mesh.pbedge,
        pbecell=OpMap("pbecell", mesh.bedges, cells, 1, perm[mesh.pbecell.values]),
        pcell=OpMap("pcell", cells, mesh.nodes, 4, pcell),
        x=mesh.x,
        bound=mesh.bound,
    )


def timed_mesh(seed: int) -> tuple[AirfoilMesh, float]:
    """(relabelled mesh, seconds spent in ``generate_mesh``)."""
    t0 = perf_counter()
    mesh = generate_mesh(ni=NI, nj=NJ)
    meshgen = perf_counter() - t0
    return relabel_cells(mesh, seed), meshgen


def elements_per_step(mesh: AirfoilMesh) -> int:
    """Loop elements one Airfoil timestep visits (save_soln + 2 x four loops)."""
    cells, edges, bedges = mesh.cells.size, mesh.edges.size, mesh.bedges.size
    return cells + INNER_ITERS * (cells + edges + bedges + cells)


# -- segments -----------------------------------------------------------------


@dataclass
class Segment:
    #: the segment's loop wall: ``AirfoilApp.run`` / slowest rank's loop.
    wall: float
    #: wall of the whole entry-point call (procs: includes its set-up).
    call: float
    failure: str | None = None
    traced: bool = False
    #: share of the VM's CPU time stolen by the hypervisor during the call.
    steal: float = 0.0
    layers: dict = field(default_factory=dict)
    #: count-closure or instrumentation problems found in a traced segment.
    checks: list = field(default_factory=list)


def _pool_counts(rt) -> dict[str, int]:
    s = rt.pool_stats
    return {
        "tasks": s.tasks_submitted,
        "joins": s.joins,
        "color_joins": s.color_joins,
        "batches": s.batches,
    }


class ThreadsRunner:
    """One ``op2_session`` in threads mode, stepped one segment at a time."""

    def __init__(self, wl: Workload, seed: int, trace: LayerTrace | None) -> None:
        self.wl = wl
        self.seed = seed
        self.trace = trace
        self.stack = ExitStack()
        self.setups: list[tuple[float, float]] = []  # (seconds, steal)
        self.meshgens: list[float] = []
        self.setup_layers: list[dict] = []
        self.restore_failures: list[str] = []
        self.broken = False

    def setup(self) -> None:
        self.baseline_threads = threading.active_count()
        for rep in range(SETUP_REPS):
            if self.trace is not None:
                self.trace.patch()
                self.trace.reset()
            try:
                ticks = cpu_ticks()
                mesh, meshgen = timed_mesh(self.seed)
                t0 = perf_counter()
                stack = ExitStack()
                rt = stack.enter_context(
                    op2_session(
                        backend=self.wl.backend,
                        num_threads=self.wl.workers,
                        mode="threads",
                        num_workers=self.wl.workers,
                    )
                )
                app = AirfoilApp(mesh)
                q0 = app.p_q.data.copy()
                app.run(rt, K)  # warm-up segment: plans, colourings, pool threads
                self.setups.append((meshgen + perf_counter() - t0, steal_since(ticks)))
                self.meshgens.append(meshgen)
            finally:
                if self.trace is not None:
                    self.setup_layers.append(self.trace.totals())
                    self.restore_failures += self.trace.unpatch()
            if rep < SETUP_REPS - 1:
                stack.close()
        self.stack = stack
        self.mesh, self.rt, self.app, self.q0 = mesh, rt, app, q0
        ref = ReferenceAirfoil(mesh)
        ref.run(K)
        self.ref_q = ref.q.copy()
        self.expected_elements = elements_per_step(mesh)

    def segment(self, traced: bool) -> Segment:
        rt, app = self.rt, self.app
        app.p_q.data[...] = self.q0  # every segment starts from the free stream
        app.g_rms.reset()
        before = _pool_counts(rt)
        if traced:
            self.trace.reset()
        ticks = cpu_ticks()
        t0 = perf_counter()
        try:
            app.run(rt, K)
        except Exception as exc:  # a failed segment is counted, not fatal
            wall = perf_counter() - t0
            rt.cancel()
            self.broken = True
            return Segment(wall, wall, failure=f"raised {exc!r}", traced=traced)
        wall = perf_counter() - t0
        seg = Segment(wall, wall, traced=traced, steal=steal_since(ticks))
        if traced:
            seg.layers = self.trace.totals()
            after = _pool_counts(rt)
            for key in after:
                got = seg.layers.get(key, 0)
                if got != after[key] - before[key]:
                    seg.checks.append(
                        f"hpx.{key}: traced {got} != pool_stats delta {after[key] - before[key]}"
                    )
            if seg.layers.get("elements", 0) != self.expected_elements * K:
                seg.checks.append(
                    f"backends.elements: {seg.layers.get('elements', 0)} "
                    f"!= {self.expected_elements} x {K}"
                )
        err = float(np.abs(app.p_q.data - self.ref_q).max())
        if not err <= TOLERANCE:
            seg.failure = f"max |q - q_ref| = {err:.3e} > {TOLERANCE}"
        elif threading.active_count() > self.baseline_threads + self.wl.workers:
            seg.failure = f"{threading.active_count()} threads alive after the segment"
        return seg

    def close(self) -> str | None:
        """End the session; returns a failure if pool threads stay behind."""
        self.stack.close()
        if threading.active_count() != self.baseline_threads:
            return (
                f"{threading.active_count()} threads alive after the session, "
                f"{self.baseline_threads} before"
            )
        return None

    def setup_metric(self, segments: list[Segment]) -> list[tuple[float, float]]:
        return self.setups


class ProcsRunner:
    """Repeated ``run_procs`` calls on one relabelled mesh."""

    def __init__(self, wl: Workload, seed: int, trace: LayerTrace | None) -> None:
        self.wl = wl
        self.seed = seed
        self.trace = trace
        self.meshgens: list[float] = []
        self.setup_layers: list[dict] = []
        self.restore_failures: list[str] = []
        self.broken = False
        self.config = ProcsConfig(
            ranks=wl.ranks,
            niter=K,
            schedule="overlapped",
            partitioner="rcb",
            # the traced run's wrappers reach the ranks only through fork
            spawn_method="fork",
        )

    def setup(self) -> None:
        for _ in range(SETUP_REPS):
            mesh, meshgen = timed_mesh(self.seed)
            self.meshgens.append(meshgen)
        self.mesh = mesh
        ref = ReferenceAirfoil(mesh)
        ref.run(K)
        self.ref_q = ref.q.copy()
        if self.trace is not None:
            tmp_root = ROOT / ".perfbench_tmp"
            tmp_root.mkdir(exist_ok=True)
            self.tmp = tempfile.TemporaryDirectory(dir=tmp_root)
            self.trace.rank_dir = Path(self.tmp.name)

    def segment(self, traced: bool) -> Segment:
        if traced:
            self.trace.reset()
        ticks = cpu_ticks()
        t0 = perf_counter()
        try:
            res = run_procs(self.mesh, self.config)
        except Exception as exc:  # a failed segment is counted, not fatal
            call = perf_counter() - t0
            names = getattr(exc, "shm_names", ())
            leaked = leaked_segments(names) if names else []
            return Segment(
                call, call, traced=traced,
                failure=f"raised {type(exc).__name__}; leaked shm {leaked}",
            )
        call = perf_counter() - t0
        seg = Segment(res.wall_seconds, call, traced=traced, steal=steal_since(ticks))
        if traced:
            seg.layers = self._rank_layers(res, seg)
        err = float(np.abs(res.q - self.ref_q).max())
        leaked = leaked_segments(res.shm_names)
        if not err <= TOLERANCE:
            seg.failure = f"max |q - q_ref| = {err:.3e} > {TOLERANCE}"
        elif leaked:
            seg.failure = f"shm segments left behind: {leaked}"
        return seg

    def _rank_layers(self, res, seg: Segment) -> dict:
        parent = self.trace.totals()
        ranks = self.trace.read_ranks(self.wl.ranks)
        if len(ranks) != self.wl.ranks:
            seg.checks.append(f"rank trace files: got {sorted(ranks)}")
            return parent
        layers = dict(parent)
        per_rank = [r["totals"] for r in ranks.values()]
        for tot in per_rank:
            for key, value in tot.items():
                if key != "program_s":
                    layers[key] = layers.get(key, 0.0) + value
        programs = [tot.get("program_s", 0.0) for tot in per_rank]
        layers["program_max_s"] = max(programs)
        layers["rank_imbalance"] = max(programs) / min(programs) if min(programs) > 0 else 0.0
        layers["spawn_s"] = max(r["entered"] for r in ranks.values()) - parent["dist_plan_end"]
        comm = res.comm
        messages = comm["messages_updated"] + comm["messages_accumulated"]
        nbytes = comm["bytes_updated"] + comm["bytes_accumulated"]
        if layers.get("messages", 0) != messages:
            seg.checks.append(f"procs.messages: traced {layers.get('messages', 0)} != {messages}")
        if layers.get("halo_bytes", 0) != nbytes:
            seg.checks.append(f"procs.halo_bytes: traced {layers.get('halo_bytes', 0)} != {nbytes}")
        return layers

    def close(self) -> str | None:
        if self.trace is not None:
            self.tmp.cleanup()
            with suppress(OSError):  # another run may still use it
                self.trace.rank_dir.parent.rmdir()
        return None

    def setup_metric(self, segments: list[Segment]) -> list[tuple[float, float]]:
        return [(s.call - s.wall, s.steal) for s in segments]


# -- measurement ----------------------------------------------------------------


def measure(runner, seconds: float, trace: LayerTrace | None) -> list[Segment]:
    """Run segments until their calls add up to ``seconds``; untraced runs go
    on up to ``EXTEND`` times that while fewer than ``MIN_CLEAN`` ran clean.

    With a tracer, even-numbered segments run wrapped and odd ones bare.
    """
    segments: list[Segment] = []
    spent = 0.0
    clean = 0
    start = perf_counter()
    while perf_counter() - start < WALL_CAP * seconds + 30:
        if spent >= seconds and (
            trace is not None or clean >= MIN_CLEAN or spent >= EXTEND * seconds
        ):
            break
        traced = trace is not None and len(segments) % 2 == 0
        if traced:
            trace.patch()
        try:
            seg = runner.segment(traced)
        finally:
            if traced:
                runner.restore_failures += trace.unpatch()
        segments.append(seg)
        spent += seg.call
        clean += seg.failure is None and seg.steal <= STEAL_LIMIT
        if runner.broken:
            break
    return segments


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with >= 10 samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], math.floor(1000.0 * (n - 10) / n) / 10, n


def peak_rss_mb(mode: str) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if mode == "procs":
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def _ms_per_step(segments: list[Segment]) -> list[float]:
    return [s.wall / K * 1e3 for s in segments if s.failure is None]


#: end-to-end metrics with their units; ``fail_rate`` is the result's
#: ``failed``/``attempted`` and is printed in the table, not as a metric,
#: because it is zero on a correct build.
END_TO_END = {
    "step_ms_p50": "ms",
    "step_ms_tail": "ms",
    "cell_steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def end_to_end(wl, runner, segments, cells) -> tuple[dict, dict]:
    """The untraced metrics, plus the tail's percentile and sample count."""
    ok = [s for s in segments if s.failure is None and not s.traced]
    used = unstolen(ok, MIN_CLEAN)
    steps = _ms_per_step(used)
    tail_ms, pct, n = tail(steps)
    setups = unstolen(runner.setup_metric(ok), 3)
    values = {
        "step_ms_p50": statistics.median(steps),
        "step_ms_tail": tail_ms,
        "cell_steps_per_s": cells * K * len(used) / sum(s.wall for s in used),
        "setup_s": statistics.median(seconds for seconds, _ in setups),
        "peak_rss_mb": peak_rss_mb(wl.mode),
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    return metrics, {"tail_percentile": pct, "samples": n, "stolen_left_out": len(ok) - n}


#: per-layer metrics, in layer order, with their units.
PER_LAYER = {
    "airfoil.meshgen_s": "s",
    "airfoil.kernel_ms": "ms",
    "op2.par_loops": "count",
    "op2.par_loop_ms": "ms",
    "op2.finish_ms": "ms",
    "op2.plan_build_s": "s",
    "backends.exec_calls": "count",
    "backends.elements": "count",
    "backends.gather_ms": "ms",
    "backends.scatter_ms": "ms",
    "backends.fold_ms": "ms",
    "backends.gather_bytes": "B",
    "hpx.tasks": "count",
    "hpx.batches": "count",
    "hpx.joins": "count",
    "hpx.color_joins": "count",
    "hpx.submit_ms": "ms",
    "hpx.join_wait_ms": "ms",
    "hpx.task_ms": "ms",
    "hpx.worker_busy": "share",
    "engine.program_ms": "ms",
    "procs.messages": "count",
    "procs.halo_bytes": "B",
    "procs.post_ms": "ms",
    "procs.wait_ms": "ms",
    "procs.rank_imbalance": "ratio",
    "procs.spawn_s": "s",
    "dist.plan_build_s": "s",
    "dist.partition_s": "s",
    "bench.trace_overhead": "ratio",
}
#: per-timestep counts -> LayerTrace key; each must repeat exactly.
COUNTS = {
    "op2.par_loops": "par_loop_calls",
    "backends.exec_calls": "exec_calls",
    "backends.elements": "elements",
    "backends.gather_bytes": "gather_bytes",
    "hpx.tasks": "tasks",
    "hpx.batches": "batches",
    "hpx.joins": "joins",
    "hpx.color_joins": "color_joins",
    "procs.messages": "messages",
    "procs.halo_bytes": "halo_bytes",
}
#: per-timestep times in ms -> LayerTrace key (seconds per segment).
STEP_TIMES = {
    "op2.par_loop_ms": "par_loop_s",
    "op2.finish_ms": "finish_s",
    "backends.gather_ms": "gather_s",
    "backends.scatter_ms": "scatter_s",
    "backends.fold_ms": "fold_s",
    "hpx.submit_ms": "submit_s",
    "hpx.join_wait_ms": "join_wait_s",
    "engine.program_ms": "program_max_s",
    "procs.post_ms": "halo_post_s",
    "procs.wait_ms": "halo_wait_s",
}
#: per-segment values reported as they are -> LayerTrace key.
SEGMENT_VALUES = {
    "dist.plan_build_s": "dist_plan_s",
    "dist.partition_s": "partition_s",
    "procs.spawn_s": "spawn_s",
    "procs.rank_imbalance": "rank_imbalance",
}


def per_layer(wl, runner, segments) -> tuple[dict, list[str], dict]:
    """The traced metrics, every count-closure or instrumentation problem,
    and the wrapped and bare ``step_ms_p50`` the overhead compares."""
    traced = [s for s in segments if s.traced and s.failure is None]
    bare = unstolen([s for s in segments if not s.traced and s.failure is None], 3)
    problems = [c for s in traced for c in s.checks]
    problems += [f"not restored after tracing: {name}" for name in runner.restore_failures]
    if not traced or not bare:
        return {}, problems + ["too few segments for a traced run"], {}
    traced = unstolen(traced, 3)

    def med(fn):
        return statistics.median(fn(s.layers) for s in traced)

    values: dict[str, float] = {}
    for name, key in COUNTS.items():
        seen = {s.layers.get(key, 0.0) for s in traced}
        if len(seen) != 1:
            problems.append(f"{name} differs between segments: {sorted(seen)}")
        values[name] = max(seen) / K
    for name, key in STEP_TIMES.items():
        values[name] = med(lambda t: t.get(key, 0.0)) / K * 1e3
    for name, key in SEGMENT_VALUES.items():
        values[name] = med(lambda t: t.get(key, 0.0))
    values["airfoil.kernel_ms"] = (
        med(lambda t: t.get("exec_s", 0.0) - t.get("gather_s", 0.0) - t.get("scatter_s", 0.0))
        / K * 1e3
    )
    if any(
        t.get("gather_s", 0.0) + t.get("scatter_s", 0.0) > t.get("exec_s", 0.0)
        for t in (s.layers for s in traced)
    ):
        problems.append("gather + scatter time exceeds execute_loop time")
    values["airfoil.meshgen_s"] = statistics.median(runner.meshgens)
    setup = runner.setup_layers or [s.layers for s in traced]
    values["op2.plan_build_s"] = statistics.median(t.get("plan_build_s", 0.0) for t in setup)
    values["hpx.task_ms"] = 1e3 * med(
        lambda t: t["pool_exec_s"] / t["pool_exec_calls"] if t.get("pool_exec_calls") else 0.0
    )
    values["hpx.worker_busy"] = statistics.median(
        s.layers.get("pool_exec_s", 0.0) / (wl.workers * s.wall) for s in traced
    )
    steps = {"traced": statistics.median(_ms_per_step(traced)),
             "bare": statistics.median(_ms_per_step(bare))}
    values["bench.trace_overhead"] = steps["traced"] / steps["bare"] - 1.0
    return {name: (values[name], unit) for name, unit in PER_LAYER.items()}, problems, steps


# -- records ----------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` itself; ``unknown`` without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def unstolen(items: list, minimum: int) -> list:
    """The items whose steal share is within ``STEAL_LIMIT``; when fewer than
    ``minimum`` are, the ``minimum`` least-stolen ones. Items are segments
    or ``(value, steal)`` pairs."""

    def steal(x) -> float:
        return x.steal if isinstance(x, Segment) else x[1]

    clean = [x for x in items if steal(x) <= STEAL_LIMIT]
    return clean if len(clean) >= minimum else sorted(items, key=steal)[:minimum]


def steal_since(ticks: tuple[int, int]) -> float:
    steal, total = (b - a for a, b in zip(ticks, cpu_ticks()))
    return steal / total if total > 0 else 0.0


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the host's CPUs so far; (0, 0) where unknown.

    Steal is time the hypervisor ran someone else on our virtual CPUs; its
    share over a run says how much of a slow run the host, not the code, cost.
    """
    try:
        with open("/proc/stat") as f:
            fields = [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def fingerprint(wl: Workload, seed: int, segments: list[Segment]) -> dict:
    return {
        "workload": wl.name,
        "seed": seed,
        "K": K,
        "segments": len(segments),
        "traced_segments": sum(s.traced for s in segments),
        "mesh": f"{NI}x{NJ}",
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
    }


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """One benchmark run; returns the record the command prints."""
    wl = WORKLOADS[workload]
    trace = LayerTrace() if traced else None
    runner = (ThreadsRunner if wl.mode == "threads" else ProcsRunner)(wl, seed, trace)
    runner.setup()
    ticks = cpu_ticks()
    try:
        segments = measure(runner, seconds, trace)
    finally:
        leak = runner.close()
    steal = steal_since(ticks)
    if leak is not None and segments and segments[-1].failure is None:
        segments[-1].failure = leak
    failed = [s for s in segments if s.failure is not None]
    record = fingerprint(wl, seed, segments)
    record["failures"] = sorted({s.failure for s in failed})
    problems: list[str] = []
    if not [s for s in segments if s.failure is None and not s.traced]:
        metrics, problems = {}, ["no successful untraced segment"]
    elif traced:
        metrics, problems, steps = per_layer(wl, runner, segments)
        record.update({f"{kind}_step_ms_p50": ms for kind, ms in steps.items()})
    else:
        metrics, extra = end_to_end(wl, runner, segments, runner.mesh.cells.size)
        record.update(extra)
    record["problems"] = problems
    record["fail_rate"] = len(failed) / len(segments)
    record["host_steal_share"] = steal
    return {
        "record": record,
        "correct": not failed and not problems,
        "attempted": len(segments),
        "failed": len(failed),
        "metrics": metrics,
    }


def main_result(result: dict) -> dict:
    """The last stdout line: exactly correct, attempted, failed and metrics."""
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }


def render(result: dict) -> str:
    """Human-readable metric table (fail_rate included) above the JSON line."""
    rec = result["record"]
    lines = [f"perfbench {rec['workload']}: seed {rec['seed']}, K={rec['K']}, "
             f"{rec['segments']} segments ({rec['traced_segments']} traced)"]
    for name, (value, unit) in result["metrics"].items():
        lines.append(f"  {name:<24} {value:>14.6g} {unit}")
    lines.append(f"  {'fail_rate':<24} {rec['fail_rate']:>14.6g} share")
    if "tail_percentile" in rec:
        lines.append(
            f"  step_ms_tail is p{rec['tail_percentile']:g} of {rec['samples']} segments "
            f"({rec['stolen_left_out']} left out for host steal > {STEAL_LIMIT:.0%})"
        )
    for text in rec["failures"] + rec["problems"]:
        lines.append(f"  FAIL: {text}")
    return "\n".join(lines)
