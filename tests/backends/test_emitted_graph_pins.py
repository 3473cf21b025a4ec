"""Pins of the simulator task graphs every backend emits from a sim run.

``repro.sim`` times only the graphs that :meth:`Backend.emit` builds from the
loop log, so the figure tables move exactly when these graphs move. The pins
hash every task as ``tests/dist/test_dist_emission.py`` does: sha256 over
``(name, sorted deps, cost, affinity, kind)`` in emission order.
"""

import hashlib

import pytest

from repro.airfoil import AirfoilApp, generate_mesh
from repro.backends.costs import LoopCostModel
from repro.op2 import op2_session
from repro.sim.machine import paper_machine

BACKENDS = ["seq", "openmp", "foreach", "foreach_static", "hpx_async", "hpx_dataflow"]
THREADS = [1, 4, 16]

#: ``(backend, threads) -> sha256`` on a 24x12 mesh, block size 16, 2 steps.
PINNED_GRAPHS = {
    ("seq", 1): "278f4a569f4f9cc568d0e483c4c374ba3793e7b975e525882c278bcfcddb2e10",
    ("seq", 4): "278f4a569f4f9cc568d0e483c4c374ba3793e7b975e525882c278bcfcddb2e10",
    ("seq", 16): "ed305e72951146871e1e2d455ffea50c83a7eacc54d42e644d768b1f6cc9cbb7",
    ("openmp", 1): "69666421b7c4b3bb5410859da2906141978f43e3f1a495f5227660cbbe58cc72",
    ("openmp", 4): "59875e97ed3536da7150b1c7a358a1d6471b82e5272aa3fb0fb782e94f5b9e32",
    ("openmp", 16): "08714b4be839abd98ab341d27a336c1f92a8b1e26166e44ae98532c0de71bdad",
    ("foreach", 1): "b8b7c426f84228ba46cbb832ef5ce12ea1c5573b109344838baf62f0b276c5ef",
    ("foreach", 4): "22f62d285c0f0d1a56a4c04386b8c645c190eb1284578500d8e51dca689c8c52",
    ("foreach", 16): "14a27f4bd716315ee00260726ebbd1e6c0f3a9032d8dcedb0e0f3ac93e862d3a",
    ("foreach_static", 1): "15e45c12c26eba44085294b23851af094403ee17231ebf064cf0c9a22120fb95",
    ("foreach_static", 4): "e08815a8221d2fdff0ebf79b16d6af874ec149125dfee9f2498139e6e2561e88",
    ("foreach_static", 16): "c9d2393f65771372a19ef8f75e46061d286d1e984d458d9752b3c57bd20f8834",
    ("hpx_async", 1): "7c22c4b322909f840af13032c953b38d2e5755e523cd8004e95573d83a393689",
    ("hpx_async", 4): "75f8b99ec453978013bbefe209d327e382beaed0c0cdd5a4f09bcd245dbc545a",
    ("hpx_async", 16): "02163680c7c923135e2db5f4475bd00eba68d6c7c1a1b351a0da1fac882dbc91",
    ("hpx_dataflow", 1): "6012c4c89f3d1ee5cd3fb8b267e2dda289f444ba751e77bd0ceba17b4f057108",
    ("hpx_dataflow", 4): "6012c4c89f3d1ee5cd3fb8b267e2dda289f444ba751e77bd0ceba17b4f057108",
    ("hpx_dataflow", 16): "4fa5fe2355fa8d44fa2ed4102ecac00d0947b75875e55a588941bac05711977f",
}


@pytest.fixture(scope="module")
def logs():
    mesh = generate_mesh(ni=24, nj=12)
    out = {}
    for backend in BACKENDS:
        with op2_session(backend=backend, num_threads=4, block_size=16) as rt:
            AirfoilApp(mesh).run(rt, 2)
        out[backend] = rt
    return out


def graph_digest(rt, num_threads: int) -> str:
    graph = rt.backend.emit(rt.log, paper_machine(), num_threads, LoopCostModel(jitter=0.1))
    digest = hashlib.sha256()
    for t in graph:
        digest.update(repr((t.name, tuple(sorted(t.deps)), t.cost, t.affinity, t.kind)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("num_threads", THREADS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_emitted_graph_is_pinned(logs, backend, num_threads):
    assert graph_digest(logs[backend], num_threads) == PINNED_GRAPHS[(backend, num_threads)]
