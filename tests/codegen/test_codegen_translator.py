"""Tests for translation, generated-module loading and numerics."""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.airfoil import AirfoilApp, ReferenceAirfoil, generate_mesh
from repro.airfoil.validation import max_rel_diff
from repro.codegen import TARGETS, generate_module, translate_source
from repro.codegen.apps import AIRFOIL_SOURCE, AirfoilContext
from repro.codegen.parser import CodegenError
from repro.op2 import op2_session

GENERATED = Path(__file__).resolve().parents[2] / "examples" / "generated"

SIMPLE = """
def run(ctx):
    op_par_loop(ctx.kernel, "copyit", ctx.cells,
        op_arg_dat(ctx.src, -1, OP_ID, OP_READ),
        op_arg_dat(ctx.dst, -1, OP_ID, OP_WRITE))
"""


class TestTranslateSource:
    @pytest.mark.parametrize("target", TARGETS)
    def test_output_is_valid_python(self, target):
        text, loops = translate_source(AIRFOIL_SOURCE, target)
        ast.parse(text)
        # Five textual call sites (the 2x inner iteration is a runtime loop).
        assert len(loops) == 5

    def test_generated_function_per_unique_loop(self):
        text, _ = translate_source(AIRFOIL_SOURCE, "openmp")
        for name in ("save_soln", "adt_calc", "res_calc", "bres_calc", "update"):
            assert f"def op_par_loop_{name}(" in text
        # adt_calc appears twice in the source but is emitted once.
        assert text.count("def op_par_loop_adt_calc(") == 1

    def test_unknown_target_rejected(self):
        with pytest.raises(CodegenError, match="unknown target"):
            translate_source(SIMPLE, "cuda")

    @pytest.mark.parametrize("target", TARGETS)
    def test_matches_committed_example(self, target):
        # The shipped examples/generated/ modules are the translator's
        # output; any drift in the translator must show up here.
        text, _ = translate_source(AIRFOIL_SOURCE, target)
        committed = (GENERATED / f"airfoil_{target}.py").read_bytes()
        assert text.encode() == committed

    def test_no_loops_rejected(self):
        with pytest.raises(CodegenError, match="no op_par_loop"):
            translate_source("x = 1", "seq")

    def test_conflicting_signatures_rejected(self):
        src = (
            'op_par_loop(k, "dup", s, op_arg_dat(d, -1, OP_ID, OP_READ))\n'
            'op_par_loop(k, "dup", s, op_arg_dat(d, -1, OP_ID, OP_READ),'
            " op_arg_dat(e, -1, OP_ID, OP_WRITE))\n"
        )
        with pytest.raises(CodegenError, match="dup"):
            translate_source(src, "seq")

    def test_openmp_emits_fork_join_structure(self):
        text, _ = translate_source(AIRFOIL_SOURCE, "openmp")
        assert "#pragma omp parallel for" in text or "parallel for" in text
        assert "implicit global barrier" in text

    def test_foreach_emits_for_each_par(self):
        text, _ = translate_source(AIRFOIL_SOURCE, "foreach")
        assert "for_each(par, range(nblocks), body)" in text
        assert "auto partitioner" in text

    def test_foreach_static_emits_chunk_size(self):
        text, _ = translate_source(AIRFOIL_SOURCE, "foreach_static", static_chunk=4)
        assert "StaticChunkSize(4)" in text

    def test_async_emits_async_and_par_task(self):
        text, _ = translate_source(AIRFOIL_SOURCE, "hpx_async")
        assert "async_(run" in text
        assert "par_task" in text

    def test_dataflow_emits_dataflow_calls(self):
        text, _ = translate_source(AIRFOIL_SOURCE, "hpx_dataflow")
        assert "dataflow(body, *deps" in text
        assert "def dataflow_finish():" in text


class TestGenerateModule:
    def test_module_carries_source(self):
        mod = generate_module(SIMPLE, "seq")
        assert "op_par_loop_copyit" in mod.__generated_source__
        assert hasattr(mod, "run")

    def test_simple_copy_runs(self, hpx_rt):
        from types import SimpleNamespace

        from repro.op2 import Kernel, OpDat, OpSet

        mod = generate_module(SIMPLE, "openmp")
        cells = OpSet("cells", 6)
        ctx = SimpleNamespace(
            kernel=Kernel(
                "copy", lambda s, d: None, lambda s, d: d.__setitem__(slice(None), s)
            ),
            cells=cells,
            src=OpDat("src", cells, 1, np.arange(6.0)),
            dst=OpDat("dst", cells, 1),
        )
        with op2_session(backend="seq", block_size=2):
            mod.run(ctx)
        np.testing.assert_array_equal(ctx.dst.data, ctx.src.data)


@pytest.fixture(scope="module")
def gen_reference():
    mesh = generate_mesh(ni=16, nj=6)
    ref = ReferenceAirfoil(mesh)
    ref.run(2)
    return mesh, ref


@pytest.mark.parametrize("target", TARGETS)
class TestGeneratedAirfoilNumerics:
    def test_matches_reference(self, target, gen_reference):
        mesh, ref = gen_reference
        mod = generate_module(AIRFOIL_SOURCE, target)
        with op2_session(backend="seq", num_threads=4, block_size=16) as rt:
            app = AirfoilApp(mesh)
            ctx = AirfoilContext(app, mesh, target)
            for _ in range(2):
                mod.airfoil_step(ctx)
            if target == "hpx_dataflow":
                mod.dataflow_finish()
            rt.hpx.executor.drain()
        assert max_rel_diff(app.p_q.data, ref.q) < 1e-10
        assert max_rel_diff(
            np.array([app.g_rms.value()]), np.array([ref.rms])
        ) < 1e-10
