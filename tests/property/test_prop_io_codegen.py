"""Property-based tests: codegen parsing, rewriting and translation."""

from hypothesis import given, settings, strategies as st

from repro.codegen import translate_source
from repro.codegen.parser import parse_loops, rewrite_calls

ACCESSES = ["OP_READ", "OP_WRITE", "OP_RW", "OP_INC"]


@st.composite
def random_loop_source(draw):
    """Source text with 1..4 well-formed op_par_loop call sites."""
    nloops = draw(st.integers(1, 4))
    lines = []
    names = []
    for i in range(nloops):
        name = f"loop{draw(st.integers(0, 2))}"
        nargs = draw(st.integers(1, 4))
        args = []
        for a in range(nargs):
            if draw(st.booleans()):
                args.append(
                    f"op_arg_dat(ctx.d{a}, -1, OP_ID, "
                    f"{draw(st.sampled_from(ACCESSES))})"
                )
            else:
                idx = draw(st.integers(0, 2))
                args.append(
                    f"op_arg_dat(ctx.d{a}, {idx}, ctx.m, "
                    f"{draw(st.sampled_from(ACCESSES))})"
                )
        # Keep repeated names signature-consistent: suffix by arg count.
        name = f"{name}_{nargs}"
        names.append(name)
        lines.append(
            f'op_par_loop(ctx.k, "{name}", ctx.s, ' + ", ".join(args) + ")"
        )
    return "\n".join(lines), names


@settings(max_examples=25)
@given(random_loop_source())
def test_parser_finds_every_loop(src_names):
    source, names = src_names
    loops = parse_loops(source)
    assert [l.name for l in loops] == names


@settings(max_examples=25)
@given(random_loop_source())
def test_rewrite_is_idempotent(src_names):
    source, _ = src_names
    once = rewrite_calls(source)
    twice = rewrite_calls(once)
    assert once == twice


@settings(max_examples=15)
@given(random_loop_source(), st.sampled_from(["seq", "openmp", "hpx_dataflow"]))
def test_translation_always_produces_valid_python(src_names, target):
    import ast

    source, names = src_names
    text, loops = translate_source(source, target)
    ast.parse(text)
    for name in set(names):
        assert f"def op_par_loop_{name}(" in text
