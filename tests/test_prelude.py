"""Metalanguage evaluation: substitution, residual emission, expansion."""

import pytest

from overture.errors import MetaEvalError, UsageError
from overture.lang import MESG, Var
from overture.ovt import format_protocol
from overture.prelude import (
    MCall, MInt, MLet, MVar, eval_meta, expand, parse_program, subst,
)
from overture.stdlib import read_source

GMW_PRE = read_source("gmw.pre")
GMW_AND_PRE = read_source("gmw_and.pre")
GMW_XOR_PRE = read_source("gmw_xor.pre")


def test_parse_program_splits_decls_and_main():
    codebase, main = parse_program(GMW_PRE)
    assert sorted(codebase) == ["andgmw", "andtablegmw", "decodegmw",
                                "encodegmw", "xorgmw"]
    assert main is None
    codebase, main = parse_program(GMW_AND_PRE)
    assert codebase == {}
    assert main is not None


def test_duplicate_declaration_rejected():
    with pytest.raises(Exception):
        parse_program("f() { true }\nf() { false }\n")


def test_subst_respects_shadowing():
    inner = MLet("y", MInt(1), MVar("y"))
    assert subst(inner, "y", MInt(9)) == inner
    assert subst(MVar("y"), "y", MInt(9)) == MInt(9)
    # the bound value is still open
    open_value = MLet("y", MVar("z"), MVar("y"))
    assert subst(open_value, "z", MInt(3)) == MLet("y", MInt(3), MVar("y"))


def test_let_shadowing_end_to_end():
    p = expand('let b = true in let b = false in p["w"] := b @ 1')
    assert format_protocol(p) == "p[w] := 0 @ 1;\n"


def test_string_concat():
    p = expand('p["a" ++ "b"] := true @ 1')
    assert format_protocol(p) == "p[ab] := 1 @ 1;\n"


def test_record_projection():
    src = ('pair() { { lo = false; hi = true } }\n'
           'p["w"] := pair().hi @ 1')
    p = expand(src)
    assert format_protocol(p) == "p[w] := 1 @ 1;\n"


def test_encode_residual_exact():
    p = expand('encodegmw("s1", 2, 1)', [GMW_PRE])
    assert format_protocol(p) == ("m[s1]@1 := s[s1] xor r[s1] @ 1;\n"
                                  "m[s1]@2 := r[s1] @ 1;\n")


def test_gmw_and_expansion_shape():
    p = expand(GMW_AND_PRE, [GMW_PRE])
    assert len(p.commands) == 10
    assert p.federation == frozenset({1, 2})
    assert set(p.secrets()) == {Var("s", "s1", 1), Var("s", "s2", 2)}
    assert set(p.flips()) == {Var("r", "s1", 1), Var("r", "s2", 2),
                              Var("r", "z", 1)}
    # emission order follows evaluation order: encode, encode, gate, decode
    names = [str(v) for v in p.assigned()]
    assert names == ["m[s1]@1", "m[s1]@2", "m[s2]@2", "m[s2]@1",
                     "m[z]@2", "m[z]@1", "p[z1]", "p[z2]", "out@1", "out@2"]


def test_xor_gate_emits_local_sends_only():
    p = expand(GMW_XOR_PRE, [GMW_PRE])
    # the gate itself adds two sends, one per holder, with no communication
    gate = [c for c in p.commands
            if getattr(c, "name", "") == "z" and c.__class__.__name__ == "MesgSend"]
    assert len(gate) == 2
    assert all(c.dest == c.src for c in gate)


def test_eval_meta_step_limit():
    codebase, main = parse_program("loop() { loop() }\nloop()")
    with pytest.raises(MetaEvalError):
        eval_meta(codebase, main, step_limit=50)


def test_call_arity_checked():
    with pytest.raises(MetaEvalError):
        expand('f(x) { x }\nlet y = f() in p["w"] := true @ 1')


def test_unknown_function_rejected():
    with pytest.raises(MetaEvalError):
        expand('p["w"] := true @ 1 ; mystery()')


def test_expand_rejects_library_with_main():
    with pytest.raises(UsageError):
        expand(GMW_AND_PRE, [GMW_AND_PRE])


def test_expand_requires_main():
    with pytest.raises(UsageError):
        expand(GMW_PRE)


def test_expand_rejects_cross_file_duplicates():
    with pytest.raises(UsageError):
        expand(GMW_AND_PRE, [GMW_PRE, GMW_PRE])
