"""Metalanguage evaluation: substitution, residual emission, expansion, and
the environment evaluator against the small-step reference."""

import ast
import pathlib
import random

import pytest

from overture import prelude
from overture.errors import MetaEvalError, UsageError
from overture.lang import MESG, PAnd, Protocol, Var
from overture.ovt import format_protocol
from overture.prelude import (
    STEP_LIMIT, MCall, MForm, MInt, MLet, MVar, _assert, _connective, _pred_not,
    _step, eval_meta, expand, is_value, parse_program, subst,
)
from overture.stdlib import PACKAGES, gmw_main, read_source

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
    assert _assert_matches_reference(codebase, main, step_limit=50) == (
        "error", MetaEvalError, "no value after 50 steps")


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


# --- The environment evaluator against the small-step reference ----------------

def _reference(codebase, main, step_limit):
    """A loop over _step; returns the outcome and the reductions it took,
    counting the one that raised."""
    commands, e = [], main
    for steps in range(step_limit):
        if is_value(e):
            return ("value", Protocol.of(commands, modulus=2), e), steps
        try:
            e = _step(e, codebase, commands)
        except MetaEvalError as err:
            return ("error", type(err), str(err)), steps + 1
    return ("error", MetaEvalError, f"no value after {step_limit} steps"), step_limit


def _outcome(codebase, main, step_limit):
    try:
        protocol, value = eval_meta(codebase, main, step_limit)
    except MetaEvalError as err:
        return ("error", type(err), str(err))
    return ("value", protocol, value)


def _assert_matches_reference(codebase, main, step_limit=STEP_LIMIT):
    want, steps = _reference(codebase, main, step_limit)
    assert _outcome(codebase, main, step_limit) == want
    # the same reductions count against the limit: a value needs one more
    # step than it has reductions, an error is raised by its own step
    enough = steps + 1 if want[0] == "value" else steps
    assert _outcome(codebase, main, enough) == want
    assert _outcome(codebase, main, enough - 1) == (
        "error", MetaEvalError, f"no value after {enough - 1} steps")
    return want


def _program(src, libs=()):
    codebase = {}
    for lib in libs:
        codebase.update(parse_program(lib)[0])
    cb, main = parse_program(src)
    codebase.update(cb)
    return codebase, main


def _circuit(seed, gates):
    """gmw_main source of a seeded circuit: five inputs, then gates that are
    AND about one time in five, each reading two earlier wires."""
    rng = random.Random(seed)
    inputs = [(f"i{k}", 1 + k % 2) for k in range(5)]
    wires = [name for name, _ in inputs]
    ops = []
    for k in range(gates):
        lhs, rhs = rng.sample(wires, 2)
        ops.append(("and" if rng.random() < 0.2 else "xor", f"w{k}", lhs, rhs))
        wires.append(f"w{k}")
    return gmw_main(inputs, ops, wires[-1])


@pytest.mark.parametrize("name", sorted(n for n, p in PACKAGES.items()
                                        if p.source.endswith(".pre")))
def test_packages_match_small_step_reference(name):
    pkg = PACKAGES[name]
    codebase, main = _program(read_source(pkg.source),
                              [read_source(lib) for lib in pkg.libs])
    kind, protocol, _ = _assert_matches_reference(codebase, main)
    assert kind == "value" and protocol.commands


@pytest.mark.parametrize("seed, gates", [(1, 3), (2, 44), (3, 200)])
def test_circuits_match_small_step_reference(seed, gates):
    codebase, main = _program(_circuit(seed, gates), [GMW_PRE])
    kind, protocol, _ = _assert_matches_reference(codebase, main)
    assert kind == "value" and len(protocol.commands) == 2 * 5 + 2 * gates + 4


ERRORS = {
    "unbound variable": 'p["w"] := x @ 1',
    "unknown function": 'p["w"] := true @ 1 ; mystery()',
    "arity": 'f(x) { x }\nlet y = f() in p["w"] := true @ 1',
    "projection of a non-record": 'let r = "a" in p["w"] := r.f @ 1',
    "missing field": 'p["w"] := { a = true }.b @ 1',
    "++ on non-strings": 'p["a" ++ 1] := true @ 1',
    "output client mismatch": 'out@1 := true @ 2',
    "OT4 table without rows": 'm["z"]@2 := OT4(true, false, { row1 = true }, 2, 1)',
    "send without a computing client": 'm["z"]@2 := true',
    "OT4 table not a record": 'm["z"]@2 := OT4(true, false, 1, 2, 1)',
    "OT4 sender conflict": ('let t = { row1 = true; row2 = true; row3 = true; row4 = true } in '
                            'm["z"]@2 := OT4(true, false, t, 2, 1) @ 2'),
    "OT4 inside an expression": ('let t = { row1 = true; row2 = true; row3 = true; row4 = true } in '
                                 'm["z"]@2 := OT4(true, false, t, 2, 1) xor true @ 1'),
    "client not a number": 'p["w"] := true @ "one"',
    "name not a string": 'p[1] := true @ 1',
    "field constant out of range": 'p["w"] := 2 @ 1',
    "field expression expected": 'p["w"] := "x" @ 1',
    "a let's scope ends with its frame": '(let x = true in p["a"] := x @ 1); p["b"] := x @ 1',
}

# predicate forms the parser only builds over comparisons
NON_PREDICATES = {
    "assert over a non-predicate": MForm(_assert, (), (MInt(1), MInt(1))),
    "connective over non-predicates": MForm(
        _assert, (), (MForm(_connective, (PAnd,), (MInt(1), MInt(1))), MInt(1))),
    "not over a non-predicate": MForm(
        _assert, (), (MForm(_pred_not, (), (MInt(1),)), MInt(1))),
}


@pytest.mark.parametrize("path", sorted(ERRORS))
def test_errors_match_small_step_reference(path):
    codebase, main = _program(ERRORS[path])
    kind, error, _ = _assert_matches_reference(codebase, main)
    assert (kind, error) == ("error", MetaEvalError)


@pytest.mark.parametrize("path", sorted(NON_PREDICATES))
def test_non_predicates_match_small_step_reference(path):
    kind, error, _ = _assert_matches_reference({}, NON_PREDICATES[path])
    assert (kind, error) == ("error", MetaEvalError)


@pytest.mark.parametrize("src", [
    # nested frames shadow without touching the binding they return to
    'let x = true in (let x = false in p["a"] := x @ 1); p["b"] := x @ 1',
    'let x = true in let y = (let x = false in x) in p["a"] := x xor y @ 1',
    # substitution binds the first of two equal parameter names
    'f(x, x) { x }\np["a"] := f(true, false) @ 1',
    # a call sees its arguments only, not the caller's bindings
    'f(y) { y }\nlet x = true in p["a"] := f(x) @ 1; p["b"] := f(false) @ 2',
    # record fields emit their commands left to right
    'let r = { a = p["x"] := true @ 1; b = p["y"] := true @ 2 } in r.b',
    pytest.param('let a = s["x"] in let b = r["y"] in let c = true in p["w"] := '
                 + " xor ".join("abc"[k % 3] for k in range(300)) + ' @ 1',
                 id="a 300-operand chain over let-bound names"),
    # each operand reveals before it reads, so the commands show the order
    pytest.param('f(v) { v }\nlet r = { a = true; b = f('
                 + ' xor '.join(f'(p["k{k}"] := true @ 1; s["x"])' for k in range(100))
                 + ') } in p["w"] := r.b @ 1; r',
                 id="a chain passed as a call argument inside a record field"),
])
def test_scoping_matches_small_step_reference(src):
    codebase, main = _program(src)
    kind, _, value = _assert_matches_reference(codebase, main)
    assert kind == "value"


def test_long_circuit_expands():
    gates = 2000
    protocol = expand(_circuit(4, gates), [GMW_PRE])
    assert len(protocol.commands) == 2 * 5 + 2 * gates + 4


@pytest.mark.parametrize("rebind", [False, True])
def test_long_sequence_expands(rebind):
    # one let over 5,000 sends, or a '; let' before each
    let = "let x = x in " if rebind else ""
    sends = "; ".join(f'{let if k else ""}m["a{k}"]@1 := x @ 1' for k in range(5000))
    protocol = expand("let x = true in " + sends)
    assert len(protocol.commands) == 5000
    assert str(protocol.commands[-1].name) == "a4999"


def test_one_strict_form_in_source():
    """No per-form node or second evaluator comes back: prelude.py defines
    no dataclass beyond the values, the variable, let, call, record, ';',
    MForm and FunDecl, and no _Machine method names eval or itself."""
    allowed = {"MInt", "MStr", "MUnit", "MFieldVal", "MPredVal", "MVar", "MLet",
               "MCall", "MRecord", "MSeq", "MForm", "FunDecl"}
    tree = ast.parse(pathlib.Path(prelude.__file__).read_text())
    classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    dataclasses = {c.name for c in classes for d in c.decorator_list
                   if "dataclass" in ast.unparse(d)}
    assert dataclasses <= allowed, dataclasses - allowed
    assert "MForm" in dataclasses
    machine, = (c for c in classes if c.name == "_Machine")
    found = set()
    for method in machine.body:
        if isinstance(method, ast.FunctionDef):
            for node in ast.walk(method):
                name = node.attr if isinstance(node, ast.Attribute) else \
                    node.id if isinstance(node, ast.Name) else None
                if name in ("eval", method.name):
                    found.add((method.name, name))
    assert not found, found
