"""Interpreter semantics: expression evaluation, runs, and adversarial runs."""

import hashlib
import itertools
import random
import re
import sys

import pytest

from overture import field, interp
from overture.dist import bd, format_pmf
from overture.errors import EvalError, UsageError
from overture.interp import (
    IDENTITY, AdversaryStrategy, eval_expr, eval_pred, run, run_adv, step,
)
from overture.lang import (
    BOT, AssertCmd, BinOp, Cmp, Const, Not, OT, OT4, PAnd, PNot, POr, Partition, Protocol,
    Ref, RevealCmd, Var, computing_client, parse_var,
)
from overture.ovt import parse_protocol
from overture.stdlib import read_source

OTP_OVT = read_source("otp.ovt")
SHAMIR_ADD3_OVT = read_source("shamir_add3.ovt")


def test_eval_const_and_ref():
    m = {parse_var("s[x]@1"): 1, parse_var("p[w]"): 0}
    assert eval_expr(m, Const(0), 1) == 0
    assert eval_expr(m, Ref("s", "x"), 1) == 1
    assert eval_expr(m, Ref("p", "w"), 2) == 0
    with pytest.raises(EvalError):
        eval_expr(m, Const(2), 1)
    with pytest.raises(EvalError):
        eval_expr(m, Ref("s", "x"), 2)   # client 2 has no s[x]
    with pytest.raises(EvalError):
        eval_expr({parse_var("s[x]@1"): BOT}, Ref("s", "x"), 1)


def test_eval_binops_match_field():
    for a in range(2):
        for b in range(2):
            m = {parse_var("s[a]@1"): a, parse_var("s[b]@1"): b}
            ea, eb = Ref("s", "a"), Ref("s", "b")
            assert eval_expr(m, BinOp("xor", ea, eb), 1) == field.f_xor(a, b)
            assert eval_expr(m, BinOp("and", ea, eb), 1) == field.f_and(a, b)
            assert eval_expr(m, BinOp("or", ea, eb), 1) == field.f_or(a, b)
            assert eval_expr(m, BinOp("+", ea, eb), 1) == field.f_add(a, b, 2)
            assert eval_expr(m, Not(ea), 1) == field.f_not(a)


def test_eval_larger_modulus():
    m = {Var("s", "a", 1): 3, Var("s", "b", 1): 4}
    ea, eb = Ref("s", "a"), Ref("s", "b")
    assert eval_expr(m, BinOp("+", ea, eb), 1, 5) == 2
    assert eval_expr(m, BinOp("*", ea, eb), 1, 5) == 2
    assert eval_expr(m, BinOp("-", ea, eb), 1, 5) == 4
    with pytest.raises(EvalError):
        eval_expr(m, BinOp("xor", ea, eb), 1, 5)
    with pytest.raises(EvalError):
        eval_expr(m, Not(ea), 1, 5)


def test_eval_ot_selects_by_receiver_choice():
    # choice bit lives at the receiver, branches are computed by the sender
    c = Var("m", "c", 2)
    x0, x1 = Var("s", "x0", 1), Var("s", "x1", 1)
    e = OT(Ref("m", "c"), 2, Ref("s", "x1"), Ref("s", "x0"))
    for cv in range(2):
        m = {c: cv, x0: 0, x1: 1}
        assert eval_expr(m, e, 1) == cv


def test_eval_ot4_row_order():
    rows = tuple(Const(v) for v in (1, 0, 0, 0))
    table = {}
    for c1 in range(2):
        for c2 in range(2):
            m = {Var("m", "c1", 2): c1, Var("m", "c2", 2): c2}
            e = OT4(Ref("m", "c1"), Ref("m", "c2"), 2, rows)
            table[(c1, c2)] = eval_expr(m, e, 1)
    # first row answers (1,1), then (1,0), (0,1), (0,0)
    assert table == {(1, 1): 1, (1, 0): 0, (0, 1): 0, (0, 0): 0}


def test_eval_pred():
    m = {Var("s", "x", 1): 1}
    x = Ref("s", "x")
    assert eval_pred(m, Cmp("==", x, Const(1)), 1)
    assert not eval_pred(m, Cmp("==", x, Const(0)), 1)
    assert eval_pred(m, Cmp("!=", x, Const(0)), 1)


def test_run_otp_all_inputs():
    p = parse_protocol(OTP_OVT)
    for x in range(2):
        for k in range(2):
            m0 = {parse_var("s[x]@1"): x, parse_var("r[k]@1"): k}
            m = run(m0, p)
            assert m[parse_var("m[z]@2")] == x ^ k
            assert m[parse_var("out@2")] == x


def test_run_shamir_hand_derived():
    p = parse_protocol(SHAMIR_ADD3_OVT)
    m0 = {v: 1 for v in p.secrets() + p.flips()}
    m = run(m0, p)
    assert m[parse_var("p[1]")] == 1
    assert m[parse_var("p[2]")] == 1
    assert m[parse_var("p[3]")] == 1
    for c in (1, 2, 3):
        assert m[Var("out", "", c)] == 1


def test_run_shamir_random_sweep():
    p = parse_protocol(SHAMIR_ADD3_OVT)
    rng = random.Random(7)
    for _ in range(50):
        m0 = {v: rng.randrange(2) for v in p.secrets() + p.flips()}
        m = run(m0, p)
        want = (m0[Var("s", "s1", 1)] ^ m0[Var("s", "s2", 2)]
                ^ m0[Var("s", "s3", 3)])
        for c in (1, 2, 3):
            assert m[Var("out", "", c)] == want


def test_step_executes_one_command():
    p = parse_protocol(OTP_OVT)
    m0 = {parse_var("s[x]@1"): 1, parse_var("r[k]@1"): 0}
    m1, rest, aborted = step(m0, p)
    assert not aborted
    assert m1[parse_var("m[z]@2")] == 1
    assert len(rest.commands) == 2
    assert m0 == {parse_var("s[x]@1"): 1, parse_var("r[k]@1"): 0}
    with pytest.raises(UsageError):
        step({}, Protocol((), frozenset({1}), 2))


def test_step_failed_assert_aborts():
    p = parse_protocol("assert (s[x] == 0) @ 1;\nout@1 := s[x] @ 1;\n")
    m, rest, aborted = step({parse_var("s[x]@1"): 1}, p)
    assert aborted
    assert m == {parse_var("s[x]@1"): 1}


def test_run_pads_after_honest_abort():
    src = ("m[z]@2 := s[x] @ 1;\n"
           "assert (m[z] == 0) @ 2;\n"
           "out@2 := m[z] @ 2;\n")
    p = parse_protocol(src)
    m = run({parse_var("s[x]@1"): 1}, p)
    assert m[parse_var("m[z]@2")] == 1
    assert m[parse_var("out@2")] is BOT
    # the passing branch completes
    m = run({parse_var("s[x]@1"): 0}, p)
    assert m[parse_var("out@2")] == 0


def test_run_adv_identity_matches_run():
    p = parse_protocol(SHAMIR_ADD3_OVT)
    part = Partition.of(p.federation, [2])
    rng = random.Random(11)
    for _ in range(20):
        m0 = {v: rng.randrange(2) for v in p.secrets() + p.flips()}
        assert run_adv(m0, p, IDENTITY, part) == run(m0, p)


def test_run_adv_replacement_rewrites_corrupt_send():
    p = parse_protocol(OTP_OVT)
    part = Partition.of(p.federation, [1])
    lie = AdversaryStrategy(replacements=((0, Const(0)),), label="zero z")
    m = run_adv({parse_var("s[x]@1"): 1, parse_var("r[k]@1"): 1}, p, lie, part)
    assert m[parse_var("m[z]@2")] == 0
    assert m[parse_var("m[k]@2")] == 1
    assert m[parse_var("out@2")] == 1


def test_run_adv_skips_corrupt_asserts():
    src = ("m[z]@2 := s[x] @ 1;\n"
           "assert (m[z] == 0) @ 2;\n"
           "out@2 := m[z] @ 2;\n")
    p = parse_protocol(src)
    part = Partition.of(p.federation, [2])
    m = run_adv({parse_var("s[x]@1"): 1}, p, IDENTITY, part)
    assert m[parse_var("out@2")] == 1


def test_run_adv_abort_at_pads():
    src = ("m[z]@2 := s[x] @ 1;\n"
           "assert (m[z] == 0) @ 2;\n"
           "out@2 := m[z] @ 2;\n")
    p = parse_protocol(src)
    part = Partition.of(p.federation, [2])
    quit_early = AdversaryStrategy(abort_at=frozenset({1}), label="quit")
    m = run_adv({parse_var("s[x]@1"): 1}, p, quit_early, part)
    assert m[parse_var("out@2")] is BOT


def test_run_adv_replacement_cannot_read_honest_memory():
    p = parse_protocol(SHAMIR_ADD3_OVT)
    part = Partition.of(p.federation, [2])
    # plain refs resolve at the computing client, so the only way a
    # replacement can touch honest memory is through an OT choice bit
    peek = AdversaryStrategy(
        replacements=((2, OT(Ref("s", "s1"), 1, Const(1), Const(0))),))
    m0 = {v: 0 for v in p.secrets() + p.flips()}
    with pytest.raises(UsageError):
        run_adv(m0, p, peek, part)
    # reading the adversary's own secret is allowed
    own = AdversaryStrategy(replacements=((2, Ref("s", "s2")),))
    run_adv(m0, p, own, part)


def test_strategy_describe():
    assert IDENTITY.describe() == "identity"
    s = AdversaryStrategy(replacements=((3, Const(0)), (1, Const(1))))
    assert s.describe() == "rewrites at [1, 3]"


# --- The lowered interpreter: errors where a walk raises them, chains of any length ---

ERRORS = (
    # (source, field, initial memory, message): command 1 raises, left operand first,
    # and command 2, which would raise otherwise, is never reached
    ("p[a] := s[x] @ 1;\np[b] := s[y] xor 2 @ 1;\np[c] := 3 @ 1;\n", 2, {"s[x]@1": 0},
     "s[y]@1 unbound"),
    ("p[a] := 0 @ 1;\np[b] := s[x] xor s[y] @ 1;\np[c] := 3 @ 1;\n", 2, {"s[x]@1": BOT},
     "s[x]@1 is undefined (bot)"),
    ("p[a] := 0 @ 1;\np[b] := s[x] xor 2 xor s[y] @ 1;\np[c] := 3 @ 1;\n", 2, {"s[x]@1": 1},
     "constant 2 out of range for F_2"),
    ("p[a] := 0 @ 1;\np[b] := s[x] + 9 * s[y] @ 1;\np[c] := 8 @ 1;\n", 7, {"s[x]@1": 1},
     "constant 9 out of range for F_7"),
    # an F_2-only operator over F_7 evaluates its operands first; its chain stays nested
    ("p[b] := s[x] xor s[y] @ 1;\n", 7, {"s[x]@1": 1}, "s[y]@1 unbound"),
    ("p[b] := s[x] xor s[x] xor s[y] @ 1;\n", 7, {"s[x]@1": 1}, "operator xor requires F_2"),
    ("p[b] := s[x] and s[x] or s[y] @ 1;\n", 7, {"s[x]@1": 1}, "operator and requires F_2"),
    # not, OT and OT4 over F_7 raise before evaluating an operand
    ("p[b] := not s[y] @ 1;\n", 7, {}, "operator not requires F_2"),
    ("m[b]@2 := OT(s[y] @ 2 ; 1, 0) @ 1;\n", 7, {}, "OT requires F_2"),
    ("m[b]@2 := OT4(s[y], s[y] @ 2 ; 1, 0, 0, 0) @ 1;\n", 7, {}, "OT4 requires F_2"),
    # a second assignment is refused after its value is evaluated
    ("p[a] := s[x] @ 1;\np[a] := s[y] @ 1;\n", 2, {"s[x]@1": 1, "s[y]@1": 0},
     "p[a] assigned twice"),
    ("p[a] := s[x] @ 1;\np[a] := s[y] @ 1;\n", 2, {"s[x]@1": 1}, "s[y]@1 unbound"),
    ("p[a] := 1 - s[y] @ 1;\n", 2, {"s[y]@1": 0, "p[a]": 1}, "p[a] assigned twice"),
    # an assertion evaluates its comparison left first, and a failed one halts
    ("assert ((s[x] == s[y]) or (s[z] == 2)) @ 1;\n", 2, {"s[x]@1": 1, "s[y]@1": 0},
     "s[z]@1 unbound"),
    ("assert (s[x] == 0) @ 1;\np[a] := s[y] @ 1;\n", 2, {"s[x]@1": 1}, None),
)


@pytest.mark.parametrize("src, p, given, message", ERRORS)
def test_errors_raise_where_the_walk_raises(src, p, given, message):
    protocol = parse_protocol(src, p)
    m0 = {parse_var(v): x for v, x in given.items()}
    if message is None:
        assert run(m0, protocol) == {**m0, parse_var("p[a]"): BOT}
        return
    for attempt in (1, 2):  # lowered once, raised again
        with pytest.raises(EvalError) as raised:
            run(m0, protocol)
        assert str(raised.value) == message
    # eval_expr raises the same, without a protocol
    cmd = protocol.commands[min(1, len(protocol.commands) - 1)]  # the command that raises
    if not isinstance(cmd, AssertCmd) and "twice" not in message:
        with pytest.raises(EvalError, match=f"^{re.escape(message)}$"):
            eval_expr(m0, cmd.expr, computing_client(cmd), p)


def test_ill_formed_trees_raise_when_evaluated():
    m = {parse_var("s[x]@1"): 1}
    x = Ref("s", "x")
    for e, p, message in ((BinOp("nand", x, Ref("s", "y")), 2, "s[y]@1 unbound"),
                          (BinOp("nand", x, x), 2, "unknown operator nand"),
                          (BinOp("nand", x, x), 5, "operator nand requires F_2"),
                          (Cmp("==", x, x), 2, f"not an expression: {Cmp('==', x, x)!r}"),
                          (BinOp("xor", x, PNot(Cmp("==", x, x))), 2,
                           f"not an expression: {PNot(Cmp('==', x, x))!r}")):
        with pytest.raises(EvalError, match=f"^{re.escape(message)}$"):
            eval_expr(m, e, 1, p)
    with pytest.raises(EvalError, match=re.escape("not a predicate: Const(value=1)")):
        eval_pred(m, PAnd(Cmp("==", x, x), Const(1)), 1)
    assert eval_pred(m, POr(Cmp("==", x, x), Const(1)), 1)  # the right side is never reached


def test_untaken_ot_branches_raise_nothing():
    ot = parse_protocol("m[b]@2 := OT(s[c] @ 2 ; s[y], s[z]) @ 1;\n")
    ot4 = parse_protocol("m[b]@2 := OT4(s[c], s[d] @ 2 ; s[w], 2, s[y], s[z]) @ 1;\n")
    for protocol, given, want in ((ot, {"s[c]@2": 0, "s[z]@1": 1}, 1),
                                  (ot, {"s[c]@2": 1, "s[y]@1": 0, "s[z]@1": BOT}, 0),
                                  (ot4, {"s[c]@2": 0, "s[d]@2": 1, "s[y]@1": 1, "s[z]@1": BOT}, 1),
                                  (ot4, {"s[c]@2": 0, "s[d]@2": 0, "s[z]@1": 0}, 0)):
        m0 = {parse_var(v): x for v, x in given.items()}
        assert run(m0, protocol) == {**m0, parse_var("m[b]@2"): want}


def test_illegal_replacement_raises_only_when_reached():
    p = parse_protocol("m[z]@2 := s[x] @ 1;\n"
                       "assert (s[x] == 0) @ 1;\n"
                       "m[w]@1 := m[z] @ 2;\n"
                       "out@1 := m[w] @ 1;\n")
    part = Partition.of(p.federation, [2])
    peek = AdversaryStrategy(replacements=((2, OT(Ref("s", "x"), 1, Const(1), Const(0))),))
    x, z, w, out = map(parse_var, ("s[x]@1", "m[z]@2", "m[w]@1", "out@1"))
    for attempt in (1, 2):  # the honest abort comes first, and pads
        assert run_adv({x: 1}, p, peek, part) == {x: 1, z: 1, w: BOT, out: BOT}
        with pytest.raises(UsageError, match=re.escape(
                "adversarial replacement reads honest variable s[x]@1")):
            run_adv({x: 0}, p, peek, part)
    # the same replacement with client 1 corrupt reads nothing honest
    assert run_adv({x: 0}, p, peek, Partition.of(p.federation, [1, 2]))[out] == 0
    # a replacement that is the command's own expression is not checked
    own = AdversaryStrategy(replacements=((2, p.commands[2].expr), (2, Const(1))))
    assert run_adv({x: 0}, p, own, part) == run({x: 0}, p)


def test_shamir_runs_lower_the_protocol_once(monkeypatch):
    p = parse_protocol(SHAMIR_ADD3_OVT)
    roots, lower = [], interp._lower
    monkeypatch.setattr(interp, "_lower", lambda root, *a: roots.append(root) or lower(root, *a))
    inputs = p.secrets() + p.flips()
    finals = [run(dict(zip(inputs, values)), p)
              for values in itertools.product((0, 1), repeat=len(inputs))]
    assert len(finals) == 512
    assert roots == [c.pred if isinstance(c, AssertCmd) else c.expr for c in p.commands]


def chain(op, first, operand, n, left=True):
    """first op operand op ... op operand, n operands, nested to the left
    (as the parser nests it) or to the right."""
    e = first
    for _ in range(n - 1):
        e = BinOp(op, e, operand) if left else BinOp(op, operand, e)
    return e


def test_long_chains_evaluate_without_recursion():
    # ten times the recursion limit; test_cli runs a chain of 100,000
    n, x = 10 * sys.getrecursionlimit(), Ref("s", "x")
    for left in (True, False):
        xor = Protocol.of([RevealCmd("w", chain("xor", x, Const(1), n, left), 1)])
        for v in (0, 1):
            assert run({parse_var("s[x]@1"): v}, xor)[parse_var("p[w]")] == v ^ (n - 1) % 2
    m0 = {parse_var("s[x]@1"): 3}
    assert eval_expr(m0, chain("+", x, x, n), 1, 7) == 3 * n % 7
    assert eval_expr(m0, chain("*", Const(1), x, n + 1, False), 1, 7) == pow(3, n, 7)
    # a chain of and over F_2 evaluates every operand, as the nested walk does
    with pytest.raises(EvalError, match=r"^s\[y\]@1 unbound$"):
        eval_expr({parse_var("s[x]@1"): 0}, BinOp("and", chain("and", x, x, n), Ref("s", "y")), 1)


F7 = ("m[a]@2 := s[x] - r[k] @ 1;\n"
      "m[b]@1 := m[a] * s[y] + s[y] + s[y] @ 2;\n"
      "out@1 := m[b] + r[k] * r[k] * s[x] - 3 @ 1;\n")


def test_f7_bd_equals_the_walking_interpreter():
    """bd over F_7 runs the interpreter: its text is pinned to what the
    recursive evaluator this one replaced printed, support order included."""
    text = format_pmf(bd(parse_protocol(F7, 7)))
    lines = text.splitlines()
    assert len(lines) == 343
    assert lines[0] == "m[a]@2=0 m[b]@1=0 out@1=3 r[k]@1=3 s[x]@1=3 s[y]@2=0 weight=1/343"
    assert lines[-1] == "m[a]@2=6 m[b]@1=6 out@1=5 r[k]@1=5 s[x]@1=4 s[y]@2=6 weight=1/343"
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "49f99e533cdf16d85c2c09139ddfbadcceef77d1cb7c7695f78ac386def4d331"
