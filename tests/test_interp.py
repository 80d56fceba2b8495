"""Interpreter semantics: expression evaluation, runs, and adversarial runs."""

import random

import pytest

from overture import field
from overture.errors import EvalError, UsageError
from overture.interp import (
    IDENTITY, AdversaryStrategy, eval_expr, eval_pred, run, run_adv, step,
)
from overture.lang import (
    BOT, BinOp, Cmp, Const, Not, OT, OT4, Partition, Protocol, Ref, Var,
    parse_var,
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
