"""Hyperproperty checks: adversary enumeration and the check_* verdicts.

Failing verdicts are recomputed from the distributions they quantify over;
abort fractions follow from the one-bit MAC equation mc = key + delta * x.
"""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from overture import engine, verifier
from overture.dist import (
    ExplicitPreprocessing, Functionality, Pmf, bd, bd_adv, default_preprocessing,
    domain_positions,
)
from overture.errors import BudgetError, UsageError
from overture.interp import IDENTITY, AdversaryStrategy, run
from overture.lang import (
    AssertCmd, BOT, BinOp, Const, Partition, Protocol, Ref, Var,
    honest_views, parse_var,
)
from overture.ovt import parse_protocol
from overture.stdlib import FUNCTIONALITIES, PACKAGES, load_package
from overture.verifier import (
    Verdict, Witness, _dealt_secrets, _response_vars, adversarial_inputs,
    all_partitions, check_and_gate_tactic, check_cheating_detection,
    check_gmw_invariant, check_gradual_release, check_integrity, check_nimo,
    check_passive_correct, corrupt_positions, enumerate_adversaries, projected_bd,
)

from test_dist import interpreter_bd


def test_passive_correct_holds():
    for name in ("otp", "leaky", "shamir-add3", "gmw-and", "gmw-xor",
                 "gmw-and-xor", "bdoz-open"):
        protocol, fn, preproc = load_package(name)
        v = check_passive_correct(protocol, fn, preproc)
        assert v.ok, (name, v.format())


def test_passive_correct_witness():
    protocol, _, _ = load_package("gmw-and")
    wrong = FUNCTIONALITIES["xor2"]
    v = check_passive_correct(protocol, wrong)
    assert not v.ok
    run_memory = dict(v.witness.memories[0][1])
    want = wrong.apply(run_memory)
    assert any(run_memory[u] != x for u, x in want.items())
    # the first failing run of the interpreter's sweep, in its order:
    # secrets then coin flips, first variable most significant
    inputs = protocol.secrets() + protocol.flips()
    first = next(m for m in (run(dict(zip(inputs, bits)), protocol)
                             for bits in itertools.product((0, 1), repeat=len(inputs)))
                 if any(m[u] != x for u, x in wrong.apply(m).items()))
    assert run_memory == first
    assert (run_memory[parse_var("s[s1]@1")], run_memory[parse_var("s[s2]@2")]) == (0, 1)


def test_passive_correct_rejects_aborted_runs():
    # the output is right in every run, but runs with s[x] = 1 abort after it
    protocol = parse_protocol("out@1 := s[x] @ 1;\nassert (s[x] == 0) @ 1;\n")
    fn = Functionality.parse("s[x]@1=0 -> out@1=0\ns[x]@1=1 -> out@1=1\n")
    assert check_passive_correct(protocol, fn).format() == (
        "passive-correct: FAILS\n"
        "run output differs from the functionality\n"
        "  run: out@1=1 s[x]@1=1\n"
        "  expected outputs: out@1=1")


def test_passive_correct_domain_checks():
    protocol, _, _ = load_package("gmw-and")
    with pytest.raises(UsageError):
        check_passive_correct(protocol, FUNCTIONALITIES["mul1"])
    with pytest.raises(UsageError):
        check_passive_correct(protocol, FUNCTIONALITIES["sum3"])


def test_nimo_holds():
    otp, _, _ = load_package("otp")
    for corrupt in ([1], [2]):
        assert check_nimo(otp, Partition.of(otp.federation, corrupt)).ok
    sh, _, _ = load_package("shamir-add3")
    assert check_nimo(sh, Partition.of(sh.federation, [2])).ok


def test_nimo_leaky_witness():
    leaky, _, _ = load_package("leaky")
    part = Partition.of(leaky.federation, [2])
    v = check_nimo(leaky, part)
    assert not v.ok
    # the ciphertextless leak pins the secret: 1/2 becomes 1
    numbers = dict(v.witness.numbers)
    assert numbers["P(secrets | m1)"] == Fraction(1, 2)
    assert numbers["P(secrets | m1, m2)"] == 1
    p = bd(leaky)
    m1 = dict(v.witness.memories[0][1])
    m2 = dict(v.witness.memories[1][1])
    s = dict(v.witness.memories[2][1])
    assert p.cond_prob(s, m1) == Fraction(1, 2)
    assert p.cond_prob(s, {**m1, **m2}) == 1


def test_gradual_release():
    sh, _, _ = load_package("shamir-add3")
    assert check_gradual_release(sh, Partition.of(sh.federation, [2])).ok
    g, _, _ = load_package("gmw-and")
    assert check_gradual_release(g, Partition.of(g.federation, [2])).ok
    # the pad transfer releases through messages, not reveals
    otp, _, _ = load_package("otp")
    v = check_gradual_release(otp, Partition.of(otp.federation, [2]))
    assert not v.ok
    leaky, _, _ = load_package("leaky")
    v = check_gradual_release(leaky, Partition.of(leaky.federation, [2]))
    assert not v.ok
    joint = dict(v.witness.memories[0][1]) | dict(v.witness.memories[1][1])
    p = bd(leaky)
    numbers = dict(v.witness.numbers)
    assert p.prob(joint) == numbers["P(joint)"]
    assert numbers["P(joint)"] != numbers["P(messages) * P(secrets)"]


def test_and_gate_tactic_holds():
    gate, _, _ = load_package("gmw-gate")
    v = check_and_gate_tactic(gate)
    assert v.ok
    assert len(v.details) == 4
    assert all(d.endswith("holds") for d in v.details)


def test_and_gate_tactic_rejects_unmasked_gate():
    # constant rows: the receiver share carries no noise and no function
    broken = parse_protocol("m[z]@2 := OT4(m[x], m[y] @ 2 ; 0, 0, 0, 0) @ 1;\n"
                            "m[z]@1 := r[z] @ 1;\n")
    v = check_and_gate_tactic(broken)
    assert not v.ok
    status = dict(d.rsplit(": ", 1) for d in v.details)
    assert status["cond_det({<m[x]>,<m[y]>} -> <m[z]>)"] == "FAILS"
    assert status["cond_uni({<m[x]>,<m[y]>} -> m[z]@1)"] == "holds"
    assert status["cond_uni({<m[x]>,<m[y]>} -> m[z]@2)"] == "FAILS"
    # the first failing check, at its first failing conditioning realization
    assert v.format() == (
        "and-gate-tactic: FAILS\n"
        "  cond_det({<m[x]>,<m[y]>} -> <m[z]>): FAILS\n"
        "  cond_uni({<m[x]>,<m[y]>} -> m[z]@1): holds\n"
        "  cond_uni({<m[x]>,<m[y]>} -> m[z]@2): FAILS\n"
        "  cond_sep({<m[x]>,<m[y]>}; <m[z]>; {m[z]@1,m[z]@2}): FAILS\n"
        "cond_det({<m[x]>,<m[y]>} -> <m[z]>) fails at conditioning realization\n"
        "  conditioned on: <m[x]>=0 <m[y]>=0")


def test_and_gate_tactic_shape_errors():
    with pytest.raises(UsageError):
        check_and_gate_tactic(parse_protocol("out@1 := s[x] @ 1;\n"))
    two = ("m[z]@2 := OT4(m[x], m[y] @ 2 ; 0, 0, 0, 0) @ 1;\n"
           "m[w]@2 := OT4(m[x], m[y] @ 2 ; 0, 0, 0, 0) @ 1;\n")
    with pytest.raises(UsageError):
        check_and_gate_tactic(parse_protocol(two))


def test_gmw_invariant_holds_at_depth_two():
    protocol, _, _ = load_package("gmw-and-xor")
    for wire in ("g", "z"):
        for corrupt in ([1], [2]):
            part = Partition.of(protocol.federation, corrupt)
            v = check_gmw_invariant(protocol, wire, part)
            assert v.ok, v.format()


def test_gmw_invariant_rejects_direct_copy():
    copy = parse_protocol("m[w]@1 := s[x] @ 1;\n"
                          "m[w]@2 := 0 @ 1;\n"
                          "out@1 := m[w] @ 1;\n")
    part = Partition.of(copy.federation, [2])
    v = check_gmw_invariant(copy, "w", part)
    assert not v.ok
    assert any("cond_uni" in d and d.endswith("FAILS") for d in v.details)
    assert v.format() == (
        "gmw-invariant[w, corrupt={2}]: FAILS\n"
        "  cond_det(S -> <m[w]>): holds\n"
        "  cond_uni(S -> received messages {m[w]@2}): FAILS\n"
        "  cond_sep(S; <m[w]>; shares): holds\n"
        "cond_uni(S -> received messages {m[w]@2}) fails at conditioning realization\n"
        "  conditioned on: s[x]@1=0")
    with pytest.raises(UsageError):
        check_gmw_invariant(copy, "nope", part)


OTP_F3 = ("m[z]@2 := s[x] + r[k] @ 1;\n"
          "m[k]@2 := r[k] @ 1;\n")


def test_passive_checks_over_f3():
    """The F_p branch of nimo and gradual release, through the API (the CLI
    verifies F_2 only): the F_3 one-time pad, and a variant whose output
    drops the secret while ciphertext and pad still carry it, shifted by 1
    so that the first failing views exclude the secret they are tested at."""
    otp = parse_protocol(OTP_F3 + "out@2 := m[z] - m[k] @ 2;\n", modulus=3)
    leak = parse_protocol(OTP_F3.replace("r[k] @ 1;", "r[k] + 1 @ 1;", 1)
                          + "out@2 := 0 @ 2;\n", modulus=3)
    released = ("corrupt messages are correlated with honest secrets\n"
                "  corrupt messages: m[k]@2=0 m[z]@2=0\n"
                "  honest secrets: s[x]@1=0\n")
    for p in (otp, leak):
        part = Partition.of(p.federation, [1])
        assert check_nimo(p, part).format() == "nimo[corrupt={1}]: holds\n  no honest secrets"
        assert check_gradual_release(p, part).format() == \
            "gradual-release[corrupt={1}]: holds\n  no corrupt messages or no honest secrets"
    part = Partition.of(otp.federation, [2])
    assert check_nimo(otp, part).format() == \
        "nimo[corrupt={2}]: holds\n  9 positive view realizations checked"
    assert check_gradual_release(otp, part).format() == (
        "gradual-release[corrupt={2}]: FAILS\n" + released
        + "  P(joint) = 1/9\n  P(messages) * P(secrets) = 1/27")
    assert check_nimo(leak, part).format() == (
        "nimo[corrupt={2}]: FAILS\n"
        "conditioning on corrupt views changes the honest-secret distribution\n"
        "  m1 (corrupt secrets and outputs): out@2=0\n"
        "  m2 (corrupt views): m[k]@2=0 m[z]@2=0\n"
        "  honest secrets: s[x]@1=0\n"
        "  P(secrets | m1) = 1/3\n"
        "  P(secrets | m1, m2) = 0")
    assert check_gradual_release(leak, part).format() == (
        "gradual-release[corrupt={2}]: FAILS\n" + released
        + "  P(joint) = 0\n  P(messages) * P(secrets) = 1/27")


def test_corrupt_positions_and_enumeration():
    otp, _, _ = load_package("otp")
    part1 = Partition.of(otp.federation, [1])
    assert corrupt_positions(otp, part1) == (0, 1)
    fam = enumerate_adversaries(otp, part1)
    assert len(fam) == 9           # {keep, 0, 1} at each of two sends
    assert fam[0] is IDENTITY
    assert len({s.replacements for s in fam}) == 9
    part2 = Partition.of(otp.federation, [2])
    assert corrupt_positions(otp, part2) == (2,)
    assert len(enumerate_adversaries(otp, part2)) == 3
    bdoz, _, _ = load_package("bdoz-open")
    bpart = Partition.of(bdoz.federation, [2])
    assert corrupt_positions(bdoz, bpart) == (3, 4, 7, 9)


def test_enumeration_with_table_budget():
    otp, _, _ = load_package("otp")
    part = Partition.of(otp.federation, [1])
    # client 1 sees s[x] and r[k]: 2^(2^2) boolean functions, plus keep
    fam = enumerate_adversaries(otp, part, tables_budget=1, positions=(0,))
    assert len(fam) == 17
    assert fam[0] is IDENTITY


def test_enumeration_guards(monkeypatch):
    otp, _, _ = load_package("otp")
    part = Partition.of(otp.federation, [1])
    with pytest.raises(UsageError):
        enumerate_adversaries(otp, part, positions=(2,))
    with pytest.raises(UsageError, match="repeat"):
        enumerate_adversaries(otp, part, positions=(0, 0))
    with pytest.raises(UsageError, match="negative"):
        enumerate_adversaries(otp, part, tables_budget=-3)
    monkeypatch.setattr(verifier, "MAX_STRATEGIES", 5)
    with pytest.raises(BudgetError):
        enumerate_adversaries(otp, part)


def test_adversarial_inputs():
    a, b, t = (Var("m", n, 1) for n in "abt")
    keys = [(x, y, x ^ y) for x in (0, 1) for y in (0, 1)]
    masked = Pmf.from_dict((a, b, t), {k: 1 for k in keys}, 4)
    # neither view alone is dependent; the pair is, so both are returned
    assert adversarial_inputs(masked, (a, b), (t,)) == (a, b)
    leak = Pmf.from_dict((a, b, t), {(x, y, x): 1 for x in (0, 1) for y in (0, 1)}, 4)
    assert adversarial_inputs(leak, (a, b), (t,)) == (a,)
    assert adversarial_inputs(leak, (a, b), ()) == ()
    assert adversarial_inputs(leak, (Var("m", "zz", 9),), (t,)) == ()


def test_detection_inputs_gmw():
    protocol, _, _ = load_package("gmw-and")
    part = Partition.of(protocol.federation, [2])
    fam = enumerate_adversaries(protocol, part)
    assert len(fam) == 81
    # lying at the decode reveal skews out@1 = p[z1] xor p[z2]; the share
    # sent to client 1 stays masked by r[z] on every path to a target
    v = check_cheating_detection(protocol, part, fam)
    assert v.details[0] == "adversarial inputs: p[z2]"


def test_detection_mixture_does_not_depend_on_chunking(monkeypatch):
    """Detection counts the passive runs and each chunk's tampered runs as
    the parts of one count: one strategy a chunk and one chunk for the
    family give one verdict, and its adversarial inputs are those of the
    mixture of bd with bd_adv of each tampering strategy."""
    for name, positions in (("gmw-and", None), ("bdoz-open", (3, 4))):
        protocol, _, preproc = load_package(name)
        preproc = preproc or default_preprocessing(protocol)
        part = Partition.of(protocol.federation, [2])
        fam = enumerate_adversaries(protocol, part, preproc=preproc, positions=positions)
        verdicts = []
        for chunk_rows, min_chunks, nchunks in ((1, 1, len(fam)), (2 ** 40, 1, 1)):
            with monkeypatch.context() as m:
                m.setattr(engine, "CHUNK_ROWS", chunk_rows)
                m.setattr(engine, "MIN_CHUNKS", min_chunks)
                family = engine.family_of(fam)
                assert len(engine.chunks(protocol, preproc, family)) == nchunks
                verdicts.append(check_cheating_detection(protocol, part, fam, preproc))
        assert verdicts[0].format() == verdicts[1].format()
        views = tuple(dict.fromkeys(honest_views(protocol, part)))
        responses = _response_vars(protocol, part)
        vars_ = tuple(dict.fromkeys(views + responses))
        tampered = [bd_adv(protocol, s, part, preproc).marginal(vars_)
                    for s in fam if s.replacements or s.abort_at]
        mix = bd(protocol, preproc).marginal(vars_).mixed_with(tampered)
        inputs = adversarial_inputs(mix, views, responses)
        assert verdicts[0].details[0] == \
            f"adversarial inputs: {', '.join(map(str, inputs)) or '(none)'}"
    assert len(fam) == 9 and not verdicts[0].ok  # bdoz-open's forged share


def test_identity_strategies_always_explained():
    for name in ("otp", "leaky", "shamir-add3", "gmw-and", "bdoz-open"):
        protocol, _, preproc = load_package(name)
        for part in all_partitions(protocol, max_corrupt=1):
            # the identity tampers with nothing, so the mixture is the passive
            # distribution alone (the identity skips corrupt assertions)
            views = tuple(dict.fromkeys(honest_views(protocol, part)))
            responses = _response_vars(protocol, part)
            passive = projected_bd(protocol, views + responses, preproc)
            inputs = adversarial_inputs(passive, views, responses)
            for scope in ("secrets", "initial"):
                vd = check_cheating_detection(protocol, part, [IDENTITY],
                                              preproc, secret_scope=scope)
                vi = check_integrity(protocol, part, [IDENTITY], preproc,
                                     secret_scope=scope)
                assert vd.ok, (name, scope, vd.format())
                assert vi.ok, (name, scope, vi.format())
                assert vd.details[0] == \
                    f"adversarial inputs: {', '.join(map(str, inputs)) or '(none)'}"


def test_constant_lies_at_inputs_are_substitutions():
    # a lying sender is indistinguishable from one with a different input
    otp, _, _ = load_package("otp")
    for corrupt in ([1], [2]):
        part = Partition.of(otp.federation, corrupt)
        fam = enumerate_adversaries(otp, part)
        assert check_cheating_detection(otp, part, fam).ok
        assert check_integrity(otp, part, fam).ok
    leaky, _, _ = load_package("leaky")
    part = Partition.of(leaky.federation, [2])
    fam = enumerate_adversaries(leaky, part)
    assert check_cheating_detection(leaky, part, fam).ok
    assert check_integrity(leaky, part, fam).ok


def test_initial_scope_holds_the_flips_the_deal_leaves_out():
    # the corrupt client's constant message masks out@1 with client 1's
    # coin flip r[k]; the default deal holds only s[x].  Lying 1 keeps
    # out@1 a value some passive run gives, so the secrets scope explains
    # it, but no passive run has out@1 = s[x] xor r[k] xor 1
    p = parse_protocol("m[a]@1 := 0 @ 2;\n"
                       "out@1 := m[a] xor r[k] xor s[x] @ 1;\n")
    part = Partition.of(p.federation, [2])
    assert default_preprocessing(p).domain == (parse_var("s[x]@1"),)
    fam = enumerate_adversaries(p, part)
    assert check_cheating_detection(p, part, fam, secret_scope="secrets").ok
    v = check_cheating_detection(p, part, fam, secret_scope="initial")
    assert not v.ok and "m[a]@1:=1" in v.witness.description
    agree = dict(v.witness.memories[1][1])
    assert set(agree) == {parse_var(x) for x in ("out@1", "r[k]@1", "s[x]@1")}
    assert bd(p).prob(agree) == 0


def test_lying_decode_is_not_explained():
    protocol, _, _ = load_package("gmw-and")
    part = Partition.of(protocol.federation, [2])
    fam = enumerate_adversaries(protocol, part)
    vd = check_cheating_detection(protocol, part, fam)
    assert not vd.ok
    assert "p[z2]:=0" in vd.witness.description
    agree = dict(vd.witness.memories[1][1])
    assert bd(protocol).prob(agree) == 0
    vi = check_integrity(protocol, part, fam)
    assert not vi.ok
    assert "p[z2]:=0" in vi.witness.description


def test_detection_agrees_on_more_than_64_variables():
    # seventy copies of one secret reach the corrupt client, so every
    # agreement realization spans more than 64 variables
    src = "".join(f"m[a{i}]@2 := s[x] @ 1;\n" for i in range(70)) \
        + "m[b]@1 := m[a0] @ 2;\nout@1 := m[b] @ 1;\n"
    protocol = parse_protocol(src)
    part = Partition.of(protocol.federation, [2])
    assert check_cheating_detection(protocol, part, [IDENTITY]).ok
    v = check_cheating_detection(protocol, part, enumerate_adversaries(protocol, part))
    assert not v.ok
    assert "m[b]@1:=0" in v.witness.description
    assert dict(v.witness.memories[0][1])[parse_var("s[x]@1")] == 1
    agree = dict(v.witness.memories[1][1])
    assert len(agree) > 64
    assert bd(protocol).prob(agree) == 0


def test_unauthenticated_open_is_caught():
    protocol, _, preproc = load_package("bdoz-open")
    stripped = Protocol(tuple(c for c in protocol.commands
                              if not isinstance(c, AssertCmd)),
                        protocol.federation, protocol.modulus)
    part = Partition.of(stripped.federation, [2])
    assert corrupt_positions(stripped, part) == (2, 3, 5, 7)
    flip = BinOp("+", stripped.commands[2].expr, Const(1))
    fam = (IDENTITY, AdversaryStrategy(replacements=((2, flip),),
                                       label="share-flip"))
    for scope in ("secrets", "initial"):
        v = check_cheating_detection(stripped, part, fam, preproc,
                                     secret_scope=scope)
        assert not v.ok
        agree = dict(v.witness.memories[1][1])
        assert bd(stripped, preproc).prob(agree) == 0


def test_authenticated_open_abort_fractions():
    # mc = key + delta * x: a flipped share passes iff delta = 0, a flipped
    # mac never passes, flipping both passes iff delta = 1
    protocol, _, preproc = load_package("bdoz-open")
    part = Partition.of(protocol.federation, [2])
    share = protocol.commands[3].expr
    mac = protocol.commands[4].expr
    flip = lambda e: BinOp("+", e, Const(1))
    out1 = Var("out", "", 1)
    cases = ((((3, flip(share)),), Fraction(1, 2)),
             (((4, flip(mac)),), Fraction(1)),
             (((3, flip(share)), (4, flip(mac))), Fraction(1, 2)))
    for replacements, want in cases:
        s = AdversaryStrategy(replacements=replacements)
        p = bd_adv(protocol, s, part, preproc)
        assert p.prob({out1: BOT}) == want


def test_bdoz_open_forgeries_break_both_checks():
    # one-bit macs forge with probability 1/2, so the full strategy family
    # contains runs no substituted passive execution explains
    protocol, _, preproc = load_package("bdoz-open")
    part = Partition.of(protocol.federation, [2])
    fam = enumerate_adversaries(protocol, part)
    assert len(fam) == 81
    for scope in ("secrets", "initial"):
        vd = check_cheating_detection(protocol, part, fam, preproc,
                                      secret_scope=scope)
        vi = check_integrity(protocol, part, fam, preproc, secret_scope=scope)
        assert not vd.ok and "p[x2]:=0" in vd.witness.description
        assert not vi.ok and "p[x2]:=0" in vi.witness.description
        agree = dict(vd.witness.memories[1][1])
        assert bd(protocol, preproc).prob(agree) == 0


def _cond_dist(pmf, x_vars, given: dict) -> dict:
    pos = domain_positions(pmf.domain, tuple(given))
    want = tuple(given[v] for v in given)
    xpos = domain_positions(pmf.domain, tuple(x_vars))
    rows: dict = {}
    mass = Fraction(0)
    for key, w in pmf.weights.items():
        if tuple(key[i] for i in pos) != want:
            continue
        sub = tuple(key[i] for i in xpos)
        rows[sub] = rows.get(sub, Fraction(0)) + w
        mass += w
    if mass == 0:
        return {}
    return {k: v / mass for k, v in rows.items()}


def reference_integrity(protocol, part, strategies, preproc, scope):
    """Integrity by rescanning interpreter-built pmfs for every condition
    and candidate: None when it holds, else (strategy, adversarial run,
    conditioned on) of the first unexplained condition."""
    p_passive = interpreter_bd(protocol, preproc)
    x_h_all = _response_vars(protocol, part)
    v_ch = tuple(dict.fromkeys(honest_views(protocol, part)))
    if scope == "secrets":
        inputs = _dealt_secrets(protocol, preproc)
        candidates = [dict(zip(inputs, values))
                      for values in itertools.product((0, 1), repeat=len(inputs))]
    else:
        inputs = tuple(preproc.domain)
        candidates = [dict(m) for m in preproc.memories()]
    match_vars = tuple(v for v in inputs if v.owner in part.honest)
    for strategy in strategies:
        p_a = interpreter_bd(protocol, preproc, strategy, part)
        seen = set()
        for key, _ in p_a.support():
            m = p_a.memory(key)
            x_vars = tuple(v for v in x_h_all if m[v] is not BOT)
            given = {v: m[v] for v in inputs}
            given.update((v, m[v]) for v in v_ch if m[v] is not BOT)
            cond = (x_vars, tuple(sorted(given.items(), key=lambda kv: str(kv[0]))))
            if cond in seen:
                continue
            seen.add(cond)
            lhs = _cond_dist(p_a, x_vars, given)
            if not any(_cond_dist(p_passive, x_vars, {**given, **c}) == lhs
                       for c in candidates
                       if all(c[v] == m[v] for v in match_vars)):
                return strategy, m, given
    return None


def test_integrity_matches_pmf_reference():
    # the reference costs tens of milliseconds per strategy, so families
    # above 27 strategies (up to 19,683 here) keep the identity and 26
    # seeded picks, which vary every tampered position
    rng = random.Random(7)
    checked = failed = 0
    for name in sorted(PACKAGES):
        if name == "bdoz-beaver":
            continue
        protocol, _, preproc = load_package(name)
        if preproc is None:
            preproc = default_preprocessing(protocol)
        for part in all_partitions(protocol, max_corrupt=1):
            fam = enumerate_adversaries(protocol, part, preproc=preproc)
            if len(fam) > 27:
                picks = sorted(rng.sample(range(1, len(fam)), 26))
                fam = fam[:1] + tuple(fam[i] for i in picks)
            for scope in ("secrets", "initial"):
                v = check_integrity(protocol, part, fam, preproc, secret_scope=scope)
                want = reference_integrity(protocol, part, fam, preproc, scope)
                checked += 1
                assert v.ok == (want is None), (name, part, scope)
                if want is None:
                    continue
                failed += 1
                strategy, m, given = want
                assert v.witness.description == (
                    "no input substitution reproduces the honest responses "
                    f"(strategy: {strategy.describe()})")
                assert v.witness.memories == (("adversarial run", m),
                                              ("conditioned on", given))
    assert checked == 34 and failed > 0


def test_integrity_compares_weights_not_only_support():
    # passively the corrupt client sends a fresh coin; the strategy echoes
    # m[z], flipped with probability 1/4, so given the echo m[z] keeps both
    # values but at 3/4 and 1/4: detection, which compares supports, holds
    # and integrity fails
    protocol = parse_protocol("m[z]@2 := r[h] @ 1;\n"
                              "m[b]@1 := r[u] + r[v] @ 2;\n"
                              "out@1 := m[b] + s[x] @ 1;\n")
    part = Partition.of(protocol.federation, [2])
    noisy = BinOp("xor", Ref("m", "z"), BinOp("and", Ref("r", "u"), Ref("r", "v")))
    echo = AdversaryStrategy(replacements=((1, noisy),), label="noisy echo")
    fam = (IDENTITY, echo)
    assert check_cheating_detection(protocol, part, fam).ok
    v = check_integrity(protocol, part, fam)
    assert not v.ok
    given = dict(v.witness.memories[1][1])
    assert given == {parse_var("s[x]@1"): 0, parse_var("m[b]@1"): 0}
    z = (parse_var("m[z]@2"),)
    lhs = _cond_dist(interpreter_bd(protocol, None, echo, part), z, given)
    rhs = _cond_dist(interpreter_bd(protocol), z, given)
    assert lhs == {(0,): Fraction(3, 4), (1,): Fraction(1, 4)}
    assert rhs == {(0,): Fraction(1, 2), (1,): Fraction(1, 2)}
    assert reference_integrity(protocol, part, fam, default_preprocessing(protocol),
                               "secrets")[2] == given


def test_integrity_requires_f2():
    # both adversarial checks run on the F_2 fold
    p = parse_protocol("m[z]@2 := s[x] + r[k] @ 1;\n"
                       "m[k]@2 := r[k] @ 1;\n"
                       "out@2 := m[z] - m[k] @ 2;\n", modulus=3)
    part = Partition.of(p.federation, [1])
    lie = AdversaryStrategy(replacements=((0, Const(2)),))
    for check in (check_integrity, check_cheating_detection):
        with pytest.raises(UsageError, match="requires F_2"):
            check(p, part, [IDENTITY, lie])


def test_integrity_tries_only_passive_inputs(monkeypatch):
    # one dealt memory over 25 secrets: a single run, whose inputs are the
    # only ones tried; the 2^25 assignments of the secrets are never built
    xs = [parse_var(f"s[x{i}]@1") for i in range(24)]
    p = parse_protocol("m[z]@1 := s[y] @ 2;\nout@1 := m[z] + "
                       + " + ".join(f"s[x{i}]" for i in range(24)) + " @ 1;\n")
    secrets = xs + [parse_var("s[y]@2")]
    deal = ExplicitPreprocessing(secrets, [dict.fromkeys(secrets, 0)])
    part = Partition.of(p.federation, [2])
    fam = enumerate_adversaries(p, part)
    monkeypatch.setattr(engine, "bit_column", lambda *a: pytest.fail("bit columns built"))
    for scope in ("secrets", "initial"):
        assert check_integrity(p, part, fam[:2], deal, secret_scope=scope).ok
        # sending 1 would need s[y] = 1, which no passive run has
        v = check_integrity(p, part, fam, deal, secret_scope=scope)
        assert v.witness.description.endswith("(strategy: m[z]@1:=1)")
        assert v.witness.memories[1] == (
            "conditioned on", {**dict.fromkeys(secrets, 0), parse_var("m[z]@1"): 1})


def test_stacked_run_budget_checked_before_building(monkeypatch):
    # bdoz-open with client 2 corrupt: 81 strategies of 64 runs
    protocol, _, preproc = load_package("bdoz-open")
    part = Partition.of(protocol.federation, [2])
    fam = enumerate_adversaries(protocol, part, preproc=preproc)

    def never_build(*args, **kwargs):
        raise AssertionError("columns built")

    monkeypatch.setattr(engine, "MAX_STACKED_RUNS", 81 * 64 - 1)
    with monkeypatch.context() as m:
        m.setattr(engine, "bit_column", never_build)
        m.setattr(type(preproc), "columns", never_build)
        for check in (check_cheating_detection, check_integrity):
            with pytest.raises(BudgetError, match="81 strategies of 64 runs exceed "
                                                  "the stacked-run budget of 5183"):
                check(protocol, part, fam, preproc)
    # at the budget the family is folded, and the forgeries are found
    monkeypatch.setattr(engine, "MAX_STACKED_RUNS", 81 * 64)
    for check in (check_cheating_detection, check_integrity):
        assert not check(protocol, part, fam, preproc).ok


def test_subset_tests_budget_checked_before_walking(monkeypatch):
    # 20 constant views, each independent of the target and so is every subset
    views = tuple(Var("m", f"v{i}", 1) for i in range(20))
    t = Var("m", "t", 2)
    pmf = Pmf.from_dict(views + (t,), {(0,) * 20 + (0,): 1, (0,) * 20 + (1,): 1}, 2)
    calls = []
    independent = Pmf.independent
    monkeypatch.setattr(Pmf, "independent",
                        lambda self, *a: calls.append(a) or independent(self, *a))
    # the 20 singles and 190 pairs fit; the 1,140 triples would pass 1,000
    monkeypatch.setattr(verifier, "MAX_SUBSET_TESTS", 1000)
    with pytest.raises(BudgetError, match="1350 subset tests over 20 views"):
        adversarial_inputs(pmf, views, (t,))
    assert len(calls) == 20 + 190
    calls.clear()
    monkeypatch.setattr(verifier, "MAX_SUBSET_TESTS", 209)
    with pytest.raises(BudgetError):
        adversarial_inputs(pmf, views, (t,))
    assert len(calls) == 20
    # a dependent single view is found within the budget
    leak = Pmf.from_dict(views[:1] + (t,), {(0, 0): 1, (1, 1): 1}, 2)
    assert adversarial_inputs(leak, views[:1], (t,)) == views[:1]


def test_all_partitions():
    sh, _, _ = load_package("shamir-add3")
    parts = all_partitions(sh)
    assert len(parts) == 6
    assert [sorted(p.corrupt) for p in parts] == [
        [1], [2], [3], [1, 2], [1, 3], [2, 3]]
    assert len(all_partitions(sh, max_corrupt=1)) == 3
    # the corrupt set stays a strict subset, and below 1 no partition is left
    otp, _, _ = load_package("otp")
    for n in (None, 1, 2, 5):
        assert [sorted(p.corrupt) for p in all_partitions(otp, max_corrupt=n)] == [[1], [2]]
    for n in (0, -1):
        with pytest.raises(UsageError, match="below 1"):
            all_partitions(otp, max_corrupt=n)


def test_verdict_and_witness_format():
    w = Witness("what failed", memories=(("run", {parse_var("p[a]"): 1}),),
                numbers=(("P", Fraction(1, 2)),))
    v = Verdict(False, "some-check", ("note",), w)
    assert v.format() == ("some-check: FAILS\n  note\nwhat failed\n"
                          "  run: p[a]=1\n  P = 1/2")
    assert Verdict(True, "some-check").format() == "some-check: holds"
