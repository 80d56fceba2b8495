"""End-to-end checks over the bundled packages, one summary line per check.

Every probability comparison is exact rational equality; the printed lines
carry the measured wall times for the heavier enumerations.
"""

import itertools
import random
import time
from fractions import Fraction

from overture.datalog import facts_of, lhm, mangle, to_datalog
from overture.dist import bd, bd_adv, default_preprocessing
from overture.interp import AdversaryStrategy, run
from overture.lang import BOT, BinOp, Const, Partition, parse_var
from overture.stdlib import PACKAGES, bdoz_beaver_trimmed, load_package
from overture.verifier import (
    all_partitions, check_and_gate_tactic, check_cheating_detection,
    check_gmw_invariant, check_gradual_release, check_integrity, check_nimo,
    check_passive_correct, enumerate_adversaries,
)

from test_dist import check_pmf_laws, random_pmf
from test_engine import assert_rows_match


def _total_runs(protocol, preproc):
    if preproc is None:
        preproc = default_preprocessing(protocol)
    return preproc.count() * 2 ** len(protocol.flips())


def test_additive_sharing_sum_correct_and_oblivious():
    protocol, fn, preproc = load_package("shamir-add3")
    t0 = time.time()
    assert _total_runs(protocol, preproc) == 512
    v = check_passive_correct(protocol, fn, preproc)
    assert v.ok
    parts = all_partitions(protocol)
    assert len(parts) == 6
    for part in parts:
        assert check_nimo(protocol, part, preproc).ok
    print(f"pass: 3-party sum correct + nimo for all 6 coalitions "
          f"({time.time() - t0:.2f}s, 512 runs)")


def test_share_gates_correct_and_oblivious():
    t0 = time.time()
    for name, runs in (("gmw-and", 32), ("gmw-xor", 16)):
        protocol, fn, preproc = load_package(name)
        total = _total_runs(protocol, preproc)
        assert total == runs and total <= 32
        v = check_passive_correct(protocol, fn, preproc)
        assert v.ok
        assert v.details == (f"all {runs} runs agree with the functionality",)
        for corrupt in ([1], [2]):
            part = Partition.of(protocol.federation, corrupt)
            assert check_nimo(protocol, part, preproc).ok
    print(f"pass: AND and XOR share gates correct + nimo for both single "
          f"corruptions ({time.time() - t0:.2f}s, 32 and 16 runs)")


def test_and_gate_conditioning_conditions():
    protocol, _, _ = load_package("gmw-gate")
    t0 = time.time()
    v = check_and_gate_tactic(protocol)
    assert v.ok
    assert len(v.details) == 4
    assert all(d.endswith("holds") for d in v.details)
    print(f"pass: AND gate conditioning (determined wire, uniform shares, "
          f"separation) ({time.time() - t0:.2f}s)")


def test_share_invariant_at_depth_two_wire():
    protocol, _, preproc = load_package("gmw-and-xor")
    t0 = time.time()
    assert _total_runs(protocol, preproc) == 128
    for corrupt in ([1], [2]):
        part = Partition.of(protocol.federation, corrupt)
        v = check_gmw_invariant(protocol, "z", part, preproc)
        assert v.ok
        assert len(v.details) == 3
        assert all(d.endswith("holds") for d in v.details)
    print(f"pass: share invariant at the depth-2 wire of (s1 & s2) ^ s3 "
          f"({time.time() - t0:.2f}s, 128 runs)")


def test_least_model_matches_interpreter_on_every_input():
    t0 = time.time()
    sweeps = {}
    for name in ("shamir-add3", "gmw-and", "gmw-xor", "otp"):
        protocol, _, _ = load_package(name)
        program = to_datalog(protocol)
        inputs = protocol.secrets() + protocol.flips()
        count = 0
        for values in itertools.product((0, 1), repeat=len(inputs)):
            m0 = dict(zip(inputs, values))
            final = run(m0, protocol)
            want = frozenset(mangle(v) for v, x in final.items() if x == 1)
            assert lhm(program, facts_of(m0)) == want
            count += 1
        sweeps[name] = count
    assert sweeps == {"shamir-add3": 512, "gmw-and": 32, "gmw-xor": 16,
                      "otp": 4}
    print(f"pass: least model = interpreter on every input memory "
          f"({time.time() - t0:.2f}s, 512 + 32 + 16 + 4 sweeps)")


def test_leaky_protocol_fails_with_recomputable_witnesses():
    protocol, _, _ = load_package("leaky")
    part = Partition.of(protocol.federation, [2])
    t0 = time.time()
    p = bd(protocol)

    v = check_nimo(protocol, part)
    assert not v.ok
    m1 = v.witness.memories[0][1]
    m2 = v.witness.memories[1][1]
    sh = v.witness.memories[2][1]
    lhs = p.cond_prob(sh, m1)
    rhs = p.cond_prob(sh, {**m1, **m2})
    assert (lhs, rhs) == (Fraction(1, 2), Fraction(1))
    assert v.witness.numbers == (("P(secrets | m1)", lhs),
                                 ("P(secrets | m1, m2)", rhs))

    v = check_gradual_release(protocol, part)
    assert not v.ok
    msgs = v.witness.memories[0][1]
    secrets = v.witness.memories[1][1]
    joint = p.prob({**msgs, **secrets})
    product = p.prob(msgs) * p.prob(secrets)
    assert (joint, product) == (Fraction(1, 2), Fraction(1, 4))
    assert v.witness.numbers == (("P(joint)", joint),
                                 ("P(messages) * P(secrets)", product))
    print(f"pass: leaky protocol fails nimo (1/2 vs 1) and gradual release "
          f"(1/2 vs 1/4), both recomputed from the run distribution "
          f"({time.time() - t0:.2f}s)")


def test_random_pmf_laws_hold_broadly():
    rng = random.Random(77)
    t0 = time.time()
    n = 150
    for _ in range(n):
        check_pmf_laws(random_pmf(rng), rng)
    print(f"pass: {n} random pmfs satisfy the marginal, chain-rule, "
          f"independence, and conditioning laws ({time.time() - t0:.2f}s)")


def test_beaver_multiplication_full_and_malicious():
    protocol, fn, preproc = load_package("bdoz-beaver")
    trim = bdoz_beaver_trimmed()
    part = Partition.of(protocol.federation, [2])
    out1 = parse_var("out@1")

    t0 = time.time()
    v = check_passive_correct(protocol, fn, preproc)
    assert v.ok
    assert v.details == ("all 2097152 runs agree with the functionality",)
    t_correct = time.time() - t0

    t0 = time.time()
    assert check_nimo(protocol, part, preproc).ok
    t_nimo = time.time() - t0

    # lie by one on the share sent in the first opening, MAC unchanged
    lie = BinOp("+", protocol.commands[3].expr, Const(1))
    strategy = AdversaryStrategy(replacements=((3, lie),), label="share lie")
    t0 = time.time()
    assert_rows_match(protocol, trim, strategy, part)
    p = bd_adv(protocol, strategy, part, trim)
    assert p.prob({out1: BOT}) == Fraction(1, 2)
    delta1 = parse_var("m[delta]@1")
    for key in p.weights:
        m = p.memory(key)
        # the single MAC bit catches the lie exactly when the key offset is 1
        assert (m[out1] is BOT) == (m[delta1] == 1)
    t_abort = time.time() - t0

    t0 = time.time()
    family = enumerate_adversaries(protocol, part, positions=(3, 4))
    assert len(family) == 9
    for scope in ("secrets", "initial"):
        v = check_cheating_detection(protocol, part, family, trim,
                                     secret_scope=scope)
        assert not v.ok
        assert "m[shzd2]@1:=0" in v.witness.description
    t_detect = time.time() - t0

    # the first strategy no input substitution explains: the zeroed share
    # when corrupt secrets are substituted, already the zeroed MAC when all
    # corrupt initial values are
    t_integrity = {}
    for scope, lie_label in (("secrets", "m[shzd2]@1:=0"),
                             ("initial", "m[mczd2]@1:=0")):
        t0 = time.time()
        v = check_integrity(protocol, part, family, trim, secret_scope=scope)
        t_integrity[scope] = time.time() - t0
        assert not v.ok
        assert f"(strategy: {lie_label})" in v.witness.description
        run_memory = v.witness.memories[0][1]
        given = v.witness.memories[1][1]
        assert all(run_memory[u] == x for u, x in given.items())
    print(f"pass: beaver multiplication correct over all 2^21 runs "
          f"({t_correct:.2f}s) + nimo ({t_nimo:.2f}s); share lie aborts at "
          f"exactly 1/2 ({t_abort:.2f}s); cheating detection fails for the "
          f"9 constant strategies under both secret scopes on the 2^12 trim "
          f"({t_detect:.2f}s); integrity fails under both scopes "
          f"({t_integrity['secrets']:.2f}s secrets, "
          f"{t_integrity['initial']:.2f}s initial)")


def test_truth_table_runs_match_interpreter_everywhere():
    t0 = time.time()
    for name in sorted(PACKAGES):
        protocol, _, preproc = load_package(name)
        if name == "bdoz-beaver":
            preproc = bdoz_beaver_trimmed()
        assert_rows_match(protocol, preproc)
    print(f"pass: vectorized fold = interpreter sweep, run by run, for all "
          f"{len(PACKAGES)} packages ({time.time() - t0:.2f}s)")
