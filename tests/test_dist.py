"""Exact pmfs: basic distributions, conditioning, functionalities.

random_pmf and check_pmf_laws are shared with the acceptance suite: every
derived quantity (marginals, conditionals, witnesses) is re-verified against
brute-force recomputation from prob/cond_prob.
"""

import itertools
import random
from fractions import Fraction

import pytest

from overture.dist import (
    ExplicitPreprocessing, Functionality, Pmf, UniformPreprocessing, bd,
    bd_adv, bd_domain, default_preprocessing, format_pmf, kernel,
)
from overture.errors import UsageError
from overture.interp import AdversaryStrategy
from overture.lang import BOT, Const, Partition, Var, parse_var
from overture.ovt import parse_protocol
from overture.stdlib import (
    FUNCTIONALITIES, LEAKY_OVT, OTP_OVT, SHAMIR_ADD3_OVT, load_package,
)

from overture.verifier import enumerate_adversaries
from test_engine import sweep


S_X = parse_var("s[x]@1")
R_K = parse_var("r[k]@1")
M_Z = parse_var("m[z]@2")
M_K = parse_var("m[k]@2")
OUT2 = parse_var("out@2")


def test_bd_otp_golden():
    p = parse_protocol(OTP_OVT)
    pmf = bd(p)
    assert pmf.domain == (S_X, R_K, M_Z, M_K, OUT2)
    assert len(pmf.weights) == 4
    for key, w in pmf.support():
        assert w == Fraction(1, 4)
        m = pmf.memory(key)
        assert m[M_Z] == m[S_X] ^ m[R_K]
        assert m[M_K] == m[R_K]
        assert m[OUT2] == m[S_X]


def test_bd_requires_covered_reads():
    p = parse_protocol("out@2 := m[z] @ 2;\n")
    with pytest.raises(UsageError):
        bd(p)
    pmf = bd(p, UniformPreprocessing([parse_var("m[z]@2")]))
    assert pmf.mass() == 1


def test_bd_domain_clashes():
    p = parse_protocol(OTP_OVT)
    with pytest.raises(UsageError):
        bd_domain(p, UniformPreprocessing([S_X, R_K]))
    with pytest.raises(UsageError):
        bd_domain(p, UniformPreprocessing([S_X, M_Z]))


def test_bd_rejects_empty_preprocessing():
    p = parse_protocol(OTP_OVT)
    with pytest.raises(UsageError):
        bd(p, ExplicitPreprocessing([S_X], []))


def test_explicit_preprocessing_values_in_field():
    # over F_2 a dealt 2 once printed as bot and a 3 as 3
    for bad in (2, 3, -1, BOT, "1"):
        with pytest.raises(UsageError, match="out of range"):
            ExplicitPreprocessing([S_X], [{S_X: 0}, {S_X: bad}])
    with pytest.raises(UsageError, match="out of range"):
        ExplicitPreprocessing([S_X], [{S_X: 3}], modulus=3)
    deal = ExplicitPreprocessing([S_X], [{S_X: 2}, {S_X: 0}], modulus=3)
    assert list(deal.memories()) == [{S_X: 2}, {S_X: 0}]
    p = parse_protocol(OTP_OVT)
    assert format_pmf(bd(p, ExplicitPreprocessing([S_X], [{S_X: 1}])).marginal([S_X])) \
        == "s[x]@1=1 weight=1/1\n"


def interpreter_bd(protocol, preproc=None, strategy=None, part=None) -> Pmf:
    """bd recomputed from the reference interpreter's sweep."""
    if preproc is None:
        preproc = default_preprocessing(protocol)
    domain = bd_domain(protocol, preproc)
    counts = {}
    for final in sweep(protocol, preproc, strategy, part):
        key = tuple(final[v] for v in domain)
        counts[key] = counts.get(key, 0) + 1
    return Pmf.from_counts(domain, counts, sum(counts.values()), protocol.modulus)


def test_bd_routes_agree():
    cases = [(parse_protocol(OTP_OVT), None),
             (parse_protocol(SHAMIR_ADD3_OVT), None),
             (parse_protocol(LEAKY_OVT), None)]
    for name in ("gmw-and", "bdoz-open"):
        protocol, _, preproc = load_package(name)
        cases.append((protocol, preproc))
    for protocol, preproc in cases:
        a = interpreter_bd(protocol, preproc)
        b = bd(protocol, preproc)
        assert a.domain == b.domain
        # same support in the same order: first run of each memory first
        assert list(a.weights.items()) == list(b.weights.items())


def test_bd_routes_agree_under_adversary():
    protocol, _, _ = load_package("gmw-and")
    part = Partition.of(protocol.federation, [2])
    lie = AdversaryStrategy(replacements=((6, Const(0)),), label="zero reveal")
    a = interpreter_bd(protocol, None, lie, part)
    b = bd_adv(protocol, lie, part)
    assert list(a.weights.items()) == list(b.weights.items())


def test_bd_over_f3_runs_the_interpreter():
    p = parse_protocol("m[z]@2 := s[x] + r[k] @ 1;\n"
                       "m[k]@2 := r[k] @ 1;\n"
                       "out@2 := m[z] - m[k] @ 2;\n", modulus=3)
    pmf = bd(p)
    assert pmf.modulus == 3
    assert pmf.domain == (S_X, R_K, M_Z, M_K, OUT2)
    assert pmf.weights == {(x, k, (x + k) % 3, k, x): Fraction(1, 9)
                           for x in range(3) for k in range(3)}
    assert pmf == interpreter_bd(p)
    # a corrupt sender fixing the ciphertext: the output is 2 - k, uniform
    part = Partition.of(p.federation, [1])
    lie = AdversaryStrategy(replacements=((0, Const(2)),))
    adv = bd_adv(p, lie, part)
    assert adv.marginal((OUT2,)).weights == {(y,): Fraction(1, 3) for y in range(3)}
    assert adv.prob({S_X: 0, OUT2: 2}) == Fraction(1, 9)


def test_marginal_prob_cond_prob():
    pmf = bd(parse_protocol(OTP_OVT))
    assert pmf.prob({M_Z: 0}) == Fraction(1, 2)
    assert pmf.prob({S_X: 1, OUT2: 1}) == Fraction(1, 2)
    assert pmf.cond_prob({S_X: 1}, {M_Z: 1}) == Fraction(1, 2)
    assert pmf.cond_prob({S_X: 1}, {M_Z: 1, M_K: 0}) == 1
    assert pmf.cond_prob({S_X: 1}, {S_X: 0}) == 0
    m = pmf.marginal((S_X, M_Z))
    assert m.domain == (S_X, M_Z)
    assert all(w == Fraction(1, 4) for _, w in m.support())
    with pytest.raises(UsageError):
        pmf.prob({parse_var("s[nope]@1"): 0})


def test_conditional_table():
    pmf = bd(parse_protocol(OTP_OVT))
    table = pmf.conditional((S_X,), (OUT2,))
    assert table.rows == {(0,): {(0,): Fraction(1)}, (1,): {(1,): Fraction(1)}}
    assert table.prob((1,), (1,)) == 1
    assert table.prob((0,), (1,)) == 0
    assert table.prob((0,), (BOT,)) == 0
    row = table.row_pmf((1,))
    assert row.domain == (OUT2,)
    assert row.weights == {(1,): Fraction(1)}


def test_independence_and_witness():
    pmf = bd(parse_protocol(OTP_OVT))
    assert pmf.independent((S_X,), (M_Z,))
    w = pmf.independent_witness((S_X,), (M_Z, M_K))
    assert w is not None
    k1, k2, joint, product = w
    assert pmf.prob(dict(zip((S_X,), k1)) | dict(zip((M_Z, M_K), k2))) == joint
    assert pmf.prob({S_X: k1[0]}) * pmf.prob(dict(zip((M_Z, M_K), k2))) == product


def test_cond_det_uni_sep():
    pmf = bd(parse_protocol(OTP_OVT))
    assert pmf.cond_det((S_X,), (OUT2,))
    assert not pmf.cond_det((M_Z,), (S_X,))
    assert pmf.cond_uni((S_X,), (M_Z,))
    assert not pmf.cond_uni((S_X,), (OUT2,))
    # given the output, the pad reveals nothing about the ciphertext owner's secret
    assert pmf.cond_sep((OUT2,), (M_K,), (S_X,))
    # ciphertext and pad together determine the secret
    assert not pmf.cond_sep((), (S_X,), (M_Z, M_K))


def test_cond_uni_rejects_bot_rows():
    a, b = Var("m", "a", 1), Var("m", "b", 1)
    pmf = Pmf((a, b), {(0, 0): Fraction(1, 2), (0, 1): Fraction(1, 4),
                       (1, BOT): Fraction(1, 4)})
    assert pmf.cond_uni_witness((a,), (b,)) is not None


def test_with_global_views():
    p = parse_protocol("m[w]@2 := s[x] xor r[a] @ 1;\nm[w]@1 := r[a] @ 1;\n"
                       "out@1 := 0 @ 1;\n")
    pmf = bd(p).with_global_views(["w"])
    g = Var("gv", "w")
    assert g in pmf.domain
    for key, _ in pmf.support():
        m = pmf.memory(key)
        assert m[g] == m[S_X]
    with pytest.raises(UsageError):
        pmf.with_global_views(["x"])


def test_with_global_views_bot_absorbs():
    a, b = Var("m", "w", 1), Var("m", "w", 2)
    pmf = Pmf((a, b), {(1, BOT): Fraction(1, 2), (1, 1): Fraction(1, 2)})
    out = pmf.with_global_views(["w"])
    g = Var("gv", "w")
    assert out.prob({g: BOT}) == Fraction(1, 2)
    assert out.prob({g: 0}) == Fraction(1, 2)


def test_mixture():
    a = Var("m", "a", 1)
    p0 = Pmf((a,), {(0,): Fraction(1)})
    p1 = Pmf((a,), {(1,): Fraction(1)})
    mix = p0.mixed_with([p1])
    assert mix.weights == {(0,): Fraction(1, 2), (1,): Fraction(1, 2)}
    assert mix.mass() == 1
    with pytest.raises(UsageError):
        p0.mixed_with([Pmf((Var("m", "b", 1),), {(0,): Fraction(1)})])


def test_point_and_format():
    m = {S_X: 1, M_Z: 0}
    pmf = Pmf.point(m)
    assert pmf.prob(m) == 1
    assert format_pmf(pmf) == "m[z]@2=0 s[x]@1=1 weight=1/1\n"


def per_line_format_pmf(pmf: Pmf) -> str:
    """The reference rendering: each line rebuilds its memory and sorts it
    by name, as format_memory does."""
    lines = []
    for key, w in pmf.support():
        m = pmf.memory(key)
        pairs = " ".join(f"{v}={m[v]}" for v in sorted(m, key=str))
        lines.append(f"{pairs} weight={w.numerator}/{w.denominator}".strip())
    return "\n".join(sorted(lines)) + "\n"


def test_format_pmf_matches_per_line_rendering():
    # an adversary that trips an honest assertion: BOT-padded aborted runs
    protocol, _, preproc = load_package("bdoz-open")
    part = Partition.of(protocol.federation, [2])
    tripped = next(pmf for pmf in (bd_adv(protocol, s, part, preproc) for s in
                                   enumerate_adversaries(protocol, part, preproc=preproc))
                   if any(BOT in key for key in pmf.weights))
    f3 = bd(parse_protocol("m[z]@2 := s[x] + r[k] @ 1;\n"
                           "m[k]@2 := r[k] @ 1;\n"
                           "out@2 := m[z] - m[k] @ 2;\n", modulus=3))
    views = bd(parse_protocol("m[w]@2 := s[x] xor r[a] @ 1;\nm[w]@1 := r[a] @ 1;\n"
                              "out@1 := 0 @ 1;\n")).with_global_views(["w"])
    # domain order is not name order, and two variables share the name out@1
    out_b, out_a = Var("out", "b", 1), Var("out", "a", 1)
    unsorted = Pmf((M_K, out_b, S_X, out_a, M_Z),
                   {(0, 1, 1, 0, 1): Fraction(1, 3), (1, 0, BOT, 1, 0): Fraction(2, 3)})
    rng = random.Random(5)
    cases = [tripped, f3, views, unsorted, tripped.marginal(())]
    for pmf in cases + [random_pmf(rng) for _ in range(20)]:
        assert format_pmf(pmf) == per_line_format_pmf(pmf)
    assert "=bot " in format_pmf(tripped)
    assert "=2 " in format_pmf(f3)
    assert "<m[w]>=" in format_pmf(views)
    assert format_pmf(unsorted).splitlines()[0] == \
        "m[k]@2=0 m[z]@2=1 out@1=1 out@1=0 s[x]@1=1 weight=1/3"
    assert format_pmf(tripped.marginal(())) == "weight=1/1\n"


def test_functionality_from_callable_and_round_trip():
    xor2 = FUNCTIONALITIES["xor2"]
    assert xor2.apply({Var("s", "s1", 1): 1, Var("s", "s2", 2): 1}) == {
        Var("out", "", 1): 0, Var("out", "", 2): 0}
    text = xor2.format()
    again = Functionality.parse(text)
    assert again == xor2
    for name, fn in FUNCTIONALITIES.items():
        assert Functionality.parse(fn.format()) == fn
        assert len(fn.table) == 2 ** len(fn.secrets)


def test_functionality_parse_errors():
    with pytest.raises(UsageError):
        Functionality.parse("s[x]@1=0 -> out@1=0\n")      # not total
    with pytest.raises(UsageError):
        Functionality.parse("s[x]@1=0 -> out@1=0\ns[x]@1=0 -> out@1=1\n")
    with pytest.raises(UsageError):
        Functionality.parse("s[x]@1=0 -> out@1=0\nout@1=1 <- s[x]@1=1\n")
    with pytest.raises(UsageError):
        Functionality.from_callable([S_X], [OUT2], lambda m: {S_X: 0})


def test_kernel():
    and2 = FUNCTIONALITIES["and2"]
    o1, o2 = Var("out", "", 1), Var("out", "", 2)
    ones = kernel(and2, {o1: 1})
    assert ones == ({Var("s", "s1", 1): 1, Var("s", "s2", 2): 1},)
    zeros = kernel(and2, {o1: 0, o2: 0})
    assert len(zeros) == 3
    assert kernel(and2, {}) and len(kernel(and2, {})) == 4
    with pytest.raises(UsageError):
        kernel(and2, {S_X: 0})


# --- Randomized law checking -------------------------------------------------

def random_pmf(rng: random.Random) -> Pmf:
    """Random joint over 1..4 binary variables with skewed weights and
    occasional BOT entries."""
    n = rng.randint(1, 4)
    domain = tuple(Var("m", f"v{i}", 1) for i in range(n))
    counts: dict = {}
    total = 0
    for key in itertools.product((0, 1), repeat=n):
        c = rng.choice((0, 0, 1, 1, 2, 5))
        if not c:
            continue
        if rng.random() < 0.2:
            key = tuple(BOT if rng.random() < 0.5 else b for b in key)
        counts[key] = counts.get(key, 0) + c
        total += c
    if not counts:
        counts[(0,) * n] = 1
        total = 1
    return Pmf.from_counts(domain, counts, total)


def check_pmf_laws(pmf: Pmf, rng: random.Random) -> None:
    assert pmf.mass() == 1
    vars_ = list(pmf.domain)
    rng.shuffle(vars_)
    cut = rng.randint(1, len(vars_))
    x1, x2 = tuple(vars_[:cut]), tuple(vars_[cut:])

    # marginalizing in stages equals marginalizing in one step
    staged = pmf.marginal(tuple(vars_)).marginal(x1)
    assert staged.weights == pmf.marginal(x1).weights
    assert staged.mass() == 1

    # chain rule on a support memory
    key = rng.choice(list(pmf.weights))
    m = pmf.memory(key)
    m1 = {v: m[v] for v in x1}
    m2 = {v: m[v] for v in x2}
    assert pmf.prob({**m1, **m2}) == pmf.cond_prob(m1, m2) * pmf.prob(m2)

    # conditional rows against brute force, and their masses
    table = pmf.conditional(x1, x2)
    positive = {k for k, _ in pmf.marginal(x1).support()}
    assert set(table.rows) == positive
    for k1, row in table.rows.items():
        m1 = dict(zip(x1, k1))
        assert sum(row.values()) == 1
        for k2, w in row.items():
            assert w == pmf.cond_prob(dict(zip(x2, k2)), m1)

    # witness forms agree with the predicates they explain
    assert pmf.independent(x1, x2) == (pmf.independent_witness(x1, x2) is None)
    brute_indep = all(
        pmf.prob(dict(zip(x1, a)) | dict(zip(x2, b)))
        == pmf.prob(dict(zip(x1, a))) * pmf.prob(dict(zip(x2, b)))
        for a in positive
        for b, _ in pmf.marginal(x2).support())
    if x2:
        assert pmf.independent(x1, x2) == brute_indep

    # cond_det: some x2 value is pinned in every positive row
    want_det = all(any(w == 1 for w in row.values()) for row in table.rows.values())
    assert pmf.cond_det(x1, x2) == want_det

    # cond_uni: every positive row is exactly uniform over defined values
    full = 2 ** len(x2)
    want_uni = all(
        len(row) == full
        and all(w == Fraction(1, full) for w in row.values())
        and not any(BOT in k2 for k2 in row)
        for row in table.rows.values())
    assert pmf.cond_uni(x1, x2) == want_uni

    # cond_sep against per-row independence, splitting x2
    if len(x2) >= 2:
        mid = len(x2) // 2
        a, b = x2[:mid], x2[mid:]
        want_sep = True
        for k1 in positive:
            m1 = dict(zip(x1, k1))
            for ka in itertools.product((0, 1, BOT), repeat=len(a)):
                for kb in itertools.product((0, 1, BOT), repeat=len(b)):
                    lhs = pmf.cond_prob(dict(zip(a, ka)) | dict(zip(b, kb)), m1)
                    rhs = (pmf.cond_prob(dict(zip(a, ka)), m1)
                           * pmf.cond_prob(dict(zip(b, kb)), m1))
                    if lhs != rhs:
                        want_sep = False
        assert pmf.cond_sep(x1, a, b) == want_sep


def test_random_pmf_laws():
    rng = random.Random(20240901)
    for _ in range(120):
        check_pmf_laws(random_pmf(rng), rng)
