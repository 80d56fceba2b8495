"""Exact pmfs: basic distributions, conditioning, functionalities.

random_pmf and check_pmf_laws are shared with the acceptance suite: every
derived quantity (marginals, conditionals, witnesses) is re-verified against
brute-force recomputation from prob/cond_prob.
"""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from overture import cli, dist, engine
from overture.dist import (
    ExplicitPreprocessing, Functionality, Pmf, UniformPreprocessing, bd,
    bd_adv, bd_domain, default_preprocessing, format_pmf, kernel,
)
from overture.errors import BudgetError, UsageError
from overture.interp import AdversaryStrategy
from overture.lang import BOT, Const, Partition, Var, parse_var
from overture.ovt import parse_protocol
from overture.stdlib import (
    FUNCTIONALITIES, PACKAGES, PREPROCS, load_package, read_source,
)
from overture.verifier import adversarial_inputs, enumerate_adversaries
from test_engine import ABORTING, StubDeal, sweep

OTP_OVT = read_source("otp.ovt")
SHAMIR_ADD3_OVT = read_source("shamir_add3.ovt")
LEAKY_OVT = read_source("leaky.ovt")


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
    assert int(pmf.counts.sum()) == pmf.total


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
    return Pmf.from_dict(domain, counts, sum(counts.values()), protocol.modulus)


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


def test_f2_bd_builds_no_key_tuple(monkeypatch):
    """Over F_2 bd returns the fold's count table as it is: no key tuple
    is built until a key view is read."""
    def never(*args):
        raise AssertionError("bd built key tuples")

    protocol, _, _ = load_package("bdoz-beaver")
    deal = PREPROCS["bdoz-beaver-trim"](protocol)
    part = Partition.of(protocol.federation, [2])
    lie = AdversaryStrategy(replacements=((3, Const(0)),), label="zero share")
    with monkeypatch.context() as m:
        m.setattr(Pmf, "keys", never)
        tables = [bd(protocol, deal), bd_adv(protocol, lie, part, deal)]
    for p in tables:
        assert p.codes.shape == (len(p.weights), len(p.domain))
        assert int(p.counts.sum()) == p.total
    assert any(BOT in key for key in tables[1].weights)


class OneMemoryDeal(StubDeal):
    """A deal that claims n memories and yields one empty memory."""

    def memories(self):
        yield {}


def test_fp_run_budget_checked_before_running(monkeypatch):
    def never_run(*args):
        raise AssertionError("interpreter ran")

    monkeypatch.setattr(dist, "run", never_run)
    # 3^17 runs pass the budget, where 3 * 2^16 would not
    flips = " + ".join(f"r[k{i}]" for i in range(16))
    p = parse_protocol(f"out@1 := s[x] + {flips} @ 1;\n", modulus=3)
    with pytest.raises(BudgetError, match="run budget"):
        bd(p)
    # exactly at the budget the sweep goes on to run the protocol
    const = parse_protocol("out@1 := 0 @ 1;\n", modulus=3)
    with pytest.raises(AssertionError, match="interpreter ran"):
        bd(const, OneMemoryDeal(engine.MAX_RUNS))
    with pytest.raises(BudgetError):
        bd(const, OneMemoryDeal(engine.MAX_RUNS + 1))


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
    # two of the four runs have each secret, and the output equals it
    assert table.rows == {(0,): {(0,): 2}, (1,): {(1,): 2}}
    assert table.masses == {(0,): 2, (1,): 2}
    assert table.witness((1,)) == ((1,), {(1,): Fraction(1)})
    assert table.prob((1,), (1,)) == 1
    assert table.prob((0,), (1,)) == 0
    assert table.prob((0,), (BOT,)) == 0


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
    pmf = Pmf.from_dict((a, b), {(0, 0): 2, (0, 1): 1, (1, BOT): 1}, 4)
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
    pmf = Pmf.from_dict((a, b), {(1, BOT): 1, (1, 1): 1}, 2)
    out = pmf.with_global_views(["w"])
    g = Var("gv", "w")
    assert out.prob({g: BOT}) == Fraction(1, 2)
    assert out.prob({g: 0}) == Fraction(1, 2)
    # 2 is BOT's code over F_2, but no value
    assert out.prob({g: 2}) == 0 and out.cond_prob({a: 1}, {g: 2}) == 0


def test_mixture():
    a = Var("m", "a", 1)
    p0 = Pmf.from_dict((a,), {(0,): 1}, 1)
    p1 = Pmf.from_dict((a,), {(1,): 1}, 1)
    mix = p0.mixed_with([p1])
    assert mix.weights == {(0,): Fraction(1, 2), (1,): Fraction(1, 2)}
    assert int(mix.counts.sum()) == mix.total
    # unequal totals: 1/3 (1 + 1/2 + 1/4) and 1/3 (1/2 + 3/4)
    thirds = p0.mixed_with([Pmf.from_dict((a,), {(0,): 1, (1,): 1}, 2),
                            Pmf.from_dict((a,), {(0,): 1, (1,): 3}, 4)])
    assert thirds.weights == {(0,): Fraction(7, 12), (1,): Fraction(5, 12)}
    assert int(thirds.counts.sum()) == thirds.total
    with pytest.raises(UsageError):
        p0.mixed_with([Pmf.from_dict((Var("m", "b", 1),), {(0,): 1}, 1)])
    # coprime totals whose lcm passes int64: the counts become Python ints
    big = [Pmf.from_dict((a,), {(0,): 1, (1,): t - 1}, t) for t in (2 ** 61 - 1, 2 ** 31 - 1)]
    mix = big[0].mixed_with(big[1:])
    assert mix.weights == frac_mixed_with([p.weights for p in big])
    assert int(mix.counts.sum()) == mix.total
    assert mix == mix.mixed_with([mix]) and mix != big[0]


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


def test_format_pmf_matches_per_line_rendering(capsys, monkeypatch, tmp_path):
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
    unsorted = Pmf.from_dict((M_K, out_b, S_X, out_a, M_Z),
                             {(0, 1, 1, 0, 1): 1, (1, 0, BOT, 1, 0): 2}, 3)
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
    check_cli_pmf_renders_like_per_line(capsys, monkeypatch, tmp_path)


def template_width(text: str) -> int:
    """Bytes of render_pmf's line template for this text: every line has
    the same cells, each at its widest, one separator or newline after each."""
    cells = [line.split(" ") for line in text.splitlines()]
    return sum(max(map(len, col)) + 1 for col in zip(*cells))


def check_cli_pmf_renders_like_per_line(capsys, monkeypatch, tmp_path):
    """`overture pmf` prints per_line_format_pmf of the pmf the old command
    built through bd, marginal and conditional."""
    def pmf_cli(*argv):
        assert cli.main(["pmf", *argv]) == 0
        return capsys.readouterr().out

    aborting = tmp_path / "aborting.ovt"
    aborting.write_text(ABORTING)
    cases = []
    for name in PACKAGES:
        protocol, _, preproc = load_package(name)
        if name == "bdoz-beaver":
            preproc, argv = PREPROCS["bdoz-beaver-trim"](protocol), (name, "--preproc",
                                                                     "bdoz-beaver-trim")
        else:
            argv = (name,)
        cases.append((argv, bd(protocol, preproc)))
    gmw, _, _ = load_package("gmw-and")
    joint = bd(gmw)
    out1, out2, s1 = (parse_var(v) for v in ("out@1", "out@2", "s[s1]@1"))
    # several weights, and the total is the mass of the matched runs
    cases.append((("gmw-and", "--marginal", "out@1,s[s1]@1"), joint.marginal((out1, s1))))

    def conditioned(x1, k1, x2):
        table = joint.conditional(x1, x2)
        return Pmf.from_dict(x2, table.rows[k1], table.masses[k1])

    cases.append((("gmw-and", "--given", "s[s1]@1=1"),
                   conditioned((s1,), (1,), tuple(v for v in joint.domain if v != s1))))
    cases.append((("gmw-and", "--given", "out@2=0", "--marginal", "out@1,s[s1]@1"),
                  conditioned((out2,), (0,), (out1, s1))))
    cases.append(((str(aborting),), bd(parse_protocol(ABORTING))))
    for argv, pmf in cases:
        want = per_line_format_pmf(pmf)
        assert pmf_cli(*argv) == want, argv
        width = template_width(want)
        for lines in (1, 3):
            # chunks of 1 and 3 lines: every write but the last holds exactly that many
            monkeypatch.setattr(dist, "CHUNK_BYTES", lines * width)
            writes = []
            render = dist.render_pmf
            monkeypatch.setattr(dist, "render_pmf", lambda write, *a: render(
                lambda text: writes.append(text) or write(text), *a))
            assert pmf_cli(*argv) == want, (argv, lines)
            assert [w.count("\n") for w in writes[:-1]] == [lines] * (len(writes) - 1)
            assert 1 <= writes[-1].count("\n") <= lines
            monkeypatch.undo()
    assert "=bot " in pmf_cli(str(aborting))
    assert len(set(pmf_cli("gmw-and", "--marginal", "out@1,s[s1]@1").split()[1::3])) > 1


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_render_matches_per_line_on_random_f2_tables(data):
    """Random F_2 code matrices with BOT and random run counts, over a domain
    where several variables print under one name: the fold-table path
    (write_pmf) and format_pmf both print per_line_format_pmf's text."""
    pool = [Var("out", "a", 1), Var("out", "b", 1), Var("out", "", 2), Var("m", "x", 1),
            Var("m", "x", 2), Var("s", "y", 1), Var("r", "k", 2), Var("m", "w", 1)]
    domain = tuple(data.draw(st.permutations(pool))[:data.draw(st.integers(0, len(pool)))])
    n = len(domain)
    rows = data.draw(st.lists(st.tuples(*[st.integers(0, 2)] * n), min_size=1, max_size=12,
                              unique=True))
    counts = data.draw(st.lists(st.integers(1, 5), min_size=len(rows), max_size=len(rows)))
    runs = [row for row, c in zip(rows, counts) for _ in range(c)]
    data.draw(st.randoms()).shuffle(runs)
    codes = np.array(runs, dtype=np.uint8).reshape(len(runs), n)
    bot = codes == engine.BOT_CODE
    table = engine.RunTable(domain, {v: codes[:, j] & 1 for j, v in enumerate(domain)},
                            {v: bot[:, j] if bot[:, j].any() else None
                             for j, v in enumerate(domain)},
                            ~bot.any(axis=1), len(runs))
    pmf = Pmf(domain, np.array(rows, dtype=np.uint8).reshape(len(rows), n), np.array(counts),
              len(runs))
    want = per_line_format_pmf(pmf)
    assert format_pmf(pmf) == want
    out = []
    assert dist.write_pmf(out.append, domain, lambda vars_: engine.distinct_rows(
        table, vars_, first=False)) == len(runs)
    assert "".join(out) == want
    # conditioning: the runs of the first row, counted out of their number
    first = np.all(codes == np.array(rows[0], dtype=np.uint8), axis=1)
    out = []
    assert dist.write_pmf(out.append, domain, lambda vars_: engine.distinct_rows(
        table, vars_, first, first=False)) == counts[0]
    assert "".join(out) == per_line_format_pmf(Pmf(domain, pmf.codes[:1], np.array([1]), 1))


def test_functionality_from_callable_and_round_trip():
    xor2 = FUNCTIONALITIES["xor2"]
    assert xor2.apply({Var("s", "s1", 1): 1, Var("s", "s2", 2): 1}) == {
        Var("out", "", 1): 0, Var("out", "", 2): 0}
    text = xor2.format()
    again = Functionality.parse(text)
    assert again == xor2
    for name, fn in FUNCTIONALITIES.items():
        assert fn.format() == read_source(f"{name}.fn"), name
        assert Functionality.parse(fn.format()) == fn
        assert len(fn.table) == 2 ** len(fn.secrets)


def test_functionality_parse_errors():
    with pytest.raises(UsageError):
        Functionality.parse("s[x]@1=0 -> out@1=0\n")      # not total
    with pytest.raises(UsageError):
        Functionality.parse("s[x]@1=0 -> out@1=0\ns[x]@1=0 -> out@1=1\n")
    with pytest.raises(UsageError):
        Functionality.parse("s[x]@1=0 -> out@1=0\nout@1=1 <- s[x]@1=1\n")


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
    return Pmf.from_dict(domain, counts, total)


def check_pmf_laws(pmf: Pmf, rng: random.Random) -> None:
    assert int(pmf.counts.sum()) == pmf.total
    vars_ = list(pmf.domain)
    rng.shuffle(vars_)
    cut = rng.randint(1, len(vars_))
    x1, x2 = tuple(vars_[:cut]), tuple(vars_[cut:])

    # marginalizing in stages equals marginalizing in one step
    staged = pmf.marginal(tuple(vars_)).marginal(x1)
    assert staged.weights == pmf.marginal(x1).weights
    assert int(staged.counts.sum()) == staged.total

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
    assert {k1: Fraction(c, pmf.total) for k1, c in table.masses.items()} \
        == pmf.marginal(x1).weights
    for k1, row in table.rows.items():
        m1 = dict(zip(x1, k1))
        assert sum(row.values()) == table.masses[k1]
        for k2 in row:
            assert table.prob(k2, k1) == pmf.cond_prob(dict(zip(x2, k2)), m1)

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
    want_det = all(any(table.prob(k2, k1) == 1 for k2 in row)
                   for k1, row in table.rows.items())
    assert pmf.cond_det(x1, x2) == want_det

    # cond_uni: every positive row is exactly uniform over defined values
    full = 2 ** len(x2)
    want_uni = all(
        len(row) == full
        and all(table.prob(k2, k1) == Fraction(1, full) for k2 in row)
        and not any(BOT in k2 for k2 in row)
        for k1, row in table.rows.items())
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


# --- Count tables against the Fraction oracle ---------------------------------
# The Fraction-weight forms of the Pmf operations, as functions over a
# domain and its weights: each adds and compares Fractions exactly as the
# operations did before Pmf held integer counts.

def frac_marginal(domain, weights, vars_) -> dict:
    pos = [domain.index(v) for v in vars_]
    out: dict = {}
    for key, w in weights.items():
        sub = tuple(key[i] for i in pos)
        out[sub] = out.get(sub, Fraction(0)) + w
    return out


def frac_conditional(domain, weights, x1, x2) -> dict:
    p1 = [domain.index(v) for v in x1]
    p2 = [domain.index(v) for v in x2]
    rows: dict = {}
    masses: dict = {}
    for key, w in weights.items():
        k1 = tuple(key[i] for i in p1)
        k2 = tuple(key[i] for i in p2)
        rows.setdefault(k1, {})
        rows[k1][k2] = rows[k1].get(k2, Fraction(0)) + w
        masses[k1] = masses.get(k1, Fraction(0)) + w
    for k1, row in rows.items():
        for k2 in row:
            row[k2] /= masses[k1]
    return rows


def frac_independent_witness(domain, weights, x1, x2):
    joint = frac_marginal(domain, weights, x1 + x2)
    m1 = frac_marginal(domain, weights, x1)
    m2 = frac_marginal(domain, weights, x2)
    n1 = len(x1)
    pairs = set()
    for key in joint:
        pairs.add((key[:n1], key[n1:]))
    for k1 in m1:
        for k2 in m2:
            pairs.add((k1, k2))
    for k1, k2 in sorted(pairs, key=str):
        lhs = joint.get(k1 + k2, Fraction(0))
        rhs = m1.get(k1, Fraction(0)) * m2.get(k2, Fraction(0))
        if lhs != rhs:
            return (k1, k2, lhs, rhs)
    return None


def frac_cond_det_witness(domain, weights, x1, x2):
    for k1, row in frac_conditional(domain, weights, x1, x2).items():
        if not any(w == 1 for w in row.values()):
            return (k1, dict(row))
    return None


def frac_cond_uni_witness(domain, weights, x1, x2, modulus):
    full = modulus ** len(x2)
    for k1, row in frac_conditional(domain, weights, x1, x2).items():
        if len(row) != full or any(w != Fraction(1, full) for w in row.values()):
            return (k1, dict(row))
        if any(BOT in k2 for k2 in row):
            return (k1, dict(row))
    return None


def frac_cond_sep_witness(domain, weights, x1, x2, x3):
    joint = frac_conditional(domain, weights, x1, x2 + x3)
    t2 = frac_conditional(domain, weights, x1, x2)
    t3 = frac_conditional(domain, weights, x1, x3)
    n2 = len(x2)
    for k1, row in joint.items():
        row2 = t2.get(k1, {})
        row3 = t3.get(k1, {})
        pairs = set()
        for key in row:
            pairs.add((key[:n2], key[n2:]))
        for a in row2:
            for b in row3:
                pairs.add((a, b))
        for a, b in sorted(pairs, key=str):
            lhs = row.get(a + b, Fraction(0))
            rhs = row2.get(a, Fraction(0)) * row3.get(b, Fraction(0))
            if lhs != rhs:
                return (k1, a, b, lhs, rhs)
    return None


def frac_with_global_views(domain, weights, names, modulus):
    shares = {w: [i for i, v in enumerate(domain) if v.kind == "m" and v.name == w]
              for w in names}
    out: dict = {}
    for key, wt in weights.items():
        extra = []
        for pos in shares.values():
            vals = [key[i] for i in pos]
            if any(v is BOT for v in vals):
                extra.append(BOT)
            else:
                extra.append(sum(vals) % modulus)
        k = key + tuple(extra)
        out[k] = out.get(k, Fraction(0)) + wt
    return domain + tuple(Var("gv", w) for w in shares), out


def frac_mixed_with(all_weights) -> dict:
    out: dict = {}
    for weights in all_weights:
        for key, w in weights.items():
            out[key] = out.get(key, Fraction(0)) + w / len(all_weights)
    return out


def check_against_oracle(pmf: Pmf, rng: random.Random) -> None:
    domain, weights = pmf.domain, pmf.weights
    vars_ = list(domain)
    rng.shuffle(vars_)
    cut1 = rng.randint(0, min(3, len(vars_)))
    cut2 = rng.randint(cut1, min(cut1 + 3, len(vars_)))
    cut3 = rng.randint(cut2, min(cut2 + 3, len(vars_)))
    x1, x2, x3 = (tuple(vars_[:cut1]), tuple(vars_[cut1:cut2]),
                  tuple(vars_[cut2:cut3]))
    for vars_ in (x1, x2, x1 + x2 + x3, tuple(domain)):
        # same keys, in the same order, with the same Fractions
        assert list(pmf.marginal(vars_).weights.items()) \
            == list(frac_marginal(domain, weights, vars_).items())
    table = pmf.conditional(x1, x2)
    rows = {k1: table.witness(k1)[1] for k1 in table.rows}
    want = frac_conditional(domain, weights, x1, x2)
    assert [(k1, list(r.items())) for k1, r in rows.items()] \
        == [(k1, list(r.items())) for k1, r in want.items()]
    assert pmf.independent_witness(x1, x2) \
        == frac_independent_witness(domain, weights, x1, x2)
    assert pmf.cond_det_witness(x1, x2) == frac_cond_det_witness(domain, weights, x1, x2)
    assert pmf.cond_uni_witness(x1, x2) \
        == frac_cond_uni_witness(domain, weights, x1, x2, pmf.modulus)
    assert pmf.cond_sep_witness(x1, x2, x3) \
        == frac_cond_sep_witness(domain, weights, x1, x2, x3)
    named = {}
    for v in domain:
        if v.kind == "m":
            named.setdefault(v.name, []).append(v)
    names = sorted(w for w, vs in named.items() if len(vs) >= 2)[:3]
    if names:
        views = pmf.with_global_views(names)
        want_domain, want_weights = frac_with_global_views(domain, weights, names,
                                                           pmf.modulus)
        assert views.domain == want_domain
        assert list(views.weights.items()) == list(want_weights.items())


def reference_adversarial_inputs(pmf, views, targets) -> tuple:
    """verifier.adversarial_inputs with the Fraction independence oracle."""
    for k in range(1, len(views) + 1):
        found = {v for subset in itertools.combinations(views, k)
                 if frac_independent_witness(pmf.domain, pmf.weights, subset, targets)
                 for v in subset}
        if found:
            return tuple(sorted(found, key=str))
    return ()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_count_independence_matches_pmf(data):
    """Random small count tables, codes with BOT and rows that leave pairs of
    positive marginals out of the joint support, some with totals whose
    squares pass int64: built from its code matrix and from a dict of key
    tuples (Pmf.from_dict), the table gives the Fraction oracle's verdict
    and witness, and adversarial_inputs gives the reference answer on
    both."""
    domain = tuple(Var("m", f"v{j}", 1 + j % 2) for j in range(data.draw(st.integers(2, 5))))
    rows = data.draw(st.lists(st.tuples(*[st.integers(0, 2)] * len(domain)),
                              min_size=1, max_size=10, unique=True))
    scale = data.draw(st.sampled_from((1, 1, 3, 2 ** 40)))
    counts = [c * scale for c in data.draw(
        st.lists(st.integers(1, 4), min_size=len(rows), max_size=len(rows)))]
    order = data.draw(st.permutations(domain))
    k = data.draw(st.integers(1, len(domain) - 1))
    x1, x2 = tuple(order[:k]), tuple(order[k:k + data.draw(st.integers(1, len(domain) - k))])
    pmf = Pmf.from_dict(domain, {tuple(BOT if x == engine.BOT_CODE else x for x in row): c
                                 for row, c in zip(rows, counts)}, sum(counts))
    table = Pmf(domain, np.array(rows, dtype=np.uint8), np.array(counts), sum(counts))
    want = frac_independent_witness(domain, pmf.weights, x1, x2)
    assert table.independent_witness(x1, x2) == pmf.independent_witness(x1, x2) == want
    assert table.independent(x1, x2) == pmf.independent(x1, x2) == (want is None)
    reference = reference_adversarial_inputs(pmf, x1, x2)
    assert adversarial_inputs(pmf, x1, x2) == adversarial_inputs(table, x1, x2) == reference


def test_count_pmf_matches_fraction_oracle():
    rng = random.Random(20261018)
    cases = []
    for _ in range(150):
        pmf = random_pmf(rng)
        # the same counts over two shares of one wire per variable pair
        shares = tuple(Var("m", f"w{i // 2}", 1 + i % 2) for i in range(len(pmf.domain)))
        cases += [pmf, Pmf(shares, pmf.codes, pmf.counts, pmf.total)]
    by_domain: dict = {}
    for pmf in cases[::2]:
        by_domain.setdefault(pmf.domain, []).append(pmf)
    unequal = 0
    for group in by_domain.values():
        for k in range(2, min(5, len(group)) + 1):
            mix = group[0].mixed_with(group[1:k])
            assert list(mix.weights.items()) \
                == list(frac_mixed_with([p.weights for p in group[:k]]).items())
            unequal += len({p.total for p in group[:k]}) > 1
            cases.append(mix)
    assert unequal >= 10
    for name in PACKAGES:
        protocol, _, preproc = load_package(name)
        if name == "bdoz-beaver":
            preproc = PREPROCS["bdoz-beaver-trim"](protocol)
        cases += [bd(protocol, preproc)] * 4  # four random splits of each
    cases.append(bd(parse_protocol("m[z]@2 := s[x] + r[k] @ 1;\n"
                                   "m[k]@2 := r[k] @ 1;\n"
                                   "out@2 := m[z] - m[k] @ 2;\n", modulus=3)))
    for pmf in cases:
        check_against_oracle(pmf, rng)
    for pmf in {id(p): p for p in cases}.values():
        # equality is of distributions: the same weights over twice the
        # total, rows in reverse order; one row fewer is another distribution
        doubled = {k: int(w * 2 * pmf.total) for k, w in reversed(pmf.weights.items())}
        assert pmf == Pmf.from_dict(pmf.domain, doubled, 2 * pmf.total, pmf.modulus)
        assert pmf != Pmf.from_dict(pmf.domain, dict(list(doubled.items())[1:]),
                                    2 * pmf.total, pmf.modulus)


def frac_cond_shift_witness(domain, weights, x1, x2, x3):
    """check_nimo's loop over Fraction conditionals: the str-least (k1, k2)
    whose conditional over x3 differs from the one given k1 alone, and in
    it the str-least k3 where they differ."""
    given1 = frac_conditional(domain, weights, x1, x3)
    given12 = frac_conditional(domain, weights, x1 + x2, x3)
    for k12 in sorted(given12, key=str):
        row1, row12 = given1[k12[:len(x1)]], given12[k12]
        diff = [k for k in sorted(set(row1) | set(row12), key=str)
                if row1.get(k, 0) != row12.get(k, 0)]
        if diff:
            return (k12[:len(x1)], k12[len(x1):], diff[0], row1.get(diff[0], Fraction(0)),
                    row12.get(diff[0], Fraction(0)))
    return None


def byte_key_groups(counts, vars_) -> tuple:
    """Pmf._groups' group of each row and first row of each group,
    keyed as a void byte row of the codes behind a zero column."""
    rows = np.zeros((len(counts.codes), 1 + len(vars_)), dtype=counts.codes.dtype)
    rows[:, 1:] = counts._columns(vars_)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, group = np.unique(keys, return_index=True, return_inverse=True)
    return group, first


def test_groups_integer_keys_sort_as_byte_keys():
    """Below modulus 256, _groups keys rows by engine._column_keys, as
    integers up to 64 bits and as pack_keys' bytes past them; its groups,
    their order and their first rows are the byte keys'."""
    rng = np.random.default_rng(7)
    for modulus, ncols, dtype in ((2, 5, np.uint8), (2, 32, np.uint8), (2, 33, np.uint8),
                                  (3, 12, np.int64), (5, 21, np.int64), (5, 22, np.int64),
                                  (251, 8, np.int64), (251, 9, np.int64), (263, 3, np.int64)):
        domain = tuple(Var("m", f"v{j}", 1) for j in range(ncols))
        for nrows in (1, 2, 9, 300):
            codes = rng.integers(0, modulus + 1, (nrows, ncols)).astype(dtype)
            codes[rng.random(nrows) < 0.5] = codes[0]  # repeated rows
            counts = Pmf(domain, codes, rng.integers(1, 4, nrows), 10 ** 6, modulus)
            for vars_ in (domain, domain[::-1], domain[1:3], ()):
                group, mass, first = counts._groups(vars_)
                want_group, want_first = byte_key_groups(counts, vars_)
                assert np.array_equal(group, want_group) and np.array_equal(first, want_first)
                assert mass.tolist() == [int(counts.counts[group == g].sum())
                                         for g in range(len(first))]


def wide_field_pmf(rng: random.Random) -> Pmf:
    """Random joint over F_263 with values past one byte, BOT entries and
    two shares of one wire."""
    domain = (Var("m", "w", 1), Var("m", "w", 2), Var("m", "a", 1), Var("m", "b", 2))
    counts: dict = {}
    for _ in range(rng.randint(1, 12)):
        key = tuple(rng.choice((0, 1, 255, 256, 262, 262, BOT)) for _ in domain)
        counts[key] = counts.get(key, 0) + rng.randint(1, 3)
    return Pmf.from_dict(domain, counts, sum(counts.values()), 263)


def test_cond_shift_matches_fraction_oracle():
    """Pmf.cond_shift_witness, the witness of check_nimo, against the
    nimo loop over Fraction conditionals on random splits of random pmfs
    with BOT, every bundled package, the F_3 one-time pad and F_263 pmfs
    whose codes pass a byte (those also against every other oracle)."""
    rng = random.Random(20261019)
    cases = [random_pmf(rng) for _ in range(100)]
    for name in PACKAGES:
        protocol, _, preproc = load_package(name)
        if name == "bdoz-beaver":
            preproc = PREPROCS["bdoz-beaver-trim"](protocol)
        cases.append(bd(protocol, preproc))
    cases.append(bd(parse_protocol("m[z]@2 := s[x] + r[k] @ 1;\n"
                                   "m[k]@2 := r[k] @ 1;\n"
                                   "out@2 := m[z] - m[k] @ 2;\n", modulus=3)))
    wide = [wide_field_pmf(rng) for _ in range(40)]
    for pmf in cases + wide:
        for _ in range(4):
            vars_ = list(pmf.domain)
            rng.shuffle(vars_)
            cut1 = rng.randint(0, min(3, len(vars_)))
            cut2 = rng.randint(cut1, min(cut1 + 3, len(vars_)))
            cut3 = rng.randint(cut2, min(cut2 + 3, len(vars_)))
            x1, x2, x3 = (tuple(vars_[:cut1]), tuple(vars_[cut1:cut2]),
                          tuple(vars_[cut2:cut3]))
            assert pmf.cond_shift_witness(x1, x2, x3) \
                == frac_cond_shift_witness(pmf.domain, pmf.weights, x1, x2, x3)
    for pmf in wide:
        check_against_oracle(pmf, rng)


def test_conditioned_tests_over_f3():
    """Uniformity counts all modulus ** len(x2) values, and the global view
    sums shares mod 3."""
    pmf = bd(parse_protocol("m[z]@2 := s[x] + r[k] @ 1;\n"
                            "m[k]@2 := r[k] @ 1;\n"
                            "out@2 := m[z] - m[k] @ 2;\n", modulus=3))
    assert pmf.cond_uni((S_X,), (M_Z,)) and pmf.cond_uni((), (M_Z, M_K))
    assert not pmf.cond_uni((S_X,), (M_Z, M_K))
    assert pmf.cond_det((S_X,), (OUT2,)) and not pmf.cond_det((M_Z,), (S_X,))
    assert pmf.cond_sep((OUT2,), (M_K,), (S_X,))
    assert not pmf.cond_sep((), (S_X,), (M_Z, M_K))
    shared = bd(parse_protocol("m[w]@2 := s[x] - r[a] @ 1;\nm[w]@1 := r[a] @ 1;\n"
                               "out@1 := 0 @ 1;\n", modulus=3)).with_global_views(["w"])
    g = Var("gv", "w")
    assert all(shared.memory(key)[g] == shared.memory(key)[S_X] for key in shared.weights)
