"""Logic-program export: atom names, clause generation, least models."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from overture import datalog
from overture.datalog import (
    Clause, Literal, Program, Strata, facts_of, format_program, lhm, mangle,
    parse_program_dl, to_datalog, unmangle,
)
from overture.errors import BudgetError, ParseError, StratificationError, UsageError
from overture.interp import run
from overture.lang import Var, parse_var
from overture.stdlib import load_package

OTP_DL = """\
m_z_c2 :- not r_k_c1, s_x_c1.
m_z_c2 :- r_k_c1, not s_x_c1.
m_k_c2 :- r_k_c1.
out_c2 :- not m_k_c2, m_z_c2.
out_c2 :- m_k_c2, not m_z_c2.
"""


def test_otp_export_golden():
    protocol, _, _ = load_package("otp")
    program = to_datalog(protocol)
    assert format_program(program) == OTP_DL
    assert len(program.clauses) == 5
    assert program.facts() == ()
    assert program.rules() == program.clauses


def test_mangle_unmangle_bijective():
    tricky = ("s[x]@1", "r[k]@3", "m[z]@2", "p[w]", "out@2",
              "m[out]@1", "m[x_c2]@7", "p[x_c2]", "s[out_c1]@1")
    for text in tricky:
        v = parse_var(text)
        assert unmangle(mangle(v)) == v
    assert mangle(parse_var("out@2")) == "out_c2"
    assert mangle(parse_var("m[out]@1")) == "m_out_c1"
    assert mangle(parse_var("m[x_c2]@7")) == "m_x_c2_c7"


def test_unmangle_rejects_malformed_atoms():
    for atom in ("q_x_c1", "out_cX", "m_x", "m_x_cy", "s_", "plain"):
        with pytest.raises(UsageError):
            unmangle(atom)
    with pytest.raises(UsageError):
        mangle(Var("gv", "w"))


def test_run_datalog_golden():
    protocol, _, _ = load_package("otp")
    m0 = {parse_var("s[x]@1"): 1, parse_var("r[k]@1"): 0}
    assert lhm(to_datalog(protocol), facts_of(m0)) == {"s_x_c1", "m_z_c2", "out_c2"}
    m0 = {parse_var("s[x]@1"): 0, parse_var("r[k]@1"): 1}
    assert lhm(to_datalog(protocol), facts_of(m0)) == {"r_k_c1", "m_z_c2", "m_k_c2"}


def test_facts_of_keeps_only_ones():
    m = {parse_var("s[x]@1"): 1, parse_var("r[k]@1"): 0}
    facts = facts_of(m)
    assert facts.clauses == (Clause("s_x_c1"),)


def test_least_model_matches_interpreter():
    for name in ("otp", "leaky", "shamir-add3", "gmw-and", "gmw-and-xor"):
        protocol, _, _ = load_package(name)
        program = to_datalog(protocol)
        inputs = protocol.secrets() + protocol.flips()
        for values in itertools.product((0, 1), repeat=len(inputs)):
            m0 = dict(zip(inputs, values))
            final = run(m0, protocol)
            want = frozenset(mangle(v) for v, x in final.items() if x == 1)
            assert lhm(program, facts_of(m0)) == want


def test_asserts_have_no_clause_form():
    protocol, _, _ = load_package("bdoz-open")
    with pytest.raises(UsageError):
        to_datalog(protocol)


def test_facts_must_be_bodiless():
    facts = Program((Clause("a", (Literal("b"),)),))
    with pytest.raises(UsageError):
        lhm(Program(()), facts)


def test_stratification_errors():
    with pytest.raises(StratificationError):
        lhm(Program((Clause("a", (Literal("a"),)),)))
    # a reads b, but b's group comes later
    forward = Program((Clause("a", (Literal("b"),)),
                       Clause("b", (Literal("c"),))))
    with pytest.raises(StratificationError):
        lhm(forward, Program((Clause("c"),)))
    redefined = Program((Clause("a", (Literal("b", negated=True),)),))
    with pytest.raises(StratificationError):
        lhm(redefined, Program((Clause("a"),)))


def test_program_facts_seed_the_model():
    program = parse_program_dl("a.\nb :- a.\nc :- not a.\n")
    assert lhm(program) == {"a", "b"}
    assert lhm(program, Program((Clause("a"),))) == {"a", "b"}
    # a fact of the program is a fact like one given: no rule may define it
    redefined = parse_program_dl("b :- not c.\nb.\n")
    with pytest.raises(StratificationError, match="^b is both a fact and a rule head$"):
        lhm(redefined)


def test_lhm_negation_reads_absence():
    program = Program((Clause("a", (Literal("b", negated=True),)),))
    assert lhm(program) == {"a"}
    assert lhm(program, Program((Clause("b"),))) == {"b"}


def test_dl_round_trip():
    protocol, _, _ = load_package("gmw-and")
    program = to_datalog(protocol)
    assert parse_program_dl(format_program(program)) == program
    src = "a.\nb :- a, not c.  % comment\n% whole-line comment\n"
    program = parse_program_dl(src)
    assert program.clauses == (Clause("a"),
                               Clause("b", (Literal("a"), Literal("c", True))))


def test_dl_parse_errors():
    for src in ("a", "h :- .", "1x.", "h :- 2y.", "-."):
        with pytest.raises(ParseError):
            parse_program_dl(src)


def test_table_budget_checked_before_evaluating(monkeypatch):
    # otp's m[z]@2 reads two cells: four local memories
    protocol, _, _ = load_package("otp")
    monkeypatch.setattr(datalog, "MAX_TABLE_ROWS", 4)
    assert format_program(to_datalog(protocol)) == OTP_DL

    def never(*args):
        raise AssertionError("a local memory was evaluated past the budget")

    monkeypatch.setattr(datalog, "MAX_TABLE_ROWS", 3)
    monkeypatch.setattr(datalog, "eval_expr", never)
    with pytest.raises(BudgetError, match="^m\\[z\\]@2 reads 2 cells: its 4 local "
                       "memories exceed the table budget of 3$"):
        to_datalog(protocol)


# --- The compiled least model against the per-literal evaluator --------------------

def reference_lhm(program: Program, facts: Program = Program(())) -> frozenset:
    """lhm as it was before programs were compiled: regroup and restratify
    on every call, and test each body one literal at a time.  The model
    starts from the given facts and the program's bodiless clauses."""
    model = set(c.head for c in facts.clauses + program.facts())
    for c in facts.clauses:
        if c.body:
            raise UsageError("facts must not have bodies")
    fact_atoms = set(model)
    group_of, groups = {}, []
    for c in program.rules():
        if c.head in fact_atoms:
            raise StratificationError(f"{c.head} is both a fact and a rule head")
        if c.head not in group_of:
            group_of[c.head] = len(groups)
            groups.append([])
        groups[group_of[c.head]].append(c)
    for i, group in enumerate(groups):
        head = group[0].head
        for c in group:
            for lit in c.body:
                j = group_of.get(lit.atom)
                if j is not None and j >= i:
                    raise StratificationError(
                        f"{lit.atom} used by {head} before it is defined")
        if any(all((lit.atom in model) != lit.negated for lit in c.body)
               for c in group):
            model.add(head)
    return frozenset(model)


def outcome(evaluate, program, facts):
    try:
        return evaluate(program, facts)
    except (UsageError, StratificationError) as e:
        return type(e), str(e)


INPUTS = ("f0", "f1", "f2", "f3")


def draw_program(data, stratified: bool) -> Program:
    """Rules over the INPUTS atoms and heads h0, h1, ... (numbered in
    first-definition order, one head's rules interleaved with the others').
    Stratified, a body reads inputs and strictly earlier heads only;
    otherwise it reads any head, and a bodiless clause may appear."""
    nclauses = data.draw(st.integers(1, 10))
    head_ids = data.draw(st.lists(st.integers(0, 4), min_size=nclauses, max_size=nclauses))
    rank = {}
    for h in head_ids:
        rank.setdefault(h, len(rank))
    clauses = []
    for h in head_ids:
        r = rank[h]
        readable = INPUTS + tuple(f"h{j}" for j in range(r if stratified else len(rank)))
        atoms = data.draw(st.lists(st.sampled_from(readable), min_size=int(stratified),
                                   max_size=4))
        clauses.append(Clause(f"h{r}", tuple(Literal(a, data.draw(st.booleans()))
                                             for a in atoms)))
    return Program(tuple(clauses))


def draw_facts(data, atoms, with_bodies: bool) -> Program:
    heads = data.draw(st.lists(st.sampled_from(atoms), unique=True, max_size=len(atoms)))
    return Program(tuple(
        Clause(a, (Literal("f0"),) if with_bodies and data.draw(st.booleans()) else ())
        for a in heads))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_compiled_lhm_matches_reference_on_stratified_programs(data):
    program = draw_program(data, stratified=True)
    for _ in range(data.draw(st.integers(1, 4))):  # one program, several fact sets
        facts = draw_facts(data, INPUTS, with_bodies=False)
        assert lhm(program, facts) == reference_lhm(program, facts)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_compiled_lhm_matches_reference_errors(data):
    # any program, facts that may name heads or carry bodies: the same model,
    # or the same error with the same message, on every call
    program = draw_program(data, stratified=False)
    atoms = INPUTS + tuple(sorted({c.head for c in program.clauses}))
    for _ in range(data.draw(st.integers(1, 4))):
        facts = draw_facts(data, atoms, with_bodies=data.draw(st.booleans()))
        assert outcome(lhm, program, facts) == outcome(reference_lhm, program, facts)


def test_lhm_errors_in_order_of_precedence():
    # a reads b before b's group; b and c are rule heads
    program = Program((Clause("a", (Literal("b"),)),
                       Clause("c", (Literal("x", negated=True),)),
                       Clause("b", (Literal("c"),))))
    cases = (
        (Program((Clause("c"), Clause("d", (Literal("e"),)), Clause("b"))),
         UsageError, "facts must not have bodies"),
        (Program((Clause("b"), Clause("c"))), StratificationError,
         "c is both a fact and a rule head"),
        (Program((Clause("x"),)), StratificationError, "b used by a before it is defined"),
    )
    for _ in range(2):  # raised on every call, not only while compiling
        for facts, error, message in cases:
            with pytest.raises(error) as info:
                lhm(program, facts)
            assert str(info.value) == message
            assert outcome(reference_lhm, program, facts) == (error, message)


def test_program_compiled_once(monkeypatch):
    compiled = []
    of = Strata.of
    monkeypatch.setattr(Strata, "of", lambda clauses: compiled.append(clauses) or of(clauses))
    protocol, _, _ = load_package("otp")
    program = to_datalog(protocol)
    inputs = protocol.secrets() + protocol.flips()
    for values in itertools.product((0, 1), repeat=len(inputs)):
        m0 = dict(zip(inputs, values))
        assert lhm(program, facts_of(m0)) == reference_lhm(program, facts_of(m0))
    assert compiled == [program.clauses]
