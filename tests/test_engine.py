"""The vectorized fold against the reference interpreter, row by row.

Row i of a fold must be the final memory of the interpreter's run from the
i-th initial memory, passive and adversarial alike; witnesses and the
order of distributions depend on it.
"""

import functools
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from overture import engine
from overture.dist import (
    ExplicitPreprocessing, Preprocessing, UniformPreprocessing, _initial_memories,
    default_preprocessing,
)
from overture.errors import BudgetError
from overture.interp import IDENTITY, AdversaryStrategy, run, run_adv
from overture.lang import (
    BOT, REVEAL, SECRET, AssertCmd, BinOp, Const, Partition, Protocol, Ref, RevealCmd, Var,
    parse_var,
)
from overture.ovt import parse_protocol
from overture.stdlib import bdoz_beaver_preprocessing, bdoz_beaver_trimmed, load_package
from overture.verifier import all_partitions, enumerate_adversaries

ABORTING = ("m[z]@2 := s[x] xor s[y] @ 1;\n"
            "assert (m[z] == 0) @ 2;\n"
            "m[w]@1 := m[z] @ 2;\n"
            "assert (m[w] == s[x]) @ 1;\n"
            "out@1 := m[w] @ 1;\n")


def sweep(protocol, preproc, strategy=None, part=None) -> list:
    """Interpreter final memories, one per initial memory, in sweep order."""
    return [run(m0, protocol) if strategy is None
            else run_adv(m0, protocol, strategy, part)
            for m0 in _initial_memories(protocol, preproc)]


def assert_rows_match(protocol, preproc=None, strategy=None, part=None):
    if preproc is None:
        preproc = default_preprocessing(protocol)
    table = engine.fold(protocol, preproc, strategy, part)
    finals = sweep(protocol, preproc, strategy, part)
    assert table.nrows == len(finals)
    for i, final in enumerate(finals):
        assert engine.memory_at(table, i) == final, (i, strategy)


def test_uniform_columns_follow_memories_order():
    deal = UniformPreprocessing([parse_var(v) for v in ("s[a]@1", "s[b]@1", "s[c]@2")])
    cols = deal.columns()
    for i, m in enumerate(deal.memories()):
        assert {v: int(cols[v][i]) for v in deal.domain} == m
    # a uniform deal with coin flips: first dealt variable most significant
    protocol, _, _ = load_package("gmw-and")
    assert protocol.flips()
    assert_rows_match(protocol)


def test_fold_covers_aborts():
    p = parse_protocol("m[z]@2 := s[x] @ 1;\n"
                       "assert (m[z] == 0) @ 2;\n"
                       "out@2 := m[z] @ 2;\n")
    table = engine.fold(p, default_preprocessing(p))
    assert list(table.alive) == [True, False]
    m = engine.memory_at(table, 1)
    assert m[parse_var("s[x]@1")] == 1
    assert m[parse_var("out@2")] is BOT
    assert_rows_match(p)


def table_codes(table) -> list:
    """Each run's codes over the table's domain (BOT as BOT_CODE), as lists."""
    return np.stack([table.cols[v] if table.bots[v] is None
                     else np.where(table.bots[v], engine.BOT_CODE, table.cols[v])
                     for v in table.domain], axis=1).tolist()


def assert_family_rows_match(monkeypatch, protocol, preproc, strategies, part):
    """The family folded as stacked runs, two strategies a chunk: the rows
    of each strategy equal its own fold and the interpreter's run_adv sweep."""
    if preproc is None:
        preproc = default_preprocessing(protocol)
    monkeypatch.setattr(engine, "CHUNK_ROWS", 2 * preproc.count() * 2 ** len(protocol.flips()))
    monkeypatch.setattr(engine, "MIN_CHUNKS", 1)
    spans = engine.chunks(protocol, preproc, engine.family_of(strategies))
    assert [lo for lo, _ in spans] == list(range(0, len(strategies), 2))
    stacked = []
    for lo, family in spans:
        table = engine.fold(protocol, preproc, family, part)
        assert table.nrows == len(family.choice) * preproc.count() * 2 ** len(protocol.flips())
        stacked += table_codes(table)
    runs = len(stacked) // len(strategies)
    for s, strategy in enumerate(strategies):
        own = engine.fold(protocol, preproc, strategy, part)
        assert own.domain == table.domain and own.nrows == runs
        finals = sweep(protocol, preproc, strategy, part)
        domain = set(own.domain)
        assert all(m.keys() == domain for m in finals)
        want = [[engine.BOT_CODE if x is BOT else x for x in map(m.__getitem__, own.domain)]
                for m in finals]
        assert stacked[s * runs:(s + 1) * runs] == table_codes(own) == want, strategy


def test_chunks_hold_whole_strategies():
    protocol = parse_protocol("out@1 := s[x] @ 1;\n")

    def family(n):
        return engine.Family((), (), (), np.zeros((n, 0), dtype=np.intp))

    # 2,048 runs a strategy: 256 strategies fill CHUNK_ROWS, unless an eighth
    # of the family is fewer; a strategy above CHUNK_ROWS is a chunk alone
    starts = lambda n, runs: [lo for lo, _ in engine.chunks(protocol, StubDeal(runs), family(n))]
    assert starts(9, 2048) == [0, 2, 4, 6, 8]
    assert starts(100000, 2048) == list(range(0, 100000, 256))
    assert starts(3, 2 ** 20) == [0, 1, 2]
    assert [len(f.choice) for _, f in engine.chunks(protocol, StubDeal(2048), family(9))] \
        == [2, 2, 2, 2, 1]
    with pytest.raises(BudgetError, match="stacked-run budget"):
        engine.chunks(protocol, StubDeal(2048), family(engine.MAX_STACKED_RUNS // 2048 + 1))


def test_adversarial_fold_rows_match_run_adv(monkeypatch):
    for name in ("gmw-and", "bdoz-open"):
        protocol, _, preproc = load_package(name)
        for part in all_partitions(protocol):
            fam = enumerate_adversaries(protocol, part, preproc=preproc)
            assert_family_rows_match(monkeypatch, protocol, preproc, fam, part)
    aborting = parse_protocol(ABORTING)
    assert_rows_match(aborting)
    for corrupt, abort_at in (([1], frozenset({3})), ([2], frozenset({1}))):
        part = Partition.of(aborting.federation, corrupt)
        fam = enumerate_adversaries(aborting, part)
        # the same strategies again, halting at the assertion: per-row aborts
        fam += tuple(AdversaryStrategy(s.replacements, abort_at=abort_at) for s in fam)
        assert_family_rows_match(monkeypatch, aborting, None, fam, part)
    # hand-built families of expressions over visible bits: the share flip
    # of the stripped open and the noisy echo
    protocol, _, preproc = load_package("bdoz-open")
    stripped = Protocol(tuple(c for c in protocol.commands if not isinstance(c, AssertCmd)),
                        protocol.federation, protocol.modulus)
    part = Partition.of(stripped.federation, [2])
    flip = BinOp("+", stripped.commands[2].expr, Const(1))
    assert_family_rows_match(monkeypatch, stripped, preproc, (
        IDENTITY, AdversaryStrategy(((2, flip),), label="share-flip"),
        AdversaryStrategy(((2, flip), (3, Const(1)))), IDENTITY), part)
    echo = parse_protocol("m[z]@2 := r[h] @ 1;\n"
                          "m[b]@1 := r[u] + r[v] @ 2;\n"
                          "out@1 := m[b] + s[x] @ 1;\n")
    noisy = BinOp("xor", Ref("m", "z"), BinOp("and", Ref("r", "u"), Ref("r", "v")))
    part = Partition.of(echo.federation, [2])
    assert_family_rows_match(monkeypatch, echo, None, (IDENTITY, AdversaryStrategy(((1, noisy),)),
                                          AdversaryStrategy(((1, Ref("m", "z")),)),
                                          AdversaryStrategy(((1, noisy), (1, Const(0))))), part)
    # --budget 1: every truth table over the visible bits of one position
    otp, _, _ = load_package("otp")
    for corrupt, position in (([1], 0), ([2], 2)):
        part = Partition.of(otp.federation, corrupt)
        fam = enumerate_adversaries(otp, part, tables_budget=1, positions=(position,))
        assert len(fam) > 3
        assert_family_rows_match(monkeypatch, otp, None, fam, part)


def test_strategies_without_replacements_fold_back_to_back():
    """Strategies that replace nothing differ only in where they halt, and
    each folded right after another equals the interpreter's run_adv."""
    aborting = parse_protocol(ABORTING)
    strategies = (IDENTITY, AdversaryStrategy(abort_at=frozenset({3})),
                  AdversaryStrategy(abort_at=frozenset({1})), IDENTITY,
                  AdversaryStrategy(abort_at=frozenset({1, 3})))
    for corrupt in ([1], [2], [1, 2]):
        part = Partition.of(aborting.federation, corrupt)
        for strategy in strategies:
            assert_rows_match(aborting, strategy=strategy, part=part)


def counts_by_memory_at(table, vars_) -> dict:
    """project_counts recomputed run by run from memory_at."""
    want = {}
    for row in range(table.nrows):
        m = engine.memory_at(table, row)
        key = tuple(m[v] for v in vars_)
        want[key] = want.get(key, 0) + 1
    return want


def test_project_counts_bot_rows():
    # rows 1 and 2 abort at the assertion, rows 0 and 3 run to the end
    p = parse_protocol("m[z]@2 := s[x] xor s[y] @ 1;\n"
                       "assert (m[z] == 0) @ 2;\n"
                       "out@2 := m[z] @ 2;\n")
    table = engine.fold(p, default_preprocessing(p))
    assert list(table.alive) == [True, False, False, True]
    out = parse_var("out@2")
    for vars_ in (table.domain, (out,), (parse_var("s[x]@1"), out), ()):
        assert list(engine.project_counts(table, vars_).items()) == \
            list(counts_by_memory_at(table, vars_).items())
    # every run is its own realization here: BOT exactly where the fold padded
    full = list(engine.project_counts(table, table.domain))
    for row, key in enumerate(full):
        assert [x is BOT for x in key] == \
            [table.bots[v] is not None and bool(table.bots[v][row]) for v in table.domain]
    assert [key[-1] for key in full] == [0, BOT, BOT, 0]


def code_table(codes, noise) -> engine.RunTable:
    """A run table over m[v0]@1, m[v1]@1, ... holding a (runs, variables)
    code matrix: a column with BOT_CODE somewhere carries a BOT mask, and
    under BOT it stores the noise value, as the fold leaves it."""
    nrows, nvars = codes.shape
    domain = tuple(Var("m", f"v{j}", 1) for j in range(nvars))
    values = np.where(codes == engine.BOT_CODE, noise, codes)
    bot = codes == engine.BOT_CODE
    cols = {v: values[:, j].copy() for j, v in enumerate(domain)}
    bots = {v: (bot[:, j] if bot[:, j].any() else None) for j, v in enumerate(domain)}
    return engine.RunTable(domain, cols, bots, np.ones(nrows, dtype=bool), nrows)


def pooled_table(nvars, nbot, nrows, seed) -> engine.RunTable:
    """A run table whose rows repeat 40 random patterns over nvars columns,
    the first nbot of which carry a BOT mask."""
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 3, (40, nvars), dtype=np.uint8)
    codes[:, nbot:] &= 1
    return code_table(codes[rng.integers(0, 40, nrows)],
                      rng.integers(0, 2, (nrows, nvars), dtype=np.uint8))


def distinct_by_run(table, vars_, rows=None) -> tuple:
    """distinct_rows recomputed run by run from memory_at: the code rows
    in code order, their counts, and each one's first counted run."""
    runs = range(table.nrows) if rows is None else np.flatnonzero(rows).tolist()
    seen = {}
    for i, row in enumerate(runs):
        m = engine.memory_at(table, row)
        key = tuple(engine.BOT_CODE if m[v] is BOT else m[v] for v in vars_)
        count, first = seen.get(key, (0, i))
        seen[key] = (count + 1, first)
    rows = sorted(seen)  # tuples of codes sort in code order
    return rows, [seen[r][0] for r in rows], [seen[r][1] for r in rows]


def assert_distinct_rows(table, vars_, rows=None):
    codes, counts, first = engine.distinct_rows(table, vars_, rows)
    want = distinct_by_run(table, vars_, rows)
    assert codes.dtype == np.uint8 and codes.shape == (len(want[0]), len(vars_))
    assert (list(map(tuple, codes.tolist())), counts.tolist(), first.tolist()) == want


def test_project_counts_key_paths(monkeypatch):
    taken = []
    for name in ("bincount", "unique"):
        monkeypatch.setattr(np, name, lambda *a, f=getattr(np, name), name=name, **k:
                            taken.append(name) or f(*a, **k))
    # (variables, of which with a BOT mask) on 512 rows, so that 2^bits is
    # at most 512 (bincount) or above it, up to 64 bits and wider (unique)
    cases = {"bincount": ((8, 0), (4, 4), (0, 0)),
             "unique": ((10, 0), (7, 1), (32, 0), (16, 2), (40, 0), (32, 3),
                        (65, 0), (33, 1), (70, 20))}
    for path, shapes in cases.items():
        for seed, (nvars, nbot) in enumerate(shapes):
            table = pooled_table(nvars, nbot, 512, seed)
            taken.clear()
            got = engine.project_counts(table, table.domain)
            assert taken == [path], (path, nvars, nbot)
            want = counts_by_memory_at(table, table.domain)
            assert list(got.items()) == list(want.items()), (path, nvars, nbot)
            assert (BOT in itertools.chain(*got)) == (nbot > 0)
            assert max(got.values()) > 1
            # a random mask of about 3/4 of the runs, at least 2^8 of them,
            # keeps the path; one of fewer than 2^8 runs takes the dense
            # 8-bit shapes to np.unique
            rng = np.random.default_rng(seed)
            for rows, counted in ((rng.random(512) < 0.75, path),
                                  (rng.random(512) < 0.4, "unique" if nvars else path)):
                taken.clear()
                assert_distinct_rows(table, table.domain, rows)
                assert taken == [counted], (path, nvars, nbot, rows.sum())


def rows_part(table, lo, hi, masked) -> engine.RunTable:
    """Runs lo..hi-1 of a table as a table of their own; a BOT mask with
    no BOT run there is kept only where masked."""
    bots = {v: None if bot is None or not (masked or bot[lo:hi].any()) else bot[lo:hi]
            for v, bot in table.bots.items()}
    return engine.RunTable(table.domain, {v: c[lo:hi] for v, c in table.cols.items()},
                           bots, table.alive[lo:hi], hi - lo)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_distinct_rows_match_run_by_run(data):
    """Random code tables with BOT, a BOT mask with no BOT run, repeated
    rows and a random row mask, on both counting paths: distinct_rows
    against the run-by-run oracle, and project_counts against memory_at.
    The runs cut into consecutive parts, some empty, some keyed with BOT
    and some without, count through count_parts as the one table."""
    masked = data.draw(st.lists(st.booleans(), max_size=7))
    row = st.tuples(*[st.integers(0, 2 if m else 1) for m in masked])
    codes = np.array(data.draw(st.lists(row, min_size=1, max_size=150)), dtype=np.uint8)
    codes = codes.reshape(len(codes), len(masked))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    table = code_table(codes, rng.integers(0, 2, codes.shape, dtype=np.uint8))
    for j, v in enumerate(table.domain):
        if masked[j] and table.bots[v] is None:
            table.bots[v] = np.zeros(table.nrows, dtype=bool)
    vars_ = data.draw(st.permutations(table.domain))
    rows = data.draw(st.none() | st.lists(st.booleans(), min_size=table.nrows,
                                          max_size=table.nrows).map(np.array))
    assert_distinct_rows(table, vars_, rows)
    assert list(engine.project_counts(table, vars_).items()) == \
        list(counts_by_memory_at(table, vars_).items())
    cuts = sorted(data.draw(st.lists(st.integers(0, table.nrows), max_size=6)))
    edges = list(zip([0] + cuts, cuts + [table.nrows]))
    keeps = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    parts = [(rows_part(table, lo, hi, keep), None if rows is None else rows[lo:hi], ())
             for (lo, hi), keep in zip(edges, keeps)]
    want = distinct_by_run(table, vars_, rows)
    codes, counts, first = engine.count_parts(parts, vars_)
    assert (list(map(tuple, codes.tolist())), counts.tolist(), first.tolist()) == want
    codes, counts, first = engine.count_parts(iter(parts), vars_, first=False)
    assert (list(map(tuple, codes.tolist())), counts.tolist(), first) == (*want[:2], None)


def test_ot_picks_as_where():
    """_ot's xor-and-xor form equals np.where on random and on structured
    choice masks, and writes only its out buffer."""
    rng = np.random.default_rng(7)
    n = 4099
    if1, if0 = (rng.integers(0, 2, n, dtype=np.uint8) for _ in range(2))
    masks = [rng.integers(0, 2, n, dtype=np.uint8), np.zeros(n, np.uint8), np.ones(n, np.uint8),
             np.arange(n, dtype=np.uint8) & 1, (np.arange(n) >= n // 3).astype(np.uint8),
             np.repeat(rng.integers(0, 2, n // 64 + 1, dtype=np.uint8), 64)[:n]]
    for choice in masks:
        args = choice.copy(), if1.copy(), if0.copy()
        out = np.empty(n, np.uint8)
        assert engine._ot(*args, out) is out
        assert np.array_equal(out, np.where(choice.view(bool), if1, if0))
        assert all(np.array_equal(a, b) for a, b in zip(args, (choice, if1, if0)))


def shifted_bits(n, bits, msb_first) -> list:
    """The arange-and-shift bit columns the deals were first built with."""
    idx = np.arange(n, dtype=np.uint64)
    return [((idx >> np.uint64(bits - 1 - i if msb_first else i)) & np.uint64(1))
            .astype(np.uint8) for i in range(bits)]


def test_bit_columns_match_shifted_index():
    for n in range(6):
        deal = UniformPreprocessing([Var("s", f"x{i}", 1) for i in range(n)])
        cols = deal.columns()
        for v, want in zip(deal.domain, shifted_bits(deal.count(), n, True)):
            assert cols[v].dtype == np.uint8 and np.array_equal(cols[v], want)
    for deal in (bdoz_beaver_preprocessing(), bdoz_beaver_trimmed()):
        cols = deal.columns()
        assert set(cols) == set(deal.domain)
        free = deal._free
        for v, want in zip(free, shifted_bits(deal.count(), len(free), False)):
            assert np.array_equal(cols[v], want), v
        for v, value in deal.fixed.items():
            assert (cols[v] == value).all()


def test_initial_columns_match_repeat_and_tile(monkeypatch):
    """A fold's deal columns repeat the deal's over the coin-flip tapes and
    its flip columns tile over the memories, whether the deal is described
    or read from its columns; stacked strategies and blocks that cross
    them take the same rows, and without flips the columns read are the
    deal's own, not copies."""
    gmw, _, _ = load_package("gmw-and")
    dealt = parse_var("s[a]@1")
    flipped = parse_protocol("m[z]@2 := s[a] xor r[k] xor r[j] @ 1;\n"
                             "out@2 := m[z] @ 2;\n")
    odd = ExplicitPreprocessing([dealt], [{dealt: 1}, {dealt: 0}, {dealt: 1}])
    cases = ((gmw, default_preprocessing(gmw)), (flipped, odd),
             (flipped, UniformPreprocessing([dealt])))
    for protocol, deal in cases:
        flips = protocol.flips()
        npre, ntape = deal.count(), 2 ** len(flips)
        assert ntape > 1
        table = engine.fold(protocol, deal)
        assert table.domain[:len(deal.domain) + len(flips)] == tuple(deal.domain) + flips
        assert table.nrows == npre * ntape
        pre = deal.columns()
        for v in deal.domain:
            assert np.array_equal(table.cols[v], np.repeat(pre[v], ntape))
        for v, bit in zip(flips, shifted_bits(ntape, len(flips), True)):
            assert np.array_equal(table.cols[v], np.tile(bit, npre))
    part = Partition.of(flipped.federation, [1])
    strategies = enumerate_adversaries(flipped, part)
    assert len(strategies) > 2
    assert_family_rows_match(monkeypatch, flipped, odd, strategies, part)
    family = engine.family_of(strategies)
    whole = table_codes(engine.fold(flipped, odd, family, part))
    n = len(whole)
    for lo, hi in ((0, 5), (5, 17), (11, 13), (n - 13, n)):
        assert table_codes(engine.fold(flipped, odd, family, part, (lo, hi))) == whole[lo:hi]
    # without flips the deal's columns are used as they are, not copied
    p, _, deal = load_package("bdoz-open")
    assert not p.flips()
    read = ExplicitPreprocessing(deal.domain, deal.memories())
    pre = read.columns()
    monkeypatch.setattr(read, "columns", lambda: pre)
    table = engine.fold(p, read)
    assert table.domain[:len(read.domain)] == read.domain and table.nrows == read.count()
    assert all(table.cols[v] is pre[v] for v in read.domain)


class StubDeal(Preprocessing):
    """A deal of n memories that must never build its columns."""

    def __init__(self, n):
        self.domain, self.n = (), n

    def count(self):
        return self.n

    def columns(self):
        raise AssertionError("deal columns built")


FLIPS64 = ("m[z]@2 := s[x] xor " + " xor ".join(f"r[k{i}]" for i in range(64)) + " @ 1;\n"
           "out@2 := m[z] @ 2;\n")


def never_allocate(*args):
    raise AssertionError("columns allocated before the run budget check")


def test_run_budget_checked_before_allocating(monkeypatch):
    monkeypatch.setattr(engine, "bit_column", never_allocate)
    p = parse_protocol(FLIPS64)
    with pytest.raises(BudgetError, match="run budget"):
        engine.fold(p, StubDeal(1))
    # exactly at the budget the fold goes on to build a column, its coin flip's
    def built(n, i):
        raise AssertionError(f"bit column {i} of {n} rows built")

    monkeypatch.setattr(engine, "bit_column", built)
    one_flip = parse_protocol("out@1 := r[k] @ 1;\n")
    with pytest.raises(AssertionError, match=f"bit column 0 of {engine.MAX_RUNS} rows built"):
        engine.fold(one_flip, StubDeal(engine.MAX_RUNS // 2))
    with pytest.raises(BudgetError):
        engine.fold(one_flip, StubDeal(engine.MAX_RUNS))


def test_long_chain_counts_without_recursion():
    """A 100,000-operand xor chain, built as an AST: listing its variables,
    compiling and counting it walk it with explicit stacks, and its parity
    holds."""
    leaves = (Ref(SECRET, "a"), Ref(SECRET, "b"), Ref(SECRET, "c"), Const(1))
    rng = random.Random(11)
    operands = [rng.choice(leaves) for _ in range(100_000)]
    chain = functools.reduce(lambda e, x: BinOp("xor", e, x), operands)
    protocol = Protocol.of([RevealCmd("w", chain, 1)])
    deal = default_preprocessing(protocol)
    secrets = tuple(Var(SECRET, name, 1) for name in "abc")
    assert deal.domain == secrets
    codes, counts, _ = engine.count_runs(protocol, deal, secrets + (Var(REVEAL, "w"),))
    odd = [sum(x is leaf for x in operands) % 2 for leaf in leaves]
    want = [[*bits, (sum(b * o for b, o in zip(bits, odd)) + odd[3]) % 2]
            for bits in itertools.product((0, 1), repeat=3)]
    assert codes.tolist() == want and counts.tolist() == [1] * 8
