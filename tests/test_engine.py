"""The vectorized fold against the reference interpreter, row by row.

Row i of a fold must be the final memory of the interpreter's run from the
i-th initial memory, passive and adversarial alike; witnesses and the
order of distributions depend on it.
"""

import itertools

import numpy as np
import pytest

from overture import engine
from overture.dist import (
    ExplicitPreprocessing, Preprocessing, UniformPreprocessing, _initial_memories,
    default_preprocessing,
)
from overture.errors import BudgetError
from overture.interp import AdversaryStrategy, run, run_adv
from overture.lang import BOT, Partition, Var, parse_var
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


def test_adversarial_fold_rows_match_run_adv():
    for name in ("gmw-and", "bdoz-open"):
        protocol, _, preproc = load_package(name)
        for part in all_partitions(protocol):
            for strategy in enumerate_adversaries(protocol, part, preproc=preproc):
                assert_rows_match(protocol, preproc, strategy, part)
    aborting = parse_protocol(ABORTING)
    assert_rows_match(aborting)
    for corrupt, abort_at in (([1], frozenset({3})), ([2], frozenset({1}))):
        part = Partition.of(aborting.federation, corrupt)
        for strategy in enumerate_adversaries(aborting, part):
            assert_rows_match(aborting, None, strategy, part)
            assert_rows_match(aborting, None, AdversaryStrategy(
                strategy.replacements, abort_at=abort_at), part)



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


def pooled_table(nvars, nbot, nrows, seed) -> engine.RunTable:
    """A run table whose rows repeat 40 random patterns over nvars columns,
    the first nbot of which carry a BOT mask; under BOT the stored value
    is random, as the fold leaves it."""
    rng = np.random.default_rng(seed)
    domain = tuple(Var("m", f"v{j}", 1) for j in range(nvars))
    codes = rng.integers(0, 3, (40, nvars), dtype=np.uint8)
    codes[:, nbot:] &= 1
    rows = codes[rng.integers(0, 40, nrows)]
    noise = rng.integers(0, 2, (nrows, nvars), dtype=np.uint8)
    values = np.where(rows == engine.BOT_CODE, noise, rows)
    cols = {v: values[:, j].copy() for j, v in enumerate(domain)}
    bots = {v: (rows[:, j] == engine.BOT_CODE if j < nbot else None)
            for j, v in enumerate(domain)}
    return engine.RunTable(domain, cols, bots, np.ones(nrows, dtype=bool), nrows)


def test_project_counts_key_paths(monkeypatch):
    taken = []
    for name in ("_int_keys", "row_keys"):
        monkeypatch.setattr(engine, name, lambda *a, f=getattr(engine, name), name=name:
                            taken.append(name) or f(*a))
    bincount = np.bincount
    monkeypatch.setattr(np, "bincount",
                        lambda *a, **k: taken.append("bincount") or bincount(*a, **k))
    # (variables, of which with a BOT mask) on 512 rows, so that 2^bits is
    # at most 512 (dense) or above it, up to 64 bits and wider (row_keys)
    cases = {"dense": ((8, 0), (4, 4), (0, 0)),
             "row_keys": ((10, 0), (7, 1), (32, 0), (16, 2), (40, 0), (32, 3),
                          (65, 0), (33, 1), (70, 20))}
    paths = {"dense": ["_int_keys", "bincount"], "row_keys": ["row_keys"]}
    for path, shapes in cases.items():
        for seed, (nvars, nbot) in enumerate(shapes):
            table = pooled_table(nvars, nbot, 512, seed)
            taken.clear()
            got = engine.project_counts(table, table.domain)
            assert taken == paths[path], (path, nvars, nbot)
            want = counts_by_memory_at(table, table.domain)
            assert list(got.items()) == list(want.items()), (path, nvars, nbot)
            assert (BOT in itertools.chain(*got)) == (nbot > 0)
            assert max(got.values()) > 1


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
        domain, cols, nrows = engine._initial_columns(protocol, deal)
        assert domain == tuple(deal.domain) + flips and nrows == npre * ntape
        pre = deal.columns()
        for v in deal.domain:
            assert np.array_equal(cols[v], np.repeat(pre[v], ntape))
        for v, bit in zip(flips, shifted_bits(ntape, len(flips), True)):
            assert np.array_equal(cols[v], np.tile(bit, npre))
    # without flips the deal's columns are used as they are, not copied
    p, _, deal = load_package("bdoz-open")
    assert not p.flips()
    pre = deal.columns()
    monkeypatch.setattr(deal, "columns", lambda: pre)
    domain, cols, nrows = engine._initial_columns(p, deal)
    assert domain == deal.domain and nrows == deal.count()
    assert all(cols[v] is pre[v] for v in deal.domain)


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
    # exactly at the budget the fold goes on to build the deal's columns
    one_flip = parse_protocol("out@1 := r[k] @ 1;\n")
    with pytest.raises(AssertionError, match="deal columns built"):
        engine.fold(one_flip, StubDeal(engine.MAX_RUNS // 2))
    with pytest.raises(BudgetError):
        engine.fold(one_flip, StubDeal(engine.MAX_RUNS))
