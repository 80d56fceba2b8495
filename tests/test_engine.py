"""The vectorized fold against the reference interpreter, row by row.

Row i of a fold must be the final memory of the interpreter's run from the
i-th initial memory, passive and adversarial alike; witnesses and the
order of distributions depend on it.
"""

from overture import engine
from overture.dist import UniformPreprocessing, _initial_memories, default_preprocessing
from overture.interp import AdversaryStrategy, run, run_adv
from overture.lang import BOT, Partition, parse_var
from overture.ovt import parse_protocol
from overture.stdlib import load_package
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



def test_project_counts_bot_rows():
    # rows 1 and 2 abort at the assertion, rows 0 and 3 run to the end
    p = parse_protocol("m[z]@2 := s[x] xor s[y] @ 1;\n"
                       "assert (m[z] == 0) @ 2;\n"
                       "out@2 := m[z] @ 2;\n")
    table = engine.fold(p, default_preprocessing(p))
    assert list(table.alive) == [True, False, False, True]
    out = parse_var("out@2")
    for vars_ in (table.domain, (out,), (parse_var("s[x]@1"), out), ()):
        want = {}
        for row in range(table.nrows):
            m = engine.memory_at(table, row)
            key = tuple(m[v] for v in vars_)
            want[key] = want.get(key, 0) + 1
        got = engine.project_counts(table, vars_)
        assert list(got.items()) == list(want.items())
    # every run is its own realization here: BOT exactly where the fold padded
    full = list(engine.project_counts(table, table.domain))
    for row, key in enumerate(full):
        assert [x is BOT for x in key] == \
            [table.bots[v] is not None and bool(table.bots[v][row]) for v in table.domain]
    assert [key[-1] for key in full] == [0, BOT, BOT, 0]
