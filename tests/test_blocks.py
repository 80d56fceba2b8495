"""Folding and counting in row blocks (engine.count_runs) against one block.

With BLOCK_ROWS cut to 8, and to 5, which no deal's memories or coin-flip
tapes line up with (both scaled up for the larger packages), every
bundled package takes the multi-block path: its
distinct rows, counts and first runs, bd, pmf text and verdicts must equal
those of one block.  The Beaver protocol runs on its trimmed deal here;
its full deal, on the default blocks, is checked against one block too.
The compiled fold's value numbering and buffer reuse are checked here
too, on small protocols against the interpreter as well.
"""

import ast
import contextlib
import io
import itertools
import os
import pathlib
import random
import re
import subprocess
import sys

import numpy as np
import pytest

from overture import cli, engine, verifier
from overture.dist import (
    ExplicitPreprocessing, Functionality, UniformPreprocessing, bd, bd_adv, bd_domain,
    default_preprocessing,
)
from overture.errors import EvalError
from overture.interp import IDENTITY, AdversaryStrategy
from overture.lang import BOT, FLIP, SECRET, BinOp, Const, Partition, Ref, parse_var
from overture.ovt import parse_protocol
from overture.stdlib import (
    FUNCTIONALITIES, PACKAGES, BdozPreprocessing, bdoz_beaver_preprocessing, bdoz_beaver_trimmed,
    load_package,
)
from overture.verifier import enumerate_adversaries
from test_engine import (
    ABORTING, assert_family_rows_match, assert_rows_match, shifted_bits, sweep, table_codes,
)

SIZES = (8, 5)


def deals():
    """(CLI arguments naming it, protocol, deal, functionality, block scale)
    of every bundled package and of the aborting protocol of test_engine.
    A package of more than 128 runs (shamir-add3, the 4,096 runs of the
    trimmed Beaver deal) is cut in blocks runs / 128 times the size, so
    that it folds in a few dozen blocks, not hundreds."""
    for name in PACKAGES:
        protocol, fn, deal = load_package(name)
        argv = [name]
        if name == "bdoz-beaver":
            deal, argv = bdoz_beaver_trimmed(), [name, "--preproc", "bdoz-beaver-trim"]
        deal = deal or default_preprocessing(protocol)
        scale = max(1, deal.count() * 2 ** len(protocol.flips()) // 128)
        yield argv, protocol, deal, fn, scale
    aborting = parse_protocol(ABORTING)
    yield None, aborting, default_preprocessing(aborting), None, 1


def one_and_blocked(monkeypatch, size, f):
    """f() on the default blocks, then on blocks of size runs."""
    one = f()
    with monkeypatch.context() as m:
        m.setattr(engine, "BLOCK_ROWS", size)
        return one, f()


def assert_same_rows(one, blocked):
    """Equal (codes, counts, first) triples of distinct_rows output."""
    for a, b in zip(one, blocked):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.dtype == b.dtype and np.array_equal(a, b)


def assert_same_table(one, blocked):
    """Equal bd tables: domain, code rows in the same order, counts, total."""
    assert one.domain == blocked.domain and one.total == blocked.total
    assert np.array_equal(one.codes, blocked.codes)
    assert np.array_equal(one.counts, blocked.counts)


def cli_out(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


@pytest.mark.parametrize("size", SIZES)
def test_blocked_counts_equal_one_block(monkeypatch, size):
    for argv, protocol, deal, _, scale in deals():
        block = size * scale
        domain = bd_domain(protocol, deal)
        given = {domain[0]: 1}
        cases = (
            dict(vars_=domain),
            dict(vars_=domain[::-1], first=False),
            dict(vars_=protocol.output_vars() + protocol.secrets(), abort_lead=True),
            dict(vars_=domain[-3:], given=given),
            dict(vars_=domain[1:4], given=given,
                 abort_lead=True, first=False),
        )
        for kw in cases:
            assert_same_rows(*one_and_blocked(
                monkeypatch, block, lambda: engine.count_runs(protocol, deal, **kw)))
        one, blocked = one_and_blocked(monkeypatch, block, lambda: bd(protocol, deal))
        assert_same_table(one, blocked)
        if argv is None:
            continue
        for extra in ([], ["--given", f"{domain[0]}=1"]):
            one, blocked = one_and_blocked(monkeypatch, block,
                                           lambda: cli_out(["pmf", *argv, *extra]))
            assert one == blocked and one[0] == 0, (argv, extra)


def test_blocked_verdicts_equal_one_block(monkeypatch):
    for argv, protocol, deal, fn, scale in deals():
        block = SIZES[0] * scale
        if argv is None:
            continue
        commands = [["verify", *argv, "--property", prop, "--all-partitions"]
                    for prop in ("nimo", "gradual-release")]
        if fn is not None:
            commands.append(["verify", *argv, "--property", "correct"])
        for command in commands:
            one, blocked = one_and_blocked(monkeypatch, block, lambda: cli_out(command))
            assert one == blocked, command


def test_blocked_aborts_and_lead(monkeypatch):
    """The aborting protocol's ~alive lead column and BOT masks differ from
    block to block; correct fails on its aborted runs either way."""
    aborting = parse_protocol(ABORTING)
    deal = default_preprocessing(aborting)
    table = engine.fold(aborting, deal)
    assert not table.alive.all() and table.alive.any()
    fn = Functionality.parse("".join(f"s[x]@1={x} s[y]@1={y} -> out@1={x}\n"
                                     for x in (0, 1) for y in (0, 1)))
    for size in (1, 2, 3):
        one, blocked = one_and_blocked(monkeypatch, size, lambda: verifier.check_passive_correct(
            aborting, fn, deal).format())
        assert one == blocked and "FAILS" in one


def test_blocked_share_lie_bd(monkeypatch):
    """bd_adv under the one-bit share lie on the trimmed Beaver deal: half
    of the runs abort, so some blocks have BOT masks and others none."""
    protocol, _, _ = load_package("bdoz-beaver")
    trim = bdoz_beaver_trimmed()
    part = Partition.of(protocol.federation, [2])
    lie = AdversaryStrategy(((3, BinOp("+", protocol.commands[3].expr, Const(1))),),
                            label="share lie")
    for size in SIZES:  # times 16: blocks of 128 and of 80 runs
        one, blocked = one_and_blocked(monkeypatch, 16 * size,
                                       lambda: bd_adv(protocol, lie, part, trim))
        assert_same_table(one, blocked)
        assert one.total == trim.count()
        assert any(BOT in key for key in one.weights)


def test_failing_correct_witness_from_a_later_block(monkeypatch):
    protocol, _, _ = load_package("gmw-and")
    wrong = FUNCTIONALITIES["xor2"]
    one = verifier.check_passive_correct(protocol, wrong).format()
    folded = []
    fold = engine.fold

    def recording(*args, **kwargs):
        folded.append(kwargs.get("block", args[4] if len(args) > 4 else None))
        return fold(*args, **kwargs)

    monkeypatch.setattr(engine, "fold", recording)
    monkeypatch.setattr(engine, "BLOCK_ROWS", 8)
    assert verifier.check_passive_correct(protocol, wrong).format() == one
    # four blocks of 8 runs, then the witness: a one-row fold past the first block
    assert folded[:4] == [(0, 8), (8, 16), (16, 24), (24, 32)]
    row, end = folded[-1]
    assert end == row + 1 and row >= 8


def test_full_beaver_deal_blocks_equal_one_block(monkeypatch):
    protocol, fn, deal = load_package("bdoz-beaver")
    vars_ = fn.secrets + fn.outputs + tuple(v for v in protocol.assigned() if v.owner == 2)[:4]
    for kw in (dict(abort_lead=True), dict(first=False)):
        blocked = engine.count_runs(protocol, deal, vars_, **kw)
        with monkeypatch.context() as m:
            m.setattr(engine, "BLOCK_ROWS", deal.count())
            one = engine.count_runs(protocol, deal, vars_, **kw)
        assert_same_rows(one, blocked)
        assert len(one[0]) > 1


def test_stacked_blocks_are_rows_of_the_family_table():
    protocol, _, _ = load_package("gmw-and")
    deal = default_preprocessing(protocol)
    part = Partition.of(protocol.federation, [2])
    aborting = parse_protocol(ABORTING)
    fam = enumerate_adversaries(aborting, Partition.of(aborting.federation, [1]))
    fam += tuple(AdversaryStrategy(s.replacements, abort_at=frozenset({3})) for s in fam)
    cases = ((protocol, deal, enumerate_adversaries(protocol, part), part),
             (aborting, default_preprocessing(aborting), fam,
              Partition.of(aborting.federation, [1])))
    for protocol, deal, strategies, part in cases:
        family = engine.family_of(strategies)
        whole = table_codes(engine.fold(protocol, deal, family, part))
        n = len(whole)
        for lo, hi in ((0, 7), (20, 50), (31, 33), (5, 6), (n // 3, n - 5), (n - 3, n)):
            assert table_codes(engine.fold(protocol, deal, family, part, (lo, hi))) \
                == whole[lo:hi], (lo, hi)


def test_bit_range_matches_shifted_index(monkeypatch):
    monkeypatch.setattr(engine, "BLOCK_ROWS", 16)
    for lo in range(40):
        for hi in range(lo + 1, lo + 40, 3):
            for i in range(6):
                want = ((np.arange(lo, hi) >> i) & 1).astype(np.uint8)
                got = engine.bit_range(lo, hi, i)
                assert got.dtype == np.uint8 and np.array_equal(got, want), (lo, hi, i)


def test_columns_equal_memories():
    """Every kind of deal builds whole columns equal to its memories(),
    row by row (the first 2^12 of the full Beaver deal)."""
    x = [parse_var(v) for v in ("s[a]@1", "s[b]@2", "m[c]@1", "m[d]@2", "s[e]@1")]
    rng = random.Random(5)
    explicit = ExplicitPreprocessing(x[:2], [dict(zip(x[:2], (rng.randrange(2), rng.randrange(2))))
                                             for _ in range(37)])
    deals = (UniformPreprocessing(x), UniformPreprocessing(x[:3], modulus=3), explicit,
             bdoz_beaver_trimmed(), bdoz_beaver_preprocessing())
    for deal in deals:
        cols = deal.columns()
        assert set(cols) == set(deal.domain)
        for v in deal.domain:
            assert cols[v].dtype == np.uint8 and len(cols[v]) == deal.count()
        for i, m in enumerate(itertools.islice(deal.memories(), 2 ** 12)):
            assert m == {v: int(cols[v][i]) for v in deal.domain}, (type(deal).__name__, i)
    # a Uniform deal's columns are its memories' bits, first variable most significant
    cols = UniformPreprocessing(x).columns()
    for v, want in zip(x, shifted_bits(2 ** len(x), len(x), True)):
        assert np.array_equal(cols[v], want)


def test_matrix_keys_equal_column_keys():
    """Every code row is keyed by _column_keys: a matrix's row_keys are the
    keys of its columns, integers up to 64 bits and pack_keys' bytes past
    them, which unpack to its rows, as the re-key of 1-bit rows at 2 bits
    reads them, and sort as np.lexsort sorts its rows, as the merge and
    the verifier's np.searchsorted need."""
    rng = np.random.default_rng(3)
    for ncols in range(71):
        for bits in (1, 2):
            codes = rng.integers(0, 2 ** bits - (bits == 2), (50, ncols)).astype(np.uint8)
            codes[rng.random(50) < 0.3] = codes[0]  # repeated rows
            keys = engine._column_keys(codes.T, bits, ncols, 50)
            assert np.array_equal(engine.row_keys(codes, bits), keys)
            assert (keys.dtype.kind == "V") == (bits * ncols > 64), (ncols, bits)
            if bits * ncols > 64:
                assert np.array_equal(keys, engine.pack_keys(codes.T, bits, 50))
            assert np.array_equal(engine._unpack(keys, bits, ncols), codes), (ncols, bits)
            order = np.argsort(keys, kind="stable")
            want = np.lexsort(codes.T[::-1]) if ncols else np.arange(50)
            assert np.array_equal(order, want), (ncols, bits)


def test_one_key_builder_in_source():
    """No second builder of code-row keys comes back: np.packbits appears
    nowhere in the package, and a void key is built only by
    engine.pack_keys and by Pmf._groups for codes past a byte."""
    def uses(module, node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = (*scope, child.name)
            elif isinstance(node, ast.If) and any(child is s for s in node.orelse):
                inner = (*scope, f"else {ast.unparse(node.test)}")
            name = child.attr if isinstance(child, ast.Attribute) else \
                child.value if isinstance(child, ast.Constant) else None
            if name in ("packbits", "void") or isinstance(name, str) \
                    and re.fullmatch(r"[|<>=]?V[0-9]+", name):
                yield module, inner, name
            yield from uses(module, child, inner)

    package = pathlib.Path(engine.__file__).parent
    found = {use for path in sorted(package.glob("*.py"))
             for use in uses(path.stem, ast.parse(path.read_text()), ())}
    assert found <= {("engine", ("pack_keys",), "void"),
                     ("dist", ("Pmf", "_groups", "else self.modulus < 256"), "void")}, found


def copied(table):
    """A table's columns, BOT masks and alive flags, copied."""
    return ([table.cols[v].copy() for v in table.domain],
            [None if table.bots[v] is None else table.bots[v].copy() for v in table.domain],
            table.alive.copy())


def assert_unchanged(table, copy):
    cols, bots, alive = copied(table)
    assert all(np.array_equal(a, b) for a, b in zip(cols, copy[0]))
    assert all((a is None) == (b is None) and (a is None or np.array_equal(a, b))
               for a, b in zip(bots, copy[1]))
    assert np.array_equal(alive, copy[2])


def test_arena_never_escapes(monkeypatch):
    """Tables folded outside count_runs, held across its calls, keep their
    columns; what it returns shares no memory with its arena, and two
    counts are equal."""
    protocol, fn, _ = load_package("bdoz-beaver")
    deal = bdoz_beaver_trimmed()
    monkeypatch.setattr(engine, "BLOCK_ROWS", 256)  # 16 blocks of the trimmed deal
    held = [engine.fold(protocol, deal), engine.fold(protocol, deal, block=(0, 256)),
            engine.fold(protocol, deal, block=(256, 512))]
    copies = [copied(t) for t in held]
    arenas = []
    fold = engine.fold

    def recording(*args):
        if len(args) > 5 and args[5] is not None:
            arenas.append(args[5])
        return fold(*args)

    monkeypatch.setattr(engine, "fold", recording)
    for vars_ in (bd_domain(protocol, deal), fn.secrets + fn.outputs):
        first = engine.count_runs(protocol, deal, vars_, abort_lead=True)
        kept = [a.copy() for a in first]
        second = engine.count_runs(protocol, deal, vars_, abort_lead=True)
        assert_same_rows(kept, first)
        assert_same_rows(first, second)
        buffers = [buf for arena in arenas for buf in arena.values()]
        assert buffers
        assert not any(np.shares_memory(a, b) for a in first + second for b in buffers)
    for table, copy in zip(held, copies):
        assert_unchanged(table, copy)


# 128 runs: 32 memories of s[a], s[b], s[c], s[d], s[e] times 4 tapes of
# r[k0], r[k1].  The runs with s[a] = {0} abort; s[a] leads the deal, so
# they are one half, and only that half's blocks have BOT masks
PARTLY_ABORTING = ("m[u]@2 := s[a] xor r[k0] @ 1;\n"
                   "assert (s[a] == {1}) @ 1;\n"
                   "m[v]@2 := s[b] and r[k1] @ 1;\n"
                   "m[w]@1 := s[c] xor s[d] @ 2;\n"
                   "m[o]@2 := OT(s[e] @ 2 ; not s[b], s[a] and r[k0]) @ 1;\n"
                   "m[n]@1 := not (m[u] xor s[e]) @ 2;\n"
                   "out@2 := m[u] xor m[v] xor s[e] @ 2;\n")


@pytest.mark.parametrize("late", (True, False))
def test_blocked_counts_with_bot_in_some_blocks(monkeypatch, late):
    """The later blocks have BOT masks, or the earlier ones: then a row
    without BOT comes first in a block keyed at 2 bits."""
    protocol = parse_protocol(PARTLY_ABORTING.format(*((1, 0) if late else (0, 1))))
    deal = default_preprocessing(protocol)
    assert deal.domain[0] == parse_var("s[a]@1") and deal.count() * 4 == 128
    assert_rows_match(protocol, deal)  # the one block, against the interpreter
    v = {name: parse_var(name)
         for name in ("m[u]@2", "m[v]@2", "m[w]@1", "m[o]@2", "m[n]@1", "out@2", "s[b]@1")}
    given = {v["m[u]@2"]: 1}
    for size in (8, 5):  # 16 and 26 blocks, half of them without BOT
        blocks = [engine.fold(protocol, deal, block=(lo, min(lo + size, 128)))
                  for lo in range(0, 128, size)]
        assert blocks[0 if late else -1].alive.all()
        assert not blocks[-1 if late else 0].alive.any()
        # the key width and the path each block takes: (v) 2 or 4 bins, dense
        # both ways; (u, v) 4 bins dense, 16 sorted; (v, ..., b) sorted both
        for vars_ in ((v["m[v]@2"],), (v["m[u]@2"], v["m[v]@2"]), tuple(v.values())[1:]):
            for kw in (dict(), dict(first=False), dict(abort_lead=True),
                       dict(given=given)):
                one, blocked = one_and_blocked(
                    monkeypatch, size, lambda: engine.count_runs(protocol, deal, vars_, **kw))
                assert_same_rows(one, blocked)
                assert (one[0] == engine.BOT_CODE).any() and (one[0] != engine.BOT_CODE).all(1).any()


def full_support(n: int, wide: bool) -> str:
    """Clients 1 and 2 each send client 3 n secret bits under one-time
    pads, and with wide the pads too: 2^(4n) runs, and the view of client
    3 with the secrets takes a distinct row in every run."""
    lines = []
    for c in (1, 2):
        for i in range(n):
            lines.append(f"m[z{c}{i}]@3 := s[x{c}{i}] xor r[k{c}{i}] @ {c};\n")
            if wide:
                lines.append(f"m[k{c}{i}]@3 := r[k{c}{i}] @ {c};\n")
    return "".join(lines)


def test_full_support_blocks_equal_one_block(monkeypatch, tmp_path):
    """hold3 and wide3 (2^12 runs) counted in 16 blocks of 256: every
    distinct row is new in its block, so the blocks merge by sort alone."""
    for name, wide, verdict in (("hold3", False, "holds"), ("wide3", True, "FAILS")):
        path = tmp_path / f"{name}.ovt"
        path.write_text(full_support(3, wide))
        protocol = parse_protocol(path.read_text())
        deal = default_preprocessing(protocol)
        view = [v for v in bd_domain(protocol, deal) if v.owner == 3 or v.kind == SECRET]
        one, blocked = one_and_blocked(
            monkeypatch, 256, lambda: engine.count_runs(protocol, deal, view))
        assert_same_rows(one, blocked)
        assert len(one[0]) == 2 ** 12
        for prop in ("gradual-release", "nimo"):
            argv = ["verify", str(path), "--property", prop, "--corrupt", "3"]
            one, blocked = one_and_blocked(monkeypatch, 256, lambda: cli_out(argv))
            assert one == blocked, argv
        assert verdict in cli_out(["verify", str(path), "--property", "gradual-release",
                                   "--corrupt", "3"])[1]


# m[z]@2 is assigned by the protocol, and dealt too by a deal that holds it
ASSIGNED = ("m[z]@2 := s[x] xor r[k] @ 1;\n"
            "m[w]@1 := m[z] and s[y] @ 2;\n"
            "out@1 := m[w] xor s[x] @ 1;\n")


def test_dealt_variable_the_protocol_assigns_raises(monkeypatch):
    """fold and count_runs, called directly with a deal that holds a
    variable the protocol assigns, raise on one block and on many, for
    every set of kept variables, also once that set's schedule is cached
    from a fold of a deal without it, whether the deal is described or
    read from its memories."""
    protocol = parse_protocol(ASSIGNED)
    x, y, z, w, out = map(parse_var, ("s[x]@1", "s[y]@2", "m[z]@2", "m[w]@1", "out@1"))
    clean = UniformPreprocessing([x, y])
    read = ExplicitPreprocessing([x, y, z], [dict(zip((x, y, z), bits))
                                             for bits in itertools.product((0, 1), repeat=3)])
    for clash in (UniformPreprocessing([x, y, z]), read):
        for size in (engine.BLOCK_ROWS, 4):  # the 16 runs of the clash in one block, or in four
            with monkeypatch.context() as m:
                m.setattr(engine, "BLOCK_ROWS", size)
                for vars_ in ((out,), (z,), (x, w), ()):
                    engine.count_runs(protocol, clean, vars_)
                    with pytest.raises(EvalError, match="assigned twice"):
                        engine.count_runs(protocol, clash, vars_)
        engine.fold(protocol, clean)
        for block in (None, (0, 1), (4, 16)):
            with pytest.raises(EvalError, match=r"m\[z\]@2 assigned twice"):
                engine.fold(protocol, clash, block=block)


# minor faults of one count_runs over 4 blocks of the Beaver deal (its
# last three free variables pinned) for the variables of nimo --corrupt 2,
# after a warm-up, in a fresh process, when each block allocated its
# columns afresh: 898 to 1,208, by how the deal was built (Linux, glibc,
# numpy 2.4)
FRESH_COLUMN_FAULTS = 898
COUNT_FAULTS = """
import resource
from overture import engine, verifier
from overture.lang import MESG, Partition, Var
from overture.stdlib import BdozPreprocessing, load_package
protocol, _, deal = load_package("bdoz-beaver")
pinned = (Var(MESG, "keyc2", 1), Var(MESG, "delta", 1), Var(MESG, "delta", 2))
deal = BdozPreprocessing(deal.values, deal.secret_owners, deal.triple,
                         fixed=dict.fromkeys(pinned, 0))
assert engine._runs(protocol, deal) == 4 * engine.BLOCK_ROWS
part = Partition.of(protocol.federation, [2])
secrets = verifier._dealt_secrets(protocol, deal)
x1 = verifier.owned_by(secrets, part.corrupt) + protocol.output_vars()
views = tuple(dict.fromkeys(verifier.corrupt_views(protocol, part)))
vars_ = tuple(dict.fromkeys(x1 + views + verifier.owned_by(secrets, part.honest)))
engine.count_runs(protocol, deal, vars_)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
engine.count_runs(protocol, deal, vars_)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_minflt counts minor page faults on Linux")
def test_blocks_fault_in_no_fresh_columns():
    """Measured in a fresh process: what earlier tests allocated and freed
    decides whether the allocator hands freed memory back to the system."""
    src = os.path.dirname(os.path.dirname(engine.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", COUNT_FAULTS], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert int(out) < FRESH_COLUMN_FAULTS / 10


def interpreter_counts(protocol, deal, vars_, strategy=None, part=None, given=None) -> dict:
    """Run counts by codes over vars_ (BOT as BOT_CODE) of the interpreter's
    runs where every variable of given holds its value."""
    counts: dict = {}
    for m in sweep(protocol, deal, strategy, part):
        if all(m[v] == x for v, x in (given or {}).items()):
            key = tuple(engine.BOT_CODE if m[v] is BOT else m[v] for v in vars_)
            counts[key] = counts.get(key, 0) + 1
    return counts


def assert_counts(monkeypatch, protocol, vars_, strategy=None, part=None, given=None):
    """count_runs over vars_ equal on one block and on blocks of 8 and of
    5 runs, where a count keeps only the columns of vars_ and given, and
    equal to the interpreter's counts."""
    deal = default_preprocessing(protocol)
    want = interpreter_counts(protocol, deal, vars_, strategy, part, given)
    for size in SIZES:
        one, blocked = one_and_blocked(monkeypatch, size, lambda: engine.count_runs(
            protocol, deal, vars_, strategy, part, given=given))
        assert_same_rows(one, blocked)
        assert dict(zip(map(tuple, one[0].tolist()), one[1].tolist())) == want


# one expression text under two computing clients: m[a] and m[b] read
# different variables, so they share no value, while m[c], the commuted
# text under client 1 again, shares m[a]'s
TWO_CLIENTS = ("m[a]@2 := s[x] xor r[k] @ 1;\n"
               "m[b]@1 := s[x] xor r[k] @ 2;\n"
               "m[c]@2 := r[k] xor s[x] @ 1;\n"
               "out@1 := m[b] xor s[x] @ 1;\n"
               "out@2 := m[a] xor m[c] @ 2;\n")


def test_one_text_under_two_clients_is_not_merged(monkeypatch):
    protocol = parse_protocol(TWO_CLIENTS)
    program = engine._compile(protocol, default_preprocessing(protocol))
    assert sum(ins[0] is np.bitwise_xor for ins in program.code) == 4  # a = c, b and the outputs
    slot = {ins[3]: ins[2][0] for ins in program.code if ins[0] == "def"}
    a, b, c = (parse_var(v) for v in ("m[a]@2", "m[b]@1", "m[c]@2"))
    assert slot[a] == slot[c] != slot[b]
    assert_rows_match(protocol)
    assert_counts(monkeypatch, protocol, bd_domain(protocol, default_preprocessing(protocol)))


# m[a] and m[b] compute one expression and share its value; a family
# tampers m[a] alone, with the option s[x] and r[k], m[c]'s expression
SHARED = ("m[a]@2 := s[x] xor r[k] @ 1;\n"
          "m[b]@2 := s[x] xor r[k] @ 1;\n"
          "m[c]@2 := s[x] and r[k] @ 1;\n"
          "out@2 := m[a] xor m[b] xor m[c] @ 2;\n")


def test_tampered_position_whose_expression_a_later_command_shares(monkeypatch):
    protocol = parse_protocol(SHARED)
    part = Partition.of(protocol.federation, [1])
    both = BinOp("and", Ref(SECRET, "x"), Ref(FLIP, "k"))
    strategies = (IDENTITY, AdversaryStrategy(((0, Const(1)),)), AdversaryStrategy(((0, both),)),
                  AdversaryStrategy(((0, BinOp("xor", both, Const(1))),)))
    assert_family_rows_match(monkeypatch, protocol, None, strategies, part)
    vars_ = bd_domain(protocol, default_preprocessing(protocol))
    for strategy in strategies[1:]:
        assert_counts(monkeypatch, protocol, vars_, strategy, part)


# OT and OT4 over 32 runs; m[p] repeats m[o]'s transfer and shares its value
OTS = ("m[o]@2 := OT(s[c] @ 2 ; s[a] xor r[k], s[b]) @ 1;\n"
       "m[q]@2 := OT4(s[c], r[j] @ 2 ; s[a], not s[b], s[a] and r[k], 1) @ 1;\n"
       "m[p]@2 := OT(s[c] @ 2 ; s[a] xor r[k], s[b]) @ 1;\n"
       "out@2 := m[o] xor m[q] xor m[p] @ 2;\n")


def test_ot_and_ot4_across_block_edges(monkeypatch):
    protocol = parse_protocol(OTS)
    assert_rows_match(protocol)
    domain = bd_domain(protocol, default_preprocessing(protocol))
    assert len(interpreter_counts(protocol, default_preprocessing(protocol), domain)) == 32
    for vars_ in (domain, domain[-3:], (parse_var("m[q]@2"),)):
        assert_counts(monkeypatch, protocol, vars_)


def test_counted_variable_that_a_later_command_reads(monkeypatch):
    """m[u] is read by the last two commands after it is counted; alone,
    its register must outlive the registers reused around it."""
    protocol = parse_protocol(PARTLY_ABORTING.format(0, 1))
    u, n, out = (parse_var(v) for v in ("m[u]@2", "m[n]@1", "out@2"))
    for vars_ in ((u,), (u, out), (n, u)):
        assert_counts(monkeypatch, protocol, vars_)


def test_pmf_given_outside_the_shown_marginal(monkeypatch, tmp_path):
    """The given variables are kept through the count though not shown;
    m[v] is BOT in the aborted runs, which no given value matches."""
    path = tmp_path / "partly.ovt"
    path.write_text(PARTLY_ABORTING.format(0, 1))
    protocol = parse_protocol(path.read_text())
    u, v, w, out = (parse_var(x) for x in ("m[u]@2", "m[v]@2", "m[w]@1", "out@2"))
    for given, shown in (({u: 1}, (out,)), ({v: 0}, (w, out)), ({u: 0, v: 1}, (w,))):
        assert_counts(monkeypatch, protocol, shown, given=given)
        argv = ["pmf", str(path), "--given", ",".join(f"{x}={y}" for x, y in given.items()),
                "--marginal", ",".join(map(str, shown))]
        for size in SIZES:
            one, blocked = one_and_blocked(monkeypatch, size, lambda: cli_out(argv))
            assert one == blocked and one[0] == 0 and one[1]


def nimo_vars(protocol, deal, corrupt):
    """The variables that nimo counts for the corrupt clients."""
    part = Partition.of(protocol.federation, corrupt)
    secrets = verifier._dealt_secrets(protocol, deal)
    x1 = verifier.owned_by(secrets, part.corrupt) + protocol.output_vars()
    views = tuple(dict.fromkeys(verifier.corrupt_views(protocol, part)))
    return tuple(dict.fromkeys(x1 + views + verifier.owned_by(secrets, part.honest)))


# buffers in each arena of a count of nimo --corrupt 2's 12 variables over
# the full Beaver deal: the abort pass holds 22 registers, which hold the
# deal's derived columns too, and alive, the count 12 and alive.  When one
# arena held the assertions and the variables, 24 registers and alive; when
# the 13 derived deal columns had buffers of their own beside 12 registers,
# 26; when each assigned variable and fold mask had its own, 35
ARENA_BUFFERS = 26


def test_count_keeps_few_arena_buffers(monkeypatch):
    protocol, _, deal = load_package("bdoz-beaver")
    vars_ = nimo_vars(protocol, deal, [2])
    assert len(vars_) == 12
    arenas = []
    fold = engine.fold

    def recording(*args):
        arenas.append(args[5])
        return fold(*args)

    monkeypatch.setattr(engine, "fold", recording)
    engine.count_runs(protocol, deal, vars_)
    # two passes, the abort pass and then the count, each folding its
    # distinct blocks once, all into one arena of its own
    passes = list({id(arena): arena for arena in arenas}.values())
    assert len(passes) == 2
    counting = [arena is passes[1] for arena in arenas]
    assert counting == sorted(counting)  # every fold of the abort pass first
    for arena in passes:
        blocks = arena.plan.blocks
        assert len(blocks) == deal.count() // engine.BLOCK_ROWS
        folded = sum(a is arena for a in arenas)
        assert folded == sum(type(b) is not int for b in blocks.values()) < len(blocks)
        assert len(arena) <= ARENA_BUFFERS


# 128 runs: 32 memories of s[a] to s[e] times 4 tapes of r[k0], r[k1].  The
# honest assertion holds wherever s[b] = 1, as (not r[k0]) or r[k0], though
# no F_2 identity of the plan shows it, and fails where s[b] = r[k0] = 0.
# s[b] is bit 5 of the run, so blocks of 8 runs, and of 4 (BLOCK_ROWS 5),
# are clean and not clean in turns of 32 runs
INTERLEAVED = ("m[u]@2 := s[a] xor r[k0] @ 1;\n"
               "assert (((s[b] xor r[k0]) or r[k0]) == 1) @ 1;\n"
               "m[v]@2 := s[c] and r[k1] @ 1;\n"
               "m[w]@1 := s[d] xor s[e] @ 2;\n"
               "out@2 := m[u] xor m[v] xor s[e] @ 2;\n")


def test_abort_pass_over_interleaved_clean_blocks(monkeypatch):
    """Blocked counts, whose abort pass finds some blocks clean and others
    not, equal one block's and the interpreter's: codes, counts and first
    runs, with the abort lead and with given."""
    protocol = parse_protocol(INTERLEAVED)
    deal = default_preprocessing(protocol)
    out, u = parse_var("out@2"), parse_var("m[u]@2")
    # an aborted run is BOT at out, the last command, and only there
    finals = [{**m, "aborted": int(m[out] is BOT)} for m in sweep(protocol, deal)]
    found = []
    clean = engine._clean
    monkeypatch.setattr(engine, "_clean", lambda *args: found.append(clean(*args)) or found[-1])
    for vars_ in (bd_domain(protocol, deal), (parse_var("m[v]@2"), out)):
        for kw in (dict(), dict(abort_lead=True), dict(given={u: 1}),
                   dict(given={u: 0}, abort_lead=True)):
            def count():
                return engine.count_runs(protocol, deal, vars_, **kw)
            found.clear()
            one = count()
            for size in SIZES:
                with monkeypatch.context() as m:
                    m.setattr(engine, "BLOCK_ROWS", size)
                    assert_same_rows(one, count())
                blocks = range(0, 128, 1 << size.bit_length() - 1)
                assert 0 < len(found[-1]) < len(blocks) and found[-1] <= set(blocks)
            assert found[:2] == [frozenset(), {32, 40, 48, 56, 96, 104, 112, 120}]
            codes, counts, first = one
            got = {tuple(row): [n, f]
                   for row, n, f in zip(codes.tolist(), counts.tolist(), first.tolist())}
            lead = ("aborted",) if kw.get("abort_lead") else ()
            assert got == reference_rows(finals, lead + vars_, kw.get("given", {})), kw


def test_full_beaver_counts_fold_blocks_of_distinct_kept_values(monkeypatch):
    """On the full Beaver deal the abort pass folds the 15 blocks of
    distinct assertion ids and finds all 32 clean.  The count then folds
    only the blocks of distinct kept values: 1 for correct, whose kept
    values are the same ids in every block, and 4 for nimo and
    gradual-release."""
    folds, found = [], []
    fold, clean = engine.fold, engine._clean

    def recording(*args, **kwargs):
        folds.append(args[5] if len(args) > 5 else kwargs.get("arena"))
        return fold(*args, **kwargs)

    monkeypatch.setattr(engine, "fold", recording)
    monkeypatch.setattr(engine, "_clean", lambda *args: found.append(clean(*args)) or found[-1])
    everything = frozenset(range(0, 2 ** 21, engine.BLOCK_ROWS))
    for prop, kept in (("correct", 1), ("nimo", 4), ("gradual-release", 4)):
        folds.clear()
        found.clear()
        corrupt = [] if prop == "correct" else ["--corrupt", "2"]
        rc, text = cli_out(["verify", "bdoz-beaver", "--property", prop, *corrupt])
        assert rc == 0 and text.split("\n")[0].endswith(": holds")
        passes = list({id(arena): arena for arena in folds}.values())
        assert [sum(a is arena for a in folds) for arena in passes] == [15, kept], prop
        assert found == [everything]


def test_no_abort_pass_without_an_assertion_or_over_a_read_deal(monkeypatch):
    """A blocked count plans once, for the count, where the program has no
    assert or the deal is read from its columns, whose blocks never share
    a fold; over a described deal, an asserting program plans its abort
    pass first.  Each counts the interpreter's runs."""
    gmw, _, _ = load_package("gmw-and")
    interleaved = parse_protocol(INTERLEAVED)
    uniform = default_preprocessing(interleaved)
    read = ExplicitPreprocessing(uniform.domain, list(uniform.memories()))
    plans = []
    plan = engine._plan
    monkeypatch.setattr(engine, "_plan", lambda *args: plans.append(args[1]) or plan(*args))
    monkeypatch.setattr(engine, "BLOCK_ROWS", 8)
    for protocol, deal, passes in ((gmw, default_preprocessing(gmw), 1), (interleaved, read, 1),
                                   (interleaved, uniform, 2)):
        vars_ = bd_domain(protocol, deal)
        plans.clear()
        codes, counts, _ = engine.count_runs(protocol, deal, vars_)
        assert plans == [frozenset(), frozenset(vars_)][-passes:]
        assert dict(zip(map(tuple, codes.tolist()), counts.tolist())) == \
            interpreter_counts(protocol, deal, vars_)


def pinned_beaver(npin: int):
    """The Beaver protocol and its full deal with npin free variables
    pinned, chosen and valued by a seed of npin: 2^(21 - npin) runs."""
    protocol, _, full = load_package("bdoz-beaver")
    rng = random.Random(npin)
    fixed = {v: rng.randrange(2) for v in rng.sample(full._free, npin)}
    return protocol, BdozPreprocessing(full.values, full.secret_owners, full.triple, fixed)


def reference_rows(finals, vars_, given) -> dict:
    """{code row: [runs, first counted run]} of the interpreter's final
    memories over vars_ where every variable of given holds its value."""
    rows, counted = {}, 0
    for m in finals:
        if all(m[v] == x for v, x in given.items()):
            key = tuple(engine.BOT_CODE if m[v] is BOT else m[v] for v in vars_)
            rows.setdefault(key, [0, counted])[0] += 1
            counted += 1
    return rows


def test_specialized_counts_on_pinned_beaver_deals(monkeypatch):
    """Pinned Beaver deals of 2^12 to 2^14 runs, counted in blocks of 2^6
    and 2^8 runs (2^12 runs also of 5, so blocks of 4), over which the high
    run-index bits are pinned constants: codes, counts and first runs equal
    one block's, and on 2^12 runs, passive and under the share lie, where
    half of the runs abort, the interpreter's."""
    for npin in (9, 8, 7):
        protocol, deal = pinned_beaver(npin)
        assert deal.count() == 2 ** (21 - npin)
        part = Partition.of(protocol.federation, [2])
        lie = AdversaryStrategy(((3, BinOp("+", protocol.commands[3].expr, Const(1))),))
        for strategy in (None, lie) if npin == 9 else (None,):
            finals = sweep(protocol, deal, strategy, part) if npin == 9 else None
            for wide, vars_ in enumerate((nimo_vars(protocol, deal, [2]),
                                          bd_domain(protocol, deal)[::3])):
                given = {deal.secret_vars[0]: 1}
                for kw in (dict(), dict(abort_lead=True), dict(given=given, first=False),
                           dict(given=given, abort_lead=True, first=False)):
                    def count():
                        return engine.count_runs(protocol, deal, vars_, strategy, part, **kw)
                    with monkeypatch.context() as m:
                        m.setattr(engine, "BLOCK_ROWS", deal.count())
                        one = count()
                    sizes = (2 ** 6, 2 ** 8) + ((5,) if npin == 9 and not (strategy or wide) else ())
                    for size in sizes:
                        with monkeypatch.context() as m:
                            m.setattr(engine, "BLOCK_ROWS", size)
                            assert_same_rows(one, count())
                    if finals is None or "abort_lead" in kw:
                        continue
                    codes, counts, first = one
                    first = first.tolist() if "first" not in kw else [None] * len(counts)
                    got = {tuple(row): [n, f] for row, n, f in zip(codes.tolist(), counts.tolist(), first)}
                    want = reference_rows(finals, vars_, kw.get("given", {}))
                    if "first" in kw:
                        want = {row: [n, None] for row, (n, _) in want.items()}
                    assert got == want, (npin, strategy, kw)
        if npin == 9:
            assert any(m[v] is BOT for m in finals for v in m)


def test_pinned_beaver_count_evaluates_few_columns(monkeypatch):
    """The count folds each distinct block once and computes each distinct
    value once: over the full Beaver deal in 32 blocks, and over a pinned
    one of 2^14 runs in 64 blocks of 2^8, far fewer column operations than
    blocks times the program's instructions."""
    plans = []
    plan = engine._plan
    monkeypatch.setattr(engine, "_plan", lambda *args: plans.append(plan(*args)) or plans[-1])
    for (protocol, deal), size in ((load_package("bdoz-beaver")[::2], engine.BLOCK_ROWS),
                                   (pinned_beaver(7), 2 ** 8)):
        with monkeypatch.context() as m:
            m.setattr(engine, "BLOCK_ROWS", size)
            engine.count_runs(protocol, deal, nimo_vars(protocol, deal, [2]))
        blocks = plans[-1].blocks
        assert len(blocks) == deal.count() // size
        assert sum(type(b) is not int for b in blocks.values()) < len(blocks)
        computed = sum(len(b[1]) for b in blocks.values() if type(b) is not int)  # (inputs, code, events)
        program = engine._program(protocol, deal, None, None)
        instructions = sum(out is not None for _, out, _, _ in program.code)
        assert 0 < computed * 20 < len(blocks) * instructions, (computed, len(blocks), instructions)


def test_count_over_no_variables_totals_every_run(monkeypatch):
    """Blocks whose tables hold nothing are equal but for their length: a
    short last block is counted with its own runs, not a full block's."""
    gmw, _, _ = load_package("gmw-and")
    flipped = parse_protocol("m[z]@2 := s[a] xor r[k] xor r[j] @ 1;\n"
                             "out@2 := m[z] @ 2;\n")
    a = parse_var("s[a]@1")
    odd = ExplicitPreprocessing([a], [{a: 1}, {a: 0}, {a: 1}])
    part = Partition.of(gmw.federation, [2])
    three = engine.family_of(enumerate_adversaries(gmw, part)[:3])
    for protocol, deal, strategy, runs in ((flipped, odd, None, 12), (gmw, None, three, 96)):
        deal = deal or default_preprocessing(protocol)
        for size in (8, 5, 2):
            with monkeypatch.context() as m:
                m.setattr(engine, "BLOCK_ROWS", size)
                codes, counts, first = engine.count_runs(protocol, deal, (), strategy, part)
            assert codes.shape == (1, 0) and counts.tolist() == [runs] and first.tolist() == [0]


def test_read_deal_counts_in_blocks(monkeypatch):
    """A deal read from its memories, 37 distinct ones under one coin
    flip, counted in blocks that each read part of it (the last block of
    16 runs reads memories 32 to 36): equal to one block, first runs
    included, and to the interpreter."""
    protocol = parse_protocol("m[z]@2 := s[x0] xor s[x1] xor r[k] @ 1;\n"
                              "m[w]@1 := m[z] and s[y] @ 2;\n"
                              "out@1 := m[w] xor s[x2] @ 1;\n")
    dealt = [parse_var(f"s[x{i}]@1") for i in range(6)] + [parse_var("s[y]@2")]
    memories = [[i >> j & 1 for j in range(7)] for i in random.Random(9).sample(range(128), 37)]
    deal = ExplicitPreprocessing(dealt, [dict(zip(dealt, bits)) for bits in memories])
    vars_ = bd_domain(protocol, deal)
    want = interpreter_counts(protocol, deal, vars_)
    assert len(want) == 74
    for size in (16, *SIZES):
        one, blocked = one_and_blocked(
            monkeypatch, size, lambda: engine.count_runs(protocol, deal, vars_))
        assert_same_rows(one, blocked)
        assert dict(zip(map(tuple, one[0].tolist()), one[1].tolist())) == want


def test_unaligned_blocks_of_one_plan(monkeypatch):
    """A plan keys a row-index bit's column by its phase and length, so
    blocks that are not aligned share only equal columns."""
    protocol, _, _ = load_package("gmw-and")
    deal = default_preprocessing(protocol)
    whole = table_codes(engine.fold(protocol, deal))
    program = engine._program(protocol, deal, None, None)
    spans = [(3, 7), (8, 12), (19, 23), (25, 29)]
    arena = engine._Arena(4, engine._plan(program, None, spans))
    for lo, hi in spans:
        assert table_codes(engine.fold(protocol, deal, None, None, (lo, hi), arena)) == whole[lo:hi]


COUNT_DIGEST = """
import hashlib, sys
from overture import engine
from overture.stdlib import bdoz_beaver_trimmed, load_package
protocol, fn, full = load_package("bdoz-beaver")
deals = {"full": full, "trimmed": bdoz_beaver_trimmed()}
vars_ = fn.secrets + fn.outputs + tuple(v for v in protocol.assigned() if v.owner == 2)[:4]
for name in sys.argv[1:]:
    rows = engine.count_runs(protocol, deals[name], vars_, abort_lead=True)
    print(name, hashlib.sha1(b"".join(a.tobytes() for a in rows)).hexdigest())
"""


def test_counts_of_two_deals_of_one_protocol_equal_fresh_processes():
    """The compiled program holds the deal: the trimmed deal counted and
    then the full one (and back) in one process equal each counted in a
    fresh process."""
    src = os.path.dirname(os.path.dirname(engine.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))

    def digests(*names):
        return subprocess.run([sys.executable, "-c", COUNT_DIGEST, *names], env=env, check=True,
                              capture_output=True, text=True, timeout=60).stdout.splitlines()

    one_process = digests("trimmed", "full", "trimmed")
    assert one_process == digests("trimmed") + digests("full") + digests("trimmed")
    assert one_process[0] != one_process[1]
