"""The front end built once per source text, and nothing after it kept.

stdlib.protocol_of loads each distinct source text once a process, and a
protocol keeps what is derived from it alone: its violations, its passive
programs (one per deal as _compile reads it) and their plans.  A rewritten
file must still give its new verdict, deals must share a program only when
_compile would build the same one, and a repeated command must fold as
often as the first: no verdict or count is kept.
"""

import contextlib
import gc
import io
import weakref

from overture import cli, engine, stdlib
from overture.dist import ExplicitPreprocessing, UniformPreprocessing
from overture.lang import parse_var
from overture.ovt import parse_protocol
from overture.stdlib import protocols_dir
from test_blocks import assert_same_rows, interpreter_counts

PROTOCOL = ("m[z]@2 := s[x] xor r[k] @ 1;\n"
            "m[w]@1 := m[z] and s[y] @ 2;\n"
            "out@1 := m[w] xor r[k] @ 1;\n")


def verify(*argv):
    """(exit code, stdout) of one `overture verify` in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(["verify", *argv])
    return rc, out.getvalue()


def counting(monkeypatch, name, record):
    """Replace engine.<name> by a wrapper that calls record(*args) first."""
    original = getattr(engine, name)
    monkeypatch.setattr(engine, name, lambda *a, **k: record(*a) or original(*a, **k))


def test_rewritten_files_give_new_verdicts(tmp_path):
    """A .pre and an .ovt file, each rewritten between two verify calls of
    one process, give the verdict of their new text."""
    def source(name):
        with open(f"{protocols_dir()}/{name}") as fh:
            return fh.read()

    main, lib = tmp_path / "main.pre", tmp_path / "gmw.pre"
    lib.write_text(source("gmw.pre"))
    correct = ("--property", "correct", "--functionality", "and2", "--lib", str(lib))
    for text, rc in ((source("gmw_and.pre"), 0), (source("gmw_xor.pre"), 1),
                     (source("gmw_and.pre"), 0)):
        main.write_text(text)
        assert verify(str(main), *correct)[0] == rc
    ovt = tmp_path / "p.ovt"
    for text, verdict in (("leaky.ovt", "FAILS"), ("otp.ovt", "holds"), ("leaky.ovt", "FAILS")):
        ovt.write_text(source(text))
        assert f"nimo[corrupt={{2}}]: {verdict}" in verify(
            str(ovt), "--property", "nimo", "--corrupt", "2")[1]


def test_equal_uniform_deals_share_one_program(monkeypatch):
    protocol = parse_protocol(PROTOCOL)
    compiled = []
    counting(monkeypatch, "_compile", lambda *a: compiled.append(a))
    counts = [engine.count_runs(protocol, UniformPreprocessing(protocol.secrets()),
                                protocol.output_vars()) for _ in range(2)]
    assert len(compiled) == 1
    assert_same_rows(*counts)


def test_explicit_deals_of_one_domain_compile_apart(monkeypatch):
    """Deals with no description are keyed by identity: two of one domain
    and different memories compile twice, and each counts its own runs."""
    protocol = parse_protocol(PROTOCOL)
    x, y = parse_var("s[x]@1"), parse_var("s[y]@2")
    deals = [ExplicitPreprocessing([x, y], [{x: 0, y: 1}, {x: 1, y: 1}]),
             ExplicitPreprocessing([x, y], [{x: 0, y: 0}, {x: 1, y: 0}, {x: 1, y: 1}])]
    compiled = []
    counting(monkeypatch, "_compile", lambda *a: compiled.append(a))
    vars_ = (x, y, *protocol.assigned())
    for deal in deals + deals:
        codes, counts, _ = engine.count_runs(protocol, deal, vars_)
        assert dict(zip(map(tuple, codes.tolist()), counts.tolist())) == \
            interpreter_counts(protocol, deal, vars_)
    assert [a[1] for a in compiled] == deals


def test_smaller_blocks_after_a_default_count(monkeypatch):
    """A program keeps a plan per block spans: a count after BLOCK_ROWS is
    cut, following a default count of the same protocol, equals it."""
    protocol = parse_protocol(PROTOCOL)
    deal = UniformPreprocessing(protocol.secrets())
    vars_ = protocol.secrets() + protocol.assigned()
    one = engine.count_runs(protocol, deal, vars_)
    with monkeypatch.context() as m:
        m.setattr(engine, "BLOCK_ROWS", 2)
        blocked = engine.count_runs(protocol, deal, vars_)
    assert_same_rows(one, blocked)
    assert len(engine._program(protocol, deal, None, None).plans) == 2


def test_repeated_commands_build_the_front_end_once(monkeypatch):
    """nimo on the full Beaver deal twice, then on every partition of
    shamir-add3: each (protocol, deal) compiles once and each kept set
    makes one symbolic pass, while the second Beaver command folds exactly
    as often as the first."""
    stdlib.protocol_of.cache_clear()  # earlier tests may have loaded these packages
    compiled, passes, folds = [], [], []
    counting(monkeypatch, "_compile", lambda p, deal, *rest: compiled.append(
        (p, engine._deal_key(deal))))
    counting(monkeypatch, "_specialize", lambda program, keep, *rest: passes.append(
        (id(program), keep)))
    counting(monkeypatch, "fold", lambda *a: folds.append(a[0]))
    beaver = ("bdoz-beaver", "--property", "nimo", "--corrupt", "2")
    per_run = []
    for argv in (beaver, beaver, ("shamir-add3", "--property", "nimo", "--all-partitions")):
        before = len(folds), len(passes)
        assert verify(*argv)[0] == 0
        per_run.append((len(folds) - before[0], len(passes) - before[1]))
    assert len(compiled) == len(set(compiled)) == 2
    assert len(passes) == len(set(passes))
    assert per_run[0][0] == per_run[1][0] > 0
    assert per_run[0][1] > 0 and per_run[1][1] == 0


def test_programs_of_explicit_deals_are_freed_with_them():
    """A deal with no description is keyed by identity, so its program is
    kept only while the deal lives: 200 counts over fresh one-memory deals
    of a loaded protocol leave at most a handful of programs held."""
    protocol = stdlib.load_package("gmw-and")[0]
    secrets = protocol.secrets()
    for i in range(200):
        deal = ExplicitPreprocessing(secrets, [{v: i >> j & 1 for j, v in enumerate(secrets)}])
        engine.count_runs(protocol, deal, protocol.output_vars())
    del deal
    gc.collect()
    held = [v for v in protocol._memo.values() if isinstance(v, engine._Program)]
    held += [v for d in protocol._memo.values() if isinstance(d, weakref.WeakKeyDictionary)
             for v in d.values()]
    assert len(held) <= 4
