"""Command-line front end: exit codes, golden output, determinism."""

import os
import shutil
import sys
import time

import pytest

from overture import cli, datalog, dist, engine, interp, lang, stdlib, verifier
from overture.cli import main
from overture.errors import UsageError
from overture.dist import Pmf, UniformPreprocessing, bd
from overture.lang import Partition, parse_var
from overture.ovt import parse_protocol
from overture.stdlib import protocols_dir
from test_dist import per_line_format_pmf
from test_golden_cli import forbid_key_views
from test_engine import FLIPS64, never_allocate


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_pmf_marginal_golden(capsys):
    rc, out, err = run_cli(capsys, "pmf", "otp", "--marginal", "m[z]@2")
    assert rc == 0 and err == ""
    assert out == "m[z]@2=0 weight=1/2\nm[z]@2=1 weight=1/2\n"


def test_pmf_given(capsys):
    rc, out, _ = run_cli(capsys, "pmf", "otp", "--marginal", "s[x]@1",
                         "--given", "m[z]@2=1,m[k]@2=0")
    assert rc == 0
    assert out == "s[x]@1=1 weight=1/1\n"
    rc, _, err = run_cli(capsys, "pmf", "otp", "--given", "out@2=1,s[x]@1=0")
    assert rc == 2
    assert "probability zero" in err


def test_pmf_is_deterministic(capsys):
    outs = set()
    for _ in range(2):
        rc, out, _ = run_cli(capsys, "pmf", "gmw-and")
        assert rc == 0
        outs.add(out)
    assert len(outs) == 1


def test_pmf_streams_from_the_fold(monkeypatch):
    protocol, _, _ = stdlib.load_package("bdoz-beaver")
    want = per_line_format_pmf(bd(protocol, stdlib.PREPROCS["bdoz-beaver-trim"](protocol)))
    assert want.count("\n") == 4096

    def never(*args, **kwargs):
        raise AssertionError("the F_2 pmf command built a Pmf")

    monkeypatch.setattr(dist, "bd", never)
    monkeypatch.setattr(Pmf, "__init__", never)
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(text)
            return len(text)

    monkeypatch.setattr(sys, "stdout", Recorder())
    assert main(["pmf", "bdoz-beaver", "--preproc", "bdoz-beaver-trim"]) == 0
    monkeypatch.undo()
    assert len(writes) > 1
    assert max(map(len, writes)) <= dist.CHUNK_BYTES
    assert "".join(writes) == want


def test_failing_cond_checks_build_no_key_view(monkeypatch):
    """The failing AND-gate and share-invariant checks, which the golden
    file lacks, also run with no whole-table key view and no CondTable
    built (the golden test checks every verify command it holds)."""
    gate = parse_protocol("m[z]@2 := OT4(m[x], m[y] @ 2 ; 0, 0, 0, 0) @ 1;\n"
                          "m[z]@1 := r[z] @ 1;\n")
    copy = parse_protocol("m[w]@1 := s[x] @ 1;\nm[w]@2 := 0 @ 1;\nout@1 := m[w] @ 1;\n")
    forbid_key_views(monkeypatch)
    assert not verifier.check_and_gate_tactic(gate).ok
    assert not verifier.check_gmw_invariant(copy, "w", Partition.of(copy.federation, [2])).ok


def test_run_defaults_missing_inputs_to_zero(capsys):
    rc, out, _ = run_cli(capsys, "run", "otp", "--inputs", "s[x]@1=1")
    assert rc == 0
    assert out == "m[k]@2=0 m[z]@2=1 out@2=1 r[k]@1=0 s[x]@1=1\n"


def test_expand_golden(capsys):
    root = protocols_dir()
    rc, out, _ = run_cli(capsys, "expand", os.path.join(root, "gmw_and.pre"),
                         "--lib", os.path.join(root, "gmw.pre"))
    assert rc == 0
    assert out.startswith("m[s1]@1 := s[s1] xor r[s1] @ 1;\n")
    assert out.count(";\n") == 10


def test_expand_counts_dealt_values_as_defined(tmp_path, capsys):
    root = protocols_dir()
    for main_file, lib in (("bdoz_beaver.pre", "bdoz.pre"),
                           ("bdoz_open.pre", "bdoz.pre"),
                           ("gmw_gate.pre", "gmw.pre")):
        rc, _, err = run_cli(capsys, "expand", os.path.join(root, main_file),
                             "--lib", os.path.join(root, lib))
        assert rc == 0 and err == "", main_file
    # a message written only after it is read is not dealt: still a warning
    late = tmp_path / "late.pre"
    late.write_text('m["a"]@1 := m["b"] @ 2;\n'
                    'm["b"]@2 := s["x"] @ 1;\n'
                    'out@1 := m["a"] @ 1;\n')
    rc, _, err = run_cli(capsys, "expand", str(late))
    assert rc == 0
    assert err == "warning: command 0: m[b]@2 read before any write\n"


def test_verify_holds_exit_zero(capsys):
    rc, out, _ = run_cli(capsys, "verify", "gmw-and", "--property", "correct",
                         "--functionality", "and2")
    assert rc == 0
    assert "passive-correct: holds" in out
    rc, out, _ = run_cli(capsys, "verify", "gmw-gate",
                         "--property", "and-tactic")
    assert rc == 0
    assert "and-gate-tactic: holds" in out


def test_verify_failure_exit_one(capsys):
    rc, out, _ = run_cli(capsys, "verify", "leaky", "--property", "nimo",
                         "--corrupt", "2")
    assert rc == 1
    assert "nimo[corrupt={2}]: FAILS" in out
    assert "P(secrets | m1) = 1/2" in out


def test_verify_all_partitions(capsys):
    rc, out, _ = run_cli(capsys, "verify", "shamir-add3", "--property", "nimo",
                         "--all-partitions")
    assert rc == 0
    assert out.count("holds") == 6


def test_each_check_validates_once(capsys, monkeypatch):
    """The CLI and every check of one command validate the protocol once,
    and the same command again, whose source text loads to the same
    protocol, not at all; a check called through the API still validates,
    with its own message."""
    calls = []
    validate = lang.validate

    def counting(*args, **kwargs):
        calls.append(args[0])
        return validate(*args, **kwargs)

    monkeypatch.setattr(lang, "validate", counting)
    stdlib.protocol_of.cache_clear()  # earlier tests may have loaded these packages
    for argv in (("verify", "shamir-add3", "--property", "nimo", "--all-partitions"),
                 ("verify", "bdoz-beaver", "--preproc", "bdoz-beaver-trim",
                  "--property", "correct"),
                 ("verify", "gmw-and", "--property", "gradual-release", "--all-partitions")):
        for times in (1, 0):
            calls.clear()
            assert run_cli(capsys, *argv)[0] == 0
            assert len(calls) == times, argv
    invalid = parse_protocol("m[z]@2 := s[x] xor m[y] @ 1;\n")
    part = Partition.of(invalid.federation, [2])
    for check in (verifier.check_nimo, verifier.check_nimo, verifier.check_gradual_release):
        with pytest.raises(UsageError, match=r"invalid protocol: command 0: m\[y\]@1 read before"):
            check(invalid, part)


def test_verify_malicious_properties(capsys):
    rc, out, _ = run_cli(capsys, "verify", "otp",
                         "--property", "cheating-detection", "--corrupt", "1")
    assert rc == 0
    assert "cheating-detection[scope=secrets, corrupt={1}]: holds" in out
    # one-bit macs forge half the time, so even the open sends break it
    rc, out, _ = run_cli(capsys, "verify", "bdoz-open",
                         "--property", "cheating-detection", "--corrupt", "2",
                         "--positions", "3,4")
    assert rc == 1
    assert "FAILS" in out
    rc, out, _ = run_cli(capsys, "verify", "gmw-and", "--property",
                         "integrity", "--corrupt", "2")
    assert rc == 1
    assert "integrity[scope=secrets, corrupt={2}]: FAILS" in out


def test_budget_below_positions_is_noted(capsys):
    # client 1 computes two commands of otp, so a budget of one falls back
    # to the nine constant strategies; the notice goes to stderr only
    rc, out, err = run_cli(capsys, "verify", "otp", "--property",
                           "cheating-detection", "--corrupt", "1", "--budget", "1")
    rc0, out0, err0 = run_cli(capsys, "verify", "otp", "--property",
                              "cheating-detection", "--corrupt", "1")
    assert (rc, out) == (rc0, out0) == (0, (
        "cheating-detection[scope=secrets, corrupt={1}]: holds\n"
        "  adversarial inputs: m[k]@2, m[z]@2\n"
        "  36 adversarial runs over 9 strategies explained\n"))
    assert err0 == ""
    assert err == ("note: corrupt={1}: 2 tampered positions exceed --budget 1, "
                   "so only constant replacements are tried; choose at most 1 "
                   "with --positions\n")
    rc, _, err = run_cli(capsys, "verify", "otp", "--property", "integrity",
                         "--corrupt", "1", "--budget", "1", "--positions", "0")
    assert rc == 0 and err == ""


def test_table_budget_checked_before_building(capsys, monkeypatch):
    # client 2 sees six bits at command 3: 2^64 truth tables, never built
    def unbounded(*args):
        raise AssertionError("truth tables built before the budget check")

    monkeypatch.setattr(verifier, "_table_exprs", unbounded)
    rc, out, err = run_cli(capsys, "verify", "bdoz-open", "--property",
                           "cheating-detection", "--corrupt", "2",
                           "--budget", "1", "--positions", "3")
    assert rc == 2 and out == ""
    assert err == "error: strategy family exceeds 100000\n"


def test_stacked_run_budget_exits_two(capsys, monkeypatch):
    # client 2 of gmw-and: 81 strategies of 32 runs, refused before any column
    monkeypatch.setattr(engine, "MAX_STACKED_RUNS", 81 * 32 - 1)
    monkeypatch.setattr(engine, "bit_column", never_allocate)
    for prop in ("cheating-detection", "integrity"):
        rc, out, err = run_cli(capsys, "verify", "gmw-and", "--property", prop,
                               "--corrupt", "2")
        assert (rc, out) == (2, "")
        assert err == ("error: 81 strategies of 32 runs exceed the stacked-run "
                       "budget of 2591\n")


def test_run_budget_exits_two(tmp_path, capsys, monkeypatch):
    # a dealt secret and 64 flips, 2^65 runs: refused before any column is built
    monkeypatch.setattr(UniformPreprocessing, "columns", never_allocate)
    monkeypatch.setattr(engine, "bit_column", never_allocate)
    src = tmp_path / "flips.ovt"
    src.write_text(FLIPS64)
    for prop in ("nimo", "cheating-detection"):
        rc, out, err = run_cli(capsys, "verify", str(src), "--property", prop,
                               "--corrupt", "2")
        assert (rc, out) == (2, "")
        assert err == (f"error: {2 ** 65} runs exceed the run budget of "
                       f"{engine.MAX_RUNS}\n")


def test_verify_gmw_invariant(capsys):
    rc, out, _ = run_cli(capsys, "verify", "gmw-and-xor", "--property",
                         "gmw-invariant", "--wire", "g", "--corrupt", "2")
    assert rc == 0
    assert "gmw-invariant[g, corrupt={2}]: holds" in out


def test_export_datalog_and_lhm(tmp_path, capsys):
    rc, out, _ = run_cli(capsys, "export-datalog", "otp")
    assert rc == 0
    assert out.count(":-") == 5
    dl = tmp_path / "otp.dl"
    dl.write_text(out)
    rc, out, _ = run_cli(capsys, "lhm", str(dl), "--facts", "s_x_c1=1")
    assert rc == 0
    assert out.splitlines() == ["m_z_c2", "out_c2", "s_x_c1"]


def test_exported_constant_is_a_fact_of_the_model(tmp_path, capsys):
    # m[z]@2 := 1 exports as the bodiless clause m_z_c2., which lhm must
    # hold in its model as it holds a --facts atom
    src = tmp_path / "const.ovt"
    src.write_text("m[z]@2 := 1 @ 1;\nout@2 := m[z] xor s[x] @ 2;\n")
    rc, out, _ = run_cli(capsys, "export-datalog", str(src))
    assert rc == 0 and "m_z_c2.\n" in out.splitlines(keepends=True)
    dl = tmp_path / "const.dl"
    dl.write_text(out)
    protocol = parse_protocol(src.read_text())
    for x in (0, 1):
        final = interp.run({parse_var("s[x]@2"): x}, protocol)
        rc, out, _ = run_cli(capsys, "lhm", str(dl), "--facts", f"s_x_c2={x}")
        assert rc == 0
        assert out.splitlines() == sorted(datalog.mangle(v) for v, y in final.items() if y == 1)
    rc, out, _ = run_cli(capsys, "run", str(src), "--inputs", "s[x]@2=0")
    assert "out@2=1" in out


def test_lhm_facts_last_value_wins(tmp_path, capsys):
    dl = tmp_path / "ab.dl"
    dl.write_text("b :- a.\nc :- not a.\n")
    for facts, model in (("a=1,a=0", ["c"]), ("a=0,a=1", ["a", "b"]), ("a=1,a=1", ["a", "b"])):
        rc, out, _ = run_cli(capsys, "lhm", str(dl), "--facts", facts)
        assert (rc, out.splitlines()) == (0, model), facts


def test_export_datalog_table_budget_exits_two(tmp_path, capsys, monkeypatch):
    # one command reading 25 cells: 2^25 local memories, refused before any
    # is evaluated
    def never(*args):
        raise AssertionError("a local memory was evaluated past the budget")

    monkeypatch.setattr(datalog, "lowered", never)
    src = tmp_path / "wide.ovt"
    src.write_text("m[z]@2 := s[x]" + "".join(f" xor r[k{i}]" for i in range(24))
                   + " @ 1;\n")
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, "export-datalog", str(src))
    assert time.perf_counter() - start < 1
    assert (rc, out) == (2, "")
    assert err == (f"error: m[z]@2 reads 25 cells: its {2 ** 25} local memories "
                   f"exceed the table budget of {datalog.MAX_TABLE_ROWS}\n")


def test_run_evaluates_long_chains(tmp_path, capsys):
    """The interpreter lowers a chain of one operator into one closure, so
    run takes chains far deeper than the recursion limit."""
    ones = tmp_path / "ones.ovt"
    ones.write_text("p[w] := 1" + " xor 1" * 2999 + " @ 1;\n")
    assert run_cli(capsys, "run", str(ones)) == (0, "p[w]=0\n", "")
    deep = tmp_path / "deep.ovt"
    deep.write_text("p[w] := s[x]" + " xor 1" * 99_999 + " @ 1;\n")
    for x in (0, 1):
        rc, out, err = run_cli(capsys, "run", str(deep), "--inputs", f"s[x]@1={x}")
        assert (rc, out, err) == (0, f"p[w]={1 - x} s[x]@1={x}\n", "")


def outcome(capsys, argv):
    """(exit code, stdout, stderr) of one command, argparse's own exits included."""
    try:
        rc = main(list(argv))
    except SystemExit as e:
        rc = e.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_cached_parser_carries_no_state(capsys):
    gmw_xor = os.path.join(protocols_dir(), "gmw_xor.pre")
    gmw = os.path.join(protocols_dir(), "gmw.pre")
    pairs = (  # (earlier command and its exit code, later command)
        (("expand", gmw_xor, "--lib", gmw), 0, ("expand", gmw_xor)),
        (("pmf", "otp", "--marginal", "s[x]@1", "--given", "m[z]@2=1"), 0, ("pmf", "otp")),
        (("verify", "otp", "--property", "nope"), 2,
         ("verify", "otp", "--property", "nimo", "--corrupt", "2")),
    )
    for earlier, code, later in pairs:
        cli.make_parser.cache_clear()
        fresh = outcome(capsys, later)
        cli.make_parser.cache_clear()
        assert outcome(capsys, earlier)[0] == code
        parser = cli.make_parser()
        assert outcome(capsys, later) == fresh, later
        assert cli.make_parser() is parser


def test_usage_errors_exit_two(tmp_path, capsys):
    # an operator chain too deep for the Prelude evaluator's recursion
    deep_pre = tmp_path / "deep.pre"
    deep_pre.write_text('p["w"] := true' + " xor true" * 2999 + " @ 1")
    # '²' is a digit to str.isdigit but no int() literal
    superscript_pre = tmp_path / "superscript.pre"
    superscript_pre.write_text('p["w"] := true @ \u00b2')
    superscript_ovt = tmp_path / "superscript.ovt"
    superscript_ovt.write_text("p[w] := 1 @ \u00b2;\n")
    dl = tmp_path / "a.dl"
    dl.write_text("a :- not b.\n")
    cases = (
        ("run", "no-such-package"),
        ("verify", "otp", "--property", "correct", "--functionality", "nope"),
        ("verify", "otp", "--property", "nimo"),
        ("pmf", "otp", "--field", "3"),
        ("pmf", "otp", "--given", "m[z]@2=9"),
        ("verify", "otp", "--property", "nimo", "--corrupt", "1,bad"),
        ("pmf", "otp", "--marginal", "m[z]@"),
        ("pmf", "otp", "--marginal", "out@x"),
        ("pmf", "otp", "--marginal", "s[x"),
        ("run", "otp", "--inputs", "s[x]@=1"),
        ("expand", str(deep_pre)),
        ("expand", str(superscript_pre)),
        ("run", str(superscript_ovt)),
        ("lhm", str(dl), "--facts", "s_x_c1=1,bad atom!=1"),
        ("lhm", str(dl), "--facts", "=1"),
    )
    for argv in cases:
        rc, _, err = run_cli(capsys, *argv)
        assert rc == 2, argv
        assert err.startswith("error:"), argv
    rc, _, err = run_cli(capsys, "run", "no-such-package")
    assert "bundled package" in err
    # a malformed variable is named as such, not as a bad value
    rc, _, err = run_cli(capsys, "run", "otp", "--inputs", "s[x]@=1")
    assert err == "error: cannot parse variable 's[x]@'\n"
    rc, _, err = run_cli(capsys, "pmf", "otp", "--marginal", "s[x")
    assert err == "error: cannot parse variable 's[x'\n"
    for argv in cases[-4:-2]:
        rc, _, err = run_cli(capsys, *argv)
        assert err.endswith("unexpected character '\u00b2'\n"), argv
    # a fact atom obeys the .dl parser's rule for atoms
    rc, out, err = run_cli(capsys, *cases[-2])
    assert (out, err) == ("", "error: bad atom 'bad atom!'\n")
    rc, out, err = run_cli(capsys, *cases[-1])
    assert (out, err) == ("", "error: bad atom ''\n")


def test_memory_error_exits_two(capsys, monkeypatch):
    """A MemoryError is one error line and exit 2, not a traceback with
    the exit code of a failing verdict."""
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(engine, "count_runs", exhausted)
    rc, out, err = run_cli(capsys, "pmf", "otp")
    assert rc == 2 and out == "" and err == "error: out of memory\n"


def test_functionality_value_must_be_an_integer(tmp_path, capsys):
    table = tmp_path / "bad.fn"
    table.write_text("s[x]@1=0 -> out@2=0\ns[x]@1=q -> out@2=1\n")
    rc, out, err = run_cli(capsys, "verify", "otp", "--property", "correct",
                           "--functionality", str(table))
    assert (rc, out) == (2, "")
    assert err == "error: expected an integer value, got 's[x]@1=q'\n"


def test_parse_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.ovt"
    bad.write_text("m[z]@2 := s[x] $ 1;\n")
    rc, _, err = run_cli(capsys, "run", str(bad))
    assert rc == 2
    assert "line 1" in err


def test_file_targets(capsys):
    src = os.path.join(protocols_dir(), "otp.ovt")
    rc, out, _ = run_cli(capsys, "verify", src, "--property", "nimo",
                         "--corrupt", "2")
    assert rc == 0


def test_field_must_be_prime(tmp_path, capsys):
    src = tmp_path / "f.ovt"
    src.write_text("out@1 := s[x] + s[x] @ 1;\n")
    for p in ("0", "1", "4", "6"):
        rc, _, err = run_cli(capsys, "run", str(src), "--field", p,
                             "--inputs", "s[x]@1=2")
        assert rc == 2, p
        assert err == f"error: modulus {p} is not prime\n", p
    rc, out, _ = run_cli(capsys, "run", str(src), "--field", "3", "--inputs", "s[x]@1=2")
    assert rc == 0
    assert out == "out@1=1 s[x]@1=2\n"


def test_field_applies_only_to_ovt_files(tmp_path, capsys):
    # bundled packages and Prelude files expand over F_2 whatever --field says
    pre = os.path.join(protocols_dir(), "gmw_and.pre")
    lib = os.path.join(protocols_dir(), "gmw.pre")
    for argv in (("run", pre, "--lib", lib, "--field", "4"),
                 ("run", "otp", "--field", "3", "--inputs", "s[x]@1=2")):
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 2 and out == "", argv
        assert err.startswith("error: --field ") and "applies only to .ovt files" in err, argv
    src = tmp_path / "otp3.ovt"
    src.write_text("m[z]@2 := s[x] + r[k] @ 1;\nm[k]@2 := r[k] @ 1;\n"
                   "out@2 := m[z] - m[k] @ 2;\n")
    rc, out, _ = run_cli(capsys, "run", str(src), "--field", "3",
                         "--inputs", "s[x]@1=2,r[k]@1=2")
    assert rc == 0
    assert out == "m[k]@2=2 m[z]@2=1 out@2=2 r[k]@1=2 s[x]@1=2\n"


def test_unreadable_bundled_file_exits_two(tmp_path, capsys, monkeypatch):
    root = tmp_path / "protocols"
    shutil.copytree(protocols_dir(), root)
    (root / "gmw.pre").unlink()
    monkeypatch.setattr(stdlib, "protocols_dir", lambda: str(root))
    rc, _, err = run_cli(capsys, "verify", "gmw-and", "--property", "correct")
    assert rc == 2
    assert err.startswith(f"error: cannot read bundled file {root / 'gmw.pre'}")
