"""Command-line front end: exit codes, golden output, determinism."""

import os

import pytest

from overture import engine, verifier
from overture.cli import main
from overture.dist import UniformPreprocessing
from overture.stdlib import GMW_AND_PRE, GMW_PRE, OTP_OVT, protocols_dir
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


def test_run_defaults_missing_inputs_to_zero(capsys):
    rc, out, _ = run_cli(capsys, "run", "otp", "--inputs", "s[x]@1=1")
    assert rc == 0
    assert out == "m[k]@2=0 m[z]@2=1 out@2=1 r[k]@1=0 s[x]@1=1\n"


def test_expand_golden(tmp_path, capsys):
    lib = tmp_path / "gmw.pre"
    lib.write_text(GMW_PRE)
    src = tmp_path / "main.pre"
    src.write_text(GMW_AND_PRE)
    rc, out, _ = run_cli(capsys, "expand", str(src), "--lib", str(lib))
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


def test_usage_errors_exit_two(capsys):
    cases = (
        ("run", "no-such-package"),
        ("verify", "otp", "--property", "correct", "--functionality", "nope"),
        ("verify", "otp", "--property", "nimo"),
        ("pmf", "otp", "--field", "3"),
        ("pmf", "otp", "--given", "m[z]@2=9"),
        ("verify", "otp", "--property", "nimo", "--corrupt", "1,bad"),
    )
    for argv in cases:
        rc, _, err = run_cli(capsys, *argv)
        assert rc == 2, argv
        assert err.startswith("error:"), argv
    rc, _, err = run_cli(capsys, "run", "no-such-package")
    assert "bundled package" in err


def test_parse_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.ovt"
    bad.write_text("m[z]@2 := s[x] $ 1;\n")
    rc, _, err = run_cli(capsys, "run", str(bad))
    assert rc == 2
    assert "line 1" in err


def test_file_targets(tmp_path, capsys):
    src = tmp_path / "otp.ovt"
    src.write_text(OTP_OVT)
    rc, out, _ = run_cli(capsys, "verify", str(src), "--property", "nimo",
                         "--corrupt", "2")
    assert rc == 0
