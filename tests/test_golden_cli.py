"""Golden CLI outputs: stdout and exit code of every command below, byte for
byte, against tests/golden_cli.txt.

The golden file pins verdicts and witnesses across refactors of the
enumeration routes.  Regenerate it only for an intended output change:

    PYTHONPATH=src python tests/test_golden_cli.py --write

Commands run from the repository root; ``{tmp}`` stands for a scratch
directory shared by the commands of one session.
"""

import contextlib
import io
import os
import re
import shlex
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden_cli.txt")

SMALL_PACKAGES = ("otp", "shamir-add3", "leaky", "gmw-and", "gmw-xor",
                  "gmw-and-xor", "gmw-gate", "bdoz-open")
BEAVER_TRIM = ("bdoz-beaver --preproc bdoz-beaver-trim --corrupt 2 "
               "--positions 3,4")


def commands() -> list:
    out = [
        # the README examples
        'run otp --inputs "s[x]@1=1,r[k]@1=0"',
        'pmf otp --marginal "m[z]@2"',
        'pmf gmw-and --marginal "out@1,out@2" --given "s[s1]@1=1,s[s2]@2=1"',
        "expand protocols/gmw_and.pre --lib protocols/gmw.pre",
        "verify shamir-add3 --property correct",
        "verify shamir-add3 --property nimo --all-partitions",
        "verify leaky --property nimo --corrupt 2",
        "verify gmw-gate --property and-tactic",
        "verify gmw-and-xor --property gmw-invariant --wire z --corrupt 2",
        "verify bdoz-open --property cheating-detection --corrupt 2 "
        "--preproc bdoz-open --positions 3,4",
        "export-datalog otp -o {tmp}/otp.dl",
        'lhm {tmp}/otp.dl --facts "s_x_c1=1,r_k_c1=1"',
    ]
    for name in SMALL_PACKAGES:
        out.append(f"pmf {name}")
        if name != "gmw-gate":  # no functionality table
            out.append(f"verify {name} --property correct")
        for prop in ("nimo", "gradual-release"):
            out.append(f"verify {name} --property {prop} --all-partitions")
    for name in ("otp", "leaky", "bdoz-open"):
        for prop in ("cheating-detection", "integrity"):
            for scope in ("secrets", "initial"):
                out.append(f"verify {name} --property {prop} --all-partitions "
                           f"--scope {scope}")
    for prop in ("cheating-detection", "integrity"):
        out.append(f"verify otp --property {prop} --all-partitions --budget 1")
        out.append(f"verify gmw-and --property {prop} --corrupt 2")
        out.append(f"verify {BEAVER_TRIM} --property {prop}")
    out += [
        "verify gmw-and --property gmw-invariant --wire z --all-partitions",
        "verify gmw-and-xor --property gmw-invariant --wire z --all-partitions",
        "verify gmw-and-xor --property gmw-invariant --wire g --all-partitions",
        # failing correctness, with a witness run
        "verify gmw-and --property correct --functionality protocols/xor2.fn",
        "verify gmw-xor --property correct --functionality protocols/and2.fn",
        "verify bdoz-beaver --property correct",
        # usage errors: exit 2, nothing on stdout
        "verify otp --property nimo",
        "pmf otp --given out@2=1,s[x]@1=0",
    ]
    return list(dict.fromkeys(out))


def run_command(line: str, tmp: str):
    """(exit code, stdout) of one command line, run in this process."""
    from overture.cli import main

    argv = [a.replace("{tmp}", tmp) for a in shlex.split(line)]
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


def format_entry(line: str, code: int, stdout: str) -> str:
    if stdout and not stdout.endswith("\n"):
        raise ValueError(f"stdout of {line!r} lacks a final newline")
    return f"$ {line}\nexit {code}, {stdout.count(chr(10))} lines\n{stdout}"


def read_golden(path: str = GOLDEN) -> list:
    """[(command line, exit code, stdout)] in file order."""
    with open(path) as fh:
        lines = fh.read().splitlines(keepends=True)
    entries, i = [], 0
    while i < len(lines):
        if not lines[i].startswith("$ "):
            raise ValueError(f"{path}:{i + 1}: expected a command line")
        command = lines[i][2:].rstrip("\n")
        code_text, count_text = lines[i + 1].split(", ")
        code = int(code_text.split()[1])
        count = int(count_text.split()[0])
        stdout = "".join(lines[i + 2: i + 2 + count])
        entries.append((command, code, stdout))
        i += 2 + count
    return entries


def test_golden_covers_every_command():
    assert [c for c, _, _ in read_golden()] == commands()


def never_build(*args, **kwargs):
    raise AssertionError("an F_2 check built a whole-table key view or a CondTable")


def forbid_key_views(patch):
    """Make the test fail where a whole table's key tuples are built: its
    weights view, a table from a dict of key tuples, or a CondTable.  The
    F_2 checks test count tables on whole columns; only a witness builds
    key tuples, for the rows it names."""
    from overture.dist import CondTable, Pmf

    patch.setattr(Pmf, "weights", property(never_build))
    patch.setattr(Pmf, "from_dict", staticmethod(never_build))
    patch.setattr(CondTable, "__init__", never_build)


def test_cli_outputs_match_golden(tmp_path, monkeypatch):
    """Every command gives its golden output; the verify commands, which
    cover all seven properties, do so with no whole-table key view and no
    CondTable built (forbid_key_views)."""
    mismatches, properties = [], set()
    for command, code, stdout in read_golden():
        with monkeypatch.context() as patch:
            if command.startswith("verify "):
                properties.add(command.split("--property ")[1].split()[0])
                forbid_key_views(patch)
            got = run_command(command, str(tmp_path))
        if got != (code, stdout):
            mismatches.append(format_entry(command, *got))
    assert not mismatches, "".join(mismatches)
    assert properties == {"correct", "nimo", "gradual-release", "and-tactic",
                          "gmw-invariant", "cheating-detection", "integrity"}


def parse_memory(text: str) -> dict:
    from overture.lang import BOT, parse_var

    pairs = (cell.rsplit("=", 1) for cell in text.split())
    return {parse_var(v): BOT if x == "bot" else int(x) for v, x in pairs}


def test_passive_witnesses_replay_on_the_interpreter():
    """Every failing nimo and gradual-release verdict of the golden file,
    its numbers recomputed as Fractions over the reference interpreter's
    runs of the package: the printed realizations have those
    probabilities, and the two printed numbers differ."""
    from fractions import Fraction

    from overture.stdlib import load_package
    from test_dist import interpreter_bd

    def prob(pmf, memory):
        at = [pmf.domain.index(v) for v in memory]
        return sum((w for key, w in pmf.weights.items()
                    if all(key[i] == x for i, x in zip(at, memory.values()))), Fraction(0))

    header = re.compile(r"[\w-]+(\[[^\]]*\])?: (holds|FAILS)$")
    verdicts = set()
    for command, _, stdout in read_golden():
        blocks = []
        for line in stdout.splitlines():
            if header.match(line):
                blocks.append([line])
            elif blocks:
                blocks[-1].append(line)
        verdicts.update((command.split()[1], tuple(block)) for block in blocks
                        if block[0].startswith(("nimo[", "gradual-release["))
                        and block[0].endswith(": FAILS"))
    replayed = set()
    for name, lines in sorted(verdicts):
        protocol, _, preproc = load_package(name)
        pmf = interpreter_bd(protocol, preproc)
        memories = {label.strip(): parse_memory(text) for label, text in
                    (line.split(": ", 1) for line in lines[2:] if " = " not in line)}
        numbers = dict(line.strip().split(" = ") for line in lines[2:] if " = " in line)
        numbers = {label: Fraction(x) for label, x in numbers.items()}
        if "P(joint)" in numbers:
            messages, secrets = memories["corrupt messages"], memories["honest secrets"]
            assert numbers["P(joint)"] == prob(pmf, messages | secrets)
            assert numbers["P(messages) * P(secrets)"] == prob(pmf, messages) * prob(pmf, secrets)
            assert numbers["P(joint)"] != numbers["P(messages) * P(secrets)"]
            replayed.add((name, "gradual-release"))
        else:
            m1 = memories["m1 (corrupt secrets and outputs)"]
            m12 = m1 | memories["m2 (corrupt views)"]
            secrets = memories["honest secrets"]
            assert numbers["P(secrets | m1)"] == prob(pmf, m1 | secrets) / prob(pmf, m1)
            assert numbers["P(secrets | m1, m2)"] == prob(pmf, m12 | secrets) / prob(pmf, m12)
            assert numbers["P(secrets | m1)"] != numbers["P(secrets | m1, m2)"]
            replayed.add((name, "nimo"))
    assert replayed == {("leaky", "nimo"), ("leaky", "gradual-release"),
                        ("otp", "gradual-release")}


def write_golden(path: str = GOLDEN):
    with tempfile.TemporaryDirectory() as tmp, open(path, "w") as fh:
        for command in commands():
            fh.write(format_entry(command, *run_command(command, tmp)))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_cli.py --write")
    write_golden()
