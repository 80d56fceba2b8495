"""The benchmark's workloads: their inputs, operations and reference checks.

An operation is one CLI command (through ``overture.cli.main``, stdout
captured) or one API call, together with its check.  It fails when it
raises, exits 2, or returns a verdict or number that differs from its
reference.  References are worked out apart from the program: from the
protocols' definitions by hand, from plain-integer evaluation of a circuit,
or from properties a verdict's witness must have (its adversarial run is
reproduced by the reference interpreter).

Checks use functions bound here at import time, so that a traced pass, which
swaps the names inside overture's modules, times the operations and not the
checks.  Operations call through the module attributes (``cli.main``,
``dist.bd_adv``, ``datalog.lhm``) so that the swap reaches them.
"""

import contextlib
import io
import itertools
import os
import random
import re
from fractions import Fraction

from overture import cli, datalog, dist, engine  # noqa: F401  (engine: import numpy during set-up)
from overture.datalog import facts_of, format_program, mangle, parse_program_dl
from overture.interp import AdversaryStrategy
from overture.interp import run as ref_run
from overture.interp import run_adv as ref_run_adv
from overture.lang import BOT, AssertCmd, BinOp, Const, Partition, assigned_var, computing_client
from overture.ovt import format_protocol as ref_format
from overture.ovt import parse_protocol as ref_parse
from overture.stdlib import bdoz_beaver_trimmed, gmw_main, load_package

class Mismatch(Exception):
    """An output that differs from its reference."""


def expect(cond, message):
    if not cond:
        raise Mismatch(message)


class Op:
    def __init__(self, name, call, runs):
        self.name = name
        self.call = call
        self.runs = runs  # runs in one enumeration of the operation's run space


class Workload:
    def __init__(self, ops, planted=None):
        self.ops = ops
        self.planted = planted  # the operation given a wrong expectation


# --- CLI calls and their output -------------------------------------------------

def run_cli(argv):
    """(exit code, stdout) of one command; exit 2 is a failure."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
    expect(code != 2, f"exit 2: {err.getvalue().strip()}")
    return code, out.getvalue()


class Verdict:
    """A verdict block of `overture verify` output, parsed back."""

    def __init__(self, prop, ok):
        self.prop, self.ok = prop, ok
        self.details, self.description = [], None
        self.memories, self.numbers = {}, {}


_VERDICT = re.compile(r"^(\S.*): (holds|FAILS)$")


def parse_memory(text) -> dict:
    out = {}
    for token in text.split():
        var, value = token.rsplit("=", 1)
        out[var] = BOT if value == "bot" else int(value)
    return out


def parse_verdicts(text) -> list:
    verdicts = []
    for line in text.splitlines():
        m = _VERDICT.match(line)
        if m:
            verdicts.append(Verdict(m[1], m[2] == "holds"))
            continue
        expect(verdicts, f"output does not start with a verdict: {line!r}")
        v = verdicts[-1]
        if not line.startswith("  "):
            v.description = line
        elif v.description is None:
            v.details.append(line[2:])
        elif " = " in line and ": " not in line:
            label, number = line[2:].split(" = ")
            v.numbers[label] = Fraction(number)
        else:
            label, memory = line[2:].split(": ", 1)
            v.memories[label] = parse_memory(memory)
    return verdicts


def verify(argv, props):
    """Run `overture verify`; the verdicts must name exactly props, in order,
    and the exit code must agree with them."""
    code, out = run_cli(["verify", *argv])
    verdicts = parse_verdicts(out)
    expect([v.prop for v in verdicts] == list(props),
           f"verdicts {[v.prop for v in verdicts]}, expected {list(props)}")
    want = 0 if all(v.ok for v in verdicts) else 1
    expect(code == want, f"exit {code} with verdicts {[v.ok for v in verdicts]}")
    return verdicts


def corrupt_label(corrupt):
    return "corrupt={" + ",".join(map(str, corrupt)) + "}"


def partitions(nclients):
    """Corrupt sets in the order --all-partitions checks them."""
    clients = range(1, nclients + 1)
    return [c for k in range(1, nclients) for c in itertools.combinations(clients, k)]


# --- References -------------------------------------------------------------------

def deal_runs(deal) -> int:
    """Number of memories of an authenticated-share deal, counted from its
    definition: each bound secret, the first share of every value, the
    second share of each value neither bound to a secret nor the triple's
    product, two MAC keys per value and the two global deltas, less the
    pinned variables."""
    values, secrets = len(deal.values), len(deal.secret_owners)
    derived = secrets + (1 if deal.triple else 0)
    free = secrets + values + (values - derived) + 2 * values + 2 - len(deal.fixed)
    return 2 ** free


def check_witness_run(v, protocol, initial_vars, corrupt, positions):
    """A failing malicious verdict names a strategy of constants at allowed
    positions, and the reference interpreter reproduces its adversarial run
    from that run's own initial values."""
    expect(not v.ok, f"{v.prop} holds")
    m = re.search(r"\(strategy: (.*)\)$", v.description or "")
    expect(m, f"no strategy in witness: {v.description!r}")
    position_of = {str(assigned_var(c)): i for i, c in enumerate(protocol.commands)
                   if not isinstance(c, AssertCmd)}
    replacements = []
    for rewrite in m[1].split(", "):
        var, _, value = rewrite.partition(":=")
        expect(var in position_of and position_of[var] in positions and value in ("0", "1"),
               f"witness strategy {m[1]!r} tampers outside positions {sorted(positions)}")
        replacements.append((position_of[var], Const(int(value))))
    adv = v.memories.get("adversarial run", {})
    m0 = {var: adv.get(str(var)) for var in initial_vars}
    expect(None not in m0.values(), "adversarial run lacks initial values")
    strategy = AdversaryStrategy(tuple(replacements))
    part = Partition.of(protocol.federation, corrupt)
    final = {str(var): x for var, x in ref_run_adv(m0, protocol, strategy, part).items()}
    expect(final == adv, f"run_adv does not reproduce the witness of {v.prop}")
    return adv


def corrupt_positions(protocol, corrupt):
    return {i for i, c in enumerate(protocol.commands)
            if not isinstance(c, AssertCmd) and computing_client(c) in corrupt}


# --- beaver-passive ---------------------------------------------------------------

def beaver_passive(ctx):
    protocol, _, deal = load_package("bdoz-beaver")
    runs = deal_runs(deal) * 2 ** len(protocol.flips())
    expected_runs = runs // 2 if ctx.plant else runs

    def correct():
        [v] = verify(["bdoz-beaver", "--property", "correct"], ["passive-correct"])
        expect(v.ok and v.details == [f"all {expected_runs} runs agree with the functionality"],
               f"correct: {v.ok} {v.details}")

    def holds(prop):
        def op():
            [v] = verify(["bdoz-beaver", "--property", prop, "--corrupt", "2"],
                         [f"{prop}[corrupt={{2}}]"])
            expect(v.ok, f"{v.prop} fails")
        return op

    ops = [Op("correct", correct, runs), Op("nimo", holds("nimo"), runs),
           Op("gradual-release", holds("gradual-release"), runs)]
    return Workload(ops, "correct" if ctx.plant else None)


# --- beaver-malicious -------------------------------------------------------------

def beaver_malicious(ctx):
    protocol, _, _ = load_package("bdoz-beaver")
    trim = bdoz_beaver_trimmed()
    runs = deal_runs(trim) * 2 ** len(protocol.flips())
    part = Partition.of(protocol.federation, [2])
    positions = (3, 4)
    expect(corrupt_positions(protocol, {2}) >= set(positions), "positions 3,4 are not client 2's")
    initial_vars = tuple(trim.domain) + protocol.flips()
    common = ["bdoz-beaver", "--preproc", "bdoz-beaver-trim", "--corrupt", "2",
              "--positions", ",".join(map(str, positions))]

    def detection():
        [v] = verify(common + ["--property", "cheating-detection"],
                     ["cheating-detection[scope=secrets, corrupt={2}]"])
        check_witness_run(v, protocol, initial_vars, {2}, positions)

    def integrity():
        [v] = verify(common + ["--property", "integrity"],
                     ["integrity[scope=secrets, corrupt={2}]"])
        adv = check_witness_run(v, protocol, initial_vars, {2}, positions)
        given = v.memories.get("conditioned on", {})
        expect(given and all(adv.get(k) == x for k, x in given.items()),
               "integrity conditions on values the adversarial run does not have")

    # the acceptance test's lie: flip the share sent in the first opening,
    # MAC unchanged; one MAC bit catches it exactly when client 1's delta is 1
    lie = BinOp("+", protocol.commands[3].expr, Const(1))
    expect(str(assigned_var(protocol.commands[3])) == "m[shzd2]@1", "command 3 is not a share send")
    lie_strategy = AdversaryStrategy(replacements=((3, lie),), label="share lie")
    want_abort = Fraction(1, 4) if ctx.plant else Fraction(1, 2)

    def share_lie():
        p = dist.bd_adv(protocol, lie_strategy, part, trim)
        names = [str(v) for v in p.domain]
        out1, delta1 = names.index("out@1"), names.index("m[delta]@1")
        expect(sum(p.weights.values()) == 1, "share-lie distribution does not sum to 1")
        aborted = sum((w for key, w in p.weights.items() if key[out1] is BOT), Fraction(0))
        expect(aborted == want_abort, f"P(out@1 = bot) = {aborted}, expected {want_abort}")
        expect(all((key[out1] is BOT) == (key[delta1] == 1) for key in p.weights),
               "a run aborts other than exactly when m[delta]@1 = 1")

    ops = [Op("cheating-detection", detection, runs),
           Op("integrity", integrity, runs),
           Op("share-lie", share_lie, runs)]
    return Workload(ops, "share-lie" if ctx.plant else None)


# --- package-sweep ----------------------------------------------------------------

# (runs, clients, functionality table) of each bundled package; runs are
# worked out from its source: 2 to the number of secrets and coin flips (or,
# for bdoz-open, of the deal's free bits: s[x], x1, two keys, two deltas).
PACKAGES = {
    "otp": (4, 2, "ident1"),             # s[x], r[k]
    "shamir-add3": (512, 3, "sum3"),     # three secrets, r[a] r[b] at each client
    "leaky": (2, 2, "zero1"),            # s[x]
    "gmw-and": (32, 2, "and2"),          # s1, s2, r[s1], r[s2], r[z]
    "gmw-xor": (16, 2, "xor2"),          # s1, s2, r[s1], r[s2]
    "gmw-and-xor": (128, 2, "and_xor3"), # s1..s3, r[s1..s3], r[g]
    "bdoz-open": (64, 2, "open1"),
}
GMW_GATE_RUNS = 32                       # four dealt input shares, r[z]
LHM_SWEEP = ("otp", "shamir-add3", "gmw-and", "gmw-xor", "gmw-and-xor")
MAINS = {"gmw-and": ("gmw_and.pre", "gmw.pre"), "gmw-xor": ("gmw_xor.pre", "gmw.pre"),
         "gmw-and-xor": ("gmw_and_xor.pre", "gmw.pre"), "gmw-gate": ("gmw_gate.pre", "gmw.pre"),
         "bdoz-open": ("bdoz_open.pre", "bdoz.pre"), "bdoz-beaver": ("bdoz_beaver.pre", "bdoz.pre")}


def leaky_nimo(v):
    # out@2 is always 0 and m[z]@2 = s[x]: P(x=c | out) = 1/2, and
    # P(x=c | out, z) is 1 when z = c, else 0
    z = v.memories["m2 (corrupt views)"]["m[z]@2"]
    c = v.memories["honest secrets"]["s[x]@1"]
    return {"P(secrets | m1)": Fraction(1, 2),
            "P(secrets | m1, m2)": Fraction(int(z == c))}


def leaky_release(v):
    # m[z]@2 = s[x]: P(z, x) is 1/2 when they agree, against 1/2 * 1/2
    z = v.memories["corrupt messages"]["m[z]@2"]
    c = v.memories["honest secrets"]["s[x]@1"]
    return {"P(joint)": Fraction(int(z == c), 2), "P(messages) * P(secrets)": Fraction(1, 4)}


def otp_release(v):
    # m[k]@2 = k and m[z]@2 = x xor k: together they give x, so P(k, z, x)
    # is 1/4 when z = x xor k, else 0, against P(k, z) P(x) = 1/4 * 1/2
    msgs = v.memories["corrupt messages"]
    c = v.memories["honest secrets"]["s[x]@1"]
    joint = Fraction(int(msgs["m[z]@2"] == c ^ msgs["m[k]@2"]), 4)
    return {"P(joint)": joint, "P(messages) * P(secrets)": Fraction(1, 8)}


# Failing verdicts of the passive properties, with the witness numbers each
# must carry; every other verdict holds.
FAILING = {("leaky", "nimo", (2,)): leaky_nimo,
           ("leaky", "gradual-release", (2,)): leaky_release,
           ("otp", "gradual-release", (2,)): otp_release}


def package_sweep(ctx):
    root = ctx.root
    protos = {name: load_package(name)[0] for name in [*PACKAGES, "gmw-gate", "bdoz-beaver"]}
    failing = dict(FAILING)
    if ctx.plant:
        del failing[("leaky", "nimo", (2,))]
    ops = []

    for name, (runs, nclients, fn) in PACKAGES.items():
        table = os.path.join(root, "protocols", f"{fn}.fn")

        def correct(name=name, runs=runs, table=table):
            [v] = verify([name, "--property", "correct", "--functionality", table],
                         ["passive-correct"])
            expect(v.ok and v.details == [f"all {runs} runs agree with the functionality"],
                   f"{name} correct: {v.ok} {v.details}")

        ops.append(Op(f"{name}/correct", correct, runs))
        for prop in ("nimo", "gradual-release"):
            def passive(name=name, prop=prop, nclients=nclients):
                corrupts = partitions(nclients)
                verdicts = verify([name, "--property", prop, "--all-partitions"],
                                  [f"{prop}[{corrupt_label(c)}]" for c in corrupts])
                for c, v in zip(corrupts, verdicts):
                    reference = failing.get((name, prop, c))
                    expect(v.ok == (reference is None), f"{name}: {v.prop} {'holds' if v.ok else 'fails'}")
                    if reference is not None:
                        want = reference(v)
                        expect(v.numbers == want, f"{name}: {v.prop} gives {v.numbers}, expected {want}")
            ops.append(Op(f"{name}/{prop}", passive, runs))

    def and_tactic():
        [v] = verify(["gmw-gate", "--property", "and-tactic"], ["and-gate-tactic"])
        expect(v.ok and len(v.details) == 4 and all(d.endswith(": holds") for d in v.details),
               f"and-tactic: {v.details}")

    def gmw_invariant():
        verdicts = verify(["gmw-and-xor", "--property", "gmw-invariant", "--wire", "z",
                           "--all-partitions"],
                          [f"gmw-invariant[z, {corrupt_label(c)}]" for c in partitions(2)])
        for v in verdicts:
            expect(v.ok and len(v.details) == 3 and all(d.endswith(": holds") for d in v.details),
                   f"{v.prop}: {v.details}")

    ops += [Op("gmw-gate/and-tactic", and_tactic, GMW_GATE_RUNS),
            Op("gmw-and-xor/gmw-invariant", gmw_invariant, PACKAGES["gmw-and-xor"][0])]

    bdoz = protos["bdoz-open"]
    bdoz_initial = tuple(load_package("bdoz-open")[2].domain) + bdoz.flips()
    for prop in ("cheating-detection", "integrity"):
        def malicious(prop=prop):
            corrupts = partitions(2)
            verdicts = verify(["bdoz-open", "--property", prop, "--all-partitions"],
                              [f"{prop}[scope=secrets, {corrupt_label(c)}]" for c in corrupts])
            for c, v in zip(corrupts, verdicts):
                check_witness_run(v, bdoz, bdoz_initial, set(c), corrupt_positions(bdoz, set(c)))
        ops.append(Op(f"bdoz-open/{prop}", malicious, PACKAGES["bdoz-open"][0]))

    for name, (main, lib) in MAINS.items():
        def expand(name=name, main=main, lib=lib):
            _, text = run_cli(["expand", os.path.join(root, "protocols", main),
                               "--lib", os.path.join(root, "protocols", lib)])
            parsed = ref_parse(text)
            expect(ref_format(parsed) == text, f"{main}: printing the parsed expansion changes it")
            expect(parsed.commands == protos[name].commands,
                   f"{main}: expansion differs from the bundled package")
        ops.append(Op(f"{name}/expand", expand, 0))

    for name in [*PACKAGES, "gmw-gate"]:
        if name == "bdoz-open":  # assertions have no clause form
            continue

        def export(name=name):
            _, text = run_cli(["export-datalog", name])
            expect(text and format_program(parse_program_dl(text)) == text,
                   f"{name}: exported program does not print back as itself")
        ops.append(Op(f"{name}/export-datalog", export, 0))

    for name in LHM_SWEEP:
        def sweep(name=name):
            protocol = protos[name]
            program = datalog.to_datalog(protocol)
            inputs = protocol.secrets() + protocol.flips()
            count = 0
            for values in itertools.product((0, 1), repeat=len(inputs)):
                m0 = dict(zip(inputs, values))
                want = frozenset(mangle(v) for v, x in ref_run(m0, protocol).items() if x == 1)
                expect(datalog.lhm(program, facts_of(m0)) == want,
                       f"{name}: least model differs from the interpreter at {m0}")
                count += 1
            expect(count == PACKAGES[name][0], f"{name}: swept {count} inputs")
        ops.append(Op(f"{name}/lhm-sweep", sweep, PACKAGES[name][0]))

    return Workload(ops, "leaky/nimo" if ctx.plant else None)


# --- gmw-wide -----------------------------------------------------------------------

GMW_INPUTS = 5
GMW_ANDS = 4
GMW_XORS = 40


def gmw_circuit(seed):
    """Inputs, gates and output wire of a random circuit: five inputs owned
    alternately by clients 1 and 2, then 4 AND and 40 XOR gates in a seeded
    order, each reading two distinct earlier wires."""
    rng = random.Random(seed)
    inputs = [(f"i{k}", 1 + k % 2) for k in range(GMW_INPUTS)]
    kinds = ["and"] * GMW_ANDS + ["xor"] * GMW_XORS
    rng.shuffle(kinds)
    wires = [name for name, _ in inputs]
    gates = []
    for k, op in enumerate(kinds):
        lhs, rhs = rng.sample(wires, 2)
        gates.append((op, f"w{k:02d}", lhs, rhs))
        wires.append(f"w{k:02d}")
    return inputs, gates, gates[-1][1]


def evaluate(inputs, gates, out_wire, values) -> int:
    wire = dict(zip((name for name, _ in inputs), values))
    for op, w, lhs, rhs in gates:
        wire[w] = wire[lhs] & wire[rhs] if op == "and" else wire[lhs] ^ wire[rhs]
    return wire[out_wire]


def gmw_wide(ctx):
    inputs, gates, out_wire = gmw_circuit(ctx.seed)
    table = {values: evaluate(inputs, gates, out_wire, values)
             for values in itertools.product((0, 1), repeat=len(inputs))}
    secrets = [f"s[{name}]@{owner}" for name, owner in inputs]
    rows = sorted(table)
    written = dict(table)
    if ctx.plant:
        flipped = rows[random.Random(ctx.seed).randrange(len(rows))]
        written[flipped] ^= 1
    os.makedirs(ctx.workdir, exist_ok=True)
    source = os.path.join(ctx.workdir, "wide.pre")
    fn_file = os.path.join(ctx.workdir, "wide.fn")
    with open(source, "w") as fh:
        fh.write(gmw_main(inputs, gates, out_wire))
    with open(fn_file, "w") as fh:
        for values in rows:
            ins = " ".join(f"{s}={x}" for s, x in zip(secrets, values))
            fh.write(f"{ins} -> out@1={written[values]} out@2={written[values]}\n")
    # each input and each AND gate draws one coin flip
    runs = 2 ** (2 * GMW_INPUTS + GMW_ANDS)
    base = [source, "--lib", os.path.join(ctx.root, "protocols", "gmw.pre")]

    def correct():
        [v] = verify(base + ["--property", "correct", "--functionality", fn_file],
                     ["passive-correct"])
        expect(v.ok and v.details == [f"all {runs} runs agree with the functionality"],
               f"correct: {v.ok} {v.details}")

    def holds(prop):
        def op():
            verdicts = verify(base + ["--property", prop, "--all-partitions"],
                              [f"{prop}[{corrupt_label(c)}]" for c in partitions(2)])
            for v in verdicts:
                expect(v.ok, f"{v.prop} fails")
        return op

    weight = f"weight=1/{runs}"

    def pmf():
        _, text = run_cli(["pmf", *base])
        lines = text.splitlines()
        expect(len(lines) == runs and len(set(lines)) == runs,
               f"pmf printed {len(lines)} lines, expected {runs} distinct")
        names = [token.rsplit("=", 1)[0] for token in lines[0].split()]
        expect(all(s in names for s in secrets + ["out@1", "out@2"]),
               "pmf lines lack secrets or outputs")
        at = [names.index(s) for s in secrets]
        o1, o2 = names.index("out@1"), names.index("out@2")
        for line in lines:
            tokens = line.split()
            expect(len(tokens) == len(names) and tokens[-1] == weight
                   and all(tokens[i].startswith(s) for i, s in zip(at, secrets)),
                   f"pmf line has another domain or weight: {line[-40:]!r}")
            want = table[tuple(int(tokens[i][-1]) for i in at)]
            expect(tokens[o1] == f"out@1={want}" and tokens[o2] == f"out@2={want}",
                   "pmf line's outputs differ from the circuit of its secrets")

    ops = [Op("correct", correct, runs), Op("nimo", holds("nimo"), runs),
           Op("gradual-release", holds("gradual-release"), runs), Op("pmf", pmf, runs)]
    return Workload(ops, "correct" if ctx.plant else None)


class Context:
    def __init__(self, root, seed, workdir, plant):
        self.root, self.seed, self.workdir, self.plant = root, seed, workdir, plant


SETUPS = {"beaver-passive": beaver_passive, "beaver-malicious": beaver_malicious,
          "package-sweep": package_sweep, "gmw-wide": gmw_wide}


def build(name, root, seed, workdir, plant=False) -> Workload:
    """Generate a workload's inputs from the seed; with plant, give one
    operation a wrong expectation."""
    return SETUPS[name](Context(root, seed, workdir, plant))
