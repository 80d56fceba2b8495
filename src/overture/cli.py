"""Command-line front end.

Subcommands: expand (metaprogram to protocol), run (one execution), pmf
(exact run distribution), verify (hyperproperty checks), export-datalog,
and lhm (least-model evaluation of an exported program).  Exit codes:
0 property holds / run ok, 1 property fails (witness printed), 2 usage or
parse error.
"""

import argparse
import functools
import os
import sys

from . import stdlib
from .datalog import (
    Clause, Program, atom_ok, format_program, lhm, parse_program_dl, to_datalog,
)
from .dist import (
    Functionality, bd_domain, check_deal, default_preprocessing, domain_positions,
    write_pmf,
)
from .errors import OvertureError, ParseError, UsageError
from .interp import run as run_protocol
from .lang import Partition, format_memory, parse_var, validate, violations_of
from .ovt import format_protocol
from .prelude import expand
from .verifier import (
    all_partitions, check_and_gate_tactic, check_cheating_detection,
    check_gmw_invariant, check_gradual_release, check_integrity, check_nimo,
    check_passive_correct, corrupt_positions, enumerate_adversaries,
)

PROPERTIES = ("correct", "nimo", "gradual-release", "and-tactic",
              "gmw-invariant", "cheating-detection", "integrity")


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e.strerror}")


def _load_protocol(target: str, libs, field: int):
    """A .pre/.ovt path or the name of a bundled package."""
    fn = preproc = None
    if not os.path.exists(target) and target in stdlib.PACKAGES:
        protocol, fn, preproc = stdlib.load_package(target)
    elif not os.path.exists(target):
        raise UsageError(
            f"{target} is neither a file nor a bundled package (known: "
            + ", ".join(sorted(stdlib.PACKAGES)) + ")")
    elif target.endswith(".pre"):
        protocol = stdlib.protocol_of(_read(target), tuple(_read(f) for f in libs), 2, True)
    else:
        protocol = stdlib.protocol_of(_read(target), (), field, False)
    if protocol.modulus != field:
        raise UsageError(f"--field {field} applies only to .ovt files; {target} is over F_2")
    violations = violations_of(protocol, preproc.domain if preproc else ())
    if violations:
        raise UsageError("invalid protocol:\n  " + "\n  ".join(violations))
    return protocol, fn, preproc


def _parse_assignment_list(text: str) -> dict:
    memory = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise UsageError(f"expected var=value, got {part!r}")
        var, value = part.rsplit("=", 1)
        var = parse_var(var.strip())
        try:
            memory[var] = int(value)
        except ValueError:
            raise UsageError(f"expected an integer value, got {part!r}")
    return memory


def _parse_vars(text: str) -> tuple:
    return tuple(parse_var(p.strip()) for p in text.split(",") if p.strip())


def cmd_expand(args) -> int:
    libs = [_read(f) for f in args.lib]
    protocol = expand(_read(args.file), libs)
    # every secret or message read but never assigned is dealt before the
    # first command, so reading it is no read before a write
    violations = validate(protocol, preprocessed=stdlib.free_uniform(protocol).domain)
    text = format_protocol(protocol)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    for v in violations:
        print(f"warning: {v}", file=sys.stderr)
    return 0


def cmd_run(args) -> int:
    protocol, _, preproc = _load_protocol(args.file, args.lib, args.field)
    given = _parse_assignment_list(args.inputs) if args.inputs else {}
    initial = tuple(preproc.domain) if preproc else ()
    m0 = {}
    for v in initial + protocol.secrets() + protocol.flips():
        m0.setdefault(v, 0)
    for v, x in given.items():
        if v not in m0:
            raise UsageError(f"{v} is not an input of this protocol")
        if not 0 <= x < protocol.modulus:
            raise UsageError(f"value for {v} out of range")
        m0[v] = x
    final = run_protocol(m0, protocol)
    print(format_memory(final))
    return 0


def _preproc_for(args, protocol):
    if args.preproc == "uniform":
        return default_preprocessing(protocol)
    if args.preproc:
        if args.preproc not in stdlib.PREPROCS:
            raise UsageError(
                f"unknown preprocessing {args.preproc}; known: "
                + ", ".join(sorted(stdlib.PREPROCS)))
        return stdlib.PREPROCS[args.preproc](protocol)
    return None


def cmd_pmf(args) -> int:
    """Print the exact distribution of the runs, marginalized to --marginal
    (default: every variable but those of --given) and conditioned on the
    runs matching --given.  The runs are folded and counted a block at a
    time (engine.count_runs) and the text is written a chunk at a time
    (dist.write_pmf), with no Pmf, no key tuple, no whole run table and
    no whole text."""
    from . import engine

    if args.field != 2:
        raise UsageError("pmf requires the binary field")
    protocol, _, preproc = _load_protocol(args.file, args.lib, args.field)
    chosen = _preproc_for(args, protocol) or preproc or default_preprocessing(protocol)
    check_deal(protocol, chosen)
    domain = bd_domain(protocol, chosen)
    given = _parse_assignment_list(args.given) if args.given else {}
    shown = _parse_vars(args.marginal) if args.marginal else \
        tuple(v for v in domain if v not in given)
    domain_positions(domain, tuple(given))
    domain_positions(domain, shown)
    if len(set(shown)) != len(shown):
        raise UsageError("duplicate variables in pmf domain")
    if not write_pmf(sys.stdout.write, shown, lambda vars_: engine.count_runs(
            protocol, chosen, vars_, given=given, first=False)):
        raise UsageError("conditioning row has probability zero")
    return 0


def _functionality_for(args, protocol) -> Functionality:
    if not args.functionality:
        raise UsageError("--property correct needs --functionality")
    if os.path.exists(args.functionality):
        return Functionality.parse(_read(args.functionality))
    if args.functionality in stdlib.FUNCTIONALITIES:
        return stdlib.FUNCTIONALITIES[args.functionality]
    raise UsageError(f"unknown functionality {args.functionality}")


def _partitions_for(args, protocol):
    if args.all_partitions:
        return all_partitions(protocol, args.max_corrupt)
    if not args.corrupt:
        raise UsageError("this property needs --corrupt or --all-partitions")
    try:
        corrupt = [int(x) for x in args.corrupt.split(",") if x.strip()]
    except ValueError:
        raise UsageError(f"bad --corrupt list {args.corrupt!r}")
    if not corrupt or len(set(corrupt)) < len(corrupt) or set(corrupt) >= protocol.federation:
        raise UsageError(f"--corrupt {args.corrupt!r} is not a nonempty strict subset "
                         f"of the clients, each named once")
    return (Partition.of(protocol.federation, corrupt),)


def cmd_verify(args) -> int:
    if args.field != 2:
        raise UsageError("verify requires the binary field")
    protocol, pkg_fn, pkg_pre = _load_protocol(args.file, args.lib, args.field)
    preproc = _preproc_for(args, protocol) or pkg_pre
    verdicts = []
    if args.property == "correct":
        fn = _functionality_for(args, protocol) if args.functionality else pkg_fn
        if fn is None:
            raise UsageError("--property correct needs --functionality")
        verdicts.append(check_passive_correct(protocol, fn, preproc))
    elif args.property == "nimo":
        for part in _partitions_for(args, protocol):
            verdicts.append(check_nimo(protocol, part, preproc))
    elif args.property == "gradual-release":
        for part in _partitions_for(args, protocol):
            verdicts.append(check_gradual_release(protocol, part, preproc))
    elif args.property == "and-tactic":
        verdicts.append(check_and_gate_tactic(protocol))
    elif args.property == "gmw-invariant":
        if not args.wire:
            raise UsageError("--property gmw-invariant needs --wire")
        for part in _partitions_for(args, protocol):
            verdicts.append(check_gmw_invariant(protocol, args.wire, part, preproc))
    elif args.property in ("cheating-detection", "integrity"):
        check = check_cheating_detection if args.property == "cheating-detection" \
            else check_integrity
        for part in _partitions_for(args, protocol):
            positions = None
            if args.positions:
                try:
                    positions = tuple(int(x) for x in args.positions.split(","))
                except ValueError:
                    raise UsageError(f"bad --positions list {args.positions!r}")
            strategies = enumerate_adversaries(
                protocol, part, tables_budget=args.budget, preproc=preproc,
                positions=positions)
            tampered = positions if positions is not None \
                else corrupt_positions(protocol, part)
            if args.budget and len(tampered) > args.budget:
                print(f"note: corrupt={{{','.join(map(str, sorted(part.corrupt)))}}}: "
                      f"{len(tampered)} tampered positions exceed --budget "
                      f"{args.budget}, so only constant replacements are tried; "
                      f"choose at most {args.budget} with --positions",
                      file=sys.stderr)
            verdicts.append(check(protocol, part, strategies, preproc,
                                  secret_scope=args.scope))
    for v in verdicts:
        print(v.format())
    return 0 if all(v.ok for v in verdicts) else 1


def cmd_export_datalog(args) -> int:
    if args.field != 2:
        raise UsageError("export-datalog requires the binary field")
    protocol, _, _ = _load_protocol(args.file, args.lib, args.field)
    text = format_program(to_datalog(protocol))
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_lhm(args) -> int:
    program = parse_program_dl(_read(args.file))
    facts = {}  # atom -> its bit, the last given for it
    if args.facts:
        for part in args.facts.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise UsageError(f"expected atom=bit, got {part!r}")
            atom, value = part.rsplit("=", 1)
            atom = atom.strip()
            if not atom_ok(atom):
                raise UsageError(f"bad atom {atom!r}")
            if value.strip() not in ("0", "1"):
                raise UsageError(f"fact value must be 0 or 1, got {part!r}")
            facts[atom] = value.strip()
    model = lhm(program, Program(tuple(Clause(a) for a, bit in facts.items() if bit == "1")))
    for atom in sorted(model):
        print(atom)
    return 0


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """Built on the first call and shared by every later one: parse_args
    keeps no state in the parser."""
    top = argparse.ArgumentParser(
        prog="overture",
        description="define, run, and verify small multi-party protocols")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, with_preproc=True):
        p.add_argument("file", help="protocol file (.ovt or .pre) or bundled package name")
        p.add_argument("--lib", action="append", default=[],
                       help="metaprogram library file (repeatable)")
        p.add_argument("--field", type=int, default=2, metavar="P",
                       help="field modulus (default 2)")
        if with_preproc:
            p.add_argument("--preproc", default="",
                           help="preprocessing deal: " + ", ".join(sorted(stdlib.PREPROCS)))

    p = sub.add_parser("expand", help="evaluate a metaprogram to a protocol")
    p.add_argument("file", help="metaprogram file (.pre)")
    p.add_argument("--lib", action="append", default=[])
    p.add_argument("-o", "--output", default="")
    p.set_defaults(fn=cmd_expand)

    p = sub.add_parser("run", help="run a protocol once on given inputs")
    common(p)
    p.add_argument("--inputs", default="",
                   help='comma-separated assignments, e.g. "s[x]@1=1,r[k]@1=0"')
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("pmf", help="print the exact distribution over runs")
    common(p)
    p.add_argument("--marginal", default="", help="comma-separated variables")
    p.add_argument("--given", default="", help="conditioning assignments")
    p.set_defaults(fn=cmd_pmf)

    p = sub.add_parser("verify", help="check a hyperproperty")
    common(p)
    p.add_argument("--property", required=True, choices=PROPERTIES)
    p.add_argument("--corrupt", default="", help="corrupt clients, e.g. 2 or 1,3")
    p.add_argument("--all-partitions", action="store_true")
    p.add_argument("--max-corrupt", type=int, default=None)
    p.add_argument("--functionality", default="",
                   help="table file or bundled name (for --property correct)")
    p.add_argument("--wire", default="", help="wire name (for gmw-invariant)")
    p.add_argument("--budget", type=int, default=0,
                   help="view-dependent strategy budget (0: constants only)")
    p.add_argument("--positions", default="",
                   help="restrict tampering to these command indices")
    p.add_argument("--scope", default="secrets", choices=("secrets", "initial"),
                   help="agreement scope for detection and integrity")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("export-datalog", help="emit the clause form of a protocol")
    common(p, with_preproc=False)
    p.add_argument("-o", "--output", default="")
    p.set_defaults(fn=cmd_export_datalog)

    p = sub.add_parser("lhm", help="least model of an exported program")
    p.add_argument("file", help="program file (.dl)")
    p.add_argument("--facts", default="",
                   help='comma-separated atom bits, e.g. "s_x_c1=1,r_k_c1=0"')
    p.set_defaults(fn=cmd_lhm)
    return top


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OvertureError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        # a parser or evaluator recursing once per nesting level ran out of stack
        print("error: input nested too deeply", file=sys.stderr)
        return 2
    except MemoryError:  # a backstop for a budget that admitted too much
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
