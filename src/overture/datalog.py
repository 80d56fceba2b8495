"""Logic-program view of a protocol.

Each storage cell becomes a propositional atom that holds exactly when the
cell carries 1; every command becomes one clause per satisfying assignment
of the cells it reads, with negation marking the zero entries.  Evaluating
the program bottom-up from input facts reproduces a protocol run, which
makes the export a checkable semantics in its own right.
"""

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .errors import BudgetError, ParseError, StratificationError, UsageError
from .interp import eval_expr
from .lang import (
    AssertCmd, FLIP, MESG, OUT, Protocol, REVEAL, SECRET, Var, assigned_var,
    command_reads, computing_client,
)

_KIND_PREFIX = {SECRET: "s_", FLIP: "r_", MESG: "m_", OUT: "out_"}


# --- Atom names ----------------------------------------------------------------

def mangle(v: Var) -> str:
    """Injective atom name for a variable."""
    if v.kind == REVEAL:
        return f"p_{v.name}"
    if v.kind == OUT:
        return f"out_c{v.owner}"
    if v.kind in _KIND_PREFIX:
        return f"{_KIND_PREFIX[v.kind]}{v.name}_c{v.owner}"
    raise UsageError(f"no atom name for {v}")


def unmangle(atom: str) -> Var:
    if atom.startswith("p_"):
        return Var(REVEAL, atom[2:])
    if atom.startswith("out_c") and atom[5:].isdigit():
        return Var(OUT, "", int(atom[5:]))
    for kind, prefix in _KIND_PREFIX.items():
        if kind == OUT or not atom.startswith(prefix):
            continue
        rest = atom[len(prefix):]
        i = rest.rfind("_c")
        if i < 0 or not rest[i + 2:].isdigit():
            break
        return Var(kind, rest[:i], int(rest[i + 2:]))
    raise UsageError(f"cannot unmangle atom {atom!r}")


# --- Programs --------------------------------------------------------------------

@dataclass(frozen=True)
class Literal:
    atom: str
    negated: bool = False

    def __str__(self):
        return f"not {self.atom}" if self.negated else self.atom


@dataclass(frozen=True)
class Clause:
    head: str
    body: tuple = ()

    def __str__(self):
        if not self.body:
            return f"{self.head}."
        return f"{self.head} :- {', '.join(str(x) for x in self.body)}."


class Strata(NamedTuple):
    """A program compiled for evaluation: the atoms of its bodiless
    clauses; one group per rule head in first-definition order, each body
    as (positive atoms, negated atoms); and the message of the program's
    first error, if any: the first rule head that is also one of its
    facts, else its first forward reference."""
    facts: frozenset
    heads: tuple
    bodies: tuple
    error: str | None

    @classmethod
    def of(cls, clauses) -> "Strata":
        facts = frozenset(c.head for c in clauses if not c.body)
        groups = {}  # head -> its rules; a dict keeps first-definition order
        for c in clauses:
            if c.body:
                groups.setdefault(c.head, []).append(c)
        rank = {head: i for i, head in enumerate(groups)}
        error = next((f"{head} is both a fact and a rule head"
                      for head in groups if head in facts), None)
        error = error or next((f"{lit.atom} used by {head} before it is defined"
                               for head, group in groups.items() for c in group
                               for lit in c.body if rank.get(lit.atom, -1) >= rank[head]),
                              None)
        return cls(facts, tuple(groups),
                   tuple(tuple((frozenset(lit.atom for lit in c.body if not lit.negated),
                                frozenset(lit.atom for lit in c.body if lit.negated))
                               for c in group) for group in groups.values()),
                   error)


@dataclass(frozen=True)
class Program:
    clauses: tuple

    def facts(self) -> tuple:
        return tuple(c for c in self.clauses if not c.body)

    def rules(self) -> tuple:
        return tuple(c for c in self.clauses if c.body)

    @cached_property
    def strata(self) -> Strata:
        """Compiled once per program; lhm evaluates every fact set on it."""
        return Strata.of(self.clauses)


# --- Export ----------------------------------------------------------------------

MAX_TABLE_ROWS = 2 ** 16  # local memories of one command: ~7 s and ~100 MB at ~10k rows/s


def to_datalog(protocol: Protocol) -> Program:
    """One clause per satisfying local memory of each command.  A command
    with more than MAX_TABLE_ROWS local memories raises BudgetError before
    any of them is evaluated."""
    clauses = []
    for cmd in protocol.commands:
        if isinstance(cmd, AssertCmd):
            raise UsageError("assertions have no clause form")
        target = assigned_var(cmd)
        client = computing_client(cmd)
        reads = sorted(command_reads(cmd), key=str)
        rows = protocol.modulus ** len(reads)
        if rows > MAX_TABLE_ROWS:
            raise BudgetError(f"{target} reads {len(reads)} cells: its {rows} local "
                              f"memories exceed the table budget of {MAX_TABLE_ROWS}")
        head = mangle(target)
        expr = cmd.expr
        for values in itertools.product(range(protocol.modulus), repeat=len(reads)):
            memory = dict(zip(reads, values))
            if eval_expr(memory, expr, client, protocol.modulus) != 1:
                continue
            body = tuple(Literal(mangle(v), negated=(memory[v] == 0)) for v in reads)
            clauses.append(Clause(head, body))
    return Program(tuple(clauses))


def facts_of(memory: dict) -> Program:
    """Input facts: one bodiless clause per variable holding 1."""
    clauses = [Clause(mangle(v)) for v in sorted(memory, key=str) if memory[v] == 1]
    return Program(tuple(clauses))


# --- Least model with stratified negation ------------------------------------------

def lhm(program: Program, facts: Program = Program(())) -> frozenset:
    """Bottom-up least model; atoms absent from every group read as false.

    The model starts from the given facts and the program's own bodiless
    clauses; neither may be a rule head.  Groups follow first-definition
    order of rule heads.  A body literal may only mention facts or heads of
    strictly earlier groups."""
    if any(c.body for c in facts.clauses):
        raise UsageError("facts must not have bodies")
    given = {c.head for c in facts.clauses}
    strata = program.strata
    model = given | strata.facts
    if not given.isdisjoint(strata.heads):  # else the program's own facts are in strata.error
        head = next(h for h in strata.heads if h in model)
        raise StratificationError(f"{head} is both a fact and a rule head")
    if strata.error:
        raise StratificationError(strata.error)
    for head, bodies in zip(strata.heads, strata.bodies):
        for pos, neg in bodies:
            if pos <= model and model.isdisjoint(neg):
                model.add(head)
                break
    return frozenset(model)


# --- Concrete syntax ------------------------------------------------------------------

def format_program(program: Program) -> str:
    return "".join(f"{c}\n" for c in program.clauses)


def parse_program_dl(text: str) -> Program:
    clauses = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0].strip()
        if not line:
            continue
        if not line.endswith("."):
            raise ParseError("clause must end with '.'", lineno, len(raw))
        line = line[:-1].strip()
        if ":-" in line:
            head, rest = line.split(":-", 1)
            body = []
            for part in rest.split(","):
                part = part.strip()
                negated = part.startswith("not ")
                atom = part[4:].strip() if negated else part
                if not atom_ok(atom):
                    raise ParseError(f"bad atom {atom!r}", lineno, 1)
                body.append(Literal(atom, negated))
            if not body:
                raise ParseError("empty body", lineno, 1)
            head = head.strip()
            if not atom_ok(head):
                raise ParseError(f"bad atom {head!r}", lineno, 1)
            clauses.append(Clause(head, tuple(body)))
        else:
            if not atom_ok(line):
                raise ParseError(f"bad atom {line!r}", lineno, 1)
            clauses.append(Clause(line))
    return Program(tuple(clauses))


def atom_ok(atom: str) -> bool:
    return atom != "" and all(c.isalnum() or c == "_" for c in atom) \
        and not atom[0].isdigit()
