"""Core protocol language: variables, expressions, commands, protocols.

A protocol is a straight-line sequence of commands executed by a fixed
federation of clients.  Memories are partial maps from variables to field
values; BOT marks entries padded after an abort.
"""

from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Optional, Union

from .errors import UsageError, ValidationError
from .field import is_prime

# Variable kinds.
SECRET = "s"
FLIP = "r"
MESG = "m"
REVEAL = "p"
OUT = "out"
GLOBAL = "gv"  # synthetic reconstructed wire value, never appears in protocols

_KINDS = (SECRET, FLIP, MESG, REVEAL, OUT, GLOBAL)


class _Bot:
    """The undefined marker: value of views and outputs never produced."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "bot"


BOT = _Bot()


@dataclass(frozen=True, order=True)
class Var:
    """A protocol variable: kind, name, and owning client.

    Reveals are public (owner None).  Synthetic 'gv' variables name a
    reconstructed wire value and also have owner None.
    """

    kind: str
    name: str
    owner: Optional[int] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise UsageError(f"bad variable kind {self.kind!r}")
        if self.kind in (REVEAL, GLOBAL):
            if self.owner is not None:
                raise UsageError(f"{self.kind} variables carry no owner")
        elif self.owner is None:
            raise UsageError(f"{self.kind}[{self.name}] requires an owner")
        object.__setattr__(self, "_hash", hash((self.kind, self.name, self.owner)))

    def __hash__(self):  # the generated hash, computed once
        return self._hash

    def __reduce__(self):  # rebuilt, so no hash crosses processes
        return Var, (self.kind, self.name, self.owner)

    def __str__(self):
        if self.kind == REVEAL:
            return f"p[{self.name}]"
        if self.kind == GLOBAL:
            return f"<m[{self.name}]>"
        if self.kind == OUT:
            return f"out@{self.owner}"
        return f"{self.kind}[{self.name}]@{self.owner}"


def parse_var(text: str) -> Var:
    """Parse a variable from its display form, e.g. 'm[z]@2' or 'p[w]'."""
    s = text.strip()
    try:
        if s.startswith("<m[") and s.endswith(">") and "]" in s:
            return Var(GLOBAL, s[3 : s.index("]")])
        if s.startswith("out@"):
            return Var(OUT, "", int(s[4:]))
        for kind in (SECRET, FLIP, MESG, REVEAL):
            if s.startswith(kind + "["):
                close = s.index("]")
                name = s[len(kind) + 1 : close]
                rest = s[close + 1 :]
                if kind == REVEAL:
                    if rest:
                        raise UsageError(f"reveal variable {text!r} carries no client")
                    return Var(REVEAL, name)
                if not rest.startswith("@"):
                    raise UsageError(f"missing @client in {text!r}")
                return Var(kind, name, int(rest[1:]))
    except ValueError:  # no "]", or a client that is no integer
        pass
    raise UsageError(f"cannot parse variable {text!r}")


# --- Expressions -----------------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: int


@dataclass(frozen=True)
class Ref:
    """Reference to s/r/m/p storage; owner is the evaluating client."""

    kind: str
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * and or xor
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Not:
    operand: "Expr"


@dataclass(frozen=True)
class OT:
    """1-of-2 oblivious transfer: receiver's choice selects a sender branch."""

    choice: "Expr"
    receiver: int
    if1: "Expr"
    if0: "Expr"


@dataclass(frozen=True)
class OT4:
    """1-of-4 oblivious transfer with two choice bits.

    rows are selected by (c1, c2): (1,1)->rows[0], (1,0)->rows[1],
    (0,1)->rows[2], (0,0)->rows[3].
    """

    c1: "Expr"
    c2: "Expr"
    receiver: int
    rows: tuple

    def __post_init__(self):
        if len(self.rows) != 4:
            raise UsageError("OT4 requires exactly 4 rows")


Expr = Union[Const, Ref, BinOp, Not, OT, OT4]

BINOPS = ("+", "-", "*", "and", "or", "xor")


# --- Assertion predicates --------------------------------------------------

@dataclass(frozen=True)
class Cmp:
    op: str  # == or !=
    left: Expr
    right: Expr


@dataclass(frozen=True)
class PAnd:
    left: "Pred"
    right: "Pred"


@dataclass(frozen=True)
class POr:
    left: "Pred"
    right: "Pred"


@dataclass(frozen=True)
class PNot:
    operand: "Pred"


PREDS = (Cmp, PAnd, POr, PNot)
Pred = Union[PREDS]


# --- Commands --------------------------------------------------------------

@dataclass(frozen=True)
class MesgSend:
    """m[name]@dest := expr @ src"""

    name: str
    dest: int
    expr: Expr
    src: int


@dataclass(frozen=True)
class RevealCmd:
    """p[name] := expr @ src"""

    name: str
    expr: Expr
    src: int


@dataclass(frozen=True)
class OutputCmd:
    """out@client := expr @ client (computed locally)"""

    client: int
    expr: Expr


@dataclass(frozen=True)
class AssertCmd:
    """assert(pred)@client"""

    pred: Pred
    client: int


Command = Union[MesgSend, RevealCmd, OutputCmd, AssertCmd]


def assigned_var(cmd: Command) -> Optional[Var]:
    if isinstance(cmd, MesgSend):
        return Var(MESG, cmd.name, cmd.dest)
    if isinstance(cmd, RevealCmd):
        return Var(REVEAL, cmd.name)
    if isinstance(cmd, OutputCmd):
        return Var(OUT, "", cmd.client)
    return None


def computing_client(cmd: Command) -> int:
    if isinstance(cmd, MesgSend):
        return cmd.src
    if isinstance(cmd, RevealCmd):
        return cmd.src
    if isinstance(cmd, OutputCmd):
        return cmd.client
    return cmd.client


# The number of operands of each node type, as operands() gives them.
ARITY = {Const: 0, Ref: 0, BinOp: 2, Cmp: 2, PAnd: 2, POr: 2, Not: 1, PNot: 1, OT: 3, OT4: 6}
_OPERANDS = {
    Const: lambda node, client: (),
    Ref: lambda node, client: (),
    BinOp: lambda node, client: ((node.left, client), (node.right, client)),
    Cmp: lambda node, client: ((node.left, client), (node.right, client)),
    PAnd: lambda node, client: ((node.left, client), (node.right, client)),
    POr: lambda node, client: ((node.left, client), (node.right, client)),
    Not: lambda node, client: ((node.operand, client),),
    PNot: lambda node, client: ((node.operand, client),),
    OT: lambda node, client: ((node.choice, node.receiver), (node.if1, client),
                              (node.if0, client)),
    OT4: lambda node, client: ((node.c1, node.receiver), (node.c2, node.receiver))
    + tuple((row, client) for row in node.rows),
}


def operands(node, client: int) -> tuple:
    """The operands of an expression or predicate node that client
    evaluates, each with the client evaluating it: an OT's choice bits are
    its receiver's, every other operand is client's."""
    walk = _OPERANDS.get(type(node))
    if walk is None:
        raise UsageError(f"not an expression: {node!r}")
    return walk(node, client)


def postorder(node, client: int):
    """The (node, evaluating client) pairs of an expression or predicate
    that client evaluates, each node after its operands, which come in
    their order.  The walk keeps an explicit stack, so a chain of any
    length needs no recursion."""
    stack = [(node, client, False)]
    pop, push = stack.pop, stack.append
    while stack:
        node, client, expanded = pop()
        if not expanded:
            below = operands(node, client)
            if below:
                push((node, client, True))
                for n, c in reversed(below):
                    push((n, c, False))
                continue
        yield node, client


def expr_vars(e, client: int) -> set:
    """Variables read when client evaluates an expression or predicate e;
    OT parts resolve per role."""
    read = {(n.kind, n.name, None if n.kind == REVEAL else c)
            for n, c in postorder(e, client) if type(n) is Ref}
    return {Var(*v) for v in read}


def command_reads(cmd: Command) -> set:
    return expr_vars(cmd.pred if isinstance(cmd, AssertCmd) else cmd.expr,
                     computing_client(cmd))


def _contains_ot(e) -> bool:
    return any(isinstance(n, (OT, OT4)) for n, _ in postorder(e, 0))


# --- Protocols -------------------------------------------------------------

@dataclass(frozen=True)
class Protocol:
    commands: tuple
    federation: frozenset
    modulus: int = 2

    @staticmethod
    def of(commands, federation=None, modulus=2) -> "Protocol":
        if not is_prime(modulus):
            raise UsageError(f"modulus {modulus} is not prime")
        commands = tuple(commands)
        if federation is None:
            feds = set()
            for cmd in commands:
                feds.add(computing_client(cmd))
                v = assigned_var(cmd)
                if v is not None and v.owner is not None:
                    feds.add(v.owner)
            federation = feds or {1}
        return Protocol(commands, frozenset(federation), modulus)

    def assigned(self) -> tuple:
        return tuple(v for v in (assigned_var(c) for c in self.commands) if v is not None)

    def secrets(self) -> tuple:
        return tuple(v for v in self._mentioned if v.kind == SECRET)

    def flips(self) -> tuple:
        return tuple(v for v in self._mentioned if v.kind == FLIP)

    def iovars(self) -> tuple:
        """All secret, message, reveal and output variables mentioned."""
        return tuple(v for v in self._mentioned if v.kind != FLIP)

    @cached_property
    def _mentioned(self) -> tuple:
        """Every variable read or assigned, in order of first mention: each
        command's reads sorted by name, then the variable it assigns.
        Computed once per protocol; not a field, so not part of eq or hash."""
        seen = {}
        for cmd in self.commands:
            seen.update(dict.fromkeys(sorted(command_reads(cmd), key=str)))
            v = assigned_var(cmd)
            if v is not None:
                seen.setdefault(v)
        return tuple(seen)

    @cached_property
    def _memo(self) -> dict:
        """What is derived from the protocol and kept with it (violations,
        passive programs, the interpreter's closures), by key.  Not a field,
        so not part of eq or hash."""
        return {}

    def message_vars(self) -> tuple:
        return tuple(v for v in self.iovars() if v.kind == MESG)

    def output_vars(self) -> tuple:
        return tuple(v for v in self.iovars() if v.kind == OUT)


@dataclass(frozen=True)
class Partition:
    """Split of the federation into honest and corrupt clients."""

    honest: frozenset
    corrupt: frozenset

    @staticmethod
    def of(federation, corrupt) -> "Partition":
        federation = frozenset(federation)
        corrupt = frozenset(corrupt)
        if not corrupt <= federation:
            raise UsageError(f"corrupt set {set(corrupt)} not within federation")
        return Partition(federation - corrupt, corrupt)


def owned_by(vars_, clients) -> tuple:
    return tuple(v for v in vars_ if v.owner in clients)


def corrupt_views(protocol: Protocol, part: Partition) -> tuple:
    """Views the corrupt coalition receives from honest clients.

    Reveals published by honest clients plus messages sent honest -> corrupt.
    """
    out = []
    for cmd in protocol.commands:
        if isinstance(cmd, RevealCmd) and cmd.src in part.honest:
            out.append(Var(REVEAL, cmd.name))
        elif isinstance(cmd, MesgSend) and cmd.src in part.honest and cmd.dest in part.corrupt:
            out.append(Var(MESG, cmd.name, cmd.dest))
    return tuple(out)


def honest_views(protocol: Protocol, part: Partition) -> tuple:
    """Views honest clients receive from the corrupt coalition."""
    out = []
    for cmd in protocol.commands:
        if isinstance(cmd, RevealCmd) and cmd.src in part.corrupt:
            out.append(Var(REVEAL, cmd.name))
        elif isinstance(cmd, MesgSend) and cmd.src in part.corrupt and cmd.dest in part.honest:
            out.append(Var(MESG, cmd.name, cmd.dest))
    return tuple(out)


def validate(protocol: Protocol, preprocessed=()) -> list:
    """Static checks; returns a list of violation strings (empty when valid).

    preprocessed lists variables supplied by a preprocessing phase; reads of
    those variables need no prior write.
    """
    violations = []
    fed = protocol.federation
    defined = set(preprocessed)
    for i, cmd in enumerate(protocol.commands):
        where = f"command {i}"
        client = computing_client(cmd)
        if client not in fed:
            violations.append(f"{where}: client {client} not in federation")
        target = assigned_var(cmd)
        if target is not None:
            if target.owner is not None and target.owner not in fed:
                violations.append(f"{where}: destination client {target.owner} not in federation")
            if target in defined:
                violations.append(f"{where}: {target} assigned twice")
        for v in sorted(command_reads(cmd), key=str):
            if v.kind in (SECRET, FLIP):
                if v.owner not in fed:
                    violations.append(f"{where}: {v} owned outside federation")
            elif v not in defined:
                violations.append(f"{where}: {v} read before any write")
        if isinstance(cmd, MesgSend):
            if isinstance(cmd.expr, (OT, OT4)):
                recv = cmd.expr.receiver
                if recv != cmd.dest:
                    violations.append(f"{where}: OT receiver {recv} differs from destination {cmd.dest}")
                for part_expr in _ot_parts(cmd.expr):
                    if _contains_ot(part_expr):
                        violations.append(f"{where}: nested OT expression")
            elif _contains_ot(cmd.expr):
                violations.append(f"{where}: OT must be the entire right-hand side of a send")
        elif isinstance(cmd, AssertCmd):
            if _contains_ot(cmd.pred):
                violations.append(f"{where}: OT not allowed in assertions")
        elif _contains_ot(cmd.expr):
            violations.append(f"{where}: OT must be the entire right-hand side of a send")
        if target is not None:
            defined.add(target)
    return violations


def violations_of(protocol: Protocol, preprocessed=()) -> list:
    """validate(protocol, preprocessed), kept with the protocol per deal, so
    that the checks of one command, and every later command on the same
    protocol, validate it once.  Only the dealt variables other than
    secrets and coin flips can change the result (validate checks those
    two kinds by owner), so the deal is keyed by them, and no deal and a
    uniform one over the secrets agree."""
    key = "violations", tuple(v for v in preprocessed if v.kind not in (SECRET, FLIP))
    if key not in protocol._memo:
        protocol._memo[key] = tuple(validate(protocol, preprocessed))
    return list(protocol._memo[key])


def _ot_parts(e):
    if isinstance(e, OT):
        return (e.choice, e.if1, e.if0)
    return (e.c1, e.c2) + e.rows


# --- Memory helpers --------------------------------------------------------

def format_memory(m: dict) -> str:
    """Canonical one-line rendering: var=val pairs sorted lexicographically."""
    return " ".join(f"{v}={m[v]}" for v in sorted(m, key=str))
