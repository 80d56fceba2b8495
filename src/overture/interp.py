"""Reference interpreter for protocols.

Execution is deterministic given an initial memory holding every secret,
every coin flip, and any preprocessing-dealt values.  An assertion that
fails on an honest client halts the run; views and outputs not yet produced
are padded with BOT.  A protocol is lowered once, on its first run, into
one closure per command built bottom-up over lang.postorder, each Ref's
variable built once.  A chain of one associative operator (xor, and, or
over F_2; + and * over any field) is one closure over its operands, so it
evaluates at depth 1, and so is the left spine of a '-' chain (a - b - c,
not a - (b - c)).  Each EvalError is raised when evaluated, where a walk
of the expression raises it: left operand first, never in an OT's
untaken branch.
"""

import operator
from collections import deque
from dataclasses import dataclass
from functools import cached_property, reduce

from .errors import EvalError, UsageError
from .lang import (
    ARITY, BOT, PREDS, AssertCmd, BinOp, Cmp, Const, Not, OT, OT4, PAnd, PNot, POr,
    Partition, Protocol, Ref, Var, assigned_var, computing_client, expr_vars, postorder, REVEAL,
)

_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
        "and": operator.and_, "or": operator.or_, "xor": operator.xor}
_OT4_ROW = {(1, 1): 0, (1, 0): 1, (0, 1): 2, (0, 0): 3}
_UNBOUND = object()


def _fail(message: str, error=EvalError, first=()):
    """A closure that evaluates the closures first, then raises."""
    def fail(m):
        for f in first:
            f(m)
        raise error(message)
    return fail


def _apply(op: str, fs: list, p: int):
    """One closure applying op to the values of fs, left to right."""
    fn = _OPS.get(op)
    if op in ("+", "-", "*"):
        fn = lambda x, y, f=fn: f(x, y) % p  # noqa: E731  (xor, and, or stay in F_2)
    elif p != 2 or fn is None:
        return _fail(f"operator {op} requires F_2" if p != 2 else f"unknown operator {op}",
                     first=fs)
    if len(fs) == 2:
        a, b = fs
        return lambda m: fn(a(m), b(m))
    return lambda m: reduce(fn, [f(m) for f in fs])


def _close(node, f, pred: bool, p: int):
    """A lowered operand's closure: an open chain closes, a misplaced node raises."""
    if (type(node) in PREDS) != pred:
        return _fail(f"not {'a predicate' if pred else 'an expression'}: {node!r}")
    return _apply(node.op, list(f), p) if type(f) is deque else f


def _ref(var: Var):
    def ref(m):
        v = m.get(var, _UNBOUND)
        if v is BOT or v is _UNBOUND:
            raise EvalError(f"{var} unbound" if v is _UNBOUND else f"{var} is undefined (bot)")
        return v
    return ref


def _lower(root, client: int, p: int, pred: bool = False, known=None):
    """The closure m -> value (truth, for a predicate) of root as client
    evaluates it under memory m; known maps variables to the objects read."""
    chains = ("+", "-", "*", "xor", "and", "or") if p == 2 else ("+", "-", "*")
    stack = []  # (node, closure) per operand not yet taken; a deque is an open chain
    for n, c in postorder(root, client):
        t = type(n)
        args = stack[len(stack) - ARITY[t]:]
        del stack[len(stack) - ARITY[t]:]
        if t is BinOp and n.op in chains:  # an operand chain of the same op splices in
            a, b = (f if type(x) is BinOp and x.op == n.op and (n.op != "-" or not j)
                    else deque([_close(x, f, False, p)]) for j, (x, f) in enumerate(args))
            if len(a) >= len(b):  # grow the longer side, so a chain lowers in linear time
                a.extend(b)
            else:
                b.extendleft(reversed(a))
                a = b
            stack.append((n, a))
            continue
        fs = [_close(*x, t in PREDS and t is not Cmp, p) for x in args]
        if t is Const:
            f = (lambda m, v=n.value: v) if 0 <= n.value < p else \
                _fail(f"constant {n.value} out of range for F_{p}")
        elif t is Ref:
            var = Var(n.kind, n.name, None if n.kind == REVEAL else c)
            f = _ref(var if known is None else known.setdefault(var, var))
        elif p != 2 and t in (Not, OT, OT4):  # these raise before evaluating an operand
            f = _fail("operator not requires F_2" if t is Not else f"{t.__name__} requires F_2")
        else:
            f = _NODES[t](n, p, *fs)
        stack.append((n, f))
    return _close(*stack[0], pred, p)


_NODES = {
    BinOp: lambda n, p, a, b: _apply(n.op, [a, b], p),
    Not: lambda n, p, a: lambda m: 1 - a(m),
    OT: lambda n, p, choice, if1, if0: lambda m: (if1 if choice(m) == 1 else if0)(m),
    OT4: lambda n, p, c1, c2, *rows: lambda m: rows[_OT4_ROW[c1(m), c2(m)]](m),
    Cmp: lambda n, p, a, b: lambda m, eq=n.op == "==": (a(m) == b(m)) == eq,
    PAnd: lambda n, p, a, b: lambda m: a(m) and b(m),
    POr: lambda n, p, a, b: lambda m: a(m) or b(m),
    PNot: lambda n, p, a: lambda m: not a(m),
}


def eval_expr(m: dict, e, client: int, p: int = 2) -> int:
    """Field value of e as computed by client under memory m."""
    return _lower(e, client, p)(m)


def eval_pred(m: dict, pred, client: int, p: int = 2) -> bool:
    return _lower(pred, client, p, True)(m)


def lowered(protocol: Protocol) -> tuple:
    """Per command of protocol, lowered once and kept with it: (its variable,
    None for an assertion; its computing client; its closure).  Variables
    are the protocol's own objects, so a memory of them is read by identity."""
    if "interp" not in protocol._memo:
        known = {v: v for v in protocol._mentioned}
        protocol._memo["interp"] = tuple(
            (known.get(assigned_var(cmd)), computing_client(cmd),
             _lower(cmd.pred if type(cmd) is AssertCmd else cmd.expr, computing_client(cmd),
                    protocol.modulus, type(cmd) is AssertCmd, known))
            for cmd in protocol.commands)
    return protocol._memo["interp"]


@dataclass(frozen=True)
class AdversaryStrategy:
    """Rewrites applied to corrupt-computed commands, by command index.

    A replacement expression may reference only corrupt-readable storage
    (variables owned by a corrupt client, and reveals).  View-dependent
    behavior is expressed by the replacement itself: over F_2 any
    deterministic choice made from the visible memory is a truth table,
    hence an expression over the visible variables.  abort_at lists indices
    of the adversary's own assertions where it chooses to halt.
    """

    replacements: tuple = ()  # pairs (command index, expression)
    abort_at: frozenset = frozenset()
    label: str = ""

    def describe(self) -> str:
        return self.label or (f"rewrites at {sorted(i for i, _ in self.replacements)}"
                              if self.replacements else "identity")

    @cached_property
    def _memo(self) -> dict:
        """The replacement of each index (its first), and each lowered by
        (index, client, field, corrupt clients).  Not part of eq or hash."""
        return {"rewrites": dict(reversed(self.replacements))}


IDENTITY = AdversaryStrategy(label="identity")
_NOBODY = Partition(frozenset(), frozenset())


def step(m: dict, protocol: Protocol):
    """One configuration step: execute the head command.

    Returns (memory, rest-protocol, aborted).  A failed honest assertion
    returns aborted=True with the memory unchanged.
    """
    if not protocol.commands:
        raise UsageError("empty protocol cannot step")
    cmd, p = protocol.commands[0], protocol.modulus
    rest = Protocol(protocol.commands[1:], protocol.federation, p)
    if isinstance(cmd, AssertCmd):
        return m, rest, not eval_pred(m, cmd.pred, cmd.client, p)
    value, var = eval_expr(m, cmd.expr, computing_client(cmd), p), assigned_var(cmd)
    if var in m:
        raise EvalError(f"{var} assigned twice")
    return {**m, var: value}, rest, False


def run(m0: dict, protocol: Protocol) -> dict:
    """Final memory of the run from m0; aborted runs are BOT-padded."""
    return _run(m0, protocol, IDENTITY, _NOBODY)


def _check_replacement_visibility(expr, client: int, part: Partition):
    for v in expr_vars(expr, client):
        if v.kind != REVEAL and v.owner not in part.corrupt:
            raise UsageError(f"adversarial replacement reads honest variable {v}")


def _replacement(strategy: AdversaryStrategy, i: int, client: int, p: int, part: Partition):
    """strategy's replacement at command i, lowered once; it raises when run
    if it reads an honest variable."""
    key = i, client, p, part.corrupt
    if key not in strategy._memo:
        expr = strategy._memo["rewrites"][i]
        try:
            _check_replacement_visibility(expr, client, part)
            strategy._memo[key] = _lower(expr, client, p)
        except UsageError as error:
            strategy._memo[key] = _fail(str(error), UsageError)
    return strategy._memo[key]


def run_adv(m0: dict, protocol: Protocol, strategy: AdversaryStrategy,
            part: Partition) -> dict:
    """Run under an active adversary controlling the corrupt clients.

    Corrupt-computed commands have their expressions replaced through the
    strategy; corrupt assertions are skipped unless the strategy chooses to
    abort there; a failed honest assertion halts with BOT padding.
    """
    return _run(m0, protocol, strategy, part)


def _run(m0: dict, protocol: Protocol, strategy: AdversaryStrategy, part: Partition) -> dict:
    """run_adv; run calls it too, so that each is one call when perfbench wraps both."""
    m = dict(m0)
    steps, rewrites = lowered(protocol), strategy._memo["rewrites"]
    for i, (var, client, f) in enumerate(steps):
        corrupt = client in part.corrupt
        if var is None:  # an assertion; a corrupt one holds unless the strategy halts there
            if (i in strategy.abort_at) if corrupt else not f(m):
                break
            continue
        if corrupt and i in rewrites and rewrites[i] is not protocol.commands[i].expr:
            f = _replacement(strategy, i, client, protocol.modulus, part)
        value = f(m)
        if var in m:
            raise EvalError(f"{var} assigned twice")
        m[var] = value
    else:
        return m
    m.update((v, BOT) for v, _, _ in steps[i:] if v is not None and v not in m)  # halted at i
    return m
