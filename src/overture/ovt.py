"""Concrete syntax for protocol files (.ovt).

Commands, one per ';':

    m[NAME]@INT := EXPR @ INT;
    p[NAME]    := EXPR @ INT;
    out@INT    := EXPR @ INT;
    assert(PRED)@INT;

Expressions use atoms s[NAME], r[NAME], m[NAME], p[NAME], integer literals
and true/false, with operators + - * and or xor, unary not, parentheses.
Oblivious transfer (only as the entire right side of a send, computed by
the sending client) is written

    OT(CHOICE @ RECEIVER ; IF1, IF0)
    OT4(C1, C2 @ RECEIVER ; ROW11, ROW10, ROW01, ROW00)

Predicates are comparisons EXPR == EXPR / EXPR != EXPR combined with
and/or/not; comparison operands bind greedily, so combined comparisons
should be parenthesized individually.  '#' starts a comment.  The
tokenizer, the operator precedence and the predicate grammar are lex's,
shared with the .pre syntax; this module adds the atoms and commands.

The printer wraps an operand in parentheses only where it binds looser
than its place needs (lex.BINARY).
"""

from .errors import ParseError, UsageError
from .lang import (
    PREDS, AssertCmd, BinOp, Cmp, Const, MesgSend, Not, OT, OT4, OutputCmd, PAnd,
    PNot, POr, Protocol, Ref, RevealCmd,
)
from .lex import BINARY, TokenStream, binary, predicate, tokenize

_PUNCTS = (":=", "==", "!=", "(", ")", "[", "]", "@", ";", ",", "+", "-", "*")


def parse_protocol(src: str, modulus: int = 2, federation=None) -> Protocol:
    ts = TokenStream(tokenize(src, _PUNCTS))
    commands = []
    while not ts.at("eof"):
        commands.append(_command(ts))
    return Protocol.of(commands, federation, modulus)


def _name(ts) -> str:
    t = ts.peek()
    if t.kind in ("ident", "int"):
        ts.next()
        return t.value
    raise ts.error(f"expected a name, found {t.value or t.kind!r}")


def _int(ts) -> int:
    return int(ts.eat("int").value)


def _command(ts):
    t = ts.next()
    if t.kind == "ident" and t.value == "assert":
        ts.eat("punct", "(")
        pred = predicate(ts, _expr, Cmp, PAnd, POr, PNot)
        ts.eat("punct", ")")
        ts.eat("punct", "@")
        client = _int(ts)
        ts.eat("punct", ";")
        return AssertCmd(pred, client)
    if t.kind != "ident" or t.value not in ("m", "p", "out"):
        raise ParseError(f"expected a command, found {t.value or t.kind!r}", t.line, t.col)
    if t.value != "out":
        ts.eat("punct", "[")
        name = _name(ts)
        ts.eat("punct", "]")
    if t.value != "p":
        ts.eat("punct", "@")
        dest = _int(ts)  # out's client
    ts.eat("punct", ":=")
    expr = _expr(ts)
    ts.eat("punct", "@")
    src = _int(ts)
    ts.eat("punct", ";")
    if t.value == "m":
        return MesgSend(name, dest, expr, src)
    if t.value == "p":
        return RevealCmd(name, expr, src)
    if src != dest:
        raise ParseError(f"output for client {dest} computed at {src}", t.line, t.col)
    return OutputCmd(dest, expr)


def _expr(ts):
    return binary(ts, _expr_unary, BinOp)


def _expr_unary(ts):
    if ts.at_word("not"):
        ts.next()
        return Not(_expr_unary(ts))
    return _expr_atom(ts)


def _expr_atom(ts):
    t = ts.peek()
    if t.kind == "int":
        ts.next()
        return Const(int(t.value))
    if t.kind == "ident" and t.value in ("true", "false"):
        ts.next()
        return Const(int(t.value == "true"))
    if ts.at_word("OT"):
        ts.next()
        ts.eat("punct", "(")
        choice = _expr(ts)
        ts.eat("punct", "@")
        receiver = _int(ts)
        ts.eat("punct", ";")
        if1 = _expr(ts)
        ts.eat("punct", ",")
        if0 = _expr(ts)
        ts.eat("punct", ")")
        return OT(choice, receiver, if1, if0)
    if ts.at_word("OT4"):
        ts.next()
        ts.eat("punct", "(")
        c1 = _expr(ts)
        ts.eat("punct", ",")
        c2 = _expr(ts)
        ts.eat("punct", "@")
        receiver = _int(ts)
        ts.eat("punct", ";")
        rows = [_expr(ts)]
        for _ in range(3):
            ts.eat("punct", ",")
            rows.append(_expr(ts))
        ts.eat("punct", ")")
        return OT4(c1, c2, receiver, tuple(rows))
    if t.kind == "ident" and t.value in ("s", "r", "m", "p"):
        ts.next()
        ts.eat("punct", "[")
        name = _name(ts)
        ts.eat("punct", "]")
        return Ref(t.value, name)
    if ts.at_punct("("):
        ts.next()
        e = _expr(ts)
        ts.eat("punct", ")")
        return e
    raise ts.error(f"expected an expression, found {t.value or t.kind!r}")


# --- Formatting -------------------------------------------------------------

_ATOM = 5  # an atom's binding level: tighter than any operator, never wrapped


def _infix(n, op, level, right, pred):
    """n's level and text: n.left bare at level, op, n.right bare at right."""
    return level, ((n.left, level, pred), f" {op} ", (n.right, right, pred))


# Per node type: its binding level and its text, strings around (operand,
# the least binding level it is printed bare at, whether it is a
# predicate).  A predicate connective binds like its expression operator
# (or < and < not), and a comparison under one is always wrapped; a not
# is wrapped as the right operand of and/*: x and (not y).  A comparison's
# left operand is marked None in place of False, and the mark passes to
# whatever is printed first in it: a not that starts a comparison is
# wrapped, as 'not x and y == 0' reads as not (x and y == 0).
_LAYOUTS = {
    BinOp: lambda n: _infix(n, n.op, BINARY[n.op], BINARY[n.op] + 1, False),
    Ref: lambda n: (_ATOM, (f"{n.kind}[{n.name}]",)),
    Const: lambda n: (_ATOM, (str(n.value),)),
    Not: lambda n: (3, ("not ", (n.operand, 4, False))),
    OT: lambda n: (_ATOM, ("OT(", (n.choice, 0, False), f" @ {n.receiver} ; ",
                           (n.if1, 0, False), ", ", (n.if0, 0, False), ")")),
    OT4: lambda n: (_ATOM, ("OT4(", (n.c1, 0, False), ", ", (n.c2, 0, False),
                            f" @ {n.receiver} ; ",
                            *[x for row in n.rows for x in (", ", (row, 0, False))][1:], ")")),
    Cmp: lambda n: (0, ((n.left, 0, None), f" {n.op} ", (n.right, 0, False))),
    POr: lambda n: _infix(n, "or", 1, 1, True),
    PAnd: lambda n: _infix(n, "and", 2, 2, True),
    PNot: lambda n: (3, ("not ", (n.operand, 3, True))),
}


def _text(root, pred: bool) -> str:
    """The text of an expression (pred false) or predicate, written out
    from an explicit stack of what is left to print, so an operand chain
    of any length prints without recursion and each piece is copied once."""
    out, todo = [], [(root, 0, pred)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        node, need, pred = item
        t = type(node)
        if t not in _LAYOUTS or (t in PREDS) != bool(pred):
            raise UsageError(f"not {'a predicate' if pred else 'an expression'}: {node!r}")
        level, layout = _LAYOUTS[t](node)
        if pred is None:  # the node starts a comparison
            if t is Not:
                level = -1
            elif level >= need and type(layout[0]) is tuple:
                layout = ((*layout[0][:2], None), *layout[1:])
        todo.extend((")", *reversed(layout), "(") if level < need else reversed(layout))
    return "".join(out)


def format_expr(e) -> str:
    return _text(e, False)


def format_pred(pred) -> str:
    return _text(pred, True)


def format_command(cmd) -> str:
    if isinstance(cmd, MesgSend):
        return f"m[{cmd.name}]@{cmd.dest} := {format_expr(cmd.expr)} @ {cmd.src};"
    if isinstance(cmd, RevealCmd):
        return f"p[{cmd.name}] := {format_expr(cmd.expr)} @ {cmd.src};"
    if isinstance(cmd, OutputCmd):
        return f"out@{cmd.client} := {format_expr(cmd.expr)} @ {cmd.client};"
    if isinstance(cmd, AssertCmd):
        return f"assert({format_pred(cmd.pred)})@{cmd.client};"
    raise UsageError(f"not a command: {cmd!r}")


def format_protocol(protocol: Protocol) -> str:
    return "\n".join(format_command(c) for c in protocol.commands) + "\n"
