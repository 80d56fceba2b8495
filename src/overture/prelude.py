"""Metalanguage for generating protocols (.pre files).

A metaprogram is a set of function declarations plus a main expression.
Values are client numbers, strings, field expressions (message and flip
handles are field expressions), predicates, unit, and records.  Any other
term is a variable, a let, a call, a record, ';', or the one strict form,
MForm, which every other construct is: projection, '++', storage
references, field operators, OT4, comparisons, predicate connectives and
the four commands.  A form evaluates its parts left to right, then makes
one reduction, its rule; a command's rule appends the concrete command to
the residual protocol and gives unit.

The semantics is small-step substitution, left to right and deterministic:
_step performs one reduction and subst replaces a variable by a value.
eval_meta runs the same semantics as a CEK machine (Felleisen and Friedman,
1986): an environment from names to values instead of substitution, and one
stack of frames, each waiting for the values of a term's strict parts, in
place of recursion.  It emits the same commands, raises the same errors and
counts the same reductions against its step limit.  It never copies the
program, and a frame copies its environment at most once, so a chain of n
lets or operands costs O(n) at any depth; the reference, which rewrites the
whole term at every step, costs O(n^2).  _step and subst stay as the
reference the tests compare eval_meta with; nothing else calls them.

Syntax summary:

    f(a, b) { e }                 function declaration
    let x = e in e                binding; the body extends right across ';'
    e ; e                         sequencing, value of the last expression
    { f1 = e; f2 = e }            record, projection e.f1
    "lit"  e1 ++ e2               strings and concatenation
    m[e]@e := e @ e;              message send (the '@ e' computing client
                                  is optional when the right side is OT4)
    p[e] := e @ e;                reveal
    out@e := e @ e;               output
    assert(PRED)@e;               assertion
    OT4(c1, c2, table, recv, snd) 1-of-4 transfer; table has rows row1..row4
    s[e] r[e] m[e] p[e]           storage references inside field expressions
    true false                    field constants 1 and 0

Field operators and predicates are the protocol syntax's, parsed by lex
(binary and predicate) with '++' added: or < xor + - < and * < ++ < not.
"""

from dataclasses import dataclass
from functools import partial

from .errors import MetaEvalError, UsageError
from .lang import (
    BinOp, Cmp, Const, MesgSend, Not, OT4, OutputCmd, PAnd, PNot, POr,
    Protocol, Ref, RevealCmd, AssertCmd, FLIP, MESG, REVEAL, SECRET,
)
from .lex import TokenStream, binary, predicate, tokenize

STEP_LIMIT = 10 ** 6

_PUNCTS = (":=", "==", "!=", "++", "(", ")", "{", "}", "[", "]",
           "@", ";", ",", ".", "=", "+", "-", "*")
_KEYWORDS = {"let", "in", "true", "false", "not", "and", "or", "xor",
             "assert", "out", "OT4"}


# --- Metalanguage AST ---------------------------------------------------------

@dataclass(frozen=True)
class MInt:
    value: int


@dataclass(frozen=True)
class MStr:
    value: str


@dataclass(frozen=True)
class MUnit:
    pass


UNIT = MUnit()


@dataclass(frozen=True)
class MFieldVal:
    """An assembled field expression; sender is set for OT4 values."""

    expr: object
    sender: object = None


@dataclass(frozen=True)
class MPredVal:
    pred: object


_LITERALS = frozenset((MInt, MStr, MUnit, MFieldVal, MPredVal))


@dataclass(frozen=True)
class MVar:
    name: str


@dataclass(frozen=True)
class MLet:
    name: str
    bound: object
    body: object


@dataclass(frozen=True)
class MCall:
    fname: str
    args: tuple


@dataclass(frozen=True)
class MRecord:
    fields: tuple  # pairs (name, expr)


@dataclass(frozen=True)
class MSeq:
    first: object
    second: object


@dataclass(unsafe_hash=True)
class MForm:
    """A strict form: once its parts are values, one reduction makes
    rule(out, *static, *values), out being the residual command list.
    static holds what the parser fixed: an operator, a reference kind,
    a field name, or a predicate connective's constructor.  Nothing
    assigns to a form; it is not frozen because the parser builds one per
    operator, reference and command, and a frozen one takes about 2.5
    times as long to build."""

    rule: object
    static: tuple
    parts: tuple


@dataclass(frozen=True)
class FunDecl:
    name: str
    params: tuple
    body: object


def is_value(e) -> bool:
    if type(e) in _LITERALS:
        return True
    if isinstance(e, MRecord):
        return all(is_value(v) for _, v in e.fields)
    return False


# --- Substitution ---------------------------------------------------------------

def subst(e, name: str, value):
    """Capture-free substitution of a closed value for a variable."""
    if isinstance(e, MVar):
        return value if e.name == name else e
    if type(e) in _LITERALS:
        return e
    if isinstance(e, MForm):
        return MForm(e.rule, e.static, tuple(subst(p, name, value) for p in e.parts))
    if isinstance(e, MLet):
        bound = subst(e.bound, name, value)
        body = e.body if e.name == name else subst(e.body, name, value)
        return MLet(e.name, bound, body)
    if isinstance(e, MCall):
        return MCall(e.fname, tuple(subst(a, name, value) for a in e.args))
    if isinstance(e, MRecord):
        return MRecord(tuple((f, subst(v, name, value)) for f, v in e.fields))
    if isinstance(e, MSeq):
        return MSeq(subst(e.first, name, value), subst(e.second, name, value))
    raise MetaEvalError(f"cannot substitute into {e!r}")


# --- Coercions -------------------------------------------------------------------

def _as_client(v) -> int:
    if isinstance(v, MInt) and v.value >= 1:
        return v.value
    raise MetaEvalError(f"expected a client number, got {_show(v)}")


def _as_name(v) -> str:
    if isinstance(v, MStr):
        return v.value
    raise MetaEvalError(f"expected a name string, got {_show(v)}")


def _as_field_expr(v):
    if isinstance(v, MFieldVal):
        if v.sender is not None:
            raise MetaEvalError("OT4 may only appear as the whole right side of a send")
        return v.expr
    if isinstance(v, MInt):
        if v.value in (0, 1):
            return Const(v.value)
        raise MetaEvalError(f"field constant {v.value} out of range for F_2")
    raise MetaEvalError(f"expected a field expression, got {_show(v)}")


def _show(v) -> str:
    if isinstance(v, MInt):
        return str(v.value)
    if isinstance(v, MStr):
        return f'"{v.value}"'
    if isinstance(v, MUnit):
        return "unit"
    if isinstance(v, MFieldVal):
        from .ovt import format_expr

        return format_expr(v.expr)
    if isinstance(v, MRecord):
        return "{" + "; ".join(f"{f} = {_show(x)}" for f, x in v.fields) + "}"
    return repr(v)


# --- Reductions ----------------------------------------------------------------------
# What one reduction makes of a form whose parts are values: the rules of
# MForm, each called as rule(out, *static, *values), and a call's
# declaration.  The small-step reference and the machine share these, so
# both emit the same commands and raise the same errors.

def _decl(codebase: dict, fname: str, args):
    decl = codebase.get(fname)
    if decl is None:
        raise MetaEvalError(f"unknown function {fname}")
    if len(decl.params) != len(args):
        raise MetaEvalError(
            f"{fname} expects {len(decl.params)} arguments, got {len(args)}")
    return decl


def _project(out, field: str, record):
    if not isinstance(record, MRecord):
        raise MetaEvalError(f"projection .{field} of non-record {_show(record)}")
    for f, v in record.fields:
        if f == field:
            return v
    raise MetaEvalError(f"record has no field {field}")


def _concat(out, left, right):
    if isinstance(left, MStr) and isinstance(right, MStr):
        return MStr(left.value + right.value)
    raise MetaEvalError("++ requires two strings")


def _ref(out, kind, name):
    return MFieldVal(Ref(kind, _as_name(name)))


def _field_op(out, op, left, right):
    return MFieldVal(BinOp(op, _as_field_expr(left), _as_field_expr(right)))


def _field_not(out, operand):
    return MFieldVal(Not(_as_field_expr(operand)))


def _ot4(out, c1, c2, table, receiver, sender):
    c1, c2 = _as_field_expr(c1), _as_field_expr(c2)
    if not isinstance(table, MRecord):
        raise MetaEvalError("OT4 table must be a record")
    rows = {f: v for f, v in table.fields}
    if set(rows) != {"row1", "row2", "row3", "row4"}:
        raise MetaEvalError("OT4 table needs fields row1..row4")
    receiver = _as_client(receiver)
    sender = _as_client(sender)
    node = OT4(c1, c2, receiver,
               tuple(_as_field_expr(rows[f]) for f in ("row1", "row2", "row3", "row4")))
    return MFieldVal(node, sender=sender)


def _cmp(out, op, left, right):
    return MPredVal(Cmp(op, _as_field_expr(left), _as_field_expr(right)))


def _connective(out, ctor, left, right):
    if not (isinstance(left, MPredVal) and isinstance(right, MPredVal)):
        raise MetaEvalError("predicate connective over non-predicates")
    return MPredVal(ctor(left.pred, right.pred))


def _pred_not(out, operand):
    if not isinstance(operand, MPredVal):
        raise MetaEvalError("not over a non-predicate")
    return MPredVal(PNot(operand.pred))


def _send(out, name, dest, rhs, src=None):
    """src is None when the send names no computing client."""
    name = _as_name(name)
    dest = _as_client(dest)
    if isinstance(rhs, MFieldVal) and rhs.sender is not None:
        sender = rhs.sender
        if src is not None and _as_client(src) != sender:
            raise MetaEvalError("send computing client conflicts with OT4 sender")
        expr = rhs.expr
    else:
        if src is None:
            raise MetaEvalError("send without a computing client")
        sender = _as_client(src)
        expr = _as_field_expr(rhs)
    out.append(MesgSend(name, dest, expr, sender))
    return UNIT


def _reveal(out, name, rhs, src):
    out.append(RevealCmd(_as_name(name), _as_field_expr(rhs), _as_client(src)))
    return UNIT


def _output(out, client, rhs, src):
    client = _as_client(client)
    src = _as_client(src)
    if client != src:
        raise MetaEvalError(f"output for client {client} computed at {src}")
    out.append(OutputCmd(client, _as_field_expr(rhs)))
    return UNIT


def _assert(out, pred, client):
    if not isinstance(pred, MPredVal):
        raise MetaEvalError("assert requires a predicate")
    out.append(AssertCmd(pred.pred, _as_client(client)))
    return UNIT


# --- Small-step reference -------------------------------------------------------------
# The semantics by substitution: each _step performs one reduction, the
# leftmost-innermost.  eval_meta does not use it; the tests compare against it.

class _Stuck(MetaEvalError):
    pass


def _step(e, cb, out):
    if is_value(e):
        raise _Stuck("value cannot step")
    if isinstance(e, MVar):
        raise MetaEvalError(f"unbound variable {e.name}")
    if isinstance(e, MForm):
        parts = list(e.parts)
        for i, part in enumerate(parts):
            if not is_value(part):
                parts[i] = _step(part, cb, out)
                return MForm(e.rule, e.static, tuple(parts))
        return e.rule(out, *e.static, *parts)
    if isinstance(e, MLet):
        if not is_value(e.bound):
            return MLet(e.name, _step(e.bound, cb, out), e.body)
        return subst(e.body, e.name, e.bound)
    if isinstance(e, MCall):
        args = list(e.args)
        for i, a in enumerate(args):
            if not is_value(a):
                args[i] = _step(a, cb, out)
                return MCall(e.fname, tuple(args))
        decl = _decl(cb, e.fname, args)
        body = decl.body
        for param, arg in zip(decl.params, args):
            body = subst(body, param, arg)
        return body
    if isinstance(e, MRecord):
        fields = list(e.fields)
        for i, (f, v) in enumerate(fields):
            if not is_value(v):
                fields[i] = (f, _step(v, cb, out))
                return MRecord(tuple(fields))
        raise _Stuck("record of values")
    if isinstance(e, MSeq):
        if not is_value(e.first):
            return MSeq(_step(e.first, cb, out), e.second)
        return e.second
    raise MetaEvalError(f"cannot evaluate {e!r}")


# --- Environment evaluator ------------------------------------------------------------

class _Machine:
    """Evaluates by the small-step rules without rewriting the program.

    Variables are looked up in an environment, a dict from name to value,
    instead of being substituted.  A term's strict parts (an MForm's parts,
    a call's arguments, a record's fields, a let's bound term, the left
    side of ';') are evaluated left to right in a frame, and the frames
    waiting for a part's value wait on one stack instead of Python's, so a
    term of any depth evaluates.  A frame holds its term, its parts, their
    values so far, and the env and ownership it evaluates them in; owned
    says whether the frame may bind in its env.  A literal or bound variable
    part is read in place; any other part gets a frame of its own.
    Reductions are counted where _step would perform them, in the same
    order: a variable's lookup and a record of values cost none, every
    other term one once its parts are values, and an unbound variable one
    that raises.  A tail position (a let's body, the second part of ';', a
    function's body) replaces the finished frame instead of stacking a new
    one, and a frame copies the environment it was given before its first
    let, so a chain of n lets costs O(n)."""

    def __init__(self, codebase: dict, step_limit: int):
        self.codebase = codebase
        self.step_limit = step_limit
        self.steps = 0
        self.out: list = []

    def eval(self, e):
        """Value of the closed term e."""
        out, limit, steps = self.out, self.step_limit, self.steps
        env, owned = {}, True
        stack = []  # the frames below the current one, as tuples
        # The current frame; one whose term is None passes on the value of
        # its one part, as the first frame and each tail do.
        term, parts, values = None, (e,), []
        while True:
            if len(values) < len(parts):
                e = parts[len(values)]
                t = type(e)
                if t in _LITERALS:
                    values.append(e)
                    continue
                if t is MVar and e.name in env:
                    values.append(env[e.name])
                    continue
                if term is not None:
                    stack.append((term, parts, values, env, owned))
                    owned = False
                term, values = e, []
                if t is MForm:
                    parts = e.parts
                elif t is MLet:
                    parts = (e.bound,)
                elif t is MSeq:
                    parts = (e.first,)
                elif t is MCall:
                    parts = e.args
                elif t is MRecord:
                    parts = tuple(v for _, v in e.fields)
                elif t is MVar:
                    parts = ()  # unbound: its reduction raises
                else:
                    raise MetaEvalError(f"cannot evaluate {e!r}")
                continue
            # every part is a value: finish the frame
            t = type(term)
            if term is None:
                value = values[0]
            elif t is MRecord:
                value = MRecord(tuple((f, v) for (f, _), v in zip(term.fields, values)))
            else:
                steps += 1
                if steps > limit:
                    raise MetaEvalError(f"no value after {limit} steps")
                if t is MForm:
                    value = term.rule(out, *term.static, *values)
                else:
                    if t is MLet:
                        if not owned:
                            env, owned = dict(env), True
                        env[term.name] = values[0]
                        e = term.body
                    elif t is MSeq:
                        e = term.second
                    elif t is MCall:
                        decl = _decl(self.codebase, term.fname, values)
                        # substitution binds the first of two equal parameter names
                        env, owned = {}, True
                        for param, arg in zip(decl.params, values):
                            env.setdefault(param, arg)
                        e = decl.body
                    else:
                        raise MetaEvalError(f"unbound variable {term.name}")
                    term, parts, values = None, (e,), []
                    continue
            if not stack:
                self.steps = steps
                return value
            term, parts, values, env, owned = stack.pop()
            values.append(value)


def eval_meta(codebase: dict, main, step_limit: int = STEP_LIMIT):
    """Evaluate the main expression to a value; returns (protocol, value).

    The residual protocol grows append-only: commands are emitted in
    evaluation order and never modified.  A program that needs n reductions
    evaluates when step_limit > n, as a loop over _step would.
    """
    machine = _Machine(codebase, step_limit)
    value = machine.eval(main)
    if machine.steps >= step_limit:
        raise MetaEvalError(f"no value after {step_limit} steps")
    return Protocol.of(machine.out, modulus=2), value


# --- Parsing -----------------------------------------------------------------------

def parse_program(src: str):
    """Parse declarations and an optional main expression."""
    ts = TokenStream(tokenize(src, _PUNCTS, strings=True))
    codebase: dict = {}
    main = None
    while not ts.at("eof"):
        decl = _try_decl(ts)
        if decl is not None:
            if decl.name in codebase:
                raise ts.error(f"duplicate declaration of {decl.name}")
            codebase[decl.name] = decl
            continue
        main = _expr(ts)
        if not ts.at("eof"):
            raise ts.error("unexpected input after the main expression")
    return codebase, main


def _try_decl(ts):
    save = ts.save()
    t = ts.peek()
    if t.kind != "ident" or t.value in _KEYWORDS:
        return None
    name = ts.next().value
    if not ts.at_punct("("):
        ts.restore(save)
        return None
    ts.next()
    params = []
    if not ts.at_punct(")"):
        while True:
            p = ts.peek()
            if p.kind != "ident" or p.value in _KEYWORDS:
                ts.restore(save)
                return None
            params.append(ts.next().value)
            if ts.at_punct(","):
                ts.next()
                continue
            break
    if not ts.at_punct(")"):
        ts.restore(save)
        return None
    ts.next()
    if not ts.at_punct("{"):
        ts.restore(save)
        return None
    ts.next()
    body = _expr(ts)
    ts.eat("punct", "}")
    return FunDecl(name, tuple(params), body)


def _expr(ts):
    # A let's body and what follows '; let' nest to the right.  The chain is
    # parsed in a loop and built from its end, so that a long program does
    # not recurse once per let.
    wrap = []  # each takes the rest of the chain
    while True:
        if ts.at_word("let"):
            ts.next()
            name = ts.eat("ident").value
            if name in _KEYWORDS:
                raise ts.error(f"{name} is a keyword")
            ts.eat("punct", "=")
            bound = _expr(ts)
            ts.eat("ident", "in")
            wrap.append(partial(MLet, name, bound))
            continue
        e = _item(ts)
        let_follows = False
        while ts.at_punct(";"):
            ts.next()
            if not _starts_item(ts):
                break
            wrap.append(partial(MSeq, e))
            if ts.at_word("let"):
                let_follows = True
                break
            e = _item(ts)
        if not let_follows:
            break
    for rest in reversed(wrap):
        e = rest(e)
    return e


def _starts_item(ts) -> bool:
    t = ts.peek()
    if t.kind in ("int", "string"):
        return True
    if t.kind == "ident":
        return t.value not in ("in",)
    return t.kind == "punct" and t.value in ("(", "{")


def _item(ts):
    t = ts.peek()
    if t.kind == "ident" and t.value in ("assert", "out", "m", "p"):
        cmd = _try_command(ts)
        if cmd is not None:
            return cmd
    return _opexpr(ts)


_PREDICATE = (lambda op, left, right: MForm(_cmp, (op,), (left, right)),
              lambda left, right: MForm(_connective, (PAnd,), (left, right)),
              lambda left, right: MForm(_connective, (POr,), (left, right)),
              lambda operand: MForm(_pred_not, (), (operand,)))


def _try_command(ts):
    save = ts.save()
    if ts.at_word("assert"):
        ts.next()
        ts.eat("punct", "(")
        pred = predicate(ts, _opexpr, *_PREDICATE)
        ts.eat("punct", ")")
        ts.eat("punct", "@")
        client = _opexpr(ts)
        return MForm(_assert, (), (pred, client))
    if ts.at_word("out"):
        ts.next()
        ts.eat("punct", "@")
        client = _opexpr(ts)
        ts.eat("punct", ":=")
        rhs = _opexpr(ts)
        ts.eat("punct", "@")
        src = _opexpr(ts)
        return MForm(_output, (), (client, rhs, src))
    if ts.at_word("m"):
        ts.next()
        if not ts.at_punct("["):
            ts.restore(save)
            return None
        ts.next()
        name = _expr(ts)
        ts.eat("punct", "]")
        if not ts.at_punct("@"):
            ts.restore(save)
            return None
        ts.next()
        dest = _opexpr(ts)
        if not ts.at_punct(":="):
            ts.restore(save)
            return None
        ts.next()
        parts = (name, dest, _opexpr(ts))
        if ts.at_punct("@"):
            ts.next()
            parts += (_opexpr(ts),)
        return MForm(_send, (), parts)
    if ts.at_word("p"):
        ts.next()
        if not ts.at_punct("["):
            ts.restore(save)
            return None
        ts.next()
        name = _expr(ts)
        ts.eat("punct", "]")
        if not ts.at_punct(":="):
            ts.restore(save)
            return None
        ts.next()
        rhs = _opexpr(ts)
        ts.eat("punct", "@")
        src = _opexpr(ts)
        return MForm(_reveal, (), (name, rhs, src))
    return None


def _operator(op, left, right):
    if op == "++":
        return MForm(_concat, (), (left, right))
    return MForm(_field_op, (op,), (left, right))


def _opexpr(ts):
    return binary(ts, _level_unary, _operator)


def _level_unary(ts):
    if ts.at_word("not"):
        ts.next()
        return MForm(_field_not, (), (_level_unary(ts),))
    return _postfix(ts)


def _postfix(ts):
    e = _atom(ts)
    while ts.at_punct("."):
        ts.next()
        field = ts.eat("ident").value
        e = MForm(_project, (field,), (e,))
    return e


def _atom(ts):
    t = ts.peek()
    if t.kind == "int":
        ts.next()
        return MInt(int(t.value))
    if t.kind == "string":
        ts.next()
        return MStr(t.value)
    if t.kind == "ident":
        word = t.value
        if word in ("true", "false"):
            ts.next()
            return MFieldVal(Const(1 if word == "true" else 0))
        if word == "OT4":
            ts.next()
            ts.eat("punct", "(")
            args = [_expr(ts)]
            for _ in range(4):
                ts.eat("punct", ",")
                args.append(_expr(ts))
            ts.eat("punct", ")")
            return MForm(_ot4, (), tuple(args))
        after = ts.tokens[ts.pos + 1]
        if word in (SECRET, FLIP, MESG, REVEAL) and after.kind == "punct" and after.value == "[":
            ts.next()
            ts.next()
            name = _expr(ts)
            ts.eat("punct", "]")
            return MForm(_ref, (word,), (name,))
        if word not in _KEYWORDS:
            ts.next()
            if after.kind == "punct" and after.value == "(":
                ts.next()
                args = []
                if not ts.at_punct(")"):
                    args.append(_expr(ts))
                    while ts.at_punct(","):
                        ts.next()
                        args.append(_expr(ts))
                ts.eat("punct", ")")
                return MCall(word, tuple(args))
            return MVar(word)
    if ts.at_punct("("):
        ts.next()
        e = _expr(ts)
        ts.eat("punct", ")")
        return e
    if ts.at_punct("{"):
        ts.next()
        fields = []
        while True:
            fname = ts.eat("ident").value
            ts.eat("punct", "=")
            fields.append((fname, _item(ts)))
            if ts.at_punct(";"):
                ts.next()
                if ts.at_punct("}"):
                    break
                continue
            break
        ts.eat("punct", "}")
        return MRecord(tuple(fields))
    raise ts.error(f"expected an expression, found {t.value or t.kind!r}")


# --- Front end ----------------------------------------------------------------------

def expand(src: str, libs=()) -> Protocol:
    """Parse and evaluate a metaprogram (with optional extra codebases)."""
    codebase: dict = {}
    texts = (*libs, src)
    for k, text in enumerate(texts, 1):
        cb, main = parse_program(text)
        if main is not None and k < len(texts):
            raise UsageError("library file contains a main expression")
        for name, decl in cb.items():
            if name in codebase:
                raise UsageError(f"duplicate declaration of {name}")
            codebase[name] = decl
    if main is None:
        raise UsageError("metaprogram has no main expression")
    protocol, _ = eval_meta(codebase, main)
    return protocol
