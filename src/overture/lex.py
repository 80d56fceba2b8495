"""The grammar that the protocol (.ovt) and metaprogram (.pre) syntaxes share.

tokenize splits either text (each passes its own punctuation; .pre has
strings).  binary parses a chain of binary operators, loosest first
or < xor + - < and * < ++ (.pre only) as BINARY ranks them, each level
associating to the left.  predicate parses comparisons EXPR == EXPR and
EXPR != EXPR under not, and, or (loosest) and parentheses.  A
comparison's operands bind greedily: 'x == y and z' compares x with
'y and z'.  A 'not' or '(' is first read as the start of a predicate;
where that fails, the parser backs up and reads a comparison from there,
so 'not (x xor y) == 0' negates '(x xor y) == 0' and '(not x) == y'
compares 'not x'.  Each syntax passes its own operands and nodes, and
keeps its atoms, its unary 'not' on expressions and its commands.
"""

import functools
import re
from typing import NamedTuple

from .errors import ParseError


class Token(NamedTuple):
    kind: str  # ident | int | string | punct | eof
    value: str
    line: int
    col: int


@functools.lru_cache(maxsize=None)
def _scanner(puncts: tuple, comment: str, strings: bool):
    """One pattern for every token and skipped span.  Integers are ASCII
    digits only: other digits are not valid int() literals."""
    alts = [r"(?P<nl>\n)", r"(?P<ws>[ \t\r]+)", f"(?P<comment>{re.escape(comment)}[^\n]*)"]
    if strings:
        alts.append(r'(?P<string>"[^"\n]*")')
    alts += [r"(?P<int>[0-9]+)", r"(?P<ident>[^\W\d]\w*)",
             "(?P<punct>" + "|".join(map(re.escape, puncts)) + ")"]
    return re.compile("|".join(alts)).match


def tokenize(src: str, puncts, comment="#", strings=False) -> list:
    """Split src into tokens; puncts must be sorted longest-first by caller.

    Columns count characters from 1; a comment ending the source leaves the
    end-of-input column at its '#'."""
    match = _scanner(tuple(puncts), comment, strings)
    toks = []
    n = len(src)
    i, line, line_start, eof_at = 0, 1, 0, n
    while i < n:
        m = match(src, i)
        if m is None:
            if strings and src[i] == '"':
                raise ParseError("unterminated string", line, i - line_start + 1)
            raise ParseError(f"unexpected character {src[i]!r}", line, i - line_start + 1)
        kind, j = m.lastgroup, m.end()
        if kind == "nl":
            line, line_start = line + 1, j
        elif kind == "ident":
            # \w also holds numeric characters that str.isalpha rejects
            if not (src[i] == "_" or src[i].isalpha()):
                raise ParseError(f"unexpected character {src[i]!r}", line, i - line_start + 1)
            toks.append(Token("ident", m.group(), line, i - line_start + 1))
        elif kind == "string":
            toks.append(Token("string", src[i + 1:j - 1], line, i - line_start + 1))
        elif kind == "comment" and j == n:
            eof_at = i
        elif kind in ("int", "punct"):
            toks.append(Token(kind, m.group(), line, i - line_start + 1))
        i = j
    toks.append(Token("eof", "", line, eof_at - line_start + 1))
    return toks


class TokenStream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def save(self) -> int:
        return self.pos

    def restore(self, pos: int):
        self.pos = pos

    def at(self, kind, value=None) -> bool:
        t = self.tokens[self.pos]
        return t.kind == kind and (value is None or t.value == value)

    def at_punct(self, value) -> bool:
        t = self.tokens[self.pos]
        return t.value == value and t.kind == "punct"

    def at_word(self, value) -> bool:
        t = self.tokens[self.pos]
        return t.value == value and t.kind == "ident"

    def eat(self, kind, value=None) -> Token:
        t = self.tokens[self.pos]
        if t.kind != kind or (value is not None and t.value != value):
            want = value if value is not None else kind
            raise ParseError(f"expected {want!r}, found {t.value or t.kind!r}", t.line, t.col)
        return self.next()

    def error(self, msg) -> ParseError:
        t = self.peek()
        return ParseError(msg, t.line, t.col)


# Binary operators by how tightly they bind; each level associates to the left.
BINARY = {"or": 1, "xor": 2, "+": 2, "-": 2, "and": 3, "*": 3, "++": 4}


def binary(ts, operand, make):
    """The chain of BINARY operators over operand(ts) that starts at ts,
    each node make(op, left, right).  Pending operators wait on a stack,
    so a chain of any length parses without recursion."""
    values, ops = [operand(ts)], []  # ops: the pending operators' tokens
    while True:
        t = ts.peek()
        level = 0 if t.kind == "string" else BINARY.get(t.value, 0)
        while ops and BINARY[ops[-1].value] >= level:
            right = values.pop()
            values[-1] = make(ops.pop().value, values[-1], right)
        if not level:
            return values[0]
        ops.append(ts.next())
        values.append(operand(ts))


def predicate(ts, expr, cmp, pand, por, pnot):
    """The predicate that starts at ts: comparisons cmp(op, left, right)
    of expr(ts) operands, under pand, por and pnot."""
    nodes = expr, cmp, pand, por, pnot
    e = None
    while True:
        term = _negation(ts, nodes)
        while ts.at_word("and"):
            ts.next()
            term = pand(term, _negation(ts, nodes))
        e = term if e is None else por(e, term)
        if not ts.at_word("or"):
            return e
        ts.next()


def _negation(ts, nodes):
    """not PRED or (PRED), else a comparison; where either fails, the
    comparison is read from the same token."""
    expr, cmp, _, _, pnot = nodes
    save = ts.save()
    try:
        if ts.at_word("not"):
            ts.next()
            return pnot(_negation(ts, nodes))
        if ts.at_punct("("):
            ts.next()
            inner = predicate(ts, *nodes)
            ts.eat("punct", ")")
            return inner
    except ParseError:
        ts.restore(save)
    left = expr(ts)
    t = ts.peek()
    if ts.at_punct("==") or ts.at_punct("!="):
        ts.next()
        return cmp(t.value, left, expr(ts))
    raise ts.error("expected == or != in predicate")
