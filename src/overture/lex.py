"""Shared tokenizer for the protocol and metaprogram syntaxes."""

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
