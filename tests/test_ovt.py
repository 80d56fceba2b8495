"""Concrete syntax: parsing, formatting, and their round trip."""

import ast
import pathlib

import pytest

from overture import lex
from overture.errors import ParseError
from overture.lang import BinOp, Const, MesgSend, Not, OT4, Ref
from overture.ovt import format_expr, format_protocol, parse_protocol
from overture.prelude import expand
from overture.stdlib import PACKAGES, load_protocol, read_source


def test_format_parse_round_trip_on_bundled_sources():
    for pkg in PACKAGES.values():
        if not pkg.source.endswith(".ovt"):
            continue
        p = parse_protocol(read_source(pkg.source))
        text = format_protocol(p)
        assert parse_protocol(text) == p
        assert format_protocol(parse_protocol(text)) == text


def test_format_parse_round_trip_on_expanded_packages():
    for name, pkg in PACKAGES.items():
        p = load_protocol(pkg)
        text = format_protocol(p)
        assert parse_protocol(text) == p


def test_format_strips_nothing_but_comments():
    src = ("# a comment\n"
           "m[z]@2 := s[x] xor r[k] @ 1;\n"
           "out@2 := m[z] @ 2;  # trailing comment\n")
    assert format_protocol(parse_protocol(src)) == (
        "m[z]@2 := s[x] xor r[k] @ 1;\n"
        "out@2 := m[z] @ 2;\n")


def test_command_forms():
    src = ("m[z]@2 := s[x] @ 1;\n"
           "p[w] := m[z] @ 2;\n"
           "out@2 := p[w] @ 2;\n"
           "assert(p[w] == 0)@2;\n")
    p = parse_protocol(src)
    assert format_protocol(p) == src
    kinds = [type(c).__name__ for c in p.commands]
    assert kinds == ["MesgSend", "RevealCmd", "OutputCmd", "AssertCmd"]


def test_ot_round_trip():
    src = "m[z]@2 := OT(m[c] @ 2 ; s[a], s[b]) @ 1;\n"
    assert format_protocol(parse_protocol(src)) == src


def test_ot4_round_trip_and_shape():
    src = "m[z]@2 := OT4(m[c1], m[c2] @ 2 ; 1, 0, 0, 1) @ 1;\n"
    p = parse_protocol(src)
    assert format_protocol(p) == src
    e = p.commands[0].expr
    assert isinstance(e, OT4)
    assert e.receiver == 2
    assert e.rows == (Const(1), Const(0), Const(0), Const(1))


def test_precedence():
    p = parse_protocol("m[z]@2 := s[x] xor s[y] and s[w] xor not s[u] @ 1;\n")
    e = p.commands[0].expr
    x, y, w, u = (Ref("s", n) for n in "xywu")
    assert e == BinOp("xor", BinOp("xor", x, BinOp("and", y, w)), Not(u))


def test_parens_survive_when_needed():
    src = "m[z]@2 := (s[x] xor s[y]) and s[w] @ 1;\n"
    p = parse_protocol(src)
    e = p.commands[0].expr
    assert e == BinOp("and", BinOp("xor", Ref("s", "x"), Ref("s", "y")),
                      Ref("s", "w"))
    assert format_protocol(p) == src


def test_format_expr_minimal_parens():
    e = BinOp("xor", Ref("s", "x"), BinOp("and", Ref("s", "y"), Ref("s", "w")))
    assert format_expr(e) == "s[x] xor s[y] and s[w]"
    e2 = BinOp("and", BinOp("xor", Ref("s", "x"), Ref("s", "y")), Ref("s", "w"))
    assert format_expr(e2) == "(s[x] xor s[y]) and s[w]"


def test_modulus_threads_through():
    src = "m[z]@2 := s[x] + 2 @ 1;\nout@2 := m[z] * m[z] @ 2;\n"
    p = parse_protocol(src, modulus=3)
    assert p.modulus == 3
    assert format_protocol(p) == src


def test_federation_inference_and_override():
    p = parse_protocol("p[w] := s[x] @ 1;\n")
    assert p.federation == frozenset({1})
    p3 = parse_protocol("p[w] := s[x] @ 1;\n", federation={1, 2, 3})
    assert p3.federation == frozenset({1, 2, 3})


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as e:
        parse_protocol("m[z]@2 := s[x] $ 1;\n")
    assert "line 1" in str(e.value) and "col 16" in str(e.value)


@pytest.mark.parametrize("parse, src, message", [
    # a tab is one column; a comment that ends the input leaves the end at its '#'
    (parse_protocol, "out@1 := s[x]\n\t\tand # trailing",
     "line 2, col 7: expected an expression, found 'eof'"),
    (expand, 'p["w"] := true @ 1;\n   p["a] := true @ 1', "line 2, col 6: unterminated string"),
    (expand, 'p["w"] := true @ 1;\r\n  p["a"] := ~true @ 1',
     "line 2, col 13: unexpected character '~'"),
    # only ASCII digits make integers, and a numeral starts no identifier
    (parse_protocol, "m[z]@2 := s[x] @ \u0663;", "line 1, col 18: unexpected character '\u0663'"),
    (expand, 'p["w"] := true @ \u2167', "line 1, col 18: unexpected character '\u2167'"),
])
def test_token_errors_name_line_and_column(parse, src, message):
    with pytest.raises(ParseError) as e:
        parse(src)
    assert str(e.value) == message
    with pytest.raises(ParseError) as e:
        parse_protocol("m[z]@2 := s[x] @ 1\nout@2 := 0 @ 2;\n")
    assert "line 2" in str(e.value)


def test_parse_error_cases():
    bad = (
        "m[z] := s[x] @ 1;\n",            # send without destination
        "out@2 := ;\n",                   # missing expression
        "m[z]@2 := s[x] @@ 1;\n",
        "m[z]@2 := OT4(m[c1] @ 2 ; 1, 0, 0, 1) @ 1;\n",   # OT4 needs two choices
        "m[z]@2 := OT(m[c] @ 2 ; 1) @ 1;\n",              # OT needs two branches
        "assert s[x] == 0 @ 1;\n",        # assert requires parentheses
        "p[w]@1 := s[x] @ 1;\n",          # reveals carry no client
    )
    for src in bad:
        with pytest.raises(ParseError):
            parse_protocol(src)


def test_long_chains_print_without_recursion():
    """A 100,000-operand xor chain and a 2,000-deep and predicate, parsed
    into left-deep trees, print as the text they were parsed from (texts
    are compared: a dataclass == recurses)."""
    chain = " xor ".join(f"s[x{i % 7}]" for i in range(100_000))
    conj = " and ".join(f"(s[x{i % 7}] == {i % 2})" for i in range(2_000))
    src = f"m[z]@2 := {chain} @ 1;\nassert({conj})@2;\n"
    assert format_protocol(parse_protocol(src)) == src


@pytest.mark.parametrize("src", [
    "assert(((s[x] == 1) or (s[y] == 1)) and (s[w] == 0))@1;\n",
    "assert(not ((s[x] == 1) and (s[y] == 1)))@1;\n",
    "assert(not ((s[x] == 1) or (s[y] == 1)) or not not (s[w] != 0))@1;\n",
    "assert((s[x] == 1) and (s[y] == 1) or (s[w] == 1))@1;\n",
    "assert((not s[x]) and s[y] == 0)@1;\n",
])
def test_predicates_keep_needed_parens(src):
    """An or under an and, a connective under a not, and a not that starts
    a comparison keep their parentheses; an and under an or, and any other
    not, need none.  The .pre form of the text expands to the same
    command, printed the same."""
    protocol = parse_protocol(src)
    assert format_protocol(protocol) == src
    expanded = expand(PRE_NAMES + src)
    assert expanded.commands == protocol.commands
    assert format_protocol(expanded) == src


# The .pre form of a case binds each name that the case uses to its string,
# so that s[x] is one text in both syntaxes; the blank first line of the
# .ovt form keeps every error on the same line and column.
PRE_NAMES = 'let x = "x" in let y = "y" in let w = "w" in let z = "z" in\n'


@pytest.mark.parametrize("command, text", [
    # precedence, and left association at each level
    ("m[z]@2 := {} @ 1;", "s[x] xor s[y] and s[w] xor not s[x]"),
    ("m[z]@2 := {} @ 1;", "s[x] or s[y] xor s[w] and s[x] or 1"),
    ("m[z]@2 := {} @ 1;", "s[x] - s[y] - s[w] + s[x] * s[y] * s[w]"),
    ("m[z]@2 := {} @ 1;", "(s[x] or s[y]) and (s[w] xor true) - false"),
    # nested not
    ("m[z]@2 := {} @ 1;", "not not s[x] and not (not s[y])"),
    ("assert({})@1;", "not not (s[x] == 1)"),
    ("assert({})@1;", "not (not (s[x] == 1) or (s[y] != 0)) and not s[w] == 0"),
    # parenthesized predicates
    ("assert({})@1;", "((s[x] == 1) or (s[y] == 1)) and ((s[w] == 0))"),
    ("assert({})@1;", "(s[x] == 1) and (s[y] == 1) or (s[w] == 1) and (s[x] != s[y])"),
    # a comparison's operands are whole expressions
    ("assert({})@1;", "s[x] == s[y] and s[w] or 1"),
    ("assert({})@1;", "s[x] xor s[y] != not s[w]"),
    # not (...) that does not start a predicate is read as an expression
    ("m[z]@2 := {} @ 1;", "not (s[x] xor s[y]) and s[w]"),
    ("assert({})@1;", "not (s[x] xor s[y]) == 0"),
    ("assert({})@1;", "(not (s[x]) xor s[y]) != 1"),
    # malformed: the same error from both
    ("assert({})@1;", "s[x] == s[y] and s[w] == 1"),
    ("assert({})@1;", "(s[x] xor s[y]) == 0 and (s[w]) != 1"),
    ("assert({})@1;", "s[x] == 1 or"),
    ("assert({})@1;", "not"),
    ("assert({})@1;", "s[x]"),
    ("assert({})@1;", "(s[x] == 1"),
    ("assert({})@1;", "s[x] and (s[y] == 1)"),
    ("assert({})@1;", "not (s[x] == 1) xor (s[y] == 1)"),
    ("m[z]@2 := {} @ 1;", "s[x] + * s[y]"),
    ("m[z]@2 := {} @ 1;", "(s[x] xor)"),
    ("m[z]@2 := {} @ 1;", "not not"),
])
def test_one_grammar_for_both_syntaxes(command, text):
    """parse_protocol and expand build the same command from one operator
    or predicate text, or raise the same ParseError for it."""
    results = []
    for build, head in ((parse_protocol, "\n"), (expand, PRE_NAMES)):
        try:
            results.append(build(head + command.format(text)).commands)
        except ParseError as e:
            results.append(str(e))
    assert results[0] == results[1]


def test_one_grammar_in_source():
    """Operators and predicates are parsed only in lex.py: no other module
    defines a precedence table (a dict of int levels keyed by "xor" and
    "and", among others) or looks for an or/and/xor word itself."""
    def grammar(node):
        for child in ast.walk(node):
            if isinstance(child, ast.Dict):
                keys = {k.value for k in child.keys if isinstance(k, ast.Constant)}
                if {"xor", "and"} <= keys and all(
                        isinstance(v, ast.Constant) and type(v.value) is int
                        for v in child.values):
                    yield "precedence table", ast.unparse(child)
            elif isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute) \
                    and child.func.attr == "at_word" and child.args \
                    and isinstance(child.args[0], ast.Constant) \
                    and child.args[0].value in ("or", "and", "xor"):
                yield "at_word", child.args[0].value

    package = pathlib.Path(lex.__file__).parent
    found = {(path.stem, *use) for path in sorted(package.glob("*.py"))
             for use in grammar(ast.parse(path.read_text()))}
    assert {module for module, *_ in found} == {"lex"}, found
    assert ("lex", "at_word", "or") in found and ("lex", "at_word", "and") in found
    assert any(kind == "precedence table" for _, kind, _ in found)
