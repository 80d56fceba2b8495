"""Concrete syntax: parsing, formatting, and their round trip."""

import pytest

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
