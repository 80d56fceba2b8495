"""Variables, protocols, partitions, views, and static validation."""

import pytest

from overture.errors import UsageError
from overture.lang import (
    BOT, MESG, OUT, REVEAL, SECRET, Const, MesgSend, OutputCmd, Partition,
    Protocol, Ref, RevealCmd, Var, corrupt_views, format_memory, honest_views,
    owned_by, parse_var, validate,
)
from overture.ovt import parse_protocol
from overture.stdlib import read_source

OTP_OVT = read_source("otp.ovt")
SHAMIR_ADD3_OVT = read_source("shamir_add3.ovt")
LEAKY_OVT = read_source("leaky.ovt")


def test_var_display_and_parse_round_trip():
    for text in ("s[x]@1", "r[k]@3", "m[z]@2", "p[w]", "out@1", "<m[z]>"):
        assert str(parse_var(text)) == text


def test_var_rules():
    with pytest.raises(UsageError):
        Var("q", "x", 1)          # unknown kind
    with pytest.raises(UsageError):
        Var(REVEAL, "w", 1)       # reveals are public
    with pytest.raises(UsageError):
        Var(SECRET, "x", None)    # secrets need an owner
    with pytest.raises(UsageError):
        parse_var("p[w]@2")
    with pytest.raises(UsageError):
        parse_var("m[z]")


def test_bot_is_a_singleton():
    assert BOT is type(BOT)()
    assert repr(BOT) == "bot"


def test_protocol_accessors_otp():
    p = parse_protocol(OTP_OVT)
    assert p.federation == frozenset({1, 2})
    assert p.secrets() == (Var(SECRET, "x", 1),)
    assert p.flips() == (Var("r", "k", 1),)
    assert p.assigned() == (Var(MESG, "z", 2), Var(MESG, "k", 2), Var(OUT, "", 2))
    assert p.output_vars() == (Var(OUT, "", 2),)
    assert not any(v.kind == REVEAL for v in p.iovars())


def test_protocol_modulus_must_be_prime():
    commands = parse_protocol(OTP_OVT).commands
    with pytest.raises(UsageError, match="modulus 4 is not prime"):
        Protocol.of(commands, modulus=4)
    assert Protocol.of(commands, modulus=3).modulus == 3


def test_iovars_cover_reads_and_writes():
    p = parse_protocol(SHAMIR_ADD3_OVT)
    io = set(p.iovars())
    assert Var(SECRET, "s1", 1) in io
    assert Var(REVEAL, "2") in io
    assert Var(OUT, "", 3) in io
    assert all(v.kind != "r" for v in io)


def test_partition_of():
    fed = frozenset({1, 2, 3})
    part = Partition.of(fed, [2])
    assert part.corrupt == frozenset({2})
    assert part.honest == frozenset({1, 3})
    with pytest.raises(UsageError):
        Partition.of(fed, [4])


def test_views_shamir_corrupt_2():
    p = parse_protocol(SHAMIR_ADD3_OVT)
    part = Partition.of(p.federation, [2])
    cv = corrupt_views(p, part)
    # messages addressed to client 2 from honest senders, plus honest reveals
    assert set(cv) == {Var(MESG, "s1", 2), Var(MESG, "s3", 2),
                       Var(REVEAL, "1"), Var(REVEAL, "3")}
    hv = honest_views(p, part)
    assert set(hv) == {Var(MESG, "s2", 1), Var(MESG, "s2", 3), Var(REVEAL, "2")}


def test_views_disjoint_roles():
    p = parse_protocol(LEAKY_OVT)
    part = Partition.of(p.federation, [2])
    assert corrupt_views(p, part) == (Var(MESG, "z", 2),)
    assert honest_views(p, part) == ()


def test_validate_clean_protocols():
    for src in (OTP_OVT, SHAMIR_ADD3_OVT, LEAKY_OVT):
        assert validate(parse_protocol(src)) == []


def test_validate_read_before_write():
    p = parse_protocol("out@2 := m[z] @ 2;\n")
    errs = validate(p)
    assert any("read before any write" in e for e in errs)
    # the same read is fine when the variable is preprocessed
    assert validate(p, preprocessed=[Var(MESG, "z", 2)]) == []


def test_validate_double_assignment():
    p = parse_protocol("m[z]@2 := 1 @ 1;\nm[z]@2 := 0 @ 1;\n")
    assert any("assigned twice" in e for e in validate(p))


def test_validate_federation_membership():
    p = Protocol.of([MesgSend("z", 2, Const(1), 7)], federation={1, 2})
    assert any("not in federation" in e for e in validate(p))


def test_validate_ot_placement():
    src = "m[z]@2 := OT(m[c] @ 2 ; 1, 0) xor 1 @ 1;\n"
    p = parse_protocol(src)
    errs = validate(p, preprocessed=[Var(MESG, "c", 2)])
    assert any("entire right-hand side" in e for e in errs)


def test_validate_ot_receiver_must_match_dest():
    src = "m[z]@1 := OT(m[c] @ 2 ; 1, 0) @ 1;\n"
    p = parse_protocol(src)
    errs = validate(p, preprocessed=[Var(MESG, "c", 2)])
    assert any("differs from destination" in e for e in errs)


def test_memory_helpers():
    a, b = parse_var("s[x]@1"), parse_var("m[z]@2")
    m = {a: 1, b: 0}
    assert format_memory(m) == "m[z]@2=0 s[x]@1=1"
