"""Field arithmetic against plain modular arithmetic.

The f_* helpers state each operation over canonical integers in [0, p);
test_interp holds the interpreter's closures to them.
"""

import pytest

from overture.errors import UsageError
from overture.field import is_prime
from overture.ovt import parse_protocol


# Operands already in [0, p).

def f_add(a: int, b: int, p: int) -> int:
    return (a + b) % p


def f_sub(a: int, b: int, p: int) -> int:
    return (a - b) % p


def f_mul(a: int, b: int, p: int) -> int:
    return (a * b) % p


def f_and(a: int, b: int) -> int:
    return a & b


def f_or(a: int, b: int) -> int:
    return a | b


def f_xor(a: int, b: int) -> int:
    return a ^ b


def f_not(a: int) -> int:
    return 1 - a


def test_is_prime_small():
    primes = [n for n in range(50) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_ring_ops_exhaustive():
    for p in (2, 3, 5):
        for a in range(p):
            for b in range(p):
                assert f_add(a, b, p) == (a + b) % p
                assert f_sub(a, b, p) == (a - b) % p
                assert f_mul(a, b, p) == (a * b) % p


def test_boolean_ops_exhaustive():
    for a in (0, 1):
        for b in (0, 1):
            assert f_and(a, b) == (a and b)
            assert f_or(a, b) == (a or b)
            assert f_xor(a, b) == a ^ b
        assert f_not(a) == 1 - a


def test_xor_is_add_is_sub_in_f2():
    for a in (0, 1):
        for b in (0, 1):
            assert f_xor(a, b) == f_add(a, b, 2) == f_sub(a, b, 2)
            assert f_and(a, b) == f_mul(a, b, 2)


def test_bad_modulus_rejected():
    src = "out@1 := s[x] @ 1;\n"
    for n in (0, 1, 4, 6, 9):
        with pytest.raises(UsageError, match="not prime"):
            parse_protocol(src, modulus=n)
    for n in (2, 3, 5):
        assert parse_protocol(src, modulus=n).modulus == n
