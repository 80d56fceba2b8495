"""Prime field arithmetic kernel.

Field values are canonical integers in [0, p), operated on as raw ints.  The
f_* helpers state each operation; the interpreter's closures compute the
same with the operator module, and the tests hold the two to each other.
is_prime checks a modulus where it enters (Protocol.of).
"""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


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
