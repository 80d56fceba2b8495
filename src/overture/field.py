"""Prime field arithmetic kernel.

Field values are canonical integers in [0, p), operated on as raw ints by
the interpreter's closures through the operator module; the tests state
each operation on its own and hold the closures to it.  is_prime checks a
modulus where it enters (Protocol.of).
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
