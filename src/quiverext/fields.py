"""Exact ground fields: the rationals and prime fields F_p.

Field elements are raw Python objects (``fractions.Fraction`` for Q,
small ``int`` residues for F_p).  Code outside ``linalg`` routes its
arithmetic through a field object so it stays generic and exact; the
``linalg`` kernels use Python operators on the raw elements and read
``char`` to decide whether to reduce mod p.  Floating point never
appears anywhere in this package.
"""

from __future__ import annotations

from fractions import Fraction

_PRIME_LIMIT = 2**31


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class RationalField:
    """Arbitrary-precision rational arithmetic (the default field)."""

    name = "Q"
    char = 0

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def of(self, value):
        """Coerce an int, Fraction, or 'a/b' string into the field."""
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(value)
        raise TypeError(f"cannot coerce {value!r} into Q")

    def of_fraction(self, q: Fraction):
        return q

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in Q")
        return Fraction(a.denominator, a.numerator)

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in Q")
        return a / b

    def is_zero(self, a) -> bool:
        return a == 0

    def to_str(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField:
    """The field F_p for a prime p < 2**31; elements are ints in [0, p)."""

    char: int

    def __init__(self, p: int):
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        if p >= _PRIME_LIMIT:
            raise ValueError(f"modulus {p} exceeds the supported bound 2**31")
        self.p = p
        self.char = p
        self.name = f"F{p}"
        self.zero = 0
        self.one = 1 % p

    def of(self, value):
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            return self.of_fraction(value)
        if isinstance(value, str):
            return self.of_fraction(Fraction(value))
        raise TypeError(f"cannot coerce {value!r} into {self.name}")

    def of_fraction(self, q: Fraction):
        den = q.denominator % self.p
        if den == 0:
            raise ZeroDivisionError(f"{q} has denominator divisible by {self.p}")
        return (q.numerator % self.p) * pow(den, self.p - 2, self.p) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"inverse of zero in {self.name}")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def to_str(self, a) -> str:
        return str(a % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))

    def __repr__(self):
        return self.name


QQ = RationalField()


def field_by_name(name: str):
    """Resolve 'Q' or 'F<p>' (as used by the DSL and the CLI) to a field."""
    if name == "Q":
        return QQ
    if name.startswith("F") and name[1:].isdigit():
        return PrimeField(int(name[1:]))
    raise ValueError(f"unknown field {name!r} (expected 'Q' or 'Fp')")
