"""Exact ground fields: the rationals and prime fields F_p.

Field elements are raw Python objects.  An element of Q has one
canonical form: an ``int`` when it is integral and a
``fractions.Fraction`` with denominator > 1 otherwise, so the integer
entries that make up most module matrices and constraint systems stay
cheap ``int``s; every Q method returns that form.  An element of F_p is
a small ``int`` residue.  Code outside ``linalg`` routes its
arithmetic through a field object so it stays generic and exact; the
``linalg`` kernels use Python operators on the raw elements and bring
each row they emit to the canonical form with ``canon``; only the
elimination steps and ``kron_add`` reduce entries themselves.  Floating
point never appears anywhere in this package.
"""

from __future__ import annotations

from fractions import Fraction

_PRIME_LIMIT = 2**31


def canonical(x):
    """The canonical form of an exact rational: an int when integral."""
    if type(x) is int:
        return x
    return x.numerator if x.denominator == 1 else x


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
    zero = 0
    one = 1

    def of(self, value):
        """Coerce an int, Fraction, or 'a/b' string into the field."""
        if isinstance(value, str):
            value = Fraction(value)
        if isinstance(value, (int, Fraction)):
            return canonical(value)
        raise TypeError(f"cannot coerce {value!r} into Q")

    def of_fraction(self, q: Fraction):
        return canonical(q)

    def canon(self, xs) -> list:
        """The canonical forms of the exact rationals xs, as a new list."""
        return [x if type(x) is int else canonical(x) for x in xs]

    def add(self, a, b):
        return canonical(a + b)

    def sub(self, a, b):
        return canonical(a - b)

    def mul(self, a, b):
        return canonical(a * b)

    def neg(self, a):
        return canonical(-a)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in Q")
        return canonical(Fraction(a.denominator, a.numerator))

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in Q")
        # Fraction first: int / int would be a float
        return canonical(Fraction(a) / b)

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

    def canon(self, xs) -> list:
        """The residues in [0, p) of the exact rationals xs, as a new list."""
        p = self.p
        return [x % p if type(x) is int else self.of(x) for x in xs]

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
