"""Exact coefficient fields: the rationals and prime fields.

Scalars are plain Python objects: for Q an int when the value is
integral and a Fraction otherwise, for F_p reduced ints.  The field
object supplies the arithmetic so the linear algebra and all algebra
layers stay field-agnostic.
"""

from fractions import Fraction


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _q(x):
    """x as an int when it is integral; otherwise the Fraction x."""
    return x if x.__class__ is int or x.denominator != 1 else x.numerator


class RationalField:
    """Arbitrary-precision rationals, always in lowest terms.

    An integral scalar is an int: ints and Fractions compare and hash
    equal, so this only skips Fraction arithmetic where it is not needed.
    """

    characteristic = 0
    name = "Q"

    def __call__(self, n, d=1):
        return _q(Fraction(n, d))

    zero = 0
    one = 1

    # add and mul inline _q: they are the engine's inner loop
    def add(self, a, b):
        s = a + b
        return s if s.__class__ is int or s.denominator != 1 else s.numerator

    def mul(self, a, b):
        s = a * b
        return s if s.__class__ is int or s.denominator != 1 else s.numerator

    def neg(self, a):
        return _q(-a)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return _q(1 / Fraction(a))

    def div(self, a, b):
        return _q(Fraction(a) / b)

    def from_int(self, n):
        return n

    def is_zero(self, a):
        return a == 0

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class PrimeField:
    """Integers mod p with canonical representatives 0..p-1."""

    def __init__(self, p):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.name = f"F{p}"
        self.zero = 0
        self.one = 1 % p

    def __call__(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return (a * self.inv(b)) % self.p

    def from_int(self, n):
        return n % self.p

    def is_zero(self, a):
        return a % self.p == 0

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = RationalField()


def GF(p):
    return PrimeField(p)


def parse_field(spec):
    """Parse a field spec string: "Q" or "Fp:<prime>"."""
    spec = spec.strip()
    if spec == "Q":
        return QQ
    if spec.startswith("Fp:"):
        return GF(int(spec[3:]))
    raise ValueError(f"unknown field spec {spec!r} (expected Q or Fp:<prime>)")
