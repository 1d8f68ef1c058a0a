"""Exact coefficient fields: the rationals and prime fields.

Scalars are plain Python objects: for Q an int when the value is
integral and a Fraction otherwise, for F_p reduced ints.  The field
object supplies the arithmetic so the linear algebra and all algebra
layers stay field-agnostic.

A prime field also reduces Q scalars mod p and lifts residues back to Q
by rational reconstruction, for computations over Q run through F_p.
"""

from fractions import Fraction
from functools import cache
from math import gcd, isqrt

from .errors import ReductionError

# Miller-Rabin with these bases is exact for every n below PRIMALITY_BOUND
# (Sorenson and Webster, 2015): the least strong pseudoprime to all of
# them is PRIMALITY_BOUND itself.
PRIMALITY_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PRIMALITY_BOUND = 3317044064679887385961981

# The prime through which computations over Q run: the quotients of a Q
# base and the resolution of k.  A normal form of a Q base whose entries
# do not reconstruct from their residues mod PRIME alone is reconstructed
# mod PRIME * SECOND_PRIME.
PRIME = 2**61 - 1
SECOND_PRIME = 2**64 - 59


def _is_prime(n):
    """Whether n is prime, for n < PRIMALITY_BOUND: Miller-Rabin with
    the bases PRIMALITY_BASES, which no composite below the bound
    passes."""
    if n < 2:
        return False
    for a in PRIMALITY_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in PRIMALITY_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _q(x):
    """x as an int when it is integral; otherwise the Fraction x."""
    return x if x.__class__ is int or x.denominator != 1 else x.numerator


def reconstruct(c, m):
    """The Q scalar r/s with |r|, s <= isqrt(m // 2) whose residue mod
    the odd modulus m is c, or None when there is none (rational
    reconstruction: Wang, 1981).  Two such fractions with one residue
    are equal, as 2 * isqrt(m // 2)^2 < m, so the answer is unique; s is
    prime to m, since a common factor would divide r as well."""
    bound = isqrt(m // 2)
    r0, r1 = m, c % m
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if not 0 < abs(s1) <= bound or gcd(r1, s1) != 1:
        return None
    return _q(Fraction(r1, s1))


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
        # an int quotient of ints stays an int: the engine's pivot
        # scale -1/c on a column with c = +-1 makes no Fraction
        if a.__class__ is int and b.__class__ is int and not a % b:
            return a // b
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
        if p >= PRIMALITY_BOUND:
            raise ValueError(
                f"{p} is too large: primes below {PRIMALITY_BOUND} only")
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
        return pow(a, -1, self.p)

    def div(self, a, b):
        return (a * self.inv(b)) % self.p

    def from_int(self, n):
        return n % self.p

    def is_zero(self, a):
        return a % self.p == 0

    def reduce(self, x):
        """The residue of the Q scalar x (an int or a Fraction).  Raises
        ReductionError when p divides its denominator."""
        p = self.p
        if x.__class__ is int:
            return x % p
        d = x.denominator % p
        if not d:
            raise ReductionError(f"{x} has no residue mod {p}")
        return x.numerator * pow(d, -1, p) % p

    def lift(self, c):
        """The Q scalar whose residue is c (reconstruct, modulo p), or
        None."""
        return reconstruct(c, self.p)

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = RationalField()


@cache
def GF(p):
    """The prime field F_p, one object per p: its primality test runs
    once."""
    return PrimeField(p)


def parse_field(spec):
    """Parse a field spec string: "Q" or "Fp:<prime>"."""
    spec = spec.strip()
    if spec == "Q":
        return QQ
    if spec.startswith("Fp:"):
        try:
            p = int(spec[3:])
        except ValueError:
            pass
        else:
            return GF(p)
    raise ValueError(f"unknown field spec {spec!r} (expected Q or Fp:<prime>)")
