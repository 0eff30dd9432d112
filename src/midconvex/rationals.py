"""Subgroups of the rationals as prime localizations, with exact arithmetic.

A descriptor (q, P) with q a positive rational and P a finite set of primes
denotes the group q * Z[1/P] of all q*a/b with integer a and b a product of
primes from P. This family covers every finitely generated subgroup of the
rationals (P empty) and every localization; mixed finite prime heights are
out of scope. All arithmetic is exact via fractions.Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd, lcm
from typing import Iterable, Sequence

Rational = Fraction | int


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact below 2**64; ValueError at or above it.

    Above 2**64 the twelve bases pass composites, 318665857834031151167461 the least.
    """
    if n < 2:
        return False
    if n >= 1 << 64:
        raise ValueError(f"primality of {n} is decided only below 2**64")
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def padic_valuation(r: Fraction, p: int) -> int:
    """Exponent of p in r; r must be nonzero."""
    if r == 0:
        raise ValueError("valuation of zero is undefined")
    v = 0
    num, den = r.numerator, r.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def rational_gcd(values: Iterable[Rational]) -> Fraction:
    """Positive generator of the group generated by the values; 0 if all are 0."""
    num, den = 0, 1
    for v in values:
        f = Fraction(v)
        num = gcd(num, f.numerator)
        den = lcm(den, f.denominator)
    return Fraction(num, den)


def coprime_part(n: int, primes: Iterable[int]) -> int:
    """n with every factor of the primes divided out; n must be nonzero."""
    for p in primes:
        while n % p == 0:
            n //= p
    return n


@dataclass(frozen=True)
class RationalGroupDescriptor:
    """The subgroup gen * Z[1/p : p in primes] of the rationals.

    Powers of the inverted primes are units of the localization, so the
    generator is canonicalized to have zero valuation at each of them; two
    descriptors are then equal exactly when they denote the same subgroup.
    """

    gen: Fraction
    primes: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        gen = Fraction(self.gen)
        if gen <= 0:
            raise ValueError("descriptor generator must be positive")
        primes = frozenset(int(p) for p in self.primes)
        for p in sorted(primes):
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        gen = Fraction(coprime_part(gen.numerator, primes), coprime_part(gen.denominator, primes))
        object.__setattr__(self, "gen", gen)
        object.__setattr__(self, "primes", primes)

    def modulus(self, den: int) -> int:
        """The w with s/den in the group exactly when w divides s, for every integer s.

        Over gen = a/b, s/den is a member when (s/den)/gen = s*b/(den*a) lies in
        Z[1/P]. The P-part of den*a is a unit there, so that holds exactly when
        v, the part of den*a coprime to P, divides s*b, that is when
        v/gcd(v, b) divides s. This is the one membership rule: `contains` and
        every integer midpoint test read it.
        """
        v = coprime_part(den * self.gen.numerator, self.primes)
        return v // gcd(v, self.gen.denominator)

    def contains(self, r: Rational) -> bool:
        return r.numerator % self.modulus(r.denominator) == 0

    def __str__(self) -> str:
        primes = ",".join(str(p) for p in sorted(self.primes))
        return f"({self.gen},[{primes}])"


def is_subgroup_of(sub: RationalGroupDescriptor, group: RationalGroupDescriptor) -> bool:
    """True iff every element of `sub` lies in `group`.

    Containment of the generator handles the integer part; inverting a prime
    produces unbounded denominators, so each inverted prime of the subgroup
    must be inverted in the ambient group as well.
    """
    return group.contains(sub.gen) and sub.primes <= group.primes


def is_two_pure(sub: RationalGroupDescriptor, group: RationalGroupDescriptor) -> bool:
    """True iff the quotient group/sub has no element of even order.

    An element of even order yields one of order 2, so this is the purity
    condition: for all g in the group, 2g in sub implies g in sub. In
    descriptor form: when 2 is inverted in the ambient group it must be
    inverted in the subgroup; otherwise the generator ratio must carry no
    factor of 2. The formula is cross-validated by sampling in the oracle
    harness.
    """
    if not is_subgroup_of(sub, group):
        raise ValueError("is_two_pure requires a subgroup of the ambient group")
    if 2 in group.primes:
        return 2 in sub.primes
    return padic_valuation(sub.gen / group.gen, 2) == 0


def two_pure_closure(
    sub: RationalGroupDescriptor, group: RationalGroupDescriptor
) -> RationalGroupDescriptor:
    """Smallest subgroup of `group` containing `sub` whose quotient has odd torsion."""
    if not is_subgroup_of(sub, group):
        raise ValueError("two_pure_closure requires a subgroup of the ambient group")
    if 2 in group.primes:
        return RationalGroupDescriptor(sub.gen, sub.primes | {2})
    v = padic_valuation(sub.gen / group.gen, 2)
    return RationalGroupDescriptor(sub.gen / 2**v, sub.primes)


def cyclic_chain(
    group: RationalGroupDescriptor, sample: Sequence[Rational], depth: int
) -> list[Fraction]:
    """Generators g_0 >= g_1 >= ... of an increasing chain of cyclic subgroups.

    g_0 generates the cyclic group spanned by the sample points; each further
    step divides the generator by one inverted prime of the ambient group,
    round-robin over the primes in increasing order. Without inverted primes
    the chain is constant: a finitely generated subgroup of the rationals is
    already cyclic.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    points = [Fraction(v) for v in sample]
    if not points:
        raise ValueError("sample must be nonempty")
    for v in points:
        if not group.contains(v):
            raise ValueError(f"sample point {v} is not in the ambient group")
    g0 = rational_gcd(points)
    if g0 == 0:
        g0 = group.gen
    primes = sorted(group.primes)
    chain = [g0]
    for i in range(depth):
        if primes:
            chain.append(chain[-1] / primes[i % len(primes)])
        else:
            chain.append(chain[-1])
    return chain


@dataclass(frozen=True)
class QIntervalSpec:
    """Order-convex subset of the rationals given by optional endpoints."""

    lower: Fraction | None = None
    upper: Fraction | None = None
    lower_closed: bool = True
    upper_closed: bool = True

    def __post_init__(self) -> None:
        lower = None if self.lower is None else Fraction(self.lower)
        upper = None if self.upper is None else Fraction(self.upper)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower is not None and upper is not None:
            if lower > upper:
                raise ValueError("interval lower endpoint exceeds upper endpoint")
            if lower == upper and not (self.lower_closed and self.upper_closed):
                raise ValueError("degenerate interval must be closed on both sides")

    def contains(self, r: Rational) -> bool:
        r = Fraction(r)
        if self.lower is not None:
            if r < self.lower or (r == self.lower and not self.lower_closed):
                return False
        if self.upper is not None:
            if r > self.upper or (r == self.upper and not self.upper_closed):
                return False
        return True

    def lattice_cut(self, x: Fraction, g: Fraction) -> tuple[int | None, int | None]:
        """The least and greatest integer k with x + k*g inside; None on an unbounded side.

        For g < 0 the ends swap: the upper end bounds k from below.
        """
        ends = [(self.lower, self.lower_closed), (self.upper, self.upper_closed)]
        (below, below_closed), (above, above_closed) = ends if g > 0 else ends[::-1]
        lo = hi = None
        if below is not None:
            t = (below - x) / g
            lo = ceil(t) if below_closed else floor(t) + 1
        if above is not None:
            t = (above - x) / g
            hi = floor(t) if above_closed else ceil(t) - 1
        return lo, hi

    def __str__(self) -> str:
        lo = "-inf" if self.lower is None else str(self.lower)
        hi = "inf" if self.upper is None else str(self.upper)
        lb = "[" if self.lower_closed or self.lower is None else "("
        ub = "]" if self.upper_closed or self.upper is None else ")"
        return f"{lb}{lo},{hi}{ub}"


@dataclass(frozen=True)
class RationalMidconvexDescription:
    """A set of rationals of the form interval intersected with subgroup + base."""

    interval: QIntervalSpec
    subgroup: RationalGroupDescriptor
    base: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "base", Fraction(self.base))
        if not self.interval.contains(self.base):
            raise ValueError("base point must lie in the interval")

    def validate_ambient(self, ambient: RationalGroupDescriptor) -> None:
        if not is_subgroup_of(self.subgroup, ambient):
            raise ValueError("description subgroup is not contained in the ambient group")
        if not ambient.contains(self.base):
            raise ValueError("description base point is not in the ambient group")

    def contains(self, r: Rational) -> bool:
        r = Fraction(r)
        return self.interval.contains(r) and self.subgroup.contains(r - self.base)

    def __str__(self) -> str:
        return f"conv{self.interval} ∩ ({self.subgroup} + {self.base})"
