"""Independent reference answers for the benchmark.

Nothing here imports `midconvex`: every expected output is derived from how
an input was built or from a small, direct re-implementation of the
mathematics (generator-only breadth-first search for subgroups, plain
membership tests for interval-and-coset descriptions, closed-form counts).
The references are computed before the program is imported and are never
timed.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

# -- finite Abelian groups as tuples of residues ---------------------------


def elements(orders: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All elements in mixed-radix order, last component fastest."""
    return list(itertools.product(*(range(n) for n in orders)))


def add(orders, a, b) -> tuple[int, ...]:
    return tuple((x + y) % n for x, y, n in zip(a, b, orders))


def sub(orders, a, b) -> tuple[int, ...]:
    return tuple((x - y) % n for x, y, n in zip(a, b, orders))


def generated(orders, gens) -> frozenset:
    """Subgroup generated by `gens`, by a breadth-first search that adds generators only."""
    zero = (0,) * len(orders)
    seen = {zero}
    frontier = [zero]
    gens = [g for g in gens if any(g)]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                s = add(orders, e, g)
                if s not in seen:
                    seen.add(s)
                    nxt.append(s)
        frontier = nxt
    return frozenset(seen)


def odd_part(n: int) -> int:
    while n % 2 == 0:
        n //= 2
    return n


def sylow2_generators(orders) -> list[tuple[int, ...]]:
    """One generator per cyclic factor of the Sylow-2 subgroup."""
    gens = []
    for i, n in enumerate(orders):
        if n % 2 == 0:
            gens.append(tuple(odd_part(n) if j == i else 0 for j in range(len(orders))))
    return gens


def closure(orders, members) -> frozenset:
    """Midconvex closure of a nonempty set: x + <X - x> + G_2.

    Every nonempty midconvex set is a coset of an odd-index subgroup, every
    odd-index subgroup contains the Sylow-2 subgroup G_2, and odd-index
    subgroups are closed under intersection, so the least one containing
    X - x is <X - x> + G_2.
    """
    members = list(members)
    if not members:
        return frozenset()
    x = members[0]
    h = generated(orders, [sub(orders, y, x) for y in members] + sylow2_generators(orders))
    return frozenset(add(orders, x, e) for e in h)


def subgroups(orders) -> set[frozenset]:
    """Every subgroup, reached from {0} by joining one element at a time."""
    everything = elements(orders)
    found = {generated(orders, [])}
    frontier = list(found)
    while frontier:
        nxt = []
        for k in frontier:
            for g in everything:
                if g not in k:
                    joined = generated(orders, [*k, g])
                    if joined not in found:
                        found.add(joined)
                        nxt.append(joined)
        frontier = nxt
    return found


def midconvex_count(orders) -> int:
    """Closed form 1 + sum of |K| over subgroups K of the odd part of the group.

    The empty set plus, for every odd-index subgroup H, its |G : H| cosets.
    Odd-index subgroups are exactly G_2 + K for K in G_odd, and the index of
    G_2 + K is |G_odd : K|, so the cosets number |G_odd| / |K| summed over K,
    which equals the sum of |K| by duality of finite Abelian groups.
    """
    return 1 + sum(len(k) for k in subgroups(tuple(odd_part(n) for n in orders)))


# -- the campaigns' group lists --------------------------------------------


def _factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while n > 1:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    return out


def _partitions(n: int, largest: int | None = None):
    """Partitions of n, parts descending."""
    if n == 0:
        yield ()
        return
    largest = n if largest is None else largest
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first, *rest)


def abelian_types(n: int) -> list[tuple[int, ...]]:
    """One list of prime-power factor orders per isomorphism class of order n."""
    combos = [()]
    for p, e in _factor(n).items():
        combos = [c + tuple(p**part for part in parts) for c in combos for parts in _partitions(e)]
    return combos


def elementary_divisors(orders) -> tuple[int, ...]:
    """Sorted prime-power factors: an isomorphism invariant of the group."""
    out = []
    for n in orders:
        for p, e in _factor(n).items():
            out.append(p**e)
    return tuple(sorted(out))


def parse_group_label(label: str) -> tuple[int, ...]:
    """'Z(4x3)' -> (4, 3)."""
    if not (label.startswith("Z(") and label.endswith(")")):
        raise ValueError(f"unexpected group label {label!r}")
    return tuple(int(part) for part in label[2:-1].split("x"))


def sweep_totals(max_order: int) -> tuple[int, int]:
    """(groups, subsets) decided by an exhaustive sweep up to max_order."""
    groups = sum(len(abelian_types(n)) for n in range(1, max_order + 1))
    subsets = sum(len(abelian_types(n)) << n for n in range(1, max_order + 1))
    return groups, subsets


# -- subgroups of the rationals ------------------------------------------


def strip(q: Fraction, primes) -> Fraction:
    num, den = q.numerator, q.denominator
    for p in primes:
        while num % p == 0:
            num //= p
        while den % p == 0:
            den //= p
    return Fraction(num, den)


def in_lattice(r: Fraction, gen: Fraction, primes) -> bool:
    """r in gen * Z[1/primes]."""
    den = (Fraction(r) / gen).denominator
    for p in primes:
        while den % p == 0:
            den //= p
    return den == 1


def two_pure_closure(gen: Fraction, primes, ambient_gen: Fraction, ambient_primes):
    """(gen, primes) of the least two-pure subgroup of the ambient group containing gen*Z[1/primes]."""
    primes = frozenset(primes)
    if 2 in ambient_primes:
        primes = primes | {2}
    else:
        ratio = gen / ambient_gen
        while ratio.numerator % 2 == 0:
            ratio /= 2
        gen = ambient_gen * ratio
    return strip(gen, primes), primes


def in_description(r: Fraction, desc: dict) -> bool:
    """Membership in C intersected with (H + base), C given with open or closed ends."""
    lo, hi = desc["lower"], desc["upper"]
    if lo is not None and (r < lo or (r == lo and not desc["lower_closed"])):
        return False
    if hi is not None and (r > hi or (r == hi and not desc["upper_closed"])):
        return False
    return in_lattice(r - desc["base"], desc["gen"], desc["primes"])


def parse_element(text: str) -> tuple[int, ...]:
    """'3' -> (3,), '(1,2)' -> (1, 2)."""
    text = text.strip()
    if text.startswith("("):
        return tuple(int(part) for part in text[1:-1].split(","))
    return (int(text),)
