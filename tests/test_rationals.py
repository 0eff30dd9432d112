"""Rational subgroup descriptors: membership, purity, closures, cyclic chains."""

import random
from fractions import Fraction as F
from math import prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from midconvex.rationals import (
    QIntervalSpec,
    RationalGroupDescriptor,
    RationalMidconvexDescription,
    cyclic_chain,
    is_prime,
    is_subgroup_of,
    is_two_pure,
    padic_valuation,
    rational_gcd,
    two_pure_closure,
)


def desc(gen, primes=()):
    return RationalGroupDescriptor(F(gen), frozenset(primes))


def test_is_prime_spot_checks():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)
    assert is_prime(2**64 - 59)  # the largest prime below 2**64
    # at and above 2**64 no answer: these two pass all twelve bases, 2 to 37
    for n in (1 << 64, 399165290221 * 798330580441, 1287836182261 * 2575672364521):
        with pytest.raises(ValueError, match=r"below 2\*\*64"):
            is_prime(n)


def test_padic_valuation():
    assert padic_valuation(F(12), 2) == 2
    assert padic_valuation(F(5, 8), 2) == -3
    assert padic_valuation(F(7), 3) == 0
    with pytest.raises(ValueError):
        padic_valuation(F(0), 2)


def test_rational_gcd():
    assert rational_gcd([F(0), F(1)]) == 1
    assert rational_gcd([F(1, 2), F(2)]) == F(1, 2)
    assert rational_gcd([F(3, 4), F(5, 6)]) == F(1, 12)
    assert rational_gcd([F(0)]) == 0


def test_descriptor_validation_and_normalization():
    with pytest.raises(ValueError):
        desc(0)
    with pytest.raises(ValueError):
        desc(-3)
    with pytest.raises(ValueError):
        desc(1, [4])
    # powers of inverted primes are units, so generators normalize
    assert desc(F(1, 8), [2]) == desc(1, [2])
    assert desc(12, [2, 3]) == desc(1, [2, 3])
    assert desc(F(3, 2), [2]) == desc(3, [2])


def test_member_examples():
    assert desc(1, [2]).contains(F(3, 4))
    assert not desc(1, [2]).contains(F(1, 3))
    assert desc(F(1, 2), [3]).contains(F(5, 6))


def test_member_zero_and_negatives():
    group = desc(F(3, 2))
    assert group.contains(F(0))
    assert group.contains(F(-9, 2))
    assert not group.contains(F(1, 2))


def test_integer_membership_matches_the_fraction_division():
    # seeded descriptors and values: 0, negatives, ints, and denominators
    # with primes foreign to the group, against the quotient r / gen
    rng = random.Random(20)
    pool = (2, 3, 5, 7, 11)
    checked = members = 0
    for _ in range(300):
        primes = frozenset(rng.sample(pool, rng.randint(0, 3)))
        group = desc(F(rng.randint(1, 60), rng.randint(1, 60)), primes)
        values = [0, F(0), rng.randint(-500, 500)]
        values += [F(rng.randint(-500, 500), rng.choice(pool) ** rng.randint(0, 4) * rng.randint(1, 12))
                   for _ in range(40)]
        values += [group.gen * rng.randint(-9, 9) / rng.choice(pool) ** rng.randint(0, 3) for _ in range(20)]
        for r in values:
            den = (F(r) / group.gen).denominator
            for p in primes:
                while den % p == 0:
                    den //= p
            expected = den == 1
            assert group.contains(r) == expected, (group, r)
            checked += 1
            members += expected
    assert checked == 300 * 63 and 3000 < members < checked - 3000, members


def reference_member(group, s, den):
    """Oracle: s/den is in gen*Z[1/P] when (s/den)/gen has a denominator made of primes in P."""
    d = (F(s, den) / group.gen).denominator
    for p in group.primes:
        while d % p == 0:
            d //= p
    return d == 1


@pytest.mark.parametrize("primes", [(), (2,), (3,), (2, 3), (5,), (2, 3, 5, 7)])
def test_modulus_is_the_membership_divisibility(primes):
    # each seeded generator also times powers of the pool's primes, which the
    # descriptor divides out, over seeded products den of pool and foreign primes
    rng = random.Random(sum(primes))
    foreign = [p for p in (2, 3, 5, 7, 11, 13) if p not in primes]
    moduli = set()
    for _ in range(60):
        shared = [rng.choice(primes) ** rng.randint(1, 3) if primes else 1 for _ in range(2)]
        num, den_gen = (rng.choice(foreign) ** rng.randint(0, 2) * rng.randint(1, 6) for _ in range(2))
        for gen in (F(num, den_gen), F(num * shared[0], den_gen * shared[1])):
            group = desc(gen, primes)
            for _ in range(4):
                den = prod(rng.choice(foreign + list(primes)) ** rng.randint(0, 2) for _ in range(3))
                w = group.modulus(den)
                moduli.add(w)
                for s in [*range(-40, 41), -2 * w, w, 3 * w, w + 1]:
                    assert (s % w == 0) == reference_member(group, s, den), (group, den, s, w)
    assert len(moduli) > 20, sorted(moduli)


@given(
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
)
def test_membership_is_closed_under_addition_and_negation(a, b, e1, e2):
    group = desc(F(3, 5), [2, 3])
    r = F(3, 5) * F(a, 2**e1)
    s = F(3, 5) * F(b, 3**e2)
    assert group.contains(r) and group.contains(s)
    assert group.contains(r + s)
    assert group.contains(-r)


def test_is_subgroup_of_examples():
    assert is_subgroup_of(desc(3), desc(1))
    assert not is_subgroup_of(desc(1, [3]), desc(1, [2]))
    assert is_subgroup_of(desc(3, [2]), desc(1, [2]))


def test_is_two_pure_examples():
    assert is_two_pure(desc(3), desc(1))
    assert not is_two_pure(desc(2), desc(1))
    assert not is_two_pure(desc(1), desc(1, [2]))
    group = desc(F(5, 3), [7])
    assert is_two_pure(group, group)


def test_is_two_pure_requires_subgroup():
    with pytest.raises(ValueError):
        is_two_pure(desc(1, [3]), desc(1, [2]))


def sampled_purity_violation(sub, group, numerators=range(-24, 25), exps=range(0, 3)):
    """Oracle: search the grid for g with 2g in the subgroup but g outside."""
    dens = [1]
    for p in sorted(group.primes):
        dens = [d * p**e for d in dens for e in exps]
    for den in dens:
        for num in numerators:
            g = group.gen * F(num, den)
            if sub.contains(2 * g) and not sub.contains(g):
                return g
    return None


@pytest.mark.parametrize(
    "sub,group",
    [
        (desc(3), desc(1)),
        (desc(2), desc(1)),
        (desc(1), desc(1, [2])),
        (desc(1, [2]), desc(1, [2])),
        (desc(5, [3]), desc(1, [2, 3])),
        (desc(6), desc(F(1, 2))),
        (desc(F(5, 3), [7]), desc(F(5, 3), [7])),
        (desc(F(9, 2)), desc(F(3, 2))),
    ],
)
def test_is_two_pure_agrees_with_sampling(sub, group):
    assert is_two_pure(sub, group) == (sampled_purity_violation(sub, group) is None)


def test_two_pure_closure_examples():
    assert two_pure_closure(desc(2), desc(1)) == desc(1)
    assert two_pure_closure(desc(1), desc(1, [2])) == desc(1, [2])
    assert two_pure_closure(desc(5), desc(1)) == desc(5)


@pytest.mark.parametrize(
    "sub,group",
    [
        (desc(2), desc(1)),
        (desc(12), desc(1)),
        (desc(1), desc(1, [2])),
        (desc(20, [5]), desc(1, [2, 5])),
        (desc(F(8, 3), [3]), desc(F(1, 3), [3])),
        (desc(7), desc(7)),
    ],
)
def test_two_pure_closure_laws(sub, group):
    closed = two_pure_closure(sub, group)
    assert is_subgroup_of(sub, closed)
    assert is_subgroup_of(closed, group)
    assert is_two_pure(closed, group)
    assert two_pure_closure(closed, group) == closed


def test_cyclic_chain_examples():
    assert cyclic_chain(desc(1, [2]), [F(0), F(1)], 3) == [1, F(1, 2), F(1, 4), F(1, 8)]
    assert cyclic_chain(desc(1), [F(6), F(10)], 3) == [2, 2, 2, 2]
    assert cyclic_chain(desc(F(1, 6), [3]), [F(1, 6)], 2) == [F(1, 6), F(1, 18), F(1, 54)]


def test_cyclic_chain_round_robin_over_primes():
    chain = cyclic_chain(desc(1, [2, 3]), [F(1)], 4)
    assert chain == [1, F(1, 2), F(1, 6), F(1, 12), F(1, 36)]


def test_cyclic_chain_invariants():
    group = desc(F(2, 3), [2, 5])
    sample = [F(2), F(2, 3), F(-4, 15)]
    chain = cyclic_chain(group, sample, 5)
    g0 = chain[0]
    for point in sample:
        assert (point / g0).denominator == 1
    for a, b in zip(chain, chain[1:]):
        ratio = a / b
        assert ratio.denominator == 1 and ratio > 1


def test_cyclic_chain_errors_and_degenerate_sample():
    group = desc(1, [2])
    with pytest.raises(ValueError):
        cyclic_chain(group, [], 2)
    with pytest.raises(ValueError):
        cyclic_chain(group, [F(1, 3)], 2)
    with pytest.raises(ValueError):
        cyclic_chain(group, [F(1)], 0)
    # an all-zero sample falls back to the ambient generator
    assert cyclic_chain(group, [F(0)], 1) == [1, F(1, 2)]


def test_interval_spec():
    with pytest.raises(ValueError):
        QIntervalSpec(F(1), F(0))
    with pytest.raises(ValueError):
        QIntervalSpec(F(1), F(1), lower_closed=False)
    closed = QIntervalSpec(F(0), F(1))
    assert closed.contains(F(0)) and closed.contains(F(1)) and closed.contains(F(1, 3))
    open_left = QIntervalSpec(F(0), None, lower_closed=False)
    assert not open_left.contains(F(0)) and open_left.contains(F(1000000))


def test_lattice_cut_matches_a_per_point_scan():
    # closed, open, half-bounded and degenerate intervals, ends on and off
    # the lattice x + k*g, g of either sign
    rng = random.Random(4)
    for i in range(500):
        lower, upper = sorted(F(rng.randint(-30, 30), rng.choice([1, 2, 3])) for _ in range(2))
        closed = (True, True) if lower == upper else (rng.random() < 0.5, rng.random() < 0.5)
        interval = QIntervalSpec(*rng.choice([(lower, upper), (lower, None), (None, upper)]), *closed)
        x = F(rng.randint(-20, 20), rng.choice([1, 2, 5]))
        g = F(rng.choice([1, -1]) * rng.randint(1, 6), rng.choice([1, 2, 3, 4]))
        inside = [k for k in range(-200, 201) if interval.contains(x + k * g)]
        lo, hi = interval.lattice_cut(x, g)
        # an unbounded side reaches past the scanned range; a bounded one stays inside it
        want_lo = None if -200 in inside else min(inside, default=None)
        want_hi = None if 200 in inside else max(inside, default=None)
        if not inside:
            assert lo is not None and hi is not None and lo > hi, (i, interval, x, g)
        else:
            assert (lo, hi) == (want_lo, want_hi), (i, interval, x, g)
    assert QIntervalSpec().lattice_cut(F(0), F(1)) == (None, None)


def test_description_membership_examples():
    unit_dyadics = RationalMidconvexDescription(
        QIntervalSpec(F(0), F(1)), desc(1, [2]), F(0)
    )
    assert unit_dyadics.contains(F(3, 8))
    assert not unit_dyadics.contains(F(1, 3))
    assert not unit_dyadics.contains(F(2))


def test_description_validation():
    with pytest.raises(ValueError):
        RationalMidconvexDescription(QIntervalSpec(F(0), F(1)), desc(1), F(2))
    description = RationalMidconvexDescription(QIntervalSpec(F(0), F(1)), desc(1, [3]), F(0))
    with pytest.raises(ValueError):
        description.validate_ambient(desc(1, [2]))
    description.validate_ambient(desc(1, [2, 3]))
