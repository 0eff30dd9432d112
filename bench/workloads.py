"""The three benchmark workloads: inputs from a seed, references, program calls.

A workload is generated in two steps. Its constructor runs before the
program is imported: it draws every input from the seed and computes the
reference answers (module `refs`, no `midconvex`). `build(mc)` then turns
those plain inputs into the program-side objects, using the imported
modules in `mc`, and returns rounds of `Item`s. Only `build` counts towards
set-up time and only `Item.run` is timed.

Every round of a workload has the same structure (same templates, same
cost-determining parameters) with fresh values drawn from the seed, so
whole rounds cost the same whatever the seed; the seed varies the values
the cost does not depend on (offsets, signs, generators of the same
subgroup, interval shapes, sampling seeds).
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, prod
from typing import Callable

import refs

ROUND_VALUE_SETS = 16  # distinct value sets per run; later rounds reuse them in turn


@dataclass
class Item:
    """One timed unit of work and the untimed check of its output."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    count: int = 1  # items this unit stands for (campaigns: subsets decided)


# -- campaigns ------------------------------------------------------------

SWEEPS = (("exhaustive_theorem2", 12), ("exhaustive_theorem1", 10), ("exhaustive_lemma1", 12))


class Campaigns:
    """The exhaustive sweeps behind `verify --theorem 2|1|lemma1` at their CLI defaults."""

    name = "campaigns"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.seed = seed
        self.orders: list[list[int]] = []
        for _ in range(ROUND_VALUE_SETS):
            order = list(range(len(SWEEPS)))
            rng.shuffle(order)
            self.orders.append(order)
        top = max(m for _, m in SWEEPS)
        # isomorphism types (as sorted elementary divisors) per order, and the
        # closed-form midconvex count of each
        self.types = {n: [refs.elementary_divisors(t) for t in refs.abelian_types(n)] for n in range(1, top + 1)}
        self.closed_form = {
            refs.elementary_divisors(t): refs.midconvex_count(t)
            for n in range(1, top + 1)
            for t in refs.abelian_types(n)
        }

    def build(self, mc) -> list[list[Item]]:
        rounds = []
        for order in self.orders:
            items = []
            for idx in order:
                fn, max_order = SWEEPS[idx]
                items.append(
                    Item(
                        f"{fn}({max_order})",
                        _sweep_call(mc.harness, fn, max_order, self.seed),
                        self._checker(fn, max_order),
                        _subsets(max_order),
                    )
                )
            rounds.append(items)
        return rounds

    def _checker(self, fn: str, max_order: int):
        want_counts = {"groups": sum(len(self.types[n]) for n in range(1, max_order + 1)), "subsets": _subsets(max_order)}
        want_types = sorted(t for n in range(1, max_order + 1) for t in self.types[n])

        def check(report) -> list[str]:
            problems = [f"mismatch: {m}" for m in report.mismatches[:5]]
            if report.mismatches:
                problems.append(f"{len(report.mismatches)} mismatches")
            if report.counts != want_counts:
                problems.append(f"counts {report.counts} != {want_counts}")
            if fn == "exhaustive_theorem2":
                counts = report.details.get("midconvex_counts", {})
                types = {label: refs.elementary_divisors(refs.parse_group_label(label)) for label in counts}
                if sorted(types.values()) != want_types:
                    problems.append("the sweep's groups are not one per isomorphism class")
                for label, count in counts.items():
                    want = self.closed_form.get(types[label])
                    if count != want:
                        problems.append(f"{label}: {count} midconvex subsets, closed form gives {want}")
            return problems

        return check


def _sweep_call(harness, fn: str, max_order: int, seed: int):
    # looked up at call time, so that a traced run sees the wrapped function
    def run():
        return getattr(harness, fn)(max_order, seed=seed)

    return run


def _subsets(max_order: int) -> int:
    return refs.sweep_totals(max_order)[1]


# -- roundtrip --------------------------------------------------------------

POOLS = ((), (2,), (3,), (2, 3), (5,))
KS = (1, 3, 5, 7)


class Roundtrip:
    """Theorem-3 sampling plus decomposition round trips on synthetic descriptions.

    Each round holds one item per (prime pool, k, base at zero or not), 40 in
    all. The subgroup generator is k times the ambient generator, closed to
    be two-pure; the non-zero base is +-1, 2 or 4 ambient generators, so the
    first lattice step is the ambient generator whatever the seed draws.
    """

    name = "roundtrip"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.rounds = [self._round(rng) for _ in range(ROUND_VALUE_SETS)]

    @staticmethod
    def _round(rng: random.Random) -> list[dict]:
        specs = []
        for pool in POOLS:
            subsets = [frozenset(c) for r in range(len(pool) + 1) for c in combinations(pool, r)]
            for cell, (k, base_zero) in enumerate((k, z) for k in KS for z in (True, False)):
                specs.append(_roundtrip_spec(rng, pool, k, base_zero, subsets[cell % len(subsets)]))
        rng.shuffle(specs)
        return specs

    def build(self, mc) -> list[list[Item]]:
        r = mc.rationals
        rounds = []
        for specs in self.rounds:
            items = []
            for s in specs:
                ambient = r.RationalGroupDescriptor(s["ambient_gen"], frozenset(s["pool"]))
                d = s["desc"]
                description = r.RationalMidconvexDescription(
                    r.QIntervalSpec(d["lower"], d["upper"], d["lower_closed"], d["upper_closed"]),
                    r.RationalGroupDescriptor(d["gen"], d["primes"]),
                    d["base"],
                )
                items.append(Item(s["label"], _roundtrip_call(mc, ambient, description, s), _roundtrip_check(s)))
            rounds.append(items)
        return rounds


def _roundtrip_spec(rng, pool, k, base_zero, sub_primes) -> dict:
    ambient_gen = refs.strip(Fraction(rng.choice([1, 2, 3, 5]), rng.choice([1, 2, 3, 4])), pool)
    j = rng.randint(0, 1) if 2 in pool else 0
    seed_gen = refs.strip(ambient_gen * Fraction(k, 2**j), sub_primes)
    h, primes = refs.two_pure_closure(seed_gen, sub_primes, ambient_gen, pool)
    base = Fraction(0) if base_zero else ambient_gen * rng.choice([-4, -2, -1, 1, 2, 4])
    lo_off = rng.choice([None, 0, rng.randint(1, 6)])
    up_off = rng.choice([None, 1, rng.randint(2, 6)])
    desc = {
        "lower": None if lo_off is None else base - h * lo_off,
        "upper": None if up_off is None else base + h * up_off,
        "lower_closed": True if lo_off == 0 else bool(rng.getrandbits(1)),
        "upper_closed": True if up_off == 1 else bool(rng.getrandbits(1)),
        "gen": h,
        "primes": primes,
        "base": base,
    }
    radius = max(24 * ambient_gen, 8 * h)
    margin = radius - h
    grid = []
    for e in range(3):
        for p in (*pool, 1):
            den = p**e
            for num in range(-20, 21):
                point = base + ambient_gen * Fraction(num, den)
                if abs(point - base) <= margin:
                    grid.append((point, refs.in_description(point, desc)))
    return {
        "label": f"pool={list(pool)} k={k} base={base} H=({h},{sorted(primes)})",
        "pool": pool,
        "ambient_gen": ambient_gen,
        "desc": desc,
        "sample_seed": rng.randrange(1 << 31),
        "radius": radius,
        "depth": 3 * max(1, len(pool)),
        "grid": grid,
    }


def _roundtrip_call(mc, ambient, description, spec):
    engine = mc.engine
    base, h = spec["desc"]["base"], spec["desc"]["gen"]
    depth, radius, sample_seed = spec["depth"], spec["radius"], spec["sample_seed"]

    def run():
        violation = engine.theorem3_if_violation(description, ambient, 1000, sample_seed)
        recovered = engine.decompose_rational(ambient, description, base, base + h, depth, radius)
        return violation, recovered

    return run


def _roundtrip_check(spec):
    def check(output) -> list[str]:
        violation, recovered = output
        problems = []
        if violation is not None:
            problems.append(f"sampled midpoint escaped a two-pure description: {violation}")
        got = {
            "lower": recovered.interval.lower,
            "upper": recovered.interval.upper,
            "lower_closed": recovered.interval.lower_closed,
            "upper_closed": recovered.interval.upper_closed,
            "gen": recovered.subgroup.gen,
            "primes": recovered.subgroup.primes,
            "base": recovered.base,
        }
        bad = [str(p) for p, want in spec["grid"] if refs.in_description(p, got) != want]
        if bad:
            problems.append(f"recovered description disagrees at {len(bad)} grid points, e.g. {bad[:3]}")
        return problems

    return check


# -- queries ----------------------------------------------------------------


class Queries:
    """Single `group; set; command` statements through `dsl.parse` and `cli.run`.

    Each round holds one statement per template in `TEMPLATES`. A template
    fixes the group, the subgroup sizes and the window widths, which set the
    cost; the seed draws offsets, generators and listing order.
    """

    name = "queries"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.rounds = []
        for _ in range(ROUND_VALUE_SETS):
            specs = [(name, *template(rng)) for name, template in TEMPLATES]
            rng.shuffle(specs)
            self.rounds.append(specs)
        self.probe = (
            "defect:Q-2,3-decompose",
            "Q(gen=1, primes=[2,3]); conv[0,5] ∩ ((1,[2,3]) + 0); decompose",
            0,
            _expect_q_decomposition(Fraction(0), Fraction(5), Fraction(1), [2, 3], Fraction(0), 6),
        )

    def build(self, mc) -> list[list[Item]]:
        return [[_query_item(mc, *spec) for spec in specs] for specs in self.rounds]

    def probe_item(self, mc) -> Item:
        return _query_item(mc, *self.probe)


def _query_item(mc, name, text, code, check) -> Item:
    dsl, cli = mc.dsl, mc.cli

    def run():
        return cli.run(dsl.parse(text), fmt="json")

    def check_output(output) -> list[str]:
        got_code, rendered = output
        report = json.loads(rendered)
        if got_code != code:
            return [f"exit {got_code} (expected {code}): {report.get('result')}"]
        return check(report)

    return Item(f"{name}: {text[:90]}", run, check_output)


# Helpers that build statements and their expected reports. Elements of
# finite groups are residue tuples; `fmt_el` prints them as the language does.


def fmt_el(e: tuple[int, ...]) -> str:
    return str(e[0]) if len(e) == 1 else "(%s)" % ",".join(map(str, e))


def fmt_group(orders) -> str:
    return "Z(%s)" % "x".join(map(str, orders))


def _unit(rng, n: int) -> int:
    while True:
        u = rng.randrange(1, n)
        if gcd(u, n) == 1:
            return u


def _coset(orders, gens, offset) -> list[tuple[int, ...]]:
    return sorted(refs.add(orders, offset, h) for h in refs.generated(orders, gens))


def _listing(rng, members) -> str:
    shown = list(members)
    rng.shuffle(shown)
    return "{%s}" % ",".join(fmt_el(e) for e in shown)


def _random_element(rng, orders) -> tuple[int, ...]:
    return tuple(rng.randrange(n) for n in orders)


def _scaled(rng, orders, gen) -> tuple[int, ...]:
    """A generator of the same cyclic subgroup as gen (times a unit mod its order)."""
    order = 1
    while any((order * g) % n for g, n in zip(gen, orders)):
        order += 1
    u = _unit(rng, order) if order > 1 else 1
    return tuple((u * g) % n for g, n in zip(gen, orders))


def _expect_midconvex(report) -> list[str]:
    if report["result"] != "midconvex" or report["witness"] is not None:
        return [f"expected midconvex, got {report['result']}"]
    return []


def _expect_finite_witness(orders, members):
    members = set(members)

    def check(report) -> list[str]:
        w = report.get("witness")
        if report["result"] != "counterexample" or w is None:
            return [f"expected a counterexample, got {report['result']}"]
        x, y, z = (refs.parse_element(w[k]) for k in ("x", "y", "z"))
        if x not in members or y not in members or z in members:
            return [f"witness {w} does not have x, y members and z outside"]
        if refs.add(orders, z, z) != refs.add(orders, x, y):
            return [f"witness {w} does not satisfy 2z = x + y"]
        return []

    return check


_SET_MEMBER = re.compile(r"\([^)]*\)|[^,]+")


def _expect_set(key, members, render=fmt_el):
    want = {render(e) for e in members}

    def check(report) -> list[str]:
        text = report.get(key)
        if text is None or not (text.startswith("{") and text.endswith("}")):
            return [f"no {key} in report: {report['result']}"]
        got = set(_SET_MEMBER.findall(text[1:-1]))
        if got != want:
            return [f"{key} has {len(got)} members, reference has {len(want)}; differ at {sorted(got ^ want)[:4]}"]
        return []

    return check


def _expect_text(key, want):
    def check(report) -> list[str]:
        if report.get(key) != want:
            return [f"{key} {str(report.get(key))[:80]!r} != {want[:80]!r}"]
        return []

    return check


def _expect_result_prefix(prefix):
    def check(report) -> list[str]:
        if not report["result"].startswith(prefix):
            return [f"result {report['result']!r} does not start with {prefix!r}"]
        return []

    return check


def _expect_periodic(orders, subgroup, base):
    def check(report) -> list[str]:
        if report["result"] != "decomposed":
            return [f"expected a decomposition, got {report['result']}"]
        h = report["decomposition"]["H"]
        problems = []
        if h["elements"] != [fmt_el(e) for e in sorted(subgroup)]:
            problems.append("H elements differ from the subgroup the set was built from")
        if h["index"] != prod(orders) // len(subgroup):
            problems.append(f"index {h['index']} != {prod(orders) // len(subgroup)}")
        if len(orders) == 1:
            nonzero = [e[0] for e in subgroup if e[0]]
            want = min(nonzero) if nonzero else orders[0]
            if h["modulus"] != want:
                problems.append(f"modulus {h['modulus']} != {want}")
        if report["decomposition"]["x"] != fmt_el(base):
            problems.append(f"x {report['decomposition']['x']} != {fmt_el(base)}")
        return problems

    return check


def _expect_z_decomposition(lower, upper, modulus, x):
    def check(report) -> list[str]:
        if report["result"] != "decomposed":
            return [f"expected a decomposition, got {report['result']}"]
        d = report["decomposition"]
        got = (d["C"]["lower"], d["C"]["upper"], d["H"]["modulus"], d["x"])
        want = (str(lower), str(upper), modulus, str(x))
        return [] if got == want else [f"decomposition {got} != {want}"]

    return check


def _expect_q_decomposition(lower, upper, gen, primes, x, depth):
    def check(report) -> list[str]:
        if report["result"] != "decomposed":
            return [f"expected a decomposition, got {report['result']}"]
        d = report["decomposition"]
        got = (d["C"]["lower"], d["C"]["upper"], d["H"]["gen"], d["H"]["primes"], d["x"], d.get("depth"))
        want = (str(lower), str(upper), str(gen), sorted(primes), str(x), depth)
        return [] if got == want else [f"decomposition {got} != {want}"]

    return check


def _expect_q_witness(in_set, in_ambient):
    def check(report) -> list[str]:
        w = report.get("witness")
        if report["result"] != "counterexample" or w is None:
            return [f"expected a counterexample, got {report['result']}"]
        x, y, z = (Fraction(w[k]) for k in ("x", "y", "z"))
        if not (in_set(x) and in_set(y)) or in_set(z) or 2 * z != x + y or not in_ambient(z):
            return [f"witness {w} is not a violating triple"]
        return []

    return check


def _expect_campaign(counts: dict, details: dict | None = None):
    def check(report) -> list[str]:
        c = report.get("campaign") or {}
        problems = []
        if report["result"] != "pass" or c.get("mismatches"):
            problems.append(f"campaign {report['result']}: {c.get('mismatches', [])[:2]}")
        for key, want in counts.items():
            if c.get("counts", {}).get(key) != want:
                problems.append(f"count {key} = {c.get('counts', {}).get(key)} != {want}")
        for key, want in (details or {}).items():
            if c.get("details", {}).get(key) != want:
                problems.append(f"detail {key} = {c.get('details', {}).get(key)} != {want}")
        return problems

    return check


# Finite groups: the index-table path (order up to 512) -------------------


def t_check_coset_odd(rng):
    orders, gens = (135,), [(9,)]
    members = _coset(orders, [_scaled(rng, orders, g) for g in gens], _random_element(rng, orders))
    return f"{fmt_group(orders)}; {_listing(rng, members)}; check", 0, _expect_midconvex


def t_check_coset_even(rng):
    orders = (4, 3, 3)
    gens = [(2, 0, 0), (0, 1, 0), _scaled(rng, orders, (0, 0, 1))]
    members = _coset(orders, gens, _random_element(rng, orders))
    return f"{fmt_group(orders)}; {_listing(rng, members)}; check", 1, _expect_finite_witness(orders, members)


def t_check_product_odd(rng):
    orders = (3, 9, 9)
    gens = [(1, 0, 0), (0, 3, 0), _scaled(rng, orders, (0, 0, 1))]
    members = _coset(orders, gens, _random_element(rng, orders))
    return f"{fmt_group(orders)}; {_listing(rng, members)}; check", 0, _expect_midconvex


def t_decompose_cyclic(rng):
    orders = (225,)
    subgroup = refs.generated(orders, [_scaled(rng, orders, (15,))])
    members = _coset(orders, list(subgroup), _random_element(rng, orders))
    return (
        f"{fmt_group(orders)}; {_listing(rng, members)}; decompose",
        0,
        _expect_periodic(orders, subgroup, members[0]),
    )


def t_decompose_product(rng):
    orders = (2, 2, 45)
    subgroup = refs.generated(orders, [(1, 0, 0), (0, 1, 0), _scaled(rng, orders, (0, 0, 3))])
    members = _coset(orders, list(subgroup), _random_element(rng, orders))
    return (
        f"{fmt_group(orders)}; {_listing(rng, members)}; decompose",
        0,
        _expect_periodic(orders, subgroup, members[0]),
    )


def t_decompose_even_index(rng):
    orders = (6, 6)
    members = _coset(orders, [(2, 0), _scaled(rng, orders, (0, 1))], _random_element(rng, orders))
    return (
        f"{fmt_group(orders)}; {_listing(rng, members)}; decompose",
        1,
        _expect_result_prefix("not midconvex: X - x has even index 2"),
    )


def _not_coset_template(n):
    def template(rng):
        a = rng.randrange(n)
        members = [(a,), ((a + 1) % n,), ((a + 3) % n,)]
        return (
            f"{fmt_group((n,))}; {_listing(rng, members)}; decompose",
            1,
            _expect_result_prefix("not midconvex: X - x is not a subgroup"),
        )

    return template


def _trace_template(orders, gens, step_gen):
    def template(rng):
        members = _coset(orders, [_scaled(rng, orders, g) for g in gens], _random_element(rng, orders))
        x = rng.choice(members)
        g = _scaled(rng, orders, step_gen)
        d, point, residues = 0, x, []
        member_set = set(members)
        while True:
            if point in member_set:
                residues.append(d)
            d += 1
            point = refs.add(orders, point, g)
            if point == x:
                break
        want = "{%s} mod %d" % (",".join(map(str, residues)), d)
        return (
            f"{fmt_group(orders)}; {_listing(rng, members)}; trace x={fmt_el(x)} g={fmt_el(g)}",
            0,
            _expect_text("trace", want),
        )

    return template


def _closure_template(orders, offsets):
    def template(rng):
        x = _random_element(rng, orders)
        members = [x] + [refs.add(orders, x, _scaled(rng, orders, o)) for o in offsets]
        want = refs.closure(orders, members)
        return (
            f"{fmt_group(orders)}; {_listing(rng, sorted(set(members)))}; closure",
            0,
            _expect_set("closure", want),
        )

    return template


# Finite groups: the mixed-radix path (order above 512) --------------------


def t_check_2187(rng):
    orders = (2187,)
    members = _coset(orders, [_scaled(rng, orders, (27,))], _random_element(rng, orders))
    return f"{fmt_group(orders)}; {_listing(rng, members)}; check", 0, _expect_midconvex


def t_check_1024(rng):
    orders = (1024,)
    members = _coset(orders, [_scaled(rng, orders, (4,))], _random_element(rng, orders))
    return f"{fmt_group(orders)}; {_listing(rng, members)}; check", 1, _expect_finite_witness(orders, members)


def t_decompose_3125(rng):
    orders = (5, 5, 5, 5, 5)
    subgroup = refs.generated(orders, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), _scaled(rng, orders, (0, 0, 1, 0, 0))])
    members = _coset(orders, list(subgroup), _random_element(rng, orders))
    return (
        f"{fmt_group(orders)}; {_listing(rng, members)}; decompose",
        0,
        _expect_periodic(orders, subgroup, members[0]),
    )


def t_decompose_1024_even(rng):
    orders = (4, 4, 4, 4, 4)
    members = _coset(orders, [(1, 0, 0, 0, 0)], _random_element(rng, orders))
    return (
        f"{fmt_group(orders)}; {_listing(rng, members)}; decompose",
        1,
        _expect_result_prefix("not midconvex: X - x has even index 256"),
    )


# Windowed integer sets ----------------------------------------------------


def _progression(rng, step, width):
    lo = rng.randint(-500, 500)
    first = lo + rng.randrange(step)
    members = list(range(first, lo + width + 1, step))
    return lo, lo + width, members


def _window_text(lo, hi, members):
    return "{%s}@window[%d,%d]" % (",".join(map(str, members)), lo, hi)


def t_z_check_odd(rng):
    lo, hi, members = _progression(rng, 5, 10000)
    return f"Z; {_window_text(lo, hi, members)}; check", 0, _expect_midconvex


def t_z_check_even(rng):
    lo, hi, members = _progression(rng, 6, 6000)
    member_set = set(members)

    def check(report):
        w = report.get("witness")
        if report["result"] != "counterexample" or w is None:
            return [f"expected a counterexample, got {report['result']}"]
        x, y, z = (int(w[k]) for k in ("x", "y", "z"))
        if x not in member_set or y not in member_set or z in member_set or 2 * z != x + y:
            return [f"witness {w} is not a violating triple"]
        return []

    return f"Z; {_window_text(lo, hi, members)}; check", 1, check


def t_z_decompose_odd(rng):
    lo, hi, members = _progression(rng, 7, 10000)
    return (
        f"Z; {_window_text(lo, hi, members)}; decompose",
        0,
        _expect_z_decomposition(members[0], members[-1], 7, members[0]),
    )


def t_z_decompose_even(rng):
    lo, hi, members = _progression(rng, 4, 4000)
    return (
        f"Z; {_window_text(lo, hi, members)}; decompose",
        1,
        _expect_result_prefix("not midconvex: minimal nonzero trace element 4 is even"),
    )


def t_z_trace(rng):
    lo, hi, members = _progression(rng, 9, 9000)
    member_set = set(members)
    x = rng.choice(members)
    g = 3 * rng.choice([-1, 1])
    if g > 0:
        n_lo, n_hi = -((x - lo) // g), (hi - x) // g
    else:
        n_lo, n_hi = -((hi - x) // -g), (x - lo) // -g
    inside = [n for n in range(n_lo, n_hi + 1) if x + n * g in member_set]
    want = "{%s}@window[%d,%d]" % (",".join(map(str, inside)), n_lo, n_hi)
    return f"Z; {_window_text(lo, hi, members)}; trace x={x} g={g}", 0, _expect_text("trace", want)


def t_z_closure(rng):
    a = rng.randint(-500, 500)
    d = 3 * 16
    want = set(range(a, a + d + 1, 3))
    return (
        f"Z; {_window_text(a, a + d, [a, a + d])}; closure",
        0,
        _expect_set("closure", want, str),
    )


# Subgroups of the rationals -----------------------------------------------


def _q_described(rng, primes, width):
    a = rng.randint(-6, 6)
    text = "conv[%d,%d] ∩ ((1,[%s]) + %d)" % (a, a + width, ",".join(map(str, primes)), a)
    return a, text


def t_q_decompose_3(rng):
    a, s = _q_described(rng, [3], 5)
    return (
        f"Q(gen=1, primes=[3]); {s}; decompose",
        0,
        _expect_q_decomposition(a, a + 5, 1, [3], a, 3),
    )


def t_q_decompose_2(rng):
    a, s = _q_described(rng, [2], 5)
    return (
        f"Q(gen=1, primes=[2]); {s}; decompose",
        0,
        _expect_q_decomposition(a, a + 5, 1, [2], a, 3),
    )


def t_q_decompose_cyclic(rng):
    g = Fraction(rng.choice([1, 3, 5]), rng.choice([1, 2, 4]))
    h = g * rng.choice([3, 5, 9])
    base = g * rng.randint(-5, 5)
    lo, hi = base - h * rng.randint(1, 4), base + h * rng.randint(1, 4)
    lower = lo - g * rng.randint(0, 1)  # the interval may overhang the coset
    return (
        f"Q(gen={g}, primes=[]); conv[{lower},{hi}] ∩ (({h},[]) + {base}); decompose",
        0,
        _expect_q_decomposition(lo, hi, h, [], base, 3),
    )


def t_q_check_pure(rng):
    a, s = _q_described(rng, [2], rng.randint(1, 9))
    return f"Q(gen=1, primes=[2]); {s}; check", 0, _expect_midconvex


def _q_impure(rng, ambient_primes, sub_gen, sub_primes):
    a = rng.randint(-6, 6)
    width = rng.randint(2, 9)
    desc = {
        "lower": Fraction(a),
        "upper": Fraction(a + width),
        "lower_closed": True,
        "upper_closed": True,
        "gen": Fraction(sub_gen),
        "primes": sub_primes,
        "base": Fraction(a),
    }
    text = "Q(gen=1, primes=[%s]); conv[%d,%d] ∩ ((%s,[%s]) + %d); check" % (
        ",".join(map(str, ambient_primes)),
        a,
        a + width,
        sub_gen,
        ",".join(map(str, sub_primes)),
        a,
    )
    return (
        text,
        1,
        _expect_q_witness(
            lambda r: refs.in_description(r, desc),
            lambda r: refs.in_lattice(r, Fraction(1), ambient_primes),
        ),
    )


def t_q_check_impure_odd(rng):
    return _q_impure(rng, [3], 2, [3])


def t_q_check_impure_dyadic(rng):
    return _q_impure(rng, [2, 5], 1, [5])


def _q_points(rng, step_multiple):
    g = Fraction(1, rng.choice([2, 3, 4]))
    step = g * step_multiple
    first = g * rng.randint(-10, 10)
    points = [first + step * i for i in range(rng.randint(3, 6))]
    return g, step, points


def t_q_points_check_even(rng):
    g, _, points = _q_points(rng, rng.choice([2, 6]))
    in_set = set(points).__contains__
    return (
        f"Q(gen={g}, primes=[]); {{{','.join(map(str, points))}}}; check",
        1,
        _expect_q_witness(in_set, lambda r: refs.in_lattice(r, g, [])),
    )


def t_q_points_decompose(rng):
    g, step, points = _q_points(rng, rng.choice([1, 3, 5]))
    return (
        f"Q(gen={g}, primes=[]); {{{','.join(map(str, points))}}}; decompose",
        0,
        _expect_q_decomposition(points[0], points[-1], step, [], points[0], 3),
    )


# Small campaigns through the command line ----------------------------------


def t_verify_purity(rng):
    seed = rng.randrange(1000)
    return (
        f"Z; {{0}}@window[0,0]; verify --theorem purity --samples 20 --seed {seed}",
        0,
        _expect_campaign({"pairs": 20, "samples_per_pair": 200}),
    )


def t_verify_hull(rng):
    a = rng.randint(-50, 50)
    d = 5 * rng.choice([4, 8])
    closure = set(range(a, a + d + 1, 5))
    return (
        f"Z; {_window_text(a, a + d, [a, a + d])}; verify --theorem hull --seed {rng.randrange(1000)}",
        0,
        _expect_campaign({"oracle_points": len(closure)}, {"oracle_complete": True}),
    )


def t_verify_theorem3(rng):
    a, s = _q_described(rng, [2], 2)
    return (
        f"Q(gen=1, primes=[2]); {s}; verify --theorem 3 --samples 200 --seed {rng.randrange(1000)}",
        0,
        _expect_campaign({"samples": 200}),
    )


# One statement per case and round: each kind of statement the queries
# workload stands for (finite check, decompose, trace and closure on both
# paths, windowed Z sets, Q sets, the small campaigns) with the verdicts
# its references know by construction. The weights are chosen, not
# measured: no record of how often users run each kind exists. The count
# of statements, 35, is odd and 0.9 * 35 ends in .5, so the pooled median
# and 90th percentile fall in the middle of one statement's samples, not
# on the edge between two.
TEMPLATES = [
    ("check-135-odd", t_check_coset_odd),
    ("check-4x3x3-even", t_check_coset_even),
    ("check-3x9x9-odd", t_check_product_odd),
    ("decompose-225", t_decompose_cyclic),
    ("decompose-2x2x45", t_decompose_product),
    ("decompose-6x6-even", t_decompose_even_index),
    ("decompose-45-not-coset", _not_coset_template(45)),
    ("trace-9x27", _trace_template((9, 27), [(0, 3), (1, 0)], (1, 1))),
    ("closure-512", _closure_template((512,), [(2,)])),
    ("closure-3x81", _closure_template((3, 81), [(0, 3), (1, 9)])),
    ("closure-4x45", _closure_template((4, 45), [(0, 5)])),
    ("check-2187", t_check_2187),
    ("check-1024-even", t_check_1024),
    ("decompose-5x5x5x5x5", t_decompose_3125),
    ("decompose-4x4x4x4x4-even", t_decompose_1024_even),
    ("decompose-2187-not-coset", _not_coset_template(2187)),
    ("trace-15625", _trace_template((15625,), [(3125,)], (1,))),
    ("closure-9x81", _closure_template((9, 81), [(0, 1)])),
    ("z-check-odd", t_z_check_odd),
    ("z-check-even", t_z_check_even),
    ("z-decompose-odd", t_z_decompose_odd),
    ("z-decompose-even", t_z_decompose_even),
    ("z-trace", t_z_trace),
    ("z-closure", t_z_closure),
    ("q-decompose-3", t_q_decompose_3),
    ("q-decompose-2", t_q_decompose_2),
    ("q-decompose-cyclic", t_q_decompose_cyclic),
    ("q-check-pure", t_q_check_pure),
    ("q-check-impure-3", t_q_check_impure_odd),
    ("q-check-impure-2", t_q_check_impure_dyadic),
    ("q-points-check-even", t_q_points_check_even),
    ("q-points-decompose", t_q_points_decompose),
    ("verify-purity", t_verify_purity),
    ("verify-hull", t_verify_hull),
    ("verify-theorem3", t_verify_theorem3),
]

WORKLOADS = {w.name: w for w in (Campaigns, Roundtrip, Queries)}
