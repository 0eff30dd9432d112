"""Command line front end: binds parsed input to the engine and harness.

Exit codes: 0 when the property holds or a decomposition succeeded, 1 when a
counterexample or failed decomposition was found (the report carries the
witness), 2 for usage, parse and type errors, 3 when a resource cap was hit.

Reports are deterministic: elapsed times are reported as 0 unless --timings
is given, and every randomized command takes its seed from the input
(defaulting to 0), never from the clock.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import dsl, engine, harness, intsets
from .dsl import (
    CheckCmd,
    ClosureCmd,
    DecomposeCmd,
    DslSyntaxError,
    DslTypeError,
    ExplicitSetExpr,
    FiniteGroupExpr,
    Program,
    TraceCmd,
    VerifyCmd,
    ZGroupExpr,
)
from .errors import CapExceeded, NotMidconvex, NotMidconvexTrace
from .groups import FiniteAbelianGroup, GroupSubset, make_group
from .intsets import IntWindowSet
from .rationals import QIntervalSpec, RationalGroupDescriptor, RationalMidconvexDescription

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
# The largest campaign size a statement may set with each flag: there a whole
# process takes about 4 s for purity and under 1 s for each sweep (2-vCPU Xeon).
SIZE_CAPS = {"--max-order": 68, "--samples": 30_000}


# -- binding parsed expressions to runtime objects --------------------------


def _bind_group(expr):
    if isinstance(expr, FiniteGroupExpr):
        try:
            return "finite", make_group(expr.orders)
        except ValueError as exc:
            raise DslTypeError(str(exc)) from exc
    if isinstance(expr, ZGroupExpr):
        # Z is bound to its reading as the rational group (1,[])
        return "zed", RationalGroupDescriptor(Fraction(1))
    try:
        return "rational", RationalGroupDescriptor(expr.gen, frozenset(expr.primes))
    except ValueError as exc:
        raise DslTypeError(str(exc)) from exc


def _bind_finite_element(group: FiniteAbelianGroup, element, what: str = "element"):
    if isinstance(element, tuple):
        residues = element
    elif isinstance(element, int) and len(group.orders) == 1:
        residues = (element,)
    else:
        raise DslTypeError(f"{what} {dsl.format_element(element)} does not fit {group}")
    if len(residues) != len(group.orders):
        raise DslTypeError(f"{what} {dsl.format_element(element)} has wrong arity for {group}")
    for r, n in zip(residues, group.orders):
        if not 0 <= r < n:
            raise DslTypeError(f"{what} {dsl.format_element(element)} is outside {group}")
    return group.element(residues)


def _bind_int(element, what: str) -> int:
    if not isinstance(element, int):
        raise DslTypeError(f"{what} {dsl.format_element(element)} is not an integer")
    return element


def _bind_rational(group: RationalGroupDescriptor, element, what: str) -> Fraction:
    if isinstance(element, tuple):
        raise DslTypeError(f"{what} {dsl.format_element(element)} is not a rational")
    value = Fraction(element)
    if not group.contains(value):
        raise DslTypeError(f"{what} {value} is not a member of the ambient group {group}")
    return value


def _bind_set(kind, group, expr):
    if isinstance(expr, ExplicitSetExpr):
        if kind != "zed" and expr.window is not None:
            raise DslTypeError("windows apply to Z sets only")
        members = expr.elements
        if kind == "finite":
            # each factor's residues are checked with one min and max
            columns = group.residue_columns(members)
            if columns is None or not all(0 <= min(c) and max(c) < n for c, n in zip(columns, group.orders) if c):
                # bind each element alone, which names the first one that does not fit
                members = [_bind_finite_element(group, e).residues for e in members]
            return "subset", GroupSubset.from_elements(group, members)
        if kind == "zed":
            if expr.window is None:
                raise DslTypeError("explicit Z sets must declare a window: {...}@window[lo,hi]")
            lo, hi = expr.window
            if lo > hi:
                raise DslTypeError(f"empty window [{lo},{hi}]")
            if not set(map(type, members)) <= {int}:
                for e in members:
                    _bind_int(e, "element")
            # the distinct members sorted once: the window is checked at the two ends
            members = sorted(set(members))
            if members and not lo <= members[0] <= members[-1] <= hi:
                bad = next(n for n in expr.elements if not lo <= n <= hi)
                raise DslTypeError(f"element {bad} is outside the window [{lo},{hi}]")
            return "window", IntWindowSet(lo, hi, tuple(members))
        return "points", [_bind_rational(group, e, "element") for e in members]
    if kind == "finite":
        raise DslTypeError("interval-and-coset sets live in Z or Q groups")
    try:
        subgroup = RationalGroupDescriptor(expr.sub_gen, frozenset(expr.sub_primes))
        interval = QIntervalSpec(expr.lower, expr.upper)
        description = RationalMidconvexDescription(interval, subgroup, Fraction(expr.base))
        description.validate_ambient(group)
    except ValueError as exc:
        raise DslTypeError(str(exc)) from exc
    return "description", description


# -- report assembly ---------------------------------------------------------


def _interval_dict(lower, upper) -> dict:
    return {
        "lower": None if lower is None else str(lower),
        "upper": None if upper is None else str(upper),
        "inclusive": True,
    }


def _decomposition_dict(dec) -> dict:
    if isinstance(dec, engine.PeriodicDecomposition):
        group = dec.subgroup.group
        indices = list(dec.subgroup.indices())
        modulus = None
        if len(group.orders) == 1:
            # in a cyclic group an index is its residue, and the least one after 0 generates H
            modulus = indices[1] if len(indices) > 1 else group.orders[0]
        return {
            "C": None,
            "H": {
                "gen": None,
                "primes": None,
                "modulus": modulus,
                "elements": group.format_indices(indices),
                "index": dec.index,
            },
            "x": str(dec.base),
        }
    if isinstance(dec, RationalMidconvexDescription):
        # a window set of Z: H = (m, []) is reported as its modulus m, and as 0 when C is one point
        c = dec.interval
        modulus = 0 if c.lower is not None and c.lower == c.upper else int(dec.subgroup.gen)
        return {
            "C": _interval_dict(c.lower, c.upper),
            "H": {"gen": None, "primes": None, "modulus": modulus},
            "x": str(dec.base),
        }
    desc = dec.description
    result = {
        "C": _interval_dict(desc.interval.lower, desc.interval.upper),
        "H": {
            "gen": str(desc.subgroup.gen),
            "primes": sorted(desc.subgroup.primes),
            "modulus": None,
        },
        "x": str(desc.base),
    }
    if dec.depth is not None:
        # the recovered subgroup is a finite-depth approximation of the limit
        result["depth"] = dec.depth
    return result


def _witness_dict(witness) -> dict | None:
    if witness is None:
        return None
    x, y, z = witness
    return {"x": str(x), "y": str(y), "z": str(z)}


def _render_text(report: dict) -> str:
    lines = []
    for key in ("command", "group", "set", "result"):
        lines.append(f"{key}: {report[key]}")
    witness = report.get("witness")
    if witness is not None:
        lines.append("witness: x=%s y=%s z=%s" % (witness["x"], witness["y"], witness["z"]))
    dec = report.get("decomposition")
    if dec is not None:
        c = dec["C"]
        if c is None:
            c_text = "-"
        else:
            lo = "-inf" if c["lower"] is None else c["lower"]
            hi = "inf" if c["upper"] is None else c["upper"]
            c_text = f"[{lo},{hi}]"
        h = dec["H"]
        if h.get("gen") is not None:
            primes = ",".join(str(p) for p in h["primes"])
            h_parts = [f"({h['gen']},[{primes}])"]
        elif "elements" in h:
            h_parts = ["{%s}" % ",".join(h["elements"]), f"index={h['index']}"]
        elif h["modulus"] == 0:
            h_parts = ["Z"]
        else:
            h_parts = [f"{h['modulus']}Z"]
        lines.append("decomposition: C=%s H=%s x=%s" % (c_text, " ".join(h_parts), dec["x"]))
    closure = report.get("closure")
    if closure is not None:
        lines.append(f"closure: {closure}")
    trace = report.get("trace")
    if trace is not None:
        lines.append(f"trace: {trace}")
    campaign = report.get("campaign")
    if campaign is not None:
        lines.append(f"campaign: {campaign['name']}")
        counts = " ".join(f"{k}={v}" for k, v in campaign["counts"].items())
        lines.append(f"counts: {counts}")
        lines.append(f"mismatches: {len(campaign['mismatches'])}")
    stats = report["stats"]
    seed = "-" if stats["seed"] is None else stats["seed"]
    lines.append(
        "stats: elapsed_ms=%s count=%s seed=%s" % (stats["elapsed_ms"], stats["count"], seed)
    )
    return "\n".join(lines) + "\n"


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    return _render_text(report)


# -- command execution --------------------------------------------------------


def _bind_element(set_kind, group, element, what: str):
    if set_kind == "subset":
        return _bind_finite_element(group, element, what)
    if set_kind == "window":
        return _bind_int(element, what)
    return _bind_rational(group, element, what)


def _member_count(set_kind, set_obj) -> int:
    """Distinct members of an explicit set; a described set counts as one."""
    if set_kind == "subset":
        return set_obj.size
    if set_kind == "window":
        return len(set_obj.members)
    return len(set(set_obj)) if set_kind == "points" else 1


def _points(set_kind, set_obj):
    """The members of a window set or the points of a point set, the finite sets of Z and Q."""
    return set_obj.members if set_kind == "window" else set_obj


def _decided_witness(count, decompose, scan, *args):
    """The pair scan's witness, scanned for only when the route's decomposition rejects the set.

    Decomposing decides midconvexity in one pass, by Theorem 2 over a finite
    group's mask and by Theorem 1 over a window's members, so the quadratic scan
    runs only to name the violating triple. A set of no members is midconvex.
    A finite set of Q is decided by Theorem 3 inside is_midconvex_q_finite.
    """
    if count:
        try:
            decompose(*args)
        except (NotMidconvex, NotMidconvexTrace):
            return scan(*args)
    return None


def _run_check(group, set_kind, set_obj, report):
    count = _member_count(set_kind, set_obj)
    if set_kind == "subset":
        witness = _decided_witness(count, engine.decompose_periodic, engine.midconvex_witness, group, set_obj)
    elif set_kind == "window":
        witness = _decided_witness(count, intsets.decompose_z, intsets.midconvex_z_witness, set_obj)
    elif set_kind == "points":
        witness = engine.is_midconvex_q_finite(group, set_obj)
    else:
        witness = engine.described_midconvex_witness(set_obj, group)
    report["stats"]["count"] = count
    report["witness"] = _witness_dict(witness)
    if witness is None:
        report["result"] = "midconvex"
        return EXIT_OK
    report["result"] = "counterexample"
    return EXIT_COUNTEREXAMPLE


def _run_closure(group, set_kind, set_obj, report):
    if set_kind == "subset":
        members = group.format_indices(engine.midconvex_closure(group, set_obj).indices())
    elif set_kind in ("window", "points"):
        closure = engine.rational_closure(group, _points(set_kind, set_obj))
        members = () if closure is None else engine.described_members(closure)
    else:
        raise DslTypeError("closure is only computed for explicit sets and finite groups")
    if members is None:
        # a dense closure is given by its description and counts as one set
        report["closure"] = str(closure)
        report["stats"]["count"] = 1
    else:
        report["closure"] = "{%s}" % ",".join(map(str, members))
        report["stats"]["count"] = len(members)
    report["result"] = "closure computed"
    return EXIT_OK


def _run_trace(group, set_kind, set_obj, command, report):
    x = _bind_element(set_kind, group, command.x, "trace base")
    g = _bind_element(set_kind, group, command.g, "trace direction")
    if set_kind == "subset":
        trace = engine.trace_in_group(group, set_obj, x, g)
    elif set_kind == "window":
        trace = intsets.trace_z(set_obj, x, g)
    else:
        trace = engine.lattice_trace(set_obj, x, g)
    report["trace"] = str(trace)
    # a described trace, like a dense closure, is given by its description and counts as one set
    described = isinstance(trace, RationalMidconvexDescription)
    report["stats"]["count"] = trace.period if set_kind == "subset" else 1 if described else trace.hi - trace.lo + 1
    report["result"] = "trace computed"
    return EXIT_OK


def _run_decompose(group, set_kind, set_obj, command, report):
    x = None if command.x is None else _bind_element(set_kind, group, command.x, "base")
    report["stats"]["count"] = _member_count(set_kind, set_obj)
    try:
        if set_kind == "subset":
            dec = engine.decompose_periodic(group, set_obj, x)
        elif set_kind == "window":
            dec = intsets.decompose_z(set_obj, x)
        else:
            dec = engine.decompose_rational_set(group, set_obj, x)
    except (NotMidconvex, NotMidconvexTrace) as exc:
        # only a rational route carries a violating triple; a trace witness is one integer
        if isinstance(exc, NotMidconvex) and exc.witness is not None:
            report["witness"] = _witness_dict(exc.witness)
            report["result"] = "not midconvex"
        else:
            report["result"] = f"not midconvex: {exc.reason}"
        return EXIT_COUNTEREXAMPLE
    report["decomposition"] = _decomposition_dict(dec)
    singleton = isinstance(dec, engine.RationalDecomposition) and dec.depth is None
    report["result"] = "decomposed (singleton)" if singleton else "decomposed"
    return EXIT_OK


def _given(**sizes) -> dict:
    """The sizes a statement sets; an absent size or 0 keeps the campaign's default."""
    return {name: value for name, value in sizes.items() if value}


def _run_verify(group, set_kind, set_obj, command, report, timings):
    seed = 0 if command.seed is None else command.seed
    report["stats"]["seed"] = seed
    sweep = command.theorem in ("1", "2", "lemma1")
    sizes = {"--max-order": command.max_order, "--samples": command.samples}
    flag, other = ("--max-order", "--samples") if sweep else ("--samples", "--max-order")
    if sizes[other] is not None:
        raise DslTypeError(f"verify --theorem {command.theorem} takes no {other}")
    size = sizes[flag] or 0
    if size < 0:
        raise DslTypeError(f"{flag} {size} is negative")
    if size > SIZE_CAPS[flag]:
        raise CapExceeded(f"{flag} {size} is above the campaign size cap, cap is {SIZE_CAPS[flag]}")
    if sweep:
        run_sweep = {
            "1": harness.exhaustive_theorem1,
            "2": harness.exhaustive_theorem2,
            "lemma1": harness.exhaustive_lemma1,
        }[command.theorem]
        campaign = run_sweep(seed=seed, **_given(max_order=command.max_order))
        count = campaign.counts.get("subsets", 0)
    elif command.theorem == "purity":
        campaign = harness.sample_two_purity(seed=seed, **_given(trials=command.samples))
        count = campaign.counts["pairs"]
    elif command.theorem == "hull":
        if set_kind not in ("points", "window"):
            raise DslTypeError("hull verification needs an explicit set")
        campaign = harness.conjecture_hull_check(
            group, list(_points(set_kind, set_obj)), seed=seed, **_given(samples=command.samples)
        )
        count = campaign.counts["oracle_points"]
    else:
        if set_kind != "description":
            raise DslTypeError("theorem 3 verification needs an interval-and-coset set in Q")
        campaign = harness.roundtrip_theorem3(
            group, set_obj, seed=seed, **_given(samples=command.samples)
        )
        count = campaign.counts["samples"]
    report["campaign"] = campaign.to_dict(include_elapsed=timings)
    report["stats"]["count"] = count
    if campaign.passed:
        report["result"] = "pass"
        return EXIT_OK
    report["result"] = "fail"
    return EXIT_COUNTEREXAMPLE


def run(program: Program, *, fmt: str = "text", timings: bool = False) -> tuple[int, str]:
    """Execute a parsed program; returns (exit_code, rendered report)."""
    started = time.perf_counter()
    report = {
        "command": dsl.format_command(program.command).split()[0],
        "group": dsl.format_group(program.group),
        "set": dsl.format_set(program.set_expr),
        "result": "",
        "witness": None,
        "decomposition": None,
        "stats": {"elapsed_ms": 0, "count": 0, "seed": None},
    }
    try:
        kind, group = _bind_group(program.group)
        set_kind, set_obj = _bind_set(kind, group, program.set_expr)
        command = program.command
        if isinstance(command, CheckCmd):
            code = _run_check(group, set_kind, set_obj, report)
        elif isinstance(command, ClosureCmd):
            code = _run_closure(group, set_kind, set_obj, report)
        elif isinstance(command, TraceCmd):
            code = _run_trace(group, set_kind, set_obj, command, report)
        elif isinstance(command, DecomposeCmd):
            code = _run_decompose(group, set_kind, set_obj, command, report)
        elif isinstance(command, VerifyCmd):
            code = _run_verify(group, set_kind, set_obj, command, report, timings)
        else:
            raise DslTypeError(f"unsupported command {command!r}")
    except (DslSyntaxError, DslTypeError, ValueError) as exc:
        report["result"] = f"error: {exc}"
        code = EXIT_USAGE
    except CapExceeded as exc:
        report["result"] = f"resource: {exc}"
        code = EXIT_RESOURCE
    if timings:
        report["stats"]["elapsed_ms"] = int((time.perf_counter() - started) * 1000)
    return code, _render(report, fmt)


def _usage_error(exc: Exception, fmt: str) -> int:
    """Report an input that could not be read or parsed, in the chosen format; exit 2."""
    print(json.dumps({"error": str(exc)}, indent=2) if fmt == "json" else f"error: {exc}")
    return EXIT_USAGE


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="midconvex",
        description="Decide midconvexity, compute closures and decompositions, "
        "and run verification campaigns over Abelian groups.",
    )
    parser.add_argument(
        "input",
        nargs="?",
        default="-",
        help="input file with 'group; set; command' (default: standard input)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--timings",
        action="store_true",
        help="report real elapsed times instead of the deterministic 0",
    )
    args = parser.parse_args(argv)
    try:
        text = sys.stdin.read() if args.input == "-" else Path(args.input).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return _usage_error(exc, args.format)
    try:
        program = dsl.parse(text)
    except DslSyntaxError as exc:
        return _usage_error(exc, args.format)
    code, output = run(program, fmt=args.format, timings=args.timings)
    sys.stdout.write(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
