"""Spans and counters recorded from outside the program.

The tracer wraps public functions of the `midconvex` modules. A wrapper is
installed on every module attribute that is bound to the wrapped function,
because `from .groups import is_subgroup` copies the name into the importing
module at import time: `engine.is_subgroup` and `harness.is_subgroup` need
their own wrappers. Calls inside a module go through its global names, so
they are traced too.

Each call to a wrapped function records a span (name, start, end, parent
span, item id) in compact in-memory columns. Hot leaf methods (GroupElement
construction and the two `contains` methods) only count calls. Self time is
a span's duration minus the part of it covered by its child spans.
"""

from __future__ import annotations

import json
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (module, function) pairs that get spans.
SPANNED = [
    ("groups", "is_subgroup"),
    ("groups", "index_is_odd"),
    ("engine", "midconvex_witness"),
    ("engine", "midconvex_closure"),
    ("engine", "trace_in_group"),
    ("engine", "verify_theorem1"),
    ("engine", "lemma1_holds_in_group"),
    ("engine", "decompose_rational"),
    ("engine", "theorem3_if_violation"),
    ("engine", "draw_lattice_points"),
    ("engine", "decompose_periodic"),
    ("engine", "described_midconvex_witness"),
    ("engine", "is_midconvex_q_finite"),
    ("intsets", "decompose_trace"),
    ("intsets", "decompose_z"),
    ("intsets", "midconvex_z_witness"),
    ("rationals", "cyclic_chain"),
    ("rationals", "is_two_pure"),
    ("harness", "exhaustive_theorem2"),
    ("harness", "exhaustive_theorem1"),
    ("harness", "exhaustive_lemma1"),
    ("harness", "enumerate_abelian_groups"),
    ("harness", "bounded_closure_oracle"),
    ("harness", "sample_two_purity"),
    ("harness", "conjecture_hull_check"),
    ("dsl", "parse"),
    ("cli", "run"),
]

# (module, class, method, counter): methods that only count calls.
COUNTED = [
    ("groups", "GroupElement", "__post_init__", "groups.GroupElement.constructed"),
    ("rationals", "RationalGroupDescriptor", "contains", "rationals.RationalGroupDescriptor.contains.calls"),
    ("rationals", "RationalMidconvexDescription", "contains", "rationals.RationalMidconvexDescription.contains.calls"),
]

# Outcomes counted at a span boundary: an exception from `midconvex.errors`
# leaving the function, or a return code of cli.run.
RAISES = {
    "intsets.decompose_trace": ("NotMidconvexTrace", "intsets.decompose_trace.rejected"),
    "engine.decompose_rational": ("CapExceeded", "engine.decompose_rational.cap_exceeded"),
}
EXIT_COUNTED = {"cli.run": (3, "cli.run.exit_3")}


class Tracer:
    """Spans and counters of wrapped `midconvex` calls, kept in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.item = array("q")
        self.counters: dict[str, int] = defaultdict(int)
        self.current_item = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _span_wrapper(self, qualname: str, fn, errors):
        nid = self._name_id(qualname)
        stack = self._stack
        counters = self.counters
        cols = (self.name, self.start, self.end, self.parent, self.item)
        error, counter = RAISES.get(qualname, (None, None))
        catch = getattr(errors, error) if error else ()
        exit_code, exit_counter = EXIT_COUNTED.get(qualname, (None, None))

        def wrapper(*args, **kwargs):
            names, starts, ends, parents, items = cols
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            items.append(self.current_item)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except catch:
                counters[counter] += 1
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if exit_counter is not None and result[0] == exit_code:
                counters[exit_counter] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @staticmethod
    def _count_wrapper(counters, counter: str, fn):
        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, modules: dict) -> None:
        """Wrap the functions and methods above in the given `midconvex` modules.

        `modules` maps short names ('engine', ...) to module objects; every
        module in it is searched for aliases of each wrapped function.
        """
        for mod_name, fn_name in SPANNED:
            original = getattr(modules[mod_name], fn_name)
            wrapper = self._span_wrapper(f"{mod_name}.{fn_name}", original, modules["errors"])
            for module in modules.values():
                if getattr(module, fn_name, None) is original:
                    self._patch(module, fn_name, wrapper)
        for mod_name, cls_name, method, counter in COUNTED:
            cls = getattr(modules[mod_name], cls_name)
            self._patch(cls, method, self._count_wrapper(self.counters, counter, getattr(cls, method)))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls and total self time in seconds."""
        calls: dict[str, int] = defaultdict(int)
        for n in self.name:
            calls[self.names[n]] += 1
        selfs = self_times(self.name, self.start, self.end, self.parent)
        return {
            self.names[n]: {"calls": calls[self.names[n]], "self_s": s} for n, s in selfs.items()
        }

    def write(self, path: Path) -> None:
        """Write all spans: one JSON header line, then the raw columns.

        The header lists the span names, the span count and the column
        order and types; each column follows as native-endian array bytes.
        """
        header = {
            "names": self.names,
            "count": len(self.start),
            "columns": [["name", "i"], ["start", "d"], ["end", "d"], ["parent", "q"], ["item", "q"]],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for col in (self.name, self.start, self.end, self.parent, self.item):
                col.tofile(handle)


def self_times(name, start, end, parent) -> dict:
    """Total self time per span name, from span columns.

    Span i runs from start[i] to end[i] under span parent[i] (-1 for a
    root). Its self time is its duration minus the length of the union of
    its children's intervals, each clipped to its own interval.
    """
    n = len(start)
    covered = [0.0] * n
    cursor = list(start)
    for i in sorted(range(n), key=start.__getitem__):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], cursor[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            cursor[p] = hi
    totals: dict = defaultdict(float)
    for i in range(n):
        totals[name[i]] += (end[i] - start[i]) - covered[i]
    return dict(totals)
