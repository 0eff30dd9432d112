"""Midconvex sets in Abelian groups: predicates, closures, decompositions.

A set X in an Abelian group is midconvex when for all members x, y every
solution z of 2z = x + y is again a member. This package decides the
predicate exactly in finite Abelian groups, on windowed sets of integers and
in subgroups of the rationals; computes midconvex closures; constructs the
interval-and-subgroup decompositions that characterize midconvex sets; and
ships a brute-force differential harness plus a small command line language.
"""

from .engine import (
    MidconvexWitness,
    PeriodicDecomposition,
    RationalDecomposition,
    decompose_periodic,
    decompose_rational,
    decompose_rational_set,
    doubling_claim_check,
    is_midconvex,
    midconvex_closure,
    midconvex_witness,
    trace_in_group,
    verify_theorem1,
    verify_theorem3_if,
)
from .errors import (
    CapExceeded,
    MidconvexError,
    NotMidconvex,
    NotMidconvexTrace,
    WindowTooSmall,
)
from .groups import (
    FiniteAbelianGroup,
    GroupElement,
    GroupSubset,
    halving_set,
    index_is_odd,
    is_subgroup,
    make_group,
    subgroup_generated,
)
from .harness import (
    VerificationReport,
    bounded_closure_oracle,
    conjecture_hull_check,
    enumerate_abelian_groups,
    exhaustive_lemma1,
    exhaustive_theorem1,
    exhaustive_theorem2,
    roundtrip_theorem3,
    sample_two_purity,
)
from .intsets import (
    IntIntervalSpec,
    IntWindowSet,
    TraceDecomposition,
    ZSubgroupSpec,
    decompose_trace,
    decompose_z,
    is_midconvex_z,
    is_order_convex,
    lemma1_check,
    midconvex_z_witness,
    trace_z,
)
from .rationals import (
    QIntervalSpec,
    RationalGroupDescriptor,
    RationalMidconvexDescription,
    cyclic_chain,
    is_subgroup_of,
    is_two_pure,
    two_pure_closure,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "FiniteAbelianGroup",
    "GroupElement",
    "GroupSubset",
    "IntIntervalSpec",
    "IntWindowSet",
    "MidconvexError",
    "MidconvexWitness",
    "NotMidconvex",
    "NotMidconvexTrace",
    "PeriodicDecomposition",
    "QIntervalSpec",
    "RationalDecomposition",
    "RationalGroupDescriptor",
    "RationalMidconvexDescription",
    "TraceDecomposition",
    "VerificationReport",
    "WindowTooSmall",
    "ZSubgroupSpec",
    "bounded_closure_oracle",
    "conjecture_hull_check",
    "cyclic_chain",
    "decompose_periodic",
    "decompose_rational",
    "decompose_rational_set",
    "decompose_trace",
    "decompose_z",
    "doubling_claim_check",
    "enumerate_abelian_groups",
    "exhaustive_lemma1",
    "exhaustive_theorem1",
    "exhaustive_theorem2",
    "halving_set",
    "index_is_odd",
    "is_midconvex",
    "is_midconvex_z",
    "is_order_convex",
    "is_subgroup",
    "is_subgroup_of",
    "is_two_pure",
    "lemma1_check",
    "make_group",
    "midconvex_closure",
    "midconvex_witness",
    "midconvex_z_witness",
    "roundtrip_theorem3",
    "sample_two_purity",
    "subgroup_generated",
    "trace_in_group",
    "trace_z",
    "two_pure_closure",
    "verify_theorem1",
    "verify_theorem3_if",
]
