"""Midconvex sets in Abelian groups: predicates, closures, decompositions.

A set X in an Abelian group is midconvex when for all members x, y every
solution z of 2z = x + y is again a member. This package decides the
predicate exactly in finite Abelian groups, on windowed sets of integers and
in subgroups of the rationals; computes midconvex closures; constructs the
interval-and-subgroup decompositions that characterize midconvex sets; and
ships a brute-force differential harness plus a small command line language.
"""
