"""Finite Abelian group arithmetic, subsets, subgroup and index queries."""

import ast
import pathlib
import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from midconvex import groups
from midconvex.errors import CapExceeded
from midconvex.groups import (
    GroupSubset,
    index_is_odd,
    is_subgroup,
    make_group,
    set_bits,
    subgroup_generated,
)
from midconvex.harness import enumerate_abelian_groups

small_orders = st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3)


def naive_element_order(a):
    """Oracle: iterate multiples until zero comes back."""
    zero = a.group.element_at(0)
    point = a
    n = 1
    while point != zero:
        point = point + a
        n += 1
    return n


def naive_halving(group, s):
    """Oracle: enumerate the whole group and filter on the defining equation; indices ascending."""
    return tuple(z.index for z in group if z + z == s)


def test_make_group_examples():
    assert make_group([]).order == 1
    assert make_group([12]).order == 12
    assert make_group([2, 3]).order == 6


def test_make_group_rejects_bad_orders():
    with pytest.raises(ValueError):
        make_group([0])
    with pytest.raises(ValueError):
        make_group([3, -1])


def test_make_group_order_cap():
    assert make_group([2] * 20).order == groups.ORDER_CAP == 1 << 20
    with pytest.raises(CapExceeded):
        make_group([2] * 21)


def test_product_2_3_is_cyclic_of_order_6():
    # oracle: exhaust element orders; a cyclic group of order 6 shows up as
    # an element of order 6 and the full order multiset {1,2,3,3,6,6}
    group = make_group([2, 3])
    orders = sorted(naive_element_order(a) for a in group)
    assert orders == [1, 2, 3, 3, 6, 6]
    cyclic6 = sorted(naive_element_order(a) for a in make_group([6]))
    assert orders == cyclic6


def test_add_neg_examples():
    g12 = make_group([12])
    assert (g12.element([7]) + g12.element([8])).residues == (3,)
    g23 = make_group([2, 3])
    assert (g23.element([1, 2]) + g23.element([1, 2])).residues == (0, 1)
    assert -g23.element_at(0) == g23.element_at(0)


def test_add_rejects_mismatched_groups():
    with pytest.raises(ValueError):
        make_group([4]).element([1]) + make_group([5]).element([1])


def test_enumeration_is_mixed_radix_last_component_fastest():
    group = make_group([2, 3])
    assert [e.residues for e in group] == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
    ]
    assert [group.element_at(i).residues for i in range(6)] == [e.residues for e in group]
    assert all(group.index_of(group.element_at(i)) == i for i in range(6))


def test_element_order_examples():
    g12 = make_group([12])
    assert g12.element([4]).order() == 3
    assert g12.element_at(0).order() == 1
    assert make_group([2, 3]).element([1, 1]).order() == 6


@given(small_orders, st.data())
def test_element_order_matches_iteration_and_divides_group_order(orders, data):
    group = make_group(orders)
    index = data.draw(st.integers(min_value=0, max_value=group.order - 1))
    a = group.element_at(index)
    n = a.order()
    assert n == naive_element_order(a)
    assert group.order % n == 0


def test_halving_set_examples():
    # in a cyclic group an element's index is its residue
    assert make_group([12]).halving_indices(6) == (3, 9)
    assert make_group([5]).halving_indices(1) == (3,)
    assert make_group([2]).halving_indices(1) == ()


@given(small_orders, st.data())
def test_halving_set_matches_enumeration(orders, data):
    group = make_group(orders)
    index = data.draw(st.integers(min_value=0, max_value=group.order - 1))
    s = group.element_at(index)
    assert group.halving_indices(s.index) == naive_halving(group, s)


@given(small_orders, st.data())
def test_halving_set_size_is_zero_or_two_torsion_count(orders, data):
    group = make_group(orders)
    torsion = len(group.halving_indices(0))
    index = data.draw(st.integers(min_value=0, max_value=group.order - 1))
    count = len(group.halving_indices(index))
    assert count in (0, torsion)


def test_is_subgroup_examples():
    g15 = make_group([15])
    assert is_subgroup(GroupSubset.from_elements(g15, [0, 3, 6, 9, 12]))
    g4 = make_group([4])
    assert not is_subgroup(GroupSubset.from_elements(g4, [0, 1]))


def test_subgroup_generated_examples():
    g4 = make_group([4])
    assert subgroup_generated(GroupSubset.from_elements(g4, [0, 1])).size == 4
    assert subgroup_generated(GroupSubset(g4, 0)).members() == [g4.element_at(0)]


def test_subgroup_generated_output_is_a_subgroup():
    g12 = make_group([12])
    for seed in ([8], [9], [4, 6], [5]):
        generated = subgroup_generated(GroupSubset.from_elements(g12, seed))
        assert is_subgroup(generated)
        for e in seed:
            assert g12.element([e]) in generated


def naive_is_subgroup(group, mask):
    """Oracle: zero is a member and every sum of two members is a member."""
    idxs = [i for i in range(group.order) if mask >> i & 1]
    return bool(mask & 1) and all(mask >> group.add_index(a, b) & 1 for a in idxs for b in idxs)


def naive_subgroup_generated(group, mask):
    """Oracle: add every sum of two members until nothing new appears."""
    mask |= 1
    while True:
        idxs = [i for i in range(group.order) if mask >> i & 1]
        grown = mask
        for a in idxs:
            for b in idxs:
                grown |= 1 << group.add_index(a, b)
        if grown == mask:
            return mask
        mask = grown


def test_subgroup_queries_match_the_quadratic_reference():
    for group in enumerate_abelian_groups(10):
        for mask in range(1 << group.order):
            subset = GroupSubset(group, mask)
            assert is_subgroup(subset) == naive_is_subgroup(group, mask), (group, mask)
            generated = subgroup_generated(subset).mask
            assert generated == naive_subgroup_generated(group, mask), (group, mask)


def test_is_subgroup_is_linear_in_the_subgroup_size():
    group = make_group([15625])
    subgroup = GroupSubset.from_indices(group, range(0, 15625, 25))
    started = time.perf_counter()
    assert is_subgroup(subgroup)
    assert time.perf_counter() - started < 0.5


def test_index_is_odd_examples():
    g15 = make_group([15])
    sub = GroupSubset.from_elements(g15, [0, 3, 6, 9, 12])
    assert index_is_odd(sub)
    assert index_is_odd(GroupSubset(g15, (1 << 15) - 1))
    g4 = make_group([4])
    assert not index_is_odd(GroupSubset.from_elements(g4, [0, 2]))


def test_index_is_odd_rejects_non_subgroups():
    g4 = make_group([4])
    with pytest.raises(ValueError):
        index_is_odd(GroupSubset.from_elements(g4, [0, 1]))


def quotient_has_even_order_element(subset):
    """Oracle: order of g modulo the subgroup is the least n with n*g inside."""
    group = subset.group
    for g in group:
        point = g
        n = 1
        while point not in subset:
            point = point + g
            n += 1
        if n % 2 == 0:
            return True
    return False


def test_odd_index_iff_quotient_has_no_even_order_element():
    for orders in ([4], [6], [8], [12], [2, 2], [2, 3], [3, 3], [2, 2, 2]):
        group = make_group(orders)
        for mask in range(1 << group.order):
            subset = GroupSubset(group, mask)
            if not is_subgroup(subset):
                continue
            assert index_is_odd(subset) == (not quotient_has_even_order_element(subset))


def test_group_subset_membership_table_round_trip():
    group = make_group([2, 3])
    subset = GroupSubset.from_elements(group, [(0, 0), (1, 2)])
    assert subset.mask == 0b100001
    assert subset.size == 2
    assert group.element([1, 2]) in subset
    assert group.element([1, 1]) not in subset


def test_from_elements_reads_residues_only():
    group = make_group([2, 3])
    for elements in ([group.element([1, 2])], [[1, 2]], [(1, 2), 5], [(1,)]):
        with pytest.raises(ValueError, match="residue tuples"):
            GroupSubset.from_elements(group, elements)
    with pytest.raises(ValueError, match="residue tuples"):
        GroupSubset.from_elements(make_group([6]), [make_group([6]).element([1])])


def test_from_elements_reduces_residues_out_of_range():
    # residues below 0 or at least their factor's order name the reduced element
    group = make_group([3, 4])
    elements = [(-1, 7), (3, -4), (5, 2), (0, 0), (-3, 11)]
    reduced = [r % 3 * 4 + s % 4 for r, s in elements]
    assert reduced == [11, 0, 10, 0, 3]
    assert GroupSubset.from_elements(group, elements) == GroupSubset.from_indices(group, reduced)


def test_group_subset_translate():
    group = make_group([15])
    subgroup = GroupSubset.from_elements(group, [0, 3, 6, 9, 12])
    coset = GroupSubset(group, group.translate_mask(subgroup.mask, 1))
    assert sorted(e.residues[0] for e in coset.members()) == [1, 4, 7, 10, 13]


def test_mask_codec_round_trips():
    rng = random.Random(8)
    for order in (1, 7, 8, 9, 63, 64, 65, 1000):
        group = make_group([order])
        for mask in (0, 1, (1 << order) - 1, 1 << order - 1, rng.getrandbits(order)):
            subset = GroupSubset(group, mask)
            indices = [i for i in range(order) if mask >> i & 1]
            assert list(set_bits(mask)) == indices
            assert GroupSubset.from_indices(group, indices) == subset
            assert list(map(groups.bit_reader(mask, order), range(order))) == [mask >> i & 1 for i in range(order)]
    with pytest.raises(ValueError, match="element index 7 out of range"):
        GroupSubset.from_indices(make_group([7]), [0, 7])
    with pytest.raises(ValueError, match="element index -1 out of range"):
        GroupSubset.from_indices(make_group([7]), [-1])


def stepped_translate(group, mask, d):
    """Reference: each member moved by one add_index call."""
    return groups.mask_of(group.order, (group.add_index(i, d) for i in set_bits(mask)))


def stepped_walk(group, i, g):
    """Reference: i, i + g, i + 2g, ... stepped one add_index call at a time until i comes back."""
    walk, j = [i], group.add_index(i, g)
    while j != i:
        walk.append(j)
        j = group.add_index(j, g)
    return walk


def test_whole_mask_translate_and_closed_form_walk_match_the_stepped_references():
    # every mask up to order 10 and seeded masks above, by every element, on
    # every group up to order 16; every walk from every element along every element
    rng = random.Random(16)
    for group in enumerate_abelian_groups(16):
        n = group.order
        masks = range(1 << n) if n <= 10 else [rng.getrandbits(n) for _ in range(40)]
        for d in range(n):
            for mask in masks:
                assert group.translate_mask(mask, d) == stepped_translate(group, mask, d), (group, mask, d)
        for i in range(n):
            for g in range(n):
                walk = list(group.walk(i, g))
                assert walk == stepped_walk(group, i, g), (group, i, g)
                assert len(walk) == group.index_order(g)


def count_add_index(monkeypatch):
    calls = []
    add_index = groups.FiniteAbelianGroup.add_index
    monkeypatch.setattr(
        groups.FiniteAbelianGroup, "add_index", lambda self, i, j: calls.append(i) or add_index(self, i, j)
    )
    return calls


def test_translate_mask_makes_no_add_index_call(monkeypatch):
    calls = count_add_index(monkeypatch)
    rng = random.Random(3)
    for group in [make_group([12]), make_group([4, 6]), make_group([2, 3, 5]), make_group([1024, 1024])]:
        for _ in range(8):
            group.translate_mask(rng.getrandbits(group.order), rng.randrange(group.order))
    assert calls == []


def test_subgroup_generation_doubles_whole_masks(monkeypatch):
    # generating by cosets one element at a time made about 2**20 add_index
    # calls here; doubling makes at most one per step, (log2 |G|)**2 in all
    group = make_group([1 << 20])
    calls = count_add_index(monkeypatch)
    full = GroupSubset(group, (1 << group.order) - 1)
    assert subgroup_generated(full) == full
    assert len(calls) <= 400


def test_mask_codec_is_linear_on_the_full_mask_of_a_large_group():
    # peeling or setting one bit at a time copies the |G|-bit mask per member
    group = make_group([1 << 18])
    full = GroupSubset(group, (1 << group.order) - 1)
    for name, call in [
        ("set_bits", lambda: sum(1 for _ in set_bits(full.mask))),
        ("translate_mask", lambda: group.translate_mask(full.mask, 5)),
        ("from_indices", lambda: GroupSubset.from_indices(group, range(group.order))),
        ("subgroup_generated", lambda: subgroup_generated(full)),
    ]:
        started = time.perf_counter()
        call()
        assert time.perf_counter() - started < 1, name


def sets_one_bit(node):
    """True for `mask |= 1 << i`."""
    return (
        isinstance(node, ast.AugAssign)
        and isinstance(node.op, ast.BitOr)
        and isinstance(node.value, ast.BinOp)
        and isinstance(node.value.op, ast.LShift)
        and isinstance(node.value.left, ast.Constant)
        and node.value.left.value == 1
    )


def test_masks_are_built_bit_by_bit_only_in_the_builder():
    # mask |= 1 << i copies the whole |G|-bit mask per bit; groups.mask_of sets
    # one flag byte per index instead
    for path in sorted(pathlib.Path(groups.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        builder = set()
        if path.name == "groups.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name == "mask_of":
                    builder.update(ast.walk(node))
        for node in ast.walk(tree):
            assert not (sets_one_bit(node) and node not in builder), f"{path.name}:{node.lineno}"


def test_trivial_group():
    trivial = make_group([])
    assert trivial.order == 1
    zero = trivial.element_at(0)
    assert zero + zero == zero
    assert trivial.halving_indices(0) == (0,)
    assert is_subgroup(GroupSubset(trivial, 1))
    assert str(zero) == trivial.format_index(0) == "()"


@pytest.mark.parametrize(
    "group",
    enumerate_abelian_groups(12)
    + [make_group([9, 27]), make_group([2, 2, 45]), make_group([512]), make_group([4, 3, 45])],
    ids=str,
)
def test_index_tables_match_element_arithmetic(group):
    # the index arithmetic's addition table, row by row, against GroupElements
    # added, negated and doubled; every row up to order 512, every 7th above
    elements = list(group)
    halves = [[] for _ in elements]
    for z in elements:
        halves[(z + z).index].append(z.index)
    for i in range(0, group.order, 1 if group.order <= 512 else 7):
        a = elements[i]
        assert [group.add_index(i, j) for j in range(group.order)] == [(a + b).index for b in elements]
        assert group.neg_index(i) == (-a).index
        assert group.halving_indices(i) == tuple(halves[i])
        residues = [str(r) for r in a.residues]
        assert group.format_index(i) == (residues[0] if len(residues) == 1 else "(%s)" % ",".join(residues))
