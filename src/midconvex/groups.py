"""Exact arithmetic and structure queries for finite Abelian groups.

A group is presented as a direct sum of cyclic groups Z_{n_1} x ... x Z_{n_k}
and elements are residue vectors. Enumeration is mixed-radix with the *last*
component varying fastest; the order is fixed so that membership tables,
witnesses and reports are reproducible byte for byte. Factor lists are taken
as given and never normalized (normalizing would change enumeration order).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import gcd, lcm, prod
from operator import add, floordiv, mod, mul
from typing import Callable, Iterable, Iterator, Sequence

from .errors import CapExceeded

ORDER_CAP = 1 << 20


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Direct sum of cyclic groups, given by the tuple of factor orders."""

    orders: tuple[int, ...]
    # (stride, n) of each factor, slowest first: residue k of index i is i // stride % n
    _radix: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)
    order: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        orders = tuple(int(n) for n in self.orders)
        if any(n < 1 for n in orders):
            raise ValueError(f"cyclic factor orders must be >= 1, got {orders!r}")
        strides = [prod(orders[k + 1 :]) for k in range(len(orders))]
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "_radix", tuple(zip(strides, orders)))
        object.__setattr__(self, "order", prod(orders))

    def __str__(self) -> str:
        return "Z(%s)" % "x".join(str(n) for n in self.orders)

    # -- enumeration ----------------------------------------------------

    def _encode(self, residues: Sequence[int]) -> int:
        return sum(r * stride for r, (stride, _) in zip(residues, self._radix))

    def _decode(self, index: int) -> tuple[int, ...]:
        return tuple(index // stride % n for stride, n in self._radix)

    def element(self, residues: Iterable[int]) -> "GroupElement":
        return GroupElement(self, tuple(residues))

    def element_at(self, index: int) -> "GroupElement":
        if not 0 <= index < self.order:
            raise IndexError(f"element index {index} out of range for {self}")
        return GroupElement(self, self._decode(index))

    def index_of(self, element: "GroupElement") -> int:
        if element.group != self:
            raise ValueError("element belongs to a different group")
        return self._encode(element.residues)

    def residue_columns(self, elements: Sequence) -> list | None:
        """The residues of each factor, a column a factor, read in C.

        None unless every element is a residue tuple of the group's arity, or
        an integer when the group is cyclic.
        """
        kinds = set(map(type, elements))
        if kinds <= {int} and len(self.orders) == 1:
            return [elements]
        if kinds <= {tuple} and set(map(len, elements)) <= {len(self.orders)}:
            return list(zip(*elements))
        return None

    def format_indices(self, indices: Iterable[int]) -> list[str]:
        """Each index as text, in order, a cyclic group's residue or else (r1,...,rk): one % format per element."""
        indices = list(indices)
        if len(self._radix) == 1:
            return list(map(str, indices))
        text = "(%s)" % ",".join(["%d"] * len(self._radix))
        repeat = itertools.repeat
        digits = [map(mod, map(floordiv, indices, repeat(stride)), repeat(n)) for stride, n in self._radix]
        return list(map(text.__mod__, zip(*digits) if digits else repeat((), len(indices))))

    def __iter__(self) -> Iterator["GroupElement"]:
        for residues in itertools.product(*(range(n) for n in self.orders)):
            yield GroupElement(self, residues)

    # -- index arithmetic -----------------------------------------------
    #
    # Each residue is read off the index as i // stride % n, so the
    # arithmetic works digit by digit without decoding the whole index.

    def add_index(self, i: int, j: int) -> int:
        idx = 0
        for stride, n in self._radix:
            idx += (i // stride + j // stride) % n * stride
        return idx

    def scale_index(self, i: int, k: int) -> int:
        """Index of k times the element at index i; k = -1 negates."""
        return sum(k * (i // stride) % n * stride for stride, n in self._radix)

    def _translate(self, mask: int, d: int) -> int:
        """Bitmask of the indices i + d for every index i set in the mask.

        With d the index of -x this is the shift X - x. Adding digit c in a
        factor of stride s and order n moves the indices whose digit is below
        n - c up by c*s and the others down by (n - c)*s: two whole-mask
        shifts, the first kind being the first (n - c)*s of every n*s indices.
        """
        for stride, n in self._radix:
            c = d // stride % n
            if c:
                low = mask & periodic_mask((1 << (n - c) * stride) - 1, n * stride, self.order)
                mask = low << c * stride | (mask - low) >> (n - c) * stride
        return mask

    # subgroup generation calls _translate, so this name sees only the translates callers ask for
    translate_mask = _translate

    def index_order(self, g: int) -> int:
        """Least n >= 1 with n times the element at index g equal to zero."""
        return lcm(*(n // gcd(g // stride % n, n) for stride, n in self._radix))

    def walk(self, i: int, g: int) -> Iterator[int]:
        """Indices of i, i + g, i + 2g, ... for one period, index_order(g) steps, streamed.

        Digit k of i + t*g is (i_k + t*g_k) mod n_k, so each factor that g
        moves adds one progression, read modulo n_k*stride_k in index units.
        """
        period = self.index_order(g)
        moved = [(i // s % n * s, g // s % n * s, n * s) for s, n in self._radix if g // s % n]
        walk: Iterator[int] = itertools.repeat(i - sum(a for a, _, _ in moved), period)
        for a, b, m in moved:
            walk = map(add, walk, map(mod, range(a, a + period * b, b), itertools.repeat(m)))
        return walk

    def halving_indices(self, s_index: int) -> tuple[int, ...]:
        """Indices z with 2z the element at s_index, ascending; empty when none solves.

        Factor by factor, 2z = c (mod n) has the one solution c(n + 1)/2 for
        odd n, and for even n none when c is odd, else c/2 and c/2 + n/2.
        """
        halves = [0]
        for stride, n in self._radix:
            c = s_index // stride % n
            if n % 2:
                digits: tuple[int, ...] = (c * (n + 1) // 2 % n,)
            elif c % 2:
                return ()
            else:
                digits = (c // 2, c // 2 + n // 2)
            halves = [h + z * stride for h in halves for z in digits]
        return tuple(halves)


# The mask codec reads and writes a mask through its binary digits, one flag
# byte per index, linear in the group order; peeling or setting one bit at a
# time on the integer would copy the whole |G|-bit mask once per member, so
# set_bits peels only a mask of a few members.
_DIGITS_TO_FLAGS = bytes.maketrans(b"01", b"\x00\x01")
_FLAGS_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _flags(mask: int, width: int = 0) -> bytes:
    """Byte i is bit i of the mask, 0 or 1; at least width bytes."""
    return format(mask, f"0{width}b").encode()[::-1].translate(_DIGITS_TO_FLAGS)


def set_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of a mask, ascending, read in the way its density makes cheapest.

    At most 16 set bits are taken off one at a time, the lowest first, one
    pass over the mask each. Up to one set bit in five, the binary digits,
    lowest first, are split on "1": the runs of zeros below each set bit,
    plus one for each set bit passed, add up to its position. A denser mask
    is read through its flag bytes. On masks of 200 to 2**20 bits the first
    two ways cost alike at about 24 set bits, the last two at one in five.
    """
    ones = mask.bit_count()
    if ones <= 16:
        return _lowest_first(mask)
    if ones * 5 < mask.bit_length():
        gaps = format(mask, "b").split("1")
        gaps.reverse()  # lowest run first; the last is the empty run above the top bit
        gaps.pop()
        return map(add, itertools.accumulate(map(len, gaps)), itertools.count())
    return itertools.compress(itertools.count(), _flags(mask))


def _lowest_first(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def least_index(mask: int) -> int:
    """Position of the lowest set bit of a mask; -1 for the empty mask."""
    return (mask & -mask).bit_length() - 1


def mask_of(order: int, indices: Iterable[int]) -> int:
    """Mask of a set of this many indices, 0 to order - 1, with the given indices set.

    Up to one index in 32 is set as a bit of packed bytes, eight indices a
    byte, read as one little-endian integer. More are set as one flag byte
    each, read as binary digits. On masks of 64 to 2**20 bits the two ways
    cost alike at about one index in 28.
    """
    indices = iter(indices)
    few = order // 32
    head = list(itertools.islice(indices, few + 1))
    if len(head) <= few:
        packed = bytearray(order + 7 >> 3)
        for i in head:
            packed[i >> 3] |= 1 << (i & 7)
        return int.from_bytes(packed, "little")
    flags = bytearray(order)
    for i in itertools.chain(head, indices):
        flags[i] = 1
    return int(flags.translate(_FLAGS_TO_DIGITS)[::-1], 2)


def bit_reader(mask: int, order: int) -> Callable[[int], int]:
    """Bit i of the mask, 1 or 0, for each index i below order, each read in one step."""
    return _flags(mask, order).__getitem__


def periodic_mask(pattern: int, period: int, width: int) -> int:
    """Mask of width bits that repeats the pattern every period bits, built by doubling."""
    while period < width:
        pattern |= pattern << period
        period *= 2
    return pattern & ((1 << width) - 1)


@dataclass(frozen=True)
class GroupElement:
    """Residue vector in a finite Abelian group, reduced componentwise."""

    group: FiniteAbelianGroup
    residues: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.residues) != len(self.group.orders):
            raise ValueError(
                f"expected {len(self.group.orders)} residues, got {len(self.residues)}"
            )
        object.__setattr__(
            self,
            "residues",
            tuple(int(r) % n for r, n in zip(self.residues, self.group.orders)),
        )

    @property
    def index(self) -> int:
        return self.group.index_of(self)

    def __add__(self, other: "GroupElement") -> "GroupElement":
        if self.group != other.group:
            raise ValueError("cannot add elements of different groups")
        return GroupElement(
            self.group,
            tuple(a + b for a, b in zip(self.residues, other.residues)),
        )

    def __neg__(self) -> "GroupElement":
        return GroupElement(self.group, tuple(-a for a in self.residues))

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def __rmul__(self, k: int) -> "GroupElement":
        return GroupElement(self.group, tuple(k * a for a in self.residues))

    def __str__(self) -> str:
        return self.group.format_indices((self.index,))[0]

    def order(self) -> int:
        """Least n >= 1 with n times this element equal to zero."""
        return self.group.index_order(self.index)


def make_group(orders: Iterable[int]) -> FiniteAbelianGroup:
    """Build a direct sum of cyclic groups with the given factor orders, of order at most ORDER_CAP."""
    group = FiniteAbelianGroup(tuple(orders))
    if group.order > ORDER_CAP:
        raise CapExceeded(f"group order {group.order} exceeds cap {ORDER_CAP}")
    return group


@dataclass(frozen=True)
class GroupSubset:
    """Subset of a finite Abelian group as a dense membership table.

    The table is stored as an integer bitmask over element indices; bit i is
    the membership flag of the element enumerated at index i.
    """

    group: FiniteAbelianGroup
    mask: int

    def __post_init__(self) -> None:
        if not 0 <= self.mask < (1 << self.group.order):
            raise ValueError("membership table length does not match group order")

    @classmethod
    def from_indices(cls, group: FiniteAbelianGroup, indices: Iterable[int]) -> "GroupSubset":
        indices = list(indices)
        for i in indices:
            if not 0 <= i < group.order:
                raise ValueError(f"element index {i} out of range")
        return cls(group, mask_of(group.order, indices))

    @classmethod
    def from_elements(cls, group: FiniteAbelianGroup, elements: Iterable) -> "GroupSubset":
        """The subset of these elements: residue tuples of the group's arity, or a cyclic group's residues.

        Residues are reduced modulo their factor's order, so every index is
        in range, and encoded one factor's column at a time, boxing no element.
        """
        elements = list(elements)
        columns = group.residue_columns(elements)
        if columns is None:
            raise ValueError(f"elements of {group} must be residue tuples of its arity, or residues of a cyclic group")
        indices = itertools.repeat(0, len(elements))
        for column, (stride, n) in zip(columns, group._radix):
            indices = map(add, indices, map(mul, map(mod, column, itertools.repeat(n)), itertools.repeat(stride)))
        return cls(group, mask_of(group.order, indices))

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, element: GroupElement) -> bool:
        return bool(self.mask >> self.group.index_of(element) & 1)

    @property
    def index(self) -> int:
        """Group order over subset size: the index when the subset is a subgroup."""
        return self.group.order // self.size

    def indices(self) -> Iterator[int]:
        return set_bits(self.mask)

    def members(self) -> list[GroupElement]:
        return [self.group.element_at(i) for i in self.indices()]


def cosets(group: FiniteAbelianGroup, h: int) -> Iterator[tuple[int, int]]:
    """(s, mask) of each coset s + H of the subgroup with mask h, in ascending s, s the coset's least index."""
    uncovered = (1 << group.order) - 1
    while uncovered:
        s = least_index(uncovered)
        coset = group.translate_mask(h, s)
        uncovered &= ~coset
        yield s, coset


def _extend_by_cosets(group: FiniteAbelianGroup, gens: int, bound: int) -> int:
    """Mask of the subgroup generated by the indices set in gens, or the first mask that leaves bound.

    Starting from H = {0}, each generator g not yet in H joins by doubling,
    H <- H | (H + 2^j*g) for j = 0, 1, ... With q the order of g modulo H,
    H is the cosets H + t*g, t < min(2^j, q), so a step adds nothing exactly
    when 2^j >= q and H is H + <g>. H at least doubles per generator: at most
    log2|G| generators of as many steps, each one translate of the whole mask.
    """
    h = 1
    while rest := gens & ~h:
        step = least_index(rest)
        while (grown := h | group._translate(h, step)) != h:
            if grown & ~bound:
                return grown
            h, step = grown, group.add_index(step, step)
    return h


def is_subgroup(subset: GroupSubset) -> bool:
    """True iff the subset is the subgroup its members generate, which holds zero, index 0."""
    return _extend_by_cosets(subset.group, subset.mask, subset.mask) == subset.mask


def subgroup_generated(subset: GroupSubset) -> GroupSubset:
    """Smallest subgroup containing the subset (the empty set generates {0})."""
    return GroupSubset(subset.group, _extend_by_cosets(subset.group, subset.mask, -1))


def sylow2_subgroup(group: FiniteAbelianGroup) -> GroupSubset:
    """G_2, the elements of 2-power order: in a factor of order 2^a * m, m odd,
    m times the unit generates the 2-part (0 when a = 0)."""
    two_parts = [n // (n & -n) % n * stride for stride, n in group._radix]
    return subgroup_generated(GroupSubset.from_indices(group, two_parts))


def index_is_odd(subset: GroupSubset) -> bool:
    """True iff the subset is a subgroup of odd index."""
    if not is_subgroup(subset):
        raise ValueError("index_is_odd requires a subgroup")
    return subset.index % 2 == 1
