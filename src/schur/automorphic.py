"""The unit group (Z/nZ)^x, its subgroup lattice, and automorphic Schur rings.

Multiplication by a unit is an automorphism of Z_n, and every automorphism
arises this way, so subgroups of the unit group index the automorphic Schur
rings: each subgroup acts on Z_n and its orbits form the partition.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import groupby
from math import gcd, prod

from schur.core import SchurPartition, _modulus, _Record, _residue_count
from schur.formulas import _integer, _unit_axes, factorize, subgroup_lattice_size

__all__ = [
    "UnitGroup",
    "UnitSubgroup",
    "unit_group",
    "all_subgroups",
    "orbit_partition",
    "automorphic_rings",
    "aut_subgroup_count",
]


class UnitGroup(_Record):
    """All residues coprime to n, under multiplication mod n."""

    __slots__ = ("n", "units")


class UnitSubgroup(_Record):
    """A multiplicatively closed set of units containing the identity."""

    __slots__ = ("n", "elements")

    def __init__(self, n: int, elements: Iterable[int]) -> None:
        n = _modulus(n)
        elements = tuple(sorted(set(map(_integer, elements))))
        super().__init__(n, elements)
        if 1 % n not in elements:
            raise ValueError("subgroup must contain the identity")
        members = set(elements)
        for a in elements:
            if gcd(a, n) != 1:
                raise ValueError(f"{a} is not a unit mod {n}")
            for b in elements:
                if (a * b) % n not in members:
                    raise ValueError(f"not closed: {a}*{b} mod {n} missing")


def unit_group(n: int) -> UnitGroup:
    if (n := _modulus(n)) == 1:
        return UnitGroup(1, (0,))
    return UnitGroup(n, tuple(x for x in range(1, n) if gcd(x, n) == 1))


def _subgroup_lattice(orders: Sequence[int]) -> list[int]:
    """Every subgroup of Z_{m1} x ... x Z_{mt}, each exactly once, as a bitmask.

    Bit i is the element with mixed-radix index i, the last axis fastest.
    Walks a growing list from {0}, joining a subgroup A with a cyclic <g> only
    along a prime-index step: g is not in A but q*g is, for a prime q | ord(g).
    That reaches every subgroup, whatever the rank: for B > A, B/A has an
    element of prime order q (Cauchy), and A v <g> for any lift g has index q
    in it and lies in B, so induction from {0} climbs to B. Each cyclic keeps
    the mask below of its q*g over every such q; a lift of prime-power order
    always exists (the q'-part of a lift lies in A), so the least q alone
    would do. A v <g> is the union of the q cosets j*g + A; translating a
    mask by g takes two masked shifts per axis g moves (the coordinates that
    wrap go down), so a join makes no per-element calls.
    """
    size = prod(orders)
    full = (1 << size) - 1
    strides = [prod(orders[j + 1 :]) for j in range(len(orders))]

    def translate(t: int, moves: list[tuple[int, int, int, int]]) -> int:
        for lo, up, hi, down in moves:
            t = ((t & lo) << up) | ((t & hi) >> down)
        return t

    cyclics: list[tuple[int, int, list[tuple[int, int, int, int]]]] = []
    done: set[int] = set()
    for g in range(1, size):
        if g in done:
            continue
        moves = []
        for m, s in zip(orders, strides):
            if a := g // s % m:
                # coordinates below m - a on this axis, in every block of m*s bits
                lo = ((1 << (m - a) * s) - 1) * (full // ((1 << m * s) - 1))
                moves.append((lo, a * s, full ^ lo, (m - a) * s))
        powers, t = [0], 1
        while (t := translate(t, moves)) != 1:
            powers.append(t.bit_length() - 1)
        m = len(powers)
        # g^j generates <g> exactly when gcd(j, m) = 1
        done.update(powers[j] for j in range(1, m) if gcd(j, m) == 1)
        below = sum(1 << powers[q % m] for q, _ in factorize(m))
        cyclics.append((1 << g, below, moves))
    walk, found = [1], {1}
    for a in walk:
        for g, below, moves in cyclics:
            if a & g or not a & below:
                continue
            joined = t = a
            while (t := translate(t, moves)) != a:
                joined |= t
            if joined not in found:
                found.add(joined)
                walk.append(joined)
    return walk


def _lattice_subgroup(n: int, elements: tuple[int, ...]) -> UnitSubgroup:
    """UnitSubgroup(n, elements) minus its checks, which all_subgroups meets by construction."""
    h = object.__new__(UnitSubgroup)
    object.__setattr__(h, "n", n)
    object.__setattr__(h, "elements", elements)
    return h


def all_subgroups(u: UnitGroup) -> tuple[UnitSubgroup, ...]:
    """Every subgroup of the unit group, each once, ordered by size, then by elements.

    U is the direct sum of its Sylow subgroups U_r, and a subgroup H is that of the H & U_r
    (the r-part of h in H is a power of h), so each H is the product set of one subgroup per
    U_r, in exactly one way. The lattice routine runs on each U_r's axes, its masks read
    through U_r's units by mixed-radix index. u must equal unit_group(u.n).
    """
    n = u.n
    if u != unit_group(n):
        raise ValueError(f"not the unit group mod {n}")
    subs = [[1 % n]]
    for _, axes in groupby(_unit_axes(n), key=lambda axis: factorize(axis[0])[0][0]):
        units, orders = [1], []
        for m, g in axes:
            units = [x * pow(g, c, n) % n for x in units for c in range(m)]
            orders.append(m)
        local = [[x for x, b in zip(units, bin(mask)[:1:-1]) if b == "1"]
                 for mask in _subgroup_lattice(orders)]
        subs = [[x * y % n for x in a for y in b] for a in subs for b in local]
    subgroups = sorted((tuple(sorted(h)) for h in subs), key=lambda h: (len(h), h))
    return tuple(_lattice_subgroup(n, h) for h in subgroups)


def orbit_partition(h: UnitSubgroup) -> SchurPartition:
    """Orbits of x -> u*x (u in h) on Z_n, each labelled by its least member."""
    n = h.n
    labels = [-1] * _residue_count(n)
    for x in range(n):
        if labels[x] < 0:
            for u in h.elements:
                labels[x * u % n] = x
    return SchurPartition(labels)


def automorphic_rings(n: int) -> tuple[SchurPartition, ...]:
    """All automorphic Schur rings over Z_n, one per subgroup of the units, sorted by classes.

    For n >= 2, class 1 (after {0}) is the orbit of 1, the subgroup itself, so
    distinct subgroups give distinct partitions that first differ in class 1:
    sorting the subgroups by elements sorts the rings, building no classes.
    """
    subgroups = sorted(all_subgroups(unit_group(n)), key=lambda h: h.elements)
    return tuple(map(orbit_partition, subgroups))


def aut_subgroup_count(n: int) -> int:
    """Size of the subgroup lattice of Aut(Z_n), a product over its Sylow subgroups.

    Each Sylow r-subgroup is Z_{r^e1} x ... x Z_{r^et}, read off the r-axes of
    _unit_axes(n). Works when every t <= 2, which covers n prime, semiprime, and 4p.
    """
    n = _modulus(n)
    exponents: dict[int, list[int]] = {}
    for m, _ in _unit_axes(n):
        ((r, e),) = factorize(m)
        exponents.setdefault(r, []).append(e)
    for r, es in exponents.items():
        if len(es) > 2:
            raise ValueError(f"Aut(Z_{n}) has {r}-rank {len(es)} > 2; no closed form implemented")
    return prod(subgroup_lattice_size(r, *(es + [0])[:2]) for r, es in exponents.items())
