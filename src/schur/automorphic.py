"""The unit group (Z/nZ)^x, its subgroup lattice, and automorphic Schur rings.

Multiplication by a unit is an automorphism of Z_n, and every automorphism
arises this way, so subgroups of the unit group index the automorphic Schur
rings: each subgroup acts on Z_n and its orbits form the partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod
from typing import Callable, Iterable

from schur.core import SchurPartition
from schur.formulas import factorize, subgroup_lattice_size

__all__ = [
    "UnitGroup",
    "UnitSubgroup",
    "unit_group",
    "all_subgroups",
    "orbit_partition",
    "automorphic_rings",
    "subgroup_lattice_size",
    "aut_subgroup_count",
]


@dataclass(frozen=True)
class UnitGroup:
    """All residues coprime to n, under multiplication mod n."""

    n: int
    units: tuple[int, ...]


@dataclass(frozen=True)
class UnitSubgroup:
    """A multiplicatively closed set of units containing the identity."""

    n: int
    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        elements = tuple(sorted(set(int(x) for x in self.elements)))
        object.__setattr__(self, "elements", elements)
        n = self.n
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
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    if n == 1:
        return UnitGroup(1, (0,))
    return UnitGroup(n, tuple(x for x in range(1, n) if gcd(x, n) == 1))


def _subgroup_lattice(
    elements: Iterable[int], op: Callable[[int, int], int], identity: int
) -> list[frozenset[int]]:
    """Every subgroup of a finite abelian group, each exactly once.

    Seeds with the distinct cyclic subgroups <g>, then walks the growing
    list and joins each subgroup once with each cyclic one. Every subgroup
    is a join C1 v ... v Ck of cyclic subgroups, and each partial join is
    reached from the one before, so the list ends up holding all of them,
    whatever the rank. In an abelian group A v C = A.C, built as the union
    of the cosets x.A for x in C.
    """
    cyclics: list[frozenset[int]] = []
    done: set[int] = set()
    for g in elements:
        if g in done:
            continue
        powers = [identity]
        x = g
        while x != identity:
            powers.append(x)
            x = op(x, g)
        m = len(powers)
        # g^j generates <g> exactly when gcd(j, m) = 1
        done.update(powers[j] for j in range(1, m) if gcd(j, m) == 1)
        cyclics.append(frozenset(powers))
    found = set(cyclics)
    walk = list(cyclics)
    for a in walk:
        for c in cyclics:
            if c <= a or a <= c:
                continue
            out = set(a)
            for x in c:
                if x not in out:
                    out.update(op(x, y) for y in a)
            joined = frozenset(out)
            if joined not in found:
                found.add(joined)
                walk.append(joined)
    return walk


def all_subgroups(u: UnitGroup) -> tuple[UnitSubgroup, ...]:
    """Every subgroup of the unit group, each exactly once.

    The lattice comes from the generic abelian-group routine under
    multiplication mod n. Output is ordered by size, then by element list.
    """
    n = u.n
    subs = [
        UnitSubgroup(n, tuple(sorted(s)))
        for s in _subgroup_lattice(u.units, lambda a, b: a * b % n, 1 % n)
    ]
    subs.sort(key=lambda h: (len(h.elements), h.elements))
    return tuple(subs)


def orbit_partition(h: UnitSubgroup) -> SchurPartition:
    """Partition of Z_n into orbits of x -> u*x for u in the subgroup."""
    n = h.n
    labels = [-1] * n
    for x in range(n):
        if labels[x] < 0:
            for u in h.elements:
                labels[(x * u) % n] = x
    return SchurPartition(tuple(labels))


def automorphic_rings(n: int) -> tuple[SchurPartition, ...]:
    """All automorphic Schur rings over Z_n, one per subgroup of the units.

    The orbit of 1 under a subgroup is the subgroup itself, so distinct
    subgroups give distinct partitions.
    """
    rings = map(orbit_partition, all_subgroups(unit_group(n)))
    return tuple(sorted(rings, key=SchurPartition.sort_key))


def _aut_cyclic_factors(n: int) -> list[int]:
    """Cyclic factor orders of Aut(Z_n), one prime power of n at a time."""
    factors: list[int] = []
    for p, e in factorize(n):
        if p == 2:
            if e == 2:
                factors.append(2)
            elif e >= 3:
                factors.extend((2, 2 ** (e - 2)))
        else:
            factors.append((p - 1) * p ** (e - 1))
    return [f for f in factors if f > 1]


def aut_subgroup_count(n: int) -> int:
    """Size of the subgroup lattice of Aut(Z_n).

    Works whenever every primary component of the (abelian) automorphism
    group has rank at most two, which covers n prime, semiprime, and 4p.
    """
    counts = []
    factors = _aut_cyclic_factors(n)
    primes = sorted({r for f in factors for r, _ in factorize(f)})
    for r in primes:
        exponents = sorted(
            (dict(factorize(f)).get(r, 0) for f in factors), reverse=True
        )
        exponents = [e for e in exponents if e > 0]
        if len(exponents) > 2:
            raise ValueError(
                f"Aut(Z_{n}) has {r}-rank {len(exponents)} > 2; "
                "no closed form implemented"
            )
        k = exponents[0]
        ell = exponents[1] if len(exponents) == 2 else 0
        counts.append(subgroup_lattice_size(r, k, ell))
    return prod(counts) if counts else 1
