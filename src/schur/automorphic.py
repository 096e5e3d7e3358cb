"""The unit group (Z/nZ)^x, its subgroup lattice, and automorphic Schur rings.

Multiplication by a unit is an automorphism of Z_n, and every automorphism
arises this way, so subgroups of the unit group index the automorphic Schur
rings: each subgroup acts on Z_n and its orbits form the partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, prod
from typing import Iterable

from schur.core import SchurPartition
from schur.formulas import euler_phi, factorize, is_prime

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


@lru_cache(maxsize=None)
def unit_group(n: int) -> UnitGroup:
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    if n == 1:
        return UnitGroup(1, (0,))
    return UnitGroup(n, tuple(x for x in range(1, n) if gcd(x, n) == 1))


def _mul_closure(n: int, gens: Iterable[int]) -> frozenset[int]:
    """Subgroup of (Z/nZ)^x generated by gens."""
    identity = 1 % n
    out = {identity}
    frontier = [identity]
    gens = tuple(gens)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = (x * g) % n
                if y not in out:
                    out.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(out)


@lru_cache(maxsize=None)
def all_subgroups(u: UnitGroup) -> tuple[UnitSubgroup, ...]:
    """Every subgroup of the unit group, each exactly once.

    Seeds with the cyclic subgroups <u> and closes the collection under
    pairwise join (the subgroup generated by a union) until stable. Output
    is ordered by size, then by element list.
    """
    n = u.n
    found: dict[frozenset[int], tuple[int, ...]] = {}
    for g in u.units:
        sub = _mul_closure(n, (g,))
        if sub not in found:
            found[sub] = (g,)
    changed = True
    while changed:
        changed = False
        current = list(found.items())
        for i in range(len(current)):
            s1, g1 = current[i]
            for j in range(i + 1, len(current)):
                s2, g2 = current[j]
                if s1 <= s2 or s2 <= s1:
                    continue
                joined = _mul_closure(n, g1 + g2)
                if joined not in found:
                    found[joined] = g1 + g2
                    changed = True
    subs = [UnitSubgroup(n, tuple(sorted(s))) for s in found]
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


@lru_cache(maxsize=None)
def automorphic_rings(n: int) -> tuple[SchurPartition, ...]:
    """All automorphic Schur rings over Z_n, one per subgroup of the units.

    The orbit of 1 under a subgroup is the subgroup itself, so distinct
    subgroups give distinct partitions.
    """
    rings = map(orbit_partition, all_subgroups(unit_group(n)))
    return tuple(sorted(rings, key=SchurPartition.sort_key))


def subgroup_lattice_size(r: int, k: int, ell: int) -> int:
    """Number of subgroups of Z_{r^k} x Z_{r^ell} for a prime r."""
    if not is_prime(r):
        raise ValueError(f"{r} is not prime")
    if k < 0 or ell < 0:
        raise ValueError("exponents must be non-negative")
    return sum(
        euler_phi(r**j) * (k - j + 1) * (ell - j + 1)
        for j in range(min(k, ell) + 1)
    )


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
