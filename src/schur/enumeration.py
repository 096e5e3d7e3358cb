"""Complete enumeration of Schur rings over Z_n and the wedge-core census.

Every Schur ring over a cyclic group is trivial, automorphic, a direct
product, or a wedge product, so generating all four families recursively
over divisors and deduplicating on the canonical partition yields the full
list. Overlaps between families are resolved by the dedup, not by counting
arguments, which keeps the generator honest as an independent check on the
closed-form counts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import gcd

from schur.automorphic import automorphic_rings
from schur.constructions import (
    Section,
    direct_product,
    trivial_ring,
    wedge_core,
    wedge_product,
)
from schur.core import SchurPartition, _integer, quotient, restrict, s_subgroups
from schur.formulas import divisors

__all__ = [
    "EnumerationResult",
    "enumerate_rings",
    "ring_count",
    "core_census",
    "indecomposable_count",
    "FAMILY_TAGS",
]

FAMILY_TAGS = ("trivial", "automorphic", "direct", "wedge")
# bit i of a family mask is FAMILY_TAGS[i]; a ring's tags are one of these 16 shared sets
_TAG_SETS = [frozenset(t for i, t in enumerate(FAMILY_TAGS) if m >> i & 1) for m in range(16)]


@dataclass(frozen=True)
class EnumerationResult:
    """All Schur rings over Z_n with family tags and the wedge-core census.

    rings are canonically sorted and pairwise distinct; tags[i] holds every
    family that produces rings[i] (families overlap); core_census pairs each
    wedge core with the number of rings having that core.
    """

    n: int
    rings: tuple[SchurPartition, ...]
    tags: tuple[frozenset[str], ...]
    core_census: tuple[tuple[SchurPartition, int], ...]
    # the wedge core of each ring, aligned with rings
    _cores: tuple[SchurPartition, ...] = field(compare=False, repr=False)

    @property
    def omega(self) -> int:
        return len(self.rings)


_CACHE: dict[int, EnumerationResult] = {}


def _coprime_splits(n: int) -> list[tuple[int, int]]:
    """Unordered factorizations n = a*b with 1 < a < b and gcd(a, b) = 1."""
    return [
        (a, n // a)
        for a in divisors(n)
        if 1 < a and a * a < n and gcd(a, n // a) == 1
    ]


def _proper_sections(n: int) -> list[tuple[int, int]]:
    """All (k, h) with k | h | n and 1 < k <= h < n."""
    return [
        (k, h)
        for h in divisors(n)
        if 1 < h < n
        for k in divisors(h)
        if k > 1
    ]


def enumerate_rings(n: int) -> EnumerationResult:
    """Enumerate every Schur ring over Z_n, memoized per modulus.

    R splits along a proper section (k, h) (S-subgroups k | h, 1 < k <= h < n)
    when every class outside the order-h subgroup H is a union of cosets of
    the order-k subgroup K. R is then the wedge of S = R on Z_h with T = R
    pushed to Z_{n/k}. For h/k | m, T splits along (j, m) exactly when R
    splits along (jk, mk): the classes of R outside the order-mk subgroup are
    the full preimages of those of T outside the order-m one. The split
    sections of R are closed under
    (a) growing h: (k, h') for each S-subgroup h | h' < n;
    (b) meets for one k: (k, h1), (k, h2) give (k, gcd(h1, h2)), as a class
        outside the meet of H1 and H2 lies outside H1 or outside H2;
    (c) joins: (k1, h1), (k2, h2) give (lcm(k1, k2), h) for h = lcm(h1, h2)
        < n, by (a) and since a union of K1- and of K2-cosets is one of
        (K1 + K2)-cosets.

    Wedges are built along canonical sections only: a left S on Z_h is kept
    when S splits along no (k, h'), so h is minimal for k; a right T on
    Z_{n/k} when T splits along no (j, m) with h/k | m, so R splits along no
    (k', h') with k | k' != k and h | h'. For a decomposable R, take k
    maximal under divisibility over all its split sections and then the least
    h for that k, by (b): both filters keep it, so rings and tags are as with
    no filter. Two kept sections of one R have distinct k by (b), and then
    (c) breaks the right filter of one of them unless lcm(h1, h2) = n: R is
    built twice only when two of its split sections join only at h = n.

    The core census is read off the builds. If R splits along (k, h) and L is
    an S-subgroup, then L <= H, or K <= L and R on Z_L splits along
    (k, gcd(h, L)) when that is below L (a class inside L and outside H is a
    union of K-cosets, so one such class puts K in L). Hence core(R) =
    core(R on Z_h) for every split section (k, h), by induction on n: let
    (k0, h0) be the section wedge_core peels first and g = gcd(h, h0). If
    H0 <= H, R on Z_h splits along (k0, h0) or equals R on Z_h0; likewise if
    H <= H0; otherwise R on Z_h splits along (k0, g) and R on Z_h0 along
    (k, g), so both have the core of R on Z_g. So a wedge built from S has
    the core of S, which the memoized result for h holds. A ring no wedge
    built is indecomposable, as the pairing is complete, and is its own core.
    """
    if (n := _integer(n)) < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    cached = _CACHE.get(n)
    if cached is not None:
        return cached

    found: dict[SchurPartition, int] = {}  # ring -> family mask
    cores: dict[SchurPartition, SchurPartition] = {}

    def add(ring: SchurPartition, bit: int) -> None:
        found[ring] = found.get(ring, 0) | bit

    add(trivial_ring(n), 1)
    for ring in automorphic_rings(n):
        add(ring, 2)
    for a, b in _coprime_splits(n):
        for s in enumerate_rings(a).rings:
            for t in enumerate_rings(b).rings:
                add(direct_product(s, t), 4)
    for k, h in _proper_sections(n):
        hk = h // k
        below = enumerate_rings(h)
        lefts = [
            (s, quotient(s, k), core)
            for s, core in zip(below.rings, below._cores)
            if k in s_subgroups(s) and all(j != k for j, _ in s._split_sections)
        ]
        rights: dict[SchurPartition, list[SchurPartition]] = {}
        for t in enumerate_rings(n // k).rings:
            if hk in s_subgroups(t) and all(m % hk for _, m in t._split_sections):
                rights.setdefault(restrict(t, hk), []).append(t)
        section = Section(k, h)
        for s, pushed, core in lefts:
            for t in rights.get(pushed, ()):
                ring = wedge_product(s, t, section, n)
                add(ring, 8)
                cores[ring] = core

    rings = tuple(sorted(found, key=SchurPartition.sort_key))
    tags = tuple(_TAG_SETS[found[r]] for r in rings)
    ring_cores = tuple(cores[r] if r in cores else wedge_core(r) for r in rings)
    census = Counter(ring_cores)
    census_items = tuple(
        sorted(census.items(), key=lambda item: (item[0].n, item[0].sort_key()))
    )
    result = EnumerationResult(n, rings, tags, census_items, ring_cores)
    _CACHE[n] = result
    return result


def ring_count(n: int) -> int:
    """The number of Schur rings over Z_n."""
    return enumerate_rings(n).omega


def core_census(n: int) -> dict[SchurPartition, int]:
    """Map each wedge core to the number of rings over Z_n having that core."""
    return dict(enumerate_rings(n).core_census)


def indecomposable_count(n: int) -> int:
    """Number of wedge-indecomposable Schur rings over Z_n."""
    return sum(count for core, count in enumerate_rings(n).core_census if core.n == n)
