"""Complete enumeration of Schur rings over Z_n and the wedge-core census.

Every Schur ring over a cyclic group is trivial, automorphic, a direct
product, or a wedge product, so generating all four families recursively
over divisors and deduplicating on the canonical partition yields the full
list. Overlaps between families are resolved by the dedup, not by counting
arguments, which keeps the generator honest as an independent check on the
closed-form counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from schur.automorphic import automorphic_rings
from schur.constructions import (
    Section,
    _splits_along,
    direct_product,
    trivial_ring,
    wedge_core,
    wedge_product,
)
from schur.core import SchurPartition, quotient, restrict, s_subgroups
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

    @property
    def omega(self) -> int:
        return len(self.rings)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "omega": self.omega,
            "rings": [r.to_json_dict() for r in self.rings],
            "tags": [sorted(t) for t in self.tags],
            "core_census": [
                {"core": core.to_json_dict(), "order": core.n, "count": count}
                for core, count in self.core_census
            ],
        }


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

    Wedges are built along canonical sections only. If R splits along
    (k, h), it splits along (k, h') for each S-subgroup h | h' < n; along
    (k, h1) and (k, h2), then along (k, gcd(h1, h2)); along (k1, h) and
    (k2, h), then along (lcm(k1, k2), h). So a decomposable R splits along a
    (k, h) with h minimal for k and k maximal for h: for S = R on Z_h and
    T = R on Z_{n/k}, S splits along no (k, h'), k | h' < h, and T along no
    (j, h/k), 1 < j | h/k (h', j S-subgroups). With lefts and rights filtered
    so, every wedge is still built at least once: rings and tags are as before.
    """
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    cached = _CACHE.get(n)
    if cached is not None:
        return cached

    found: dict[SchurPartition, set[str]] = {}

    def add(ring: SchurPartition, tag: str) -> None:
        found.setdefault(ring, set()).add(tag)

    add(trivial_ring(n), "trivial")
    for ring in automorphic_rings(n):
        add(ring, "automorphic")
    for a, b in _coprime_splits(n):
        for s in enumerate_rings(a).rings:
            for t in enumerate_rings(b).rings:
                add(direct_product(s, t), "direct")
    for k, h in _proper_sections(n):
        hk = h // k
        smaller_h = [d for d in divisors(h) if d % k == 0 and d < h]
        lefts = [
            (s, quotient(s, k))
            for s in enumerate_rings(h).rings
            if k in s_subgroups(s)
            and not any(d in s_subgroups(s) and _splits_along(s.labels, k, d) for d in smaller_h)
        ]
        js = divisors(hk)[1:]  # T splitting along (j, h/k) is R splitting along (jk, h)
        rights: dict[SchurPartition, list[SchurPartition]] = {}
        for t in enumerate_rings(n // k).rings:
            subs = s_subgroups(t)
            if hk in subs and not any(j in subs and _splits_along(t.labels, j, hk) for j in js):
                rights.setdefault(restrict(t, hk), []).append(t)
        section = Section(k, h)
        for s, pushed in lefts:
            for t in rights.get(pushed, ()):
                add(wedge_product(s, t, section, n), "wedge")

    rings = tuple(sorted(found, key=SchurPartition.sort_key))
    tags = tuple(frozenset(found[r]) for r in rings)
    census: dict[SchurPartition, int] = {}
    for ring in rings:
        core = wedge_core(ring)
        census[core] = census.get(core, 0) + 1
    census_items = tuple(
        sorted(census.items(), key=lambda item: (item[0].n, item[0].sort_key()))
    )
    result = EnumerationResult(n, rings, tags, census_items)
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
