"""Complete enumeration of Schur rings over Z_n and the wedge-core census.

Every Schur ring over a cyclic group is trivial, automorphic, a direct
product, or a wedge product. _build makes all four families recursively over
divisors, one memoized record per modulus: each wedge once, from its one pair
in _pairs, with a dict on the canonical partition merging only rings that two
families produce. enumerate_rings sorts that record, an independent check on
the closed forms. ring_count, core_census and indecomposable_count count the
same pairs with no wedge over Z_n built; tests pin them to it for n <= 240.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from math import gcd, lcm

from schur.automorphic import automorphic_rings
from schur.constructions import (
    Section,
    direct_product,
    trivial_ring,
    wedge_core,
    wedge_product,
)
from schur.core import SchurPartition, _modulus, _quotient, _Record, restrict, s_subgroups
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


class EnumerationResult(_Record):
    """All Schur rings over Z_n with family tags and the wedge-core census.

    rings are canonically sorted and pairwise distinct; tags[i] holds every
    family that produces rings[i] (families overlap); core_census pairs each
    wedge core with the number of rings having that core.
    """

    __slots__ = ("n", "rings", "tags", "core_census")

    @property
    def omega(self) -> int:
        return len(self.rings)


# per modulus, its build record: each ring, in build order, to (family mask, wedge core),
# one shared tuple per distinct pair
_CACHE: dict[int, dict[SchurPartition, tuple[int, SchurPartition]]] = {}


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


def _base_rings(n: int, census: bool = False) -> Iterator[tuple[SchurPartition, int]]:
    """The trivial, automorphic and direct rings of Z_n, each with its family bit.

    With census, direct products only of factors that split along no section,
    and none of two automorphic factors. If S on Z_a splits along (k, h),
    S x T splits along (k, hb), as a class outside the order-hb subgroup is
    C x D with C outside H. Under CRT, orbit(H_a) x orbit(H_b) is
    orbit(H_a x H_b), an automorphic ring of Z_n already yielded.
    """
    yield trivial_ring(n), 1
    for ring in automorphic_rings(n):
        yield ring, 2
    for a, b in _coprime_splits(n):
        lefts, rights = (
            [(r, f & 2) for r, (f, _) in _build(m).items() if not (census and r._split_sections)]
            for m in (a, b)
        )
        for s, sa in lefts:
            for t, ta in rights:
                if not (census and sa and ta):
                    yield direct_product(s, t), 4


def _pairs(n: int) -> Iterator[tuple[Section, SchurPartition, SchurPartition, list]]:
    """(section, S, core of S, its Ts) per kept S: each decomposable ring's one pair (_rivals)."""
    rivals = _rivals(n)
    for k, h in _proper_sections(n):
        hk = h // k
        rights: dict[SchurPartition, list[SchurPartition]] = {}
        for t in _build(n // k):
            if hk in s_subgroups(t) and all(m % hk for _, m in t._split_sections):
                rights.setdefault(restrict(t, hk), []).append(t)
        section = Section(k, h)
        for s, (_, core) in _build(h).items():
            if k in s_subgroups(s) and all(j != k for j, _ in s._split_sections):
                ts = rights.get(_quotient(s, k))
                if ts and rivals[k, h]:
                    fs = frozenset(s._subgroup_orders + s._split_sections)
                    for s_test, t_test, stops in rivals[k, h]:
                        if fs >= s_test:
                            t_stops = [t2 for s2, t2 in stops if fs >= s2]
                            ts = [
                                t for t in ts
                                for ft in [frozenset(t._subgroup_orders + t._split_sections)]
                                if not ft >= t_test or any(ft >= t2 for t2 in t_stops)
                            ]
                if ts:
                    yield section, s, core, ts


def _sorted_census(census: Counter) -> tuple[tuple[SchurPartition, int], ...]:
    return tuple(sorted(census.items(), key=lambda item: (item[0].n, item[0].sort_key())))


def _build(n: int) -> dict[SchurPartition, tuple[int, SchurPartition]]:
    """The build record of Z_n for a checked n: each ring to (family mask, wedge core), memoized.

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
    no filter; _pairs keeps only R's canonical pair (_rivals): R is built once.

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
    if n in _CACHE:
        return _CACHE[n]
    masks: dict[SchurPartition, int] = {}
    cores: dict[SchurPartition, SchurPartition] = {}
    for ring, bit in _base_rings(n):
        masks[ring] = masks.get(ring, 0) | bit
    for section, s, core, ts in _pairs(n):
        for t in ts:
            ring = wedge_product(s, t, section, n)
            masks[ring] = masks.get(ring, 0) | 8
            cores[ring] = core
    shared: dict[tuple[int, SchurPartition], tuple[int, SchurPartition]] = {}
    _CACHE[n] = {
        r: shared.setdefault(v, v)
        for r, m in masks.items()
        for v in [(m, cores[r] if r in cores else wedge_core(r))]
    }
    return _CACHE[n]


def enumerate_rings(n: int) -> EnumerationResult:
    """Enumerate every Schur ring over Z_n: its build record (_build), sorted on each call."""
    n = _modulus(n)
    record = _build(n)
    rings = tuple(sorted(record, key=SchurPartition.sort_key))
    tags = tuple(_TAG_SETS[record[r][0]] for r in rings)
    return EnumerationResult(n, rings, tags, _sorted_census(Counter(c for _, c in record.values())))


def _rivals(n: int) -> dict[tuple[int, int], list]:
    """For each proper section (k, h), the rivals that can make a pair along it not canonical.

    Let R be the wedge of kept S on Z_h and T on Z_{n/k}. Then (j, m) splits
    R iff, for l = j and m, gcd(l, h) is an S-subgroup of S and l | h or k | l
    and l/k is one of T (an S-subgroup L of R not in H holds a class outside
    H, a union of K-cosets, so K <= L), and
    (1) h | m, or j | h and S splits along (j, gcd(h, m)), which implies the
        S side above: the classes inside H and outside M are S's classes
        outside the meet of H and M;
    (2) j | k, or k | m and T splits along (lcm(j, k)/k, m/k): if K <= M, a
        class outside H and M is a union of J-cosets iff its image, a class
        of T outside M/K, is one of (J + K)/K-cosets, as the images of the
        classes of (1) are; if not, M <= H (_build) and T would
        split along ((J + K)/K, H/K), against the right filter.
    Two kept sections of R have distinct k, lcm(h, h') = n and lcm(k, k') < n
    (a class outside H and H' is a union of (K + K')-cosets, so not all of
    Z_n), so K <= H' and K' <= H (_build). A split (k', h') is kept
    iff R splits along no (k', h'') with h'' | h', h'' < h' (R on Z_h' does
    iff R does) and no (k'', h'') with k' | k'' != k', h' | h''. _pairs keeps
    a pair iff no rival, (k', h') as above with k' < k, is kept for R: each
    ring is paired once, along its canonical section, the kept one of least
    k. Per section, each rival's (S test, T test, stop tests): the facts
    (S-subgroup orders, split sections) S and T need for R to split along it,
    and along each section that would stop it being kept; 0 fails.
    """
    sections = _proper_sections(n)
    out = {}
    for k, h in sections:

        def tests(j: int, m: int) -> tuple[frozenset, frozenset]:
            s_test = gcd(j, h) if m % h == 0 else h % j == 0 and (j, gcd(h, m))
            t_test = [(l // k if l % k == 0 else 0) for l in (j, m) if h % l]
            if k % j:
                t_test.append(m % k == 0 and (lcm(j, k) // k, m // k))
            return frozenset([s_test or 0]), frozenset(t or 0 for t in t_test)

        out[k, h] = [
            (*tests(k2, h2), [
                tests(j, m) for j, m in sections
                if j == k2 and h2 % m == 0 and m < h2 or j % k2 == 0 < j - k2 and m % h2 == 0
            ])
            for k2, h2 in sections
            if k2 < k and lcm(h, h2) == n and lcm(k, k2) < n and h2 % k == 0 and h % k2 == 0
        ]
    return out


def _census(n: int) -> Counter:
    """The core census of Z_n as an unsorted core -> count tally, with no wedge over Z_n built.

    The base rings with no split section are indecomposable, their own cores;
    every other ring is the wedge of one pair of _pairs, at its left factor's
    core. It neither reads nor writes the memo entry for n, and it builds no
    sort key for a ring over Z_n.
    """
    n = _modulus(n)
    census = Counter(r for r in {r for r, _ in _base_rings(n, True)} if not r._split_sections)
    for _, _, core, ts in _pairs(n):
        census[core] += len(ts)
    return census


def ring_count(n: int) -> int:
    """The number of Schur rings over Z_n: the census total, counted by _census, nothing sorted."""
    return sum(_census(n).values())


def core_census(n: int) -> dict[SchurPartition, int]:
    """Map each wedge core, in (order, sort key) order, to the number of rings over Z_n having it.

    Counted by _census, as in ring_count; only this sorts, the cores alone.
    """
    return dict(_sorted_census(_census(n)))


def indecomposable_count(n: int) -> int:
    """Number of wedge-indecomposable Schur rings over Z_n, counted by _census."""
    return sum(count for core, count in _census(n).items() if core.n == n)
