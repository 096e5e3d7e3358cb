"""Constructors for Schur rings over Z_n and wedge decomposition.

The wedge product glues a ring S on the order-h subgroup H to a ring T on the
quotient Z_n / K (K the order-k subgroup, k | h): inside H the classes are
those of S, outside H they are the full preimages of T's classes under
x -> x mod n/k. Gluing is legal only when both sides agree on the overlap,
i.e. the pushforward of S along K equals the restriction of T to H/K.
"""

from __future__ import annotations

from math import gcd

from schur.core import SchurPartition, _modulus, _Record, _residue_count, quotient, restrict
from schur.formulas import _integer

__all__ = [
    "Section",
    "trivial_ring",
    "discrete_ring",
    "direct_product",
    "wedge_compatible",
    "wedge_product",
    "find_wedge_section",
    "wedge_core",
]


class Section(_Record):
    """A pair of nested subgroups of Z_n, named by their orders k | h."""

    __slots__ = ("k", "h")

    def __init__(self, k: int, h: int) -> None:
        if _integer(k) < 1 or _integer(h) < 1 or h % k != 0:
            raise ValueError(f"section requires positive k | h, got k={k}, h={h}")
        super().__init__(k, h)

    def is_proper_in(self, n: int) -> bool:
        return 1 < self.k <= self.h < n and n % self.h == 0


def trivial_ring(n: int) -> SchurPartition:
    """The span of the identity and everything else: classes {0} and Z_n - {0}."""
    return SchurPartition([0] + [1] * (_residue_count(_modulus(n)) - 1))


def discrete_ring(n: int) -> SchurPartition:
    """The full group algebra: every residue is its own class."""
    return SchurPartition(list(range(_residue_count(_integer(n)))))


def direct_product(s: SchurPartition, t: SchurPartition) -> SchurPartition:
    """Tensor product of rings over coprime moduli, realized on Z_{s.n * t.n}.

    Residue x lies in the class of the pair (class of x mod a in S, class of
    x mod b in T); by the CRT these are the images of pairs of classes, and
    restricting the result to either factor's subgroup recovers that factor.
    """
    a, b = s.n, t.n
    if gcd(a, b) != 1:
        raise ValueError(f"moduli must be coprime, got {a} and {b}")
    sl, tl = s.labels, t.labels
    return SchurPartition([sl[x % a] * b + tl[x % b] for x in range(_residue_count(a * b))])


def wedge_compatible(s: SchurPartition, t: SchurPartition, u: Section, n: int) -> bool:
    """True when wedge_product(s, t, u, n) accepts its arguments; n must be an integer."""
    n = _integer(n)
    try:
        wedge_product(s, t, u, n)
    except ValueError:
        return False
    return True


def wedge_product(s: SchurPartition, t: SchurPartition, u: Section, n: int) -> SchurPartition:
    """Wedge of S over Z_h with T over Z_{n/k} along the section U = (k, h).

    Needs U proper in Z_n, S on Z_h, T on Z_{n/k}, and the pushforward of S by
    k equal to the restriction of T to h/k, which quotient and restrict refuse
    when a subgroup is not an S-subgroup or S's class images overlap.
    """
    k, h, n = u.k, u.h, _residue_count(_modulus(n))
    if not u.is_proper_in(n):
        raise ValueError(f"section ({k},{h}) is not proper in Z_{n}")
    if s.n != h:
        raise ValueError(f"left factor lives on Z_{s.n}, expected Z_{h}")
    if t.n != n // k:
        raise ValueError(f"right factor lives on Z_{t.n}, expected Z_{n // k}")
    if quotient(s, k) != restrict(t, h // k):
        raise ValueError(
            f"incompatible wedge: pushforward of the Z_{h} factor by {k} must "
            f"equal the restriction of the Z_{n // k} factor to {h // k}"
        )
    step_h = n // h
    # outside H a residue x takes the class of x mod n/k in T, offset past
    # S's labels (so below h + n/k <= n); inside H, the multiples of n/h, its class in S
    labels = list(map(h.__add__, t.labels)) * k
    labels[::step_h] = s.labels
    return SchurPartition(labels)


def find_wedge_section(p: SchurPartition) -> Section | None:
    """Smallest proper section along which p splits as a wedge, if any.

    A section (k, h) works when every class outside the order-h subgroup is a
    union of cosets of the order-k subgroup; the ring is then the wedge of its
    restriction to h with its pushforward by k. Sections are ordered with k
    ascending, then h ascending; each partition finds its sections once.
    """
    sections = p._split_sections
    return Section(*sections[0]) if sections else None


def wedge_core(p: SchurPartition) -> SchurPartition:
    """Maximal wedge-indecomposable subring, reached by repeated splitting.

    Peels off the wedge with smallest k (then smallest h) and keeps the
    restriction to the order-h subgroup until nothing splits. The order of
    the core is the modulus of the returned partition.
    """
    while p._split_sections:
        p = restrict(p, p._split_sections[0][1])
    return p
