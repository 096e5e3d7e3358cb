"""Independent brute-force verifiers.

brute_force_schur_rings finds every Schur partition of Z_n by backtracking
over classes, with no knowledge of the structure theory the enumerator uses,
so agreement between the two is a real end-to-end check. Its one piece of
theory is Schur's multiplier theorem (Wielandt, Finite Permutation Groups,
1964, Thm 23.9): in an S-ring over an abelian group of order n, x -> m*x
maps basic sets to basic sets for every m coprime to n. That is a general
fact about S-rings over abelian groups, not the Leung-Man classification of
S-rings over cyclic groups that the enumerator is built on.

brute_force_subgroup_count lists every subgroup of Z_{r^k} x Z_{r^ell} as a
bitmask over its elements, as an oracle for the closed-form lattice size.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import gcd

from schur.automorphic import _subgroup_lattice
from schur.core import SchurPartition, _modulus, _signature, _slot_size, check_schur_axioms
from schur.formulas import _integer, is_prime

__all__ = [
    "DEFAULT_SEARCH_LIMIT",
    "MAX_SEARCH_N",
    "brute_force_schur_rings",
    "brute_force_subgroup_count",
]

DEFAULT_SEARCH_LIMIT = 14
MAX_SEARCH_N = 256  # the search holds one n-long row per unit, phi(n)*n ints in all


def brute_force_schur_rings(n: int, *, force: bool = False) -> tuple[SchurPartition, ...]:
    """All Schur partitions of Z_n by exhaustive backtracking.

    The search assigns the class C of the smallest unassigned element x. By the multiplier
    theorem, m*C is a class for every unit m mod n, so m*C = C whenever m*C meets C.
    Candidates grow from {x} by deciding the other members of x's constraint block in order,
    each included or excluded; after each inclusion C is closed under every unit m with m*C
    meeting C, and the branch is pruned if the closure takes in an excluded element.
    Candidates come off one explicit stack, the exclude branch first. C is committed with
    its whole unit orbit {m*C}, which holds its star -C, read off the images of C's last
    closure pass: each candidate is mapped through the units once. The product of two
    completed class sums must have coefficients constant on every class. The level sets of
    those coefficients confine all future classes; their running common refinement is kept
    as a block partition of the unassigned elements. Every complete partition is still
    checked against all the Schur axioms.

    A candidate class is a frozenset of residues and a block an ascending list of them; m*C
    is read through one row per unit, row[g] = m*g % n.

    Products are read off one _signature per orbit member over a packed row, a committed
    class weighing the product of |D| + 1 over the classes D committed before it: digit D of
    slot g is the coefficient at g of the product with D, and slots stay below 2**n, one
    word up to n = 64. A commit adds to the row passed down. Blocks are split by each new
    class's signature in turn, one value per residue.

    Every unit m permutes the blocks: the first is Z_n minus {0}, and each refinement splits
    by the products of a whole committed orbit with every class, a set that x -> m*x
    permutes. So a closure never leaves C's block, and every m*C lies in a block, clear of
    assigned residues.

    On one core of a shared Intel Xeon VM (Python 3.11) the search takes under 0.1 s for
    every n <= 32, 0.45 s at n=48, 1.2-1.5 s at n=60 and 8.5-8.8 s at n=96. Moduli above
    DEFAULT_SEARCH_LIMIT (14) are refused unless force=True, above MAX_SEARCH_N (256) always.
    """
    if (n := _modulus(n)) > DEFAULT_SEARCH_LIMIT and not force:
        raise ValueError(
            f"n={n} exceeds the brute-force limit {DEFAULT_SEARCH_LIMIT}; pass "
            "force=True to run anyway (about 0.5 s at n=48, 1.2 s at n=60)"
        )
    if n > MAX_SEARCH_N:
        raise ValueError(f"n={n} exceeds the brute-force bound {MAX_SEARCH_N}")
    if n == 1:
        return (SchurPartition.from_sets(1, [{0}]),)

    results: list[SchurPartition] = []
    labels = list(range(n))  # an assigned residue's class's least member, else the residue
    size = _slot_size((1 << n) - 1)
    bits = 8 * size
    # one row per unit m > 1: row[g] = m*g % n
    rows = [[m * g % n for g in range(n)] for m in range(2, n) if gcd(m, n) == 1]

    def close(members: frozenset[int], excluded: frozenset[int]) -> tuple | None:
        """The closure C of members and its images m*C, one per row; None if C meets excluded.

        C is the least superset that each m*C meets only if equal, so it does not depend on
        the order of the units, and a fresh pass after C grows is safe.
        """
        while True:
            images = []
            for row in rows:
                moved = frozenset(map(row.__getitem__, members))
                # a unit permutes Z_n, so moved is not inside members iff it differs
                if moved != members and not moved.isdisjoint(members):
                    if not moved.isdisjoint(excluded):
                        return None
                    members |= moved
                    break
                images.append(moved)
            else:
                return members, images

    def candidates(block: list[int]) -> Iterator[tuple]:
        """Every closed subset of block holding x = block[0], with its images, in search order."""
        others = block[1:]
        stack = [(0, *close(frozenset(block[:1]), frozenset()), frozenset())]
        while stack:
            i, members, images, excluded = stack.pop()
            while i < len(others) and others[i] in members:
                i += 1
            if i == len(others):
                yield members, images
                continue
            g = others[i]
            grown = close(members | {g}, excluded)
            if grown is not None:
                stack.append((i + 1, *grown, excluded))
            stack.append((i + 1, members, images, excluded | {g}))

    def extend(classes: list, blocks: list[list[int]], row: int, weight: int) -> None:
        if not blocks:
            part = SchurPartition.from_sets(n, classes)
            if check_schur_axioms(part) is None:
                results.append(part)
            return
        # the blocks partition the unassigned residues and are disjoint and
        # ascending, so the least block holds the least unassigned residue
        for members, images in candidates(min(blocks)):
            # m*C is a class for every unit m
            new_classes = list(dict.fromkeys([members, *images]))
            grown, w = row, weight
            for c in new_classes:
                lead, slots = min(c), 0
                for g in c:
                    labels[g] = lead
                    slots |= 1 << bits * g
                grown += w * (slots | slots << bits * n)
                w *= len(c) + 1
            keys = []
            for c in new_classes:
                if (sig := _signature(grown, c, n, size, labels)) is None:
                    break
                keys.append(sig)
            else:
                new_blocks, taken = blocks, set().union(*new_classes)  # the first pass drops them
                for key in keys:
                    split: list[list[int]] = []
                    for b in new_blocks:
                        groups: dict[int, list[int]] = {}
                        for g in b:
                            if g not in taken:
                                groups.setdefault(key[g], []).append(g)
                        split += groups.values()
                    new_blocks, taken = split, ()
                extend(classes + new_classes, new_blocks, grown, w)
            for c in new_classes:
                for g in c:
                    labels[g] = g

    extend([(0,)], [list(range(1, n))], 1 | 1 << bits * n, 2)  # {0} weighs 1, twice over
    results.sort(key=SchurPartition.sort_key)
    return tuple(results)


def brute_force_subgroup_count(r: int, k: int, ell: int) -> int:
    """Count subgroups of Z_{r^k} x Z_{r^ell} by explicit enumeration.

    Lists every subgroup of the group explicitly, as a bitmask over the
    elements (a, b) at index a*r^ell + b, with the same lattice routine that
    lists the subgroups of the unit group: every subgroup reached from {0} by
    prime-index joins with a cyclic subgroup. It uses no closed form, so it
    checks the lattice-size formula independently. Group order is capped at 1024.
    """
    r, k, ell = map(_integer, (r, k, ell))
    if k < 0 or ell < 0:
        raise ValueError("exponents must be non-negative")
    # 2**11 > 1024, so the cap is decided before any large power is formed
    if (abs(r) > 1 and k + ell > 10) or r ** (k + ell) > 1024:
        raise ValueError(f"group order {r}^{k + ell} exceeds the oracle bound 1024")
    if not is_prime(r):
        raise ValueError(f"{r} is not prime")
    return len(_subgroup_lattice((r**k, r**ell)))
