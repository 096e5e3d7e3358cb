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

from math import gcd
from typing import Iterator

from schur.automorphic import _subgroup_lattice
from schur.core import SchurPartition, _modulus, _signature, check_schur_axioms
from schur.formulas import _integer, is_prime

__all__ = [
    "DEFAULT_SEARCH_LIMIT",
    "brute_force_schur_rings",
    "brute_force_subgroup_count",
]

DEFAULT_SEARCH_LIMIT = 14


def brute_force_schur_rings(n: int, *, force: bool = False) -> tuple[SchurPartition, ...]:
    """All Schur partitions of Z_n by exhaustive backtracking.

    The search assigns the class C of the smallest unassigned element x.
    By the multiplier theorem, m*C is a class for every unit m mod n, so
    m*C = C whenever m*C meets C. Candidates grow from {x} by deciding the
    other members of x's constraint block in order, each included or
    excluded; after each inclusion C is closed under every unit m with m*C
    meeting C, and the branch is pruned if the closure takes in an excluded
    element. Candidates come off one explicit stack, the exclude branch
    first. C is committed with its whole unit orbit {m*C}, which holds its
    star -C, read off the images of C's last closure pass: each candidate is
    mapped through the units once. The product of two completed class sums
    must have coefficients constant on every class. The level sets of those
    coefficients confine all future classes; their running common refinement
    is kept as a block partition of the unassigned elements. Every complete
    partition is still checked against all the Schur axioms.

    A candidate class is a frozenset of residues and a block an ascending
    list of them; m*C is read through one row per unit, row[g] = m*g % n.

    Products are read off one _signature per orbit member: with a committed
    class of least member c weighing n**c and an unassigned residue 0, digit
    d at g is the coefficient at g of the product with the class of least
    member d. {0} is its own class, so every coefficient is below n: no carry.

    Every unit m permutes the blocks: the first is Z_n minus {0}, and each
    refinement splits by the products of a whole committed orbit with every
    class, a set that x -> m*x permutes. So a closure never leaves C's
    block, and every m*C lies in a block, clear of assigned residues.

    On one core of a shared Intel Xeon VM (Python 3.11) the search takes
    under 0.1 s for every n <= 32, 0.6-0.9 s at n=48 and 2.0-2.7 s at n=60. Moduli
    above DEFAULT_SEARCH_LIMIT (14) are refused unless force=True.
    """
    if (n := _modulus(n)) > DEFAULT_SEARCH_LIMIT and not force:
        raise ValueError(
            f"n={n} exceeds the brute-force limit {DEFAULT_SEARCH_LIMIT}; pass "
            "force=True to run anyway (about 1 s at n=48, 2 s at n=60)"
        )
    if n == 1:
        return (SchurPartition.from_sets(1, [{0}]),)

    results: list[SchurPartition] = []
    # the partial partition: an assigned class is labelled by its least member c
    # and weighs n**c, an unassigned residue is its own label and weighs 0; the
    # weights are written twice over, as _signature reads them
    labels = list(range(n))
    weight = ([1] + [0] * (n - 1)) * 2
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

    def extend(classes: list[tuple[int, ...]], blocks: list[list[int]]) -> None:
        if not blocks:
            part = SchurPartition.from_sets(n, classes)
            if check_schur_axioms(part) is None:
                results.append(part)
            return
        # the blocks partition the unassigned residues and are disjoint and
        # ascending, so the least block holds the least unassigned residue
        for members, images in candidates(min(blocks)):
            # m*C is a class for every unit m
            new_classes = [tuple(sorted(c)) for c in dict.fromkeys([members, *images])]
            for c in new_classes:
                for g in c:
                    labels[g] = c[0]
                    weight[g] = weight[n + g] = n ** c[0]
            sigs = []
            for c in new_classes:
                sigs.append(_signature(weight, c))
                if list(map(sigs[-1].__getitem__, labels)) != sigs[-1]:
                    break  # sig[g] != sig[least member of g's class]
            else:
                new_blocks: list[list[int]] = []
                for b in blocks:
                    groups: dict[tuple[int, ...], list[int]] = {}
                    for g in b:
                        if not weight[g]:  # g is still unassigned
                            groups.setdefault(tuple([sig[g] for sig in sigs]), []).append(g)
                    new_blocks.extend(groups.values())
                extend(classes + new_classes, new_blocks)
            for c in new_classes:
                for g in c:
                    labels[g] = g
                    weight[g] = weight[n + g] = 0

    extend([(0,)], [list(range(1, n))])
    results.sort(key=SchurPartition.sort_key)
    return tuple(results)


def brute_force_subgroup_count(r: int, k: int, ell: int) -> int:
    """Count subgroups of Z_{r^k} x Z_{r^ell} by explicit enumeration.

    Lists every subgroup of the group explicitly, as a bitmask over the
    elements (a, b) at index a*r^ell + b, with the same lattice routine that
    lists the subgroups of the unit group: the cyclic subgroups, closed under
    join with a cyclic subgroup. It uses no closed form, so it checks the
    lattice-size formula independently. Group order is capped at 1024.
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
