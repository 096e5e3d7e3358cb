import tracemalloc

import pytest

import schur.brute_force
from schur.brute_force import (
    MAX_SEARCH_N,
    brute_force_schur_rings,
    brute_force_subgroup_count,
)
from schur.constructions import discrete_ring, trivial_ring, wedge_product, Section
from schur.core import SchurPartition, check_schur_axioms, is_schur_partition
from schur.enumeration import enumerate_rings
from schur.formulas import is_prime, subgroup_lattice_size

from _reference import _class_product


def _bits(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _subset_search(n):
    """The ring oracle without the multiplier theorem, as a reference.

    For the least unassigned x it tries every subset of x's constraint block
    that contains x, and commits the star of the class with it. The product
    test, block refinement and leaf check are those of brute_force_schur_rings.
    """
    if n == 1:
        return (SchurPartition.from_sets(1, [{0}]),)
    full = (1 << n) - 1
    results = []
    labels = list(range(n))
    sizes = [1] * n
    star_bit = [1 << (-g % n) for g in range(n)]

    def extend(assigned, classes, blocks):
        if assigned == full:
            part = SchurPartition.from_sets(n, classes)
            if check_schur_axioms(part) is None:
                results.append(part)
            return
        remaining = ~assigned & full
        x = (remaining & -remaining).bit_length() - 1
        block = next(b for b in blocks if (b >> x) & 1)
        others = _bits(block & ~(1 << x))
        for pick in range(1 << len(others)):
            cmask = 1 << x
            smask = star_bit[x]
            for i, g in enumerate(others):
                if (pick >> i) & 1:
                    cmask |= 1 << g
                    smask |= star_bit[g]
            if smask != cmask and (
                smask & (assigned | cmask) or not any(smask & ~b == 0 for b in blocks)
            ):
                continue
            new_classes = [tuple(_bits(m)) for m in dict.fromkeys((cmask, smask))]
            for c in new_classes:
                for g in c:
                    labels[g] = c[0]
                sizes[c[0]] = len(c)
            all_classes = classes + new_classes
            products = []
            bad = -1
            for i, fresh in enumerate(new_classes):
                for other in all_classes[: len(classes) + i + 1]:
                    product, bad = _class_product(fresh, other, n, labels, sizes)
                    if bad >= 0:
                        break
                    products.append(product)
                if bad >= 0:
                    break
            if bad < 0:
                new_assigned = assigned | cmask | smask
                new_blocks = []
                for b in blocks:
                    b &= ~new_assigned
                    if not b:
                        continue
                    groups = {}
                    for g in _bits(b):
                        sig = tuple(product.get(g, 0) for product in products)
                        groups[sig] = groups.get(sig, 0) | (1 << g)
                    new_blocks.extend(groups.values())
                extend(new_assigned, all_classes, new_blocks)
            for c in new_classes:
                for g in c:
                    labels[g] = g
                sizes[c[0]] = 1

    extend(1, [(0,)], [full & ~1])
    results.sort(key=SchurPartition.sort_key)
    return tuple(results)


def test_rings_over_z4():
    rings = brute_force_schur_rings(4)
    expected = {
        trivial_ring(4),
        wedge_product(discrete_ring(2), discrete_ring(2), Section(2, 2), 4),
        discrete_ring(4),
    }
    assert set(rings) == expected


def test_rings_over_z6_and_z12():
    assert len(brute_force_schur_rings(6)) == 7
    assert len(brute_force_schur_rings(12)) == 32


def test_all_outputs_pass_axioms():
    for n in (5, 8, 9, 10):
        for ring in brute_force_schur_rings(n):
            assert is_schur_partition(ring)


def test_limit_enforced_and_forceable():
    with pytest.raises(ValueError):
        brute_force_schur_rings(15)
    rings = brute_force_schur_rings(15, force=True)
    assert len(rings) == 21


def _assert_oracle_matches_enumeration(monkeypatch, moduli):
    # one leaf axiom check per ring pins the pruning as well as the output:
    # a search that reached a complete partition it then rejected fails here
    leaves = [0]

    def counting(part):
        leaves[0] += 1
        return check_schur_axioms(part)

    monkeypatch.setattr(schur.brute_force, "check_schur_axioms", counting)
    for n in moduli:
        leaves[0] = 0
        forced = brute_force_schur_rings(n, force=True)
        assert forced == enumerate_rings(n).rings, n
        assert leaves[0] == len(forced), n


def test_agreement_beyond_default_limit(monkeypatch):
    # reaches n=60, where the enumerator builds one ring along two sections, and
    # n = 64 and 65, the last one-word and the first two-word weight row
    _assert_oracle_matches_enumeration(monkeypatch, [*range(15, 61), 64, 65])


@pytest.mark.slow
def test_agreement_to_72(monkeypatch):
    _assert_oracle_matches_enumeration(monkeypatch, range(61, 73))


def test_agrees_with_subset_search_to_16():
    # the multiplier-theorem pruning must drop no ring the plain subset
    # search finds, and add none
    for n in range(1, 17):
        assert brute_force_schur_rings(n, force=True) == _subset_search(n), n


def test_search_memory_stays_small():
    # candidates are generated lazily, one closed class at a time; the n=16
    # search peaks near 0.07 MiB, and listing all 1 << 14 subsets of a
    # block at the top level would peak near 0.7 MiB
    tracemalloc.start()
    try:
        brute_force_schur_rings(16, force=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.3 * 2**20


def test_search_refuses_large_n_before_allocating():
    # the search keeps phi(n) unit rows of n ints, about 99 million of them at n = 9973
    assert MAX_SEARCH_N >= 144
    for n in (MAX_SEARCH_N + 1, 9973):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as raised:
                brute_force_schur_rings(n, force=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(raised.value) == f"n={n} exceeds the brute-force bound {MAX_SEARCH_N}"
        assert peak < 2**20, (n, peak)
    with pytest.raises(ValueError, match="brute-force limit 14"):
        brute_force_schur_rings(9973)


def test_output_sorted_canonically():
    rings = brute_force_schur_rings(9)
    keys = [r.sort_key() for r in rings]
    assert keys == sorted(keys)


def test_subgroup_count_examples():
    assert brute_force_subgroup_count(2, 1, 1) == 5
    assert brute_force_subgroup_count(2, 2, 1) == 8
    for r, k in [(2, 3), (3, 2), (5, 1), (7, 2)]:
        assert brute_force_subgroup_count(r, k, 0) == k + 1


def test_subgroup_count_matches_formula_on_every_shape_to_1024():
    # all 644 shapes (r, k, ell) with r^(k+ell) <= 1024, the oracle's
    # documented ceiling, which it reaches at (2, 5, 5), (3, 4, 2), (5, 2, 2), ...
    shapes = [
        (r, k, ell)
        for r in range(2, 1025)
        if is_prime(r)
        for k in range(11)
        for ell in range(11)
        if r ** (k + ell) <= 1024
    ]
    assert len(shapes) == 644
    for shape in shapes:
        assert brute_force_subgroup_count(*shape) == subgroup_lattice_size(*shape), shape


def test_subgroup_count_bounds_and_validation():
    with pytest.raises(ValueError):
        brute_force_subgroup_count(2, 6, 5)
    with pytest.raises(ValueError):
        brute_force_subgroup_count(6, 1, 1)
    with pytest.raises(ValueError):
        brute_force_subgroup_count(2, -1, 0)
    # 2.0 passed the prime test and the cap, then failed with a TypeError in the lattice
    for shape in ((2.0, 1, 1), (2, 1.0, 1), (2, 1, 1.0)):
        with pytest.raises(ValueError, match="expected an integer"):
            brute_force_subgroup_count(*shape)


def test_subgroup_count_cap_checked_before_the_power():
    # forming 2**100000 first would fail on converting it to a string for
    # the message, and larger exponents would exhaust memory
    for shape in [(2, 10**5, 0), (3, 10**4, 10**4)]:
        with pytest.raises(ValueError, match="1024"):
            brute_force_subgroup_count(*shape)


def test_agrees_with_enumeration_to_12():
    # both sides are canonically sorted, so tuple equality also rules out
    # duplicates or ordering drift
    for n in range(1, 13):
        assert brute_force_schur_rings(n) == enumerate_rings(n).rings
