from math import gcd, prod

import pytest

from schur.automorphic import (
    UnitGroup,
    UnitSubgroup,
    _subgroup_lattice,
    _unit_axes,
    all_subgroups,
    aut_subgroup_count,
    automorphic_rings,
    orbit_partition,
    unit_group,
)
from schur.brute_force import brute_force_subgroup_count
from schur.core import SchurPartition, is_schur_partition
from schur.formulas import (
    divisor_count,
    euler_phi,
    factorize,
    is_prime,
    semiprime_factors,
    subgroup_lattice_size,
    two_adic_split,
)


def test_unit_group_examples():
    assert unit_group(7).units == (1, 2, 3, 4, 5, 6)
    assert unit_group(12).units == (1, 5, 7, 11)
    assert len(unit_group(21).units) == 12
    assert unit_group(1).units == (0,)


def test_unit_group_sizes_match_phi():
    for n in range(1, 60):
        assert len(unit_group(n).units) == euler_phi(n)


def test_unit_subgroup_validation():
    UnitSubgroup(7, (1, 2, 4))
    with pytest.raises(ValueError):
        UnitSubgroup(7, (2, 4))  # no identity
    with pytest.raises(ValueError):
        UnitSubgroup(7, (1, 2))  # not closed
    with pytest.raises(ValueError):
        UnitSubgroup(6, (1, 2))  # 2 is not a unit


def test_unit_subgroup_refuses_non_integer_elements():
    # read through operator.index, as from_sets reads classes: int() would
    # truncate 1.5 to 1 and parse '1', and return the subgroup {1, 2, 4}
    for bad, shown in ((1.5, "1.5"), ("1", "'1'")):
        with pytest.raises(ValueError, match=f"expected an integer, got {shown}"):
            UnitSubgroup(7, (bad, 2, 4))


def test_unit_subgroup_refuses_nonpositive_modulus():
    # refused as unit_group refuses it, not by a ZeroDivisionError from 1 % n
    for n in (0, -3):
        with pytest.raises(ValueError, match="positive"):
            UnitSubgroup(n, (1,))


def test_unit_subgroup_stores_its_modulus_as_an_int():
    class Seven:
        def __index__(self):
            return 7

    h = UnitSubgroup(Seven(), (4, 1, 2))
    assert type(h.n) is int and h == UnitSubgroup(7, (1, 2, 4))


def mul_closure(n, gens):
    """Reference: subgroup of (Z/nZ)^x generated by gens, by BFS."""
    identity = 1 % n
    out = {identity}
    frontier = [identity]
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


def all_subgroups_by_pair_closure(u):
    """Reference lattice: cyclic subgroups closed under pairwise join,
    re-joining every pair until nothing new appears."""
    n = u.n
    found = {}
    for g in u.units:
        sub = mul_closure(n, (g,))
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
                joined = mul_closure(n, g1 + g2)
                if joined not in found:
                    found[joined] = g1 + g2
                    changed = True
    subs = [UnitSubgroup(n, tuple(sorted(s))) for s in found]
    subs.sort(key=lambda h: (len(h.elements), h.elements))
    return tuple(subs)


def subgroup_lattice_by_callback(elements, op, identity):
    """Reference lattice: the cyclic subgroups of a finite abelian group,
    closed under join with a cyclic one, each join built element by element
    as the union of the cosets x.A through the group operation op."""
    cyclics = []
    done = set()
    for g in elements:
        if g in done:
            continue
        powers = [identity]
        x = g
        while x != identity:
            powers.append(x)
            x = op(x, g)
        m = len(powers)
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


def all_subgroups_by_callback(u):
    n = u.n
    subs = [
        UnitSubgroup(n, tuple(sorted(s)))
        for s in subgroup_lattice_by_callback(u.units, lambda a, b: a * b % n, 1 % n)
    ]
    subs.sort(key=lambda h: (len(h.elements), h.elements))
    return tuple(subs)


def all_subgroups_one_lattice(u):
    """Reference: one join closure over every axis of the unit group at once,
    each subgroup checked by the UnitSubgroup constructor."""
    n = u.n
    axes = _unit_axes(n)
    units = [1 % n]
    for m, g in axes:
        units = [x * pow(g, c, n) % n for x in units for c in range(m)]
    subs = []
    for mask in _subgroup_lattice([m for m, _ in axes]):
        bits = bin(mask)[:1:-1]
        subs.append(UnitSubgroup(n, tuple(sorted(x for x, b in zip(units, bits) if b == "1"))))
    subs.sort(key=lambda h: (len(h.elements), h.elements))
    return tuple(subs)


def orbit_partition_by_least_member(h):
    """Reference: each orbit keyed on its least member, renumbered by the constructor."""
    n = h.n
    labels = [-1] * n
    for x in range(n):
        if labels[x] < 0:
            for u in h.elements:
                labels[(x * u) % n] = x
    return SchurPartition(tuple(labels))


def mask_members(mask):
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def test_subgroup_lattice_matches_callback_reference():
    # every oracle shape Z_{r^k} x Z_{r^ell} of order <= 256, and shapes
    # that are not p-groups, compared subgroup by subgroup; an element is
    # its mixed-radix index, the last axis fastest
    shapes = [
        (r**k, r**ell)
        for r in range(2, 257)
        if is_prime(r)
        for k in range(9)
        for ell in range(9)
        if r ** (k + ell) <= 256
    ]
    shapes += [(6,), (2, 6), (6, 6), (3, 12), (2, 2, 3), (4, 6), (10, 15)]
    for orders in shapes:

        def add(x, y):
            out, place = 0, 1
            for m in reversed(orders):
                out += (x // place + y // place) % m * place
                place *= m
            return out

        masks = _subgroup_lattice(orders)
        expected = subgroup_lattice_by_callback(range(prod(orders)), add, 0)
        assert len(masks) == len(set(masks)), orders
        assert {mask_members(m) for m in masks} == set(expected), orders


def test_all_subgroups_matches_pair_closure_reference():
    # covers unit groups of rank >= 3 (n = 24, 120, 168, ...) that no
    # closed form reaches
    for n in range(1, 201):
        u = unit_group(n)
        assert all_subgroups(u) == all_subgroups_by_pair_closure(u), n
    # larger unit groups of 2-rank 4, against the element-wise join
    for n in (240, 480, 720):
        u = unit_group(n)
        assert all_subgroups(u) == all_subgroups_by_callback(u), n


def test_all_subgroups_matches_one_lattice_reference():
    # the product of per-prime lattices against one lattice over the whole group
    u = unit_group(840)
    assert all_subgroups(u) == all_subgroups_one_lattice(u)


@pytest.mark.slow
@pytest.mark.parametrize("n", [1008, 1680, 2520])
def test_all_subgroups_matches_one_lattice_reference_at_larger_n(n):
    u = unit_group(n)
    assert all_subgroups(u) == all_subgroups_one_lattice(u), n


def test_trusted_constructors_match_the_checked_ones():
    # all_subgroups skips UnitSubgroup's checks and orbit_partition skips the
    # renumbering; rebuilding each through the public constructor re-runs them
    for n in [*range(1, 201), 240, 480, 720, 840]:
        for h in all_subgroups(unit_group(n)):
            assert h == UnitSubgroup(n, h.elements), (n, h)
            p = orbit_partition(h)
            assert p == orbit_partition_by_least_member(h), (n, h)
            assert SchurPartition(p.labels).labels == p.labels, (n, h)


def check_axis_orders(n, axes):
    assert prod(m for m, _ in axes) == euler_phi(n), n
    # prime-power orders, ordered by prime: all_subgroups groups them by prime
    primes = [p for m, _ in axes for p, _ in factorize(m)]
    assert len(primes) == len(axes) and primes == sorted(primes), (n, axes)
    for m, g in axes:
        assert m > 1 and gcd(g, n) == 1, (n, m, g)
        # g has order exactly m: g^m = 1 and g^(m/p) != 1 for each prime p | m
        assert pow(g, m, n) == 1 % n, (n, m, g)
        assert all(pow(g, m // p, n) != 1 for p, _ in factorize(m)), (n, m, g)


def test_unit_axes_decompose_the_unit_group():
    for n in range(1, 2001):
        axes = _unit_axes(n)
        check_axis_orders(n, axes)
        products = [1 % n]
        for m, g in axes:
            products = [x * pow(g, c, n) % n for x in products for c in range(m)]
        assert sorted(products) == list(unit_group(n).units), n


def test_unit_axes_lift_a_primitive_root_that_fails_mod_p_squared():
    # 5 is the least primitive root mod 40487, but 5^40486 = 1 mod 40487^2
    p = 40487
    assert pow(5, p - 1, p * p) == 1
    for n in (p * p, 8 * p**3):
        check_axis_orders(n, _unit_axes(n))


def test_all_subgroups_rejects_a_hand_built_unit_group():
    with pytest.raises(ValueError):
        all_subgroups(UnitGroup(12, (1, 5)))
    with pytest.raises(ValueError):
        all_subgroups(UnitGroup(7, (1, 2, 3, 4, 5, 6, 8)))
    assert all_subgroups(UnitGroup(12, (1, 5, 7, 11))) == all_subgroups(unit_group(12))


def test_all_subgroups_counts():
    assert len(all_subgroups(unit_group(21))) == 10
    assert len(all_subgroups(unit_group(12))) == 5


def test_all_subgroups_contains_extremes():
    for n in (5, 12, 21, 30):
        u = unit_group(n)
        subs = all_subgroups(u)
        elements = {h.elements for h in subs}
        assert (1,) in elements
        assert u.units in elements


def test_all_subgroups_deterministic_order():
    subs = all_subgroups(unit_group(21))
    sizes = [len(h.elements) for h in subs]
    assert sizes == sorted(sizes)
    assert subs == all_subgroups(unit_group(21))


def test_orbit_partition_examples():
    from schur.constructions import discrete_ring, trivial_ring

    assert orbit_partition(UnitSubgroup(7, (1,))) == discrete_ring(7)
    assert orbit_partition(UnitSubgroup(7, tuple(range(1, 7)))) == trivial_ring(7)
    plus_minus = orbit_partition(UnitSubgroup(7, (1, 6)))
    assert plus_minus.classes == ((0,), (1, 6), (2, 5), (3, 4))


def test_orbit_partitions_satisfy_axioms_up_to_100():
    for n in range(1, 101):
        for h in all_subgroups(unit_group(n)):
            assert is_schur_partition(orbit_partition(h)), (n, h)


def test_orbit_partition_injective_on_subgroups():
    for n in range(1, 101):
        subs = all_subgroups(unit_group(n))
        rings = {orbit_partition(h) for h in subs}
        assert len(rings) == len(subs), n
        # the reason: the orbit of 1 is the subgroup itself
        if n > 1:
            for h in subs:
                assert orbit_partition(h).classes[1] == h.elements


def test_larger_subgroup_gives_coarser_partition():
    for n in (12, 21, 30):
        subs = all_subgroups(unit_group(n))
        for h in subs:
            for k in subs:
                if set(h.elements) <= set(k.elements):
                    fine = orbit_partition(h)
                    coarse = orbit_partition(k)
                    for c in fine.classes:
                        assert len({coarse.labels[x] for x in c}) == 1


def test_automorphic_rings_come_in_classes_order():
    # sorting the subgroups by elements sorts their orbit partitions by classes
    for n in [*range(1, 301), 840]:
        rings = automorphic_rings(n)
        classes = [r.classes for r in rings]
        assert classes == sorted(set(classes)), n


def test_automorphic_rings_counts():
    assert len(automorphic_rings(21)) == 10
    assert len(automorphic_rings(3)) == 2
    for n in range(1, 101):
        assert len(set(automorphic_rings(n))) == len(all_subgroups(unit_group(n))), n


def test_subgroup_lattice_size_examples():
    assert subgroup_lattice_size(2, 1, 1) == 5
    assert subgroup_lattice_size(2, 2, 1) == 8
    assert subgroup_lattice_size(3, 0, 1) == 2
    with pytest.raises(ValueError):
        subgroup_lattice_size(4, 1, 1)


def test_subgroup_lattice_size_matches_brute_force_spot():
    for r, k, ell in [(2, 1, 1), (2, 2, 1), (2, 3, 2), (3, 1, 1), (3, 2, 1), (5, 1, 1), (7, 1, 0)]:
        assert subgroup_lattice_size(r, k, ell) == brute_force_subgroup_count(r, k, ell)


def test_aut_subgroup_count_examples():
    assert aut_subgroup_count(21) == 10
    assert aut_subgroup_count(12) == 5
    # for n = 4p the count is (3k+2)x/(k+1)
    for p in (3, 5, 7, 11, 13):
        k, _ = two_adic_split(p - 1)
        x = divisor_count(p - 1)
        assert aut_subgroup_count(4 * p) == (3 * k + 2) * x // (k + 1)


def test_aut_subgroup_count_matches_closure_enumeration_for_semiprimes():
    # the semiprimes up to 100, plus the 4p moduli up to 200
    four_p = [4 * p for p in range(3, 51) if is_prime(p)]
    for n in [m for m in range(2, 101) if semiprime_factors(m) is not None] + four_p:
        assert aut_subgroup_count(n) == len(all_subgroups(unit_group(n))), n


def test_aut_subgroup_count_over_its_whole_domain():
    # the closed form either matches the lattice or refuses, naming the rank
    refused = []
    for n in range(1, 1001):
        try:
            count = aut_subgroup_count(n)
        except ValueError as err:
            assert "rank" in str(err), n
            refused.append(n)
        else:
            assert count == len(all_subgroups(unit_group(n))), n
    assert len(refused) == 253 and refused[:3] == [24, 40, 48]


def test_aut_subgroup_count_rejects_high_rank():
    with pytest.raises(ValueError):
        aut_subgroup_count(24)  # Aut(Z_24) has 2-rank 3
