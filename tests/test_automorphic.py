import pytest

from schur.automorphic import (
    UnitSubgroup,
    all_subgroups,
    aut_subgroup_count,
    automorphic_rings,
    orbit_partition,
    subgroup_lattice_size,
    unit_group,
)
from schur.brute_force import brute_force_subgroup_count
from schur.core import is_schur_partition
from schur.formulas import divisor_count, euler_phi, semiprime_factors, two_adic_split


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
    for n in range(2, 101):
        if semiprime_factors(n) is not None:
            assert aut_subgroup_count(n) == len(all_subgroups(unit_group(n))), n


def test_aut_subgroup_count_rejects_high_rank():
    with pytest.raises(ValueError):
        aut_subgroup_count(24)  # Aut(Z_24) has 2-rank 3
