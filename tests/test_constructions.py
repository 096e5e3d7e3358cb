import pytest

from schur.automorphic import UnitSubgroup, automorphic_rings, orbit_partition
from schur.constructions import (
    Section,
    direct_product,
    discrete_ring,
    find_wedge_section,
    trivial_ring,
    wedge_compatible,
    wedge_core,
    wedge_product,
)
from schur.core import SchurPartition, is_schur_partition, quotient, restrict, s_subgroups
from schur.enumeration import enumerate_rings


def test_section_validation():
    Section(2, 4)
    Section(3, 3)
    for k, h in ((3, 4), (2, 0), (2, -4), (3, -3)):
        with pytest.raises(ValueError, match="section requires positive k"):
            Section(k, h)
    for k, h in ((2.0, 4), (2, 4.0)):
        with pytest.raises(ValueError, match="expected an integer"):
            Section(k, h)
    assert Section(2, 4).is_proper_in(12)
    assert not Section(2, 4).is_proper_in(4)


def test_trivial_ring():
    assert trivial_ring(6) == SchurPartition.from_sets(6, [{0}, {1, 2, 3, 4, 5}])
    assert trivial_ring(1) == SchurPartition.from_sets(1, [{0}])
    assert is_schur_partition(trivial_ring(10))


def test_trivial_ring_is_only_primitive_for_composite_n():
    # primitive here means: no S-subgroups besides 1 and n
    for n in (6, 8, 9, 10, 12):
        primitive = [
            r for r in enumerate_rings(n).rings if s_subgroups(r) == (1, n)
        ]
        assert primitive == [trivial_ring(n)]


def test_direct_product_examples():
    assert direct_product(discrete_ring(3), discrete_ring(7)) == discrete_ring(21)
    z6pm = direct_product(discrete_ring(2), trivial_ring(3))
    assert z6pm.classes == ((0,), (1, 5), (2, 4), (3,))
    assert z6pm == orbit_partition(UnitSubgroup(6, (1, 5)))


def test_direct_product_symmetric_and_coprime_only():
    s, t = trivial_ring(4), discrete_ring(3)
    assert direct_product(s, t) == direct_product(t, s)
    with pytest.raises(ValueError):
        direct_product(discrete_ring(4), discrete_ring(6))


def test_direct_product_identity_factor():
    one = SchurPartition.from_sets(1, [{0}])
    assert direct_product(one, discrete_ring(5)) == discrete_ring(5)


def test_direct_product_automorphic_iff_both_factors_are():
    autos30 = set(automorphic_rings(30))
    autos6 = set(automorphic_rings(6))
    autos5 = set(automorphic_rings(5))
    for s in enumerate_rings(6).rings:
        for t in enumerate_rings(5).rings:
            prod = direct_product(s, t)
            assert (prod in autos30) == (s in autos6 and t in autos5)


def test_wedge_product_examples():
    w = wedge_product(trivial_ring(3), trivial_ring(7), Section(3, 3), 21)
    assert w.classes == (
        (0,),
        (1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 15, 16, 17, 18, 19, 20),
        (7, 14),
    )
    assert is_schur_partition(w)

    z6pm = direct_product(discrete_ring(2), trivial_ring(3))
    w2 = wedge_product(discrete_ring(4), z6pm, Section(2, 4), 12)
    assert is_schur_partition(w2)
    assert w2 in set(enumerate_rings(12).rings)


def test_wedge_compatibility_failure():
    # trivial Z_6 has no subring on the order-2 subgroup
    assert s_subgroups(trivial_ring(6)) == (1, 6)
    assert not wedge_compatible(discrete_ring(4), trivial_ring(6), Section(2, 4), 12)
    with pytest.raises(ValueError, match="order-2 subgroup is not an S-subgroup"):
        wedge_product(discrete_ring(4), trivial_ring(6), Section(2, 4), 12)
    # the pushforward of this non-Schur partition by 2 is no partition: the
    # classes {1,5} and {2} meet in different cosets of the order-2 subgroup
    s = SchurPartition.from_sets(6, [{0}, {3}, {1, 5}, {2}, {4}])
    assert not wedge_compatible(s, discrete_ring(6), Section(2, 6), 12)
    # a pair compatible in Z_12 only: (2, 4) is not proper in Z_7 or Z_4, and
    # in Z_100 or Z_24 the right factor would live on Z_50 or Z_12
    z6pm = direct_product(discrete_ring(2), trivial_ring(3))
    assert wedge_compatible(discrete_ring(4), z6pm, Section(2, 4), 12)
    for n in (100, 7, 24, 4):
        assert not wedge_compatible(discrete_ring(4), z6pm, Section(2, 4), n), n
    assert not wedge_compatible(discrete_ring(2), z6pm, Section(2, 4), 12)
    with pytest.raises(ValueError, match="12.0"):
        wedge_compatible(discrete_ring(4), z6pm, Section(2, 4), 12.0)
    # wedge_compatible means wedge_product accepts: both factors fit, Z_n does not
    d257, d1021 = discrete_ring(257), discrete_ring(1021)
    assert not wedge_compatible(d257, d1021, Section(257, 257), 257 * 1021)


def test_wedge_rejects_bad_shapes():
    cases = [
        (discrete_ring(3), discrete_ring(7), Section(3, 3), 22),
        (discrete_ring(3), discrete_ring(3), Section(3, 3), 21),
        # section (1, h) is never proper
        (discrete_ring(3), discrete_ring(21), Section(1, 3), 21),
    ]
    for case in cases:
        with pytest.raises(ValueError):
            wedge_product(*case)
        assert not wedge_compatible(*case)


def test_wedge_round_trip():
    for s_ring in enumerate_rings(4).rings:
        for t_ring in enumerate_rings(6).rings:
            section = Section(2, 4)
            if wedge_compatible(s_ring, t_ring, section, 12):
                w = wedge_product(s_ring, t_ring, section, 12)
                assert restrict(w, 4) == s_ring
                assert quotient(w, 2) == t_ring


def test_same_partition_from_two_sections():
    z2, z3, z4 = discrete_ring(2), discrete_ring(3), discrete_ring(4)
    z2_w_z3 = wedge_product(z2, z3, Section(2, 2), 6)
    via_2_4 = wedge_product(z4, z2_w_z3, Section(2, 4), 12)
    via_4_4 = wedge_product(z4, z3, Section(4, 4), 12)
    assert via_2_4 == via_4_4
    # with the discrete right factor on Z_6 the two sections differ
    assert wedge_product(z4, discrete_ring(6), Section(2, 4), 12) != via_4_4


def test_wedge_is_associative():
    z2, z3 = discrete_ring(2), discrete_ring(3)
    left = wedge_product(
        wedge_product(z2, z2, Section(2, 2), 4), z3, Section(4, 4), 12
    )
    right = wedge_product(
        z2, wedge_product(z2, z3, Section(2, 2), 6), Section(2, 2), 12
    )
    assert left == right


def test_wedge_count_and_non_automorphic_over_semiprime():
    # wedges over the two trivial sections of Z_21: 2 * 2 * 4 distinct rings,
    # none of them automorphic
    rings3 = enumerate_rings(3).rings
    rings7 = enumerate_rings(7).rings
    wedges = set()
    for s in rings3:
        for t in rings7:
            wedges.add(wedge_product(s, t, Section(3, 3), 21))
    for s in rings7:
        for t in rings3:
            wedges.add(wedge_product(s, t, Section(7, 7), 21))
    assert len(wedges) == 2 * len(rings3) * len(rings7)
    assert wedges.isdisjoint(set(automorphic_rings(21)))


def test_find_wedge_section_examples():
    assert find_wedge_section(trivial_ring(12)) is None
    w = wedge_product(discrete_ring(3), discrete_ring(7), Section(3, 3), 21)
    assert find_wedge_section(w) == Section(3, 3)
    assert find_wedge_section(discrete_ring(12)) is None


def test_wedge_core_examples():
    w = wedge_product(discrete_ring(4), discrete_ring(6), Section(2, 4), 12)
    assert wedge_core(w) == discrete_ring(4)
    assert wedge_core(trivial_ring(12)) == trivial_ring(12)


def test_wedge_core_is_maximal_indecomposable():
    for n in (12, 20):
        for ring in enumerate_rings(n).rings:
            core = wedge_core(ring)
            assert find_wedge_section(core) is None
            assert restrict(ring, core.n) == core
            for e in s_subgroups(ring):
                if e != core.n and e % core.n == 0:
                    assert find_wedge_section(restrict(ring, e)) is not None, (n, ring, e)


def wedge_by_refinement(s, t, u, n):
    """Reference wedge: common refinement of S extended by one off-H block
    and T pulled back along x -> x mod n/k."""
    m = n // u.k
    step_h = n // u.h
    groups = {}
    for x in range(n):
        inside = x % step_h == 0
        left = s.labels[x // step_h] if inside else -1
        right = t.labels[x % m]
        groups.setdefault((left, right), set()).add(x)
    return SchurPartition.from_sets(n, groups.values())


def test_wedge_output_is_schur_for_all_small_moduli():
    from schur.enumeration import _proper_sections

    for n in range(2, 31):
        for k, h in _proper_sections(n):
            section = Section(k, h)
            for s in enumerate_rings(h).rings:
                for t in enumerate_rings(n // k).rings:
                    if wedge_compatible(s, t, section, n):
                        w = wedge_product(s, t, section, n)
                        assert is_schur_partition(w)
                        assert w == wedge_by_refinement(s, t, section, n)


def test_constructors_refuse_large_n_before_allocating():
    import tracemalloc

    n = 2 * 10**6
    message = "a partition of Z_n needs 1 <= n <= 65535 residues, got {}"
    with pytest.raises(ValueError) as raised:
        SchurPartition(bytes(n))
    assert str(raised.value) == message.format(n)
    d257, d263, d1021 = map(discrete_ring, (257, 263, 1021))
    unit_one = UnitSubgroup(70001, (1,))
    calls = [
        (lambda: trivial_ring(n), n),
        (lambda: discrete_ring(n), n),
        (lambda: SchurPartition.from_sets(n, [range(n)]), n),
        # each factor fits, the product does not
        (lambda: direct_product(d257, d263), 257 * 263),
        (lambda: wedge_product(d257, d1021, Section(257, 257), 257 * 1021), 257 * 1021),
        (lambda: orbit_partition(unit_one), 70001),
    ]
    for call, size in calls:
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as raised:
                call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the same bound and message as SchurPartition, with nothing built first
        assert str(raised.value) == message.format(size), size
        assert peak < 2**20, (size, peak)
    # wedge_product reads its modulus as the other constructors do
    with pytest.raises(ValueError, match="expected an integer"):
        wedge_product(discrete_ring(4), discrete_ring(6), Section(2, 4), 12.0)
    assert trivial_ring(65535).n == discrete_ring(65535).n == 65535
