import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from schur.automorphic import aut_subgroup_count, orbit_partition, unit_group, UnitSubgroup
from schur.brute_force import brute_force_schur_rings
from schur.cli import _json_pieces
from schur.constructions import discrete_ring, find_wedge_section, trivial_ring
from schur.core import is_schur_partition
from schur.enumeration import (
    core_census,
    enumerate_rings,
    indecomposable_count,
    ring_count,
)
from schur.formulas import count_semiprime


def test_ring_count_examples():
    assert ring_count(3) == 2
    assert ring_count(7) == 4
    assert ring_count(21) == 27
    assert ring_count(12) == 32
    assert ring_count(6) == 7
    assert ring_count(91) == 97
    assert ring_count(1) == 1


def test_every_enumerated_ring_is_schur():
    for n in (8, 12, 18, 21):
        for ring in enumerate_rings(n).rings:
            assert is_schur_partition(ring)


def test_rings_are_distinct_and_sorted():
    result = enumerate_rings(12)
    assert len(set(result.rings)) == len(result.rings)
    keys = [r.sort_key() for r in result.rings]
    assert len(set(keys)) == len(keys)
    assert keys == sorted(keys)


def test_contains_trivial_and_discrete():
    for n in range(1, 31):
        rings = set(enumerate_rings(n).rings)
        assert trivial_ring(n) in rings
        assert discrete_ring(n) in rings


def test_family_tags_for_semiprime():
    result = enumerate_rings(21)
    tags = result.tags
    assert sum("automorphic" in t for t in tags) == 10
    assert sum("wedge" in t and "automorphic" not in t for t in tags) == 16
    assert sum("trivial" in t for t in tags) == 1
    # direct products over Z_21 are all automorphic
    for t in tags:
        if "direct" in t:
            assert "automorphic" in t


def test_wedge_tag_equals_decomposability():
    # the wedge loop is complete: a ring carries the wedge tag exactly when
    # the independent section detector splits it; the census relies on it,
    # taking every ring without the tag as its own core
    for n in (12, 21, 30, 48, 60, 72):
        result = enumerate_rings(n)
        for ring, tags in zip(result.rings, result.tags):
            assert ("wedge" in tags) == (find_wedge_section(ring) is not None), (n, ring)


def test_cores_read_off_the_build_match_wedge_core():
    # the census takes a wedge's core from its left factor's build record
    from schur import enumeration
    from schur.constructions import wedge_core

    for n in range(1, 49):
        result = enumerate_rings(n)
        record = enumeration._CACHE[n]
        assert len(record) == result.omega and set(record) == set(result.rings)
        assert [enumeration._TAG_SETS[record[r][0]] for r in result.rings] == list(result.tags)
        for ring, (_, core) in record.items():
            assert core == wedge_core(ring), (n, ring)


def test_direct_tag_equals_product_reconstruction():
    from math import gcd

    from schur.constructions import direct_product
    from schur.core import restrict, s_subgroups

    for n in (12, 21, 30):
        result = enumerate_rings(n)
        for ring, tags in zip(result.rings, result.tags):
            splittable = False
            subs = s_subgroups(ring)
            for a in subs:
                b = n // a
                if 1 < a < n and gcd(a, b) == 1 and b in subs:
                    if direct_product(restrict(ring, a), restrict(ring, b)) == ring:
                        splittable = True
                        break
            assert ("direct" in tags) == splittable, (n, ring)


def test_products_of_automorphic_rings_are_automorphic():
    # the lemma behind the count path's skip: under CRT, orbit(H_a) x
    # orbit(H_b) is orbit(H_a x H_b)
    from schur.automorphic import automorphic_rings
    from schur.constructions import direct_product
    from schur.enumeration import _coprime_splits

    for n in range(2, 201):
        rings = set(automorphic_rings(n))
        for a, b in _coprime_splits(n):
            for s in automorphic_rings(a):
                for t in automorphic_rings(b):
                    assert direct_product(s, t) in rings, (n, s, t)


def test_known_named_rings_present():
    rings21 = set(enumerate_rings(21).rings)
    five = UnitSubgroup(21, (1, 4, 5, 16, 17, 20))
    assert orbit_partition(five) in rings21
    assert orbit_partition(UnitSubgroup(21, (1, 20))) in rings21
    assert trivial_ring(21) in rings21


def test_core_census_12():
    totals: dict[int, int] = {}
    for core, count in core_census(12).items():
        totals[core.n] = totals.get(core.n, 0) + count
    assert totals == {2: 7, 3: 6, 4: 6, 6: 7, 12: 6}
    assert sum(totals.values()) == 32


def test_census_counts_sum_to_omega():
    for n in (6, 10, 12, 20, 21):
        assert sum(core_census(n).values()) == ring_count(n)


def test_indecomposable_counts():
    assert indecomposable_count(6) == 3
    assert indecomposable_count(12) == 6
    for p in (5, 7, 11, 13):
        assert indecomposable_count(p) == ring_count(p)


def test_indecomposable_matches_direct_scan():
    for n in (6, 12, 20):
        direct = sum(
            find_wedge_section(r) is None for r in enumerate_rings(n).rings
        )
        assert indecomposable_count(n) == direct


def test_non_integer_modulus_is_refused_after_a_warm_memo():
    # 4.0 == 4 hashes alike, so a memo lookup before the check answered it
    enumerate_rings(4)
    for call, bad, shown in (
        (enumerate_rings, 4.0, "4.0"),
        (enumerate_rings, "4", "'4'"),
        (unit_group, 6.0, "6.0"),
    ):
        with pytest.raises(ValueError, match=f"expected an integer, got {shown}"):
            call(bad)


def test_constructors_refuse_a_non_integer_modulus():
    # range(), list repetition, pow() and gcd() raised TypeError on these, naming no value
    for call, bad in (
        (trivial_ring, 4.0),
        (discrete_ring, 4.0),
        (brute_force_schur_rings, 6.0),
        (aut_subgroup_count, 12.0),
        (lambda n: UnitSubgroup(n, (1, 2, 4)), 7.0),
    ):
        with pytest.raises(ValueError, match=f"expected an integer, got {bad}"):
            call(bad)


def test_oracle_agreement_small():
    for n in range(1, 11):
        assert set(brute_force_schur_rings(n)) == set(enumerate_rings(n).rings)


def test_formula_agreement_spot():
    assert ring_count(15) == count_semiprime(3, 5) == 21
    assert ring_count(35) == count_semiprime(5, 7) == 41


def test_enumeration_scales_past_acceptance_range():
    # no closed form applies at n = 64; the count is a regression pin from
    # this generator, the rest is structural sanity
    result = enumerate_rings(64)
    assert result.omega == 657
    assert all(is_schur_partition(r) for r in result.rings)
    assert sum(cnt for _, cnt in result.core_census) == result.omega


def test_json_output_schema():
    data = json.loads("".join(_json_pieces(enumerate_rings(6))))
    assert data["n"] == 6
    assert data["omega"] == 7
    assert len(data["rings"]) == 7
    assert len(data["tags"]) == 7
    for entry in data["core_census"]:
        assert set(entry) == {"core", "order", "count"}
        assert entry["order"] == entry["core"]["n"]
    assert sum(e["count"] for e in data["core_census"]) == 7
    for ring in data["rings"]:
        assert set(ring) == {"n", "classes"}


def _reference_enumeration(n, keep_left, keep_right):
    # the pairing of enumerate_rings with the wedge filters passed in, and the
    # census from wedge_core; the library supplies the rings of the smaller
    # moduli. keep_left(s, k, h) and keep_right(t, k, h) see S-subgroup k of S
    # on Z_h and S-subgroup h/k of T on Z_{n/k}
    from schur.automorphic import automorphic_rings
    from schur.constructions import Section, direct_product, wedge_core, wedge_product
    from schur.core import SchurPartition, quotient, restrict, s_subgroups
    from schur.enumeration import _coprime_splits, _proper_sections

    found = {}

    def add(ring, tag):
        found.setdefault(ring, set()).add(tag)

    add(trivial_ring(n), "trivial")
    for ring in automorphic_rings(n):
        add(ring, "automorphic")
    for a, b in _coprime_splits(n):
        for s in enumerate_rings(a).rings:
            for t in enumerate_rings(b).rings:
                add(direct_product(s, t), "direct")
    for k, h in _proper_sections(n):
        lefts = [
            (s, quotient(s, k))
            for s in enumerate_rings(h).rings
            if k in s_subgroups(s) and keep_left(s, k, h)
        ]
        rights = {}
        for t in enumerate_rings(n // k).rings:
            if h // k in s_subgroups(t) and keep_right(t, k, h):
                rights.setdefault(restrict(t, h // k), []).append(t)
        for s, pushed in lefts:
            for t in rights.get(pushed, ()):
                add(wedge_product(s, t, Section(k, h), n), "wedge")
    rings = tuple(sorted(found, key=SchurPartition.sort_key))
    census = {}
    for ring in rings:
        core = wedge_core(ring)
        census[core] = census.get(core, 0) + 1
    return rings, tuple(frozenset(found[r]) for r in rings), census


def _enumerate_without_wedge_filter(n):
    # every (k, h) pairs every S on Z_h with every T on Z_{n/k} that agree on
    # the section
    return _reference_enumeration(n, lambda s, k, h: True, lambda t, k, h: True)


def _keep_left_h_minimal(s, k, h):
    from schur.core import _splits_along, s_subgroups
    from schur.formulas import divisors

    subs = s_subgroups(s)
    return not any(
        d in subs and _splits_along(s.labels, k, d) for d in divisors(h) if d % k == 0 and d < h
    )


def _keep_right_k_maximal_for_h(t, k, h):
    # T splitting along (j, h/k) is R splitting along (jk, h)
    from schur.core import _splits_along, s_subgroups
    from schur.formulas import divisors

    subs = s_subgroups(t)
    return not any(j in subs and _splits_along(t.labels, j, h // k) for j in divisors(h // k)[1:])


def _enumerate_with_k_maximal_for_h(n):
    # the earlier filter pair: h minimal for k, and k maximal for h only,
    # not over all sections above (k, h)
    return _reference_enumeration(n, _keep_left_h_minimal, _keep_right_k_maximal_for_h)


def check_unfiltered_pairing_at(moduli):
    # the build and the count path share the _rivals tie-break of _pairs, so
    # neither checks it against the other; every S with every T does
    for n in moduli:
        rings, tags, census = _enumerate_without_wedge_filter(n)
        result = enumerate_rings(n)
        assert result.rings == rings, n
        assert result.tags == tags, n
        assert dict(result.core_census) == census, n


def test_canonical_sections_match_unfiltered_pairing():
    # the three least n where two kept sections of one ring join only at n,
    # so the tie-break alone keeps the ring from being built twice
    check_unfiltered_pairing_at((36, 60, 72))


def test_k_maximal_over_all_sections_matches_k_maximal_for_h():
    for n in (60, 72):
        rings, tags, census = _enumerate_with_k_maximal_for_h(n)
        result = enumerate_rings(n)
        assert result.rings == rings
        assert result.tags == tags
        assert dict(result.core_census) == census


def test_canonical_sections_cut_wedge_builds(monkeypatch):
    from schur import enumeration

    calls = []
    build = enumeration.wedge_product

    def counted(*args):
        calls.append(args[3])
        return build(*args)

    monkeypatch.setattr(enumeration, "_CACHE", {})
    monkeypatch.setattr(enumeration, "wedge_product", counted)
    # each wedge-tagged ring is built once at the top level: at n = 48 by the
    # canonical sections alone (k maximal for h only built 1,876; the
    # unfiltered pairing 6,378 wedges in all, sub-moduli included), at 36 and
    # 72 by the _rivals tie-break too (without it, 282 and 2,403)
    for n, omega, wedge_tagged in ((48, 1033, 1019), (36, 284, 276), (72, 2311, 2293)):
        result = enumerate_rings(n)
        assert result.omega == omega
        assert calls.count(n) == sum("wedge" in t for t in result.tags) == wedge_tagged, n


# the child's own peak RSS in MiB: on Linux ru_maxrss carries over the peak of
# the process that spawned the child, so read VmHWM there; elsewhere read
# ru_maxrss (bytes on darwin, KiB otherwise)
PRINT_PEAK_MIB = (
    "import os, resource, sys\n"
    "if os.path.exists('/proc/self/status'):\n"
    "    with open('/proc/self/status') as status:\n"
    "        peak = next(int(s.split()[1]) for s in status if s.startswith('VmHWM:')) / 2**10\n"
    "else:\n"
    "    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
    "    peak /= 2**20 if sys.platform == 'darwin' else 2**10\n"
    "print(peak)\n"
)


def child_peak_mib(script):
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run(
        [sys.executable, "-c", script + PRINT_PEAK_MIB],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    return float(out.stdout)


@pytest.mark.slow
@pytest.mark.parametrize(
    "check", ["enumerate_rings(144).omega == 21451", "ring_count(240) == 107165"]
)
def test_cold_enumeration_at_144_stays_small(check):
    # one byte per label and one cached sort key per ring, no class tuples:
    # about 31 MiB peak RSS, where tuple labels and cached classes took 110;
    # the count at 240 holds the build records of its proper divisors alone
    peak = child_peak_mib(
        f"from schur.enumeration import enumerate_rings, ring_count\nassert {check}\n"
    )
    assert peak <= 50, peak


@pytest.mark.slow
def test_child_peak_reader_sees_a_real_peak():
    # the guard's reader still catches a child that touches 64 MiB itself
    assert child_peak_mib("block = bytearray(b'\\1') * (64 << 20)\n") >= 64


def check_count_path_to(top, monkeypatch):
    # one shared memo, n ascending: the count path reads its proper divisors'
    # build records and counts n itself, before enumerate_rings builds n
    from schur import enumeration

    monkeypatch.setattr(enumeration, "_CACHE", {})
    for n in range(1, top + 1):
        census = list(core_census(n).items())
        omega, indecomposable = ring_count(n), indecomposable_count(n)
        assert n not in enumeration._CACHE
        result = enumerate_rings(n)
        assert census == list(result.core_census), n
        assert omega == result.omega, n
        assert indecomposable == sum(c for core, c in result.core_census if core.n == n), n


def test_count_path_equals_enumeration_to_96(monkeypatch):
    check_count_path_to(96, monkeypatch)


@pytest.mark.slow
def test_count_path_equals_enumeration_to_240(monkeypatch):
    check_count_path_to(240, monkeypatch)


def test_count_path_builds_no_wedge_over_n(monkeypatch):
    from schur import enumeration
    from schur.core import SchurPartition
    from schur.formulas import count_4p

    calls, keyed = [], []
    build, sort_key = enumeration.wedge_product, SchurPartition.sort_key

    def counted(*args):
        calls.append(args[3])
        return build(*args)

    def counted_key(p):
        keyed.append(p.n)
        return sort_key(p)

    monkeypatch.setattr(enumeration, "_CACHE", {})
    monkeypatch.setattr(enumeration, "wedge_product", counted)
    monkeypatch.setattr(SchurPartition, "sort_key", counted_key)
    # a semiprime, a 4p, and n = 48 and 72, where enumerate_rings builds one
    # wedge per wedge-tagged ring: 1,019 over Z_48 and 2,293 over Z_72
    for n, omega in ((187, count_semiprime(11, 17)), (52, count_4p(13)), (48, 1033), (72, 2311)):
        assert ring_count(n) == omega
        assert 0 < indecomposable_count(n) < omega
        assert n not in calls and n not in enumeration._CACHE
        # counting sorts nothing: no ring of any modulus gets a sort key
        assert keyed == []
    assert calls  # the proper divisors were built as before


def test_count_path_ignores_the_memo_and_checks_its_input(monkeypatch):
    from schur import enumeration

    monkeypatch.setattr(enumeration, "_CACHE", {})
    cold = list(enumerate_rings(12).core_census)
    # a wrong build record for n itself is neither read nor replaced by the count path
    planted = {trivial_ring(12): (1, trivial_ring(5))}
    enumeration._CACHE[12] = planted
    memo = dict(enumeration._CACHE)
    assert ring_count(12) == 32
    assert list(core_census(12).items()) == cold
    assert indecomposable_count(12) == sum(c for core, c in cold if core.n == 12)
    for call in (ring_count, core_census, indecomposable_count):
        for bad, message in ((0, "modulus must be positive, got 0"), (12.0, "expected an integer")):
            with pytest.raises(ValueError, match=message):
                enumerate_rings(bad)
            with pytest.raises(ValueError, match=message):
                call(bad)
    assert enumeration._CACHE == memo and enumeration._CACHE[12] is planted


@pytest.mark.slow
def test_canonical_sections_match_unfiltered_pairing_to_144():
    # every other n <= 144 where the tie-break decides; about 16 s, 10 of it at
    # 144. It lifts pytest to about 94 MiB, which the memory guards' children do
    # not inherit, as they read their own VmHWM
    check_unfiltered_pairing_at((84, 90, 100, 108, 120, 126, 132, 140, 144))
