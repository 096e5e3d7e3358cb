"""Acceptance suite: every criterion prints one [PASS]/[FAIL] line.

Run with `pytest -s tests/test_acceptance.py` to see the report.
"""

import time
from math import gcd

from schur.automorphic import (
    UnitSubgroup,
    aut_subgroup_count,
    automorphic_rings,
    orbit_partition,
)
from schur.brute_force import brute_force_schur_rings, brute_force_subgroup_count
from schur.constructions import (
    Section,
    direct_product,
    discrete_ring,
    trivial_ring,
    wedge_compatible,
    wedge_product,
)
from schur.core import (
    check_schur_axioms,
    is_schur_partition,
    quotient,
    restrict,
)
from schur.enumeration import (
    _coprime_splits,
    _proper_sections,
    core_census,
    enumerate_rings,
    indecomposable_count,
    ring_count,
)
from schur.formulas import (
    count_2p,
    count_3p,
    count_4p,
    count_5p,
    count_semiprime,
    count_semiprime_split,
    divisor_count,
    four_p_factor,
    is_prime,
    semiprime_factors,
    subgroup_lattice_size,
    two_adic_split,
)

from _reference import count_semiprime_split_2j

SEMIPRIME_COUNTS = {
    6: 7, 10: 10, 14: 13, 15: 21, 21: 27, 22: 13,
    26: 19, 33: 27, 34: 16, 35: 41, 38: 19, 39: 41,
    46: 13, 51: 35, 55: 41, 57: 40, 58: 19, 62: 25,
    65: 67, 69: 27, 74: 28, 77: 53, 82: 25, 85: 60,
    86: 25, 87: 41, 91: 97, 93: 53, 94: 13, 95: 61,
}

FOUR_P_COUNTS = {12: 32, 20: 47, 28: 61, 44: 61, 52: 91, 68: 77, 76: 90, 92: 61}


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, f"{name}: {detail}"


def test_criterion_01_semiprime_table():
    t0 = time.perf_counter()
    computed = {}
    for n in range(2, 101):
        pq = semiprime_factors(n)
        if pq is not None:
            computed[n] = count_semiprime(*pq)
    dt = time.perf_counter() - t0
    _report(
        "1 semiprime closed form reproduces all 30 table rows",
        computed == SEMIPRIME_COUNTS and dt < 1.0,
        f"{len(computed)} rows in {dt:.3f}s",
    )


def test_criterion_02_four_p_table():
    t0 = time.perf_counter()
    computed = {}
    for n in range(4, 101, 4):
        p = four_p_factor(n)
        if p is not None:
            computed[n] = count_4p(p)
    dt = time.perf_counter() - t0
    _report(
        "2 4p closed form reproduces all 8 table rows",
        computed == FOUR_P_COUNTS and dt < 1.0,
        f"{len(computed)} rows in {dt:.3f}s",
    )


def test_criterion_03_enumeration_matches_closed_forms():
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for n, expected in SEMIPRIME_COUNTS.items():
        ok = ok and ring_count(n) == expected
        checked += 1
    for n, expected in FOUR_P_COUNTS.items():
        ok = ok and ring_count(n) == expected
        checked += 1
    dt = time.perf_counter() - t0
    _report(
        "3 constructive enumeration equals closed forms (n <= 100)",
        ok and dt < 60.0,
        f"{checked} moduli in {dt:.2f}s",
    )


def test_criterion_04_oracle_equals_enumeration():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 15):
        oracle = set(brute_force_schur_rings(n))
        ok = ok and oracle == set(enumerate_rings(n).rings)
    dt = time.perf_counter() - t0
    _report(
        "4 brute-force oracle equals enumeration for n = 1..14",
        ok and dt < 300.0,
        f"{dt:.2f}s",
    )


def _named_rings_21():
    z3_0, z3 = trivial_ring(3), discrete_ring(3)
    z7_0, z7 = trivial_ring(7), discrete_ring(7)
    z7_sq = orbit_partition(UnitSubgroup(7, (1, 2, 4)))
    z7_pm = orbit_partition(UnitSubgroup(7, (1, 6)))
    rings3 = [z3_0, z3]
    rings7 = [z7_0, z7_sq, z7_pm, z7]
    named = []
    for s in rings3:
        for t in rings7:
            named.append(wedge_product(s, t, Section(3, 3), 21))
    for s in rings7:
        for t in rings3:
            named.append(wedge_product(s, t, Section(7, 7), 21))
    for s in rings3:
        for t in rings7:
            named.append(direct_product(s, t))
    named.append(trivial_ring(21))
    named.append(orbit_partition(UnitSubgroup(21, (1, 4, 5, 16, 17, 20))))
    named.append(orbit_partition(UnitSubgroup(21, (1, 20))))
    return named


def _named_rings_12():
    z2 = discrete_ring(2)
    z3_0, z3 = trivial_ring(3), discrete_ring(3)
    z4_0, z4 = trivial_ring(4), discrete_ring(4)
    z2w2 = wedge_product(z2, z2, Section(2, 2), 4)
    z6_0, z6 = trivial_ring(6), discrete_ring(6)
    z6_pm = direct_product(z2, z3_0)
    z2w_z3_0 = wedge_product(z2, z3_0, Section(2, 2), 6)
    z2w_z3 = wedge_product(z2, z3, Section(2, 2), 6)
    z3_0w_z2 = wedge_product(z3_0, z2, Section(3, 3), 6)
    z3w_z2 = wedge_product(z3, z2, Section(3, 3), 6)
    rings6 = [z2w_z3_0, z2w_z3, z3_0w_z2, z3w_z2, z6_0, z6_pm, z6]

    named = []
    for t in rings6:
        named.append(wedge_product(z2, t, Section(2, 2), 12))
    for s in (z3_0, z3):
        for t in (z4_0, z2w2, z4):
            named.append(wedge_product(s, t, Section(3, 3), 12))
    for t in (z3_0, z3):
        named.append(wedge_product(z4_0, t, Section(4, 4), 12))
    for t in (z2w_z3_0, z2w_z3, z6_pm, z6):
        named.append(wedge_product(z4, t, Section(2, 4), 12))
    for s in (z6_0, z6_pm, z6):
        named.append(wedge_product(s, z2, Section(6, 6), 12))
    named.append(wedge_product(z6_pm, z6_pm, Section(2, 6), 12))
    named.append(wedge_product(z6_pm, z4, Section(3, 6), 12))
    named.append(wedge_product(z6, z6, Section(2, 6), 12))
    named.append(wedge_product(z6, z4, Section(3, 6), 12))
    named.append(trivial_ring(12))
    named.append(direct_product(z4_0, z3_0))
    named.append(direct_product(z4_0, z3))
    named.append(direct_product(z4, z3_0))
    named.append(direct_product(z4, z3))
    named.append(orbit_partition(UnitSubgroup(12, (1, 11))))
    return named


def test_criterion_05_explicit_ring_lists():
    named21 = _named_rings_21()
    named12 = _named_rings_12()
    ok = (
        len(named21) == 27
        and len(set(named21)) == 27
        and set(named21) == set(enumerate_rings(21).rings)
        and len(named12) == 32
        and len(set(named12)) == 32
        and set(named12) == set(enumerate_rings(12).rings)
    )
    _report(
        "5 named ring lists for Z_21 and Z_12 match the enumeration",
        ok,
        "27 + 32 rings, all distinct",
    )


def test_criterion_06_semiprime_family_decomposition():
    ok = True
    for n in SEMIPRIME_COUNTS:
        p, q = semiprime_factors(n)
        result = enumerate_rings(n)
        automorphic = sum("automorphic" in t for t in result.tags)
        wedge_only = sum("wedge" in t and "automorphic" not in t for t in result.tags)
        trivial = sum("trivial" in t for t in result.tags)
        ok = (
            ok
            and automorphic == aut_subgroup_count(n)
            and wedge_only == 2 * divisor_count(p - 1) * divisor_count(q - 1)
            and trivial == 1
            and automorphic + wedge_only + trivial == result.omega
        )
    _report(
        "6 family decomposition holds for every semiprime <= 100",
        ok,
        "automorphic + 2xy wedges + 1 trivial",
    )


def test_criterion_07_subgroup_lattice_oracle():
    t0 = time.perf_counter()
    ok = True
    checked = 0
    primes = [r for r in range(2, 512) if is_prime(r)]
    for r in primes:
        max_total = 0
        while r ** (max_total + 1) <= 512:
            max_total += 1
        if max_total == 0:
            break
        for k in range(max_total + 1):
            for ell in range(max_total - k + 1):
                ok = ok and brute_force_subgroup_count(r, k, ell) == subgroup_lattice_size(r, k, ell)
                checked += 1
    dt = time.perf_counter() - t0
    _report(
        "7 subgroup-count closed form equals brute force up to order 512",
        ok and dt < 30.0,
        f"{checked} groups in {dt:.2f}s",
    )


def test_criterion_08_four_p_core_census():
    ok = True
    details = []
    for p in (3, 5, 7):
        n = 4 * p
        k, _ = two_adic_split(p - 1)
        x = divisor_count(p - 1)
        totals: dict[int, int] = {}
        for core, count in core_census(n).items():
            totals[core.n] = totals.get(core.n, 0) + count
        expected_inde = (3 * k + 2) * x // (k + 1) + 1
        expected = {2: 3 * x + 1, p: 3 * x, 4: 3 * x, 2 * p: 3 * x + 1, n: expected_inde}
        ok = (
            ok
            and totals == expected
            and indecomposable_count(n) == expected_inde
            and expected_inde == 1 + aut_subgroup_count(n)
            and totals[2] == count_2p(p)
        )
        details.append(f"n={n}:{totals}")
    _report("8 wedge-core census matches the 4p case analysis", ok, "; ".join(details))


def test_criterion_09_property_suite():
    ok = True
    for n in range(1, 31):
        for ring in enumerate_rings(n).rings:
            ok = ok and is_schur_partition(ring)
    for n in range(2, 31):
        known = set(enumerate_rings(n).rings)
        for a, b in _coprime_splits(n):
            for s in enumerate_rings(a).rings:
                for t in enumerate_rings(b).rings:
                    prod = direct_product(s, t)
                    ok = (
                        ok
                        and prod in known
                        and restrict(prod, a) == s
                        and restrict(prod, b) == t
                    )
        for k, h in _proper_sections(n):
            section = Section(k, h)
            for s in enumerate_rings(h).rings:
                for t in enumerate_rings(n // k).rings:
                    if not wedge_compatible(s, t, section, n):
                        continue
                    w = wedge_product(s, t, section, n)
                    ok = (
                        ok
                        and w in known
                        and restrict(w, h) == s
                        and quotient(w, k) == t
                    )
    _report(
        "9 axiom and round-trip properties hold for all constructions (n <= 30)",
        ok,
    )


def test_criterion_10_specialization_coherence():
    ok = True
    primes = [p for p in range(2, 500) if is_prime(p)]
    for p in primes:
        if p != 2 and 2 * p <= 1000:
            ok = ok and count_semiprime(2, p) == count_2p(p)
        if p not in (2, 3) and 3 * p <= 1000:
            ok = ok and count_semiprime(3, p) == count_3p(p)
        if p not in (2, 5) and 5 * p <= 1000:
            ok = ok and count_semiprime(5, p) == count_5p(p)
    pairs = 0
    for i, p in enumerate(primes):
        for q in primes[i + 1 :]:
            if p * q > 1000:
                break
            _, a = two_adic_split(p - 1)
            _, b = two_adic_split(q - 1)
            if gcd(a, b) == 1:
                ok = ok and count_semiprime_split(p, q) == count_semiprime(p, q)
                pairs += 1
    diag_bad = count_semiprime_split_2j(5, 13)
    diag_good = count_semiprime_split(5, 13)
    ok = ok and diag_bad == 79 and diag_good == 67
    _report(
        "10 specializations agree and the overcounting variant is flagged",
        ok,
        f"{pairs} split-form pairs; 2**j variant gives {diag_bad} != {diag_good} at (5,13)",
    )


def test_criterion_11_wide_rows_checked_per_unit_orbit():
    # up to 2003 classes each: weight rows of up to 32 words a residue, so the
    # checker takes one class per unit orbit once the generators permute the classes
    rings = automorphic_rings(2003)
    t0 = time.perf_counter()
    ok = len(rings) == 16 and all(check_schur_axioms(r) is None for r in rings)
    dt = time.perf_counter() - t0
    _report(
        "11 the axiom checker passes every automorphic ring of Z_2003 in under 1 s",
        ok and dt < 1.0,
        f"{dt:.2f}s",
    )
