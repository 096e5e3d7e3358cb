import copy
import json
import pickle
import random
from array import array
from collections import Counter
from math import gcd, prod

import pytest

from schur.automorphic import all_subgroups, orbit_partition, unit_group, UnitSubgroup
from schur.constructions import (
    Section,
    direct_product,
    discrete_ring,
    find_wedge_section,
    trivial_ring,
    wedge_product,
)
from schur.core import (
    AxiomViolation,
    SchurPartition,
    _signature,
    _slot_size,
    check_schur_axioms,
    is_schur_partition,
    quotient,
    restrict,
    s_subgroups,
)
from schur.formulas import divisors

from _reference import _class_product


def test_star_examples():
    # the checker names a class and its star {-x mod n} when the star is not a class
    violation = check_schur_axioms(SchurPartition.from_sets(7, [{0}, {1, 2, 4}, {3}, {5, 6}]))
    assert str(violation) == "axiom 2: {1,2,4}* = {3,5,6} is not a class"
    violation = check_schur_axioms(SchurPartition.from_sets(6, [{0}, {1, 2}, {3, 4, 5}]))
    assert str(violation) == "axiom 2: {1,2}* = {4,5} is not a class"
    # {1,2,4}* = {3,5,6} in Z_7; {1,3} and {0} are their own stars
    assert is_schur_partition(SchurPartition.from_sets(7, [{0}, {1, 2, 4}, {3, 5, 6}]))
    assert is_schur_partition(SchurPartition.from_sets(4, [{0}, {1, 3}, {2}]))


def test_axiom_checker_accepts_and_rejects():
    assert is_schur_partition(SchurPartition.from_sets(4, [{0}, {2}, {1, 3}]))
    violation = check_schur_axioms(SchurPartition.from_sets(4, [{0}, {1}, {2, 3}]))
    assert str(violation) == "axiom 2: {1}* = {3} is not a class"
    assert is_schur_partition(trivial_ring(6))


def test_axiom_one_failure():
    violation = check_schur_axioms(SchurPartition.from_sets(4, [{0, 2}, {1, 3}]))
    assert str(violation) == "axiom 1: class containing 0 is {0,2}, not {0}"


def test_axiom_three_failure():
    # {1,2} is star-closed in Z_5 ({1,2}* = {3,4} is a class) but
    # {1,2}*{1,2} has coefficients 1 at 2 and 4 yet 2 at 3
    violation = check_schur_axioms(SchurPartition.from_sets(5, [{0}, {1, 2}, {3, 4}]))
    assert str(violation) == (
        "axiom 3: coefficients of {1,2}*{1,2} are not constant on class {3,4}"
    )


def _braced(members):
    return "{" + ",".join(map(str, members)) + "}"


def _reference_check_schur_axioms(p):
    # the checker as it was before the class-product kernel was shared with
    # the brute-force oracle, kept to pin every violation message
    n = p.n
    labels = p.labels
    classes = p.classes
    if len(classes[0]) != 1:
        return AxiomViolation(1, f"class containing 0 is {_braced(classes[0])}, not {{0}}")
    for c in classes:
        star = labels[-c[0] % n]
        if len(classes[star]) != len(c) or any(labels[-x % n] != star for x in c):
            return AxiomViolation(
                2, f"{_braced(c)}* = {_braced(sorted(-x % n for x in c))} is not a class"
            )
    sizes = [len(c) for c in classes]
    for i in range(len(classes)):
        for j in range(i, len(classes)):
            _, bad = _class_product(classes[i], classes[j], n, labels, sizes)
            if bad >= 0:
                return AxiomViolation(
                    3,
                    f"coefficients of {_braced(classes[i])}*{_braced(classes[j])} are not "
                    f"constant on class {_braced(classes[bad])}",
                )
    return None


def _all_label_vectors(n):
    # restricted growth strings: each residue joins an earlier class or opens
    # the next one, so every partition of Z_n appears exactly once
    vectors = [(0,)]
    for _ in range(n - 1):
        vectors = [v + (c,) for v in vectors for c in range(max(v) + 2)]
    return vectors


def test_checker_matches_reference_on_every_partition_to_9():
    total = 0
    for n in range(1, 10):
        for labels in _all_label_vectors(n):
            p = SchurPartition(labels)
            assert check_schur_axioms(p) == _reference_check_schur_axioms(p), p
            total += 1
    assert total == 26442  # Bell numbers B_1 + ... + B_9


def test_signature_digits_are_class_product_coefficients():
    # weigh class d by the product of |D_e| + 1 over e < d, as the checker
    # does: digit d of a class's signature at g, in that mixed radix, is then
    # its product's coefficient at g with class d. A coefficient of a*b is at
    # most |b|, so no digit carries, and every slot stays below the product
    # of all |D| + 1, in the narrowest slot _slot_size picks for it. The same
    # rows at a forced 16-byte slot give each residue its slot's own bytes
    partitions = pairs = 0
    for n in range(2, 10):
        for labels in _all_label_vectors(n):
            if 0 in labels[1:]:
                continue
            classes = SchurPartition(labels).classes
            sizes = [len(c) for c in classes]
            weights = [1]
            for c in classes:
                weights.append(weights[-1] * (len(c) + 1))
            size = _slot_size(weights.pop() - 1)
            assert size == (1 if weights[-1] * (sizes[-1] + 1) <= 256 else 2)
            rows = {
                width: sum(weights[c] << 8 * width * g for g, c in enumerate(labels * 2))
                for width in (size, 16)
            }
            for a in classes:
                # firsts = range(n) compares each value with itself, so none is refused
                words = _signature(rows[size], a, n, size, range(n))
                # one word per residue, the slot's little-endian bytes read in native order
                data = array("B" if size == 1 else "H", words).tobytes()
                starts = range(0, n * size, size)
                slots = [int.from_bytes(data[g : g + size], "little") for g in starts]
                wide = _signature(rows[16], a, n, 16, range(n))
                assert [int.from_bytes(v, "little") for v in wide] == slots, (labels, a)
                # given each residue's least class member, None exactly off a constant class
                firsts = [classes[c][0] for c in labels]
                constant = all(slots[g] == slots[f] for g, f in enumerate(firsts))
                for width in (size, 16):
                    sig = _signature(rows[width], a, n, width, firsts)
                    assert (sig is not None) == constant, (labels, a, width)
                for d, b in enumerate(classes):
                    product = _class_product(a, b, n, labels, sizes)[0]
                    digits = [slot // weights[d] % (len(b) + 1) for slot in slots]
                    assert digits == [product.get(g, 0) for g in range(n)], (labels, a, b)
                    pairs += 1
            partitions += 1
    assert (partitions, pairs) == (5295, 137119)


def _reference_s_subgroups(p):
    # the class-size rule as it was before the sizes were counted off the labels
    n = p.n
    labels = p.labels
    sizes = [len(c) for c in p.classes]
    return tuple(
        d
        for d in divisors(n)
        if sum(sizes[i] for i in {labels[x] for x in range(0, n, n // d)}) == d
    )


def _reference_quotient(p, k):
    # the class-image quotient as it was before residues were keyed on cosets
    if k not in _reference_s_subgroups(p):
        raise ValueError(f"order-{k} subgroup is not an S-subgroup of the partition")
    m = p.n // k
    images = dict.fromkeys(frozenset(x % m for x in c) for c in p.classes)
    if sum(map(len, images)) != m:
        raise ValueError(f"class images under x -> x mod {m} are not equal-or-disjoint")
    labels = [0] * m
    for i, image in enumerate(images):
        for r in image:
            labels[r] = i
    return SchurPartition(tuple(labels))


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as e:
        return str(e)


def test_quotient_and_s_subgroups_match_reference_on_every_partition_to_9():
    cases = errors = 0
    for n in range(1, 10):
        for labels in _all_label_vectors(n):
            p = SchurPartition(labels)
            assert s_subgroups(p) == _reference_s_subgroups(p), p
            for k in divisors(n):
                outcome = _outcome(_reference_quotient, p, k)
                assert _outcome(quotient, p, k) == outcome, (p, k)
                cases += 1
                errors += isinstance(outcome, str)
    assert (cases, errors) == (82731, 50414)


def test_checker_matches_reference_on_enumerated_rings_and_merges():
    # every ring over Z_n for n <= 36, and each of them with two of its
    # nonzero classes merged: large classes, and partitions that keep axiom
    # 2 but break axiom 3 in every way a ring can be coarsened
    from schur.enumeration import enumerate_rings

    axioms = set()
    for n in range(1, 37):
        for ring in enumerate_rings(n).rings:
            assert check_schur_axioms(ring) is None
            assert _reference_check_schur_axioms(ring) is None
            count = len(ring.classes)
            for i in range(1, count):
                for j in range(i + 1, count):
                    p = SchurPartition(tuple(i if c == j else c for c in ring.labels))
                    violation = check_schur_axioms(p)
                    assert violation == _reference_check_schur_axioms(p), (ring, i, j)
                    axioms.add(violation and violation.axiom)
    assert axioms == {None, 2, 3}


def _wide(p):
    # slots of more than one 64-bit word: the checker takes one class per unit orbit
    return _slot_size(prod(len(c) + 1 for c in p.classes) - 1) > 8


def _unit_invariant(p):
    n, labels, count = p.n, p.labels, len(p.classes)
    return all(
        len(set(zip(labels, [labels[m * x % n] for x in range(n)]))) == count
        for m in range(1, n)
        if gcd(m, n) == 1
    )


def _merged(p, a, b):
    # classes a and b merged, and their stars with them, so axiom 2 mostly holds
    labels = p.labels
    star = [labels[-c[0] % p.n] for c in p.classes]
    relabel = {b: a} if b == star[a] else {b: a, star[b]: star[a]}
    return SchurPartition([relabel.get(c, c) for c in labels])


def test_checker_matches_reference_on_wide_rows():
    # the one-word/two-word boundary, two-byte labels, and fixed-seed merges
    # of automorphic rings with small unit subgroups at n = 64..128: rings,
    # partitions some unit generator does not permute, and unit-invariant
    # ones that are still no Schur ring (x and -x share a class when x is a unit)
    rng = random.Random(18)
    cases = [discrete_ring(n) for n in (63, 64, 65, 257, 300)]
    cases += [orbit_partition(UnitSubgroup(n, (1, n - 1))) for n in (65, 257, 300)]
    cases += [orbit_partition(h) for h in all_subgroups(unit_group(300))[1:12:2]]
    for n in (100, 128):
        cases.append(SchurPartition([min(x, n - x) if gcd(x, n) == 1 else x for x in range(n)]))
    # the units of Z_256 as one class, which passes, and that last partition of Z_128 on
    # the even residues, which fails first at the class of 2
    evens = [min(x, 256 - x) if x % 4 else x for x in range(256)]
    cases.append(SchurPartition([1 if x % 2 else evens[x] for x in range(256)]))
    # a partition of Z_34 whose classes of 1, 2 and 17 pass, times the {+-1} ring of Z_103:
    # 103 = 1 mod 34, so the divisors of 3502 fall in the classes that pass, and only
    # the generator test rejects it
    z34 = SchurPartition.from_sets(
        34,
        [{0}, {17}, {3, 5, 7, 11, 23, 27, 29, 31}, {6, 10, 12, 14, 20, 22, 24, 28},
         {1, 2, 4, 8, 9, 13, 15, 16, 18, 19, 21, 25, 26, 30, 32, 33}],
    )
    pm103 = [min(y, 103 - y) for y in range(103)]
    cases.append(SchurPartition([(z34.labels[x % 34], pm103[x % 103]) for x in range(3502)]))
    # a unit-invariant wedge of Z_816 that is no Schur ring: a checker that drops the largest
    # divisor class, which some unit generator moves, as if all fixed it, finds no failure
    p16 = SchurPartition.from_sets(
        16, [{0}, {1, 3, 9, 11}, {2, 6, 10, 14}, {4, 8, 12}, {5, 7, 13, 15}]
    )
    z204 = wedge_product(discrete_ring(51), trivial_ring(4), Section(51, 51), 204)
    cases.append(wedge_product(z204, p16, Section(51, 204), 816))
    for _ in range(60):
        n = rng.randrange(64, 129)
        small = [h for h in all_subgroups(unit_group(n)) if len(h.elements) <= 2]
        ring = orbit_partition(rng.choice(small))
        a, b = rng.sample(range(1, len(ring.classes)), 2)
        cases.append(_merged(ring, a, b))
    assert [_wide(p) for p in cases[:3]] == [False, False, True]
    verdicts = Counter()
    for p in cases:
        violation = check_schur_axioms(p)
        assert violation == _reference_check_schur_axioms(p), p
        if _wide(p):
            verdicts[violation and violation.axiom, _unit_invariant(p)] += 1
    # wide rings, and wide axiom-3 failures on both sides of the generator test
    assert verdicts[None, True] >= 5 and verdicts[3, False] >= 10 and verdicts[3, True] >= 2


def test_partition_validation():
    with pytest.raises(ValueError):
        SchurPartition.from_sets(4, [{0, 1}, {1, 2, 3}])
    with pytest.raises(ValueError):
        SchurPartition.from_sets(4, [{0}, {1}])
    with pytest.raises(ValueError):
        SchurPartition.from_sets(4, [{0}, set(), {1, 2, 3}])
    # malformed outside input is refused with ValueError, not TypeError or KeyError
    for sets in ([[0], 1, [2]], 5, None):
        with pytest.raises(ValueError, match="expected an iterable of classes"):
            SchurPartition.from_sets(3, sets)
    for obj in ({"n": 3}, {"classes": [[0], [1, 2]]}, [3]):
        with pytest.raises(ValueError, match='expected a dict with keys "n" and "classes"'):
            SchurPartition.from_json_dict(obj)


def test_non_integer_input_is_refused():
    # int() would turn each of these into {{0},{1,2}} on Z_3
    with pytest.raises(ValueError, match="3.9"):
        SchurPartition.from_json_dict({"n": 3.9, "classes": [[0], [1, 2]]})
    with pytest.raises(ValueError, match="1.5"):
        SchurPartition.from_json_dict({"n": 3, "classes": [[0], [1.5, 2]]})
    with pytest.raises(ValueError, match="'1'"):
        SchurPartition.from_sets(3, [{0}, {"1", 2}])
    # 2.0 is among the S-subgroup orders, but no slice step
    with pytest.raises(ValueError, match="2.0"):
        restrict(discrete_ring(4), 2.0)
    with pytest.raises(ValueError, match="2.0"):
        quotient(discrete_ring(4), 2.0)


def test_subset_validation():
    # a class member outside Z_n, and a zero modulus, are refused at the boundary
    with pytest.raises(ValueError):
        SchurPartition.from_sets(5, [{0}, {1, 2, 3, 4, 5}])
    with pytest.raises(ValueError):
        SchurPartition.from_sets(0, [])
    with pytest.raises(ValueError):
        SchurPartition(())


def test_partition_canonical_order():
    p = SchurPartition.from_sets(6, [{3, 4}, {0}, {1, 2, 5}])
    assert p.classes == ((0,), (1, 2, 5), (3, 4))
    assert tuple(p.labels) == (0, 1, 1, 2, 2, 1)
    q = SchurPartition.from_sets(6, [{1, 2, 5}, {4, 3}, {0}])
    assert p == q and hash(p) == hash(q)
    # any per-residue keys are renumbered by first occurrence
    assert SchurPartition(("z", "a", "a", "q", "q", "a")) == p


def test_s_subgroups_examples():
    assert s_subgroups(trivial_ring(6)) == (1, 6)
    assert s_subgroups(discrete_ring(6)) == (1, 2, 3, 6)
    # wedge of discrete rings along [3,3] over Z_21 fuses the order-7 subgroup away
    w = wedge_product(discrete_ring(3), discrete_ring(7), Section(3, 3), 21)
    assert s_subgroups(w) == (1, 3, 21)


def test_s_subgroups_closed_under_gcd_and_lcm():
    from math import gcd

    from schur.enumeration import enumerate_rings

    for n in (12, 21, 30):
        for ring in enumerate_rings(n).rings:
            subs = set(s_subgroups(ring))
            assert {1, n} <= subs
            for a in subs:
                for b in subs:
                    assert gcd(a, b) in subs
                    assert a * b // gcd(a, b) in subs


def test_restrict_examples():
    # (S x T) restricted to either factor recovers it
    s = trivial_ring(3)
    t = orbit_partition(UnitSubgroup(7, (1, 6)))
    prod = direct_product(s, t)
    assert restrict(prod, 3) == s
    assert restrict(prod, 7) == t
    assert restrict(prod, 1) == SchurPartition.from_sets(1, [{0}])
    # trivial Z_4 times discrete Z_3, restricted back to 4
    prod2 = direct_product(trivial_ring(4), discrete_ring(3))
    assert restrict(prod2, 4) == trivial_ring(4)


def test_restrict_requires_s_subgroup():
    with pytest.raises(ValueError):
        restrict(trivial_ring(6), 2)


def test_quotient_examples():
    assert quotient(discrete_ring(6), 2) == discrete_ring(3)
    p = discrete_ring(6)
    assert quotient(p, 1) == p
    with pytest.raises(ValueError):
        quotient(trivial_ring(6), 2)


def test_quotient_of_wedge_recovers_right_factor():
    t = orbit_partition(UnitSubgroup(7, (1, 2, 4)))
    w = wedge_product(trivial_ring(3), t, Section(3, 3), 21)
    assert quotient(w, 3) == t


def test_restrict_and_quotient_preserve_schur():
    from schur.enumeration import enumerate_rings

    for n in (12, 20):
        for ring in enumerate_rings(n).rings:
            for d in s_subgroups(ring):
                assert is_schur_partition(restrict(ring, d))
                assert is_schur_partition(quotient(ring, d))


def test_rings_of_z12_are_distinct_as_partitions_json_and_sort_keys():
    from schur.enumeration import enumerate_rings

    rings = enumerate_rings(12).rings
    assert len(rings) == 32
    assert len(set(rings)) == 32
    assert len({json.dumps(r.to_json_dict()) for r in rings}) == 32
    assert len({r.sort_key() for r in rings}) == 32
    a = SchurPartition.from_sets(6, [{0}, {3}, {1, 2, 4, 5}])
    b = SchurPartition.from_sets(6, [{2, 1, 5, 4}, {3}, {0}])
    assert a == b and a.to_json_dict() == b.to_json_dict() and a.sort_key() == b.sort_key()


def test_json_round_trip_and_fast_writer_on_narrow_and_wide_rings():
    from schur.enumeration import enumerate_rings

    wedge = wedge_product(discrete_ring(12), discrete_ring(150), Section(2, 12), 300)
    rings = [*enumerate_rings(12).rings, discrete_ring(300), trivial_ring(300), wedge]
    for ring in rings:
        assert SchurPartition.from_json_dict(ring.to_json_dict()) == ring
        assert ring._json() == json.dumps(ring.to_json_dict(), separators=(",", ":"))


def test_json_round_trip():
    p = SchurPartition.from_sets(12, [{0}, {6}, {3, 9}, {1, 5, 7, 11}, {2, 4, 8, 10}])
    assert SchurPartition.from_json_dict(p.to_json_dict()) == p
    assert p.to_json_dict() == {
        "n": 12,
        "classes": [[0], [1, 5, 7, 11], [2, 4, 8, 10], [3, 9], [6]],
    }


def test_text_rendering():
    p = SchurPartition.from_sets(4, [{0}, {2}, {1, 3}])
    assert p.to_text() == "{{0},{1,3},{2}}"


def _grouped_by_label(p):
    # the classes read straight off the labels, as the constructor numbers them
    classes = {}
    for x, c in enumerate(p.labels):
        classes.setdefault(c, []).append(x)
    return tuple(tuple(classes[c]) for c in sorted(classes))


def _partitions_sharing_prefixes(rng, n, count):
    """Random partitions of Z_n and one-residue edits of them, which share leading classes."""
    base = [rng.randrange(rng.randint(1, n)) for _ in range(n)]
    out = [SchurPartition(base)]
    for _ in range(count):
        edited = list(base)
        edited[rng.randrange(n)] = rng.choice([n, rng.randrange(n)])
        out.append(SchurPartition(edited))
    return out


def test_sort_key_orders_as_classes():
    # byte order of sort_key() is tuple order of classes, for one-byte keys
    # (n <= 254) and two-byte big-endian keys
    rng = random.Random(2024)
    for n in [*range(1, 61), *range(250, 321)]:
        for _ in range(3):
            batch = _partitions_sharing_prefixes(rng, n, 8)
            by_key = sorted(batch, key=SchurPartition.sort_key)
            assert [p.classes for p in by_key] == sorted(p.classes for p in batch), n
            assert len({p.sort_key() for p in batch}) == len(set(batch))
    from schur.enumeration import enumerate_rings

    for n in range(1, 65):
        classes = [r.classes for r in enumerate_rings(n).rings]
        assert classes == sorted(classes), n


@pytest.mark.parametrize("n", [1, 12, 254, 255, 256, 257, 300])
def test_labels_are_bytes_of_the_width_n_needs(n):
    rng = random.Random(n)
    for p in [
        discrete_ring(n),
        trivial_ring(n),
        SchurPartition([rng.randrange(n // 3 + 1) for _ in range(n)]),
    ]:
        labels = p.labels
        assert len(labels) == p.n == n
        assert isinstance(labels, bytes) if n <= 256 else labels.itemsize == 2
        assert all(type(labels[x]) is int for x in (0, n // 2, n - 1))
        assert SchurPartition(labels) == p and hash(SchurPartition(list(labels))) == hash(p)
        assert p.classes == _grouped_by_label(p)
        assert SchurPartition.from_json_dict(p.to_json_dict()) == p
        assert is_schur_partition(p) == (check_schur_axioms(p) is None)
        find_wedge_section(p)  # caches the S-subgroups and sections; classes cached the key
        # the labels are held once, as bytes; a view over them is made on each access
        assert not any(isinstance(getattr(p, s), memoryview) for s in p.__slots__)
        # the lazy data live in slots: no instance dict, and other names stay missing
        assert not hasattr(p, "__dict__") and not hasattr(p, "_make_nothing")
        for q in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
            assert q == p and hash(q) == hash(p) and q.labels == labels
            assert not any(isinstance(getattr(q, s), memoryview) for s in q.__slots__)
    # restriction and quotient leave the width n needs, down to one byte at order <= 256
    for d in divisors(n):
        assert restrict(discrete_ring(n), d) == discrete_ring(d)
        assert quotient(discrete_ring(n), d) == discrete_ring(n // d)


def test_wide_constructions_at_300():
    # every constructor emits two-byte labels above n = 256
    s, t = discrete_ring(150), discrete_ring(150)
    wedge = wedge_product(s, t, Section(2, 150), 300)  # labels 150 + t's run past 255
    product = direct_product(discrete_ring(4), trivial_ring(75))
    for p, classes in [
        (discrete_ring(300), 300),
        (trivial_ring(300), 2),
        (product, 8),
        (wedge, 150 + 75),
        (orbit_partition(UnitSubgroup(300, (1, 299))), 151),
    ]:
        assert p.n == 300 and p.labels.itemsize == 2
        assert len(p.classes) == classes and p.classes == _grouped_by_label(p)
        assert SchurPartition(p.labels) == p
        assert SchurPartition.from_json_dict(p.to_json_dict()) == p
        assert is_schur_partition(p)
    assert restrict(wedge, 150) == s and quotient(wedge, 2) == t
    assert restrict(product, 4) == discrete_ring(4) and restrict(product, 75) == trivial_ring(75)
    assert quotient(product, 4) == trivial_ring(75) and quotient(product, 75) == discrete_ring(4)
    assert restrict(discrete_ring(600), 300) == discrete_ring(300)
    assert quotient(discrete_ring(600), 2) == discrete_ring(300)


def test_byte_keys_renumber_as_any_keys():
    # bytes take the renumbering done in C, other keys the general one
    b_0102 = SchurPartition([0, 1, 0, 2])
    assert SchurPartition(b"\x07\x03\x07\xff") == b_0102
    assert SchurPartition(bytearray(b"ab")) == discrete_ring(2)
    # above 256 bytes are keys, not a raw buffer
    assert SchurPartition(bytes(300)) == SchurPartition([0] * 300)
    assert SchurPartition(b"\x01" + bytes(299)) == trivial_ring(300)
    # int lists and tuples up to 256 long take the C path only when every value fits a byte
    assert SchurPartition([256, 3, 256, -1]) == SchurPartition((9, -3, 9, 1000)) == b_0102
    assert SchurPartition([7, "a", 7, None]) == b_0102
    # a buffer is read by item, never as raw memory
    assert SchurPartition(array("H", [300, 7, 300, 1])) == b_0102
    assert SchurPartition(memoryview(array("H", [1, 2, 1, 258]))) == b_0102
    assert SchurPartition(discrete_ring(300).labels[::2]) == discrete_ring(150)
    assert discrete_ring(65535).sort_key()[-2:] == b"\xff\xff"
    with pytest.raises(ValueError):
        trivial_ring(65536)
