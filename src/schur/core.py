"""Schur partitions of Z_n, the Schur axiom checker, restriction and quotient.

The cyclic group of order n is written additively as the residues
{0, ..., n-1}. A partition of those residues determines a candidate Schur
ring; check_schur_axioms decides whether it really is one and, if not, names
the first axiom it breaks. Subgroups of Z_n are identified with their orders
throughout: the subgroup of order d is the set of multiples of n/d.
"""

from __future__ import annotations

import struct
from collections import Counter
from collections.abc import Iterable, Sequence

from schur.formulas import _integer, _unit_axes, divisors

__all__ = [
    "SchurPartition",
    "AxiomViolation",
    "check_schur_axioms",
    "is_schur_partition",
    "s_subgroups",
    "restrict",
    "quotient",
]


def _braced(members: Iterable[object]) -> str:
    return "{" + ",".join(map(str, members)) + "}"


def _modulus(n: object) -> int:
    if (n := _integer(n)) < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    return n


_MAX_N = (1 << 16) - 1  # a wide sort key writes member x as x + 1 in two big-endian bytes


def _residue_count(n: int) -> int:
    if not 0 < n <= _MAX_N:
        raise ValueError(f"a partition of Z_n needs 1 <= n <= {_MAX_N} residues, got {n}")
    return n


_BYTES = bytes(range(256))
_FROM_KEY = _BYTES[255:] + _BYTES[:255]  # a one-byte sort key to members, 255 between classes
_JSON_KEY = ["],["] + [f",{b - 1}" for b in range(1, 256)]  # a one-byte key to JSON classes


def _grouped(labels: Sequence[int]) -> list[list[int]]:
    """Each class's members x written as x + 1, ascending, the classes in label order."""
    groups = [[] for _ in range(max(labels) + 1)]
    for x, c in enumerate(labels, 1):
        groups[c].append(x)
    return groups


class _Record:
    """A frozen record: its fields are its class's __slots__, set by position or keyword.

    Records are equal by __reduce__(), the class and the field values, and hash by the
    values. Their repr and their refusal to assign or delete are a frozen dataclass's.
    """

    __slots__ = ()

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self.__slots__
        values = dict(zip(names, args), **kwargs)
        if len(args) + len(kwargs) != len(names) or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
        for name in names:
            object.__setattr__(self, name, values[name])

    def __reduce__(self) -> tuple:
        return type(self), tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other: object) -> bool:
        same = type(other) is type(self)
        return self.__reduce__() == other.__reduce__() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self.__reduce__()[1])

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class SchurPartition:
    """A partition of Z_n, the datum that pins down a Schur ring.

    labels[x] is the index of the class containing residue x. The
    constructor accepts any length-n sequence of hashable per-residue keys
    and renumbers them by first occurrence, so classes are numbered by least
    member and equal partitions compare and hash equal. A label vector is a
    partition by construction; sets of residues from outside go through
    from_sets, which validates them. The one stored datum is a bytes object
    holding one byte per label when n <= 256, else two in native order;
    labels is that object, or above 256 a memoryview(...).cast("H") over it
    made on each access. Equality and hashing read those bytes alone, and a
    pickle holds the labels. The sort key, S-subgroup orders and split
    sections are slots filled on first read, with no __dict__, so every
    partition has one layout. classes is decoded from sort_key(), not stored.
    """

    __slots__ = ("_packed", "_key", "_subgroup_orders", "_split_sections")
    __setattr__ = __delattr__ = _Record.__setattr__

    def __getattr__(self, name: str) -> object:
        # reached when a slot is unset: _make<name> fills it, once
        make = getattr(SchurPartition, "_make" + name, None)
        if make is None:
            raise AttributeError(f"'SchurPartition' object has no attribute {name!r}")
        value = make(self)
        object.__setattr__(self, name, value)
        return value

    def __reduce__(self) -> tuple:
        return SchurPartition, (list(self.labels),)

    def __init__(self, _packed: Iterable[object]) -> None:
        keys = _packed
        if type(keys) in (list, tuple) and 0 < len(keys) <= 256 and type(keys[0]) is int:
            try:  # ints in 0..255 take the renumbering in C
                keys = bytes(keys)
            except (TypeError, ValueError):
                pass
        if isinstance(keys, (bytes, bytearray)):
            first = bytes(dict.fromkeys(keys))  # in C: the i-th distinct byte goes to i
            raw = keys.translate(bytes.maketrans(first, _BYTES[: len(first)]))
        else:
            ids: dict = {}
            raw = [ids.setdefault(key, len(ids)) for key in keys]
        n = _residue_count(len(raw))
        packed = bytes(raw) if n <= 256 else struct.pack(f"{n}H", *raw)  # native order
        object.__setattr__(self, "_packed", packed)

    def __eq__(self, other: object) -> bool:
        return self._packed == other._packed if type(other) is SchurPartition else NotImplemented

    def __hash__(self) -> int:
        return hash(self._packed)

    def __repr__(self) -> str:
        return f"SchurPartition(_packed={self._packed!r})"

    @classmethod
    def from_sets(cls, n: int, sets: Iterable[Iterable[int]]) -> "SchurPartition":
        """Partition of Z_n with the given classes, in any order.

        Rejects with ValueError: sets or a class that is not iterable,
        non-integers, an empty class, a member outside 0..n-1, classes that
        overlap, and classes that do not cover Z_n.
        """
        n = _modulus(n)
        labels = [-1] * _residue_count(n)
        try:
            classes = [set(map(_integer, s)) for s in sets]
        except TypeError:  # sets, or one of its classes, is not iterable
            raise ValueError(f"expected an iterable of classes, got {sets!r:.80}") from None
        for i, members in enumerate(classes):
            if not members:
                raise ValueError("empty class")
            for x in members:
                if not 0 <= x < n:
                    raise ValueError(f"members out of range for Z_{n}: {sorted(members)}")
                if labels[x] >= 0:
                    raise ValueError(f"classes overlap at {x}")
                labels[x] = i
        missing = labels.count(-1)
        if missing:
            raise ValueError(f"classes cover {n - missing} of {n} residues")
        return cls(labels)

    @property
    def labels(self) -> bytes | memoryview:
        packed = self._packed
        return packed if len(packed) <= 256 else memoryview(packed).cast("H")

    @property
    def n(self) -> int:
        n = len(self._packed)
        return n if n <= 256 else n // 2

    def _make_key(self) -> bytes:
        groups = _grouped(self.labels)
        if len(self._packed) <= 254:  # so n <= 254: above 256 it holds 2n bytes
            return b"\0".join(map(bytes, groups))
        return b"\0\0".join(struct.pack(f">{len(g)}H", *g) for g in groups)

    def sort_key(self) -> bytes:
        """The classes in least-member order, member x as x + 1, ascending, classes split by 0.

        Values take one byte when n <= 254, else two, big-endian. For one n,
        byte order of keys is tuple order of classes: equal leading classes
        give equal bytes, and the first difference falls inside the first
        class that differs. There a smaller member gives a smaller value, and
        a class that ends first puts a 0 (or the key's end) against a member
        x + 1 >= 1, as a shorter prefix sorts first among tuples. Cached.
        """
        return self._key

    def _members(self) -> list[Sequence[int]]:
        # the classes as ascending member sequences, ordered by least member
        if len(self._packed) <= 254:
            return self._key.translate(_FROM_KEY).split(b"\xff")
        return [[x - 1 for x in g] for g in _grouped(self.labels)]

    @property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        """The classes as ascending member tuples, ordered by least member."""
        return tuple(map(tuple, self._members()))

    def _make_subgroup_orders(self) -> tuple[int, ...]:
        # the order-d subgroup is a union of classes exactly when the classes
        # it meets have sizes adding up to d
        n = self.n
        labels = self.labels
        if n <= 256:  # in C: the residues whose labels the subgroup's members have
            return tuple(
                d for d in divisors(n) if n - len(labels.translate(None, labels[:: n // d])) == d
            )
        sizes = Counter(labels)
        return tuple(
            d for d in divisors(n) if sum(sizes[i] for i in set(labels[:: n // d])) == d
        )

    def _make_split_sections(self) -> tuple[tuple[int, int], ...]:
        # the proper sections (k, h) of S-subgroups along which the ring
        # splits as a wedge, k ascending, then h
        n = self.n
        subs = self._subgroup_orders
        labels = self.labels
        return tuple(
            (k, h)
            for k in subs
            for h in subs
            if 1 < k <= h < n and h % k == 0 and _splits_along(labels, k, h)
        )

    def to_text(self) -> str:
        return _braced(map(_braced, self._members()))

    def to_json_dict(self) -> dict:
        return {"n": self.n, "classes": [list(c) for c in self._members()]}

    def _json(self) -> str:
        """to_json_dict() as compact JSON, translated from the sort key if its values are bytes."""
        if len(self._packed) <= 254:
            members = self._key.decode("latin-1").translate(_JSON_KEY)[1:].replace("[,", "[")
        else:
            members = "],[".join(",".join(map(str, c)) for c in self._members())
        return f'{{"n":{self.n},"classes":[[{members}]]}}'

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SchurPartition":
        """from_sets(obj["n"], obj["classes"]); ValueError unless obj is a dict holding both."""
        if not (isinstance(obj, dict) and "n" in obj and "classes" in obj):
            raise ValueError(f'expected a dict with keys "n" and "classes", got {obj!r:.80}')
        return cls.from_sets(obj["n"], obj["classes"])

    def __str__(self) -> str:
        return self.to_text()


def _splits_along(labels: Sequence[int], k: int, h: int) -> bool:
    """True when every class outside the order-h subgroup is a union of order-k cosets.

    With that subgroup a union of classes, this says each x outside it shares
    its class with x + n/k. The coset r, r + n/h, r + 2n/h, ... holds x + n/k
    h/k places after x, so each coset's labels must have period h/k; h/k
    divides the coset's length h, so that makes them invariant under rotation.
    """
    step_h = len(labels) // h
    shift = h // k
    for r in range(1, step_h):
        row = labels[r::step_h]
        if row[shift:] != row[:-shift]:
            return False
    return True


class AxiomViolation(_Record):
    """First broken Schur axiom: 1 identity class, 2 star closure, 3 products."""

    __slots__ = ("axiom", "message")

    def __str__(self) -> str:
        return f"axiom {self.axiom}: {self.message}"


_WORD = {1: "B", 2: "H", 4: "I", 8: "Q"}  # word bytes to a struct and memoryview format


def _slot_size(top: int) -> int:
    """Bytes in the narrowest slot that holds top: 1, 2, 4 or a multiple of 8."""
    bits = top.bit_length()
    return 1 if bits <= 8 else 2 if bits <= 16 else 4 if bits <= 32 else 8 * -(-bits // 64)


def _signature(
    row: int, members: Iterable[int], n: int, size: int, firsts: Sequence[int]
) -> list | None:
    """The slots of the sum over x in members of row >> slot*(n - x), cut to n slots.

    row holds Z_n's weights twice, residue g's in slots g and n + g of size bytes, so slot
    g is the sum over x of the weight of g - x: with no carry, its digit D is the coefficient
    at g of (sum of members) * D. Each residue gets one value, equal iff the slots are: up to
    8 bytes, the word read natively off little-endian bytes, else the slot's own bytes. None
    when the value at some g differs from the one at firsts[g], its class's least member.
    """
    bits = 8 * size
    acc = sum([row >> bits * (n - x) for x in members]) & ((1 << bits * n) - 1)
    data = acc.to_bytes(size * n, "little")
    if size <= 8:
        sig = memoryview(data).cast(_WORD[size]).tolist()
    else:
        sig = list(struct.unpack(f"{size}s" * n, data))
    return sig if list(map(sig.__getitem__, firsts)) == sig else None


def _products_constant(labels: Sequence[int], classes: Sequence[Sequence[int]]) -> bool:
    """True when every product of two class sums is constant on every class.

    The coefficient of a*b at g counts the x in a with g - x in b, so this holds exactly
    when each class's _signature is constant on every class (not None), class d weighing the
    product of |D_e| + 1 over e < d: a coefficient of C*D is at most |D| (x -> g - x is
    injective), so no digit carries, and slots stay below the product of all |D| + 1, at
    most 2**n, one word for n <= 64. One-word rows skip {0} (its signature is the weights),
    a* after a ((a*)(b) at g is (a)(b*) at -g) and, given axioms 1 and 2, the largest class
    with a* = a (all signatures add up to a constant). Wider rows check one class per unit
    orbit: if some generator m of the units (formulas._unit_axes) does not permute the
    classes, there is no Schur ring, by the multiplier theorem; if all do, (mC)D is
    m(C m^-1 D), in the span when every C'D is, and every unit orbit holds the class of a
    divisor d < n (x = u*gcd(x, n), u a unit): those are checked, less the largest fixed one.
    """
    n = len(labels)
    weights = [1]
    for c in classes:
        weights.append(weights[-1] * (len(c) + 1))
    size = _slot_size(weights.pop() - 1)
    if size <= 8:
        data = struct.pack(f"<{n}{_WORD[size]}", *map(weights.__getitem__, labels))
        stars = [labels[-c[0] % n] for c in classes]
        todo = [c for c in range(1, len(classes)) if stars[c] >= c]
        fixed = [c for c in todo if stars[c] == c]
    else:
        moved = [[labels[m * x % n] for x in range(n)] for _, m in _unit_axes(n)]
        if any(len(set(zip(labels, images))) != len(classes) for images in moved):
            return False
        todo = list(dict.fromkeys(labels[d] for d in divisors(n)[:-1]))
        fixed = [c for c in todo if all(images[classes[c][0]] == c for images in moved)]
        slots = [w.to_bytes(size, "little") for w in weights]
        data = b"".join(map(slots.__getitem__, labels))
    row = int.from_bytes(data * 2, "little")
    if fixed:
        todo.remove(max(fixed, key=lambda c: len(classes[c])))
    firsts = [classes[c][0] for c in labels]
    return all(_signature(row, classes[c], n, size, firsts) is not None for c in todo)


def check_schur_axioms(p: SchurPartition) -> AxiomViolation | None:
    """Return None when p defines a Schur ring, else the first violation.

    Axiom 3 is decided by _products_constant, which on rows of more than one
    word rests on the multiplier theorem; when it fails, a scan over pairs of
    classes names the first product not constant on a class.
    """
    labels = p.labels
    n = len(labels)
    classes = p._members()
    if len(classes[0]) != 1:
        return AxiomViolation(1, f"class containing 0 is {_braced(classes[0])}, not {{0}}")
    # given axiom 1, every c* is a class iff the pairs (class of x, class of -x), x != 0,
    # number one per class other than {0}
    if len(set(zip(labels[1:], labels[:0:-1]))) != len(classes) - 1:
        for c in classes:
            star = labels[-c[0] % n]
            if len(classes[star]) != len(c) or any(labels[-x % n] != star for x in c):
                return AxiomViolation(
                    2, f"{_braced(c)}* = {_braced(sorted(-x % n for x in c))} is not a class"
                )
    if _products_constant(labels, classes):
        return None
    # the first pair, and in its product's support, in the order x + y first hits it, the
    # first class with two coefficients; else the first class hit that the support only
    # partly covers, so it holds a zero coefficient too
    for i, a in enumerate(classes):
        for b in classes[i:]:
            hits = [(labels[g], v) for g, v in Counter((x + y) % n for x in a for y in b).items()]
            first: dict[int, int] = {}
            bad = next((c for c, v in hits if first.setdefault(c, v) != v), -1)
            if bad < 0:
                covered = Counter(c for c, _ in hits)
                bad = next((c for c, k in covered.items() if k != len(classes[c])), -1)
            if bad >= 0:
                return AxiomViolation(
                    3,
                    f"coefficients of {_braced(a)}*{_braced(b)} are not "
                    f"constant on class {_braced(classes[bad])}",
                )
    return None


def is_schur_partition(p: SchurPartition) -> bool:
    return check_schur_axioms(p) is None


def s_subgroups(p: SchurPartition) -> tuple[int, ...]:
    """Orders d of subgroups of Z_n that are unions of classes of p.

    Always contains 1 and n for a partition satisfying axiom 1. Computed
    once per partition.
    """
    return p._subgroup_orders


def restrict(p: SchurPartition, d: int) -> SchurPartition:
    """The subring partition living on the order-d subgroup, relabelled to Z_d."""
    if (d := _integer(d)) not in s_subgroups(p):
        raise ValueError(f"order-{d} subgroup is not an S-subgroup of the partition")
    return SchurPartition(p.labels[:: p.n // d])


def quotient(p: SchurPartition, k: int) -> SchurPartition:
    """Push the partition forward along Z_n -> Z_{n/k}, x -> x mod n/k.

    Requires the order-k subgroup K (the kernel) to be an S-subgroup, and the
    class images to be pairwise equal or disjoint. Residue r is keyed on the
    classes that meet the coset r + K; equal keys make one class. The images
    are equal or disjoint exactly when no class lies in two different keys:
    if class a lies in the different keys of r and s, some class b lies in
    one only, say r's, and b's image meets a's at r but misses s; if none
    does, each image is the set of residues with one key. So the distinct
    keys' sizes must add up to the number of classes.
    """
    if (k := _integer(k)) not in s_subgroups(p):
        raise ValueError(f"order-{k} subgroup is not an S-subgroup of the partition")
    labels = p.labels
    m = len(labels) // k
    keys = [frozenset(labels[r::m]) for r in range(m)]
    if sum(map(len, set(keys))) != max(labels) + 1:
        raise ValueError(f"class images under x -> x mod {m} are not equal-or-disjoint")
    return SchurPartition(keys)


def _quotient(p: SchurPartition, k: int) -> SchurPartition:
    """quotient(p, k) for a Schur ring p with an S-subgroup of order k, unchecked.

    The labels on the coset r + K are the classes whose image holds r, which
    for a Schur ring are one set per image, so their least keys r.
    """
    labels = p.labels
    m = len(labels) // k
    return SchurPartition([min(labels[r::m]) for r in range(m)])
