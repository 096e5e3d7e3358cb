"""The value semantics of the package's six record classes.

SchurPartition, AxiomViolation, Section, EnumerationResult, UnitGroup and
UnitSubgroup are immutable values: a readable repr naming each field, built
by position or by keyword, equal only to a record of the same class with
equal fields, hashed consistently with that equality, refusing assignment and
deletion, and surviving pickle and deepcopy.
"""

import copy
import pickle

import pytest

from schur import (
    AxiomViolation,
    EnumerationResult,
    SchurPartition,
    Section,
    UnitGroup,
    UnitSubgroup,
    enumerate_rings,
    unit_group,
)


def _records():
    """(record, the same record built by keyword, its repr), one per class."""
    z4 = enumerate_rings(4)
    return [
        (
            SchurPartition([5, 5, 7]),
            SchurPartition(_packed=(0, 0, 1)),
            "SchurPartition(_packed=b'\\x00\\x00\\x01')",
        ),
        (
            AxiomViolation(1, "class containing 0 is {0,1}, not {0}"),
            AxiomViolation(axiom=1, message="class containing 0 is {0,1}, not {0}"),
            "AxiomViolation(axiom=1, message='class containing 0 is {0,1}, not {0}')",
        ),
        (Section(2, 4), Section(k=2, h=4), "Section(k=2, h=4)"),
        (Section(3, 3), Section(h=3, k=3), "Section(k=3, h=3)"),
        (
            EnumerationResult(2, (), (), ()),
            EnumerationResult(n=2, rings=(), tags=(), core_census=()),
            "EnumerationResult(n=2, rings=(), tags=(), core_census=())",
        ),
        (
            z4,
            EnumerationResult(4, rings=z4.rings, tags=z4.tags, core_census=z4.core_census),
            None,
        ),
        (unit_group(5), UnitGroup(n=5, units=(1, 2, 3, 4)), "UnitGroup(n=5, units=(1, 2, 3, 4))"),
        (
            UnitSubgroup(7, (4, 1, 2)),
            UnitSubgroup(n=7, elements=(1, 2, 4)),
            "UnitSubgroup(n=7, elements=(1, 2, 4))",
        ),
    ]


def test_records_repr_like_dataclasses_and_build_by_keyword():
    for record, by_keyword, text in _records():
        assert by_keyword == record and hash(by_keyword) == hash(record)
        assert repr(by_keyword) == repr(record)
        if text is not None:
            assert repr(record) == text
    assert repr(enumerate_rings(1)).startswith(
        "EnumerationResult(n=1, rings=(SchurPartition(_packed=b'\\x00'),), tags=(frozenset({"
    )
    assert enumerate_rings(4).omega == 3


def test_records_equal_only_their_own_class():
    assert Section(2, 4) != (2, 4) and (2, 4) != Section(2, 4)
    assert Section(2, 4) != Section(2, 2) and Section(2, 4) != Section(4, 4)
    assert Section(2, 4) != AxiomViolation(2, 4)  # same field values, another class
    assert UnitGroup(7, (1, 2, 4)) != UnitSubgroup(7, (1, 2, 4))
    assert SchurPartition([0, 1]) != b"\x00\x01" and SchurPartition([0, 1]) != (b"\x00\x01",)
    assert SchurPartition([0, 1]) != SchurPartition([0, 0])
    assert AxiomViolation(1, "a") != AxiomViolation(1, "b")
    assert {Section(2, 4), Section(k=2, h=4), Section(2, 2)} == {Section(2, 2), Section(2, 4)}
    # hashed on the field values alone, as the dataclass did: the same in every process
    assert hash(Section(2, 4)) == hash((2, 4)) and hash(unit_group(3)) == hash((3, (1, 2)))
    assert len({SchurPartition([3, 3, 1]), SchurPartition([0, 0, 1]), SchurPartition(b"ab")}) == 2


def test_records_refuse_assignment_and_deletion():
    for record, _, _ in _records():
        for name in ("_packed", "axiom", "k", "n", "rings", "units", "elements", "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
            with pytest.raises(AttributeError):
                delattr(record, name)
    p = SchurPartition([0, 1, 1])
    with pytest.raises(AttributeError):
        p._key = b""  # a lazily filled slot is as frozen as the datum
    assert p.sort_key() == b"\x01\x00\x02\x03"


def test_records_survive_pickle_and_deepcopy():
    for record, _, _ in _records():
        for copied in (
            pickle.loads(pickle.dumps(record)),
            copy.deepcopy(record),
            copy.copy(record),
        ):
            assert type(copied) is type(record)
            assert copied == record and hash(copied) == hash(record)
            assert repr(copied) == repr(record)


def test_records_keep_their_validation():
    with pytest.raises(ValueError, match=r"section requires positive k \| h"):
        Section(3, 4)
    with pytest.raises(ValueError, match=r"section requires positive k \| h"):
        Section(k=0, h=4)
    with pytest.raises(ValueError, match="not closed"):
        UnitSubgroup(7, (1, 2))
    with pytest.raises(ValueError, match="not closed"):
        UnitSubgroup(n=7, elements=(1, 2))
    with pytest.raises(TypeError):
        Section(2)
    with pytest.raises(TypeError):
        Section(2, 4, 8)
    with pytest.raises(TypeError):
        Section(2, k=2)
    with pytest.raises(TypeError):
        AxiomViolation(1, "m", extra=0)
