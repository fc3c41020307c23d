"""The exported record types keep the semantics of frozen dataclasses:
repr, hash, immutability, pickling and copying, type-strict equality."""

import copy
import dataclasses
import pickle

import pytest

import ldptoric
from ldptoric import (
    BoxSpec,
    CatalogEntry,
    ConeRecord,
    FamilyParams,
    FanCycle,
    LdpPolygon,
    UnimodularMap,
    VerificationReport,
    SurfaceReport,
    analyze,
    canonical_form,
    families,
    generate,
    identify,
    validate_fan,
    validate_ldp_polygon,
)

PENTAGON = [(1, 0), (0, 1), (-1, 0), (1, -3), (2, -3)]
POLY = validate_ldp_polygon(PENTAGON)

# (sample, its field names in order), one row per exported record class.
RECORDS = [
    (BoxSpec(2), ("n",)),
    (CatalogEntry(POLY, identify(POLY), "family_d5"), ("poly", "family", "three_case")),
    (ConeRecord(3, 3, True), ("index", "det", "singular")),
    (generate(FamilyParams("two1", p=2, q=3)), ("params", "polygon")),
    (FamilyParams("two2", p=1, q=1, r=-3), ("family", "p", "q", "r", "s", "t")),
    (validate_fan(PENTAGON), ("rays",)),
    (POLY, ("rays",)),
    (analyze(POLY), ("d", "dets", "f_values", "singular_count")),
    (UnimodularMap(2, 1, 1, 1), ("a", "b", "c", "d")),
]
NOT_RECORDS = {"RayVector", "EnumerationStats", "VerificationReport"}
MEMOS = ("_report", "_tied", "_tied_oriented", "_family")


def _fill_memos(sample):
    """Compute everything a sample memoizes or derives."""
    if isinstance(sample, FanCycle):
        analyze(sample), identify(sample)
    if isinstance(sample, LdpPolygon):
        canonical_form(sample), canonical_form(sample, True)
    if isinstance(sample, SurfaceReport):
        sample.cones, sample.anticanonical_degrees


def _values(sample, fields):
    return tuple(getattr(sample, name) for name in fields)


@pytest.mark.parametrize(("sample", "fields"), RECORDS, ids=[type(s).__name__ for s, _ in RECORDS])
def test_record_semantics(sample, fields):
    values = _values(sample, fields)
    _fill_memos(sample)
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
    assert repr(sample) == f"{type(sample).__name__}({shown})"
    assert hash(sample) == hash(values)
    assert sample != values and values != sample and not sample == values
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(sample, fields[0], values[0])
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{fields[0]}'"):
        delattr(sample, fields[0])
    assert _values(sample, fields) == values
    copies = [pickle.loads(pickle.dumps(sample, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in copies + [copy.copy(sample), copy.deepcopy(sample)]:
        assert type(twin) is type(sample) and twin == sample and not twin != sample
        assert _values(twin, fields) == values
    # Memos live in declared slots: with them filled there is still no
    # instance __dict__, and no pickle or copy carries one.
    assert not any(hasattr(obj, "__dict__") or (obj is not sample and any(hasattr(obj, m) for m in MEMOS))
                   for obj in [sample, *copies, copy.copy(sample), copy.deepcopy(sample)])


def test_a_polygon_is_no_equal_of_its_fan_cycle():
    assert type(POLY) is LdpPolygon and FanCycle(POLY.rays) != POLY and POLY != FanCycle(POLY.rays)


def test_family_params_order_as_their_fields():
    low, high = FamilyParams("two1", p=2, q=3), FamilyParams("two1", p=2, q=5)
    assert low < high and sorted([high, low, FamilyParams("dais1", p=9)])[0].family == "dais1"


def test_table_covers_every_exported_record():
    exported = {
        name for name in ldptoric.__all__
        if isinstance(getattr(ldptoric, name), type) and not issubclass(getattr(ldptoric, name), BaseException)
    }
    assert exported - NOT_RECORDS == {type(sample).__name__ for sample, _ in RECORDS}


def test_no_exported_class_is_a_dataclass():
    # The dataclass() call compiles each class's methods at import time.
    exported = [getattr(ldptoric, name) for name in ldptoric.__all__]
    assert [c.__name__ for c in exported if isinstance(c, type) and dataclasses.is_dataclass(c)] == []
    assert not dataclasses.is_dataclass(families.FamilySpec)


def test_verification_report_is_a_frozen_record():
    # Not in RECORDS: its dict field makes hash() raise.
    report = VerificationReport(3, {"noncontiguous": [((1, 0), (0, 1), (-1, -1))]})
    assert repr(report) == "VerificationReport(total=3, counterexamples={'noncontiguous': [((1, 0), (0, 1), (-1, -1))]})"
    assert tuple(report) == (report.total, report.counterexamples) and "note" not in repr(report)
    with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign to field 'total'"):
        report.total = 4
    copies = [pickle.loads(pickle.dumps(report, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in copies + [copy.copy(report), copy.deepcopy(report)]:
        assert type(twin) is VerificationReport and twin == report
        assert (twin.total, twin.counterexamples) == (3, report.counterexamples)
