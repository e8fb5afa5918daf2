"""The public record types: construction, repr, immutability, equality and
validation, for the eleven records the package returns or takes.

Each record is a named tuple, so it is also iterable and equal to the plain
tuple of its fields.  CoeffTable, whose fields are arrays, equals only
itself.  CatalogEntry equality takes in sigma_closed (by identity).
"""

from fractions import Fraction

import numpy as np
import pytest

from ghostmeasure import (
    AffineParams,
    Approximant,
    CatalogEntry,
    CoeffTable,
    CoeffValue,
    ConcentrationThreshold,
    DensityEstimate,
    DomainError,
    DyadicInterval,
    LebesgueClass,
    LinearRepresentation,
    MeasureKind,
    SpectralDiagnostic,
    catalog_lookup,
)

IDENTITY = AffineParams(2, 2, 0, 1, 1)
IDENTITY_TEXT = "AffineParams(a0=2, a1=2, b0=0, b1=1, f1=1)"

# (record type, its fields by keyword, how many trailing fields are given at
# their defaults, the repr)
RECORDS = [
    (AffineParams, dict(a0=1, a1=2, b0=0, b1=1, f1=1), 1,
     "AffineParams(a0=1, a1=2, b0=0, b1=1, f1=1)"),
    (CatalogEntry, dict(name="identity", params=IDENTITY, summary="f(n) = n", case="2A",
                        kind="lebesgue", sigma_closed=None), 1,
     f"CatalogEntry(name='identity', params={IDENTITY_TEXT}, summary='f(n) = n', case='2A', "
     "kind='lebesgue', sigma_closed=None)"),
    (DyadicInterval, dict(bits=()), 1, "DyadicInterval(bits=())"),
    (Approximant, dict(params=IDENTITY, level=3, total=92), 0,
     f"Approximant(params={IDENTITY_TEXT}, level=3, total=92)"),
    (CoeffValue, dict(value=0.5 - 0.25j, tail_bound=1e-12, depth=40), 0,
     "CoeffValue(value=(0.5-0.25j), tail_bound=1e-12, depth=40)"),
    (CoeffTable, dict(re=np.array([1.0]), im=np.array([0.0]), abs=np.array([1.0]),
                      tail_bound=np.array([0.0]), depth=np.array([0])), 0,
     "CoeffTable(re=array([1.]), im=array([0.]), abs=array([1.]), tail_bound=array([0.]), "
     "depth=array([0]))"),
    (LebesgueClass, dict(kind=MeasureKind.LEBESGUE, case="1A", support=None), 1,
     "LebesgueClass(kind=<MeasureKind.LEBESGUE: 'lebesgue'>, case='1A', support=None)"),
    (ConcentrationThreshold, dict(lambda_cap=0.25, minority_digit=0), 0,
     "ConcentrationThreshold(lambda_cap=0.25, minority_digit=0)"),
    (DensityEstimate, dict(value=0.5, tail_bound=0.125, exact=Fraction(1, 2)), 0,
     "DensityEstimate(value=0.5, tail_bound=0.125, exact=Fraction(1, 2))"),
    (LinearRepresentation, dict(dim=1, c0=((2,),), c1=((2,),), left=(1,), right=(1,)), 0,
     "LinearRepresentation(dim=1, c0=((2,),), c1=((2,),), left=(1,), right=(1,))"),
    (SpectralDiagnostic, dict(rho=4, rho_star=2, log_ratio=1.0), 0,
     "SpectralDiagnostic(rho=4, rho_star=2, log_ratio=1.0)"),
]


@pytest.mark.parametrize("cls, fields, defaulted, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_behaviour(cls, fields, defaulted, text):
    values = tuple(fields.values())
    rec = cls(*values)
    assert repr(rec) == text
    assert [getattr(rec, name) for name in fields] == list(values)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(rec, name, value)
    # a record is the tuple of its fields
    assert tuple(rec) == values and len(rec) == len(values)
    twins = [cls(**fields), cls(*values[:len(values) - defaulted])]
    if cls is CoeffTable:
        assert rec == rec and hash(rec) == hash(rec)
        assert all(rec != twin and not rec == twin for twin in twins)
        assert rec != values and values != rec
    else:
        assert rec == values and values == rec
        for twin in twins:
            assert rec == twin and not rec != twin and hash(rec) == hash(twin)


def test_make_and_replace_build_checked_records():
    assert DyadicInterval("01")._replace(bits="110") == DyadicInterval._make(["110"]) == ((1, 1, 0),)
    assert AffineParams(1, 2, 0, 1)._replace(f1=3) == AffineParams._make((1, 2, 0, 1, 3))


def test_catalog_entry_equality_takes_in_sigma_closed():
    entry = catalog_lookup("identity")
    assert entry.sigma_closed is not None
    assert entry == CatalogEntry(*entry)
    assert entry != entry._replace(sigma_closed=None)


@pytest.mark.parametrize("build, message", [
    (lambda: AffineParams(-1, 2, 0, 1), "a0 must be a non-negative integer, got -1"),
    (lambda: AffineParams(1, 2, 0, 1, 1.0), "f1 must be a non-negative integer, got 1.0"),
    (lambda: AffineParams(0, 0, 0, 0, 1), "coefficients A0, A1, b0, b1 must not all be zero"),
    (lambda: DyadicInterval("012"), "bit string may contain only 0 and 1, got '012'"),
    (lambda: DyadicInterval(bits=(0, 2)), "bits must be 0/1, got (0, 2)"),
    (lambda: Approximant(IDENTITY, 3, 0), "approximant total must be positive"),
    # _make and _replace check the fields as construction does
    (lambda: AffineParams(1, 2, 0, 1)._replace(a0=-1), "a0 must be a non-negative integer, got -1"),
    (lambda: AffineParams._make((0, 0, 0, 0, 1)), "coefficients A0, A1, b0, b1 must not all be zero"),
    (lambda: DyadicInterval("01")._replace(bits="012"), "bit string may contain only 0 and 1, got '012'"),
    (lambda: Approximant(IDENTITY, 3, 92)._replace(total=0), "approximant total must be positive"),
])
def test_record_validation_messages(build, message):
    with pytest.raises(DomainError) as exc:
        build()
    assert str(exc.value) == message
