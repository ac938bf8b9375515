"""The seven record types are immutable NamedTuples with value equality
and value hashes, and the two that validate their fields cannot be built
around the check through _replace or _make."""

import pytest

from meanbound import (
    H_INFO,
    SPECS,
    DomainError,
    HFunctionId,
    InequalitySpec,
    PositivePair,
    bernoulli_table,
    certify,
    csc_series,
    default_table,
    sharp_bounds,
)

RECORDS = {
    "BernoulliTable": lambda: bernoulli_table(8),
    "SeriesEvaluation": lambda: csc_series(0.3),
    "HFunctionInfo": lambda: H_INFO[HFunctionId.H4],
    "PositivePair": lambda: PositivePair(2, 1),
    "InequalitySpec": lambda: SPECS["prop1.1"],
    "SharpBounds": lambda: sharp_bounds(SPECS["thm5.2"]),
    "CertificationReport": lambda: certify(SPECS["prop1.1"], 1000, 7, 1e-12),
}


class TestValidationCannotBeSkipped:
    @pytest.mark.parametrize("changes", [{"kernel": "h1"}, {"theta_sub": "cos"}])
    def test_spec_replace_validates(self, changes):
        with pytest.raises(DomainError):
            SPECS["prop1.1"]._replace(**changes)

    def test_pair_replace_validates(self):
        with pytest.raises(DomainError):
            PositivePair(1.0, 2.0)._replace(a=-1.0)

    def test_pair_make_validates(self):
        with pytest.raises(DomainError):
            PositivePair._make((0.0, 1.0))

    def test_valid_replace_keeps_the_class_and_converts(self):
        pair = PositivePair(1.0, 2.0)._replace(b=3)
        assert type(pair) is PositivePair
        assert pair == (1.0, 3.0) and type(pair.b) is float
        spec = SPECS["prop1.2"]._replace(p=0.51)
        assert type(spec) is InequalitySpec and spec.p == 0.51


@pytest.mark.parametrize("name", RECORDS)
class TestRecordSemantics:
    def test_class_name(self, name):
        assert type(RECORDS[name]()).__name__ == name

    def test_fields_and_new_attributes_cannot_be_set(self, name):
        record = RECORDS[name]()
        for field in (*record._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, field, 0)

    def test_equal_fields_give_equal_objects_and_hashes(self, name):
        record = RECORDS[name]()
        again = type(record)(*record)
        assert again is not record
        assert again == record
        assert hash(again) == hash(record) == hash(tuple(record))


def test_table_hash_is_a_value_hash():
    # the table is _float_coefficients' lru_cache key
    assert default_table() is not bernoulli_table(64)
    assert hash(default_table()) == hash(bernoulli_table(64))


# Captured from the frozen-dataclass versions of these classes.
def test_reprs_are_unchanged():
    assert repr(SPECS["prop1.1"]) == (
        "InequalitySpec(id='prop1.1', target=<MeanKind.SEIFFERT_P: 'P'>, "
        "hi=<MeanKind.ARITHMETIC: 'A'>, lo=<MeanKind.HARMONIC: 'H'>, "
        "kernel=<HFunctionId.H1: 'h1'>, theta_sub='sin', p=1.0, q=0.0)"
    )
    assert repr(sharp_bounds(SPECS["thm5.2"])) == (
        "SharpBounds(alpha=0.1939759058389608, beta=0.25, "
        "alpha_exact='(pi-2*sqrt2)/(sqrt2*pi-2*sqrt2)', beta_exact='1/4')"
    )
    assert repr(certify(SPECS["prop1.1"], 1000, 7, 1e-12)) == (
        "CertificationReport(id='prop1.1', samples=1000, violations=0, "
        "worst_margin=-1.1102230246251565e-16, seed=7, tolerance=1e-12, "
        "worst_x=6.132365881368347e+252, alpha_probe_gap=8.104000246489385e-05, "
        "beta_probe_gap=1.18043796959455e-10)"
    )
    assert repr(PositivePair(1, 2)) == "PositivePair(a=1.0, b=2.0, degenerate=False)"
