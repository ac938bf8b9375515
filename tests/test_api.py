"""The public API: each module's __all__ is the one list of its public
names, and the package re-exports exactly those plus __version__."""

import importlib
import inspect
from decimal import Decimal

import pytest

import meanbound
from meanbound import (
    SPECS,
    HFunctionId,
    InequalitySpec,
    MeanBoundError,
    MeanKind,
    PositivePair,
    bernoulli,
    bounds,
    certify,
    certify_many,
    csc_coefficients,
    errors,
    eval_mean,
    h_eval,
    half_sum_ratio,
    kernels,
    means,
    numeric_extrema,
    ratio,
    ratio_via_kernel,
    seiffert_p_arctan_form,
    sharp_bounds,
)

PUBLIC = {
    "BernoulliTable", "CertificationReport", "ConvergenceError", "DegeneratePairError",
    "DomainError", "H_INFO", "HFunctionId", "HFunctionInfo", "InequalitySpec",
    "MeanBoundError", "MeanKind", "PositivePair", "SPECS", "SeriesEvaluation",
    "SharpBounds", "X_SWITCH", "bernoulli_table", "certify", "certify_many",
    "cot_coefficients", "cot_series", "csc_coefficients", "csc_series",
    "csc_sq_coefficients", "csc_sq_series", "default_table", "equivalence_check",
    "eval_mean", "h1_coefficients", "h3_coefficients", "h_eval", "h_limit",
    "half_sum_ratio", "numeric_extrema", "ratio", "ratio_via_kernel",
    "seiffert_p_arctan_form", "sharp_bounds", "__version__",
}


def test_public_names_are_pinned():
    assert set(meanbound.__all__) == PUBLIC
    assert len(meanbound.__all__) == len(PUBLIC)
    for name in PUBLIC:
        assert hasattr(meanbound, name), name


def test_each_name_comes_from_one_module_all():
    modules = (bernoulli, bounds, errors, kernels, means)
    stated = [name for module in modules for name in module.__all__]
    assert sorted([*stated, "__version__"]) == sorted(meanbound.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(meanbound, name) is getattr(module, name)


def test_equivalence_check_takes_no_arguments():
    assert not inspect.signature(meanbound.equivalence_check).parameters


@pytest.mark.parametrize("module_name", ["meanbound", "meanbound.cli"])
def test_unknown_attributes_are_refused(module_name):
    # each module's __getattr__ serves its lazy names and refuses the rest
    module = importlib.import_module(module_name)
    with pytest.raises(AttributeError, match=f"^module '{module_name}' has no attribute 'nosuch'$"):
        module.nosuch


# Arguments of the wrong type: a tuple for a PositivePair, None for an
# order or an InequalitySpec, None or an int for a list of specs,
# an id for a spec, an unhashable theta_sub or spec id, and a Decimal,
# which compares with floats but fails in the kernels' float arithmetic.
@pytest.mark.parametrize("call", [
    lambda: eval_mean(MeanKind.ARITHMETIC, (1, 2)),
    lambda: ratio(SPECS["prop1.1"], (2.0, 1.0)),
    lambda: ratio_via_kernel(SPECS["prop1.1"], (2.0, 1.0)),
    lambda: ratio(None, PositivePair(2.0, 1.0)),
    lambda: ratio_via_kernel(None, PositivePair(2.0, 1.0)),
    lambda: half_sum_ratio((1, 2)),
    lambda: seiffert_p_arctan_form((2.0, 1.0)),
    lambda: csc_coefficients(None),
    lambda: h_eval(HFunctionId.H1, Decimal("0.7")),
    lambda: h_eval(HFunctionId.H1, Decimal("0.3")),
    lambda: certify(None, 10, 1, 1e-12),
    lambda: certify_many([None], 10, 1, 1e-12),
    lambda: certify_many(None, 10, 1, 1e-12),
    lambda: certify_many(5, 10, 1, 1e-12),
    lambda: sharp_bounds("prop1.1"),
    lambda: numeric_extrema(None),
    lambda: InequalitySpec("x", MeanKind.SEIFFERT_P, MeanKind.ARITHMETIC, MeanKind.HARMONIC,
                           HFunctionId.H1, [], 1.0, 0.0),
    lambda: sharp_bounds(SPECS["prop1.1"]._replace(id=["prop1.1"])),
    lambda: certify(SPECS["prop1.1"]._replace(id=["prop1.1"]), 10, 1, 1e-12),
    lambda: certify_many([SPECS["prop1.1"]._replace(id={"prop1.1": 1})], 10, 1, 1e-12),
], ids=[
    "eval_mean-tuple", "ratio-tuple", "ratio_via_kernel-tuple", "ratio-None",
    "ratio_via_kernel-None", "half_sum_ratio-tuple",
    "seiffert_p_arctan_form-tuple", "csc_coefficients-None", "h_eval-Decimal-direct",
    "h_eval-Decimal-series", "certify-None", "certify_many-None", "certify_many-not-iterable-None",
    "certify_many-not-iterable-int", "sharp_bounds-str",
    "numeric_extrema-None", "InequalitySpec-theta_sub-list", "sharp_bounds-id-list",
    "certify-id-list", "certify_many-id-dict",
])
def test_wrong_argument_types_raise_meanbound_errors(call):
    with pytest.raises(MeanBoundError):
        call()
