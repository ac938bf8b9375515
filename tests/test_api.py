"""The public API: each module's __all__ is the one list of its public
names, and the package re-exports exactly those plus __version__."""

import inspect

import meanbound
from meanbound import bernoulli, bounds, errors, kernels, means

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
