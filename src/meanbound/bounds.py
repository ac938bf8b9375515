"""Sharp convex-combination bounds linking Seiffert and classical means.

Seven named double inequalities of the form

    alpha*hi + (1 - alpha)*lo  <  target  <  beta*hi + (1 - beta)*lo

hold for every positive pair with a != b, with best-possible (alpha, beta).
Each inequality reduces, through the substitutions x = a/b,
t = (x - 1)/(x + 1), and t = sin(theta) or t = tan(theta), to an affine
image p*h(theta) + q of one kernel function on (0, theta_right).  The
kernels are strictly monotone, so the ratio

    (target - lo) / (hi - lo)

moves strictly between its two endpoint limits: beta is approached as
a -> b and alpha as a/b -> inf, and neither constant can be improved.

This module states each reduction once, as data, derives the sharp
constants from it (alpha in closed form, beta exactly), recovers them
independently by golden-section probing plus Richardson extrapolation
of the kernel, and certifies the inequalities on deterministic samples.
"""

from __future__ import annotations

import math
import numbers
import struct
from collections.abc import Iterable
from fractions import Fraction
from typing import NamedTuple

from .errors import ConvergenceError, DegeneratePairError, DomainError
from .kernels import H_INFO, HFunctionId, h_eval
from .means import _EVALUATORS, MeanKind, PositivePair, _not_a_pair, _reduce, eval_mean

__all__ = [
    "CertificationReport",
    "InequalitySpec",
    "SPECS",
    "SharpBounds",
    "certify",
    "certify_many",
    "equivalence_check",
    "numeric_extrema",
    "ratio",
    "ratio_via_kernel",
    "sharp_bounds",
]


def _check_finite(**named: object) -> None:
    for name, value in named.items():
        try:
            finite = isinstance(value, numbers.Real) and math.isfinite(value)
        except OverflowError:  # an int too large for binary64
            finite = False
        if not finite:
            raise DomainError(f"{name} must be a finite real number, got {value!r}")


def _not_a_spec(spec: object) -> DomainError:
    return DomainError(f"spec must be an InequalitySpec, got {spec!r}")


def _check_spec(spec: object) -> None:
    if not isinstance(spec, InequalitySpec):
        raise _not_a_spec(spec)


# theta_sub -> right end of the theta range
_THETA_SUBS = {"sin": 0.5 * math.pi, "tan": 0.25 * math.pi}


class _SpecFields(NamedTuple):
    id: str
    target: MeanKind
    hi: MeanKind
    lo: MeanKind
    kernel: HFunctionId
    theta_sub: str
    p: float
    q: float


class InequalitySpec(_SpecFields):
    """One double inequality and its kernel reduction.

    The claim is alpha*hi + (1-alpha)*lo < target < beta*hi + (1-beta)*lo,
    and (target - lo)/(hi - lo) == p*h(theta) + q with t = (x-1)/(x+1) and
    t = sin(theta) ('sin') or t = tan(theta) ('tan'), theta in
    (0, theta_right), where theta_right is pi/2 or pi/4 accordingly.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> InequalitySpec:
        self = super().__new__(cls, *args, **kwargs)
        if not isinstance(self.kernel, HFunctionId) or not all(
                isinstance(kind, MeanKind) for kind in (self.target, self.hi, self.lo)):
            raise DomainError(f"kernel must be an HFunctionId and target, hi, lo MeanKinds, got {self!r}")
        try:
            _THETA_SUBS[self.theta_sub]
        except (KeyError, TypeError):  # TypeError: an unhashable theta_sub
            raise DomainError(f"theta_sub must be 'sin' or 'tan', got {self.theta_sub!r}") from None
        _check_finite(p=self.p, q=self.q)
        return self

    @classmethod
    def _make(cls, iterable) -> InequalitySpec:
        return cls(*iterable)  # so _replace validates too

    @property
    def theta_right(self) -> float:
        return _THETA_SUBS[self.theta_sub]


SPECS: dict[str, InequalitySpec] = {
    s.id: s
    for s in (
        InequalitySpec("prop1.1", MeanKind.SEIFFERT_P, MeanKind.ARITHMETIC,
                       MeanKind.HARMONIC, HFunctionId.H1, "sin", 1.0, 0.0),
        InequalitySpec("prop1.2", MeanKind.SEIFFERT_P, MeanKind.CONTRA_HARMONIC,
                       MeanKind.HARMONIC, HFunctionId.H1, "sin", 0.5, 0.0),
        InequalitySpec("prop1.3", MeanKind.SEIFFERT_T, MeanKind.ROOT_SQUARE,
                       MeanKind.ARITHMETIC, HFunctionId.H2, "tan", 1.0, 0.0),
        InequalitySpec("prop1.4", MeanKind.SEIFFERT_P, MeanKind.CENTROIDAL,
                       MeanKind.HARMONIC, HFunctionId.H1, "sin", 0.75, 0.0),
        InequalitySpec("thm5.1", MeanKind.SEIFFERT_T, MeanKind.CONTRA_HARMONIC,
                       MeanKind.HARMONIC, HFunctionId.H3, "tan", -0.5, 1.0),
        InequalitySpec("thm5.2", MeanKind.ROOT_SQUARE, MeanKind.CONTRA_HARMONIC,
                       MeanKind.SEIFFERT_T, HFunctionId.H4, "tan", 1.0, 0.0),
        InequalitySpec("thm5.3", MeanKind.SEIFFERT_P, MeanKind.ARITHMETIC,
                       MeanKind.GEOMETRIC, HFunctionId.H2, "sin", 1.0, 0.0),
    )
}


class SharpBounds(NamedTuple):
    """Best-possible constants of one inequality, numeric and symbolic.

    alpha is the infimum of the ratio, approached as a/b -> inf; beta is
    the supremum, approached as a -> b.  Neither value is attained.
    """

    alpha: float
    beta: float
    alpha_exact: str
    beta_exact: str


# Closed forms of the affine images p*h(theta_right) + q, evaluated
# exactly on 50-digit pi and sqrt(2) and rounded once, so pi - 2*sqrt2
# (thm5.2) does not cancel away the low bits of its float.
_PI = Fraction("3.1415926535897932384626433832795028841971693993751")
_SQRT2 = Fraction("1.4142135623730950488016887242096980785696718753769")
_CLOSED_FORMS: dict[str, tuple[str, float]] = {
    "prop1.1": ("2/pi", float(2 / _PI)),
    "prop1.2": ("1/pi", float(1 / _PI)),
    "prop1.3": ("(4-pi)/((sqrt2-1)*pi)", float((4 - _PI) / ((_SQRT2 - 1) * _PI))),
    "prop1.4": ("3/(2*pi)", float(3 / (2 * _PI))),
    "thm5.1": ("2/pi", float(2 / _PI)),
    "thm5.2": ("(pi-2*sqrt2)/(sqrt2*pi-2*sqrt2)", float((_PI - 2 * _SQRT2) / (_SQRT2 * _PI - 2 * _SQRT2))),
    "thm5.3": ("2/pi", float(2 / _PI)),
}


def sharp_bounds(spec: InequalitySpec) -> SharpBounds:
    """Best-possible (alpha, beta) for one of the seven inequalities.

    The constants are the affine images p*h + q of the kernel's value at
    theta_right (alpha side, in closed form) and of its limit at 0+ (beta
    side, exact from p, q and the rational limit, so a wrong p or q shows).
    """
    _check_spec(spec)
    try:
        a_str, a_val = _CLOSED_FORMS[spec.id]
    except (KeyError, TypeError):  # TypeError: an unhashable id
        raise DomainError(f"unknown inequality id {spec.id!r}") from None
    beta = Fraction(spec.p) * H_INFO[spec.kernel].limit_at_zero + Fraction(spec.q)
    return SharpBounds(alpha=a_val, beta=float(beta), alpha_exact=a_str, beta_exact=str(beta))


def ratio(spec: InequalitySpec, pair: PositivePair) -> float:
    """(target - lo)/(hi - lo), computed from the means themselves."""
    try:
        target = spec.target
    except AttributeError:
        raise _not_a_spec(spec) from None
    try:
        degenerate = pair.degenerate
    except AttributeError:
        raise _not_a_pair(pair) from None
    if degenerate:
        raise DegeneratePairError(f"ratio of {spec.id} is 0/0 at a == b")
    t = eval_mean(target, pair)
    h = eval_mean(spec.hi, pair)
    lo = eval_mean(spec.lo, pair)
    if h == lo:
        raise DegeneratePairError(
            f"ratio of {spec.id} is 0/0: hi - lo rounds to 0 at a={pair.a!r}, b={pair.b!r}"
        )
    return (t - lo) / (h - lo)


def ratio_via_kernel(spec: InequalitySpec, pair: PositivePair) -> float:
    """The same ratio through the substitution chain, as p*h(theta) + q.

    With r = min(a, b)/max(a, b), sin(theta) or tan(theta) = (1-r)/(1+r)
    gives theta = atan2(1 - r, 2*sqrt(r)) or atan2(1 - r, 1 + r).  Unlike
    asin near 1, neither amplifies rounding as a/b grows, and r = 0 gives
    theta_right."""
    try:
        theta_sub = spec.theta_sub
    except AttributeError:
        raise _not_a_spec(spec) from None
    _, r = _reduce(pair)
    if r == 1.0:  # exactly when a == b
        raise DegeneratePairError(f"ratio of {spec.id} is 0/0 at a == b")
    theta = math.atan2(1.0 - r, 2.0 * math.sqrt(r) if theta_sub == "sin" else 1.0 + r)
    return spec.p * h_eval(spec.kernel, theta) + spec.q


# ---------------------------------------------------------------------------
# independent numerical recovery of the constants

_RICHARDSON_KS = range(4, 17)
_RICHARDSON_TOL = 1e-9
_GOLDEN_SLACK = 1e-12
_GOLDEN_ITERS = 80
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _richardson(values: list[float], step_factor: float) -> tuple[float, float]:
    """Extrapolate f(h_0 / r^i) -> f(0) from successively halved steps.

    ``step_factor`` is the per-column error reduction (r^2 = 4 for even
    expansions probed with halved steps, r = 2 for full expansions).
    Returns the extrapolated limit and a coarse error estimate.
    """
    row = list(values)
    best = row[-1]
    prev = row[-1]
    factor = 1.0
    for _ in range(1, len(values)):
        factor *= step_factor
        row = [(factor * row[i + 1] - row[i]) / (factor - 1.0) for i in range(len(row) - 1)]
        prev, best = best, row[-1]
    return best, abs(best - prev)


def _golden_min(f, a: float, b: float) -> float:
    """Smallest value probed by a golden-section search on [a, b]."""
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc = f(c)
    fd = f(d)
    for _ in range(_GOLDEN_ITERS):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return min(fc, fd)


def numeric_extrema(spec: InequalitySpec) -> tuple[float, float]:
    """Recover (inf, sup) of the ratio over theta in (0, theta_right).

    Golden-section probes confirm no interior extremum beats the interval
    ends (the kernel is monotone), and Richardson extrapolation of the
    ratio along theta = 2^-k and theta = theta_right*(1 - 2^-k), k = 4..16,
    recovers the two endpoint limits.  Agrees with sharp_bounds to better
    than 1e-8 absolute; raises ConvergenceError when the internal error
    estimates say otherwise, which would signal an implementation bug.
    """
    _check_spec(spec)

    def g(theta: float) -> float:
        return spec.p * h_eval(spec.kernel, theta) + spec.q

    left_vals = [g(2.0**-k) for k in _RICHARDSON_KS]
    # the kernels are even around 0, so halving the step cuts the error by 4
    lim_left, err_left = _richardson(left_vals, 4.0)
    right_vals = [g(spec.theta_right * (1.0 - 2.0**-k)) for k in _RICHARDSON_KS]
    lim_right, err_right = _richardson(right_vals, 2.0)
    if err_left > _RICHARDSON_TOL or err_right > _RICHARDSON_TOL:
        raise ConvergenceError(
            f"{spec.id}: endpoint extrapolation did not settle "
            f"(error estimates {err_left:.3e}, {err_right:.3e})"
        )

    k_last = max(_RICHARDSON_KS)
    a = 2.0**-k_last
    b = spec.theta_right * (1.0 - 2.0**-k_last)
    end_hi = max(g(a), g(b))
    end_lo = min(g(a), g(b))
    interior_max = -_golden_min(lambda th: -g(th), a, b)
    interior_min = _golden_min(g, a, b)
    if interior_max > end_hi + _GOLDEN_SLACK or interior_min < end_lo - _GOLDEN_SLACK:
        raise ConvergenceError(f"{spec.id}: interior extremum beats the endpoints")

    return min(lim_left, lim_right), max(lim_left, lim_right)


# ---------------------------------------------------------------------------
# certification

# Per-sample deterministic stream: splitmix64-style finalizer over
# (seed, index), so any sharding of the index range reproduces the report.
_M64 = (1 << 64) - 1
_GAMMA = 0xD1B54A32D192ED03

# Samples are drawn and their means evaluated one block at a time, so the
# memory a run needs does not grow with n_samples.  The finalizer runs on
# a whole block at once, as _BLOCK 128-bit lanes of one int: lane i
# (bits 128i and up) holds sample first + i.  A lane's value is below
# 2^64 + _BLOCK*_GAMMA before the first mask and below 2^128 after each
# multiply, so no carry reaches the next lane.  A right shift pulls the
# next lane's low bits into the top of this one, and a multiply leaves
# 64 high bits; the mask before each shift and each multiply clears
# both, so every lane's low 64 bits are the scalar finalizer's.
_BLOCK = 256
_LANE_ONES = sum(1 << (128 * i) for i in range(_BLOCK))
_LANE_M64 = _M64 * _LANE_ONES
_LANE_STEPS = sum(i * _GAMMA << (128 * i) for i in range(_BLOCK))


def _units(seed: int, start: int, stop: int) -> list[float]:
    """The stream's uniforms z / 2^64, one per sample index in [start, stop)."""
    base = seed * 0x9E3779B97F4A7C15
    units: list[float] = []
    for first in range(start, stop, _BLOCK):
        n = min(_BLOCK, stop - first)
        z = (((base + (first + 1) * _GAMMA) & _M64) * _LANE_ONES + _LANE_STEPS) & _LANE_M64
        z = (((z ^ (z >> 30)) & _LANE_M64) * 0xBF58476D1CE4E5B9) & _LANE_M64
        z = (((z ^ (z >> 27)) & _LANE_M64) * 0x94D049BB133111EB) & _LANE_M64
        z ^= z >> 31
        lanes = struct.unpack_from(f"<{2 * n}Q", z.to_bytes(16 * _BLOCK, "little"))[::2]
        units += [lane / 18446744073709551616.0 for lane in lanes]  # 2^64
    return units


_LN_X_LO = math.log1p(1e-12)
_LN_X_HI = math.log(1e12)

_BETA_PROBE_X = 1.0 + 1e-4
_ALPHA_PROBE_X = 1e8
_BETA_PROBE_TOL = 1e-6
_ALPHA_PROBE_TOL = 1e-3
_TOL_MAX = 1e-9


class CertificationReport(NamedTuple):
    """Outcome of one certification run.

    ``worst_margin`` is the smallest relative margin seen on either side
    (negative means the bound was crossed at ``worst_x``); the probe gaps
    measure how closely the ratio approaches the sharp constants near the
    two ends of the sampling range.
    """

    id: str
    samples: int
    violations: int
    worst_margin: float
    seed: int
    tolerance: float
    worst_x: float | None
    alpha_probe_gap: float
    beta_probe_gap: float

    @property
    def ok(self) -> bool:
        return self.violations == 0


_ChunkResult = tuple[int, float, float | None]


def _scan(
    xs: list[float],
    targets: list[float],
    his: list[float],
    los: list[float],
    alpha: float,
    beta: float,
    tol: float,
    state: _ChunkResult,
) -> _ChunkResult:
    """Fold one check's margins over a block into (violations, worst, worst_x).

    The margin is the smaller of the two relative margins, the lower side
    on a tie (as min keeps its first argument); the worst margin keeps the
    smallest x among equal ones.  The loop calls no function per sample.
    """
    violations, worst, worst_x = state
    one_minus_alpha = 1.0 - alpha
    one_minus_beta = 1.0 - beta
    neg_tol = -tol
    for x, t, h, lo_v in zip(xs, targets, his, los):
        margin = (t - (alpha * h + one_minus_alpha * lo_v)) / t
        upper_margin = (beta * h + one_minus_beta * lo_v - t) / t
        if upper_margin < margin:
            margin = upper_margin
        if margin <= worst and (margin < worst or (worst_x is not None and x < worst_x)):
            worst = margin
            worst_x = x
        if margin < neg_tol:
            violations += 1
    return violations, worst, worst_x


def _certify_chunk(
    checks: list[tuple[InequalitySpec, float, float]],
    tol: float,
    seed: int,
    start: int,
    stop: int,
) -> list[_ChunkResult]:
    """Violation count, worst margin and its x over sample indices
    [start, stop), one triple per (spec, alpha, beta) check.

    All checks share one sample stream: each x is drawn once and each
    distinct mean kind evaluated once at it, however many checks use it.
    The range is taken in blocks of _BLOCK indices, whose uniforms come
    from one _units draw; since each uniform depends on (seed, index)
    alone, the block bounds do not change any sample.  Every sample is
    the pair (x, 1) with x in [1 + 1e-12, 1e12], whose reduction is
    m = x and r = 1/x, so each mean is x*M(1, 1/x), as in eval_mean.
    """
    kinds = dict.fromkeys(kind for spec, _, _ in checks for kind in (spec.target, spec.hi, spec.lo))
    span = _LN_X_HI - _LN_X_LO
    results: list[_ChunkResult] = [(0, math.inf, None)] * len(checks)
    for first in range(start, stop, _BLOCK):
        xs = [math.exp(_LN_X_LO + span * u) for u in _units(seed, first, min(first + _BLOCK, stop))]
        rs = [1.0 / x for x in xs]
        values = {}
        for kind in kinds:
            f = _EVALUATORS[kind]
            values[kind] = [x * f(r) for x, r in zip(xs, rs)]
        for n, (spec, alpha, beta) in enumerate(checks):
            results[n] = _scan(xs, values[spec.target], values[spec.hi], values[spec.lo],
                               alpha, beta, tol, results[n])
    return results


def _check_run(n_samples: object, seed: object, tol: object,
               alpha: object = None, beta: object = None) -> None:
    """The argument checks of certify and certify_many."""
    for name, value in (("n_samples", n_samples), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise DomainError(f"{name} must be an integer, got {value!r}")
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples!r}")
    _check_finite(tol=tol, **{n: v for n, v in (("alpha", alpha), ("beta", beta)) if v is not None})
    if not 0.0 < tol <= _TOL_MAX:
        bound = "positive" if tol <= 0.0 else f"at most {_TOL_MAX!r}"
        raise DomainError(f"tol must be {bound}, got {tol!r}")


def _certify_specs(
    specs: list[InequalitySpec],
    n_samples: int,
    seed: int,
    tol: float,
    alpha: float | None,
    beta: float | None,
) -> list[CertificationReport]:
    sharps = [sharp_bounds(spec) for spec in specs]
    checks = [
        (spec, sharp.alpha if alpha is None else float(alpha), sharp.beta if beta is None else float(beta))
        for spec, sharp in zip(specs, sharps)
    ]
    reports = []
    for spec, sharp, (violations, worst, worst_x) in zip(
        specs, sharps, _certify_chunk(checks, tol, seed, 0, n_samples)
    ):
        beta_gap = abs(ratio(spec, PositivePair(_BETA_PROBE_X, 1.0)) - sharp.beta)
        alpha_gap = abs(ratio(spec, PositivePair(_ALPHA_PROBE_X, 1.0)) - sharp.alpha)
        violations += int(beta_gap > _BETA_PROBE_TOL) + int(alpha_gap > _ALPHA_PROBE_TOL)
        reports.append(
            CertificationReport(
                id=spec.id,
                samples=n_samples,
                violations=violations,
                worst_margin=worst,
                seed=seed,
                tolerance=tol,
                worst_x=worst_x,
                alpha_probe_gap=alpha_gap,
                beta_probe_gap=beta_gap,
            )
        )
    return reports


def certify(
    spec: InequalitySpec,
    n_samples: int,
    seed: int,
    tol: float,
    *,
    alpha: float | None = None,
    beta: float | None = None,
) -> CertificationReport:
    """Sample-based certification of one double inequality.

    Draws ``n_samples`` ratios x = a/b log-uniformly over [1 + 1e-12, 1e12]
    with b = 1 (homogeneity covers every other pair) and checks the strict
    double inequality at (alpha, beta), which default to the sharp
    constants.  A sample counts as a violation when its relative margin
    drops below -tol; tol, in (0, 1e-9], absorbs the rounding noise of
    the mean differences near a == b, where the true margins vanish.

    Sharpness of the sharp constants is probed at x = 1 + 1e-4 (ratio
    within 1e-6 of beta) and x = 1e8 (within 1e-3 of alpha); a failed
    probe counts as one violation.

    The report is a value, never an exception, and is deterministic for a
    fixed seed.
    """
    _check_spec(spec)
    _check_run(n_samples, seed, tol, alpha, beta)
    return _certify_specs([spec], n_samples, seed, tol, alpha, beta)[0]


def certify_many(
    specs: Iterable[InequalitySpec],
    n_samples: int,
    seed: int,
    tol: float,
) -> list[CertificationReport]:
    """certify each spec at its sharp constants, in one pass over one
    shared sample stream.

    Returns one report per spec, in order, each equal to
    ``certify(spec, n_samples, seed, tol)``; the stream is drawn and each
    distinct mean evaluated once per sample instead of once per spec.
    """
    try:
        specs = list(specs)
    except TypeError:
        raise DomainError(f"specs must be an iterable of InequalitySpecs, got {specs!r}") from None
    if not specs:
        raise DomainError("certify_many needs at least one spec")
    for spec in specs:
        _check_spec(spec)
    _check_run(n_samples, seed, tol)
    return _certify_specs(specs, n_samples, seed, tol, None, None)


# ---------------------------------------------------------------------------
# equivalence of the three h1-based inequalities

_EQ_LN_LO = math.log(1.3)
_EQ_LN_HI = math.log(1e12)
_EQ_SAMPLES = 1000
_EQ_SEED = 20260808
_EQ_REL_TOL = 1e-12


def equivalence_check() -> bool:
    """True when the three h1-based inequalities share one kernel up to
    their affine maps: ratio(prop1.2) = (1/2) ratio(prop1.1) and
    ratio(prop1.4) = (3/4) ratio(prop1.1), to 1e-12 relative, on 1000
    fixed pairs (x, 1) with x log-uniform in [1.3, 1e12].

    The expected factors come from the p fields in SPECS, so a crooked p
    there makes the check fail.  Samples keep x = a/b >= 1.3: the ratios
    are quotients of mean differences, whose rounding noise near a == b
    would swamp a 1e-12 comparison.
    """
    base, half, three_quarters = SPECS["prop1.1"], SPECS["prop1.2"], SPECS["prop1.4"]
    f_half = half.p / base.p
    f_tq = three_quarters.p / base.p
    span = _EQ_LN_HI - _EQ_LN_LO
    for u in _units(_EQ_SEED, 0, _EQ_SAMPLES):
        pair = PositivePair(math.exp(_EQ_LN_LO + span * u), 1.0)
        r_base = ratio(base, pair)
        if abs(ratio(half, pair) - f_half * r_base) > _EQ_REL_TOL * abs(f_half * r_base):
            return False
        if abs(ratio(three_quarters, pair) - f_tq * r_base) > _EQ_REL_TOL * abs(f_tq * r_base):
            return False
    return True
