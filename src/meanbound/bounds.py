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

This module takes both constants from the three means' exact end values,
checks each reduction, stated once as data, against them, recovers them
from the kernel (Richardson extrapolation to the limit at 0+, a direct
evaluation at theta_right, and a scan that checks the monotonicity in
between), and certifies each inequality on deterministic samples.
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
from .means import _END_CUT, _END_EXCESSES, _ENDS, _EXCESSES, _HALF_PI, _QUARTER_PI, MeanKind, PositivePair
from .means import _reduce
from .means import eval_mean  # noqa: F401  (unused, but perfbench/tracing.py wraps it here)

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
_THETA_SUBS = {"sin": _HALF_PI, "tan": _QUARTER_PI}


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
        if not isinstance(self.id, str) or not isinstance(self.kernel, HFunctionId) or not all(
                isinstance(kind, MeanKind) for kind in (self.target, self.hi, self.lo)):
            raise DomainError(
                f"id must be a str, kernel an HFunctionId and target, hi, lo MeanKinds, got {self!r}")
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


# alpha as the paper states it, for bounds-table, by (target, hi, lo) codes; the
# float comes from the means.  A triple outside SPECS has none and is refused.
_ALPHA_EXACT = {
    ("P", "A", "H"): "2/pi", ("P", "C", "H"): "1/pi", ("T", "S", "A"): "(4-pi)/((sqrt2-1)*pi)",
    ("P", "Cbar", "H"): "3/(2*pi)", ("T", "C", "H"): "2/pi", ("S", "C", "T"): "(pi-2*sqrt2)/(sqrt2*pi-2*sqrt2)",
    ("P", "A", "G"): "2/pi",
}


def sharp_bounds(spec: InequalitySpec) -> SharpBounds:
    """Best-possible (alpha, beta) for one of the seven inequalities.

    Each is (target - lo)/(hi - lo) over the three means' end values
    (means._ENDS): beta exactly, alpha rounded once.  DomainError refuses
    a (target, hi, lo) outside SPECS, whatever its id (so no hi and lo that
    meet at an end get this far), and a reduction unless p*h(0+) + q == beta
    and p*h(theta_right) + q is within 16 ulp of alpha (thm5.2's is 4 ulp off).
    """
    _check_spec(spec)
    codes = spec.target.value, spec.hi.value, spec.lo.value
    if codes not in _ALPHA_EXACT:
        raise DomainError(f"{spec.id}: no closed form is known for {codes[0]} between {codes[1]} and {codes[2]}")
    (t_0, t_1), (h_0, h_1), (l_0, l_1) = (_ENDS[kind] for kind in (spec.target, spec.hi, spec.lo))
    beta = (t_0 - l_0) / (h_0 - l_0)
    alpha = float((t_1 - l_1) / (h_1 - l_1))
    if Fraction(spec.p) * H_INFO[spec.kernel].limit_at_zero + Fraction(spec.q) != beta:
        raise DomainError(f"{spec.id}: p*h(0+) + q is not its beta {beta}")
    if not abs(spec.p * h_eval(spec.kernel, spec.theta_right) + spec.q - alpha) <= 16 * math.ulp(alpha):
        raise DomainError(f"{spec.id}: p*h(theta_right) + q is not its alpha {alpha!r}")
    return SharpBounds(alpha=alpha, beta=float(beta), alpha_exact=_ALPHA_EXACT[codes], beta_exact=str(beta))


def ratio(spec: InequalitySpec, pair: PositivePair) -> float:
    """(target - lo)/(hi - lo) as (e_target - e_lo)/(e_hi - e_lo), e the means'
    excesses: each mean is A*(1 + t^2*e), A the arithmetic mean, t = (1-r)/(1+r)
    and r = min(a, b)/max(a, b), so nothing cancels as a -> b.  For the seven
    SPECS it is within 16 ulp for a/b - 1 in [2^-52, 1e300], r underflowing to
    0 gives alpha, and only a == b is refused."""
    try:
        excesses = _EXCESSES[spec.target], _EXCESSES[spec.hi], _EXCESSES[spec.lo]
    except (AttributeError, KeyError, TypeError):
        raise _not_a_spec(spec) from None
    _, r = _reduce(pair)
    if r == 1.0:  # exactly when a == b
        raise DegeneratePairError(f"ratio of {spec.id} is 0/0 at a == b")
    e_target, e_hi, e_lo = [e(r) if callable(e) else e for e in excesses]
    if e_hi == e_lo:  # only for a pair of means outside SPECS
        raise DegeneratePairError(f"ratio of {spec.id} is 0/0: hi - lo rounds to 0 at a={pair.a!r}, b={pair.b!r}")
    return (e_target - e_lo) / (e_hi - e_lo)


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
_SCAN_STEPS = 64


def _richardson(values: list[float]) -> tuple[float, float]:
    """Extrapolate f(h_0 / 2^i) -> f(0) from successively halved steps.

    f is even, so each halving cuts a column's error by 4.  Returns the
    extrapolated limit and, as its error estimate, the gap between the two
    extrapolations of the column before it.
    """
    row = list(values)
    factor = 1.0
    while len(row) > 1:
        spread = abs(row[-1] - row[-2])
        factor *= 4.0
        row = [(factor * row[i + 1] - row[i]) / (factor - 1.0) for i in range(len(row) - 1)]
    return row[0], spread


def numeric_extrema(spec: InequalitySpec) -> tuple[float, float]:
    """Recover (inf, sup) of the ratio over theta in (0, theta_right).

    As in the paper, the ratio p*h(theta) + q is monotone, in the direction
    that H_INFO and the sign of p give, so its inf and sup are its end
    values.  The limit at 0+ is Richardson-extrapolated along theta = 2^-k,
    k = 4..16; theta_right lies inside the kernel's domain, so the ratio
    is evaluated there directly.  One scan over those probes and the grid
    theta_right*i/64, i = 1..64, checks the monotonicity.  Agrees with
    sharp_bounds to 2.5e-16; raises ConvergenceError when the limit does
    not settle or the scan is not monotone, which would signal a bug.
    """
    _check_spec(spec)
    thetas = [2.0**-k for k in _RICHARDSON_KS]
    thetas += [spec.theta_right * i / _SCAN_STEPS for i in range(1, _SCAN_STEPS + 1)]
    values = [spec.p * h_eval(spec.kernel, theta) + spec.q for theta in thetas]
    lim_left, err_left = _richardson(values[:len(_RICHARDSON_KS)])
    if err_left > _RICHARDSON_TOL:
        raise ConvergenceError(f"{spec.id}: the limit at 0+ did not settle (error estimate {err_left:.3e})")
    right_end = values[-1]  # theta_right*64/64 is theta_right exactly
    decreasing = H_INFO[spec.kernel].increasing == (spec.p < 0.0)
    # ordered so that a monotone ratio never falls along the scan
    scan = [value for _, value in sorted(zip(thetas, values), reverse=decreasing)]
    if any(later < earlier for earlier, later in zip(scan, scan[1:])):
        raise ConvergenceError(f"{spec.id}: the ratio is not {'de' if decreasing else 'in'}creasing in theta")
    return (right_end, lim_left) if decreasing else (lim_left, right_end)


# ---------------------------------------------------------------------------
# certification

# Per-sample deterministic stream: splitmix64-style finalizer over
# (seed, index), so any sharding of the index range reproduces the report.
_M64 = (1 << 64) - 1
_GAMMA = 0xD1B54A32D192ED03

# Samples are drawn and their excesses evaluated one block at a time, so the
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


# certify's samples: (x, 1), x = 1 + d, d log-uniform on [1e-15, 1e300]; a
# uniform above _U_END gives x > 1/means._END_CUT, where every excess has ended
_LN_D_LO = math.log(1e-15)
_LN_D_HI = math.log(1e300)
_U_END = (math.log(1.0 / _END_CUT - 1.0) - _LN_D_LO) / (_LN_D_HI - _LN_D_LO)

_BETA_PROBE_X = 1.0 + 1e-4
_ALPHA_PROBE_X = 1e8
_BETA_PROBE_TOL = 1e-6
_ALPHA_PROBE_TOL = 1e-3
_TOL_MAX = 1e-9


class CertificationReport(NamedTuple):
    """Outcome of one certification run.

    ``worst_margin`` is min(min rho - alpha, beta - max rho) over the samples'
    ratios rho, negative where a bound was crossed (at the sharp constants, by
    a few ulp of rounding); ``worst_x`` is x = a/b (b = 1) of the first sample
    in the stream at that extreme, the lower side on a tie, and
    ratio(spec, PositivePair(worst_x, 1)) reproduces it.  For prop1.1, 1.2, 1.4
    and thm5.1, folded on the target's excess, it is the first at the extreme
    excess; an earlier sample may round to the same ratio.  The probe gaps show
    how closely the ratio approaches the sharp constants at x = 1 + 1e-4, 1e8.
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


def _ratio_map(spec: InequalitySpec) -> tuple[float, float, bool]:
    """(shift, scale, shared): the ratio is (key - shift)/scale, the key being
    the target's excess if hi and lo have constant ones (p*h + q), else rho."""
    e_hi, e_lo = _EXCESSES[spec.hi], _EXCESSES[spec.lo]
    if callable(e_hi) or callable(e_lo) or e_hi <= e_lo:
        return 0.0, 1.0, False
    return e_lo, e_hi - e_lo, True


def _certify_chunk(
    checks: list[tuple[InequalitySpec, float, float]],
    tol: float,
    seed: int,
    start: int,
    stop: int,
) -> list[tuple]:
    """(violations, min key, its x, max key, its x) over sample indices
    [start, stop), per (spec, alpha, beta) check, x the first at that key
    (_ratio_map's).  The checks share one stream, drawn in blocks of _BLOCK
    indices (each uniform depends on (seed, index) alone).  A block's samples
    with u > _U_END (about 84% of them) share every excess, their end values:
    the first of them is evaluated like the samples below _U_END, and the
    others count as copies of it.  A check folds a block with min and max,
    counting its violations only when an extreme crosses alpha - tol or
    beta + tol."""
    maps = [_ratio_map(spec) for spec, _, _ in checks]
    kinds = {kind: _EXCESSES[kind] for spec, _, _ in checks for kind in (spec.target, spec.hi, spec.lo)}
    # inf: a substituted excess without an end value
    u_end = _U_END if all(e in _END_EXCESSES for e in kinds.values() if callable(e)) else math.inf
    span = _LN_D_HI - _LN_D_LO
    results: list[tuple] = [(0, math.inf, None, -math.inf, None)] * len(checks)
    for first in range(start, stop, _BLOCK):
        units = _units(seed, first, min(first + _BLOCK, stop))
        end = next((i for i, u in enumerate(units) if u > u_end), len(units))  # the first ended sample
        kept = units[:end + 1] + [u for u in units[end + 1:] if u <= u_end]
        copies = len(units) - len(kept)
        xs = [1.0 + math.exp(_LN_D_LO + span * u) for u in kept]
        rs = [1.0 / x for x in xs]
        excess = {kind: list(map(e, rs)) if callable(e) else [e] * len(rs) for kind, e in kinds.items()}
        folds = {}
        for n, ((spec, alpha, beta), (shift, scale, shared)) in enumerate(zip(checks, maps)):
            fold = spec.target if shared else n
            if fold not in folds:
                keys = excess[spec.target] if shared else [
                    (e_t - e_l) / (e_h - e_l)
                    for e_t, e_h, e_l in zip(excess[spec.target], excess[spec.hi], excess[spec.lo])]
                lo, hi = min(keys), max(keys)
                folds[fold] = keys, lo, xs[keys.index(lo)], hi, xs[keys.index(hi)]
            keys, lo, lo_x, hi, hi_x = folds[fold]
            violations, lo_0, lo_x0, hi_0, hi_x0 = results[n]
            if lo < lo_0:  # on a tie the earlier block's sample stays
                lo_0, lo_x0 = lo, lo_x
            if hi > hi_0:
                hi_0, hi_x0 = hi, hi_x
            if (lo - shift) / scale - alpha < -tol or beta - (hi - shift) / scale < -tol:
                rhos = [(key - shift) / scale for key in keys]
                crossed = [rho - alpha < -tol or beta - rho < -tol for rho in rhos]
                violations += sum(crossed) + (crossed[end] * copies if copies else 0)
            results[n] = violations, lo_0, lo_x0, hi_0, hi_x0
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
    results = _certify_chunk(checks, tol, seed, 0, n_samples)
    reports = []
    for (spec, check_alpha, check_beta), sharp, (violations, lo, lo_x, hi, hi_x) in zip(checks, sharps, results):
        shift, scale, _ = _ratio_map(spec)
        lower = (lo - shift) / scale - check_alpha
        upper = check_beta - (hi - shift) / scale
        worst, worst_x = (upper, hi_x) if upper < lower else (lower, lo_x)
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

    Draws ``n_samples`` pairs (x, 1), x = 1 + d with d = a/b - 1
    log-uniform over [1e-15, 1e300] (homogeneity covers every other pair),
    so both ends are reached, and checks the strict double inequality at
    (alpha, beta), which default to the sharp constants, on the ratio rho of
    ``ratio``.  A sample is a violation when rho - alpha or beta - rho is
    below -tol: tol, in (0, 1e-9], is an absolute slack on the ratio for
    its rounding, which stays within 4e-16 at the sharp constants.

    The probes at x = 1 + 1e-4 (ratio within 1e-6 of the sharp beta) and
    x = 1e8 (within 1e-3 of the sharp alpha) count one violation each when
    they fail; they stay because n_samples can be 1.

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
    ``certify(spec, n_samples, seed, tol)``.  The excesses of G, S, P and T
    are evaluated once per sample with a/b - 1 <= 1.3e36; the other 84% of
    samples share their end values, evaluated at one sample per block.
    prop1.1, prop1.2, prop1.4 and thm5.1, whose hi and lo excesses are
    constants, share their target's extremes.
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
# equivalence of the two routes to each ratio

_EQ_SAMPLES = 1000
_EQ_SEED = 20260808
_EQ_REL_TOL = 1e-12


def equivalence_check() -> bool:
    """True when ratio (from the means' excesses) and ratio_via_kernel (the
    paper's p*h(theta) + q) agree to 1e-12 relative for every spec in SPECS,
    on the first 1000 pairs of certify's stream for seed 20260808, so a
    crooked reduction there fails it.  This implies the h1 proportions
    ratio(prop1.2) = ratio(prop1.1)/2 and ratio(prop1.4) = 3 ratio(prop1.1)/4.
    """
    span = _LN_D_HI - _LN_D_LO
    for u in _units(_EQ_SEED, 0, _EQ_SAMPLES):
        pair = PositivePair(1.0 + math.exp(_LN_D_LO + span * u), 1.0)
        for spec in SPECS.values():
            expected = ratio_via_kernel(spec, pair)
            if not abs(ratio(spec, pair) - expected) <= _EQ_REL_TOL * abs(expected):
                return False
    return True
