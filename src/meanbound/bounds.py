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

This module states each reduction once as data; proof checks it exactly
and takes both constants from the kernel's two ends, alpha rounded there
and beta here.  The rest is binary64 only: the constants are recovered
again (the limit at 0+ read off theta = 2^-27, a direct evaluation at
theta_right, and a scan that checks the monotonicity in between) and each
inequality is certified on deterministic samples.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable
from itertools import repeat
from typing import NamedTuple

from .errors import ConvergenceError, DegeneratePairError, DomainError
from .kernels import H_INFO, HFunctionId, h_eval
from .means import _EXCESSES, _THETA_SUBS, MeanKind, PositivePair, _reduce
from .means import eval_mean  # noqa: F401  (unused; perfbench/tracing.py wraps it, TestFusedLoop counts 0 calls)
from .proof import _exact_ends, _reduction_holds

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


def _check_spec(spec: object) -> None:
    if not isinstance(spec, InequalitySpec):
        raise DomainError(f"spec must be an InequalitySpec, got {spec!r}")


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
    (0, theta_right), where theta_right is theta at r = 0, pi/2 or pi/4.
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
        return _THETA_SUBS[self.theta_sub](0.0)


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
# float comes from the kernel.  A triple outside SPECS has none and is refused.
_ALPHA_EXACT = {
    ("P", "A", "H"): "2/pi", ("P", "C", "H"): "1/pi", ("T", "S", "A"): "(4-pi)/((sqrt2-1)*pi)",
    ("P", "Cbar", "H"): "3/(2*pi)", ("T", "C", "H"): "2/pi", ("S", "C", "T"): "(pi-2*sqrt2)/(sqrt2*pi-2*sqrt2)",
    ("P", "A", "G"): "2/pi",
}
# sharp_bounds' results by the spec's fields after id, on which they alone depend
_SHARP: dict[tuple, SharpBounds] = {}


def sharp_bounds(spec: InequalitySpec) -> SharpBounds:
    """Best-possible (alpha, beta) for one of the seven inequalities.

    DomainError refuses a (target, hi, lo) outside SPECS, whatever its id
    (so no hi and lo that meet at an end get this far), and a reduction
    unless p*h(theta) + q is (target - lo)/(hi - lo) exactly (proof's
    _reduction_holds).  The proven p*h + q falls along theta, so its two ends
    are the constants: proof's _exact_ends gives beta = p*h(0+) + q exactly, rounded
    here, and alpha = p*h(theta_right) + q correctly rounded, or ConvergenceError.
    Each accepted reduction is computed once; a refused one is refused on every call.
    """
    _check_spec(spec)
    key = spec[1:]
    if key in _SHARP:
        return _SHARP[key]
    codes = spec.target.value, spec.hi.value, spec.lo.value
    if codes not in _ALPHA_EXACT:
        raise DomainError(f"{spec.id}: no closed form is known for {codes[0]} between {codes[1]} and {codes[2]}")
    if not _reduction_holds(spec):
        raise DomainError(f"{spec.id}: p*h(theta) + q is not (target - lo)/(hi - lo) for t = {spec.theta_sub}(theta)")
    beta, alpha = _exact_ends(spec)
    _SHARP[key] = SharpBounds(alpha, float(beta), _ALPHA_EXACT[codes], str(beta))
    return _SHARP[key]


def _ratio_r(spec: InequalitySpec, pair: PositivePair) -> float:
    """r = min(a, b)/max(a, b) of pair for a ratio of spec, refusing a == b."""
    _check_spec(spec)
    _, r = _reduce(pair)
    if r == 1.0:  # exactly when a == b
        raise DegeneratePairError(f"ratio of {spec.id} is 0/0 at a == b")
    return r


def ratio(spec: InequalitySpec, pair: PositivePair) -> float:
    """(target - lo)/(hi - lo) as (e_target - e_lo)/(e_hi - e_lo), e the means'
    excesses: each mean is A*(1 + t^2*e), A the arithmetic mean, t = (1-r)/(1+r)
    and r = min(a, b)/max(a, b), so nothing cancels as a -> b.  For the seven
    SPECS it is within 16 ulp across the binary64 range, r subnormal too (worst
    measured 9.52 ulp, thm5.2 at a/b = 1.7383); r underflowing to 0 gives
    alpha, and only a == b is refused.  It reads only the spec's target, hi and
    lo, so it cannot see a crooked kernel, theta_sub, p or q; sharp_bounds and
    equivalence_check check the reduction exactly."""
    r = _ratio_r(spec, pair)
    excesses = _EXCESSES[spec.target], _EXCESSES[spec.hi], _EXCESSES[spec.lo]
    e_target, e_hi, e_lo = [e(r) if callable(e) else e for e in excesses]
    if e_hi == e_lo:  # only for a pair of means outside SPECS
        raise DegeneratePairError(f"ratio of {spec.id} is 0/0: hi - lo rounds to 0 at a={pair.a!r}, b={pair.b!r}")
    return (e_target - e_lo) / (e_hi - e_lo)


def _kernel_ratio(spec: InequalitySpec, theta: float) -> float:
    """p*h(theta) + q for spec, refusing a value that overflows (p and q are
    finite, so only an injected NaN from h gets past)."""
    value = spec.p * h_eval(spec.kernel, theta) + spec.q
    if math.isinf(value):
        raise DomainError(f"{spec.id}: p*h(theta) + q overflows to {value!r} at theta={theta!r}")
    return value


def ratio_via_kernel(spec: InequalitySpec, pair: PositivePair) -> float:
    """The same ratio through the substitution chain, as p*h(theta) + q.

    theta is the spec's theta(r) in means._THETA_SUBS, r = min(a, b)/max(a, b),
    so r = 0 gives theta_right.  For the seven SPECS it is within 4e-15
    relative of a 60-digit ratio of the means for a/b - 1 in [1e-12, 1e300]
    and for r = 0 (worst measured 1.95e-15, prop1.3, with a/b - 1 below 20).
    It evaluates the reduction as given, crooked or not; sharp_bounds and
    equivalence_check check it exactly against the means.  A p or q so large
    that p*h + q overflows raises DomainError."""
    r = _ratio_r(spec, pair)  # checks the spec before theta_sub is read
    return _kernel_ratio(spec, _THETA_SUBS[spec.theta_sub](r))


# ---------------------------------------------------------------------------
# independent numerical recovery of the constants

# theta = 2^-27 and 2^-26, where theta^2 <= 2^-52: h1-h4's series give h(0+) there
_LIMIT_PROBES = (2.0**-27, 2.0**-26)
_SETTLE_ULP = 4
_SCAN_STEPS = 64


def numeric_extrema(spec: InequalitySpec) -> tuple[float, float]:
    """Recover (inf, sup) of the ratio over theta in (0, theta_right).

    As in the paper, the ratio p*h(theta) + q is monotone, in the direction
    that H_INFO and the sign of p give, so its inf and sup are its end
    values.  The limit at 0+ is the ratio at theta = 2^-27, which must agree
    with the ratio at 2^-26 to 4 ulp (on the seven SPECS the ratio moves by
    at most 1 ulp per halving of theta from 2^-26 down to 2^-44).
    theta_right lies inside the kernel's domain, so the ratio is evaluated
    there directly.  One scan over those two probes and the grid
    theta_right*i/64, i = 1..64, checks the monotonicity.  Agrees with
    sharp_bounds to 1.1e-16; raises DomainError when p*h + q overflows at one
    of those thetas, and ConvergenceError, a sign of a bug, when the limit
    does not settle or the scan is not monotone (NaN fails both).
    It evaluates p*h + q as given, so it recovers a crooked reduction's
    extrema; sharp_bounds and equivalence_check check the reduction exactly.
    """
    _check_spec(spec)
    right = spec.theta_right
    thetas = [*_LIMIT_PROBES, *(right * i / _SCAN_STEPS for i in range(1, _SCAN_STEPS + 1))]
    values = [_kernel_ratio(spec, theta) for theta in thetas]
    lim_left = values[0]
    gap = abs(values[1] - lim_left)
    if not gap <= _SETTLE_ULP * math.ulp(lim_left):
        raise ConvergenceError(f"{spec.id}: the limit at 0+ did not settle (gap {gap:.3e} from 2^-27 to 2^-26)")
    right_end = values[-1]  # theta_right*64/64 is theta_right exactly
    decreasing = H_INFO[spec.kernel].increasing == (spec.p < 0.0)
    # the thetas rise (both probes lie below theta_right/64), so in this order a
    # monotone ratio never falls along the scan
    scan = values[::-1] if decreasing else values
    if not all(later >= earlier for earlier, later in zip(scan, scan[1:])):
        raise ConvergenceError(f"{spec.id}: the ratio is not {'de' if decreasing else 'in'}creasing in theta")
    return (right_end, lim_left) if decreasing else (lim_left, right_end)


# ---------------------------------------------------------------------------
# certification

# certify's stream: sample i of seed s has the 64-bit value, or lane,
# (s*_SEED_MIX + (i + 1)*_PHI) mod 2^64, a Weyl sequence stepping by 2^64 over
# the golden ratio, so its first n lanes leave no gap in [0, 2^64) wider than
# 2*2^64/n (three-distance theorem, V. T. Sos, 1958).  The seed enters once,
# by another odd multiplier (as s*_PHI, seed s would be seed 0 moved on by s
# samples), so seeds are rotations of one sequence.
_M64 = (1 << 64) - 1
_PHI = 0x9E3779B97F4A7C15
_SEED_MIX = 0xBF58476D1CE4E5B9

# Samples are drawn and evaluated one block at a time, so a run's memory does not
# grow with n_samples; blocks of 1024 to 8192 certify 2000 and 100 000 samples
# within noise of each other (Python 3.11, 2-core Xeon).
_BLOCK = 2048


def _lane(seed: int, index: int) -> int:
    """The lane of sample index of seed."""
    return (seed * _SEED_MIX + (index + 1) * _PHI) & _M64


# certify's samples: (x, 1), x = 1 + d, d log-uniform on [1e-15, 1e300]
_LN_D_LO = math.log(1e-15)
_LN_D_HI = math.log(1e300)
_LN_D_SPAN = _LN_D_HI - _LN_D_LO


def _sample_xs(lanes: list[int]) -> list[float]:
    """The x of each lane, ln(x - 1) going from ln 1e-15 to ln 1e300 as the lane goes from 0 to 2^64."""
    return [1.0 + math.exp(_LN_D_LO + _LN_D_SPAN * (lane / 2.0**64)) for lane in lanes]


# A lane above _LANE_END gives x > 2^120, where the excesses of G, S, P and T
# have ended: each returns its r = 0 value, 2*M(1, 0) - 1, bit for bit, since
# 1 + r and 1 + sqrt(r) round to 1 and sqrt(r) < 2^-60 (atan(sqrt r) and r too)
# is under half an ulp of every term it meets (G and P first move near
# r = 2^-106 and 2^-110, S and T above 2^-60).  Any threshold whose lanes give
# r < 2^-110 would do: the 2^57 lanes below this one give r < 2^-111.8, and
# rounding moves it by ~256 lanes.  An excess in _EXCESSES that does not end
# there needs _LANE_END set to _M64, which keeps every lane.
_LANE_END = int((math.log(2.0**120) - _LN_D_LO) / _LN_D_SPAN * 2.0**64)

# The golden rotation's return map to [0, _LANE_END] exchanges three intervals
# (N. B. Slater, "Gaps and steps for the sequence n*theta mod 1", 1967; M. Keane,
# "Interval exchange transformations", 1975): the next lane <= _LANE_END after a
# lane L <= _LANE_END is L + _HOP_5, 5 samples on, for L <= _CUT_5; L + _HOP_8,
# 8 on, for L < _CUT_3; else L + _HOP_3, 3 on.  Each hop is g*_PHI mod 2^64,
# less 2^64 where it wraps, so the landed lane needs no reduction.
_HOP_3, _HOP_5, _HOP_8 = (3 * _PHI & _M64) - 2**64, 5 * _PHI & _M64, (8 * _PHI & _M64) - 2**64
_CUT_3, _CUT_5 = -_HOP_3, _LANE_END - _HOP_5


def _walk(seed: int, first: int, size: int) -> tuple[list[int], int]:
    """(kept, end) over the lanes of sample indices first, ..., first + size - 1,
    for 1 <= size <= _BLOCK: kept holds, in order, the lanes <= _LANE_END and the
    first lane past _LANE_END, at its place end (size when there is none); the
    size - len(kept) others past _LANE_END are never built.  It steps one sample
    at a time, except that once end is found it hops from each lane
    <= _LANE_END to the next by the return map's three intervals."""
    lane, kept, end, i = _lane(seed, first), [], size, 0
    while i < size:  # lane is that of sample first + i
        if lane <= _LANE_END:
            kept.append(lane)
            if end < size:
                if lane <= _CUT_5:
                    i, lane = i + 5, lane + _HOP_5
                elif lane < _CUT_3:
                    i, lane = i + 8, lane + _HOP_8
                else:
                    i, lane = i + 3, lane + _HOP_3
                continue
        elif end == size:  # the block's first lane past _LANE_END
            end = len(kept)
            kept.append(lane)
        i += 1
        lane = (lane + _PHI) & _M64
    return kept, end


# certify's probes (x, 1) as r = 1/x, x = 1 + 1e-4 for beta and 1e8 for alpha; each gate
# is 4x, rounded down, the worst gap over SPECS at its x: 2.187e-10 (thm5.2) from beta
# and 8.104e-5 (prop1.1) from alpha
_PROBE_RS = 1.0 / (1.0 + 1e-4), 1.0 / 1e8
_BETA_PROBE_TOL = 8.7e-10
_ALPHA_PROBE_TOL = 3.2e-4
_TOL_MAX = 1e-9


class CertificationReport(NamedTuple):
    """Outcome of one certification run.

    ``worst_margin`` is min(min rho - alpha, beta - max rho) over the samples'
    ratios rho, negative where a bound was crossed (at the sharp constants, by
    a few ulp of rounding); ``worst_x``, a float since a run draws at least
    one sample, is x = a/b (b = 1) of the first sample in the stream at that
    extreme ratio, the lower side on a tie, and
    ratio(spec, PositivePair(worst_x, 1)) reproduces it.  The probe gaps show
    how closely the ratio approaches the sharp constants at x = 1 + 1e-4, 1e8.
    """

    id: str
    samples: int
    violations: int
    worst_margin: float
    seed: int
    tolerance: float
    worst_x: float
    alpha_probe_gap: float
    beta_probe_gap: float

    @property
    def ok(self) -> bool:
        return self.violations == 0


def _certify_chunk(
    checks: list[tuple[InequalitySpec, float, float]],
    tol: float,
    seed: int,
    n_samples: int,
) -> list[tuple]:
    """(violations, min rho, its x, max rho, its x) over the seed's first
    n_samples samples, per (spec, alpha, beta) check, x the first sample at
    that ratio.  The checks share one stream, drawn in blocks of _BLOCK
    indices (each lane depends on (seed, index) alone).  A block's samples
    on lanes above _LANE_END (x > 2^120, about 84% of them) share every
    excess, their end values; these hold from r = 2^-110 on, a margin of
    2^57 lanes.  _walk steps to the block's first lane past _LANE_END, then
    hops from one kept lane to the next, reading each hop off the lane by
    the return map's three intervals, so it never builds the others past
    it: that first one is evaluated, in its place end among the kept
    samples, and the other size - len(kept) count as copies of it
    (none when no lane is past _LANE_END).  A constant excess stays one
    float.  Each check folds a block's ratios with min and max, looks up a
    sample's x only when an extreme improves, and counts its violations
    only when an extreme crosses alpha - tol or beta + tol.  Over constant
    hi and lo with e_hi > e_lo (prop1.1, prop1.2, prop1.4 and thm5.1 among
    SPECS) the rounded (e - e_lo)/(e_hi - e_lo) never falls as the target's
    excess e rises, so the extremes are those of the column's min and max,
    taken once per block and shared; x is the first sample whose own ratio
    is the extreme, scanned for, since a later argmin can round to it, and
    the ratios are listed only to count violations."""
    kinds = {kind: _EXCESSES[kind] for spec, _, _ in checks for kind in (spec.target, spec.hi, spec.lo)}
    results: list[tuple] = [(0, math.inf, None, -math.inf, None)] * len(checks)
    for first in range(0, n_samples, _BLOCK):
        size = min(_BLOCK, n_samples - first)
        kept, end = _walk(seed, first, size)
        copies = size - len(kept)
        xs = _sample_xs(kept)
        rs = [1.0 / x for x in xs]
        excess = {kind: list(map(e, rs)) if callable(e) else e for kind, e in kinds.items()}
        extremes = {}  # a target column's (min, max), shared by its constant-span checks
        for n, (spec, alpha, beta) in enumerate(checks):
            e_t, e_h, e_l = excess[spec.target], excess[spec.hi], excess[spec.lo]
            if isinstance(e_t, list) and not isinstance(e_h, list) and not isinstance(e_l, list) and e_h > e_l:
                if spec.target not in extremes:
                    extremes[spec.target] = min(e_t), max(e_t)
                d, rhos = e_h - e_l, None
                lo, hi = ((e - e_l) / d for e in extremes[spec.target])
                at = lambda rho: next(i for i, e in enumerate(e_t) if (e - e_l) / d == rho)  # noqa: E731
            else:
                columns = [e if isinstance(e, list) else repeat(e, len(rs)) for e in (e_t, e_h, e_l)]
                rhos = [(t - l) / (h - l) for t, h, l in zip(*columns)]
                lo, hi, at = min(rhos), max(rhos), rhos.index
            violations, lo_0, lo_x, hi_0, hi_x = results[n]
            if lo < lo_0:  # on a tie the earlier block's sample stays
                lo_0, lo_x = lo, xs[at(lo)]
            if hi > hi_0:
                hi_0, hi_x = hi, xs[at(hi)]
            if lo - alpha < -tol or beta - hi < -tol:
                if rhos is None:
                    rhos = [(e - e_l) / d for e in e_t]
                crossed = [rho - alpha < -tol or beta - rho < -tol for rho in rhos]
                violations += sum(crossed) + (crossed[end] * copies if copies else 0)
            results[n] = violations, lo_0, lo_x, hi_0, hi_x
    return results


def _certify(specs: list, n_samples: object, seed: object, tol: object,
             alpha: object = None, beta: object = None) -> list[CertificationReport]:
    """certify and certify_many: one report per spec, over one shared stream,
    at alpha and beta when given, else at the spec's sharp constants."""
    for name, value in (("n_samples", n_samples), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise DomainError(f"{name} must be an integer, got {value!r}")
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples!r}")
    _check_finite(tol=tol, **{n: v for n, v in (("alpha", alpha), ("beta", beta)) if v is not None})
    if not 0.0 < tol <= _TOL_MAX:
        bound = "positive" if tol <= 0.0 else f"at most {_TOL_MAX!r}"
        raise DomainError(f"tol must be {bound}, got {tol!r}")
    sharps = [sharp_bounds(spec) for spec in specs]
    checks = [(spec, sharp.alpha if alpha is None else float(alpha), sharp.beta if beta is None else float(beta))
              for spec, sharp in zip(specs, sharps)]
    results = _certify_chunk(checks, tol, seed, n_samples)
    # each kind's excess at the two probes, once per call (10 us of a 0.63 ms seven-spec
    # certify_many at 2000 samples, Python 3.11, 2-core Xeon): a store would keep what
    # _EXCESSES held at first use, so a substituted excess would leak into later calls,
    # and the probes would miss the live ratio
    probes = {kind: [e(r) for r in _PROBE_RS] if callable(e) else [e, e] for kind, e in _EXCESSES.items()}
    reports = []
    for (spec, check_alpha, check_beta), sharp, (violations, lo, lo_x, hi, hi_x) in zip(checks, sharps, results):
        lower, upper = lo - check_alpha, check_beta - hi
        worst, worst_x = (upper, hi_x) if upper < lower else (lower, lo_x)
        # ratio(spec, (x, 1)) at each probe: the same expression on the same excesses
        (t_b, t_a), (h_b, h_a), (l_b, l_a) = probes[spec.target], probes[spec.hi], probes[spec.lo]
        beta_gap = abs((t_b - l_b) / (h_b - l_b) - sharp.beta)
        alpha_gap = abs((t_a - l_a) / (h_a - l_a) - sharp.alpha)
        violations += int(beta_gap > _BETA_PROBE_TOL) + int(alpha_gap > _ALPHA_PROBE_TOL)
        reports.append(CertificationReport(
            id=spec.id, samples=n_samples, violations=violations, worst_margin=worst, seed=seed, tolerance=tol,
            worst_x=worst_x, alpha_probe_gap=alpha_gap, beta_probe_gap=beta_gap))
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
    log-uniform over [1e-15, 1e300] (homogeneity covers every other pair):
    the uniforms are the seed's rotation of one golden-ratio Weyl sequence,
    so every interval of ln(d) wider than 1451/n_samples holds a sample and
    both ends are reached.  It checks the strict double inequality at
    (alpha, beta), which default to the sharp constants, on the ratio rho of
    ``ratio``.  A sample is a violation when rho - alpha or beta - rho is
    below -tol: tol, in (0, 1e-9], is an absolute slack on the ratio for
    its rounding, which stays within 4e-16 at the sharp constants.

    The probes at x = 1 + 1e-4 (ratio within 8.7e-10 of the sharp beta)
    and x = 1e8 (within 3.2e-4 of the sharp alpha) count one violation each
    when they fail; they stay because n_samples can be 1.

    The report is a value, never an exception, and is deterministic for a
    fixed seed.
    """
    return _certify([spec], n_samples, seed, tol, alpha, beta)[0]


def certify_many(
    specs: Iterable[InequalitySpec],
    n_samples: int,
    seed: int,
    tol: float,
) -> list[CertificationReport]:
    """certify each spec at its sharp constants, in one pass over one
    shared sample stream.

    Returns one report per spec, in order, each equal to
    ``certify(spec, n_samples, seed, tol)``.  The specs share each sample's
    excesses, evaluated only where a/b - 1 <= 2^120 (about 16% of samples).
    """
    try:
        specs = list(specs)
    except TypeError:
        raise DomainError(f"specs must be an iterable of InequalitySpecs, got {specs!r}") from None
    if not specs:
        raise DomainError("certify_many needs at least one spec")
    return _certify(specs, n_samples, seed, tol)


# ---------------------------------------------------------------------------
# equivalence of the two routes to each ratio


def equivalence_check() -> bool:
    """True when every spec in SPECS passes _reduction_holds, so ratio (from
    the means' excesses) and ratio_via_kernel compute one function.  A crooked
    kernel, substitution, p or q in SPECS fails it, down to one ulp.  This
    implies ratio(prop1.2) = ratio(prop1.1)/2 and ratio(prop1.4) = 3 ratio(prop1.1)/4.
    """
    return all(_reduction_holds(spec) for spec in SPECS.values())
