"""High-precision references for the tests: the eight means and their
excesses, the ratio of an inequality and the four kernels, in mpmath, and
the whole-domain pairs they are checked on.  Each value is computed at
mpmath's working precision, which every caller states with mpmath.workdps;
callers skip through pytest.importorskip("mpmath") before calling, since
mpmath is a test dependency only."""

import math

try:
    import mpmath
except ImportError:
    mpmath = None

from meanbound import HFunctionId, MeanKind, PositivePair


def mean(kind, a, b):
    """M(a, b) of one kind, from its definition."""
    a, b = mpmath.mpf(a), mpmath.mpf(b)
    s = a + b
    return {
        MeanKind.CONTRA_HARMONIC: lambda: (a * a + b * b) / s,
        MeanKind.CENTROIDAL: lambda: 2 * (a * a + a * b + b * b) / (3 * s),
        MeanKind.ARITHMETIC: lambda: s / 2,
        MeanKind.GEOMETRIC: lambda: mpmath.sqrt(a * b),
        MeanKind.HARMONIC: lambda: 2 * a * b / s,
        MeanKind.ROOT_SQUARE: lambda: mpmath.sqrt((a * a + b * b) / 2),
        MeanKind.SEIFFERT_P: lambda: (a - b) / (2 * mpmath.asin((a - b) / s)),
        MeanKind.SEIFFERT_T: lambda: (a - b) / (2 * mpmath.atan((a - b) / s)),
    }[kind]()


def means(a, b):
    """M(a, b) for every kind."""
    return {kind: mean(kind, a, b) for kind in MeanKind}


def excess(kind, r):
    """e of one kind at r, from M(1, r) == A*(1 + t^2*e) with A = (1 + r)/2
    and t = (1 - r)/(1 + r)."""
    r = mpmath.mpf(r)
    t = (1 - r) / (1 + r)
    return (2 * mean(kind, 1, r) / (1 + r) - 1) / (t * t)


def ratio(spec, means):
    """(target - lo)/(hi - lo) of an InequalitySpec, from the means of one
    pair by kind (as means() returns them)."""
    target, hi, lo = (means[kind] for kind in (spec.target, spec.hi, spec.lo))
    return (target - lo) / (hi - lo)


def h(fn_id, x):
    """The kernel h1, h2, h3 or h4 at x, from its defining quotient.  Each
    numerator cancels near 0 (and h2's denominator too), losing about
    2*log10(1/x) digits, so at 50 digits x >= 1e-10 keeps 30."""
    x = mpmath.mpf(x)
    s, c = mpmath.sin(x), mpmath.cos(x)
    return {
        HFunctionId.H1: lambda: (s / x - c * c) / (s * s),
        HFunctionId.H2: lambda: (s - x * c) / (x * (1 - c)),
        HFunctionId.H3: lambda: (x - s * c) / (x * s * s),
        HFunctionId.H4: lambda: (x - s) * c / (x - s * c),
    }[fn_id]()


def pairs():
    """(2, 1), (3, 1) and (4, 1), where A(3, 1) and G(4, 1) are exactly 2;
    (1 + d, 1) for d log-uniform on [2^-52, 1e300], 1280 points, and on
    [1e-15, 1e-3], 256 points, across the Seiffert means' series cutoff;
    then (m, m*r) for r = min/max log-uniform on [2^-1073, 2^-1022], where r
    is subnormal, 64 points at each of four m; m*r is taken through the log,
    so that it carries all 53 bits where it is normal; then, in both orders,
    pairs whose r underflows to 0 and pairs with a subnormal a or b."""
    out = [PositivePair(a, 1.0) for a in (2.0, 3.0, 4.0)]
    for lo, hi, n in ((2.0**-52, 1e300, 1280), (1e-15, 1e-3, 256)):
        ln_lo, ln_hi = math.log(lo), math.log(hi)
        out += [PositivePair(1.0 + math.exp(ln_lo + (ln_hi - ln_lo) * i / (n - 1)), 1.0) for i in range(n)]
    ln_lo, ln_hi = math.log(2.0**-1073), math.log(2.0**-1022)
    for i in range(64):
        ln_r = ln_lo + (ln_hi - ln_lo) * i / 63
        out += [PositivePair(m, math.exp(math.log(m) + ln_r)) for m in (1.7e308, 3e250, 1e150, 7e15)]
    for low in (5e-324, 1e-320, 3.3e-315, 1e-310, 2.2e-308, 1e-300, 1e-30):
        for m in (1.5 * low, 3.0 * low, 1.0, 1e20, 1e300, 1.7e308):
            out += [PositivePair(m, low), PositivePair(low, m)]
    return out
