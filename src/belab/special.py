"""Special functions for the bounds and their certification, from numpy
and the standard library alone.

- ``ndtr`` and ``erf``: the standard normal cdf and the error function. A
  Python float, and each value of an array of any size and shape, goes
  through ``math.erfc`` / ``math.erf``, so a value's bits depend on that
  value alone.
- ``ndtr_array``: the one vectorized normal cdf, for the samplers and the
  one-sample KS kernel. It ports the cephes rational approximations
  (Moshier, ``ndtr.c``) that ``scipy.special`` evaluates: the same
  coefficient tables, branch points and Horner order, at every array size.
  Where ``|x| < sqrt 2`` no exponential is taken and it returns scipy's
  values bit for bit. Elsewhere ``np.exp`` and libm's ``exp`` differ by up
  to 1 ulp, which the product and quotient after it can stretch to 4 ulps
  of the result.
- ``gammainc`` / ``gammaincc``: the regularized incomplete gamma functions
  ``P(a, x)`` and ``Q(a, x)``, by a series or a continued fraction, and from
  shape 1e6 on by Temme's uniform expansion.
- ``half_binom_cdf``: ``P(Bin(m, 1/2) <= k)``, by a sum of point masses
  away from the mode.

Gamma and binomial point masses are taken in the saddle-point form of
Loader (2000, "Fast and accurate computation of binomial probabilities"):
``stirlerr`` is the error of Stirling's formula and ``bd0`` the deviance
``x log(x / m) + m - x``. This avoids the naive
``exp(a log x - x - lgamma(a))``, which loses about ``log10(a)`` digits at
large ``a``.
"""
from __future__ import annotations

import math

import numpy as np

_SQRT1_2 = 0.70710678118654752440
_LN_SQRT_2PI = 0.91893853320467274178
# log(2**1024): cephes' erfc returns 0 where exp(-x*x) would underflow past it
_MAXLOG = 7.09782712893383996843e2

# cephes ndtr.c: erfc(x) = exp(-x^2) P(x)/Q(x) on [1, 8)
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
      7.46321056442269912687e0, 4.86371970985681366614e1,
      1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3,
      5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1,
      3.54937778887819891062e2, 9.75708501743205489753e2,
      1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
# erfc(x) = exp(-x^2) R(x)/S(x) on [8, inf)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
      5.01905042251180477414e0, 6.16021097993053585195e0,
      7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0,
      1.20489539808096656605e1, 1.70814450747565897222e1,
      9.60896809063285878198e0, 3.36907645100081516050e0)
# erf(x) = x T(x^2)/U(x^2) on [-1, 1]
_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
      2.23200534594684319226e3, 7.00332514112805075473e3,
      5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2,
      4.59432382970980127987e3, 2.26290000613890934246e4,
      4.92673942608635921086e4)


def _polevl(x, coef):
    """coef[0] x^N + ... + coef[N] by Horner's rule, as cephes' polevl."""
    out = x * coef[0]
    out += coef[1]
    for c in coef[2:]:
        out *= x
        out += c
    return out


def _p1evl(x, coef):
    """x^N + coef[0] x^(N-1) + ... + coef[N-1], as cephes' p1evl."""
    out = x + coef[0]
    for c in coef[1:]:
        out *= x
        out += c
    return out


def _erfc_tail(x, num, den):
    """erfc(x) = exp(-x^2) num(x) / den(x) for x >= 1, with one temporary
    the size of x besides the result; (num, den) is (_P, _Q) below 8 and
    (_R, _S) from 8 on."""
    # x * x and the far polynomials overflow far out, and inf * 0 is NaN;
    # every such value is past _MAXLOG, where the result is set to 0
    with np.errstate(invalid="ignore", over="ignore"):
        out = x * x
        under = out > _MAXLOG
        np.negative(out, out=out)
        np.exp(out, out=out)
        out *= _polevl(x, num)
        out /= _p1evl(x, den)
    out[under] = 0.0
    return out


def ndtr_array(a):
    """cephes' ndtr on a float array of any size; a value's bits do not
    depend on the array it comes in. Holds at most three temporaries the
    size of a besides the result (the callers pass bounded blocks)."""
    shape = a.shape
    a = a.reshape(-1)
    x = a * _SQRT1_2
    y = np.abs(x)
    inner = y < _SQRT1_2
    tail = y >= 1.0  # erfc's exponential branches; NaN stays in neither
    far = y >= 8.0
    above = x > 0.0
    # erf(x) = x T(x^2) / U(x^2) everywhere, in cephes' order of operations
    # (tail entries are overwritten below)
    with np.errstate(invalid="ignore", over="ignore"):
        z = np.multiply(x, x, out=y)
        y = _polevl(z, _T)
        y *= x
        del x
        y /= _p1evl(z, _U)
    del z
    # |x| < 1/sqrt 2: 0.5 + 0.5 erf(x)
    np.multiply(y, 0.5, out=y, where=inner)
    np.add(y, 0.5, out=y, where=inner)
    # 1/sqrt 2 <= |x| < 1: 0.5 erfc(|x|) = 0.5 (1 - erf|x|), reflected for
    # x > 0
    mid = ~(inner | tail)
    part = y[mid]
    np.negative(part, out=part, where=above[mid])
    part += 1.0
    part *= 0.5
    np.subtract(1.0, part, out=part, where=above[mid])
    y[mid] = part
    # |x| >= 1: 0.5 erfc(|x|) by the exponential forms, reflected for x > 0
    for form, num, den in ((tail & ~far, _P, _Q), (far, _R, _S)):
        part = a[form]
        np.multiply(part, _SQRT1_2, out=part)
        np.abs(part, out=part)
        part = _erfc_tail(part, num, den)
        part *= 0.5
        np.subtract(1.0, part, out=part, where=above[form])
        y[form] = part
    return y.reshape(shape)


_SCALARS = (float, int, np.floating, np.integer)


def _ndtr_float(x: float) -> float:
    return 0.5 * math.erfc(-x * _SQRT1_2)


def _each(fn, x):
    """fn of each value of x (any array-like) as a float array of its
    shape."""
    x = np.asarray(x, dtype=float)
    return np.array([fn(v) for v in x.ravel().tolist()],
                    dtype=float).reshape(x.shape)


def ndtr(x):
    """Standard normal cdf. A float gives a float, an array an array."""
    if isinstance(x, _SCALARS):
        return _ndtr_float(x)
    return _each(_ndtr_float, x)


def erf(x):
    """Error function. A float gives a float, an array an array."""
    if isinstance(x, _SCALARS):
        return math.erf(x)
    return _each(math.erf, x)


# stirlerr(n / 2) for n = 0, ..., 30: log Gamma(n/2 + 1) minus Stirling's
# formula, to 20 digits (the table of Loader 2000)
_SFERR_HALVES = (
    0.0, 1.5342640972002734529e-1, 8.106146679532725822e-2,
    5.4814121051917653896e-2, 4.1340695955409294094e-2,
    3.3162873519936287485e-2, 2.7677925684998339149e-2,
    2.3746163656297495971e-2, 2.0790672103765093112e-2,
    1.8488450532673185231e-2, 1.6644691189821192163e-2,
    1.5134973221917378874e-2, 1.3876128823070747999e-2,
    1.2810465242920226924e-2, 1.1896709945891770095e-2,
    1.1104559758206917327e-2, 1.0411265261972096497e-2,
    9.7994161261588032984e-3, 9.2554621827127329177e-3,
    8.768700134139385463e-3, 8.3305634333628712565e-3,
    7.9341145643140205472e-3, 7.573675487951840795e-3,
    7.2445543013203831795e-3, 6.9428401072095298657e-3,
    6.6652470327076824424e-3, 6.4089941880042070684e-3,
    6.1717122630394576475e-3, 5.9513701127588477356e-3,
    5.746216513010115682e-3, 5.554733551962801371e-3)
# the Stirling series 1/12, 1/360, 1/1260, 1/1680, 1/1188
_S0, _S1, _S2, _S3, _S4 = (1.0 / 12, 1.0 / 360, 1.0 / 1260, 1.0 / 1680,
                           1.0 / 1188)


def stirlerr(n: float) -> float:
    """log Gamma(n + 1) - (n + 1/2) log n + n - log sqrt(2 pi), for n > 0."""
    if n <= 15.0:
        twice = 2.0 * n
        if twice == int(twice):
            return _SFERR_HALVES[int(twice)]
        return math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - _LN_SQRT_2PI
    nn = 1.0 / (n * n)
    return (_S0 - (_S1 - (_S2 - (_S3 - _S4 * nn) * nn) * nn) * nn) / n


def two_prod(a: float, b: float):
    """a * b as an unevaluated sum hi + lo (Dekker 1971)."""
    p = a * b
    c = 134217729.0 * a
    ah = c - (c - a)
    al = a - ah
    c = 134217729.0 * b
    bh = c - (c - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _two_sum(a: float, b: float):
    """a + b as an unevaluated sum hi + lo (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def bd0(x: float, m: float):
    """The deviance x log(x / m) + m - x for x > 0, m > 0, as a pair hi + lo
    whose sum is accurate to about 1e-16 absolute at deviances in the
    hundreds, where a plain double evaluation would be ~1e-13 off.

    Within 10% of m it is Loader's series (x - m) v + 2 x sum_j
    v^(2j+1) / (2j+1) in v = (x - m) / (x + m), whose leading term
    (x - m)^2 / (x + m) is carried in double-double. Farther out, where
    that series is slow and a double evaluation rounds away ~|x log(x / m)|
    ulps, it is evaluated in decimal to 40 digits past the units place,
    with decimal imported here only to keep it off the import path.
    """
    d = x - m  # exact below, where m/2 <= x <= 2m (Sterbenz)
    sh, sl = _two_sum(x, m)
    # (Dekker's splitting in two_prod overflows past ~1e300)
    if abs(d) >= 0.1 * sh or sh > 1e300:
        from decimal import Context, Decimal
        # 40 digits past the units place, so x and m round off below 1e-40
        ctx = Context(prec=40 + max(0, math.ceil(math.log10(max(x, m)))))
        xd, md = Decimal(x), Decimal(m)
        dev = ctx.subtract(ctx.add(ctx.multiply(xd, ctx.ln(ctx.divide(xd, md))),
                                   md), xd)
        hi = float(dev)
        return hi, float(ctx.subtract(dev, Decimal(hi)))
    # d^2 / (sh + sl) to double-double
    nh, nl = two_prod(d, d)
    q = nh / sh
    ph, pl = two_prod(q, sh)
    lead, lead_lo = _two_sum(q, ((nh - ph) - pl + nl - q * sl) / sh)
    v = d / sh
    term = 2.0 * x * v
    v *= v
    rest = 0.0
    j = 1
    while True:
        term *= v
        nxt = rest + term / (2 * j + 1)
        if nxt == rest:
            return lead, lead_lo + rest
        rest = nxt
        j += 1


def _exp_neg(hi: float, lo: float) -> float:
    """exp(-(hi + lo)) for a pair from bd0; 0 past the underflow (where
    exp(-lo) alone could overflow)."""
    if hi > 800.0:
        return 0.0
    return math.exp(-hi) * math.exp(-lo)


def _gamma_mass(a: float, x: float) -> float:
    """x^a e^(-x) / Gamma(a + 1) for a > 0, x > 0."""
    hi, lo = bd0(a, x)
    return _exp_neg(hi, lo + stirlerr(a)) / math.sqrt(2.0 * math.pi * a)


def _gamma_series(a: float, x: float) -> float:
    """P(a, x) = x^a e^(-x) / Gamma(a + 1) * sum_n x^n / ((a+1)...(a+n))."""
    total = term = 1.0
    k = a
    while True:
        k += 1.0
        term *= x / k
        nxt = total + term
        if nxt == total:
            return total * _gamma_mass(a, x)
        total = nxt


def _gamma_cfrac(a: float, x: float) -> float:
    """Q(a, x) by Legendre's continued fraction, evaluated by the modified
    Lentz method (Numerical Recipes, 2nd ed., section 6.2)."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    i = 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h * a * _gamma_mass(a, x)


# Temme's uniform expansion (Temme 1979; DiDonato & Morris 1986) from this
# shape on, where the series and the fraction would need ~sqrt(a) terms:
# Q(a, x) = erfc(eta sqrt(a/2)) / 2 + exp(-a eta^2/2) / sqrt(2 pi a)
#           * (C0(eta) + C1(eta) / a + C2(eta) / a^2 + ...),
# with a eta^2 / 2 = bd0(a, x) and eta of the sign of x - a. A result that
# does not underflow has |eta| < 0.04 here, where these Taylor terms of C0,
# C1 and C2 leave a relative error below 1e-14.
_TEMME_MIN_SHAPE = 1e6
_TEMME_C0 = (-1.0 / 3, 1.0 / 12, -2.0 / 135, 1.0 / 864, 1.0 / 2835,
             -139.0 / 777600)
_TEMME_C1 = (-1.0 / 540, -1.0 / 288, 1.0 / 378)
_TEMME_C2 = 25.0 / 6048


def _poly(coef, x: float) -> float:
    """coef[0] + coef[1] x + ... by Horner's rule."""
    out = 0.0
    for c in reversed(coef):
        out = out * x + c
    return out


def _gamma_temme(a: float, x: float):
    """(P(a, x), Q(a, x)) for a >= _TEMME_MIN_SHAPE."""
    hi, lo = bd0(a, x)
    if hi > 800.0:  # both terms below the underflow
        return (1.0, 0.0) if x > a else (0.0, 1.0)
    dev = hi + lo
    eta = math.copysign(math.sqrt(2.0 * dev / a), x - a)
    series = (_poly(_TEMME_C0, eta)
              + (_poly(_TEMME_C1, eta) + _TEMME_C2 / a) / a)
    rest = _exp_neg(hi, lo) / math.sqrt(2.0 * math.pi * a) * series
    # erfc(sqrt(hi + lo)) / 2, to first order past the rounding of the root:
    # far out the bare root would cost ~hi ulps
    y = math.sqrt(dev)
    half = 0.5 * math.erfc(y)
    if y > 0.0:
        sq, sq_lo = two_prod(y, y)
        dy = ((hi - sq) - sq_lo + lo) / (2.0 * y)
        half -= dy * math.exp(-y * y) / math.sqrt(math.pi)
    if x >= a:
        return 1.0 - (half + rest), half + rest
    return half - rest, 1.0 - (half - rest)


def _gamma_pq(a: float, x: float):
    a = float(a)
    x = float(x)
    if math.isnan(a) or math.isnan(x):
        return math.nan, math.nan
    if not a > 0.0 or x < 0.0:
        raise ValueError(
            f"incomplete gamma needs a > 0 and x >= 0, got a={a}, x={x}")
    if x == 0.0:
        return 0.0, 1.0
    if math.isinf(x):
        return 1.0, 0.0
    if a >= _TEMME_MIN_SHAPE:
        return _gamma_temme(a, x)
    if x < a + 1.0:
        p = _gamma_series(a, x)
        return p, 1.0 - p
    q = _gamma_cfrac(a, x)
    return 1.0 - q, q


def gammainc(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x), for a > 0, x >= 0."""
    return _gamma_pq(a, x)[0]


def gammaincc(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x), for a > 0, x >= 0."""
    return _gamma_pq(a, x)[1]


# points per stretch of the binomial sum: each stretch starts from a
# saddle-point mass and walks down by the ratio of neighbouring masses
_BINOM_STRETCH = 4096


def _half_binom_pmf(j: int, m: int) -> float:
    """P(Bin(m, 1/2) = j) in Loader's saddle-point form, 0 <= j <= m."""
    if j == 0 or j == m:
        return math.ldexp(1.0, -m)
    half = 0.5 * m
    h1, l1 = bd0(float(j), half)
    h2, l2 = bd0(float(m - j), half)
    hi, lo = _two_sum(h1, h2)
    lo += l1 + l2 + stirlerr(j) + stirlerr(m - j) - stirlerr(m)
    return _exp_neg(hi, lo) * math.sqrt(m / (2.0 * math.pi * j * (m - j)))


def _half_binom_lower(ks, m: int):
    """P(Bin(m, 1/2) <= k) for each k of the sorted int array ks, all in
    [0, (m - 1) / 2], where the sum runs away from the mode.

    The masses are summed from the bottom up, from a point far enough below
    the smallest k that the rest is below the last bit (the masses fall at
    least like exp(-2 s^2 / m) over s steps down from the mode), one
    stretch at a time, so the work grows like sqrt(m) for one k and the
    memory stays one stretch.
    """
    out = np.empty(ks.size)
    start = max(0, int(ks[0]) - int(6.0 * math.sqrt(m)) - 64)
    total = 0.0
    for lo in range(start, int(ks[-1]) + 1, _BINOM_STRETCH):
        hi = min(lo + _BINOM_STRETCH, int(ks[-1]) + 1)
        mass = np.empty(hi - lo)
        mass[-1] = _half_binom_pmf(hi - 1, m)
        if mass[-1] > 0.0:
            # P(j - 1) = P(j) j / (m - j + 1), for j = hi - 1 down to lo + 1
            j = np.arange(hi - 1, lo, -1, dtype=float)
            np.cumprod(j / (m + 1.0 - j), out=mass[-2::-1])
            mass[:-1] *= mass[-1]
        else:
            mass[:] = 0.0  # the masses rise towards the mode
        sums = np.cumsum(mass)
        sums += total
        total = sums[-1]
        first, last = np.searchsorted(ks, (lo, hi))
        out[first:last] = sums[ks[first:last] - lo]
    return out


def half_binom_cdf(k, m: int):
    """P(Bin(m, 1/2) <= k) for integer k (any array shape): 0 below the
    support, 1 above it. Each value is a sum of point masses from k away
    from the mode, of the lower tail itself or, past the middle, of the
    upper tail subtracted from 1, so no tail loses its relative precision.
    """
    k = np.asarray(k)
    m = int(m)
    out = np.where(k < 0, 0.0, 1.0)
    inside = (k >= 0) & (k < m)
    kin = k[inside].astype(np.int64)
    # P(X <= k) = 1 - P(X <= m - 1 - k) by symmetry
    upper = 2 * kin > m - 1
    low = np.where(upper, m - 1 - kin, kin)
    if low.size:
        keys, where = np.unique(low, return_inverse=True)
        tail = _half_binom_lower(keys, m)[where]
        out[inside] = np.where(upper, 1.0 - tail, tail)
    return out
