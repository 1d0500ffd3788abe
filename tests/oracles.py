"""Reference oracles the tests compare the library against.

Exact enumeration of the U-statistics, the raw L-statistic, its influence
function and its scales sigma and T(F) by quadrature, the per-row pair
count, the resample coupling alpha of the perturbed-normal model, by Monte
Carlo and by quadrature, the whole-block draw that a chunk's row tiles
must reproduce, the data rows that a power-sum chunk's three std_normal
draws stand for, the exact chi-square laws of that chunk's T and W
under the variance kernel, 40-digit mpmath integrals of the moments
and tails of that kernel's projection and of the kernel moments E|h|^p,
and the nested quadrature `dblquad`. No command reaches any of them.
Enumeration errors past ENUMERATION_CAP index choices rather than
subsampling.
"""
from __future__ import annotations

import itertools
import math

import mpmath
import numpy as np
from scipy.optimize import minimize_scalar
from scipy.stats import chi2

from belab.app_bounds import alpha_scale
from belab.errors import DomainError, NumericError
from belab.marginals import quad_segments
from belab.mc_engine import SeedSpec, _map_chunks, _mean_se, _row_moments
from belab.models import IsqrtModel
from belab.models.lstat import influence_closed
from belab.quadrature import check_error, pointwise, quad
from belab.types import MomentEstimate

ENUMERATION_CAP = 10 ** 6


def dblquad(f, a, b, lo, hi, *, epsabs=1.49e-8, epsrel=1.49e-8):
    """(value, error estimate) of int_a^b int_lo(x)^hi(x) f(y, x) dy dx by
    belab's `quad` nested in itself.

    f takes an array of y and one float x. The error adds to the outer
    estimate the largest inner estimate times b - a, a bound on how far the
    inner errors can move the outer sum (the Kronrod weights are positive).
    """
    worst_inner = 0.0

    def outer(xs):
        nonlocal worst_inner
        out = np.empty(len(xs))
        for k, x in enumerate(xs.tolist()):
            out[k], e = quad(lambda y: f(y, x), lo(x), hi(x),
                             epsabs=epsabs, epsrel=epsrel)
            worst_inner = max(worst_inner, e)
        return out

    value, error = quad(outer, a, b, epsabs=epsabs, epsrel=epsrel)
    return value, error + abs(b - a) * worst_inner


class CapacityError(Exception):
    """Exact enumeration would exceed ENUMERATION_CAP; never subsampled."""


def check_capacity(count: int, what: str):
    if count > ENUMERATION_CAP:
        raise CapacityError(
            f"{count} {what} exceed the enumeration cap {ENUMERATION_CAP}")


def whole_draw(dist, rng, size):
    """`size` values of the catalog law `dist`, drawn from rng in one call:
    the values that a chunk's row tiles of the same stream must hold."""
    out = np.empty(size)
    dist.fill(rng, out)
    return out


def helmert_unit(m: int):
    """The last row of the Helmert matrix of order m >= 2: a unit vector of
    length m orthogonal to the ones vector."""
    u = np.ones(m)
    u[-1] = 1.0 - m
    return u / math.sqrt(m * (m - 1.0))


def normal_rows(x1, z, q, n: int):
    """Data rows of width n for the draws (x_1, z, q) of a std_normal
    U-statistic chunk: x_1, then n - 1 values with sum sqrt(n - 1) z and
    sum of squares about their mean q, namely z / sqrt(n - 1) plus sqrt(q)
    times helmert_unit(n - 1)."""
    rest = (z[:, None] / math.sqrt(n - 1)
            + np.sqrt(q)[:, None] * helmert_unit(n - 1))
    return np.column_stack((x1, rest))


def redraw_rows(model, rng, count):
    """The data rows of a chunk of `count` rows of a model that reads them
    through `linear.power_sums`, at n >= 3, redrawn from rng: under
    std_normal, the rows (normal_rows) that its three count-length draws
    x_1, z and q stand for; under any other law, the whole data block."""
    if model.dist.name == "std_normal":
        x1 = rng.standard_normal(count)
        z = rng.standard_normal(count)
        return normal_rows(x1, z, rng.chisquare(model.n - 2, count), model.n)
    return whole_draw(model.dist, rng, (count, model.n))


def variance_normal_cdfs(n: int):
    """Exact cdfs of T and W of the variance-kernel U-statistic under
    std_normal. U_n = S^2 - 1 and (n - 1) S^2 ~ chi2_{n-1}, so
    T = sqrt(n/2) (S^2 - 1); sum X_i^2 ~ chi2_n, so
    W = (sum X_i^2 - n) / sqrt(2n)."""

    def cdf_t(x):
        return chi2.cdf((n - 1) * (1.0 + np.asarray(x) * math.sqrt(2.0 / n)),
                        n - 1)

    def cdf_w(x):
        return chi2.cdf(n + np.asarray(x) * math.sqrt(2.0 * n), n)

    return cdf_t, cdf_w


def ks_vs_cdf(values, cdf) -> float:
    """sup |F_sample - cdf| of a sample against a continuous cdf."""
    x = np.sort(np.asarray(values, dtype=float))
    f = cdf(x)
    i = np.arange(1, x.size + 1)
    return float(max((i / x.size - f).max(), (f - (i - 1) / x.size).max()))


def sup_cdf_gap(cdf_a, cdf_b, lo=-20.0, hi=20.0) -> float:
    """sup_x |cdf_a(x) - cdf_b(x)| of two continuous cdfs: the largest gap
    on a grid of step 1e-4, refined by a bounded search between the grid
    points next to it."""
    x = np.linspace(lo, hi, int(round((hi - lo) * 1e4)) + 1)
    gap = np.abs(cdf_a(x) - cdf_b(x))
    k = int(gap.argmax())
    found = minimize_scalar(
        lambda u: -abs(float(cdf_a(u)) - float(cdf_b(u))),
        bounds=(x[max(k - 1, 0)], x[min(k + 1, x.size - 1)]),
        method="bounded", options={"xatol": 1e-12})
    return max(float(gap[k]), -float(found.fun))


# the centred base variable Y = X - mean of each continuous catalog law,
# and of X - X' for X, X' independent under uniform01 (triangle) and under
# exponential1 (laplace): its density and its whole support, which the
# marginals' quadrature windows cut to |Y| <= 12 (std_normal), Y <= 59
# (exponential1) and |Y| <= 60 (laplace)
_CENTRED_LAWS = {
    "std_normal": (mpmath.npdf, -mpmath.inf, mpmath.inf),
    "uniform01": (lambda y: mpmath.mpf(1), mpmath.mpf(-0.5), mpmath.mpf(0.5)),
    "exponential1": (lambda y: mpmath.exp(-(y + 1)), mpmath.mpf(-1),
                     mpmath.inf),
    "triangle": (lambda y: 1 - abs(y), mpmath.mpf(-1), mpmath.mpf(1)),
    "laplace": (lambda y: mpmath.exp(-abs(y)) / 2, -mpmath.inf, mpmath.inf),
}


def _quadratic_mp(marg, integrand, keep, t):
    """40-digit integral of integrand(|g(y)|) times the density of Y over
    the pieces of Y's whole support where keep(|g|, t) holds, for the
    QuadraticMarginal g = a (Y^2 - v); the pieces are cut at -r, 0, r and
    wherever |g| = t, so |g| - t keeps one sign on each."""
    with mpmath.workdps(40):
        density, y_lo, y_hi = _CENTRED_LAWS[marg.base.name]
        a, v = mpmath.mpf(marg.a), mpmath.mpf(marg.c)
        g = lambda y: abs(a * (y * y - v))
        cuts = {mpmath.mpf(0), mpmath.sqrt(v), -mpmath.sqrt(v)}
        if t is not None:
            u = mpmath.mpf(t) / a
            cuts |= {mpmath.sqrt(v + u), -mpmath.sqrt(v + u)}
            if u < v:
                cuts |= {mpmath.sqrt(v - u), -mpmath.sqrt(v - u)}
        cuts = [y_lo] + sorted(c for c in cuts if y_lo < c < y_hi) + [y_hi]
        total = mpmath.mpf(0)
        for y0, y1 in zip(cuts, cuts[1:]):
            mid = (y1 - 1 if y0 == -mpmath.inf else
                   y0 + 1 if y1 == mpmath.inf else (y0 + y1) / 2)
            if not keep(g(mid), t):
                continue
            # an infinite piece is cut at steps that grow from the scale
            # 1 / |y| over which a normal tail falls by a factor e
            end = y0 if y1 == mpmath.inf else y1 if y0 == -mpmath.inf else None
            if end is not None:
                steps = [end + math.copysign(2 ** k, end) / max(1, abs(end))
                         for k in range(-3, 8)]
                points = sorted([y0, y1] + steps)
            else:
                points = [y0, y1]
            total += mpmath.quad(lambda y: integrand(g(y)) * density(y),
                                 points)
        return total


def quadratic_moment_mp(marg, p, t=None):
    """E|g|^p 1{|g| <= t} (every |g| when t is None) of a QuadraticMarginal,
    over its base law's whole support (the window the marginal integrates
    over cuts off less than 1e-25 of it)."""
    return _quadratic_mp(marg, lambda abs_g: abs_g ** p,
                         lambda abs_g, t: t is None or abs_g <= t, t)


def quadratic_tail_mp(marg, t):
    """P(|g| > t) of a QuadraticMarginal, over its base law's whole
    support."""
    return _quadratic_mp(marg, lambda abs_g: 1,
                         lambda abs_g, t: abs_g > t, t)


def kernel_moment_mp(kernel: str, dist: str, p) -> mpmath.mpf:
    """40-digit E|h(X, Y)|^p of a catalog kernel under uniform01 or
    exponential1, as one integral against the density of the variable that
    h reads: D = X - Y, h = (D^2 - 2 V)/2, for the variance kernel, and
    S = X + Y - 2 mu, h = S, for the sum kernel. D and S are triangular on
    [-1, 1] under uniform01; under exponential1 D has density e^(-|d|)/2
    and S + 2 is Gamma(2). Cut where h or the density has a kink."""
    with mpmath.workdps(40):
        inf = mpmath.inf
        if dist == "uniform01":
            var = mpmath.mpf(1) / 12
            density, lo, hi = lambda u: 1 - abs(u), -1, 1
        elif kernel == "variance":
            var = mpmath.mpf(1)
            density, lo, hi = lambda u: mpmath.exp(-abs(u)) / 2, -inf, inf
        else:
            var = mpmath.mpf(1)
            density, lo, hi = lambda u: (u + 2) * mpmath.exp(-(u + 2)), -2, inf
        if kernel == "variance":
            h = lambda u: (u * u - 2 * var) / 2
        else:
            h = lambda u: u
        r = mpmath.sqrt(2 * var)
        cuts = [lo] + [c for c in (-r, 0, r) if lo < c < hi] + [hi]
        return mpmath.quad(lambda u: abs(h(u)) ** mpmath.mpf(p) * density(u),
                           cuts)


def ustat_value(kernel, data, dist) -> float:
    """U_n by exact enumeration over pairs."""
    x = np.asarray(data, dtype=float)
    n = x.size
    check_capacity(math.comb(n, 2), "index subsets")
    total = math.fsum(float(kernel.h(x[i], x[j], dist))
                      for i, j in itertools.combinations(range(n), 2))
    return total / math.comb(n, 2)


def multisample_value(kernel_fn, samples, degrees) -> float:
    """Exact enumeration of a centered multisample U-statistic.

    kernel_fn takes one tuple of observations per sample (each of length
    m_j).
    """
    sizes = [len(s) for s in samples]
    count = 1
    for n_j, m_j in zip(sizes, degrees):
        count *= math.comb(n_j, m_j)
    check_capacity(count, "index choices")
    pools = [list(itertools.combinations(np.asarray(s, dtype=float), m_j))
             for s, m_j in zip(samples, degrees)]
    total = math.fsum(kernel_fn(*choice)
                      for choice in itertools.product(*pools))
    return total / count


def pair_counts(xs, ys):
    """Per-row count of the pairs (i, j) with x_i <= y_j from row-sorted
    blocks, one searchsorted per row; the reference for
    `_tagged_pair_counts`, on any finite input."""
    return np.array([np.searchsorted(a, b, side="right").sum()
                     for a, b in zip(xs, ys)], dtype=float)


def lstat_value(data, weight) -> float:
    """Raw T(F_n) = (1/n) sum X_(i) J(i/n)."""
    x = np.sort(np.asarray(data, dtype=float))
    n = x.size
    jv = np.asarray(weight.fn(np.arange(1, n + 1) / n), dtype=float)
    return float(x @ jv) / n


def influence_quadrature(weight, dist):
    """Influence function by quadrature; the slow reference for the closed
    forms."""
    lo, hi = dist.support

    def infl(x):
        def integrand(s):
            fs = dist.cdf(s)
            return ((1.0 if x <= s else 0.0) - fs) * float(weight.fn(fs))
        edges = sorted({lo, hi, min(max(x, lo), hi)})
        return quad_segments(pointwise(integrand), edges)

    return infl


def t_center(weight, dist) -> float:
    """T(F) = E[X J(F(X))] by quadrature."""
    lo, hi = dist.support
    fn = lambda x: x * float(weight.fn(dist.cdf(x))) * float(dist.pdf(x))
    mid = min(max(dist.mean, lo), hi)
    return quad_segments(pointwise(fn), sorted({lo, mid, hi}))


def sigma_double_integral(weight, dist) -> float:
    """sigma^2 = 2 * iint_{s<t} J(F(s)) J(F(t)) F(s)(1 - F(t)) dt ds."""
    lo, hi = dist.support

    def inner(ts, s):
        fs = dist.cdf(s)
        js = float(weight.fn(fs))
        return np.array([js * float(weight.fn(dist.cdf(t))) * fs
                         * (1.0 - dist.cdf(t)) for t in ts.tolist()])

    val, err = dblquad(inner, lo, hi, lambda s: s, lambda s: hi,
                       epsabs=1e-11, epsrel=1e-11)
    return 2.0 * check_error(val, err, "scale double integral", atol=1e-8,
                             rtol=0.0)


def lstat_projection_sigma(weight, dist):
    """(influence, sigma) from the double integral, reconciled with
    E infl(X)^2 to 1e-8; NumericError where the two disagree."""
    infl = influence_closed(weight, dist)
    s_sq = sigma_double_integral(weight, dist)
    lo, hi = dist.support
    e_g2 = quad_segments(
        lambda x: infl(x) ** 2 * dist.pdf(x),
        sorted({lo, min(max(dist.mean, lo), hi), hi}))
    if abs(s_sq - e_g2) > 1e-8 + 1e-8 * abs(s_sq):
        raise NumericError(
            f"scale mismatch: double integral {s_sq!r} vs E g^2 {e_g2!r}")
    return infl, math.sqrt(s_sq)


def example41_alpha(spec, replicates: int, seed):
    """Monte Carlo estimate of the averaged resample-coupling moment
    (1/n) sum_i E|Delta(W) - Delta(W with X_i redrawn)|.

    The summands are exchangeable, so the average equals the i = 1 term and
    one replicate costs three draws (rest-of-sum R, X_1, fresh copy of X_1)
    whatever n is. Chunking and stream keying follow the engine conventions,
    so results are reproducible from (spec, replicates, master seed) alone.
    """
    if not isinstance(seed, SeedSpec):
        seed = SeedSpec(int(seed))
    model = IsqrtModel(spec)

    def one_chunk(args):
        c, _start, count = args
        chunk = model.sample_chunk(seed.substream(c), count,
                                   mode=("resample",))
        return _row_moments(
            np.abs(chunk["delta"] - chunk["dvar_rep"]["resample"].T))

    [(mean, se)] = _mean_se(_map_chunks(one_chunk, replicates, 1), replicates)
    return MomentEstimate(mean, se, replicates)


def alpha_quadrature(epsilon: float, n: float) -> float:
    """Quadrature value of the resample coupling alpha at (epsilon, n)."""
    if epsilon < 0:
        raise DomainError("epsilon must be nonnegative")
    if n < 2:
        raise DomainError("need n >= 2")
    if epsilon == 0.0:
        return 0.0
    nu = 1.0 / math.sqrt(n)
    return epsilon * math.sqrt(nu) * alpha_scale(nu)
