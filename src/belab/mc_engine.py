"""Seeded Monte Carlo engine with reproducible chunked streams.

Replicates are processed in fixed chunks of 4096. Chunk c of a run draws
from its own counter-based stream, Philox keyed by (master_seed, c), so
replicate i depends only on the master seed and i's chunk, never on thread
count or scheduling. Within a chunk, reductions are numpy pairwise sums over
arrays whose values are fixed by the stream; across chunks, partial sums are
combined with math.fsum in chunk order. Both give byte-identical results for
a fixed (seed, replicates) pair however many worker threads run the chunks.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .errors import ConfigError
from .types import BoundComponents, BoundValue, KSResult, MomentEstimate

CHUNK_SIZE = 4096
DKW_ALPHA = 1e-4


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus counter-based substream addressing."""

    master_seed: int

    def __post_init__(self):
        if not 0 <= int(self.master_seed) < 2 ** 63:
            raise ConfigError("master_seed must fit in a nonnegative 63-bit int")

    def substream(self, index: int) -> np.random.Generator:
        return np.random.Generator(
            np.random.Philox(key=[int(self.master_seed), int(index)]))


def chunk_layout(replicates: int):
    """[(chunk_index, start, count), ...] for a replicate budget."""
    if replicates < 1:
        raise ConfigError("need at least 1 replicate")
    out = []
    start = 0
    c = 0
    while start < replicates:
        count = min(CHUNK_SIZE, replicates - start)
        out.append((c, start, count))
        start += count
        c += 1
    return out


def _map_chunks(fn, replicates: int, threads: int) -> list:
    """fn over the chunk layout on up to `threads` threads, in chunk order."""
    layout = chunk_layout(replicates)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            return list(ex.map(fn, layout))
    return [fn(args) for args in layout]


@dataclass
class ComponentEstimates:
    """Plug-in moment estimates for the remainder-coupling quantities."""

    e_abs_w_delta: MomentEstimate
    sum_g_delta_diff: MomentEstimate
    delta_abs: MomentEstimate
    delta_l2: MomentEstimate | None
    sum_g_l2_delta_l2: MomentEstimate | None
    delta_tails: dict = field(default_factory=dict)

    def as_bound_components(self, beta: MomentEstimate,
                            delta: float) -> BoundComponents:
        kw = dict(
            beta=beta.value, beta_se=beta.std_error, delta=delta,
            e_abs_w_delta=self.e_abs_w_delta.value,
            e_abs_w_delta_se=self.e_abs_w_delta.std_error,
            sum_g_delta_diff=self.sum_g_delta_diff.value,
            sum_g_delta_diff_se=self.sum_g_delta_diff.std_error,
        )
        if self.delta_l2 is not None:
            kw.update(delta_l2=self.delta_l2.value,
                      delta_l2_se=self.delta_l2.std_error,
                      sum_g_l2_delta_l2=self.sum_g_l2_delta_l2.value,
                      sum_g_l2_delta_l2_se=self.sum_g_l2_delta_l2.std_error)
        return BoundComponents(**kw)


def _block_partials(w, delta, g, dvar, weights, thresholds, want_l2):
    """Per-block sums and sums of squares of every component."""
    diff = delta[:, None] - dvar
    wd = np.abs(w * delta)
    gdd = (np.abs(g * diff) * weights[None, :]).sum(axis=1)
    dabs = np.abs(delta)
    out = {
        "wd": (float(np.sum(wd)), float(np.sum(wd * wd))),
        "gdd": (float(np.sum(gdd)), float(np.sum(gdd * gdd))),
        "dabs": (float(np.sum(dabs)), float(np.sum(dabs * dabs))),
    }
    if want_l2:
        d2 = delta * delta
        out["d2"] = (float(np.sum(d2)), float(np.sum(d2 * d2)))
        for j in range(dvar.shape[1]):
            dj2 = diff[:, j] * diff[:, j]
            out[f"ddiff2_{j}"] = (float(np.sum(dj2)), float(np.sum(dj2 * dj2)))
    for k, thr in enumerate(thresholds):
        ind = (dabs > thr).astype(np.float64)
        out[f"tail_{k}"] = (float(np.sum(ind)), float(np.sum(ind)))
    return out


def _mean_se(partials, replicates: int):
    """Mean and standard error from per-block (sum, sum of squares) pairs,
    each combined with math.fsum in block order."""
    s = math.fsum(b[0] for b in partials)
    s2 = math.fsum(b[1] for b in partials)
    m = s / replicates
    if replicates > 1:
        var = max(0.0, (s2 - replicates * m * m) / (replicates - 1))
        se = math.sqrt(var / replicates)
    else:
        se = 0.0
    return m, se


def _combine_partials(blocks, replicates, weights, g_l2, thresholds, want_l2):
    def mean_se(key):
        return _mean_se([b[key] for b in blocks], replicates)

    def moment(key):
        m, se = mean_se(key)
        return MomentEstimate(m, se, replicates)

    def root_moment(key):
        m, se = mean_se(key)
        r = math.sqrt(m)
        return MomentEstimate(r, se / (2.0 * r) if r > 0 else 0.0, replicates)

    delta_l2 = None
    sum_gl2 = None
    if want_l2:
        delta_l2 = root_moment("d2")
        total = 0.0
        total_se = 0.0
        for j, (wt, gl2) in enumerate(zip(weights, g_l2)):
            m, se = mean_se(f"ddiff2_{j}")
            r = math.sqrt(m)
            total += wt * gl2 * r
            total_se += wt * gl2 * (se / (2.0 * r) if r > 0 else 0.0)
        sum_gl2 = MomentEstimate(total, total_se, replicates)
    tails = {}
    for k, thr in enumerate(thresholds):
        tails[thr] = moment(f"tail_{k}")
    return ComponentEstimates(
        e_abs_w_delta=moment("wd"),
        sum_g_delta_diff=moment("gdd"),
        delta_abs=moment("dabs"),
        delta_l2=delta_l2,
        sum_g_l2_delta_l2=sum_gl2,
        delta_tails=tails,
    )


def components_via_engine(model, replicates: int, seed: SeedSpec, mode="zero_out",
                          threads: int = 1, delta_thresholds=()) -> ComponentEstimates:
    """Chunk-parallel component estimation: per-block partial sums, combined
    in chunk order. A structurally zero remainder gives exact zeros without
    sampling."""
    if model.delta_is_zero:
        zero = MomentEstimate(0.0)
        return ComponentEstimates(zero, zero, zero, zero, zero,
                                  {thr: zero for thr in delta_thresholds})
    include_l2 = model.supports_delta_l2
    weights = np.array([float(s) for s in model.group_sizes])

    def one_chunk(args):
        c, start, count = args
        chunk = model.sample_chunk(seed.substream(c), count, mode=mode)
        return _block_partials(
            np.asarray(chunk["w"], dtype=float),
            np.asarray(chunk["delta"], dtype=float),
            np.asarray(chunk["g_rep"], dtype=float),
            np.asarray(chunk["dvar_rep"], dtype=float),
            weights, delta_thresholds, include_l2)

    blocks = _map_chunks(one_chunk, replicates, threads)
    g_l2 = model.group_g_l2() if include_l2 else (0.0,) * len(weights)
    return _combine_partials(blocks, replicates, tuple(weights), g_l2,
                             delta_thresholds, include_l2)


def collect_t_w(model, replicates: int, seed: SeedSpec, threads: int = 1):
    """Draw (T, W) arrays chunk-parallel into disjoint preallocated slices."""
    t = np.empty(replicates)
    w = np.empty(replicates)

    def one_chunk(args):
        c, start, count = args
        chunk = model.sample_chunk(seed.substream(c), count, mode=None)
        t[start:start + count] = chunk["t"]
        w[start:start + count] = chunk["w"]

    _map_chunks(one_chunk, replicates, threads)
    return t, w


def dkw_radius(replicates: int, alpha: float = DKW_ALPHA) -> float:
    """Two-sided DKW band half-width at confidence 1 - alpha."""
    if replicates < 1:
        raise ConfigError("need at least 1 replicate")
    if not 0.0 < alpha < 1.0:
        raise ConfigError("alpha must lie in (0, 1)")
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * replicates))


def empirical_ks_vs_normal(t_values, alpha: float = DKW_ALPHA) -> KSResult:
    """Exact one-sample sup-distance to the standard normal cdf."""
    t = np.sort(np.asarray(t_values, dtype=float))
    n = t.size
    if n < 1:
        raise ConfigError("need at least 1 value")
    cdf = ndtr(t)
    i = np.arange(1, n + 1)
    d_plus = (i / n - cdf).max()
    d_minus = (cdf - (i - 1) / n).max()
    return KSResult(distance=float(max(d_plus, d_minus, 0.0)), replicates=n,
                    dkw_radius=dkw_radius(n, alpha))


def empirical_ks_two_sample(a_values, b_values, alpha: float = DKW_ALPHA) -> KSResult:
    """Sup-distance between two empirical cdfs, exact over the pooled grid."""
    a = np.sort(np.asarray(a_values, dtype=float))
    b = np.sort(np.asarray(b_values, dtype=float))
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    dist = float(np.abs(fa - fb).max())
    return KSResult(distance=dist, replicates=min(a.size, b.size),
                    dkw_radius=dkw_radius(a.size, alpha) + dkw_radius(b.size, alpha))


def pointwise_diff_vs_normal(t_values, z: float, alpha: float = DKW_ALPHA) -> KSResult:
    """|F_T(z) - Phi(z)| from a sample of T."""
    t = np.asarray(t_values, dtype=float)
    emp = float(np.count_nonzero(t <= z)) / t.size
    return KSResult(distance=abs(emp - float(ndtr(z))), replicates=t.size,
                    dkw_radius=dkw_radius(t.size, alpha))


def pointwise_diff_two_sample(a_values, b_values, z: float,
                              alpha: float = DKW_ALPHA) -> KSResult:
    """|F_a(z) - F_b(z)| from samples of both laws."""
    a = np.asarray(a_values, dtype=float)
    b = np.asarray(b_values, dtype=float)
    fa = float(np.count_nonzero(a <= z)) / a.size
    fb = float(np.count_nonzero(b <= z)) / b.size
    return KSResult(distance=abs(fa - fb), replicates=min(a.size, b.size),
                    dkw_radius=dkw_radius(a.size, alpha) + dkw_radius(b.size, alpha))


def certify(ks: KSResult, bound: BoundValue):
    """Check a measured distance against a fully evaluated bound.

    Returns True/False for verifiable bounds (no unknown-constant part),
    None when the bound carries a c * (...) term that cannot be checked.
    The measured distance may exceed the bound by sampling slack only:
    the DKW radius plus 3 propagated standard errors of the bound value.
    """
    if not bound.verifiable:
        return None
    slack = ks.dkw_radius + 3.0 * bound.known_se
    return bool(ks.distance <= bound.known + slack)
