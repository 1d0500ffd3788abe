"""Seeded Monte Carlo engine with reproducible chunked streams.

Replicates are processed in fixed chunks of 4096. Chunk c of a run draws
from its own SFC64 stream, seeded by the SeedSequence child c of
master_seed (spawn key (c,)); a chunk's later parts extend that key by the
part's index (`models.base.part_stream`). So replicate i depends only on
the master seed and i's chunk, never on thread count or scheduling.

A run samples in one pass (`sample_pass`): each chunk draws its data block
once, and that one draw gives the chunk's slices of T and W and the
leave-one-out rows of every requested variant mode. `collect_t_w` and
`components_via_engine` are that pass with T and W only, or with one mode.

A sampled moment is the mean of one row of per-replicate values. Each chunk
stacks its rows in one C-contiguous (K, count) float64 array in a fixed
order (see sample_pass), the rows that no variant mode changes once, and
reduces them along the contiguous axis: numpy's pairwise sum, and the sum
of squared deviations from the chunk's row mean (M2). `_mean_se`, the one place that turns blocks into a
mean and a standard error, combines the per-row sums with math.fsum and
merges the M2 values pairwise (Chan, Golub & LeVeque), both in chunk order.
So a mean never depends on the variance arithmetic, the variance does not
cancel when a mean dwarfs its spread, and the results are byte-identical for
a fixed (seed, replicates) pair however many worker threads run the chunks.

A KS distance is the largest of one term per point of an ascending
input. An input that is already ascending is read in place, any other is
sorted into a copy first, an empty one raises ConfigError and one that
holds a NaN NumericError; the pointwise distances read their samples the
same way and count the values at or below z by one `searchsorted`. The KS
kernels split the input into groups of DISTANCE_GROUP consecutive values
and look first at the group ends alone: n / DISTANCE_GROUP points, one
`searchsorted` or `ndtr_array` call each. These give each group its two end
terms, exactly, and a bound on every term inside it. The largest end term
is a floor on the distance, and only the groups whose bound exceeds it have
their terms evaluated: each run of consecutive such groups in contiguous
slices of at most DISTANCE_BLOCK values. A term depends on its own point
alone (`ndtr_array` ignores the size of the array it comes in), no skipped
group holds a term above the floor, and a maximum does not depend on the
order it is taken in; so the distance is bit-identical to the whole-array
formula. On the sorted T and W of a 5e5-replicate U-statistic run about
1 % of the groups survive. When T = W without ties every group does, and
a distance costs what the whole walk did. The temporaries stay
block-sized: at 5e5 replicates a two-sample distance on sorted inputs
holds about 1 MB, and on unsorted ones two 4 MB sorted copies more.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .models.base import VARIANT_MODES
from .special import ndtr, ndtr_array
from .types import BoundComponents, BoundValue, KSResult, MomentEstimate

CHUNK_SIZE = 4096
DKW_ALPHA = 1e-4
# sorted values per step of the distance kernels
DISTANCE_BLOCK = 2 ** 15
# consecutive sorted values per group whose terms the distance kernels bound
# from the group's two ends
DISTANCE_GROUP = 64
# above any backward step of ndtr_array along sorted values
CDF_MARGIN = 2.0 ** -40


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus substream addressing by chunk index."""

    master_seed: int

    def __post_init__(self):
        if not 0 <= int(self.master_seed) < 2 ** 63:
            raise ConfigError("master_seed must fit in a nonnegative 63-bit int")

    def substream(self, index: int) -> np.random.Generator:
        return np.random.Generator(np.random.SFC64(np.random.SeedSequence(
            int(self.master_seed), spawn_key=(int(index),))))


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


def _row_moments(rows):
    """Count, per-row sums and per-row M2 (sum of squared deviations from
    the row mean) of one block of stacked rows. The deviations are squared
    in place: one block-sized temporary instead of two, which spares the
    page faults of a second fresh buffer per chunk."""
    count = rows.shape[1]
    sums = rows.sum(axis=1)
    dev = rows - (sums / count)[:, None]
    np.multiply(dev, dev, out=dev)
    return count, sums, dev.sum(axis=1)


def _mean_se(blocks, replicates: int):
    """(mean, se) of each row from per-block (count, sums, M2).

    A mean is math.fsum of the block sums over `replicates`. The M2 values
    are merged pairwise in block order (Chan, Golub & LeVeque 1983), which
    keeps the variance accurate when a row's mean dwarfs its spread."""
    n = 0
    for count, sums, m2_block in blocks:
        mean_block = sums / count
        if n == 0:
            mean, m2 = mean_block, m2_block
        else:
            d = mean_block - mean
            total = n + count
            m2 = m2 + m2_block + d * d * (n * count / total)
            mean = mean + d * (count / total)
        n += count
    means = [math.fsum(col) / replicates for col in zip(*(b[1] for b in blocks))]
    if replicates == 1:
        return [(m, 0.0) for m in means]
    return [(m, math.sqrt(float(v) / (replicates - 1) / replicates))
            for m, v in zip(means, m2)]


def _estimates(model, stats, replicates, weights, n_l2, delta_thresholds):
    """BoundComponents from the (mean, se) of each stacked row."""
    est = [MomentEstimate(m, se, replicates) for m, se in stats]
    delta_l2 = sum_gl2 = None
    if n_l2:
        roots = [MomentEstimate(math.sqrt(m), se / (2.0 * math.sqrt(m))
                                if m > 0 else 0.0, replicates)
                 for m, se in stats[3:3 + n_l2]]
        delta_l2 = roots[0]
        sum_gl2 = sum((wt * marg.l2() * r for wt, (marg, _cnt), r
                       in zip(weights, model.linear_part.groups, roots[1:])),
                      MomentEstimate(0.0))
    return BoundComponents(
        e_abs_w_delta=est[0], sum_g_delta_diff=est[1], delta_abs=est[2],
        delta_l2=delta_l2, sum_g_l2_delta_l2=sum_gl2,
        delta_tails=dict(zip(delta_thresholds, est[3 + n_l2:])))


def sample_pass(model, replicates: int, seed: SeedSpec, modes=(),
                threads: int = 1, delta_thresholds=(), keep_tw: bool = True):
    """One sampling pass: (t, w, {mode: BoundComponents}), beta and delta
    left unset.

    Each chunk calls sample_chunk once with all the variant modes, so one
    draw of its data block gives its T and W slices (written into
    preallocated arrays when keep_tw is set; None otherwise) and one
    (K, count) array of rows for all the modes: first those that no mode
    changes, |W D|, |D|, D^2 where the model has an L2 remainder, and
    1{|D| > thr} for each threshold; then each mode's own,
    sum_j n_j |g_j (D - D_j)| and, with an L2 remainder, (D - D_j)^2 for
    each group. One _row_moments call reduces the block and one _mean_se
    call its blocks; a row is reduced alone, so each mode's estimates are
    bit for bit those of a block of its own rows, which it reads in the
    order |W D|, sum_j n_j |g_j (D - D_j)|, |D|, D^2, (D - D_j)^2,
    1{|D| > thr}. A structurally zero
    remainder gives exact zero components without sampling its modes; with
    nothing to sample, nothing is drawn. `modes` holds distinct names from
    VARIANT_MODES; any other name raises ValueError before a draw."""
    for m in modes:
        if m not in VARIANT_MODES:
            raise ValueError(f"unknown variant mode {m!r}")
    t = np.empty(replicates) if keep_tw else None
    w = np.empty(replicates) if keep_tw else None
    sampled = () if model.delta_is_zero else tuple(modes)
    weights = np.array([float(s) for s in model.group_sizes])
    n_l2 = 1 + weights.size if model.supports_delta_l2 else 0
    thresholds = np.array(delta_thresholds, dtype=float)[:, None]

    n_thr = len(delta_thresholds)
    n_shared = 2 + bool(n_l2) + n_thr
    n_own = max(n_l2, 1)

    def mode_order(k):
        """Indexes of mode k's rows in the order of _estimates."""
        own = n_shared + k * n_own
        l2 = [2, *range(own + 1, own + n_own)] if n_l2 else []
        return [0, own, 1, *l2, *range(n_shared - n_thr, n_shared)]

    def chunk_rows(chunk):
        delta = chunk["delta"]
        rows = np.empty((n_shared + len(sampled) * n_own, delta.size))
        np.abs(chunk["w"] * delta, out=rows[0])
        np.abs(delta, out=rows[1])
        if n_l2:
            np.multiply(delta, delta, out=rows[2])
        rows[n_shared - n_thr:n_shared] = rows[1] > thresholds
        for k, mode in enumerate(sampled):
            own = rows[n_shared + k * n_own:n_shared + (k + 1) * n_own]
            diff = delta[:, None] - chunk["dvar_rep"][mode]
            own[0] = (np.abs(chunk["g_rep"] * diff) * weights).sum(axis=1)
            if n_l2:
                own[1:] = (diff * diff).T
        return rows

    def one_chunk(args):
        c, start, count = args
        chunk = model.sample_chunk(seed.substream(c), count, mode=sampled)
        if keep_tw:
            t[start:start + count] = chunk["t"]
            w[start:start + count] = chunk["w"]
        return _row_moments(chunk_rows(chunk)) if sampled else None

    blocks = (_map_chunks(one_chunk, replicates, threads)
              if keep_tw or sampled else [])
    if model.delta_is_zero:
        zero = MomentEstimate(0.0)
        return t, w, {mode: BoundComponents(
            zero, zero, zero, zero, zero,
            {thr: zero for thr in delta_thresholds}) for mode in modes}
    stats = _mean_se(blocks, replicates) if sampled else []
    return t, w, {mode: _estimates(
        model, [stats[j] for j in mode_order(k)], replicates, weights, n_l2,
        delta_thresholds) for k, mode in enumerate(sampled)}


def components_via_engine(model, replicates: int, seed: SeedSpec, mode="zero_out",
                          threads: int = 1, delta_thresholds=()) -> BoundComponents:
    """Coupling-moment estimates in one variant mode (see sample_pass)."""
    return sample_pass(model, replicates, seed, (mode,), threads,
                       delta_thresholds, keep_tw=False)[2][mode]


def collect_t_w(model, replicates: int, seed: SeedSpec, threads: int = 1):
    """(T, W) arrays of one run (see sample_pass)."""
    t, w, _comps = sample_pass(model, replicates, seed, threads=threads)
    return t, w


def dkw_radius(replicates: int) -> float:
    """Two-sided DKW band half-width at confidence 1 - DKW_ALPHA."""
    if replicates < 1:
        raise ConfigError("need at least 1 replicate")
    return math.sqrt(math.log(2.0 / DKW_ALPHA) / (2.0 * replicates))


def _ascending(values):
    """The values as a float array in ascending order: the input itself
    when it already is, else a sorted copy. An empty input raises
    ConfigError, and one that holds a NaN NumericError."""
    values = np.asarray(values, dtype=float)
    if values.size < 1:
        raise ConfigError("need at least 1 value")
    # a NaN fails the comparison, so such an input is sorted, NaN last
    if values.size > 1 and not (values[:-1] <= values[1:]).all():
        values = np.sort(values)
    if np.isnan(values[-1]):
        raise NumericError("a sample to measure a distance on holds a NaN")
    return values


def _group_ends(n: int):
    """0-based first and last index of each group of DISTANCE_GROUP
    consecutive values of n; the last group may be shorter."""
    first = np.arange(0, n, DISTANCE_GROUP)
    return first, np.minimum(first + (DISTANCE_GROUP - 1), n - 1)


def _live_slices(live, n: int):
    """(start, stop) of each run of consecutive live groups over n values,
    cut into pieces of at most DISTANCE_BLOCK values."""
    edges = np.flatnonzero(np.diff(live, prepend=False, append=False))
    for g0, g1 in edges.reshape(-1, 2).tolist():
        stop = min(g1 * DISTANCE_GROUP, n)
        for start in range(g0 * DISTANCE_GROUP, stop, DISTANCE_BLOCK):
            yield start, min(start + DISTANCE_BLOCK, stop)


def empirical_ks_vs_normal(t_values) -> KSResult:
    """Exact one-sample sup-distance to the standard normal cdf: the
    largest of i/n - Phi(t_i), Phi(t_i) - (i-1)/n and 0 over the sorted
    t_1, ..., t_n. In a group with points f to l, Phi(t_i) is at least
    Phi(t_f) - CDF_MARGIN and at most Phi(t_l) + CDF_MARGIN, so its terms
    are at most l/n - (Phi(t_f) - CDF_MARGIN) and (Phi(t_l) + CDF_MARGIN)
    - (f-1)/n. The margin is there because ndtr_array is not monotone at
    ulp level: along sorted values it steps back by up to 2.2e-16, and
    tests/test_special.py pins its largest backward step at 2^-50."""
    t = _ascending(t_values)
    n = t.size
    first, last = _group_ends(n)
    cdf_first = ndtr_array(t[first])
    cdf_last = ndtr_array(t[last])
    floor = max(((first + 1) / n - cdf_first).max(),
                (cdf_first - first / n).max(),
                ((last + 1) / n - cdf_last).max(),
                (cdf_last - last / n).max(), 0.0)
    live = (((last + 1) / n - (cdf_first - CDF_MARGIN) > floor)
            | ((cdf_last + CDF_MARGIN) - first / n > floor))
    dist = floor
    for start, stop in _live_slices(live, n):
        cdf = ndtr_array(t[start:stop])
        i = np.arange(start + 1, stop + 1)
        dist = max(dist, (i / n - cdf).max(), (cdf - (i - 1) / n).max())
    return KSResult(distance=float(dist), replicates=n,
                    dkw_radius=dkw_radius(n))


def empirical_ks_two_sample(a_values, b_values) -> KSResult:
    """Sup-distance between two empirical cdfs, exact over the pooled
    points: max |F_a - F_b| is the larger of max(F_a - F_b) over the points
    of a and max(F_b - F_a) over the points of b, since F_a - F_b rises only
    at points of a. At the k-th smallest point of a, F_a is at least k/n_a,
    and equal to it at the last point of a run of ties, which dominates the
    run; so only the other sample is searched, and each term is the same
    integer pair, division and subtraction as a search of both would give.
    In a group of a with points f to l, the count of b rises from its
    count c_f at a's point f, so no term exceeds fl(l/n_a) - fl(c_f/n_b):
    correctly rounded division and subtraction are monotone."""
    a = _ascending(a_values)
    b = _ascending(b_values)
    sides = []
    floor = -np.inf
    for this, other in ((a, b), (b, a)):
        n, m = this.size, other.size
        first, last = _group_ends(n)
        at_first = np.searchsorted(other, this[first], side="right") / m
        at_last = np.searchsorted(other, this[last], side="right") / m
        top = (last + 1) / n
        floor = max(floor, ((first + 1) / n - at_first).max(),
                    (top - at_last).max())
        sides.append((this, other, top - at_first))
    dist = floor
    for this, other, bound in sides:
        for start, stop in _live_slices(bound > floor, this.size):
            gap = np.arange(start + 1, stop + 1, dtype=float)
            gap /= this.size
            gap -= (np.searchsorted(other, this[start:stop], side="right")
                    / other.size)
            dist = max(dist, gap.max())
    return KSResult(distance=float(dist), replicates=min(a.size, b.size),
                    dkw_radius=dkw_radius(a.size) + dkw_radius(b.size))


def pointwise_diff_vs_normal(t_values, z: float) -> KSResult:
    """|F_T(z) - Phi(z)| from a sample of T, read like a KS kernel's."""
    t = _ascending(t_values)
    emp = float(np.searchsorted(t, z, side="right")) / t.size
    return KSResult(distance=abs(emp - ndtr(z)), replicates=t.size,
                    dkw_radius=dkw_radius(t.size))


def pointwise_diff_two_sample(a_values, b_values, z: float) -> KSResult:
    """|F_a(z) - F_b(z)| from samples of both laws, read like a KS
    kernel's."""
    a = _ascending(a_values)
    b = _ascending(b_values)
    fa = float(np.searchsorted(a, z, side="right")) / a.size
    fb = float(np.searchsorted(b, z, side="right")) / b.size
    return KSResult(distance=abs(fa - fb), replicates=min(a.size, b.size),
                    dkw_radius=dkw_radius(a.size) + dkw_radius(b.size))


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
