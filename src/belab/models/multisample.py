"""Multisample U-statistics; the concrete catalog entry is the two-sample
rank score h(x, y) = I(x <= y) - 1/2.

Scale convention: with J independent samples of sizes n_j and kernel degrees
m_j, the combined scale is sn2 = sum_j m_j^2 sigma_j^2 / n_j (sigma_j the
per-sample projection variance), the statistic is T = U / sn with sn =
sqrt(sn2), and the linear terms are g_jl = (m_j/n_j) h_j(X_jl) / sn, which
makes sum E g^2 = 1 exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import UnsupportedModelError
from ..marginals import LinearPart, UniformMarginal
from ..types import MultiBoundInputs
from .base import (
    DIST_CATALOG,
    ChunkTiles,
    StatisticModel,
    empty_block,
    projection_sums,
    row_counts,
    row_tiles,
)
from .fields import Spec, spec_field


@dataclass(frozen=True)
class MultiUStatSpec(Spec):
    """Descriptor for a catalog multisample U-statistic."""

    # the constructor takes it first, so only a descriptor may leave it out
    kernel: str = field(metadata={"kind": {"catalog": ("wilcoxon",)},
                                  "default": "wilcoxon"})
    dist: str = spec_field(catalog=DIST_CATALOG)
    n: tuple = spec_field(pair='two sample sizes, e.g. "1000;1000"',
                          integer=True, minimum=2)
    m: tuple = spec_field((1, 1), pair="two kernel degrees, e.g. [1, 1]",
                          integer=True, minimum=1)

    def __post_init__(self):
        super().__post_init__()
        if not DIST_CATALOG[self.dist].continuous:
            raise UnsupportedModelError(
                "rank kernels need a continuous observation distribution")
        if tuple(self.m) != (1, 1):
            raise UnsupportedModelError("the rank kernel has degrees (1, 1)")


# rows per tile of the pooled, sample-tagged sort: a 32 x 2000 key tile
# and its float64 parity tile hold about 1 MB together
PAIR_TILE = 32


def _tagged_pair_counts(x, y, work):
    """Per-row count of the pairs (i, j) with x_i <= y_j, from one sort of
    each pooled row; x and y are not changed.

    Every value must lie on the lattice of `Generator.random`: a multiple
    of 2^-53 in [0, 1). A tile of rows becomes one block of exact int64
    keys, 2^54 u + 2^52 for an x draw u and one more for a y draw, so a tie
    x = y sorts x first and x <= y holds exactly by key parity; no row is
    recounted. Keys in [2^52, 2^55) are the bit patterns of normal doubles
    in the same order, so a row sorts faster through a float64 view, even
    under flush-to-zero. The count is the dot product of the odd-key
    indicator with the positions, minus n2 (n2 - 1) / 2: integers below
    2^53 throughout. `work`, a flat float64 buffer of at least
    2 min(PAIR_TILE, count) (n1 + n2) values, holds both blocks.
    """
    count, n1 = x.shape
    n2 = y.shape[1]
    out = np.empty(count)
    shape = (min(PAIR_TILE, count), n1 + n2)
    cells = shape[0] * shape[1]
    keys = work[:cells].reshape(shape)
    bits = keys.view(np.int64)
    parity = work[cells:2 * cells].reshape(shape)
    positions = np.arange(n1 + n2, dtype=float)
    for rows in row_tiles(count, PAIR_TILE):
        used = rows.stop - rows.start
        key, key_bits, odd = keys[:used], bits[:used], parity[:used]
        np.multiply(x[rows], 2.0 ** 54, out=key_bits[:, :n1], casting="unsafe")
        np.multiply(y[rows], 2.0 ** 54, out=key_bits[:, n1:], casting="unsafe")
        key_bits[:, :n1] += 2 ** 52
        key_bits[:, n1:] += 2 ** 52 + 1
        key.sort(axis=1)
        np.bitwise_and(key_bits, 1, out=odd, casting="unsafe")
        out[rows] = odd @ positions - n2 * (n2 - 1) // 2
    return out


def multisample_sigma(spec: MultiUStatSpec) -> float:
    """Combined scale sn = sqrt(sum m_j^2 sigma_j^2 / n_j)."""
    # rank-score projections are Uniform(-1/2, 1/2), so sigma_j^2 = 1/12
    return math.sqrt(sum(m * m / (12.0 * n) for m, n in zip(spec.m, spec.n)))


class WilcoxonModel(StatisticModel):
    """Two-sample rank-score statistic under a continuous catalog law.

    The model samples on the probability scale: it draws x = F(X) and
    y = F(Y) as uniform01 values, whatever `dist` names. That is exact for
    a continuous, strictly increasing F: F(X) is uniform01, and F keeps the
    order of every pair, so the pair counts and the projections
    h_1 = 1/2 - F(x), h_2 = F(y) - 1/2 have the same joint law on either
    scale; every moment oracle here is distribution-free for the same
    reason. Only zero_out depends on the law: its replacement 0 on the
    observation scale is F(0) on this one (0.5 under std_normal, 0 under
    the others).
    Ties have probability zero.

    A chunk runs one loop over row tiles of x and y (`ChunkTiles`). Per
    tile it takes the row sums and representative columns of the
    projections, the representatives' own pair counts, and the pair count
    of each replicate row from one sort of its pooled, sample-tagged keys,
    PAIR_TILE rows at a time (`_tagged_pair_counts`): the draws lie on the
    2^-53 lattice of `Generator.random`, so the integer keys are exact and
    ties count by key parity, with no recount. x and y are never sorted.
    Swapping one observation moves that count by a row-wise comparison
    against the other sample, counted in the same loop. The chunk holds
    one tile of x and of y, a projection tile and the key block besides
    count-length arrays: about 5 MiB at 1000;1000.
    """

    def __init__(self, spec: MultiUStatSpec):
        self.spec = spec
        self.dist = DIST_CATALOG[spec.dist]
        self.n1, self.n2 = int(spec.n[0]), int(spec.n[1])
        self.sn = multisample_sigma(spec)
        self.name = (f"multisample-{spec.kernel}-{spec.dist}"
                     f"-n{self.n1};{self.n2}-m1;1")
        self.linear_part = LinearPart([
            (UniformMarginal(0.5 / (self.n1 * self.sn)), self.n1),
            (UniformMarginal(0.5 / (self.n2 * self.sn)), self.n2),
        ])

    def sample_chunk(self, rng, count, mode=()):
        tiles = ChunkTiles(DIST_CATALOG["uniform01"], rng, count,
                           (self.n1, self.n2), mode, zero=self.dist.cdf(0.0))
        sum1, rep1, sum2, rep2, pair = np.empty((5, count))
        pair_work = empty_block(
            2 * min(PAIR_TILE, count) * (self.n1 + self.n2))
        # the pairs each group's representative takes part in before and
        # after the swap for its replacement value
        before = np.empty((2, count), dtype=np.intp)
        after = {m: np.empty((2, count), dtype=np.intp) for m in mode}
        for rows, (x, y) in tiles:
            sum1[rows], rep1[rows] = projection_sums(x, self._g1_rows,
                                                     tiles.scratch)
            sum2[rows], rep2[rows] = projection_sums(y, self._g2_rows,
                                                     tiles.scratch)
            pair[rows] = _tagged_pair_counts(x, y, pair_work)
            if not mode:
                continue
            before[0, rows] = row_counts(np.less, y, x[:, 0])
            before[1, rows] = row_counts(np.less_equal, x, y[:, 0])
            for m in mode:
                v1, v2 = tiles.values[m][:, rows]
                after[m][0, rows] = row_counts(np.less, y, v1)
                after[m][1, rows] = row_counts(np.less_equal, x, v2)
        values = tiles.values
        x = y = tiles = None  # the tile buffers go before the arithmetic below
        w = sum1 + sum2
        t = self._t_of_pairs(pair)
        if not mode:
            return {"t": t, "w": w}
        g_rep = np.stack([rep1, rep2], axis=1)
        dvar = {}
        for m in mode:
            v1, v2 = values[m]
            # group 1 representative x_1 -> v1: its pairs are the y_j >= x_1
            t1 = self._t_of_pairs(pair + (before[0] - after[m][0]))
            w1 = w - g_rep[:, 0] + self._g1_rows(v1)
            # group 2 representative y_1 -> v2: its pairs are the x_i <= y_1
            t2 = self._t_of_pairs(pair + (after[m][1] - before[1]))
            w2 = w - g_rep[:, 1] + self._g2_rows(v2)
            dvar[m] = np.stack([t1 - w1, t2 - w2], axis=1)
        return {"t": t, "w": w, "delta": t - w, "g_rep": g_rep, "dvar_rep": dvar}

    def _t_of_pairs(self, pair):
        """T = (pair / (n1 n2) - 1/2) / sn of a pair count C = #{x_i <= y_j}."""
        return (pair / (self.n1 * self.n2) - 0.5) / self.sn

    def _g1_rows(self, x, out=None):
        """g_1 = (1/2 - x) / (n1 sn), into `out` or one new array."""
        g = np.subtract(0.5, x, out=out)
        g /= self.n1 * self.sn
        return g

    def _g2_rows(self, y, out=None):
        """g_2 = (y - 1/2) / (n2 sn), into `out` or one new array."""
        g = np.subtract(y, 0.5, out=out)
        g /= self.n2 * self.sn
        return g

    def bound_inputs(self, p):
        """Distribution-free: the kernel has sigma = 1/2, and each sample's
        projection is Uniform(-1/2, 1/2)."""
        h_p = (UniformMarginal(0.5).e_abs_p(p),) * 2
        return MultiBoundInputs(sigma=0.5, sn=self.sn, m=(1, 1),
                                n=(self.n1, self.n2), e_abs_h_p=h_p, p=p)
