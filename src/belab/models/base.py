"""Model plumbing: the distribution catalog and the StatisticModel interface.

A StatisticModel realizes one normalized statistic T = W + Delta with
W = sum_i g_i(X_i), E g_i = 0, sum_i E g_i^2 = 1. Each model has one
sampling path, the vectorized `sample_chunk` that the Monte Carlo engine
calls; tests check its rows against exact enumeration for each family.

Stream consumption contract (determinism): a chunk's draws come in parts.
Part 0, the data block (the first block, where a model has two), is drawn
replicate-major from the chunk's generator itself. Each later part (a
second block, then, where resample is among the requested variant modes,
one fresh draw per representative index) is drawn replicate-major from its
own stream (`part_stream`). zero_out draws nothing, so one chunk call
serves T, W and every variant mode, and its rows depend only on its
streams and its size, never on which modes were asked for. Some models
draw count-length columns and no block, one after another from the chunk's
generator: the isqrt model, and under std_normal each model that reads a row
through `linear.power_sums` (linear, both U-statistics, const1 L-statistic),
which draws x_1 and the sufficient statistics of the other n - 1 values;
the variance kernel's resample values still come from part 1's stream.

Working set: a chunk is drawn and consumed a row tile at a time
(`ChunkTiles`), so it holds one tile of each part and count-length
outputs. Every row of a chunk depends only on its own data row, so the
tiles, drawn in stream order, hold exactly the values of one whole draw of
each part.
A tile has `tile_rows(width)` rows for the widest block: as many as fit a
float64 tile in TILE_BYTES, rounded down to a power of two, and never
fewer than ROW_TILE. Each tiled step is row by row or elementwise (the
samplers' normal cdf is `special.ndtr_array`, whatever the size), so its
rows are bit-identical to the whole-block step.
"""
from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import UnsupportedModelError
from ..marginals import (
    LinearPart,
    exponential_power_moments,
    laplace_power_moments,
    normal_power_moments,
    triangle_power_moments,
    uniform_power_moments,
)
from ..special import ndtr

# bytes of one float64 row tile of a narrow block; a block wider than 256
# values gets ROW_TILE rows, so a 1000-wide tile is about 1 MB
TILE_BYTES = 2 ** 19
ROW_TILE = 128


def tile_rows(width: int) -> int:
    """Rows per tile of a block `width` values wide: the largest power of
    two whose float64 tile fits in TILE_BYTES, but at least ROW_TILE."""
    rows = TILE_BYTES // (8 * width)
    return 1 << (rows.bit_length() - 1) if rows >= ROW_TILE else ROW_TILE


def row_tiles(count: int, tile: int):
    """Slices of at most `tile` consecutive rows that cover range(count)."""
    for start in range(0, count, tile):
        yield slice(start, min(start + tile, count))


def projection_sums(tile, transform, out):
    """(row sums, first column) of transform(tile). `out`, a flat float64
    buffer of at least tile.size values, holds the projection: it is made by
    transform(tile, out=<view of out>), so no tile-sized array is allocated
    where the transform can write there."""
    g = transform(tile, out=out[:tile.size].reshape(tile.shape))
    return g.sum(axis=1), g[:, 0].copy()


def row_counts(compare, block, values):
    """Per-row count of the j with compare(block[r, j], values[r]), e.g.
    compare=np.less, as intp; a chunk passes one row tile at a time, so the
    mask is tile-sized. Below width 2^16 the mask sums faster in uint16."""
    narrow = block.shape[1] < 2 ** 16
    return compare(block, values[:, None]).sum(
        axis=1, dtype=np.uint16 if narrow else np.intp).astype(np.intp)


def sorted_counts(block, needles):
    """row_counts(np.less, block, v) for each row v of `needles`, a
    (k, rows) array, as a (k, rows) intp array, on a block whose rows
    ascend. One branchless binary search runs all k x rows needles in
    lockstep: a bracket of `span` values starting at `pos` halves each
    step, and the count is its start plus whether the last value left in
    it is below the needle."""
    rows, width = block.shape
    flat = block.reshape(-1)
    start = np.arange(0, rows * width, width)
    pos = np.repeat(start[None, :], len(needles), axis=0)
    span = width
    while span > 1:
        half = span // 2
        probe = pos + half
        np.copyto(pos, probe, where=flat[probe] < needles)
        span -= half
    pos += flat[pos] < needles
    return pos - start


def empty_block(size):
    """np.empty(size); a block too large for numpy to index raises
    MemoryError, like one too large to allocate."""
    cells = math.prod(size) if isinstance(size, tuple) else int(size)
    if cells * 8 > np.iinfo(np.intp).max:
        # numpy would raise ValueError("array is too big") instead
        raise MemoryError(f"a block of {cells} draws needs {cells * 8} "
                          f"bytes, more than numpy can index")
    return np.empty(size)


def part_stream(rng: np.random.Generator, part: int) -> np.random.Generator:
    """The generator of part `part` > 0 of a chunk drawn from rng: rng's
    bit-generator type on the SeedSequence that extends rng's spawn key by
    `part`, so each part depends only on rng's seed and its index."""
    seq = rng.bit_generator.seed_seq
    return np.random.Generator(type(rng.bit_generator)(np.random.SeedSequence(
        seq.entropy, spawn_key=seq.spawn_key + (part,))))


class ChunkTiles:
    """A chunk's data blocks and replacement values, a row tile at a time.

    The chunk's parts are, in order, one block of count x w draws of `dist`
    for each w in `widths`, then, where `modes` holds resample, one fresh
    run of count draws for each block. Part 0 is drawn from rng itself and
    part b > 0 from `part_stream(rng, b)`. `values[mode]` is, for each of
    `modes`, a (len(widths), count) array: the value that replaces each
    block's representative in each row, `zero` for zero_out and the block's
    fresh run for resample.
    Iteration yields (rows, blocks): the slice of chunk rows and the tile of
    each block, valid until the next one is yielded and open to change in
    place; the fresh runs are drawn for those rows by then. Each part's
    tiles hold the values of one whole draw from its stream, and after the
    loop rng stands where a whole draw of part 0 would have left it.
    """

    def __init__(self, dist: BaseDist, rng, count: int, widths, modes=(),
                 zero=0.0):
        self.dist, self.rng, self.count = dist, rng, count
        self.widths = tuple(widths)
        self.tile = tile_rows(max(self.widths))
        shape = (len(self.widths), count)
        self.values = {m: np.broadcast_to(zero, shape) if m == "zero_out"
                       else empty_block(shape) for m in modes}

    @cached_property
    def scratch(self):
        """A flat float64 buffer that holds one tile of the widest block."""
        return empty_block(min(self.count, self.tile) * max(self.widths))

    def __iter__(self):
        height = min(self.count, self.tile)
        buffers = [empty_block((height, w)) for w in self.widths]
        runs = self.values.get("resample", ())
        streams = [self.rng] + [part_stream(self.rng, b) for b in
                                range(1, len(buffers) + len(runs))]
        for rows in row_tiles(self.count, self.tile):
            tiles = [buf[:rows.stop - rows.start] for buf in buffers]
            for stream, part in zip(streams, tiles + [r[rows] for r in runs]):
                self.dist.fill(stream, part)
            yield rows, tiles


VARIANT_MODES = ("zero_out", "resample")


@dataclass(frozen=True)
class BaseDist:
    """Catalog entry for an observation distribution."""

    name: str
    mean: float
    var: float
    mu4: float  # central fourth moment
    support: tuple
    continuous: bool = True

    def pdf(self, x):
        """Density at each x; the quadrature integrands call it on arrays."""
        x = np.asarray(x, dtype=float)
        if self.name == "std_normal":
            return np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
        if self.name == "uniform01":
            return ((0.0 <= x) & (x <= 1.0)).astype(float)
        if self.name == "exponential1":
            return np.where(x >= 0.0, np.exp(-np.abs(x)), 0.0)
        if self.name == "triangle":
            return np.maximum(0.0, 1.0 - np.abs(x))
        if self.name == "laplace":
            return 0.5 * np.exp(-np.abs(x))
        raise UnsupportedModelError(f"no density for {self.name}")

    def cdf(self, x):
        if self.name == "std_normal":
            return ndtr(x)
        if self.name == "uniform01":
            return min(1.0, max(0.0, x))
        if self.name == "exponential1":
            return 1.0 - math.exp(-x) if x >= 0 else 0.0
        if self.name in ("triangle", "laplace"):
            # symmetric about 0
            return self.sf(-x)
        raise UnsupportedModelError(f"no cdf for {self.name}")

    def sf(self, x):
        """P(X > x), taken directly rather than as 1 - cdf, which loses the
        digits of a small tail."""
        if self.name == "std_normal":
            return ndtr(-x)
        if self.name == "uniform01":
            return min(1.0, max(0.0, 1.0 - x))
        if self.name == "exponential1":
            return math.exp(-x) if x >= 0 else 1.0
        if self.name in ("triangle", "laplace"):
            tail = (0.5 * max(0.0, 1.0 - abs(x)) ** 2 if self.name == "triangle"
                    else 0.5 * math.exp(-abs(x)))
            return tail if x >= 0 else 1.0 - tail
        raise UnsupportedModelError(f"no survival function for {self.name}")

    def centred_moments(self, lo: float, hi: float) -> tuple:
        """(M_0, ..., M_6), M_k = E Y^k 1{lo <= Y <= hi} of Y = X - mean,
        in closed form, for lo <= hi inside the centred support."""
        if self.name not in _CENTRED_MOMENTS:
            raise UnsupportedModelError(f"no power moments for {self.name}")
        return _CENTRED_MOMENTS[self.name](lo, hi)

    def fill(self, rng: np.random.Generator, out):
        """Draw out.size values into the C-contiguous float64 array out, as
        one draw of its shape would."""
        if self.name == "std_normal":
            rng.standard_normal(out=out)
        elif self.name == "uniform01":
            rng.random(out=out)
        elif self.name == "exponential1":
            rng.standard_exponential(out=out)
        elif self.name == "rademacher":
            np.multiply(rng.integers(0, 2, out.shape), 2.0, out=out)
            out -= 1.0
        else:
            raise UnsupportedModelError(f"no sampler for {self.name}")


_CENTRED_MOMENTS = {
    "std_normal": normal_power_moments,
    "uniform01": uniform_power_moments,
    "exponential1": exponential_power_moments,
    "triangle": triangle_power_moments,
    "laplace": laplace_power_moments,
}

DIST_CATALOG = {
    "std_normal": BaseDist("std_normal", 0.0, 1.0, 3.0, (-12.0, 12.0)),
    "uniform01": BaseDist("uniform01", 0.5, 1.0 / 12.0, 1.0 / 80.0, (0.0, 1.0)),
    "rademacher": BaseDist("rademacher", 0.0, 1.0, 1.0, (-1.0, 1.0), continuous=False),
    "exponential1": BaseDist("exponential1", 1.0, 1.0, 9.0, (0.0, 60.0)),
}
# X - X' for X, X' independent under uniform01 and under exponential1,
# the variables of the variance kernel's E|h|^p; no config can name them
TRIANGLE = BaseDist("triangle", 0.0, 1.0 / 6.0, 1.0 / 15.0, (-1.0, 1.0))
LAPLACE = BaseDist("laplace", 0.0, 2.0, 24.0, (-60.0, 60.0))


class StatisticModel(ABC):
    """Capability bundle for one statistic. Immutable after construction.
    A model of an application family also has `bound_inputs(p)`: its bounds'
    inputs at moment order p, as the family's record from `belab.types`."""

    name: str
    spec: object
    linear_part: LinearPart
    delta_is_zero: bool = False
    # False where Delta has no second moment: the L2 components are skipped
    supports_delta_l2: bool = True

    @abstractmethod
    def sample_chunk(self, rng: np.random.Generator, count: int, mode=()):
        """Vectorized evaluation of `count` replicates.

        `mode` is a tuple of distinct names from VARIANT_MODES; the engine's
        `sample_pass` checks them before it draws.
        No modes -> {'t': array, 'w': array}
        Some modes -> also 'delta', 'g_rep' and 'dvar_rep', where 'g_rep'
        is a count x n_groups array (one column per exchangeable group,
        taken at the group's first index) and 'dvar_rep' maps each mode to
        such an array: Delta recomputed with that index replaced by 0
        (zero_out) or by a fresh independent draw (resample); both leave it
        independent of the replaced observation.

        The data block is drawn once per call, whatever the modes, and
        draws follow the stream consumption contract in the module
        docstring, so every row equals the row of a one-mode call on the
        same stream.
        """

    @property
    def group_sizes(self) -> tuple:
        """Sizes of the exchangeable index groups, in index order;
        representative-index shortcuts evaluate the first index of each
        group and weight by the size."""
        return tuple(cnt for _marg, cnt in self.linear_part.groups)

    def row_meta(self) -> dict:
        """The model's columns of a result row: its name, and the n, m and
        epsilon of its spec where it has them, a pair written "a;b"."""
        meta = {"model": self.name}
        for column in ("n", "m", "epsilon"):
            value = getattr(self.spec, column, None)
            meta[column] = (";".join(map(str, value))
                            if isinstance(value, (tuple, list)) else value)
        return meta

    # --- analytic hooks: the linear part answers where it knows the law of
    # W (a standardized sum); a model overrides only for a W of its own ---

    def linear_ks_exact(self):
        """Exact sup-distance between the law of W and the standard normal,
        when known in closed form (0.0 for an exactly normal W)."""
        return self.linear_part.ks_exact()

    def prob_abs_w_minus_g_above(self, group: int, t: float):
        """P(|W - g_i| > t) for an index in the given group, when analytic."""
        return self.linear_part.prob_abs_w_minus_g_above(group, t)

    def nonuniform_third_term(self, z: float) -> float:
        """sum_i P(|W - g_i| > (|z|-2)/3) P(|g_i| > 1).

        The threshold may be negative, in which case the first factor is 1.
        Models whose g_i are bounded by 1 return 0 without needing the
        distribution of W - g_i.
        """
        thr = (abs(z) - 2.0) / 3.0
        total = 0.0
        for group, (marg, size) in enumerate(self.linear_part.groups):
            p_g = marg.prob_abs_above(1.0)
            if p_g == 0.0:
                continue
            if thr < 0:
                p_w = 1.0
            else:
                p_w = self.prob_abs_w_minus_g_above(group, thr)
                if p_w is None:
                    raise UnsupportedModelError(
                        f"{self.name}: no oracle for the W - g_i tail")
            total += size * p_w * p_g
        return total
