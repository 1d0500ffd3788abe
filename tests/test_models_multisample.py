"""Two-sample rank-score model: enumeration oracles and scale conventions."""
import itertools
import math

import numpy as np
import pytest

from belab.bound_core import check_normalization
from belab.errors import UnsupportedModelError
from belab.mc_engine import CHUNK_SIZE, SeedSpec
from belab.models import (
    DIST_CATALOG,
    MultiUStatSpec,
    WilcoxonModel,
    multisample_sigma,
)
from belab.models import base
from belab.models.base import ROW_TILE, part_stream, row_counts
from belab.models import multisample
from belab.models.multisample import (
    PAIR_TILE,
    PREFIX_PAIRS,
    _lattice_pair_counts,
    _tagged_pair_counts,
)
from belab.special import ndtr
from oracles import (
    CapacityError,
    multisample_value,
    pair_counts,
    whole_draw,
)


def rank_kernel(xt, yt):
    return (1.0 if xt[0] <= yt[0] else 0.0) - 0.5


def small_model(n1=5, n2=4, dist="uniform01"):
    return WilcoxonModel(MultiUStatSpec("wilcoxon", dist, (n1, n2)))


MODES = ("zero_out", "resample")
UNIFORM = DIST_CATALOG["uniform01"]
# every uniform01 draw is a multiple of 1 / LATTICE in [0, 1)
LATTICE = 2.0 ** 53
# the tagged pair count sorts floor(u PREFIXES), a 31-bit prefix of u
PREFIXES = 2.0 ** 31


def chunk_and_draws(model, seed, count, mode):
    """A chunk and what it consumed, each part redrawn on the probability
    scale from its own stream: the x block from a second copy of the
    substream and the y block from part 1's stream, both as uniform01
    values u = F(x) under every law, then one replacement value per group
    from parts 2 and 3 (F(0) of the law in zero_out mode). The chunk must
    leave its substream where the x block alone leaves the copy."""
    rng_a, rng_b = SeedSpec(seed).substream(0), SeedSpec(seed).substream(0)
    chunk = model.sample_chunk(rng_a, count, mode=(mode,))
    x = whole_draw(UNIFORM, rng_b, (count, model.n1))
    y = whole_draw(UNIFORM, part_stream(rng_b, 1), (count, model.n2))
    if mode == "zero_out":
        v = np.full((count, 2), model.dist.cdf(0.0))
    else:
        v = np.stack([whole_draw(UNIFORM, part_stream(rng_b, part),
                                 (count, 1))[:, 0]
                      for part in (2, 3)], axis=1)
    assert rng_a.random() == rng_b.random()
    return chunk, x, y, v


def oracle_t(model, x, y):
    sn = multisample_sigma(model.spec)
    return multisample_value(rank_kernel, (x, y), (1, 1)) / sn


def oracle_w(model, x, y):
    """W from the projections 1/2 - F(x) and F(y) - 1/2, with F the
    identity on the probability scale."""
    sn = multisample_sigma(model.spec)
    return (np.sum(0.5 - x, axis=-1) / (model.n1 * sn)
            + np.sum(y - 0.5, axis=-1) / (model.n2 * sn))


def oracle_dvar(model, x, y, v):
    """Delta with the first observation of each group replaced, in turn, by
    that group's value in v."""
    out = []
    for group in range(2):
        xm, ym = x.copy(), y.copy()
        (xm if group == 0 else ym)[0] = v[group]
        out.append(oracle_t(model, xm, ym) - float(oracle_w(model, xm, ym)))
    return out


class TestScale:
    def test_sn_frozen_1000_1000(self):
        sn = multisample_sigma(MultiUStatSpec(
            "wilcoxon", "uniform01", (1000, 1000)))
        np.testing.assert_allclose(sn, math.sqrt(1.0 / 6000.0), rtol=1e-14)
        np.testing.assert_allclose(sn, 0.012909944487358056, rtol=1e-14)

    def test_sn_formula_unbalanced(self):
        sn = multisample_sigma(MultiUStatSpec(
            "wilcoxon", "uniform01", (200, 300)))
        np.testing.assert_allclose(
            sn, math.sqrt(1.0 / 2400.0 + 1.0 / 3600.0), rtol=1e-14)

    def test_normalized_linear_part(self):
        check_normalization(small_model(40, 60).linear_part)

    def test_moments_distribution_free(self):
        a = small_model(30, 50, "uniform01").bound_inputs(3.0)
        b = small_model(30, 50, "std_normal").bound_inputs(3.0)
        assert a == b
        np.testing.assert_allclose(a.sigma, 0.5, rtol=1e-14)
        assert a.m == (1, 1) and a.n == (30, 50)
        np.testing.assert_allclose(a.sn, math.sqrt(1 / 360.0 + 1 / 600.0),
                                   rtol=1e-14)
        np.testing.assert_allclose(a.e_abs_h_p[1], 1.0 / 32.0, rtol=1e-14)


class TestEnumerationOracles:
    def test_statistic_matches_enumeration(self):
        for dist in ("uniform01", "std_normal", "exponential1"):
            model = small_model(5, 4, dist)
            for mode in MODES:
                chunk, x, y, _v = chunk_and_draws(model, 71, 2, mode)
                for r in range(2):
                    np.testing.assert_allclose(
                        chunk["t"][r], oracle_t(model, x[r], y[r]),
                        rtol=1e-12, atol=1e-15)

    def test_enumeration_cap_strictness(self):
        # the cap binds the oracle only: 1001 x 1001 pairs exceed 10^6
        with pytest.raises(CapacityError):
            multisample_value(rank_kernel,
                              (np.zeros(1001), np.ones(1001)), (1, 1))

    def test_spec_validation(self):
        with pytest.raises(UnsupportedModelError):
            MultiUStatSpec("kendall", "uniform01", (10, 10))
        with pytest.raises(UnsupportedModelError):
            MultiUStatSpec("wilcoxon", "rademacher", (10, 10))
        with pytest.raises(UnsupportedModelError):
            MultiUStatSpec("wilcoxon", "uniform01", (10, 10), m=(2, 1))
        with pytest.raises(UnsupportedModelError):
            MultiUStatSpec("wilcoxon", "uniform01", (10, 1))


class TestLeaveOneOut:
    def test_zero_out_both_groups(self):
        model = small_model(6, 5, "std_normal")
        for mode in MODES:
            chunk, x, y, v = chunk_and_draws(model, 72, 3, mode)
            for r in range(3):
                np.testing.assert_allclose(
                    chunk["dvar_rep"][mode][r], oracle_dvar(model, x[r], y[r], v[r]),
                    rtol=1e-10, atol=1e-15)

    def test_resample_both_groups(self):
        # t, w and the data-side columns are the same rows in either mode
        model = small_model(6, 5, "exponential1")
        chunks = {}
        for mode in MODES:
            chunk, x, y, v = chunk_and_draws(model, 73, 3, mode)
            chunks[mode] = chunk
            for r in range(3):
                np.testing.assert_allclose(
                    chunk["dvar_rep"][mode][r], oracle_dvar(model, x[r], y[r], v[r]),
                    rtol=1e-10, atol=1e-15)
        for key in ("t", "w", "delta", "g_rep"):
            np.testing.assert_array_equal(chunks["zero_out"][key],
                                          chunks["resample"][key])

    def test_chunk_matches_direct_variant(self):
        model = small_model(7, 6, "uniform01")
        sn = multisample_sigma(model.spec)
        for mode in MODES:
            chunk, x, y, v = chunk_and_draws(model, 74, 4, mode)
            np.testing.assert_allclose(
                chunk["g_rep"],
                np.stack([(0.5 - x[:, 0]) / (7 * sn),
                          (y[:, 0] - 0.5) / (6 * sn)], axis=1),
                rtol=1e-12, atol=1e-15)
            for r in range(4):
                np.testing.assert_allclose(
                    chunk["dvar_rep"][mode][r], oracle_dvar(model, x[r], y[r], v[r]),
                    rtol=1e-10, atol=1e-15)
                np.testing.assert_allclose(chunk["t"][r] - chunk["w"][r],
                                           chunk["delta"][r], atol=1e-15)


def tile_edge_rows(count):
    """Every row of a chunk up to two row tiles long; the first and last row
    of each row tile of a longer one."""
    if count <= 2 * ROW_TILE:
        return range(count)
    return sorted({r for start in range(0, count, ROW_TILE)
                   for r in (start, min(start + ROW_TILE, count) - 1)})


class TestRowTiles:
    """Chunk sizes on both sides of a row tile's edge: the tiled projections
    and pair counts give the oracles' rows in both modes."""

    @pytest.mark.usefixtures("fixed_row_tiles")
    @pytest.mark.parametrize("count", [1, ROW_TILE - 1, ROW_TILE,
                                       ROW_TILE + 1, CHUNK_SIZE])
    def test_rows_match_oracles(self, count):
        model = small_model(5, 4, "exponential1")
        sn = multisample_sigma(model.spec)
        for mode in MODES:
            chunk, x, y, v = chunk_and_draws(model, 77, count, mode)
            np.testing.assert_allclose(chunk["w"], oracle_w(model, x, y),
                                       rtol=1e-10, atol=1e-14)
            np.testing.assert_allclose(
                chunk["g_rep"],
                np.stack([(0.5 - x[:, 0]) / (5 * sn),
                          (y[:, 0] - 0.5) / (4 * sn)], axis=1),
                rtol=1e-12, atol=1e-15)
            for r in tile_edge_rows(count):
                np.testing.assert_allclose(
                    chunk["t"][r], oracle_t(model, x[r], y[r]),
                    rtol=1e-12, atol=1e-15)
                np.testing.assert_allclose(
                    chunk["dvar_rep"][mode][r],
                    oracle_dvar(model, x[r], y[r], v[r]),
                    rtol=1e-10, atol=1e-15)


class TestDistributionalOracles:
    def test_t_variance_exact_ratio(self):
        # Var(T) = (n1 + n2 + 1) / (n1 + n2) exactly for the rank kernel
        rng = np.random.default_rng(75)
        model = small_model(50, 50, "uniform01")
        chunk = model.sample_chunk(rng, 60000)
        np.testing.assert_allclose(chunk["t"].var(ddof=1), 101.0 / 100.0,
                                   atol=0.03)
        np.testing.assert_allclose(chunk["w"].var(ddof=1), 1.0, atol=0.03)
        np.testing.assert_allclose(chunk["t"].mean(), 0.0, atol=0.02)

    def test_linear_terms_centered(self):
        model = small_model(20, 30, "std_normal")
        for mode in MODES:
            chunk, x, y, _v = chunk_and_draws(model, 76, 4000, mode)
            np.testing.assert_allclose(chunk["w"], oracle_w(model, x, y),
                                       rtol=1e-10, atol=1e-14)
            se = chunk["w"].std(ddof=1) / math.sqrt(chunk["w"].size)
            np.testing.assert_allclose(chunk["w"].mean(), 0.0, atol=4 * se)


def x_scale_cdf(dist, a):
    """F(a) on the x scale, as the rank model computed it when it drew on
    that scale, rounded down to a multiple of 2^-53: the pair count takes
    its draws on that lattice, as `Generator.random` gives them."""
    a = np.asarray(a, dtype=float)
    if dist == "std_normal":
        u = ndtr(a)
    elif dist == "exponential1":
        u = -np.expm1(-np.maximum(a, 0.0))
    else:
        raise ValueError(dist)
    return np.floor(u * LATTICE) / LATTICE


def x_scale_chunk(model, x, y, v):
    """The fused chunk of x-scale blocks x and y and resample values v
    (count x 2), computed on the x scale: projections through
    `x_scale_cdf`, zero_out putting 0.0, and pair counts from one
    searchsorted per sorted row."""
    n1, n2, sn = model.n1, model.n2, model.sn

    def cdf(a):
        return x_scale_cdf(model.spec.dist, a)

    g1 = (0.5 - cdf(x)) / (n1 * sn)
    g2 = (cdf(y) - 0.5) / (n2 * sn)
    w = g1.sum(axis=1) + g2.sum(axis=1)
    pair = pair_counts(np.sort(x, axis=1), np.sort(y, axis=1))
    t = (pair / (n1 * n2) - 0.5) / sn
    g_rep = np.stack([g1[:, 0], g2[:, 0]], axis=1)
    before1 = row_counts(np.less, y, x[:, 0])
    before2 = row_counts(np.less_equal, x, y[:, 0])
    dvar = {}
    for m, (v1, v2) in (("zero_out", np.zeros((2, len(x)))),
                        ("resample", (v[:, 0].copy(), v[:, 1].copy()))):
        t1 = ((pair + before1 - row_counts(np.less, y, v1)) / (n1 * n2)
              - 0.5) / sn
        w1 = w - g_rep[:, 0] + (0.5 - cdf(v1)) / (n1 * sn)
        t2 = ((pair + row_counts(np.less_equal, x, v2) - before2)
              / (n1 * n2) - 0.5) / sn
        w2 = w - g_rep[:, 1] + (cdf(v2) - 0.5) / (n2 * sn)
        dvar[m] = np.stack([t1 - w1, t2 - w2], axis=1)
    return {"t": t, "w": w, "delta": t - w, "g_rep": g_rep, "dvar_rep": dvar}


class Fed:
    """Stands in for the Generator of one chunk part: a flat stream of the
    given array's values, whose state is its position; each
    random(out=...) fills `out` with the next out.size values."""

    def __init__(self, array):
        self.values = np.ravel(array)
        self.state = 0

    def random(self, out):
        stop = self.state + out.size
        out[...] = self.values[self.state:stop].reshape(out.shape)
        self.state = stop
        return out


RANK_SIZES = [((1000, 1000), 2 * ROW_TILE + 1), ((57, 13), CHUNK_SIZE)]


class TestProbabilityScale:
    """A chunk draws u = F(x) as uniform01 values under every law."""

    @pytest.mark.parametrize("n,count", RANK_SIZES)
    @pytest.mark.parametrize("dist", ["std_normal", "exponential1"])
    def test_same_draws_as_x_scale(self, dist, n, count, monkeypatch):
        """Fed x-scale draws mapped through F, one array per part, a chunk
        gives the x-scale rows bit for bit. t reads nothing but each row's
        pair count, and dvar_rep adds the leave-one-out counts, so their
        equal bits mean equal counts."""
        model = small_model(*n, dist)
        rng = np.random.default_rng(80)
        x = whole_draw(model.dist, rng, (count, model.n1))
        y = whole_draw(model.dist, rng, (count, model.n2))
        v = whole_draw(model.dist, rng, (count, 2))
        fed = [Fed(x_scale_cdf(dist, a)) for a in (x, y, v[:, 0], v[:, 1])]
        monkeypatch.setattr(base, "part_stream", lambda _rng, part: fed[part])
        got = model.sample_chunk(fed[0], count, mode=MODES)
        ref = x_scale_chunk(model, x, y, v)
        assert all(part.state == part.values.size for part in fed)
        for key in ("t", "w", "delta", "g_rep"):
            np.testing.assert_array_equal(got[key], ref[key])
        for m in MODES:
            np.testing.assert_array_equal(got["dvar_rep"][m],
                                          ref["dvar_rep"][m])

    @pytest.mark.parametrize("n,count", RANK_SIZES)
    @pytest.mark.parametrize("dist", ["std_normal", "exponential1"])
    def test_rows_equal_uniform01_rows(self, dist, n, count):
        """t, w, delta, g_rep and the resample remainders equal those of
        the uniform01 chunk of the same stream byte for byte, and so does
        the end of the stream. The zero_out remainders do where F(0) = 0,
        as under exponential1, but not under std_normal, whose replacement
        is F(0) = 0.5."""
        chunks, ends = [], []
        for law in ("uniform01", dist):
            rng = SeedSpec(81).substream(0)
            chunks.append(small_model(*n, law).sample_chunk(rng, count,
                                                            mode=MODES))
            ends.append(rng.random())
        ref, got = chunks
        assert ends[0] == ends[1]
        for key in ("t", "w", "delta", "g_rep"):
            assert got[key].tobytes() == ref[key].tobytes()
        dvar, dvar_ref = got["dvar_rep"], ref["dvar_rep"]
        assert dvar["resample"].tobytes() == dvar_ref["resample"].tobytes()
        assert ((dvar["zero_out"].tobytes() == dvar_ref["zero_out"].tobytes())
                == (dist == "exponential1"))


def assert_counts_exact(x, y):
    """The tagged count and its exact recount each equal `pair_counts` of
    row-sorted copies."""
    x_before, y_before = x.copy(), y.copy()
    want = pair_counts(np.sort(x, axis=1), np.sort(y, axis=1))
    work = np.empty(2 * min(PAIR_TILE, len(x)) * (x.shape[1] + y.shape[1]))
    for count in (_tagged_pair_counts, _lattice_pair_counts):
        assert (count(x, y, work) == want).all(), count.__name__
        # the blocks are read, never sorted or tagged in place
        assert (x.view(np.int64) == x_before.view(np.int64)).all()
        assert (y.view(np.int64) == y_before.view(np.int64)).all()


def shared_prefix_rows(x, y):
    """Indices of the rows where some x and some y have one floor(u 2^31),
    from one set intersection of (row, prefix) keys."""
    def keyed(block):
        rows = np.arange(len(block))[:, None]
        return (rows * PREFIXES + np.floor(block * PREFIXES)).ravel()
    return np.unique(np.intersect1d(keyed(x), keyed(y)) // PREFIXES
                     ).astype(np.intp)


@pytest.fixture
def recounts(monkeypatch):
    """The (x, y) blocks that `_tagged_pair_counts` hands to its exact
    recount, one entry per call."""
    calls = []

    def spy(x, y, work):
        calls.append((x.copy(), y.copy()))
        return _lattice_pair_counts(x, y, work)

    monkeypatch.setattr(multisample, "_lattice_pair_counts", spy)
    return calls


def assert_recounted(calls, x, y, rows):
    """`calls` holds one recount of exactly `rows` of x and y, or none
    when `rows` is empty."""
    assert len(calls) == (1 if len(rows) else 0)
    for got_x, got_y in calls:
        assert (got_x.view(np.int64) == x[rows].view(np.int64)).all()
        assert (got_y.view(np.int64) == y[rows].view(np.int64)).all()


class TestTaggedPairCounts:
    """The pooled, sample-tagged count equals `pair_counts` with ==, on
    lattice rows that tie across the samples (0.0 included), on lattice
    neighbours, on x and y inside one 31-bit prefix and across its edges,
    and on every tile edge; exactly the rows where an x and a y share a
    prefix are recounted, and past PREFIX_PAIRS the whole block."""

    STEP = 1.0 / LATTICE
    EDGE_VALUES = (0.0, STEP, 0.5 - STEP, 0.5, 0.5 + STEP, 1.0 - 2 * STEP,
                   1.0 - STEP)

    @pytest.mark.parametrize("n1", [1, 2, 3])
    @pytest.mark.parametrize("n2", [1, 2])
    def test_every_edge_row(self, n1, n2):
        # the product lists the x values of a row in every order
        xs = list(itertools.product(self.EDGE_VALUES, repeat=n1))
        ys = list(itertools.product(self.EDGE_VALUES, repeat=n2))
        x = np.array([row for row in xs for _ in ys])
        y = np.array([row for _ in xs for row in ys])
        assert_counts_exact(x, y)

    def test_tied_lattice_rows(self):
        rng = np.random.default_rng(78)
        x = rng.integers(0, 5, (500, 9)) / 8.0
        y = rng.integers(0, 5, (500, 6)) / 8.0
        assert (x == 0.0).any() and (y == 0.0).any()
        assert_counts_exact(x, y)

    @pytest.mark.parametrize("base", [STEP, 0.5, 1.0 - 2 * STEP])
    def test_adjacent_lattice_values(self, base):
        near = base + np.array([-1.0, 0.0, 1.0]) * self.STEP
        rng = np.random.default_rng(79)
        x = rng.choice(near, (400, 7))
        y = rng.choice(near, (400, 5))
        assert_counts_exact(x, y)

    @pytest.mark.parametrize("m", [0, 1, 2 ** 30 + 3, 2 ** 31 - 1])
    def test_shared_prefix_pairs(self, m, recounts):
        """The prefix m 2^-31 holds m 2^-31 + k 2^-53 for k in [0, 2^22);
        its first, second and last values pair as x < y, x == y and x > y
        in every order, beside the last value of the prefix below and the
        first of the one above."""
        start = m / PREFIXES
        values = [start + k * self.STEP for k in (0, 1, 2 ** 22 - 1)]
        values += [v for v in (start - self.STEP, start + 1.0 / PREFIXES)
                   if 0.0 <= v < 1.0]
        pairs = list(itertools.product(values, repeat=2))
        x = np.array([row for row in pairs for _ in pairs])
        y = np.array([row for _ in pairs for row in pairs])
        assert_counts_exact(x, y)
        rows = shared_prefix_rows(x, y)
        assert 0 < len(rows) < len(x)
        assert_recounted(recounts, x, y, rows)

    def test_rows_in_one_prefix(self, recounts):
        rng = np.random.default_rng(85)
        start = rng.integers(0, 2 ** 31, (300, 1)) / PREFIXES
        x = start + rng.integers(0, 2 ** 22, (300, 40)) * self.STEP
        y = start + rng.integers(0, 2 ** 22, (300, 30)) * self.STEP
        assert_counts_exact(x, y)
        assert_recounted(recounts, x, y, np.arange(300))

    @pytest.mark.parametrize("whole", [False, True])
    def test_size_rule(self, whole, recounts):
        """At PREFIX_PAIRS pairs only the rows with a shared prefix are
        recounted; past it the whole block is."""
        n2 = 2 ** 15
        n1 = PREFIX_PAIRS // n2 + whole
        assert (n1 * n2 > PREFIX_PAIRS) == whole
        rng = np.random.default_rng(86)
        x, y = rng.random((3, n1)), rng.random((3, n2))
        y[0, 5] = x[0, 7]
        assert_counts_exact(x, y)
        rows = np.arange(3) if whole else shared_prefix_rows(x, y)
        assert 0 in rows
        assert_recounted(recounts, x, y, rows)

    def test_recounts_seeded_rows(self, recounts):
        """On draws at 1000;1000, exactly the rows that an independent set
        intersection finds a shared prefix in reach the exact routine."""
        rng = SeedSpec(84).substream(0)
        found = 0
        for _ in range(4):
            x = whole_draw(UNIFORM, rng, (CHUNK_SIZE // 2, 1000))
            y = whole_draw(UNIFORM, rng, (CHUNK_SIZE // 2, 1000))
            x_before, y_before = x.copy(), y.copy()
            work = np.empty(2 * PAIR_TILE * 2000)
            got = _tagged_pair_counts(x, y, work)
            assert (got == pair_counts(np.sort(x, axis=1),
                                       np.sort(y, axis=1))).all()
            assert (x.view(np.int64) == x_before.view(np.int64)).all()
            assert (y.view(np.int64) == y_before.view(np.int64)).all()
            rows = shared_prefix_rows(x, y)
            assert_recounted(recounts, x, y, rows)
            found += len(rows)
            recounts.clear()
        assert found >= 2

    @pytest.mark.parametrize("count", [1, PAIR_TILE - 1, PAIR_TILE,
                                       PAIR_TILE + 1, CHUNK_SIZE])
    @pytest.mark.parametrize("n1,n2", [(1000, 1000), (57, 13), (5, 4)])
    def test_tile_edges(self, count, n1, n2):
        rng = np.random.default_rng(count)
        assert_counts_exact(rng.random((count, n1)), rng.random((count, n2)))


class TestLatticePrecondition:
    """`_lattice_pair_counts`, the exact recount of `_tagged_pair_counts`,
    counts exactly only on multiples of 2^-53 in [0, 1); the 32-bit prefix
    keys need values in [0, 1) alone. These tests fail if numpy's
    `Generator.random` stops giving such values on any bit generator."""

    @pytest.mark.parametrize("make", [
        lambda: SeedSpec(83).substream(0),
        lambda: part_stream(SeedSpec(83).substream(0), 1),
        lambda: np.random.Generator(np.random.Philox(83)),
        lambda: np.random.Generator(np.random.PCG64(83)),
        lambda: np.random.Generator(np.random.PCG64DXSM(83)),
        lambda: np.random.Generator(np.random.MT19937(83)),
        lambda: np.random.Generator(np.random.SFC64(83)),
    ], ids=["substream", "part-stream", "Philox", "PCG64", "PCG64DXSM",
            "MT19937", "SFC64"])
    def test_uniform01_draws_lie_on_the_lattice(self, make):
        v = whole_draw(UNIFORM, make(), (257, 1000))
        assert ((0.0 <= v) & (v < 1.0)).all(), "uniform01 left [0, 1)"
        scaled = v * LATTICE
        assert (scaled == np.floor(scaled)).all(), \
            "uniform01 draws are no longer multiples of 2^-53"

    @pytest.mark.parametrize("x,y", [(0.0, 1.0 - 1.0 / LATTICE),
                                     (1.0 - 1.0 / LATTICE, 0.0)])
    def test_extreme_keys_are_normal_doubles(self, x, y):
        # the sorted key row is left in the first two values of `work`
        work = np.empty(4)
        _lattice_pair_counts(np.array([[x]]), np.array([[y]]), work)
        keys = work[:2]
        assert np.isfinite(keys).all()
        assert (keys >= np.finfo(float).tiny).all()
        assert sorted(keys.view(np.int64)) == sorted(
            [int(x * 2 ** 54) + 2 ** 52, int(y * 2 ** 54) + 2 ** 52 + 1])
