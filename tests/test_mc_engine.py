"""Seeded chunked sampling engine: determinism, aggregation, distances."""
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from belab import cli, mc_engine
from belab.bound_core import (
    compute_beta,
    nonuniform_tau,
    solve_delta_minimal,
)
from belab.errors import ConfigError, DomainError, NumericError
from belab.mc_engine import (
    CHUNK_SIZE,
    DISTANCE_BLOCK,
    DKW_ALPHA,
    SeedSpec,
    _mean_se,
    _row_moments,
    certify,
    chunk_layout,
    collect_t_w,
    components_via_engine,
    dkw_radius,
    empirical_ks_two_sample,
    empirical_ks_vs_normal,
    pointwise_diff_two_sample,
    pointwise_diff_vs_normal,
    sample_pass,
)
from belab.models import (
    Example41Spec,
    IsqrtModel,
    LinearModel,
    LinearSpec,
    UStatModel,
    UStatSpec,
    build_model,
)
from belab.models.base import (
    DIST_CATALOG,
    ROW_TILE,
    VARIANT_MODES,
    ChunkTiles,
    part_stream,
    projection_sums,
    row_counts,
    sorted_counts,
    tile_rows,
)
from belab.special import ndtr, ndtr_array
from belab.types import (
    BoundComponents,
    BoundValue,
    KSResult,
    MomentEstimate,
)
from oracles import whole_draw

MiB = 2 ** 20
# chunk sizes on both sides of a row tile's edge
TILE_COUNTS = [1, ROW_TILE - 1, ROW_TILE, ROW_TILE + 1, CHUNK_SIZE]
# (width, count) with counts on both sides of that width's tile edge
WIDTH_TILE_COUNTS = [(width, count) for width in (1, 50, 400, 1000)
                     for count in sorted({1, tile_rows(width) - 1,
                                          tile_rows(width) + 1, CHUNK_SIZE})]


def traced_peak(fn):
    """Peak traced bytes of one call of fn."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def ustat_model(n=12):
    return UStatModel(UStatSpec("variance", "std_normal", n))


class TestChunkLayout:
    def test_partition(self):
        layout = chunk_layout(10000)
        assert layout == [(0, 0, 4096), (1, 4096, 4096), (2, 8192, 1808)]

    def test_small_and_exact(self):
        assert chunk_layout(1) == [(0, 0, 1)]
        assert chunk_layout(CHUNK_SIZE) == [(0, 0, CHUNK_SIZE)]

    def test_contiguous_cover(self):
        for r in (5, 4097, 12288):
            layout = chunk_layout(r)
            assert layout[0][1] == 0
            assert sum(c for _, _, c in layout) == r
            for (_, s0, c0), (_, s1, _) in zip(layout, layout[1:]):
                assert s1 == s0 + c0


class TestSeedSpec:
    @pytest.mark.parametrize("master", [0, 42, 2 ** 63 - 1])
    @pytest.mark.parametrize("index", [0, 1, 7, 300])
    def test_substream_is_spawned_child(self, master, index):
        """Substream c is SFC64 on child c of SeedSequence(master)."""
        child = np.random.SeedSequence(master).spawn(index + 1)[index]
        want = np.random.SFC64(child).state
        np.testing.assert_equal(
            SeedSpec(master).substream(index).bit_generator.state, want)

    @pytest.mark.parametrize("master", [-1, 2 ** 63])
    def test_master_seed_outside_63_bits_rejected(self, master):
        with pytest.raises(ConfigError):
            SeedSpec(master)

    def test_substream_reproducible(self):
        a = SeedSpec(42).substream(3).standard_normal(8)
        b = SeedSpec(42).substream(3).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_substreams_distinct(self):
        a = SeedSpec(42).substream(0).standard_normal(8)
        b = SeedSpec(42).substream(1).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_master_seeds_distinct(self):
        a = SeedSpec(1).substream(0).standard_normal(8)
        b = SeedSpec(2).substream(0).standard_normal(8)
        assert not np.array_equal(a, b)


def assert_moment_equal(a, b):
    assert a.value == b.value
    assert a.std_error == b.std_error
    assert a.replicates == b.replicates


def assert_components_equal(a, b):
    assert_moment_equal(a.e_abs_w_delta, b.e_abs_w_delta)
    assert_moment_equal(a.sum_g_delta_diff, b.sum_g_delta_diff)
    assert_moment_equal(a.delta_abs, b.delta_abs)
    assert (a.delta_l2 is None) == (b.delta_l2 is None)
    if a.delta_l2 is not None:
        assert_moment_equal(a.delta_l2, b.delta_l2)
        assert_moment_equal(a.sum_g_l2_delta_l2, b.sum_g_l2_delta_l2)
    assert sorted(a.delta_tails) == sorted(b.delta_tails)
    for k in a.delta_tails:
        assert_moment_equal(a.delta_tails[k], b.delta_tails[k])


class TestPathEquivalence:
    def test_threads_do_not_change_results(self):
        model = ustat_model()
        seed = SeedSpec(11)
        one = components_via_engine(model, 9000, seed, threads=1)
        four = components_via_engine(model, 9000, seed, threads=4)
        assert_components_equal(one, four)

    def test_collect_t_w_thread_invariant(self):
        model = ustat_model()
        seed = SeedSpec(13)
        t1, w1 = collect_t_w(model, 9000, seed, threads=1)
        t4, w4 = collect_t_w(model, 9000, seed, threads=4)
        np.testing.assert_array_equal(t1, t4)
        np.testing.assert_array_equal(w1, w4)

    def test_no_l2_path(self):
        model = IsqrtModel(Example41Spec(0.01, 50))
        est = components_via_engine(model, 2000, SeedSpec(19),
                                    mode="resample")
        assert est.delta_l2 is None
        assert est.sum_g_l2_delta_l2 is None

    def test_tau_needs_the_l2_moments(self):
        # Delta of the isqrt model has no second moment: no tau, rather
        # than a tau with ||Delta||_2 taken as 0
        model = IsqrtModel(Example41Spec(0.05, 100))
        est = components_via_engine(model, 2000, SeedSpec(19),
                                    mode="resample")
        with pytest.raises(DomainError, match="second moment"):
            nonuniform_tau(est.as_bound_components(MomentEstimate(0.1), 0.05))


CHUNK_MODELS = {
    "linear": {"family": "linear", "dist": "exponential1", "n": 7},
    "ustat": {"family": "ustat", "kernel": "variance", "dist": "std_normal",
              "n": 12},
    "multisample": {"family": "multisample", "dist": "exponential1",
                    "n": "5;4"},
    "lstat": {"family": "lstat", "weight": "identity", "dist": "uniform01",
              "n": 8},
    "isqrt": {"family": "isqrt", "epsilon": 0.01, "n": 50},
}


class TestChunkBoundaries:
    """Replicate counts that fill no chunk exactly, on one thread and on
    more threads than chunks: the engine sees exactly the rows that
    sample_chunk gives on each SeedSpec substream, in chunk order."""

    SEED = SeedSpec(31)

    @pytest.mark.parametrize("replicates", [1, 4095, 4097, 8193])
    @pytest.mark.parametrize("family", sorted(CHUNK_MODELS))
    def test_engine_sees_concatenated_chunk_rows(self, family, replicates):
        model = build_model(CHUNK_MODELS[family])
        layout = chunk_layout(replicates)
        many = len(layout) + 1
        t, w = collect_t_w(model, replicates, self.SEED, threads=1)
        t_par, w_par = collect_t_w(model, replicates, self.SEED, threads=many)
        np.testing.assert_array_equal(t, t_par)
        np.testing.assert_array_equal(w, w_par)
        sizes = np.array(model.group_sizes, dtype=float)
        for mode in ("zero_out", "resample"):
            chunks = [model.sample_chunk(self.SEED.substream(c), count,
                                         mode=(mode,))
                      for c, _start, count in layout]
            rows = {key: np.concatenate([ch[key] for ch in chunks])
                    for key in ("t", "w", "delta", "g_rep")}
            rows["dvar_rep"] = np.concatenate([ch["dvar_rep"][mode]
                                               for ch in chunks])
            np.testing.assert_array_equal(rows["t"], t)
            np.testing.assert_array_equal(rows["w"], w)
            assert rows["dvar_rep"].shape == (replicates, sizes.size)
            one = components_via_engine(model, replicates, self.SEED,
                                        mode=mode, threads=1)
            par = components_via_engine(model, replicates, self.SEED,
                                        mode=mode, threads=many)
            assert_components_equal(one, par)
            if model.delta_is_zero:
                continue
            np.testing.assert_allclose(one.delta_abs.value,
                                       np.abs(rows["delta"]).mean(),
                                       rtol=1e-12)
            diff = rows["delta"][:, None] - rows["dvar_rep"]
            gdd = (np.abs(rows["g_rep"] * diff) * sizes).sum(axis=1)
            np.testing.assert_allclose(one.sum_g_delta_diff.value,
                                       gdd.mean(), rtol=1e-12)


class TestModeNames:
    """The engine checks the variant mode names before it draws."""

    @pytest.mark.parametrize("family", sorted(CHUNK_MODELS))
    def test_unknown_mode_raises_before_a_draw(self, monkeypatch, family):
        model = build_model(CHUNK_MODELS[family])
        cls = type(model)
        orig = cls.sample_chunk
        calls = []

        def counting(model, rng, count, mode=()):
            calls.append(mode)
            return orig(model, rng, count, mode=mode)

        monkeypatch.setattr(cls, "sample_chunk", counting)
        with pytest.raises(ValueError,
                           match="unknown variant mode 'zero-out'"):
            sample_pass(model, 5000, SeedSpec(3),
                        modes=("resample", "zero-out"), threads=2)
        with pytest.raises(ValueError, match="unknown variant mode 'both'"):
            components_via_engine(model, 5000, SeedSpec(3), mode="both")
        assert calls == []


class TestSinglePass:
    """One sample_chunk call per chunk serves T, W and every variant mode."""

    SEED = SeedSpec(37)

    @pytest.mark.parametrize("family", sorted(CHUNK_MODELS))
    def test_tuple_modes_equal_single_mode_calls(self, family):
        model = build_model(CHUNK_MODELS[family])
        both = ("zero_out", "resample")
        rng = self.SEED.substream(3)
        fused = model.sample_chunk(rng, 777, mode=both)
        plain = model.sample_chunk(self.SEED.substream(3), 777)
        for key in ("t", "w"):
            np.testing.assert_array_equal(fused[key], plain[key])
        assert set(fused["dvar_rep"]) == set(both)
        for mode in both:
            single_rng = self.SEED.substream(3)
            single = model.sample_chunk(single_rng, 777, mode=(mode,))
            for key in ("t", "w", "delta", "g_rep"):
                np.testing.assert_array_equal(fused[key], single[key])
            np.testing.assert_array_equal(fused["dvar_rep"][mode],
                                          single["dvar_rep"][mode])
        # the fused call consumed exactly what the resample call did
        assert rng.random() == single_rng.random()

    @pytest.mark.parametrize("replicates", [1, 4097])
    @pytest.mark.parametrize("family", sorted(CHUNK_MODELS))
    def test_two_modes_equal_one_mode_passes(self, family, replicates):
        """The rows that no mode changes are stacked once beside each
        mode's own; every mode still gets the record of a pass with it
        alone, bit for bit."""
        model = build_model(CHUNK_MODELS[family])
        both = ("zero_out", "resample")
        thresholds = (0.05, 0.4, 1.0)
        _t, _w, fused = sample_pass(model, replicates, self.SEED, both,
                                    delta_thresholds=thresholds)
        for mode in both:
            _t, _w, single = sample_pass(model, replicates, self.SEED,
                                         (mode,), delta_thresholds=thresholds)
            assert fused[mode] == single[mode]

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("replicates", [1, 4097, 9000])
    @pytest.mark.parametrize("family", sorted(CHUNK_MODELS))
    def test_verify_calls_sample_chunk_once_per_chunk(
            self, monkeypatch, family, replicates, threads):
        desc = CHUNK_MODELS[family]
        bounds = (["eq2.3"] if family == "isqrt"
                  else ["eq1.4", "eq2.3", "eq2.6"])
        cfg = cli.parse_config(json.dumps({
            "model": desc, "bounds": bounds, "z_grid": [0.5],
            "mc": {"master_seed": 5, "replicates": replicates,
                   "threads": threads}}))
        runner = cli._Runner(cfg, verify=True)
        cls = type(runner.model)
        orig = cls.sample_chunk
        calls = []

        def counting(model, rng, count, mode=()):
            calls.append((count, mode))
            return orig(model, rng, count, mode=mode)

        monkeypatch.setattr(cls, "sample_chunk", counting)
        rows = runner.run()
        assert len(rows) == len(bounds) and all(r.empirical is not None
                                                for r in rows)
        layout = chunk_layout(replicates)
        assert sorted(c for c, _m in calls) == sorted(c for _i, _s, c in layout)
        modes = (() if runner.model.delta_is_zero
                 else ("zero_out",) if family == "isqrt"
                 else ("zero_out", "resample"))
        assert {m for _c, m in calls} == {modes}

    def test_verify_run_sorts_t_and_w_once(self):
        cfg = cli.parse_config(json.dumps({
            "model": {"family": "ustat", "kernel": "variance",
                      "dist": "std_normal", "n": 12},
            "bounds": ["eq2.3"], "z_grid": [0.5],
            "mc": {"master_seed": 5, "replicates": 9000}}))
        t, w, _comps = cli._Runner(cfg, verify=True).sampled
        want_t, want_w = collect_t_w(ustat_model(), 9000, SeedSpec(5))
        np.testing.assert_array_equal(t, np.sort(want_t))
        np.testing.assert_array_equal(w, np.sort(want_w))

    def test_fused_rank_chunk_peak(self):
        model = build_model({"family": "multisample", "dist": "uniform01",
                             "n": "1000;1000"})

        def peak(mode):
            tracemalloc.start()
            try:
                model.sample_chunk(self.SEED.substream(0), CHUNK_SIZE,
                                   mode=mode)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        single = peak(("resample",))
        assert peak(("zero_out", "resample")) <= single + 2 ** 20

    @pytest.mark.parametrize("desc,width", [
        # x, y and one projection block
        ({"family": "multisample", "dist": "uniform01", "n": "1000;1000"},
         1000),
        # x, one projection block and one temporary of the influence
        ({"family": "lstat", "weight": "identity", "dist": "uniform01",
          "n": 400}, 400),
    ])
    def test_fused_chunk_peak_in_data_blocks(self, desc, width):
        model = build_model(desc)
        tracemalloc.start()
        try:
            model.sample_chunk(self.SEED.substream(0), CHUNK_SIZE,
                               mode=("zero_out", "resample"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * CHUNK_SIZE * width * 8 + 2 ** 20

    @pytest.mark.parametrize("desc,blocks,width", [
        *[({"family": "multisample", "dist": dist, "n": "1000;1000"}, 2, 1000)
          for dist in ("uniform01", "exponential1")],
        *[({"family": "lstat", "weight": "identity", "dist": dist, "n": 400},
           1, 400) for dist in ("uniform01", "std_normal", "exponential1")],
        *[({"family": "linear", "dist": dist, "n": 400}, 1, 400)
          for dist in ("uniform01", "rademacher")],
        *[({"family": "ustat", "kernel": kernel, "dist": "std_normal",
            "n": 400}, 1, 400) for kernel in ("sum", "variance")],
        # narrow blocks: 1024-row tiles
        *[({"family": "ustat", "kernel": kernel, "dist": "std_normal",
            "n": 50}, 1, 50) for kernel in ("sum", "variance")],
        ({"family": "linear", "dist": "rademacher", "n": 50}, 1, 50),
        # the other laws of linear and ustat
        *[({"family": "linear", "dist": dist, "n": 400}, 1, 400)
          for dist in ("std_normal", "exponential1")],
        *[({"family": "ustat", "kernel": "sum", "dist": dist, "n": 400},
           1, 400) for dist in ("uniform01", "rademacher", "exponential1")],
        *[({"family": "ustat", "kernel": "variance", "dist": dist, "n": 400},
           1, 400) for dist in ("uniform01", "exponential1")],
        ({"family": "multisample", "dist": "std_normal", "n": "1000;1000"},
         2, 1000),
    ])
    def test_tiled_chunk_peak_in_data_blocks(self, desc, blocks, width):
        """A fused chunk holds at most its `blocks` data blocks, `width`
        wide; since every family streams under every law, it in fact holds
        row tiles and count-length arrays: 8 MiB for rank at 1000;1000,
        2 MiB for the others but one."""
        model = build_model(desc)
        peak = traced_peak(lambda: model.sample_chunk(
            self.SEED.substream(0), CHUNK_SIZE, mode=("zero_out", "resample")))
        assert peak <= blocks * CHUNK_SIZE * width * 8 + 2 * MiB
        limit = 8 if desc["family"] == "multisample" else 2
        if desc["family"] == "lstat" and desc["dist"] == "std_normal":
            # the std_normal influence calls ndtr_array on a 128 x 400
            # tile, which holds three tile-sized temporaries besides its
            # result
            limit = 3
        assert peak <= limit * MiB

    def test_lstat_resample_chunk_peak_at_n2000(self):
        """A std_normal L-statistic chunk with resample draws its fresh run
        from its own part stream beside the data block, so it holds a few
        128 x 2000 tiles, not its 62.5 MiB data block."""
        model = build_model({"family": "lstat", "weight": "identity",
                             "dist": "std_normal", "n": 2000})
        peak = traced_peak(lambda: model.sample_chunk(
            self.SEED.substream(0), CHUNK_SIZE, mode=("zero_out", "resample")))
        assert peak <= 12 * MiB


class TestChunkTiles:
    """Tiles drawn a row tile at a time give exactly the values of one
    whole draw of each part from its own stream, and leave rng where a
    whole draw of part 0 leaves it."""

    # (widths, k): one block alone, and blocks with the replacement values
    # of the last k variant modes
    WIDTHS_MODES = [((400,), 0), ((1000, 1000), 2), ((57, 13), 1),
                    ((400,), 1)]
    # the engine's substream, and every other numpy bit generator
    BITGENS = {
        "substream": lambda: SeedSpec(41).substream(3),
        **{name: (lambda name=name: np.random.Generator(
            getattr(np.random, name)(41)))
           for name in ("PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64")},
    }

    @staticmethod
    def spawned_part(make, part):
        """Part `part` of a chunk drawn from make(): the same bit
        generator on the SeedSequence child `part` of make()'s."""
        rng = make()
        child = rng.bit_generator.seed_seq.spawn(part + 1)[part]
        return np.random.Generator(type(rng.bit_generator)(child))

    @pytest.mark.parametrize("index", [0, 5])
    @pytest.mark.parametrize("part", [1, 2, 3])
    def test_part_stream_is_spawned_grandchild(self, index, part):
        """Part b of chunk c is SFC64 on child b of child c of
        SeedSequence(master); building it leaves rng alone."""
        rng = SeedSpec(42).substream(index)
        rng.random(3)
        before = rng.bit_generator.state
        child = np.random.SeedSequence(42).spawn(index + 1)[index]
        want = np.random.SFC64(child.spawn(part + 1)[part]).state
        np.testing.assert_equal(part_stream(rng, part).bit_generator.state,
                                want)
        np.testing.assert_equal(rng.bit_generator.state, before)
        assert rng.bit_generator.seed_seq.n_children_spawned == 0

    @pytest.mark.parametrize("bitgen", sorted(BITGENS))
    @pytest.mark.parametrize("dist", sorted(DIST_CATALOG))
    @pytest.mark.parametrize("widths,k", WIDTHS_MODES)
    @pytest.mark.parametrize("count", [1, 2, 129, 1025, 4096])
    def test_tiles_equal_whole_draws(self, bitgen, dist, widths, k, count):
        """Each block's tiles, and each block's fresh run as far as it is
        drawn when a tile is yielded, equal one whole draw of its part."""
        law, make = DIST_CATALOG[dist], self.BITGENS[bitgen]
        rng, ref = make(), make()
        for gen in (rng, ref):  # leaves half of a 64-bit output pending
            gen.integers(2 ** 32, dtype=np.uint32)
        modes = VARIANT_MODES[len(VARIANT_MODES) - k:]
        tiles = ChunkTiles(law, rng, count, widths, modes, zero=0.25)
        assert sorted(tiles.values) == sorted(modes)
        got = [[] for _ in widths]
        fresh = []
        for rows, blocks in tiles:
            for part, tile in zip(got, blocks):
                assert len(tile) == rows.stop - rows.start
                part.append(tile.copy())
            if "resample" in modes:
                fresh.append(tiles.values["resample"][:, rows].copy())
        for b, (part, width) in enumerate(zip(got, widths)):
            stream = ref if b == 0 else self.spawned_part(make, b)
            np.testing.assert_array_equal(np.concatenate(part),
                                          whole_draw(law, stream,
                                                     (count, width)))
        if "resample" in modes:
            runs = [whole_draw(law, self.spawned_part(make, len(widths) + g),
                               count)
                    for g in range(len(widths))]
            np.testing.assert_array_equal(np.concatenate(fresh, axis=1), runs)
        if "zero_out" in modes:
            np.testing.assert_array_equal(tiles.values["zero_out"],
                                          np.full((len(widths), count), 0.25))
        # rng stands at the end of part 0, its pending half kept
        assert (rng.integers(2 ** 32, dtype=np.uint32)
                == ref.integers(2 ** 32, dtype=np.uint32))
        assert rng.random() == ref.random()


def scaled_expm1(block, out=None):
    """A projection transform that writes into `out` where given."""
    return np.multiply(np.expm1(block, out=out), 0.3, out=out)


class TestRowTiles:
    """The tiled helpers equal their whole-block numpy forms exactly."""

    @pytest.mark.usefixtures("fixed_row_tiles")
    @pytest.mark.parametrize("count", TILE_COUNTS)
    def test_projection_sums_equal_whole_block(self, count):
        block = np.random.default_rng(count).standard_normal((count, 37))
        sums, first = projection_sums(block, scaled_expm1,
                                      np.empty(block.size))
        whole = scaled_expm1(block)
        np.testing.assert_array_equal(sums, whole.sum(axis=1))
        np.testing.assert_array_equal(first, whole[:, 0])

    @pytest.mark.usefixtures("fixed_row_tiles")
    @pytest.mark.parametrize("count", TILE_COUNTS)
    @pytest.mark.parametrize("compare", [np.less, np.less_equal])
    def test_row_counts_equal_whole_block(self, count, compare):
        rng = np.random.default_rng(count)
        # integer-valued draws, so ties between block and values occur
        block = rng.integers(0, 9, (count, 23)).astype(float)
        values = rng.integers(0, 9, count).astype(float)
        got = row_counts(compare, block, values)
        np.testing.assert_array_equal(
            got, compare(block, values[:, None]).sum(axis=1))
        assert got.dtype == np.intp

    @pytest.mark.parametrize("width", [2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1])
    @pytest.mark.parametrize("all_true", [True, False])
    def test_row_counts_exact_at_accumulator_switch(self, width, all_true):
        # a block narrower than 2^16 sums its mask in uint16; every count,
        # however wide the block, is exact and intp
        got = row_counts(np.less, np.zeros((1, width)),
                         np.array([1.0 if all_true else 0.0]))
        assert got.tolist() == [width if all_true else 0]
        assert got.dtype == np.intp

    def test_tile_rows_by_width(self):
        # a float64 tile of at most 512 KiB, a power of two rows high, and
        # never fewer than ROW_TILE rows
        assert {w: tile_rows(w) for w in (1, 50, 100, 400, 1000, 2000)} == {
            1: 65536, 50: 1024, 100: 512, 400: 128, 1000: 128, 2000: 128}

    @pytest.mark.parametrize("width,count", WIDTH_TILE_COUNTS)
    def test_projection_sums_equal_whole_block_at_width(self, width, count):
        block = np.random.default_rng(count).standard_normal((count, width))
        sums, first = projection_sums(block, scaled_expm1,
                                      np.empty(block.size))
        whole = scaled_expm1(block)
        np.testing.assert_array_equal(sums, whole.sum(axis=1))
        np.testing.assert_array_equal(first, whole[:, 0])

    @pytest.mark.parametrize("width,count", WIDTH_TILE_COUNTS)
    @pytest.mark.parametrize("compare", [np.less, np.less_equal])
    def test_row_counts_equal_whole_block_at_width(self, width, count,
                                                   compare):
        rng = np.random.default_rng(count)
        block = rng.integers(0, 9, (count, width)).astype(float)
        values = rng.integers(0, 9, count).astype(float)
        got = row_counts(compare, block, values)
        np.testing.assert_array_equal(
            got, compare(block, values[:, None]).sum(axis=1))
        assert got.dtype == np.intp


# below, at and above the L-statistic's n = 400, a power of two, and the
# smallest widths, where the search takes zero to two halvings
SORTED_WIDTHS = (1, 2, 3, 4, 399, 400, 401, 1024)


@st.composite
def sorted_blocks(draw):
    """(block, needles): ascending rows of one of SORTED_WIDTHS on the 2^-53
    lattice of Generator.random, shifted so that 0.0 may fall below, among
    or above a row's values, with few distinct values where `levels` is
    small, so rows hold ties; and needle rows that hold the row's own
    values, values below its minimum and above its maximum, fresh lattice
    values, and the broadcast zero of zero_out."""
    width = draw(st.sampled_from(SORTED_WIDTHS))
    rows = draw(st.integers(1, 5))
    levels = draw(st.integers(1, 2 * width))
    shift = draw(st.integers(-1, levels + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    block = np.sort(rng.integers(0, levels, (rows, width)) - shift,
                    axis=1) * 2.0 ** -53
    needles = []
    for kind in draw(st.lists(st.sampled_from(
            ("own", "below", "above", "lattice", "zero")),
            min_size=1, max_size=4)):
        if kind == "own":
            needles.append(block[np.arange(rows),
                                 rng.integers(0, width, rows)])
        elif kind == "below":
            needles.append(block[:, 0] - 2.0 ** -53 * rng.integers(1, 3, rows))
        elif kind == "above":
            needles.append(block[:, -1] + 2.0 ** -53 * rng.integers(1, 3, rows))
        elif kind == "lattice":
            needles.append((rng.integers(0, levels + 1, rows) - shift)
                           * 2.0 ** -53)
        else:
            needles.append(np.broadcast_to(0.0, (1, rows))[0])
    return block, needles


class TestSortedCounts:
    """On ascending rows the lockstep binary search counts exactly what the
    row_counts mask sum counts, needle by needle."""

    @settings(max_examples=300, deadline=None)
    @given(case=sorted_blocks())
    def test_equals_row_counts(self, case):
        block, needles = case
        got = sorted_counts(block, np.array(needles))
        assert got.dtype == np.intp
        assert got.shape == (len(needles), block.shape[0])
        for counts, needle in zip(got, needles):
            np.testing.assert_array_equal(
                counts, row_counts(np.less, block, needle))


class TestAggregationConventions:
    REPLICATES = 5000
    SEED = SeedSpec(23)

    def _samples(self):
        """The engine's draws, rebuilt from sample_chunk on the same
        substreams as numpy reference arrays."""
        model = ustat_model()
        chunks = [model.sample_chunk(self.SEED.substream(c), count,
                                     mode=("zero_out",))
                  for c, _start, count in chunk_layout(self.REPLICATES)]
        samples = {key: np.concatenate([ch[key] for ch in chunks])
                   for key in ("w", "delta", "g_rep")}
        samples["dvar_rep"] = np.concatenate([ch["dvar_rep"]["zero_out"]
                                              for ch in chunks])
        return samples, model

    def _estimate(self, model, thresholds=()):
        return components_via_engine(model, self.REPLICATES, self.SEED,
                                     mode="zero_out",
                                     delta_thresholds=thresholds)

    def test_mean_and_se_match_numpy(self):
        samples, model = self._samples()
        est = self._estimate(model, (0.1,))
        dabs = np.abs(samples["delta"])
        np.testing.assert_allclose(est.delta_abs.value, dabs.mean(),
                                   rtol=1e-12)
        np.testing.assert_allclose(est.delta_abs.std_error,
                                   dabs.std(ddof=1) / math.sqrt(dabs.size),
                                   rtol=1e-9)
        wd = np.abs(samples["w"] * samples["delta"])
        np.testing.assert_allclose(est.e_abs_w_delta.value, wd.mean(),
                                   rtol=1e-12)

    def test_weighted_coupling_term(self):
        samples, model = self._samples()
        est = self._estimate(model)
        # one exchangeable group of size n: n * E|g_1 (Delta - Delta_1)|
        gdd = 12.0 * np.abs(samples["g_rep"][:, 0]
                            * (samples["delta"] - samples["dvar_rep"][:, 0]))
        np.testing.assert_allclose(est.sum_g_delta_diff.value, gdd.mean(),
                                   rtol=1e-12)

    def test_root_moment_delta_method(self):
        samples, model = self._samples()
        est = self._estimate(model)
        d2 = samples["delta"] ** 2
        np.testing.assert_allclose(est.delta_l2.value,
                                   math.sqrt(d2.mean()), rtol=1e-12)
        se_m2 = d2.std(ddof=1) / math.sqrt(d2.size)
        np.testing.assert_allclose(est.delta_l2.std_error,
                                   se_m2 / (2 * math.sqrt(d2.mean())),
                                   rtol=1e-9)

    def test_tail_estimates(self):
        samples, model = self._samples()
        est = self._estimate(model, (0.05, 0.2))
        dabs = np.abs(samples["delta"])
        for thr in (0.05, 0.2):
            np.testing.assert_allclose(est.delta_tails[thr].value,
                                       float(np.mean(dabs > thr)),
                                       rtol=1e-12)

    def test_engine_record_equals_hand_built(self):
        """The engine's record is the one built from the same per-chunk
        row moments by hand, field by field and bit for bit."""
        model = ustat_model()
        [(marg, size)] = model.linear_part.groups
        g_l2 = marg.l2()
        thresholds = (0.05, 0.2)
        blocks = []
        for c, _start, count in chunk_layout(self.REPLICATES):
            ch = model.sample_chunk(self.SEED.substream(c), count,
                                    mode=("zero_out",))
            d = ch["delta"]
            diff = d - ch["dvar_rep"]["zero_out"][:, 0]
            blocks.append(_row_moments(np.stack([
                np.abs(ch["w"] * d), np.abs(ch["g_rep"][:, 0] * diff) * size,
                np.abs(d), d * d, diff * diff,
                *(np.abs(d) > thr for thr in thresholds)])))
        est = [MomentEstimate(m, se, self.REPLICATES)
               for m, se in _mean_se(blocks, self.REPLICATES)]
        roots = [MomentEstimate(math.sqrt(e.value),
                                e.std_error / (2.0 * math.sqrt(e.value)),
                                self.REPLICATES) for e in est[3:5]]
        want = BoundComponents(
            est[0], est[1], est[2], delta_l2=roots[0],
            sum_g_l2_delta_l2=float(size) * g_l2 * roots[1],
            delta_tails=dict(zip(thresholds, est[5:])))
        assert self._estimate(model, thresholds) == want

    def test_gamma_and_tau_carry_the_replicates(self):
        model = ustat_model()
        est = components_via_engine(
            model, self.REPLICATES, self.SEED, mode="resample",
            delta_thresholds=(1.0,)).as_bound_components(
                compute_beta(model.linear_part),
                solve_delta_minimal(model.linear_part))
        # gamma_z at z = 2 as the runner adds it up: the sampled Delta tail
        # plus the two analytic tails
        gamma = (est.delta_tails[1.0] + model.linear_part.sum_prob_above(1.0)
                 + model.nonuniform_third_term(2.0))
        assert nonuniform_tau(est).replicates == self.REPLICATES
        assert gamma.replicates == self.REPLICATES

    def test_structural_zero_remainder(self):
        model = LinearModel(LinearSpec("uniform01", 15))
        est = components_via_engine(model, 3000, SeedSpec(29))
        assert est.delta_abs.value == 0.0
        assert est.delta_abs.std_error == 0.0
        assert est.e_abs_w_delta.value == 0.0
        assert est.sum_g_delta_diff.value == 0.0
        assert est.delta_l2.value == 0.0


class TestStableVariance:
    def test_offset_mean_keeps_its_spread(self):
        # a mean 1e8 times the spread: s2 - n m^2 cancels to 0 here, the
        # merged M2 keeps the sample standard error
        x = 1e8 + np.random.default_rng(0).standard_normal(100000)
        blocks = [_row_moments(b[None, :]) for b in x.reshape(25, -1)]
        [(mean, se)] = _mean_se(blocks, x.size)
        np.testing.assert_allclose(mean, x.mean(), rtol=1e-15)
        np.testing.assert_allclose(se, x.std(ddof=1) / math.sqrt(x.size),
                                   rtol=1e-6)
        np.testing.assert_allclose(se, 0.0031627, rtol=1e-4)

    def test_uneven_blocks_match_one_block(self):
        rows = np.random.default_rng(1).exponential(size=(3, 1000)) ** 3
        one = _mean_se([_row_moments(rows)], 1000)
        split = _mean_se([_row_moments(rows[:, a:b])
                          for a, b in ((0, 1), (1, 400), (400, 1000))], 1000)
        np.testing.assert_allclose(split, one, rtol=1e-12)


def pooled_grid_ks(a, b):
    """Two-sample distance from the whole pooled grid at once: the
    reference for the blocked kernel."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(fa - fb).max())


def whole_array_ks_normal(t):
    """One-sample distance from whole-array gaps: the reference for the
    blocked kernel, with the cdf from the same port on the whole array."""
    t = np.sort(t)
    n = t.size
    cdf = ndtr_array(t)
    i = np.arange(1, n + 1)
    return float(max((i / n - cdf).max(), (cdf - (i - 1) / n).max(), 0.0))


# values with many ties, within one sample and across two: integers, signs,
# rounded normals, and a mix of the three
TIED_VALUES = [st.integers(-4, 4).map(float),
               st.sampled_from([-1.0, 1.0]),
               st.floats(-3.0, 3.0).map(lambda v: round(v, 1))]
TIED_VALUES.append(st.one_of(TIED_VALUES))


@st.composite
def tied_samples(draw):
    values = draw(st.sampled_from(TIED_VALUES))
    return draw(st.lists(values, min_size=1, max_size=300))


class TestTwoSampleKernel:
    """The kernel that searches each sample only for the other's points
    gives the pooled-grid distance, which searches both at every point,
    exactly; it reads its inputs in any order and writes into none."""

    @settings(max_examples=300, deadline=None)
    @given(a=tied_samples(), b=tied_samples(), block=st.integers(1, 63))
    def test_equal_to_pooled_grid_on_ties(self, a, b, block):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mc_engine, "DISTANCE_BLOCK", block)
            for x, y in ((a, b), (b, a), (a, a)):
                assert (empirical_ks_two_sample(x, y).distance
                        == pooled_grid_ks(x, y))

    def test_input_order_does_not_matter(self):
        rng = np.random.default_rng(43)
        a = rng.integers(-5, 6, 3001).astype(float)
        b = np.round(rng.standard_normal(2003) * 2.0)
        orders = [lambda x: x, np.sort, lambda x: np.sort(x)[::-1]]
        two = {empirical_ks_two_sample(fa(a), fb(b))
               for fa in orders for fb in orders}
        assert len(two) == 1
        one = {empirical_ks_vs_normal(order(a)) for order in orders}
        assert len(one) == 1
        assert two.pop().distance == pooled_grid_ks(a, b)

    @pytest.mark.parametrize("order", ["unsorted", "sorted"])
    def test_kernels_write_into_no_input(self, order):
        rng = np.random.default_rng(47)
        a = rng.integers(-3, 4, 5000).astype(float)
        b = rng.standard_normal(4000)
        if order == "sorted":
            a.sort()
            b.sort()
        # a write into a read-only array raises
        for x in (a, b):
            x.flags.writeable = False
        empirical_ks_two_sample(a, b)
        empirical_ks_vs_normal(a)
        pointwise_diff_two_sample(a, b, 0.5)
        pointwise_diff_vs_normal(b, 0.5)


class TestStreamedDistances:
    """The blocked distance kernels return the whole-array distance, bit
    for bit, and hold no more than their sorted copies and a block."""

    # a last block of 1 to 512 values took ndtr's value-by-value route
    SIZES = [DISTANCE_BLOCK - 1, DISTANCE_BLOCK, DISTANCE_BLOCK + 1,
             DISTANCE_BLOCK + 129, DISTANCE_BLOCK + 512,
             DISTANCE_BLOCK + 513, 2 * DISTANCE_BLOCK + 1]

    @pytest.mark.parametrize("size", SIZES)
    def test_equal_to_whole_array(self, size):
        rng = np.random.default_rng(size)
        a = rng.standard_normal(size) * 1.05
        for b in (rng.standard_normal(size) + 0.01,
                  rng.standard_normal(size // 3 + 5),
                  rng.standard_normal(2 * size + 3) - 0.02):
            assert empirical_ks_two_sample(a, b).distance == pooled_grid_ks(a, b)
            assert empirical_ks_two_sample(b, a).distance == pooled_grid_ks(b, a)
        assert empirical_ks_vs_normal(a).distance == whole_array_ks_normal(a)

    @pytest.mark.parametrize("size", SIZES)
    def test_equal_to_whole_array_on_ties(self, size):
        rng = np.random.default_rng(size + 1)
        a = rng.integers(-3, 4, size).astype(float)
        b = rng.integers(-2, 4, size // 2 + 7).astype(float)
        assert empirical_ks_two_sample(a, b).distance == pooled_grid_ks(a, b)
        assert empirical_ks_two_sample(b, a).distance == pooled_grid_ks(b, a)
        assert empirical_ks_vs_normal(a).distance == whole_array_ks_normal(a)

    @pytest.mark.parametrize("size", [s for s in SIZES if s > DISTANCE_BLOCK])
    def test_one_sample_gap_in_last_block(self, size):
        """Normal quantiles, with the values of the last block pressed
        together just above the block before: the supremum gap is
        1 - Phi(t_max) at the last point, and the top value is one at which
        ndtr's value-by-value route and the port disagree."""
        last = size % DISTANCE_BLOCK
        t = stats.norm.ppf((np.arange(size) + 0.5) / size)
        top = t[-last - 1] + 1e-6
        while ndtr(np.array([top]))[0] == ndtr_array(np.array([top]))[0]:
            top = np.nextafter(top, np.inf)
        t[-last:] = np.linspace(t[-last - 1], top, last + 1)[1:]
        got = empirical_ks_vs_normal(t).distance
        assert got == whole_array_ks_normal(t)
        assert got == 1.0 - ndtr_array(t[-1:])[0]
        assert got > 1.0 / size  # the quantile gaps elsewhere are 0.5 / size

    def test_peak_in_sorted_copies(self):
        rng = np.random.default_rng(41)
        a = rng.standard_normal(500000)
        b = rng.standard_normal(500000)
        assert traced_peak(lambda: empirical_ks_two_sample(a, b)) <= (
            a.nbytes + b.nbytes + 2 * MiB)
        assert traced_peak(lambda: empirical_ks_vs_normal(a)) <= (
            a.nbytes + 2 * MiB)

    def test_sorted_inputs_read_in_place(self):
        rng = np.random.default_rng(53)
        a = np.sort(rng.standard_normal(500000))
        b = np.sort(rng.standard_normal(500000))
        assert traced_peak(lambda: empirical_ks_two_sample(a, b)) <= 2 * MiB
        assert traced_peak(lambda: empirical_ks_vs_normal(a)) <= 2 * MiB


# values with ties, both infinities and values far out in the normal tails
EDGE_VALUES = st.one_of(st.sampled_from([-np.inf, np.inf, -1.0, 0.0, 1.0]),
                        st.floats(-40.0, 40.0))


@st.composite
def edge_samples(draw):
    values = draw(st.sampled_from(TIED_VALUES + [EDGE_VALUES]))
    x = np.array(draw(st.lists(values, min_size=1, max_size=200)))
    x.flags.writeable = False
    return x


def spiked_pair(n, j, s):
    """(a, b) of n values each whose distance (s + 1)/n is taken at a's
    point j, the last of s + 1 ties at indices j - s to j: a holds
    0, ..., n - 1 and b the midpoints k + 1/2, with the s midpoints below j
    moved up onto j + 1/2; every other term is 0 or 1/n."""
    a = np.arange(n, dtype=float)
    a[j - s:j + 1] = j
    b = np.arange(n) + 0.5
    b[j - s:j] = j + 0.5
    return a, b


def spiked_quantiles(n, j, s):
    """Normal quantiles at (i + 1/2)/n whose one-sample distance, about
    (s + 1/2)/n, is taken at point j, the last of s + 1 ties at indices
    j - s to j; every other term is about 1/(2n) or less."""
    t = stats.norm.ppf((np.arange(n) + 0.5) / n)
    t[j - s:j + 1] = t[j - s]
    return t


class TestPrunedDistances:
    """The kernels evaluate the terms of a group only when its bound from
    the group's two ends exceeds the largest end term, and return the
    whole-array distance bit for bit wherever the supremum lies."""

    @settings(max_examples=400, deadline=None)
    @given(a=edge_samples(), b=edge_samples(), group=st.integers(1, 7),
           block=st.integers(1, 20))
    def test_equal_to_whole_array(self, a, b, group, block):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mc_engine, "DISTANCE_GROUP", group)
            mp.setattr(mc_engine, "DISTANCE_BLOCK", block)
            for x, y in ((a, b), (b, a), (a, a), (a, a.copy())):
                assert (empirical_ks_two_sample(x, y).distance
                        == pooled_grid_ks(x, y))
            for x in (a, b):
                assert (empirical_ks_vs_normal(x).distance
                        == whole_array_ks_normal(x))

    # n = 5 G + r puts a ragged group of r values last; j runs from the
    # first point across a group edge to the last group and the last point
    @pytest.mark.parametrize("group", [7, mc_engine.DISTANCE_GROUP])
    @pytest.mark.parametrize("r", [0, 1, 5])
    @pytest.mark.parametrize("where", ["first", "edge", "after_edge",
                                       "last_group", "last"])
    def test_supremum_anywhere(self, group, r, where):
        n = 5 * group + r
        j = {"first": 0, "edge": group - 1, "after_edge": group + 2,
             "last_group": n - 2, "last": n - 1}[where]
        # s ties end at j, so for j past the edge they straddle it
        s = min(j, 4)
        a, b = spiked_pair(n, j, s)
        t = spiked_quantiles(n, j, s)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mc_engine, "DISTANCE_GROUP", group)
            mp.setattr(mc_engine, "DISTANCE_BLOCK", 2 * group)
            for x, y in ((a, b), (b, a)):
                got = empirical_ks_two_sample(x, y).distance
                assert got == pooled_grid_ks(x, y)
                assert got == pytest.approx((s + 1) / n, rel=1e-12)
            got = empirical_ks_vs_normal(t).distance
            assert got == whole_array_ks_normal(t)
            if s:
                assert got == pytest.approx((s + 0.5) / n, rel=1e-9)

    def test_supremum_at_the_ends(self):
        # one sample: Phi(t_1) - 0 at the first point of values far right,
        # 1 - Phi(t_n) at the last point of values far left
        right = 5.0 + np.linspace(0.0, 1.0, 1001)
        got = empirical_ks_vs_normal(right).distance
        assert got == whole_array_ks_normal(right) == ndtr_array(right[:1])[0]
        left = -right[::-1]
        got = empirical_ks_vs_normal(left).distance
        assert got == whole_array_ks_normal(left)
        assert got == 1.0 - ndtr_array(left[-1:])[0]
        # two samples: F_a - F_b = 1/2 at a's first point, and less at every
        # other point of a and of b
        a = np.array([0.0, 100.0])
        b = np.concatenate([np.linspace(1.0, 2.0, 90), np.full(10, 200.0)])
        assert empirical_ks_two_sample(a, b).distance == 0.5
        assert empirical_ks_two_sample(b, a).distance == 0.5

    @pytest.mark.parametrize("n", [DISTANCE_BLOCK + 1, 500000])
    def test_identical_samples(self, n):
        """T = W: every group bound is above the floor 0, so every group is
        evaluated, in contiguous slices."""
        t = np.sort(np.random.default_rng(n).standard_normal(n))
        for other in (t, t.copy()):
            assert empirical_ks_two_sample(t, other).distance == 0.0

    def test_few_points_evaluated(self, monkeypatch):
        """At 5e5 normal values against a shifted sample, fewer than 5 % of
        the points reach searchsorted or ndtr_array, group ends included."""
        rng = np.random.default_rng(59)
        a = np.sort(rng.standard_normal(500000))
        b = np.sort(rng.standard_normal(500000) + 0.01)
        want_two = pooled_grid_ks(a, b)
        want_one = [whole_array_ks_normal(x) for x in (a, b)]
        searched, evaluated = [], []
        search, cdf = np.searchsorted, mc_engine.ndtr_array

        def counted_search(other, values, side):
            searched.append(values.size)
            return search(other, values, side=side)

        def counted_cdf(values):
            evaluated.append(values.size)
            return cdf(values)

        monkeypatch.setattr(np, "searchsorted", counted_search)
        monkeypatch.setattr(mc_engine, "ndtr_array", counted_cdf)
        assert empirical_ks_two_sample(a, b).distance == want_two
        assert sum(searched) < 0.05 * (a.size + b.size)
        for x, want in zip((a, b), want_one):
            evaluated.clear()
            assert empirical_ks_vs_normal(x).distance == want
            assert sum(evaluated) < 0.05 * x.size

    @pytest.mark.parametrize("order", ["unsorted", "sorted"])
    def test_nan_raises_numeric_error(self, order):
        rng = np.random.default_rng(61)
        a = rng.standard_normal(1000)
        a[17] = np.nan
        if order == "sorted":
            a.sort()
        b = rng.standard_normal(1000)
        for call in (lambda: empirical_ks_vs_normal(a),
                     lambda: empirical_ks_vs_normal([np.nan]),
                     lambda: empirical_ks_two_sample(a, b),
                     lambda: empirical_ks_two_sample(b, a),
                     lambda: pointwise_diff_vs_normal(a, 0.5),
                     lambda: pointwise_diff_vs_normal([np.nan], 0.5),
                     lambda: pointwise_diff_two_sample(a, b, 0.5),
                     lambda: pointwise_diff_two_sample(b, a, 0.5)):
            with pytest.raises(NumericError, match="NaN"):
                call()

    def test_empty_sample_rejected(self):
        for call in (lambda: empirical_ks_vs_normal([]),
                     lambda: empirical_ks_two_sample([], [1.0]),
                     lambda: empirical_ks_two_sample([1.0], []),
                     lambda: pointwise_diff_vs_normal([], 0.5),
                     lambda: pointwise_diff_two_sample([], [1.0], 0.5),
                     lambda: pointwise_diff_two_sample([1.0], [], 0.5)):
            with pytest.raises(ConfigError):
                call()


class TestDistances:
    def test_dkw_formula(self):
        np.testing.assert_allclose(
            dkw_radius(100000), math.sqrt(math.log(2.0 / DKW_ALPHA) / 200000),
            rtol=1e-14)
        with pytest.raises(ConfigError):
            dkw_radius(0)

    def test_one_sample_ks_matches_scipy(self):
        rng = np.random.default_rng(31)
        t = rng.standard_normal(5000) * 1.1
        got = empirical_ks_vs_normal(t)
        want = stats.kstest(t, "norm").statistic
        np.testing.assert_allclose(got.distance, want, rtol=1e-12)
        assert got.replicates == 5000
        np.testing.assert_allclose(got.dkw_radius, dkw_radius(5000),
                                   rtol=1e-14)

    def test_two_sample_ks_matches_scipy(self):
        rng = np.random.default_rng(37)
        a = rng.standard_normal(3000)
        b = rng.standard_normal(2000) + 0.1
        got = empirical_ks_two_sample(a, b)
        want = stats.ks_2samp(a, b).statistic
        np.testing.assert_allclose(got.distance, want, rtol=1e-12)
        np.testing.assert_allclose(got.dkw_radius,
                                   dkw_radius(3000) + dkw_radius(2000),
                                   rtol=1e-14)

    def test_ks_with_ties_and_duplicates(self):
        a = np.array([0.0, 0.0, 1.0, 1.0])
        b = np.array([0.0, 1.0, 1.0, 1.0])
        got = empirical_ks_two_sample(a, b)
        np.testing.assert_allclose(got.distance, 0.25, rtol=1e-14)

    def test_pointwise_vs_normal_brute(self):
        t = np.array([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
        from scipy.special import ndtr
        got = pointwise_diff_vs_normal(t, 0.25)
        np.testing.assert_allclose(got.distance,
                                   abs(3.0 / 6.0 - float(ndtr(0.25))),
                                   rtol=1e-14)

    def test_pointwise_two_sample_brute(self):
        a = np.array([0.0, 1.0, 2.0, 3.0])
        b = np.array([1.5, 2.5])
        got = pointwise_diff_two_sample(a, b, 2.0)
        np.testing.assert_allclose(got.distance, abs(0.75 - 0.5), rtol=1e-14)


class TestCertify:
    KS = KSResult(distance=0.050, replicates=10000,
                  dkw_radius=0.02)

    def test_pass_within_bound(self):
        assert certify(self.KS, BoundValue(0.06, 0.0)) is True

    def test_pass_on_slack(self):
        # 0.05 <= 0.04 + 0.02 only through the DKW slack
        assert certify(self.KS, BoundValue(0.04, 0.0)) is True

    def test_fail_beyond_slack(self):
        assert certify(self.KS, BoundValue(0.02, 0.0)) is False

    def test_se_widens_slack(self):
        tight = BoundValue(0.025, 0.0, known_se=0.0)
        wide = BoundValue(0.025, 0.0, known_se=0.002)
        assert certify(self.KS, tight) is False
        assert certify(self.KS, wide) is True

    def test_unknown_constant_yields_none(self):
        assert certify(self.KS, BoundValue(0.01, 0.5)) is None
