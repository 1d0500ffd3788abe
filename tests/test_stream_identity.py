"""Frozen digests of `sample_chunk` outputs: sampled values, stream use and
row order stay bit-identical.

For every sampled family, each law it accepts and a few widths, each count
in COUNTS and each `mode` argument in MODES, one sha256 covers every output
array (name, dtype, shape and bytes, in the chunk's own order) and the
`rng.random()` that follows the call, so the digest also pins where the
chunk left its stream. The digests live in `stream_identity.json`; rewrite
it only for a change that is meant to alter the sampled streams:

    PYTHONPATH=src python tests/test_stream_identity.py --write
"""
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from belab.errors import DegenerateModelError, UnsupportedModelError
from belab.mc_engine import SeedSpec
from belab.models import DIST_CATALOG, KERNEL_CATALOG, WEIGHT_CATALOG, build_model

DIGESTS = Path(__file__).resolve().parent / "stream_identity.json"
SEED = 15
# both sides of the 128-row and 1024-row tile edges, and a full chunk
COUNTS = (1, 2, 127, 128, 129, 257, 4095, 4096)
MODES = ((), ("zero_out",), ("resample",), ("zero_out", "resample"),
         ("resample", "zero_out"))
CONTINUOUS = tuple(d for d in DIST_CATALOG if DIST_CATALOG[d].continuous)


def _descriptors():
    """{case name: model descriptor} over families, laws and widths."""
    descs = {}
    for dist in DIST_CATALOG:
        for n in (50, 300):
            descs[f"linear-{dist}-n{n}"] = {
                "family": "linear", "dist": dist, "n": n}
        for kernel in KERNEL_CATALOG:
            for n in (50, 400):
                descs[f"ustat-{kernel}-{dist}-n{n}"] = {
                    "family": "ustat", "kernel": kernel, "dist": dist, "n": n}
    for dist in CONTINUOUS:
        for n in ("1000;1000", "57;13"):
            descs[f"multisample-{dist}-n{n}"] = {
                "family": "multisample", "dist": dist, "n": n}
        for weight in WEIGHT_CATALOG:
            for n in (399, 400):
                descs[f"lstat-{weight}-{dist}-n{n}"] = {
                    "family": "lstat", "weight": weight, "dist": dist, "n": n}
    descs["isqrt-eps0.1-n100"] = {"family": "isqrt", "epsilon": 0.1,
                                  "n": 100}
    models = {}
    for name, desc in descs.items():
        try:
            build_model(desc)
        except (DegenerateModelError, UnsupportedModelError):
            continue  # a law the family does not accept
        models[name] = desc
    return models


DESCRIPTORS = _descriptors()


def mode_label(mode) -> str:
    return "+".join(mode) or "none"


def chunk_digest(model, count, mode) -> str:
    """sha256 of one chunk's outputs and of the next draw of its stream."""
    rng = SeedSpec(SEED).substream(count)
    chunk = model.sample_chunk(rng, count, mode=mode)
    h = hashlib.sha256()

    def feed(name, arr):
        arr = np.ascontiguousarray(arr)
        h.update(f"{name}:{arr.dtype.str}:{arr.shape};".encode())
        h.update(arr.tobytes())

    for key, value in chunk.items():
        if isinstance(value, dict):
            for m, arr in value.items():
                feed(f"{key}.{m}", arr)
        else:
            feed(key, value)
    h.update(float(rng.random()).hex().encode())
    return h.hexdigest()


def case_digests(name: str, count: int) -> dict:
    model = build_model(DESCRIPTORS[name])
    return {f"{name}/count{count}/{mode_label(mode)}":
            chunk_digest(model, count, mode) for mode in MODES}


@pytest.fixture(scope="module")
def frozen():
    return json.loads(DIGESTS.read_text())


def test_cases_cover_every_family(frozen):
    assert {d["family"] for d in DESCRIPTORS.values()} == {
        "linear", "ustat", "multisample", "lstat", "isqrt"}
    assert len(frozen) == len(DESCRIPTORS) * len(COUNTS) * len(MODES)


@pytest.mark.parametrize("case, twin", [
    ("linear-{}-n50", "ustat-sum-{}-n50"),
    ("lstat-const1-{}-n400", "ustat-sum-{}-n400")])
def test_standardized_sums_share_digests(frozen, case, twin):
    """The linear model, the sum-kernel U-statistic and the const1
    L-statistic sample T = W by one chunk: equal digests for each law,
    count and mode."""
    keys = [key for key in frozen
            if any(key.startswith(case.format(d) + "/")
                   for d in DIST_CATALOG)]
    cases = sum(case.format(d) in DESCRIPTORS for d in DIST_CATALOG)
    assert cases and len(keys) == cases * len(COUNTS) * len(MODES)
    for key in keys:
        name, rest = key.split("/", 1)
        dist = name.split("-")[-2]
        assert frozen[key] == frozen[f"{twin.format(dist)}/{rest}"], key


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("name", sorted(DESCRIPTORS))
def test_chunk_digests_frozen(frozen, name, count):
    got = case_digests(name, count)
    changed = sorted(key for key, digest in got.items()
                     if frozen.get(key) != digest)
    assert not changed, f"outputs or stream use changed: {changed}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_stream_identity.py --write")
    table = {}
    for case in sorted(DESCRIPTORS):
        for n_rows in COUNTS:
            table.update(case_digests(case, n_rows))
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
