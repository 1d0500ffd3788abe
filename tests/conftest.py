"""Fixtures shared by the test modules."""
import pytest

from belab.models import base


@pytest.fixture
def fixed_row_tiles(monkeypatch):
    """Row tiles of ROW_TILE rows at every block width, so that chunk sizes
    around ROW_TILE fall on tile edges for a narrow model too (a narrow
    block otherwise gets tiles of up to TILE_BYTES, see tile_rows)."""
    monkeypatch.setattr(base, "TILE_BYTES", 0)
