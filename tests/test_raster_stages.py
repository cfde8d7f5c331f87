"""Ray raster stages: tile tables, mosaic merge, pyramid, zonal summary."""

import numpy as np
import pytest

from geotrellis_contrib_ray.core.celltype import CellType
from geotrellis_contrib_ray.core.grid import Extent, GridExtent, LayoutDefinition
from geotrellis_contrib_ray.sources.raster_source import (
    InMemoryRasterSource,
    SyntheticRasterSource,
)
from geotrellis_contrib_ray.stages import joins, raster as rst

EXT = Extent(630000.0, 215000.0, 645000.0, 228500.0)
GRID = GridExtent(EXT, 10.0, 10.0, 1500, 1350)


@pytest.fixture(scope="module")
def tile_ds(ray_session):
    src = SyntheticRasterSource(GRID)
    layout = LayoutDefinition.floating(GRID, 256)
    return rst.tile_dataset([src], layout), src, layout


def test_tile_dataset_covers_source(tile_ds):
    ds, src, layout = tile_ds
    rows = ds.take_all()
    assert len(rows) == 36  # 6x6 layout keys
    # every tile decodes and total pixel count >= source size (layout pads edges)
    total = sum(r["rows"] * r["cols"] for r in rows)
    assert total == sum(
        256 * 256 if (r["tile_col"] < 5 and r["tile_row"] < 5) else r["rows"] * r["cols"]
        for r in rows
    )
    r0 = next(r for r in rows if r["tile_col"] == 0 and r["tile_row"] == 0)
    px = rst.tile_pixels(r0)
    assert px[0, 0, 0] == 0  # (row 0, col 0) value
    assert px.shape == (1, 256, 256)


def test_mosaic_merge_dataset(ray_session):
    g1 = GridExtent(Extent(0.0, 0.0, 100.0, 100.0), 10.0, 10.0, 10, 10)
    g2 = GridExtent(Extent(50.0, 0.0, 150.0, 100.0), 10.0, 10.0, 10, 10)
    a = InMemoryRasterSource(np.full((1, 10, 10), 1.0), g1)
    b = InMemoryRasterSource(np.full((1, 10, 10), 2.0), g2)
    layout = LayoutDefinition(Extent(0.0, 0.0, 150.0, 100.0), 5, 5, 3, 2)
    tiles = rst.tile_dataset([a, b], layout)
    merged = rst.mosaic_merge(tiles, layout).take_all()
    # overlap tile (x in [50,100)) -> first source wins
    key_cols = sorted({(m["tile_col"], m["tile_row"]) for m in merged})
    assert len(merged) == len(key_cols) == 6
    mid = next(m for m in merged if m["tile_col"] == 1 and m["tile_row"] == 0)
    assert np.all(rst.tile_pixels(mid) == 1.0)
    right = next(m for m in merged if m["tile_col"] == 2 and m["tile_row"] == 0)
    assert np.all(rst.tile_pixels(right) == 2.0)


def test_convert_tiles(ray_session):
    src = SyntheticRasterSource(GRID)
    layout = LayoutDefinition.floating(GRID, 512)
    tiles = rst.tile_dataset([src], layout)
    conv = rst.convert_tiles(tiles, CellType.of("float32nd")).take_all()
    px = rst.tile_pixels(conv[0])
    assert px.dtype == np.float32


def test_pyramid_build_levels(ray_session):
    src = SyntheticRasterSource(GRID)
    layout = LayoutDefinition.floating(GRID, 256)
    tiles = rst.tile_dataset([src], layout)
    levels = rst.pyramid_build(tiles, 2)
    assert len(levels) == 3
    l1 = levels[1].take_all()
    keys = {(r["tile_col"], r["tile_row"]) for r in l1}
    assert keys == {(c, r) for c in range(3) for r in range(3)}  # 6x6 -> 3x3
    l2 = levels[2].take_all()
    assert {(r["tile_col"], r["tile_row"]) for r in l2} == {(0, 0), (0, 1), (1, 0), (1, 1)}
    # parent values come from child 2x downsample
    p00 = next(r for r in l1 if r["tile_col"] == 0 and r["tile_row"] == 0)
    px = rst.tile_pixels(p00)
    assert px[0, 0, 0] == 0  # top-left of child (0,0) downsampled
    assert px[0, 0, 1] == 2  # col 2 of source (stride 2)


def test_polygonal_summary_tiles(ray_session):
    # constant raster of 5.0 over [0,100]^2; polygon covers half -> mean 5
    g = GridExtent(Extent(0.0, 0.0, 100.0, 100.0), 10.0, 10.0, 10, 10)
    src = InMemoryRasterSource(np.full((1, 10, 10), 5.0), g)
    layout = LayoutDefinition(g.extent, 5, 5, 2, 2)
    tiles = rst.tile_dataset([src], layout)
    ring = np.array([[0.0, 0.0], [50.0, 0.0], [50.0, 100.0], [0.0, 100.0], [0.0, 0.0]])
    res = rst.polygonal_summary_tiles(tiles, ring)
    assert res["count"] == 50  # 5 cols x 10 rows of cell centers inside
    assert res["sum"] == 250.0
    assert res["mean"] == 5.0
    assert res["min"] == 5.0 and res["max"] == 5.0


def test_write_tiles_resumable_layout(ray_session, tmp_path):
    src = SyntheticRasterSource(GRID)
    layout = LayoutDefinition.floating(GRID, 512)
    tiles = rst.tile_dataset([src], layout)
    out = rst.write_tiles(tiles, str(tmp_path / "tiles"))
    import pyarrow.parquet as pq
    import glob

    files = glob.glob(f"{out}/*.parquet")
    assert files
    total = sum(pq.ParquetFile(f).metadata.num_rows for f in files)
    assert total == 9  # 3x3 512px layout

    # partitioned variant: one directory per tile_col (resumable layout)
    tiles2 = rst.tile_dataset([src], layout)
    out2 = rst.write_tiles(tiles2, str(tmp_path / "tiles_part"), partition_key="tile_col")
    part_dirs = sorted(glob.glob(f"{out2}/tile_col=*"))
    assert len(part_dirs) == 3
    total2 = sum(
        pq.ParquetFile(f).metadata.num_rows
        for f in glob.glob(f"{out2}/**/*.parquet", recursive=True)
    )
    assert total2 == 9


def test_sparse_stitch(ray_session):
    # stitch 3 of 4 tiles of a 2x2 layout: gap stays nodata
    src = SyntheticRasterSource(GridExtent(Extent(0.0, 0.0, 200.0, 200.0), 10.0, 10.0, 20, 20))
    layout = LayoutDefinition(Extent(0.0, 0.0, 200.0, 200.0), 10, 10, 2, 2)
    rows = rst.tile_dataset([src], layout).take_all()
    sparse = [r for r in rows if not (r["tile_col"] == 1 and r["tile_row"] == 1)]
    stitched = rst.sparse_stitch(sparse)
    assert stitched.pixels.shape == (1, 20, 20)
    assert stitched.extent == Extent(0.0, 0.0, 200.0, 200.0)
    # missing bottom-right quadrant is nodata
    assert np.all(stitched.pixels[0, 10:, 10:] == -32768)
    # present quadrants carry source values
    full = src.read()
    assert np.array_equal(stitched.pixels[0, :10, :10], full.pixels[0, :10, :10])
    assert rst.sparse_stitch([]) is None


def test_layout_for_summary(ray_session):
    import ray.data as rd
    import pyarrow as pa
    from geotrellis_contrib_ray.stages import spatial

    t = pa.table({"lon": np.linspace(-80.0, -75.1, 100), "lat": np.linspace(39.8, 42.0, 100)})
    summary = spatial.raster_summary(rd.from_arrow(t.append_column("doc_id", pa.array(np.arange(100)))))
    layout = spatial.layout_for_summary(summary, cell_size=0.01, tile_size=64)
    assert layout.extent.xmin == -80.0 and layout.extent.ymax == 42.0
    assert layout.layout_cols >= 1 and layout.tile_cols == 64
    # every summarized point maps into the layout
    c, r = layout.key_for_point(t["lon"].to_numpy(), t["lat"].to_numpy())
    assert (c >= 0).all() and (c < layout.layout_cols).all()
    assert (r >= 0).all() and (r < layout.layout_rows).all()


def test_pyramid_build_average_method(ray_session):
    """Average-downsample pyramid: constant tiles stay constant; a 2x2-block
    pattern averages to the block mean."""
    g = GridExtent(Extent(0.0, 0.0, 80.0, 80.0), 10.0, 10.0, 8, 8)
    # checkerboard of 0/4 in 1x1 cells -> average halves to 2.0 everywhere
    px = np.indices((8, 8)).sum(axis=0) % 2 * 4.0
    src = InMemoryRasterSource(px[None], g)
    layout = LayoutDefinition(g.extent, 4, 4, 2, 2)
    tiles = rst.tile_dataset([src], layout)
    level1 = rst.pyramid_build(tiles, 1, layout, method="average")[1].take_all()
    assert len(level1) == 1
    vals = rst.tile_pixels(level1[0])
    assert np.allclose(vals, 2.0)


def _focal_reference(full: np.ndarray, op: str, d: int = 1) -> np.ndarray:
    """Direct per-cell reference: aggregate the in-bounds window."""
    h, w = full.shape
    out = np.zeros((h, w), np.float64)
    for r in range(h):
        for c in range(w):
            win = full[max(r - d, 0):r + d + 1, max(c - d, 0):c + d + 1]
            out[r, c] = {"sum": win.sum, "mean": win.mean,
                         "min": win.min, "max": win.max}[op]()
    return out


def test_focal_sum_halo_exchange_matches_reference(ray_session):
    """3x3 focal sum over a 2x2-tile layout: interior tile-edge cells need
    halos from all 8 neighbors; layer-boundary cells use partial windows."""
    rng = np.random.default_rng(3)
    full = rng.integers(0, 100, size=(20, 20)).astype(np.float64)
    g = GridExtent(Extent(0.0, 0.0, 200.0, 200.0), 10.0, 10.0, 20, 20)
    src = InMemoryRasterSource(full[None], g)
    layout = LayoutDefinition(g.extent, 10, 10, 2, 2)
    tiles = rst.tile_dataset([src], layout)
    res = rst.focal_tiles(tiles, op="sum", radius=1).take_all()
    assert len(res) == 4
    stitched = rst.sparse_stitch(res)
    assert stitched is not None
    exp = _focal_reference(full, "sum")
    assert np.array_equal(stitched.pixels[0].astype(np.float64), exp)


def test_focal_mean_and_extrema(ray_session):
    full = (np.arange(144, dtype=np.float64).reshape(12, 12) * 7) % 23
    g = GridExtent(Extent(0.0, 0.0, 120.0, 120.0), 10.0, 10.0, 12, 12)
    src = InMemoryRasterSource(full[None], g)
    layout = LayoutDefinition(g.extent, 8, 8, 2, 2)  # ragged 12 = 8 + 4
    tiles = rst.tile_dataset([src], layout)
    for op in ("mean", "min", "max"):
        res = rst.focal_tiles(tiles, op=op, radius=1).take_all()
        stitched = rst.sparse_stitch(res)
        exp = _focal_reference(full, op)
        assert np.allclose(stitched.pixels[0], exp), op


def test_focal_gradient_matches_stencil(ray_session):
    """Horn dz/dx and dz/dy numerators across tile seams equal the direct
    stencil with zero-padded out-of-bounds neighbors."""
    rng = np.random.default_rng(9)
    full = rng.integers(0, 50, size=(16, 16)).astype(np.float64)
    g = GridExtent(Extent(0.0, 0.0, 160.0, 160.0), 10.0, 10.0, 16, 16)
    src = InMemoryRasterSource(full[None], g)
    layout = LayoutDefinition(g.extent, 8, 8, 2, 2)
    tiles = rst.tile_dataset([src], layout)
    padded = np.pad(full, 1)
    for op, wx in (("gradient_x", True), ("gradient_y", False)):
        exp = np.zeros((16, 16))
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                w = dc * (2 if dr == 0 else 1) if wx else dr * (2 if dc == 0 else 1)
                exp += w * padded[1 + dr:17 + dr, 1 + dc:17 + dc]
        res = rst.focal_tiles(tiles, op=op, radius=1).take_all()
        stitched = rst.sparse_stitch(res)
        assert np.array_equal(stitched.pixels[0].astype(np.float64), exp), op


def test_focal_mean_nodata_excluded(ray_session):
    """NoData cells are excluded from neighboring windows and their own
    output is computed from the valid neighbors (GDAL focal semantics)."""
    full = np.full((8, 8), 10.0)
    full[3, 3] = np.nan                      # NoData under float64nd
    g = GridExtent(Extent(0.0, 0.0, 80.0, 80.0), 10.0, 10.0, 8, 8)
    src = InMemoryRasterSource(full[None], g)  # default ct = float64, NaN nodata
    layout = LayoutDefinition(g.extent, 4, 4, 2, 2)
    tiles = rst.tile_dataset([src], layout)
    res = rst.focal_tiles(tiles, op="mean", radius=1).take_all()
    stitched = rst.sparse_stitch(res)
    px = stitched.pixels[0]
    # all windows average only valid 10.0 cells -> exactly 10.0 everywhere,
    # including at the NoData cell itself (8 valid neighbors)
    assert np.allclose(px, 10.0, equal_nan=False)
    assert np.isfinite(px).all()


def test_focal_hillshade_matches_reference(ray_session):
    """Hillshade across tile seams equals the direct formula on the full
    array (same zero-padded Horn numerators, GDAL az=315/alt=45)."""
    rng = np.random.default_rng(11)
    full = rng.integers(0, 200, size=(16, 16)).astype(np.float64)
    g = GridExtent(Extent(0.0, 0.0, 160.0, 160.0), 10.0, 10.0, 16, 16)
    src = InMemoryRasterSource(full[None], g)
    layout = LayoutDefinition(g.extent, 8, 8, 2, 2)
    tiles = rst.tile_dataset([src], layout)
    res = rst.focal_tiles(tiles, op="hillshade", radius=1).take_all()
    stitched = rst.sparse_stitch(res)

    padded = np.pad(full, 1)
    agx = np.zeros((16, 16))
    agy = np.zeros((16, 16))
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            wx = dc * (2 if dr == 0 else 1)
            wy = dr * (2 if dc == 0 else 1)
            sl = padded[1 + dr:17 + dr, 1 + dc:17 + dc]
            agx += wx * sl
            agy += wy * sl
    gx, gy = agx / 80.0, agy / 80.0
    az, alt = np.deg2rad(315.0), np.deg2rad(45.0)
    slope = np.arctan(np.sqrt(gx**2 + gy**2))
    aspect = np.arctan2(gy, -gx)
    hs = np.sin(alt) * np.cos(slope) + np.cos(alt) * np.sin(slope) * np.cos(az - np.pi / 2 - aspect)
    exp = np.rint(255.0 * np.clip(hs, 0.0, 1.0))
    assert np.array_equal(stitched.pixels[0].astype(np.float64), exp)
    # sane range and real variation
    assert stitched.pixels[0].min() >= 0 and stitched.pixels[0].max() <= 255
    assert len(np.unique(stitched.pixels[0])) > 10


def _assert_pyramid_registered(tile: int):
    """Level 1 over a source starting 5 cells into the layout equals the
    2x decimation of the georeferenced world array, parent by parent."""
    import numpy as np

    from geotrellis_contrib_ray.core.grid import Extent, GridExtent, LayoutDefinition
    from geotrellis_contrib_ray.sources.raster_source import SyntheticRasterSource
    from geotrellis_contrib_ray.stages import raster as rst

    layout = LayoutDefinition(Extent(0, 0, 40, 40), tile, tile, 40 // tile, 40 // tile)
    src = SyntheticRasterSource(GridExtent(Extent(5, 0, 40, 40), 1.0, 1.0, 35, 40))
    lvl1 = rst.pyramid_build(rst.tile_dataset([src], layout), levels=1,
                             layout=layout)[1].to_pandas()
    full = src.read(src.extent).pixels[0]
    nd = src.cell_type.nodata
    world = np.full((40, 40), nd, dtype=full.dtype)
    world[0:40, 5:40] = full
    assert len(lvl1) > 0
    for _, r in lvl1.iterrows():
        px = rst.tile_pixels(dict(r))[0]
        pc, pr = int(r["tile_col"]), int(r["tile_row"])
        w = 2 * tile
        truth = world[pr * w:(pr + 1) * w, pc * w:(pc + 1) * w][::2, ::2]
        assert np.array_equal(px, truth), (pc, pr)


def test_pyramid_clipped_edge_tiles_registered(ray_session):
    """Footprint-clipped edge tiles (source starts mid-tile) must land at
    their georeferenced position inside the parent — key parity alone
    shifted them west/up (review repro, round 2)."""
    _assert_pyramid_registered(10)


def test_pyramid_odd_tile_dims_registered(ray_session):
    """5-cell tiles: an odd-numbered child starts on an odd global cell, so
    decimating it from its local cell 0 sampled odd cells, and two children
    wrote the same parent column (the result depended on child order)."""
    _assert_pyramid_registered(5)


def test_focal_radius_exceeding_tile_raises(ray_session):
    from geotrellis_contrib_ray.core.grid import Extent, GridExtent, LayoutDefinition
    from geotrellis_contrib_ray.sources.raster_source import SyntheticRasterSource
    from geotrellis_contrib_ray.stages import raster as rst

    layout = LayoutDefinition(Extent(0, 0, 20, 20), 8, 8, 3, 3)
    src = SyntheticRasterSource(GridExtent(Extent(0, 0, 20, 20), 1.0, 1.0, 20, 20))
    tiles = rst.tile_dataset([src], layout)
    import pytest

    with pytest.raises(Exception, match="focal radius"):
        rst.summarize_tiles(rst.focal_tiles(tiles, op="sum", radius=9), nodata_aware=False)


def test_mosaic_band_subset_read(ray_session):
    from geotrellis_contrib_ray.core.grid import Extent, GridExtent
    from geotrellis_contrib_ray.sources.raster_source import (
        MosaicRasterSource,
        SyntheticRasterSource,
    )

    g = GridExtent(Extent(0, 0, 10, 10), 1.0, 1.0, 10, 10)
    a = SyntheticRasterSource(g, bands=2)
    b = SyntheticRasterSource(g, bands=2)
    m = MosaicRasterSource([a, b])
    r = m.read(bands=[0])
    assert r is not None and r.pixels.shape[0] == 1


def test_bit_celltype_through_tile_pipeline(ray_session):
    """A 1-bit mask source survives the tile table + mosaic path (r4
    CellType parity beyond the codec): tiling, shuffle round-trip and the
    first-non-nodata merge all run on bit cells stored in uint8 arrays."""
    import numpy as np

    from geotrellis_contrib_ray.core.celltype import CellType
    from geotrellis_contrib_ray.core.grid import Extent, GridExtent, LayoutDefinition
    from geotrellis_contrib_ray.sources.raster_source import InMemoryRasterSource
    from geotrellis_contrib_ray.stages import raster as rst

    grid = GridExtent(Extent(0.0, 0.0, 640.0, 640.0), 10.0, 10.0, 64, 64)
    rng = np.random.default_rng(5)
    px = rng.integers(0, 2, (1, 64, 64)).astype(np.uint8)
    src = InMemoryRasterSource(px, grid, "EPSG:4326", CellType("bit", None))
    layout = LayoutDefinition.floating(grid, 32)
    tiles = rst.tile_dataset([src], layout)
    merged = rst.mosaic_merge(tiles, layout).to_pandas()
    assert len(merged) == 4
    assert set(merged["cell_type"]) == {"bit"}
    got = np.zeros((64, 64), np.uint8)
    for r in merged.itertuples():
        t = np.frombuffer(r.pixels, np.uint8).reshape(r.band_count, r.rows, r.cols)
        c0, r0 = int(r.tile_col) * 32, int(r.tile_row) * 32
        got[r0:r0 + 32, c0:c0 + 32] = t[0]
    assert np.array_equal(got, px[0])


def test_wide_steps_bucket_count_independent(ray_session, monkeypatch):
    """mosaic_merge, pyramid_build and focal_tiles give the same per-tile
    checksums whether every tile key shares one bucket or spreads over 97.
    The 5-cell tiles are odd-sized: a pyramid parent must not depend on the
    order its children arrive in."""
    from geotrellis_contrib_ray.stages import joins

    rng = np.random.default_rng(5)
    g1 = GridExtent(Extent(0.0, 0.0, 400.0, 300.0), 10.0, 10.0, 40, 30)
    g2 = GridExtent(Extent(150.0, 0.0, 550.0, 300.0), 10.0, 10.0, 40, 30)
    a = InMemoryRasterSource(rng.integers(0, 100, (1, 30, 40)).astype(np.float64), g1)
    b = InMemoryRasterSource(rng.integers(0, 100, (1, 30, 40)).astype(np.float64), g2)
    layout = LayoutDefinition(Extent(0.0, 0.0, 550.0, 300.0), 5, 5, 11, 6)

    def checksums(ds):
        df = rst.summarize_tiles(ds).to_pandas()
        return df.sort_values(["tile_col", "tile_row"]).reset_index(drop=True)

    runs = []
    for n in (1, 97):
        monkeypatch.setattr(joins, "_bucket_count", lambda ds, n=n: n)
        tiles = rst.tile_dataset([a, b], layout)
        mosaic = rst.mosaic_merge(tiles, layout).materialize()
        runs.append([checksums(mosaic),
                     *[checksums(lvl) for lvl in rst.pyramid_build(mosaic, 2, layout)[1:]],
                     checksums(rst.focal_tiles(mosaic, op="sum", radius=1))])
    assert [len(t) for t in runs[0]] == [66, 18, 6, 66]
    for x, y in zip(*runs):
        assert x.equals(y)


def test_tile_table_equals_from_pylist(monkeypatch):
    """The column-wise tile-table builder gives what from_pylist gives over
    bytes pixels, for tile rows, focal fragments and no rows at all; rows
    that hold their pixel arrays (as tile_row keeps them, one of them not
    C-contiguous) give the same table, and so does a pixel column split
    into several chunks by its byte limit."""
    import pyarrow as pa

    from geotrellis_contrib_ray.sources.raster_source import Raster

    rng = np.random.default_rng(3)
    arrays = [rng.integers(0, 99, (1, 4, 6)).astype(np.int16) for _ in range(3)]
    arrays[1] = np.asfortranarray(arrays[1])
    rows = [rst.tile_row(i, (i, 2 * i), Raster(px, Extent(i, 0.0, i + 1.0, 1.0)),
                         CellType("int16", -32768.0))
            for i, px in enumerate(arrays)]
    assert all(r["pixels"] is px for r, px in zip(rows, arrays))
    as_bytes = [dict(r, pixels=r["pixels"].tobytes()) for r in rows]
    for schema, rs in ((rst.TILE_SCHEMA, as_bytes), (rst.TILE_SCHEMA, []),
                       (rst._FOCAL_SCHEMA, [dict(r, pos=4) for r in as_bytes]),
                       (rst._FOCAL_SCHEMA, [])):
        got = rst._tile_table(rs, schema)
        assert got.schema == schema
        assert got.equals(pa.Table.from_pylist(rs, schema=schema))
    want = pa.Table.from_pylist(as_bytes, schema=rst.TILE_SCHEMA)
    assert rst._tile_table(rows).equals(want)
    monkeypatch.setattr(rst, "_BINARY_CHUNK_BYTES", 2 * arrays[0].nbytes)
    split = rst._tile_table(rows)
    assert [len(c) for c in split["pixels"].chunks] == [2, 1]
    assert split.equals(want)
    tb = rst._TileBatch(split)
    for i, px in enumerate(arrays):
        assert np.array_equal(tb.pixels(i), px)


def test_tile_dataset_reads_in_one_narrow_stage(ray_session, monkeypatch):
    """tile_dataset is one narrow read stage: no all-to-all in its plan,
    min(32, 2 * cpus) blocks at 1 and 4 CPUs, and for 1 and 3 sources,
    with and without a key filter, exactly the windows each source's
    layout keys read.  One source splits into contiguous row-major parts of
    its keys, of Ray's equal-split sizes."""
    import ray

    from geotrellis_contrib_ray import util
    from geotrellis_contrib_ray.stages import joins

    layout = LayoutDefinition.floating(GRID, 256)
    three = [SyntheticRasterSource(GRID),
             SyntheticRasterSource(GridExtent(Extent(633000.0, 218000.0, 640000.0, 225000.0),
                                              10.0, 10.0, 700, 700), bands=2),
             SyntheticRasterSource(GridExtent(Extent(641000.0, 215000.0, 645000.0, 217000.0),
                                              10.0, 10.0, 400, 200))]

    def every_other(c, r):
        return (c + r) % 2 == 0

    def windows(sources, key_filter):
        """{(src_id, col, row): pixels} read window by window."""
        out = {}
        for sid, s in enumerate(sources):
            keys = np.asarray(layout.keys_for_extent(s.extent)).reshape(-1, 2)
            if key_filter is not None:
                keys = keys[key_filter(keys[:, 0], keys[:, 1])]
            for c, r in keys:
                raster = s.read(layout.key_extent(int(c), int(r)))
                if raster is not None:
                    out[(sid, int(c), int(r))] = raster.pixels
        return out

    for cpus in (1, 4):
        monkeypatch.setattr(util, "cluster_cpus", lambda default=4, cpus=cpus: cpus)
        blocks = min(32, 2 * cpus)
        for sources in (three[:1], three):
            for key_filter in (None, every_other):
                ds = rst.tile_dataset(sources, layout, key_filter=key_filter)
                assert not joins._has_all_to_all(ds)
                mat = ds.materialize()
                assert mat.num_blocks() == blocks
                want = windows(sources, key_filter)
                got = mat.take_all()
                assert sorted(want) == sorted((r["src_id"], r["tile_col"], r["tile_row"])
                                              for r in got)
                for r in got:
                    px = want[(r["src_id"], r["tile_col"], r["tile_row"])]
                    assert np.array_equal(rst.tile_pixels(r), px)
        keys = [tuple(k) for k in np.asarray(layout.keys_for_extent(GRID.extent)).reshape(-1, 2)]
        parts = [[(c, r) for c, r in zip(t["tile_col"].to_pylist(), t["tile_row"].to_pylist())]
                 for t in ray.get(rst.tile_dataset(three[:1], layout).materialize().to_arrow_refs())]
        assert sorted(map(len, parts)) == sorted(np.diff(len(keys) * np.arange(blocks + 1) // blocks))
        for part in parts:
            i = keys.index(part[0])
            assert part == keys[i:i + len(part)]


def test_pyramid_level_blocks_follow_the_plan(tile_ds):
    """On the 4-CPU fixture: tile_dataset reads its requests in
    min(32, 2 * cpus) blocks; a pyramid level over the materialized 36-tile
    layer (a plan leaf that reports its bytes, far below one block) gives
    at most cpus blocks, while over the lazy tile_dataset it keeps
    _default_shuffle_partitions(), and so does the focal step over the
    materialized layer (its halo route copies tiles).  Per-tile checksums
    agree at every level."""
    from geotrellis_contrib_ray.stages import joins
    from geotrellis_contrib_ray.stages.agg import _default_shuffle_partitions
    from geotrellis_contrib_ray.util import cluster_cpus

    lazy, _src, layout = tile_ds
    cpus = cluster_cpus()
    assert cpus == 4
    mat = lazy.materialize()
    assert mat.num_blocks() == min(32, 2 * cpus)
    assert joins._shuffle_blocks([(lazy, None)]) == _default_shuffle_partitions()
    assert joins._shuffle_blocks([(mat, None)]) == cpus
    assert rst.focal_tiles(mat).materialize().num_blocks() == _default_shuffle_partitions()

    def checksums(ds):
        df = rst.summarize_tiles(ds).to_pandas()
        return df.sort_values(["tile_col", "tile_row"]).reset_index(drop=True)

    narrowed, cur, lay = [], mat, layout
    for _ in range(2):
        cur = rst.pyramid_build(cur, 1, lay)[1].materialize()
        assert cur.num_blocks() <= cpus
        narrowed.append(checksums(cur))
        # the next level's layout: same top-left corner, tiles twice as wide
        cols, rows = -(-lay.layout_cols // 2), -(-lay.layout_rows // 2)
        tw, th = 2.0 * lay.tile_width, 2.0 * lay.tile_height
        lay = LayoutDefinition(Extent(lay.extent.xmin, lay.extent.ymax - rows * th,
                                      lay.extent.xmin + cols * tw, lay.extent.ymax),
                               lay.tile_cols, lay.tile_rows, cols, rows)
    default = [checksums(lvl) for lvl in rst.pyramid_build(lazy, 2, layout)[1:]]
    assert [len(t) for t in narrowed] == [9, 4]
    for x, y in zip(narrowed, default):
        assert x.equals(y)


def test_summarize_tiles_runs_once(ray_session, tmp_path):
    """summarize_tiles is an action: its plan runs once, at call time, and
    to_arrow_refs(), schema() and to_pandas() read the result without a
    second run (a lazy map_batches output would run again under limit(1)
    to learn its schema).  A pass-through UDF in front of the kernel counts
    in marker files how often the plan runs over each block; over that lazy
    input the stats list the summarize operator.  Over the materialized
    layer each block is summarized in a plain task (a FromArrow result),
    equal to the same kernel as a plain ``map_batches``."""
    import uuid

    import pyarrow as pa
    import ray
    import ray.data as rd

    rng = np.random.default_rng(3)
    px = rng.integers(0, 100, (1, 12, 14)).astype(np.int16)
    px[0, rng.integers(0, 12, 20), rng.integers(0, 14, 20)] = -1
    grid = GridExtent(Extent(0.0, 0.0, 14.0, 12.0), 1.0, 1.0, 14, 12)
    src = InMemoryRasterSource(px, grid, _cell_type=CellType("int16", -1.0))
    layout = LayoutDefinition(Extent(0.0, -3.0, 15.0, 12.0), 5, 5, 3, 3)
    tiles = rst.tile_dataset([src], layout).materialize()
    marks = tmp_path / "marks"
    marks.mkdir()

    def count(b: pa.Table) -> pa.Table:
        (marks / uuid.uuid4().hex).touch()
        return b

    def counted():
        return tiles.map_batches(count, batch_format="pyarrow", zero_copy_batch=True,
                                 batch_size=None)

    assert counted().materialize().count() == 9
    one_pass = len(list(marks.iterdir()))
    assert one_pass == tiles.num_blocks()
    out = rst.summarize_tiles(counted())
    assert len(list(marks.iterdir())) == 2 * one_pass
    assert out.schema(fetch_if_missing=False) is not None
    refs = out.to_arrow_refs()
    out.schema()
    df = out.to_pandas()
    assert len(list(marks.iterdir())) == 2 * one_pass
    assert pa.concat_tables(ray.get(refs)).num_rows == len(df) == 9
    assert "summarize" in out.stats()

    def rows(frame):
        return frame.sort_values(["tile_col", "tile_row"]).reset_index(drop=True)

    n_valid = {}
    for nodata_aware in (True, False):
        for include_dims in (True, False):
            out = rst.summarize_tiles(tiles, nodata_aware=nodata_aware, include_dims=include_dims)
            # a materialized layer is summarized in plain tasks (joins._leaf_map)
            assert type(out._logical_plan.dag).__name__ == "FromArrow"
            got = rows(out.to_pandas())
            # the same kernel as a plain map_batches, left lazy
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(joins, "_leaf_map", lambda ds, fn, whole=False: None)
                mp.setattr(rd.Dataset, "materialize", lambda self: self)
                lazy = rst.summarize_tiles(tiles, nodata_aware=nodata_aware,
                                           include_dims=include_dims)
            assert type(lazy._logical_plan.dag).__name__ == "MapBatches"
            assert got.equals(rows(lazy.to_pandas()))
            assert ("cols" in got) == include_dims
            n_valid[nodata_aware] = got["n_valid"].sum()
    assert n_valid == {True: np.count_nonzero(px != -1), False: px.size}
