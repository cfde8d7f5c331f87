"""RasterSource algebra vs FIXTURES.md §4-6 goldens (pure, no Ray)."""

import numpy as np
import pytest

from geotrellis_contrib_ray.core.celltype import CellType
from geotrellis_contrib_ray.core.crs import EPSG_4326, LocalAffineCRS
from geotrellis_contrib_ray.core.grid import Extent, GridBounds, GridExtent
from geotrellis_contrib_ray.sources.raster_source import (
    InMemoryRasterSource,
    MosaicRasterSource,
    SyntheticRasterSource,
)

EXT = Extent(630000.0, 215000.0, 645000.0, 228500.0)
GRID = GridExtent(EXT, 10.0, 10.0, 1500, 1350)
LOCAL_CRS = LocalAffineCRS("local-26711", lon0=-115.0, lat0=30.0, sx=90000.0, sy=110000.0)


def make_source(bands=1):
    return SyntheticRasterSource(GRID, _crs=LOCAL_CRS, bands=bands)


def test_metadata_surface():
    s = make_source(3)
    assert s.dimensions == (1500, 1350)
    assert s.size == 1500 * 1350
    assert s.cell_size == (10.0, 10.0)
    assert s.band_count == 3
    assert s.cell_type.name == "int16nd"  # -32768 is the int16 default nodata
    assert len(s.resolutions) == 3  # base + /2 + /4 overviews


def test_read_no_intersection_returns_none():
    # Extent(0,0,1,1) -> None (GeoTiffRasterSourceMultiThreadingSpec Option effect)
    assert make_source().read(Extent(0.0, 0.0, 1.0, 1.0)) is None


def test_read_subwindow_values():
    s = make_source()
    r = s.read(Extent(630000.0, 215000.0, 639000.0, 219500.0))
    assert r is not None
    assert r.pixels.shape == (1, 450, 900)
    # value(col,row) = (row*cols + col) % 2^15; window starts at col 0, row 900
    assert r.pixels[0, 0, 0] == (900 * 1500 + 0) % (1 << 15)
    assert r.extent == Extent(630000.0, 215000.0 + 4500.0 - 4500.0, 639000.0, 219500.0)


def test_full_read_then_windows_count():
    # count invariant: reads == windows (GeotrellisRasterSourceBench.scala:48-50)
    s = make_source()
    windows = s.grid_bounds.split(256, 256)
    rasters = s.read_bounds_multi(windows)
    assert len(rasters) == len(windows) == 36
    total = sum(r.pixels.shape[1] * r.pixels.shape[2] for r in rasters)
    assert total == s.size


def test_resample_dims():
    # resample to 0.95*(cols,rows) (FIXTURES §4)
    s = make_source()
    rs_ = s.resample(int(1500 * 0.95), int(1350 * 0.95))
    assert rs_.dimensions == (1425, 1282)
    r = rs_.read()
    assert r.pixels.shape == (1, 1282, 1425)


def test_reproject_short_circuit():
    s = make_source()
    assert s.reproject(LOCAL_CRS) is s  # RasterSourceF.scala:51-53


def test_reproject_to_4326_roundtrip_values():
    s = make_source()
    rp = s.reproject(EPSG_4326)
    assert rp.crs == EPSG_4326
    r = rp.read()
    assert r is not None
    # same pixel budget (round semantics), values drawn from source
    assert r.pixels.shape == (1, 1350, 1500)
    valid = r.pixels[r.pixels != -32768]
    assert len(valid) > 0.95 * r.pixels.size


def test_convert_post_hook():
    s = make_source().convert(CellType.of("float32nd"))
    r = s.read(Extent(630000.0, 228400.0, 630100.0, 228500.0))
    assert r.pixels.dtype == np.float32
    assert r.pixels[0, 0, 0] == 0.0  # (0*1500+0) % 2^15


def test_interpret_as_metadata_only():
    s = make_source().interpret_as(-1.0)
    assert s.cell_type.nodata == -1.0
    r = s.read(Extent(630000.0, 228400.0, 630100.0, 228500.0))
    assert r.pixels[0, 0, 1] == 1  # values untouched


def test_closest_overview_selection():
    s = make_source()
    assert s.closest_resolution(10.0).cellwidth == 10.0
    assert s.closest_resolution(25.0).cellwidth == 20.0
    assert s.closest_resolution(100.0).cellwidth == 40.0


def test_mosaic_combined_grid_and_celltype():
    # FIXTURES §6: 10m & 20m half-overlapping sources
    g1 = GridExtent(Extent(0.0, 0.0, 100.0, 100.0), 10.0, 10.0, 10, 10)
    g2 = GridExtent(Extent(50.0, 0.0, 150.0, 100.0), 20.0, 20.0, 5, 5)
    a = InMemoryRasterSource(np.full((1, 10, 10), 1.0), g1, _cell_type=CellType.of("int16nd"))
    b = InMemoryRasterSource(np.full((1, 5, 5), 2.0), g2, _cell_type=CellType.of("float32"))
    m = MosaicRasterSource([a, b])
    assert m.cell_type.dtype == "float32"  # int16 ∪ float32
    assert m.grid.cellwidth == 10.0  # min cellSize wins
    assert m.extent == Extent(0.0, 0.0, 150.0, 100.0)
    assert m.grid.cols == 15 and m.grid.rows == 10  # round, not ceil


def test_mosaic_first_non_nodata_wins():
    g1 = GridExtent(Extent(0.0, 0.0, 100.0, 100.0), 10.0, 10.0, 10, 10)
    g2 = GridExtent(Extent(50.0, 0.0, 150.0, 100.0), 10.0, 10.0, 10, 10)
    pa_ = np.full((1, 10, 10), 1.0)
    pa_[0, :, :2] = np.nan  # a has nodata in its left edge
    a = InMemoryRasterSource(pa_, g1)
    b = InMemoryRasterSource(np.full((1, 10, 10), 2.0), g2)
    m = MosaicRasterSource([a, b])
    r = m.read()
    px = r.pixels[0]
    # overlap region x in [50,100): a's value (first source) wins
    grid = m.grid
    col_overlap = int((60.0 - 0.0) / grid.cellwidth)
    assert px[5, col_overlap] == 1.0
    # b-only region
    col_b = int((120.0 - 0.0) / grid.cellwidth)
    assert px[5, col_b] == 2.0
    # a's nodata cells in non-overlap remain nodata
    assert np.isnan(px[5, 0])


def test_view_chain_compose():
    # reproject -> resample -> convert chains like the GDAL options fold
    s = make_source().reproject(EPSG_4326).resample(750, 675).convert(CellType.of("int32nd"))
    r = s.read()
    assert r.pixels.shape == (1, 675, 750)
    assert r.pixels.dtype == np.int32


def test_resample_routes_through_overview():
    # T4: a coarse resample reads the /4 overview, not full resolution
    s = make_source()
    coarse = s.resample_to_cell_size(40.0, 40.0)
    r = coarse.read()
    assert r is not None
    assert getattr(s, "overview_reads", 0) >= 1
    # a native-resolution resample does NOT touch overviews
    s2 = make_source()
    s2.resample(1400, 1300).read()
    assert getattr(s2, "overview_reads", 0) == 0


def test_multiband_band_selection():
    s = make_source(bands=3)
    r = s.read(Extent(630000.0, 228400.0, 630100.0, 228500.0), bands=[2])
    assert r.pixels.shape[0] == 1
    assert r.pixels[0, 0, 0] == 2  # value(0,0,band=2)
    r2 = s.read(Extent(630000.0, 228400.0, 630100.0, 228500.0), bands=[0, 2])
    assert r2.pixels.shape[0] == 2
    assert r2.pixels[1, 0, 0] - r2.pixels[0, 0, 0] == 2


def test_metadata_domains_and_band_attributes():
    s = make_source(2)
    assert s.metadata_for_domain("") == s.attributes
    assert s.metadata_for_domain("nonexistent") == {}
    assert s.attributes_for_band(1)["band"] == "1"


def test_reader_registry():
    from geotrellis_contrib_ray.sources.registry import (
        register_scheme,
        registered_schemes,
        source_for_uri,
    )

    s = source_for_uri("synthetic://100x50@10")
    assert s.dimensions == (100, 50)
    assert "synthetic" in registered_schemes()

    class Custom:
        def __init__(self, uri):
            self.uri = uri

    register_scheme("custom", Custom)
    assert source_for_uri("custom://abc").uri == "custom://abc"
    import pytest as _pytest

    with _pytest.raises(KeyError):
        source_for_uri("unknown://x")


def test_reproject_routes_through_overview():
    """GeoTiffReprojectRasterSource.scala:92-103: reproject back-projects the
    target cell size and reads the closest base overview."""
    grid = GridExtent(Extent(-10.0, 40.0, -9.0, 41.0), 0.001, 0.001, 1000, 1000)
    src = SyntheticRasterSource(grid)
    # target grid in 3857, 8x coarser than base -> overview (/4) is closest
    from geotrellis_contrib_ray.core.crs import Transformer

    fwd = Transformer("EPSG:4326", "EPSG:3857")
    x0, y0 = fwd.transform(np.array([-10.0]), np.array([40.0]))
    x1, y1 = fwd.transform(np.array([-9.0]), np.array([41.0]))
    tgt = GridExtent(Extent(float(x0[0]), float(y0[0]), float(x1[0]), float(y1[0])), 
                     (float(x1[0]) - float(x0[0])) / 125, (float(y1[0]) - float(y0[0])) / 125, 125, 125)
    rp = src.reproject("EPSG:3857", target_grid=tgt)
    before = getattr(src, "overview_reads", 0)
    out = rp.read()
    assert out is not None and out.pixels.shape == (1, 125, 125)
    assert getattr(src, "overview_reads", 0) > before  # overview was used

    # strategy="base" forces full-res reads (no overview)
    rp_base = src.reproject("EPSG:3857", target_grid=tgt, strategy="base")
    before2 = getattr(src, "overview_reads", 0)
    assert rp_base.read() is not None
    assert getattr(src, "overview_reads", 0) == before2


def test_png_worldfile_source_roundtrip(tmp_path, ray_session):
    """Second real on-disk format through the SPI registry: PNG + .pgw
    world file.  Windowed reads match an in-memory source; the image
    decodes exactly once per handle; tile_dataset consumes it unchanged."""
    import numpy as np

    from geotrellis_contrib_ray.core.grid import Extent, GridBounds, GridExtent, LayoutDefinition
    from geotrellis_contrib_ray.functions.codecs import encode_png
    from geotrellis_contrib_ray.sources.png import PngRasterSource, write_world_file
    from geotrellis_contrib_ray.sources.raster_source import InMemoryRasterSource
    from geotrellis_contrib_ray.sources.registry import source_for_uri
    from geotrellis_contrib_ray.stages import raster as rst

    rng = np.random.default_rng(5)
    img = rng.integers(0, 255, size=(32, 48, 3)).astype(np.uint8)
    grid = GridExtent(Extent(100.0, 200.0, 100.0 + 48 * 0.5, 200.0 + 32 * 0.5),
                      0.5, 0.5, 48, 32)
    path = str(tmp_path / "scene.png")
    with open(path, "wb") as f:
        f.write(encode_png(img))
    write_world_file(path, grid)

    src = PngRasterSource(path)
    assert src.grid == grid
    assert src.band_count == 3
    ref = InMemoryRasterSource(np.moveaxis(img, 2, 0).astype(np.float64), grid)
    for gb in (GridBounds(0, 0, 47, 31), GridBounds(5, 3, 20, 17), GridBounds(40, 28, 47, 31)):
        got = src.read_bounds(gb)
        exp = ref.read_bounds(gb)
        assert np.array_equal(got.pixels.astype(np.float64), exp.pixels)
        assert got.extent == exp.extent
    assert src.decode_count == 1  # whole-image decode happened once
    assert src.read(Extent(0.0, 0.0, 1.0, 1.0)) is None  # no intersection

    # registry resolution + distributed tile reads
    via_registry = source_for_uri(f"png://{path}")
    assert via_registry.grid == grid
    layout = LayoutDefinition(grid.extent, 16, 16, 3, 2)
    tiles = rst.tile_dataset([via_registry], layout).take_all()
    assert len(tiles) == 6
    total = sum(np.frombuffer(t["pixels"], dtype=np.uint8).sum() for t in tiles)
    assert total == int(img.sum())


def test_reproject_error_threshold_approximation():
    """r4 (VERDICT r3 #7): errorThreshold mirrors the reference's
    accuracy/speed knob (GeoTiffReprojectRasterSource.scala:37-46).  At
    0.125 the warp interpolates the inverse transform from a coarse mesh:
    far fewer exact transform calls, while every sampled source position
    stays within the threshold (nearest-neighbor picks can differ only on
    cells whose exact position sits within 0.125 px of a pixel edge)."""
    s = make_source()
    exact_src = s.reproject(EPSG_4326)
    approx_src = s.reproject(EPSG_4326, error_threshold=0.125)

    calls = {"exact": 0, "approx": 0}

    def counting(back, key):
        orig = back.transform

        def f(x, y):
            calls[key] += len(np.atleast_1d(x))
            return orig(x, y)

        return f

    exact_src.back.transform = counting(exact_src.back, "exact")
    approx_src.back.transform = counting(approx_src.back, "approx")
    a = exact_src.read()
    b = approx_src.read()
    assert a.pixels.shape == b.pixels.shape
    # the approximate path must touch a small fraction of the cell centers
    assert calls["approx"] < 0.05 * calls["exact"], calls
    # and agree with the exact warp except at threshold-level boundary flips
    diff = np.mean(a.pixels != b.pixels)
    assert diff < 0.02, diff


def test_reproject_error_threshold_zero_is_exact():
    s = make_source()
    a = s.reproject(EPSG_4326).read()
    b = s.reproject(EPSG_4326, error_threshold=0.0).read()
    assert np.array_equal(a.pixels, b.pixels)


def test_aaigrid_source_roundtrip(tmp_path, ray_session):
    """THIRD real on-disk format through the SPI registry: ESRI ASCII grid.
    Int sniffing, NODATA, xllcenter variant, windowed reads, parse-once,
    and tile_dataset consumption."""
    from geotrellis_contrib_ray.core.grid import LayoutDefinition
    from geotrellis_contrib_ray.sources.aaigrid import (
        AsciiGridRasterSource,
        write_aaigrid,
    )
    from geotrellis_contrib_ray.sources.raster_source import InMemoryRasterSource
    from geotrellis_contrib_ray.sources.registry import source_for_uri
    from geotrellis_contrib_ray.stages import raster as rst

    grid = GridExtent(Extent(10.0, 20.0, 10.0 + 40 * 0.5, 20.0 + 30 * 0.5),
                      0.5, 0.5, 40, 30)
    vals = (np.arange(30 * 40).reshape(30, 40) % 97).astype(np.int32)
    vals[0, 0] = -9999
    path = str(tmp_path / "dem.asc")
    write_aaigrid(path, vals, grid, nodata=-9999)

    src = AsciiGridRasterSource(path)
    assert src.cell_type.dtype == "int32" and src.cell_type.nodata == -9999
    assert src.dimensions == (40, 30)
    assert src.grid.extent == grid.extent
    r = src.read()
    assert np.array_equal(r.pixels[0], vals)
    w = src.read_bounds(GridBounds(5, 5, 15, 12))
    assert np.array_equal(w.pixels[0], vals[5:13, 5:16])
    assert src.parse_count == 1  # memoized

    # registry + tile_dataset parity with the in-memory source
    via_uri = source_for_uri(f"asc://{path}")
    assert np.array_equal(via_uri.read().pixels, r.pixels)
    layout = LayoutDefinition.floating(grid, 16)
    got = rst.tile_dataset([src], layout).to_pandas()
    exp = rst.tile_dataset(
        [InMemoryRasterSource(vals[None], grid, "EPSG:4326", src.cell_type)],
        layout).to_pandas()
    key = ["tile_col", "tile_row"]
    got = got.sort_values(key).reset_index(drop=True)
    exp = exp.sort_values(key).reset_index(drop=True)
    assert len(got) == len(exp) > 0
    assert all(a == b for a, b in zip(got["pixels"], exp["pixels"]))

    # float values + xllcenter header variant
    p2 = str(tmp_path / "f.asc")
    with open(p2, "w") as f:
        f.write("ncols 3\nnrows 2\nxllcenter 0.25\nyllcenter 0.25\n"
                "cellsize 0.5\n1.5 2 3\n4 5 6.25\n")
    s2 = AsciiGridRasterSource(p2)
    assert s2.cell_type.dtype == "float64"
    assert s2.grid.extent.xmin == 0.0 and s2.grid.extent.ymin == 0.0
    assert s2.read().pixels[0].tolist() == [[1.5, 2.0, 3.0], [4.0, 5.0, 6.25]]


def test_aaigrid_int_outside_int32_stays_float64(tmp_path):
    """r5 ADVICE: integral values beyond int32 range must NOT wrap via the
    int32 sniff cast — they fall back to float64 (exact for the text parse's
    own float64 values)."""
    from geotrellis_contrib_ray.sources.aaigrid import (
        AsciiGridRasterSource,
        write_aaigrid,
    )

    grid = GridExtent(Extent(0.0, 0.0, 2.0, 1.0), 1.0, 1.0, 2, 1)
    big = float(2**40)  # integral, far outside int32
    vals = np.array([[big, 7.0]], dtype=np.float64)
    path = str(tmp_path / "big.asc")
    write_aaigrid(path, vals, grid, nodata=None)
    src = AsciiGridRasterSource(path)
    assert src.cell_type.dtype == "float64"
    assert src.read().pixels[0, 0, 0] == big  # no wrap

    # in-range integral corpus still sniffs to int32
    small = np.array([[1.0, -2.0]], dtype=np.float64)
    p2 = str(tmp_path / "small.asc")
    write_aaigrid(p2, small, grid, nodata=None)
    assert AsciiGridRasterSource(p2).cell_type.dtype == "int32"
