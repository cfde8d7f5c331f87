"""In-process kernel harness: the per-row numpy kernels of ``core``,
``sources``, ``pipelines``, ``stages.spatial`` and ``state``, timed without
Ray on seeded arrays of fixed size.

Each kernel gets one untimed warm-up call, then is repeated until it has run
for at least ``MIN_TIME_S`` (and at least ``MIN_REPS`` times); the metric is
the median call time divided by the rows of one call.  Kernels are looked
up on their modules at call time, so a patched module function is timed as
patched.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

N_POINTS = 200_000       # rows per call of the point kernels
N_DOCS = 50_000          # documents per call of the flagship batch kernels
N_INDEX_POINTS = 5_000   # points per index: one sf0.1 documents table
TIFF_SIZE = 1024         # kernel GeoTIFF: 1024 x 1024 int16, 256-px tiles
WINDOW = 384             # straddling window, as in the raster_tiles layout
MIN_TIME_S = 0.2
MIN_REPS = 5
METRICS = (
    "core.cells.latlng_to_cell_ns", "core.cells.cell_to_parent_ns", "core.grid.key_for_point_ns",
    "core.geom.box_contains_ns", "core.geom.convex_contains_ns", "core.crs.transform_ns",
    "sources.documents.geocode_ids_ns", "sources.tiff.read_window_cold_us",
    "sources.tiff.read_window_warm_us", "pipelines.flagship.explode_media_spans_ns",
    "stages.spatial.add_tile_key_ns", "stages.spatial.add_cell_ns",
    "stages.spatial.zone_matcher_ns", "state.rtree.point_build_us", "state.rtree.nearest_k_us",
    "state.spatial_index.nearest_k_bulk_us",
)


def _time_per_call(fn, setup=None) -> float:
    """Median seconds of ``fn(setup())`` after one untimed warm-up."""
    arg = setup() if setup else None
    fn(arg)
    times: list[float] = []
    t_end = time.perf_counter() + MIN_TIME_S
    while len(times) < MIN_REPS or time.perf_counter() < t_end:
        arg = setup() if setup else None
        t0 = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _kernel_tiff(work_dir: str, seed: int) -> str:
    from geotrellis_contrib_ray.core.celltype import CellType
    from geotrellis_contrib_ray.core.grid import Extent, GridExtent
    from geotrellis_contrib_ray.sources import tiff

    path = os.path.join(work_dir, "kernel.tif")
    rng = np.random.default_rng(seed)
    px = (np.cumsum(rng.integers(-3, 4, size=(TIFF_SIZE, TIFF_SIZE)), axis=1) % 30000).astype(np.int16)
    grid = GridExtent(Extent(0.0, 0.0, TIFF_SIZE * 10.0, TIFF_SIZE * 10.0), 10.0, 10.0,
                      TIFF_SIZE, TIFF_SIZE)
    tiff.write_tiff(path, px[None], grid, cell_type=CellType("int16", -32768.0),
                    compression="deflate", predictor=2, tile_size=256)
    return path


def run(work_dir: str, seed: int) -> dict[str, float]:
    """Every metric in ``METRICS``: ns per row, or us per call."""
    from geotrellis_contrib_ray.core import cells, crs, geom
    from geotrellis_contrib_ray.core.grid import Extent
    from geotrellis_contrib_ray.pipelines import flagship, query_defs as qd
    from geotrellis_contrib_ray.sources import documents, tiff
    from geotrellis_contrib_ray.stages import spatial
    from geotrellis_contrib_ray.state import rtree, spatial_index

    rng = np.random.default_rng(seed)
    lon = rng.uniform(-80.33, -75.03, N_POINTS)
    lat = rng.uniform(39.70, 42.10, N_POINTS)
    ids = rng.integers(0, 1 << 40, N_POINTS)
    offs = rng.integers(0, 600, N_POINTS)
    cell = cells.latlng_to_cell(lat, lon, qd.CELL_RES)
    _, x0, y0, x1, y1 = qd.ZONE_BOXES[0]
    to_lcc = crs.Transformer(crs.EPSG_4326, qd.lambert_query_crs())

    docs = documents.docs_to_spans(documents.synth_flat_docs(
        np.arange(N_DOCS, dtype=np.int64) + seed * N_DOCS))
    pts = flagship.explode_media_spans(docs)
    keyed = spatial.add_cell(spatial.add_tile_key(pts, qd.QUERY_LAYOUT), qd.CELL_RES, qd.PARENT_RES)
    matcher = spatial.ZoneMatcher(qd.ZONE_BOXES, [qd.ZONE_CONVEX],
                                  keep_cols=("doc_id", "num_id", "cell", "parent_cell"))

    ns = 1e9 / N_POINTS
    out = {
        "core.cells.latlng_to_cell_ns":
            _time_per_call(lambda _: cells.latlng_to_cell(lat, lon, qd.CELL_RES)) * ns,
        "core.cells.cell_to_parent_ns":
            _time_per_call(lambda _: cells.cell_to_parent(cell, qd.PARENT_RES)) * ns,
        "core.grid.key_for_point_ns":
            _time_per_call(lambda _: qd.QUERY_LAYOUT.key_for_point(lon, lat)) * ns,
        "core.geom.box_contains_ns":
            _time_per_call(lambda _: geom.box_contains_points(lon, lat, x0, y0, x1, y1)) * ns,
        "core.geom.convex_contains_ns":
            _time_per_call(lambda _: geom.convex_contains_points(lon, lat, qd.ZONE_CONVEX[1])) * ns,
        "core.crs.transform_ns": _time_per_call(lambda _: to_lcc.transform(lon, lat)) * ns,
        "sources.documents.geocode_ids_ns":
            _time_per_call(lambda _: documents.geocode_ids(ids, offs)) * ns,
        "pipelines.flagship.explode_media_spans_ns":
            _time_per_call(lambda _: flagship.explode_media_spans(docs)) * 1e9 / N_DOCS,
    }
    n_pts = len(pts)
    out["stages.spatial.add_tile_key_ns"] = _time_per_call(
        lambda _: spatial.add_tile_key(pts, qd.QUERY_LAYOUT)) * 1e9 / n_pts
    out["stages.spatial.add_cell_ns"] = _time_per_call(
        lambda _: spatial.add_cell(pts, qd.CELL_RES, qd.PARENT_RES)) * 1e9 / n_pts
    out["stages.spatial.zone_matcher_ns"] = _time_per_call(lambda _: matcher(keyed)) * 1e9 / n_pts

    path = _kernel_tiff(work_dir, seed)
    aligned = Extent(0.0, (TIFF_SIZE - 256) * 10.0, 2560.0, TIFF_SIZE * 10.0)
    straddle = Extent(WINDOW * 10.0, (TIFF_SIZE - 2 * WINDOW) * 10.0, 2 * WINDOW * 10.0,
                      (TIFF_SIZE - WINDOW) * 10.0)

    def warm_source():
        src = tiff.TiffRasterSource(path)
        src.read(straddle)
        return src

    out["sources.tiff.read_window_cold_us"] = _time_per_call(
        lambda src: src.read(aligned), setup=lambda: tiff.TiffRasterSource(path)) * 1e6
    warm = warm_source()
    out["sources.tiff.read_window_warm_us"] = _time_per_call(lambda _: warm.read(straddle)) * 1e6

    ix_ids = np.arange(N_INDEX_POINTS, dtype=np.int64)
    ix_lon, ix_lat = documents.geocode_ids(ix_ids + seed * N_INDEX_POINTS)
    many = np.asarray([(q[1], q[2]) for q in qd.knn_many_queries()], dtype=np.float64)
    out["state.rtree.point_build_us"] = _time_per_call(
        lambda _: rtree.HilbertPointIndex(ix_ids, ix_lon, ix_lat)) * 1e6
    point_index = rtree.HilbertPointIndex(ix_ids, ix_lon, ix_lat)

    def probe_all(_):
        for qx, qy in many[:64]:
            point_index.nearest_k(float(qx), float(qy), qd.KNN_K)

    out["state.rtree.nearest_k_us"] = _time_per_call(probe_all) * 1e6 / 64
    grid_index = spatial_index.GridPointIndex(ix_ids, ix_lon, ix_lat)
    out["state.spatial_index.nearest_k_bulk_us"] = _time_per_call(
        lambda _: grid_index.nearest_k_bulk(many[:, 0], many[:, 1], qd.KNN_K)) * 1e6
    return out
