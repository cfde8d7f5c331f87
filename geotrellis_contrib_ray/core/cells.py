"""Hierarchical spatial cell index (H3/S2 stand-in) + ZXY web-mercator tiles.

The reference keys spatial work on ``SpatialKey`` tile ids derived from a layout
(GeotrellisRasterSourceBench.scala:34-41); the north star additionally wants
H3/S2-style hierarchical cells with ``cell_to_parent`` aggregation.  No H3/S2
native lib is available here, so we implement a deterministic **quadtree cell
scheme** with the same algebra (fixed hierarchy, exact parent/child, packed
int64 ids) over the equirectangular WGS84 grid:

    res r:  world split into 2^(r+1) columns x 2^r rows  (x: lon, y: lat)
    cell id (int64): (r << 58) | (x << 29) | y     -- pure integer arithmetic,
    reproducible in ANSI SQL: r*2^58 + x*2^29 + y

Everything is vectorized numpy over float64 columns; these run inside
``map_batches`` on zero-copy Arrow batches.
"""

from __future__ import annotations

import numpy as np

MAX_RES = 28  # 2^29 fits in the 29-bit x field

_RES_SHIFT = 58
_X_SHIFT = 29
_MASK29 = (1 << 29) - 1


def _ncols(res) -> np.ndarray:
    return np.int64(1) << (np.asarray(res, dtype=np.int64) + 1)


def _nrows(res) -> np.ndarray:
    return np.int64(1) << np.asarray(res, dtype=np.int64)


def latlng_to_cell_xy(lat, lng, res: int):
    """Vectorized (lat, lng) -> integer (x, y) cell coordinates at ``res``.

    x grows eastward from lon=-180, y grows northward from lat=-90 (so the
    packed id is monotone in (lon, lat) per axis — useful for range pruning).
    """
    lat = np.asarray(lat, dtype=np.float64)
    lng = np.asarray(lng, dtype=np.float64)
    nx = np.int64(2) ** (res + 1)
    ny = np.int64(2) ** res
    x = np.floor((lng + 180.0) / 360.0 * nx).astype(np.int64)
    y = np.floor((lat + 90.0) / 180.0 * ny).astype(np.int64)
    x = np.clip(x, 0, nx - 1)
    y = np.clip(y, 0, ny - 1)
    return x, y


def pack_cell(res, x, y):
    """(res, x, y) -> packed int64 id: res*2^58 + x*2^29 + y (SQL-expressible)."""
    res = np.asarray(res, dtype=np.int64)
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    return (res << _RES_SHIFT) | (x << _X_SHIFT) | y


def unpack_cell(cell):
    cell = np.asarray(cell, dtype=np.int64)
    res = cell >> _RES_SHIFT
    x = (cell >> _X_SHIFT) & _MASK29
    y = cell & _MASK29
    return res, x, y


def latlng_to_cell(lat, lng, res: int):
    """Vectorized (lat, lng) -> packed cell id at resolution ``res``."""
    x, y = latlng_to_cell_xy(lat, lng, res)
    return pack_cell(res, x, y)


def cell_to_parent(cell, parent_res: int | None = None):
    """Exact hierarchical parent (A7 pyramid aggregation).  Defaults to res-1."""
    res, x, y = unpack_cell(cell)
    if parent_res is None:
        pres = res - 1
    else:
        pres = np.full_like(res, parent_res)
    shift = res - pres
    if np.any(shift < 0):
        raise ValueError("parent_res must be <= cell res")
    return pack_cell(pres, x >> shift, y >> shift)


def cell_bounds(cell):
    """(lat_min, lng_min, lat_max, lng_max) of each cell."""
    res, x, y = unpack_cell(cell)
    nx = (np.int64(1) << (res + 1)).astype(np.float64)
    ny = (np.int64(1) << res).astype(np.float64)
    lng0 = x.astype(np.float64) / nx * 360.0 - 180.0
    lat0 = y.astype(np.float64) / ny * 180.0 - 90.0
    return lat0, lng0, lat0 + 180.0 / ny, lng0 + 360.0 / nx


# --- Web-mercator ZXY (slippy-map) tiles -----------------------------------


def lnglat_to_zxy(lng, lat, zoom: int):
    """Vectorized slippy-map tile assignment (standard OSM formula).

    Library/pytest path only — the DuckDB-checked queries use the linear
    ``LayoutDefinition`` tiling to avoid cross-libm tan/log divergence.
    """
    lng = np.asarray(lng, dtype=np.float64)
    lat = np.asarray(lat, dtype=np.float64)
    n = np.float64(2.0**zoom)
    xt = np.floor((lng + 180.0) / 360.0 * n).astype(np.int64)
    lat_r = np.radians(np.clip(lat, -85.05112878, 85.05112878))
    yt = np.floor((1.0 - np.arcsinh(np.tan(lat_r)) / np.pi) / 2.0 * n).astype(np.int64)
    np.clip(xt, 0, int(n) - 1, out=xt)
    np.clip(yt, 0, int(n) - 1, out=yt)
    return xt, yt
