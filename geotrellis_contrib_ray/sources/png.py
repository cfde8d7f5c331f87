"""World-file PNG RasterSource — the second REAL on-disk format behind the
SPI reader registry (after tiff.py), proving the registry's claim that new
formats plug in without touching engine code.

Georeferencing follows the GDAL world-file convention (a `.pgw` sidecar with
6 lines: x-cellsize, y-rotation, x-rotation, NEGATIVE y-cellsize, then the
CENTER coordinates of the upper-left pixel) — the classic way to serve
non-geo formats (PNG/JPEG/BMP) as rasters.  Reference parity: the DataPath /
SPI surface (CHANGELOG.md:52 "SPI interface for RasterSource").

PNG has no internal tiling or overviews, so the WHOLE image decodes on first
read and windowed reads slice the cached array — the honest cost model of
the format (GDAL does the same for PNG).  The decoded array is held per
handle, and `__getstate__` ships only the path (ST1: each worker re-opens in
its own process).
"""

from __future__ import annotations

import os

import numpy as np

from ..core.celltype import CellType
from ..core.grid import Extent, GridBounds, GridExtent
from .raster_source import Raster, RasterSource
from .registry import register_scheme


def write_world_file(path: str, grid: GridExtent) -> None:
    """Write the `.pgw` sidecar for a PNG at ``path`` describing ``grid``."""
    pgw = os.path.splitext(path)[0] + ".pgw"
    lines = [
        grid.cellwidth,
        0.0,
        0.0,
        -grid.cellheight,
        grid.extent.xmin + grid.cellwidth / 2.0,
        grid.extent.ymax - grid.cellheight / 2.0,
    ]
    tmp = pgw + ".tmp"
    with open(tmp, "w") as f:
        f.write("\n".join(repr(v) for v in lines) + "\n")
    os.replace(tmp, pgw)


def read_world_file(path: str, cols: int, rows: int) -> GridExtent:
    """`.pgw` sidecar -> GridExtent (no rotation supported)."""
    pgw = os.path.splitext(path)[0] + ".pgw"
    with open(pgw) as f:
        vals = [float(line.strip()) for line in f if line.strip()]
    cw, ry, rx, nch, cx, cy = vals[:6]
    if rx != 0.0 or ry != 0.0:
        raise ValueError("rotated world files are not supported")
    ch = -nch
    xmin = cx - cw / 2.0
    ymax = cy + ch / 2.0
    ext = Extent(xmin, ymax - rows * ch, xmin + cols * cw, ymax)
    return GridExtent(ext, cw, ch, cols, rows)


class PngRasterSource(RasterSource):
    """World-file-georeferenced PNG: 8-bit RGB/RGBA bands, uint8 cells."""

    def __init__(self, path: str):
        self.path = path
        self.decode_count = 0  # observable: image must decode exactly once
        self._pixels: np.ndarray | None = None
        self._grid: GridExtent | None = None

    def __getstate__(self):
        return {"path": self.path}

    def __setstate__(self, state):
        self.__init__(state["path"])

    def _load(self) -> np.ndarray:
        if self._pixels is None:
            from ..functions.codecs import decode_png

            with open(self.path, "rb") as f:
                img = decode_png(f.read())  # (rows, cols, channels)
            self.decode_count += 1
            self._pixels = np.ascontiguousarray(np.moveaxis(img, 2, 0))
            self._grid = read_world_file(self.path, img.shape[1], img.shape[0])
        return self._pixels

    @property
    def crs(self):
        return "EPSG:4326"

    @property
    def grid(self) -> GridExtent:
        self._load()
        return self._grid

    @property
    def cell_type(self) -> CellType:
        return CellType("uint8", None)

    @property
    def band_count(self) -> int:
        return self._load().shape[0]

    def read_bounds(self, bounds: GridBounds, bands=None):
        px = self._load()
        inter = bounds.intersection(self.grid_bounds)
        if inter is None:
            return None
        sel = px if bands is None else px[list(bands)]
        window = sel[:, inter.row_min : inter.row_max + 1,
                     inter.col_min : inter.col_max + 1]
        return Raster(window.copy(), self.grid.extent_for(inter, clamp=True))


def _png_factory(uri: str):
    # png:///abs/path.png
    from urllib.parse import urlparse

    p = urlparse(uri)
    return PngRasterSource(p.path)


register_scheme("png", _png_factory)
