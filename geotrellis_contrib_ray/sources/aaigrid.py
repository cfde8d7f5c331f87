"""ESRI ASCII Grid (.asc) RasterSource — the THIRD real on-disk format
behind the SPI reader registry (after tiff.py and png.py).

Format (the classic GIS text interchange; GDAL driver "AAIGrid"):

    ncols        <int>
    nrows        <int>
    xllcorner    <float>        (or xllcenter: lower-left CELL CENTER)
    yllcorner    <float>        (or yllcenter)
    cellsize     <float>        (square cells)
    NODATA_value <float>        (optional)
    r0c0 r0c1 ...               (rows top-down, whitespace-separated)

Values parse as float64; if every value (and the NODATA sentinel) is
integral the source reports int32 cells, else float64 — the GDAL AAIGrid
type-sniffing convention.  A text format has no internal tiling, so the
whole grid parses on first read (one vectorized split+array pass)
and windowed reads slice the cached array — the honest cost model, same
as png.py.  ``__getstate__`` ships only the path (ST1 re-open per worker).
"""

from __future__ import annotations

import numpy as np

from ..core.celltype import CellType
from ..core.grid import Extent, GridBounds, GridExtent
from .raster_source import Raster, RasterSource
from .registry import register_scheme

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "xllcenter", "yllcorner",
                "yllcenter", "cellsize", "nodata_value")


def write_aaigrid(path: str, pixels: np.ndarray, grid: GridExtent, *,
                  nodata: float | None = None) -> str:
    """Write a single-band (rows, cols) array as an ESRI ASCII grid.
    Cells must be square (the format has ONE cellsize field)."""
    if pixels.ndim == 3:
        if pixels.shape[0] != 1:
            raise ValueError("AAIGrid is single-band")
        pixels = pixels[0]
    if abs(grid.cellwidth - grid.cellheight) > 1e-12:
        raise ValueError("AAIGrid requires square cells")
    lines = [
        f"ncols {grid.cols}",
        f"nrows {grid.rows}",
        f"xllcorner {grid.extent.xmin!r}",
        f"yllcorner {grid.extent.ymin!r}",
        f"cellsize {grid.cellwidth!r}",
    ]
    if nodata is not None:
        lines.append(f"NODATA_value {nodata!r}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
        for r in range(pixels.shape[0]):
            f.write(" ".join(
                repr(float(v)) if not float(v).is_integer() else str(int(v))
                for v in pixels[r]) + "\n")
    return path


class AsciiGridRasterSource(RasterSource):
    """ESRI ASCII grid source: single band, int32 or float64 cells."""

    def __init__(self, path: str):
        self.path = path
        self.parse_count = 0  # observable: text must parse exactly once
        self._pixels: np.ndarray | None = None
        self._grid: GridExtent | None = None
        self._ct: CellType | None = None

    def __getstate__(self):
        return {"path": self.path}

    def __setstate__(self, state):
        self.__init__(state["path"])

    def _load(self) -> np.ndarray:
        if self._pixels is None:
            with open(self.path) as f:
                text = f.read()
            hdr: dict[str, float] = {}
            lines = text.split("\n")
            li = 0
            while li < len(lines):
                parts = lines[li].split()
                if len(parts) == 2 and parts[0].lower() in _HEADER_KEYS:
                    hdr[parts[0].lower()] = float(parts[1])
                    li += 1
                else:
                    break
            ncols = int(hdr["ncols"])
            nrows = int(hdr["nrows"])
            cell = float(hdr["cellsize"])
            if "xllcorner" in hdr:
                xmin = hdr["xllcorner"]
            else:
                xmin = hdr["xllcenter"] - cell / 2.0
            if "yllcorner" in hdr:
                ymin = hdr["yllcorner"]
            else:
                ymin = hdr["yllcenter"] - cell / 2.0
            body = "\n".join(lines[li:])
            vals = np.array(body.split(), dtype=np.float64)
            if len(vals) != nrows * ncols:
                raise ValueError(
                    f"AAIGrid {self.path}: expected {nrows * ncols} values, "
                    f"got {len(vals)}")
            px = vals.reshape(nrows, ncols)
            nodata = hdr.get("nodata_value")
            finite = px[np.isfinite(px)]
            integral = bool(np.all(np.mod(finite, 1.0) == 0))
            # int32 only when every value (and the nodata sentinel) FITS:
            # out-of-range integral values would silently wrap on the cast
            # (r5 ADVICE) — fall back to float64, which holds any AAIGrid
            # value the float64 text parse produced in the first place
            in_i32 = bool(
                finite.size == 0
                or (finite.min() >= np.iinfo(np.int32).min
                    and finite.max() <= np.iinfo(np.int32).max))
            nodata_ok = nodata is None or (
                float(nodata).is_integer()
                and np.iinfo(np.int32).min <= float(nodata) <= np.iinfo(np.int32).max)
            if integral and in_i32 and nodata_ok:
                px = px.astype(np.int32)
                self._ct = CellType("int32", nodata)
            else:
                self._ct = CellType("float64", nodata)
            self._pixels = px[None]  # (1, rows, cols)
            ext = Extent(xmin, ymin, xmin + ncols * cell, ymin + nrows * cell)
            self._grid = GridExtent(ext, cell, cell, ncols, nrows)
            self.parse_count += 1
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
        self._load()
        return self._ct

    @property
    def band_count(self) -> int:
        return 1

    def read_bounds(self, bounds: GridBounds, bands=None):
        px = self._load()
        inter = bounds.intersection(self.grid_bounds)
        if inter is None:
            return None
        window = px[:, inter.row_min : inter.row_max + 1,
                    inter.col_min : inter.col_max + 1]
        return Raster(np.ascontiguousarray(window), self.grid.extent_for(inter, clamp=True))


def _asc_factory(uri: str):
    # asc:///abs/path.asc
    from urllib.parse import urlparse

    return AsciiGridRasterSource(urlparse(uri).path)


register_scheme("asc", _asc_factory)
