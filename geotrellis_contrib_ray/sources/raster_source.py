"""RasterSource: lazy logical rasters with composable view transforms.

Re-expresses the reference's ``RasterSourceF`` algebra (vlm/src/main/scala/
geotrellis/contrib/vlm/effect/RasterSourceF.scala:33-185) as plain Python:
a source is metadata + windowed reads; ``reproject`` / ``resample`` /
``convert`` return NEW sources that compose a logical plan (the GDAL variant
folds the chain into warp options, gdal/.../GDALRasterSource.scala:114-126 —
here the chain is explicit wrapper objects, executed lazily at read time).

Semantics carried over:
- reproject short-circuits when target CRS == source CRS (RasterSourceF.scala:51-53)
- reads clip to the data footprint; empty intersection -> None
  (GeoTiffRasterSource.scala:85, Option effect)
- overview selection: closest resolution <= requested cell size
  (GeoTiffReprojectRasterSource.scala:92-103)
- convert applies as a post-hook on every produced raster
  (convertRaster, RasterSourceF.scala:178-184)

No Ray here: sources are small picklable handles; Ray stages hold them in
per-worker state (ST1/ST2) and call ``read`` per window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core import resample as rs
from ..core.celltype import CellType, convert as ct_convert
from ..core.crs import Transformer, reproject_extent
from ..core.grid import Extent, GridBounds, GridExtent


@dataclass
class Raster:
    """Materialized window: (bands, rows, cols) pixels + georeferenced extent
    (Raster[MultibandTile], RasterSourceF.scala:105-112)."""

    pixels: np.ndarray
    extent: Extent

    @property
    def band_count(self) -> int:
        return self.pixels.shape[0]


class RasterSource:
    """Abstract lazy raster (RasterMetadataF surface, RasterMetadataF.scala:28-52)."""

    # --- metadata ----------------------------------------------------------
    @property
    def crs(self):
        raise NotImplementedError

    @property
    def grid(self) -> GridExtent:
        raise NotImplementedError

    @property
    def cell_type(self) -> CellType:
        raise NotImplementedError

    @property
    def band_count(self) -> int:
        raise NotImplementedError

    @property
    def resolutions(self) -> list[GridExtent]:
        """Overview pyramid, finest first."""
        return [self.grid]

    @property
    def attributes(self) -> dict[str, str]:
        return {}

    def attributes_for_band(self, band: int) -> dict[str, str]:
        return {}

    def metadata_for_domain(self, domain: str = "") -> dict[str, str]:
        """GDAL-style domain-selected metadata (GDALMetadataF.apply /
        metadataForDomain, gdal/.../GDALRasterSource.scala:92-97).  The empty
        domain is the default attribute map."""
        if domain == "":
            return self.attributes
        return {}

    # derived (RasterMetadataF.scala:33-41)
    @property
    def extent(self) -> Extent:
        return self.grid.extent

    @property
    def cols(self) -> int:
        return self.grid.cols

    @property
    def rows(self) -> int:
        return self.grid.rows

    @property
    def size(self) -> int:
        return self.cols * self.rows

    @property
    def dimensions(self) -> tuple[int, int]:
        return (self.cols, self.rows)

    @property
    def grid_bounds(self) -> GridBounds:
        return self.grid.grid_bounds

    @property
    def cell_size(self) -> tuple[float, float]:
        return self.grid.cell_size

    # --- reads (T7/T8) -----------------------------------------------------
    def read(self, extent: Extent | None = None, bands: list[int] | None = None) -> Optional[Raster]:
        if extent is None:
            extent = self.extent
        gb = self.grid.grid_bounds_for(extent, clamp=False)
        return self.read_bounds(gb, bands)

    def read_bounds(self, bounds: GridBounds, bands: list[int] | None = None) -> Optional[Raster]:
        raise NotImplementedError

    def read_extents(self, extents: list[Extent], bands=None) -> list[Raster]:
        """Multi-window read; empty intersections dropped (T8)."""
        out = []
        for e in extents:
            r = self.read(e, bands)
            if r is not None:
                out.append(r)
        return out

    def read_bounds_multi(self, bounds: list[GridBounds], bands=None) -> list[Raster]:
        out = []
        for b in bounds:
            r = self.read_bounds(b, bands)
            if r is not None:
                out.append(r)
        return out

    # --- view transforms (T1-T6) ------------------------------------------
    def reproject(self, target_crs, method: str = rs.NEAREST, target_grid: GridExtent | None = None,
                  strategy: str = "auto-higher", error_threshold: float = 0.0) -> "RasterSource":
        if target_crs == self.crs:  # no-op elision (RasterSourceF.scala:51-53)
            if target_grid is None:
                return self
            return self.resample_to_grid(target_grid, method, strategy)
        return ReprojectRasterSource(self, target_crs, method, target_grid, strategy,
                                     error_threshold=error_threshold)

    def reproject_to_region(self, target_crs, region: GridExtent, method: str = rs.NEAREST,
                            strategy: str = "auto-higher",
                            error_threshold: float = 0.0) -> "RasterSource":
        return self.reproject(target_crs, method, target_grid=region, strategy=strategy,
                              error_threshold=error_threshold)

    def resample(self, cols: int, rows: int, method: str = rs.NEAREST,
                 strategy: str = "auto-higher") -> "RasterSource":
        grid = GridExtent.from_extent(self.extent, cols, rows)
        return self.resample_to_grid(grid, method, strategy)

    def resample_to_grid(self, grid: GridExtent, method: str = rs.NEAREST,
                         strategy: str = "auto-higher") -> "RasterSource":
        return ResampleRasterSource(self, grid, method, strategy)

    def resample_to_cell_size(self, cellwidth: float, cellheight: float, method: str = rs.NEAREST,
                              strategy: str = "auto-higher") -> "RasterSource":
        return self.resample_to_grid(self.grid.with_resolution(cellwidth, cellheight), method, strategy)

    def convert(self, cell_type: CellType, gdal_clamp: bool = False) -> "RasterSource":
        return ConvertRasterSource(self, cell_type, gdal_clamp)

    def interpret_as(self, nodata: float | None) -> "RasterSource":
        """T10: reinterpret NoData without converting values (metadata-only)."""
        return InterpretRasterSource(self, nodata)

    # --- helpers -----------------------------------------------------------
    def closest_resolution(self, cell_size: float, strategy: str = "auto-higher") -> GridExtent:
        """Overview selection per ``OverviewStrategy``
        (GeoTiffReprojectRasterSource.scala:92-103; strategies mirror the
        reference's OverviewStrategy variants):

        - ``auto-higher`` (reference default AutoHigherResolution): the
          coarsest overview that is still NOT coarser than the requested cell
          size — never degrades below the requested resolution;
        - ``auto``: the overview whose cell size is closest to the request in
          either direction (may pick a coarser one);
        - ``base``: always the full-resolution grid;
        - ``level-N``: the N-th overview (clamped), file order.

        (ST4: memoized per (source, target grid) in reader workers; pure here.)
        """
        res = self.resolutions
        if strategy == "base":
            return res[0]
        if strategy.startswith("level-"):
            n = int(strategy.split("-", 1)[1])
            return res[min(max(n, 0), len(res) - 1)]
        if strategy == "auto":
            return min(res, key=lambda g: abs(g.cellwidth - cell_size))
        # auto-higher
        best = res[0]
        for g in res:
            if g.cellwidth <= cell_size + 1e-12:
                best = g
        return best

    def overview_source(self, grid: GridExtent) -> "RasterSource":
        """Source reading at the given overview resolution; default = self
        (sources without materialized overviews read full-res).  Overriders
        return a cheaper source for coarse reads (T4 overview routing)."""
        return self


@dataclass
class SyntheticRasterSource(RasterSource):
    """Deterministic in-process source (FIXTURES.md §4 raster_grid):
    value(col, row, band) = (row * cols + col + band) % 2^15, int16,
    nodata = -32768; overviews at /2 and /4."""

    _grid: GridExtent
    _crs: object = "EPSG:4326"
    bands: int = 1
    _cell_type: CellType = field(default_factory=lambda: CellType("int16", -32768.0))
    overview_levels: tuple = (2, 4)
    _attributes: dict = field(default_factory=dict)

    @property
    def crs(self):
        return self._crs

    @property
    def grid(self) -> GridExtent:
        return self._grid

    @property
    def cell_type(self) -> CellType:
        return self._cell_type

    @property
    def band_count(self) -> int:
        return self.bands

    @property
    def attributes(self) -> dict[str, str]:
        return dict(self._attributes)

    def metadata_for_domain(self, domain: str = "") -> dict[str, str]:
        if domain == "":
            return self.attributes
        return dict(self._attributes.get("_domains", {}).get(domain, {})) if isinstance(self._attributes.get("_domains"), dict) else {}

    def attributes_for_band(self, band: int) -> dict[str, str]:
        return {"band": str(band), "cell_type": self._cell_type.name}

    @property
    def resolutions(self) -> list[GridExtent]:
        out = [self._grid]
        for f in self.overview_levels:
            out.append(
                GridExtent(
                    self._grid.extent,
                    self._grid.cellwidth * f,
                    self._grid.cellheight * f,
                    max(1, self._grid.cols // f),
                    max(1, self._grid.rows // f),
                )
            )
        return out

    def read_bounds(self, bounds: GridBounds, bands=None) -> Optional[Raster]:
        inter = bounds.intersection(self.grid_bounds)
        if inter is None:
            return None
        band_idx = list(range(self.bands)) if bands is None else list(bands)
        cols_ = np.arange(inter.col_min, inter.col_max + 1, dtype=np.int64)
        rows_ = np.arange(inter.row_min, inter.row_max + 1, dtype=np.int64)
        cgrid = rows_[:, None] * self.cols + cols_[None, :]
        px = np.empty((len(band_idx), len(rows_), len(cols_)), dtype=np.int16)
        for bi, b in enumerate(band_idx):
            px[bi] = ((cgrid + b) % (1 << 15)).astype(np.int16)
        return Raster(px, self._grid.extent_for(inter))

    def overview_source(self, grid: GridExtent) -> "RasterSource":
        """Materialized strided overviews (COG-overview analog); counts reads
        for the routing test."""
        f = int(round(grid.cellwidth / self._grid.cellwidth))
        if f <= 1:
            return self
        object.__setattr__(self, "overview_reads", getattr(self, "overview_reads", 0) + 1)
        full = self.read_bounds(self.grid_bounds)
        # dims must MATCH the advertised resolutions entry (n // f) — the
        # raw stride gives ceil(n/f) rows, whose extent would extend past
        # the base footprint and fabricate coverage outside the source
        rows = max(1, self._grid.rows // f)
        cols = max(1, self._grid.cols // f)
        px = full.pixels[:, ::f, ::f][:, :rows, :cols]
        ov_grid = GridExtent(
            Extent(
                self._grid.extent.xmin,
                self._grid.extent.ymax - rows * grid.cellheight,
                self._grid.extent.xmin + cols * grid.cellwidth,
                self._grid.extent.ymax,
            ),
            grid.cellwidth,
            grid.cellheight,
            cols,
            rows,
        )
        return InMemoryRasterSource(px, ov_grid, self._crs, self._cell_type)


@dataclass
class InMemoryRasterSource(RasterSource):
    """ndarray-backed source (tile-table reads, mosaic fixtures)."""

    pixels: np.ndarray  # (bands, rows, cols)
    _grid: GridExtent
    _crs: object = "EPSG:4326"
    _cell_type: CellType = field(default_factory=lambda: CellType("float64", float("nan")))

    @property
    def crs(self):
        return self._crs

    @property
    def grid(self) -> GridExtent:
        return self._grid

    @property
    def cell_type(self) -> CellType:
        return self._cell_type

    @property
    def band_count(self) -> int:
        return self.pixels.shape[0]

    def read_bounds(self, bounds: GridBounds, bands=None) -> Optional[Raster]:
        inter = bounds.intersection(self.grid_bounds)
        if inter is None:
            return None
        sel = self.pixels if bands is None else self.pixels[list(bands)]
        px = sel[:, inter.row_min : inter.row_max + 1, inter.col_min : inter.col_max + 1]
        return Raster(np.ascontiguousarray(px), self._grid.extent_for(inter))


class ResampleRasterSource(RasterSource):
    """T4: resample view — reads route through the closest overview, then
    resample to the target grid (GeoTiffResampleRasterSource.scala:35-142)."""

    def __init__(self, base: RasterSource, grid: GridExtent, method: str,
                 strategy: str = "auto-higher"):
        self.base = base
        self._target = grid
        self.method = method
        self.strategy = strategy

    @property
    def crs(self):
        return self.base.crs

    @property
    def grid(self) -> GridExtent:
        return self._target

    @property
    def cell_type(self) -> CellType:
        return self.base.cell_type

    @property
    def band_count(self) -> int:
        return self.base.band_count

    @property
    def resolutions(self) -> list[GridExtent]:
        return [self._target]

    def read_bounds(self, bounds: GridBounds, bands=None) -> Optional[Raster]:
        inter = bounds.intersection(self.grid_bounds)
        if inter is None:
            return None
        target_extent = self._target.extent_for(inter)
        # route through the closest overview for coarse targets (T4,
        # GeoTiffResampleRasterSource.scala:74-75)
        ov = self.base.closest_resolution(self._target.cellwidth, self.strategy)
        reader = self.base.overview_source(ov) if ov.cellwidth > self.base.grid.cellwidth else self.base
        src = reader.read(target_extent, bands)
        if src is None:
            return None
        nd = self.cell_type.nodata
        e, se = target_extent, src.extent
        tol = 1e-9 * max(1.0, abs(e.xmax - e.xmin), abs(e.ymax - e.ymin))
        covers = (abs(se.xmin - e.xmin) <= tol and abs(se.xmax - e.xmax) <= tol
                  and abs(se.ymin - e.ymin) <= tol and abs(se.ymax - e.ymax) <= tol)
        if covers:
            # aligned full-window read: array resize over the same extent
            out = rs.resample(src.pixels, inter.height, inter.width, self.method, nodata=nd)
            return Raster(out.astype(src.pixels.dtype, copy=False), target_extent)
        # footprint-clipped / grid-snapped read: the returned raster covers
        # only PART of the target window — stretching it with rs.resample
        # would shift georeferencing and fabricate data outside the
        # footprint.  Sample target cell centers against the src's ACTUAL
        # grid instead, NoData outside.
        if self.method not in (rs.NEAREST, rs.BILINEAR):
            raise ValueError(
                f"resample method {self.method!r} on a footprint-clipped "
                f"window is not supported (center-sampling path does "
                f"nearest | bilinear); read within the source footprint "
                f"for cubic/average kernels")
        sgrid = GridExtent.from_extent(se, src.pixels.shape[2], src.pixels.shape[1])
        tc = np.arange(inter.col_min, inter.col_max + 1, dtype=np.float64)
        tr = np.arange(inter.row_min, inter.row_max + 1, dtype=np.float64)
        tx = self._target.extent.xmin + (tc + 0.5) * self._target.cellwidth
        ty = self._target.extent.ymax - (tr + 0.5) * self._target.cellheight
        out = rs.sample_at(src.pixels, sgrid, tx, ty, self.method, nodata=nd)
        return Raster(out.astype(src.pixels.dtype, copy=False), target_extent)


class ReprojectRasterSource(RasterSource):
    """T1-T3: CRS warp view — target grid derived by densified-edge extent
    reprojection (ReprojectRasterExtent analog), reads by inverse-transform
    sampling of target cell centers (GeoTiffReprojectRasterSource.scala:118-155).

    ``error_threshold`` is the reference's accuracy/speed knob
    (GeoTiffReprojectRasterSource.scala:37-46 carries errorThreshold=0.125):
    0.0 (default) back-transforms EVERY target cell center exactly; > 0
    approximates the inverse transform GDAL-style — exact transforms only on
    a coarse mesh, bilinear interpolation between nodes, with the mesh step
    halved until the measured mid-cell deviation is <= the threshold in
    SOURCE-PIXEL units."""

    def __init__(self, base: RasterSource, target_crs, method: str, target_grid: GridExtent | None,
                 strategy: str = "auto-higher", error_threshold: float = 0.0):
        if method not in ("nearest", "bilinear"):
            # never silently degrade: the warp path samples at
            # back-transformed cell centers, which supports nearest and
            # bilinear exactly; other kernels would quietly fall back
            raise ValueError(
                f"reproject method {method!r} not supported by the warp "
                f"path (nearest | bilinear); resample() separately for "
                f"other kernels")
        self.base = base
        self._crs = target_crs
        self.method = method
        self.strategy = strategy
        self.error_threshold = float(error_threshold)
        self.fwd = Transformer(base.crs, target_crs)
        self.back = self.fwd.inverse()
        if target_grid is None:
            e = base.extent
            xmin, ymin, xmax, ymax = reproject_extent(self.fwd, e.xmin, e.ymin, e.xmax, e.ymax)
            # keep source pixel count (round, CHANGELOG.md:97)
            target_grid = GridExtent.from_extent(Extent(xmin, ymin, xmax, ymax), base.cols, base.rows)
        self._target = target_grid

    @property
    def crs(self):
        return self._crs

    @property
    def grid(self) -> GridExtent:
        return self._target

    @property
    def cell_type(self) -> CellType:
        return self.base.cell_type

    @property
    def band_count(self) -> int:
        return self.base.band_count

    @property
    def resolutions(self) -> list[GridExtent]:
        return [self._target]

    def _back_grid(self, tx: np.ndarray, ty: np.ndarray, cellw: float, cellh: float):
        """Back-transform the target cell-center lattice ``ty x tx`` ->
        flattened (bx, by) source coordinates.  error_threshold == 0 (or a
        tiny window) transforms every center exactly; otherwise exact
        transforms happen only at coarse mesh nodes and the interior is
        bilinearly interpolated, with the mesh step halved until the
        measured mid-cell deviation <= error_threshold source pixels (the
        GDAL approximating-transformer scheme the reference's
        errorThreshold=0.125 drives)."""
        nr, nc = len(ty), len(tx)
        thr = self.error_threshold

        def exact():
            gx, gy = np.meshgrid(tx, ty)
            return self.back.transform(gx.ravel(), gy.ravel())

        if thr <= 0.0 or nr * nc <= 4096 or min(nr, nc) < 8:
            return exact()

        def bilerp(ri, ci, nodes, rq, cq):
            """Bilinear interp of ``nodes`` (len(ri) x len(ci), values at
            index-space lattice points) at query indices rq x cq -> 2D."""
            rp = np.clip(np.searchsorted(ri, rq, side="right") - 1, 0, len(ri) - 2)
            cp = np.clip(np.searchsorted(ci, cq, side="right") - 1, 0, len(ci) - 2)
            fr = ((rq - ri[rp]) / (ri[rp + 1] - ri[rp]))[:, None]
            fc = ((cq - ci[cp]) / (ci[cp + 1] - ci[cp]))[None, :]
            n00 = nodes[np.ix_(rp, cp)]
            n01 = nodes[np.ix_(rp, cp + 1)]
            n10 = nodes[np.ix_(rp + 1, cp)]
            n11 = nodes[np.ix_(rp + 1, cp + 1)]
            return ((1 - fr) * (1 - fc) * n00 + (1 - fr) * fc * n01
                    + fr * (1 - fc) * n10 + fr * fc * n11)

        step = 32
        while step >= 2:
            ri = np.unique(np.r_[np.arange(0, nr, step), nr - 1]).astype(np.float64)
            ci = np.unique(np.r_[np.arange(0, nc, step), nc - 1]).astype(np.float64)
            mgx, mgy = np.meshgrid(tx[ci.astype(np.int64)], ty[ri.astype(np.int64)])
            nbx, nby = self.back.transform(mgx.ravel(), mgy.ravel())
            nbx = nbx.reshape(len(ri), len(ci))
            nby = nby.reshape(len(ri), len(ci))
            # audit: exact vs interpolated at mesh-cell midpoints
            rm = ((ri[:-1] + ri[1:]) // 2).astype(np.int64)
            cm = ((ci[:-1] + ci[1:]) // 2).astype(np.int64)
            amx, amy = np.meshgrid(tx[cm], ty[rm])
            ex, ey = self.back.transform(amx.ravel(), amy.ravel())
            ix = bilerp(ri, ci, nbx, rm.astype(np.float64), cm.astype(np.float64))
            iy = bilerp(ri, ci, nby, rm.astype(np.float64), cm.astype(np.float64))
            err = np.hypot((ix.ravel() - ex) / cellw, (iy.ravel() - ey) / cellh)
            if len(err) == 0 or float(np.nanmax(err)) <= thr:
                # SEPARABLE full-grid interpolation: columns first at node
                # rows (tiny), then one contiguous row gather — ~4 full-size
                # temporaries instead of the ~16 a generic np.ix_ bilinear
                # pays (this stage is memory-bandwidth-bound)
                rq = np.arange(nr, dtype=np.float64)
                cq = np.arange(nc, dtype=np.float64)
                rp = np.clip(np.searchsorted(ri, rq, side="right") - 1, 0, len(ri) - 2)
                cp = np.clip(np.searchsorted(ci, cq, side="right") - 1, 0, len(ci) - 2)
                fr = ((rq - ri[rp]) / (ri[rp + 1] - ri[rp]))[:, None]
                fc = (cq - ci[cp]) / (ci[cp + 1] - ci[cp])

                def interp_full(nodes):
                    tmp = nodes[:, cp] * (1.0 - fc) + nodes[:, cp + 1] * fc
                    return tmp[rp] * (1.0 - fr) + tmp[rp + 1] * fr

                return interp_full(nbx).ravel(), interp_full(nby).ravel()
            step //= 2
        return exact()

    def read_bounds(self, bounds: GridBounds, bands=None) -> Optional[Raster]:
        inter = bounds.intersection(self.grid_bounds)
        if inter is None:
            return None
        t_extent = self._target.extent_for(inter)
        # back-transform target window to source polygon -> source bounds
        sx0, sy0, sx1, sy1 = reproject_extent(
            self.back, t_extent.xmin, t_extent.ymin, t_extent.xmax, t_extent.ymax
        )
        # overview routing (ST4, GeoTiffReprojectRasterSource.scala:92-103):
        # back-project the target cell size at the window center and pick the
        # closest base overview per the OverviewStrategy
        mx, my = (t_extent.xmin + t_extent.xmax) / 2.0, (t_extent.ymin + t_extent.ymax) / 2.0
        bx0, by0 = self.back.transform(np.array([mx]), np.array([my]))
        bx1, by1 = self.back.transform(
            np.array([mx + self._target.cellwidth]), np.array([my])
        )
        src_cell = float(np.hypot(bx1[0] - bx0[0], by1[0] - by0[0]))
        reader = self.base
        if src_cell > 0:
            ov = self.base.closest_resolution(src_cell, self.strategy)
            if ov.cellwidth > self.base.grid.cellwidth:
                reader = self.base.overview_source(ov)
        src = reader.read(Extent(sx0, sy0, sx1, sy1), bands)
        if src is None:
            return None
        # inverse-transform sampling at target cell centers
        tc = np.arange(inter.col_min, inter.col_max + 1, dtype=np.float64)
        tr = np.arange(inter.row_min, inter.row_max + 1, dtype=np.float64)
        tx = self._target.extent.xmin + (tc + 0.5) * self._target.cellwidth
        ty = self._target.extent.ymax - (tr + 0.5) * self._target.cellheight
        sgrid = GridExtent.from_extent(src.extent, src.pixels.shape[2], src.pixels.shape[1])
        bx, by = self._back_grid(tx, ty, sgrid.cellwidth, sgrid.cellheight)
        # source pixel indices within the read window
        col = np.floor((bx - sgrid.extent.xmin) / sgrid.cellwidth).astype(np.int64)
        row = np.floor((sgrid.extent.ymax - by) / sgrid.cellheight).astype(np.int64)
        valid = (col >= 0) & (col < sgrid.cols) & (row >= 0) & (row < sgrid.rows)
        col = np.clip(col, 0, sgrid.cols - 1)
        row = np.clip(row, 0, sgrid.rows - 1)
        nd = self.cell_type.nodata
        shape = (src.pixels.shape[0], inter.height, inter.width)
        out = np.empty(shape, dtype=src.pixels.dtype)
        for b in range(shape[0]):
            vals = src.pixels[b][row, col]
            if nd is not None:
                vals = np.where(valid, vals, np.array(nd).astype(src.pixels.dtype))
            out[b] = vals.reshape(inter.height, inter.width)
        return Raster(out, t_extent)


class ConvertRasterSource(RasterSource):
    """T6/T9: cell-type conversion as a post-hook on every read."""

    def __init__(self, base: RasterSource, cell_type: CellType, gdal_clamp: bool = False):
        self.base = base
        self._ct = cell_type
        self.gdal_clamp = gdal_clamp

    @property
    def crs(self):
        return self.base.crs

    @property
    def grid(self) -> GridExtent:
        return self.base.grid

    @property
    def cell_type(self) -> CellType:
        return self._ct

    @property
    def band_count(self) -> int:
        return self.base.band_count

    @property
    def resolutions(self) -> list[GridExtent]:
        return self.base.resolutions

    def read_bounds(self, bounds: GridBounds, bands=None) -> Optional[Raster]:
        r = self.base.read_bounds(bounds, bands)
        if r is None:
            return None
        return Raster(ct_convert(r.pixels, self.base.cell_type, self._ct, self.gdal_clamp), r.extent)


class InterpretRasterSource(RasterSource):
    """T10 interpretAs: metadata-only NoData reinterpretation."""

    def __init__(self, base: RasterSource, nodata: float | None):
        self.base = base
        self._nodata = nodata

    @property
    def crs(self):
        return self.base.crs

    @property
    def grid(self) -> GridExtent:
        return self.base.grid

    @property
    def cell_type(self) -> CellType:
        return CellType(self.base.cell_type.dtype, self._nodata)

    @property
    def band_count(self) -> int:
        return self.base.band_count

    def read_bounds(self, bounds: GridBounds, bands=None) -> Optional[Raster]:
        return self.base.read_bounds(bounds, bands)


class MosaicRasterSource(RasterSource):
    """S3/J2/A1-A4: N sources as one — combined metadata via the mosaic
    semigroup (MosaicRasterSource.scala:47-219), reads merge with
    first-non-nodata-wins at the finest resolution."""

    def __init__(self, sources: list[RasterSource], target_crs=None, target_grid: GridExtent | None = None):
        if not sources:
            raise ValueError("MosaicRasterSource needs a non-empty source list")
        target_crs = target_crs if target_crs is not None else sources[0].crs
        aligned = [s.reproject(target_crs) for s in sources]
        grid = aligned[0].grid
        for s in aligned[1:]:
            grid = grid.combine(s.grid)  # min cellSize + envelope (A2)
        if target_grid is not None:
            grid = target_grid
        self.sources = aligned
        self._crs = target_crs
        self._grid = grid
        ct = aligned[0].cell_type
        for s in aligned[1:]:
            ct = ct.union(s.cell_type)  # A1 widening union
        self._ct = ct

    @property
    def crs(self):
        return self._crs

    @property
    def grid(self) -> GridExtent:
        return self._grid

    @property
    def cell_type(self) -> CellType:
        return self._ct

    @property
    def band_count(self) -> int:
        return self.sources[0].band_count

    @property
    def resolutions(self) -> list[GridExtent]:
        out = []
        for s in self.sources:  # A4: concat
            out.extend(s.resolutions)
        return out

    def read_bounds(self, bounds: GridBounds, bands=None) -> Optional[Raster]:
        inter = bounds.intersection(self.grid_bounds)
        if inter is None:
            return None
        extent = self._grid.extent_for(inter)
        nd = self._ct.nodata
        n_bands = self.band_count if bands is None else len(bands)
        acc = np.full(
            (n_bands, inter.height, inter.width),
            nd if nd is not None else 0,
            dtype=self._ct.np_dtype,
        )
        filled = np.zeros(acc.shape, dtype=bool)
        for s in self.sources:  # deterministic source order (J2 determinism)
            r = s.read(extent, bands)
            if r is None:
                continue
            px = ct_convert(r.pixels, s.cell_type, self._ct)
            # resample the source window onto the mosaic window grid
            if px.shape[1:] != acc.shape[1:] or r.extent != extent:
                src_grid = GridExtent.from_extent(r.extent, px.shape[2], px.shape[1])
                tc = np.arange(inter.col_min, inter.col_max + 1, dtype=np.float64)
                tr = np.arange(inter.row_min, inter.row_max + 1, dtype=np.float64)
                tx = self._grid.extent.xmin + (tc + 0.5) * self._grid.cellwidth
                ty = self._grid.extent.ymax - (tr + 0.5) * self._grid.cellheight
                col = np.floor((tx - src_grid.extent.xmin) / src_grid.cellwidth).astype(np.int64)
                row = np.floor((src_grid.extent.ymax - ty) / src_grid.cellheight).astype(np.int64)
                okc = (col >= 0) & (col < src_grid.cols)
                okr = (row >= 0) & (row < src_grid.rows)
                col = np.clip(col, 0, src_grid.cols - 1)
                row = np.clip(row, 0, src_grid.rows - 1)
                ok = okr[:, None] & okc[None, :]
                px = px[:, row[:, None], col[None, :]]
                px = np.where(ok[None], px, np.array(nd if nd is not None else 0, dtype=acc.dtype))
            if nd is not None:
                if np.issubdtype(acc.dtype, np.floating) and np.isnan(nd):
                    have = ~np.isnan(px)
                else:
                    have = px != nd
            else:
                have = np.ones(px.shape, dtype=bool)
            write = have & ~filled  # first non-nodata wins
            acc[write] = px[write]
            filled |= have
        if not filled.any():
            return Raster(acc, extent)
        return Raster(acc, extent)
