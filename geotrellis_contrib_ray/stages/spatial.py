"""Spatial operator stages: geocode, tile/cell assignment, PIP semi-join,
kNN, distance self-join, zonal summary, rasterize, pyramid.

Each operator is a composition over ``ray.data.Dataset``:
``map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)`` for the
narrow vectorized steps, partial per-batch aggregation (pyarrow
``Table.group_by`` — C++ hash agg) before every wide ``groupby`` so the
shuffle moves pre-reduced rows, and ``groupby(key)`` only for the final small
combine.  Small sides (zones, query points) are broadcast, never shuffled.

Reference parity (SURVEY.md §2): J1 bbox/PIP semi-join (PostgisSpec.scala:
133-170), J3 distance θ-join (:174-188), J4/J5 tile-key assignment
(GeotrellisRasterSourceBench.scala:34-41), J6/A6 polygonal summary + raster
summary (CHANGELOG.md:67,85), A7 hierarchical pyramid, O4 kNN.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..core import cells as cellmod
from ..core import geom as geommod
from ..core.grid import GridExtent, LayoutDefinition
from ..sources.documents import geocode_ids

# ---------------------------------------------------------------------------
# geocode + assignment (stateless, narrow)
# ---------------------------------------------------------------------------


def add_geocode(batch: pa.Table, id_col: str = "doc_id") -> pa.Table:
    """Derive (lon, lat) from the integer doc id — the flat-table path."""
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    lon, lat = geocode_ids(ids)
    return batch.append_column("lon", pa.array(lon)).append_column("lat", pa.array(lat))


def add_tile_key(batch: pa.Table, layout: LayoutDefinition) -> pa.Table:
    """J4: vectorized layout-key assignment from (lon, lat) columns."""
    lon = batch["lon"].to_numpy(zero_copy_only=False)
    lat = batch["lat"].to_numpy(zero_copy_only=False)
    col, row = layout.key_for_point(lon, lat)
    return batch.append_column("tile_col", pa.array(col)).append_column(
        "tile_row", pa.array(row)
    )


def add_cell(batch: pa.Table, res: int, parent_res: int | None = None) -> pa.Table:
    """Hierarchical cell id (+ optional parent) from (lon, lat) columns."""
    lon = batch["lon"].to_numpy(zero_copy_only=False)
    lat = batch["lat"].to_numpy(zero_copy_only=False)
    cell = cellmod.latlng_to_cell(lat, lon, res)
    batch = batch.append_column("cell", pa.array(cell))
    if parent_res is not None:
        batch = batch.append_column(
            "parent_cell", pa.array(cellmod.cell_to_parent(cell, parent_res))
        )
    return batch


GEOHASH_ALPHABET = "0123456789bcdefghjkmnpqrstuvwxyz"
GEOHASH_PRECISION = 8  # 8 chars = 40 bits (20 lon + 20 lat)


def add_geohash(batch: pa.Table, precision: int = GEOHASH_PRECISION) -> pa.Table:
    """Geohash cell encoding from (lon, lat) columns — the string-keyed
    hierarchical cell family beside the packed int cells (add_cell) and the
    Hilbert curve key (add_hilbert_key): prefix truncation = parent cell,
    lexicographic ranges = spatial ranges.

    Standard geohash: 5 bits/char, bits interleaved lon-first; binary
    subdivision over [-180,180]/[-90,90] equals direct quantization to
    2^ceil(5p/2) / 2^floor(5p/2) lattices, so the whole encode is exact
    integer math the SQL twin unrolls bit-for-bit.  Appends ``geohash``
    (string) and ``gh_code`` (the 5p-bit interleaved integer, int64 —
    5p <= 60).  Fully vectorized: one bit-interleave pass + one fixed-width
    byte-gather for the string column (no per-row python)."""
    if not 1 <= precision <= 12:
        raise ValueError("geohash precision must be in [1, 12]")
    nbits = 5 * precision
    nlon = -(-nbits // 2)  # lon gets the extra bit (even positions from MSB)
    nlat = nbits // 2
    lon = batch["lon"].to_numpy(zero_copy_only=False)
    lat = batch["lat"].to_numpy(zero_copy_only=False)
    lon_q = np.clip(np.floor((lon + 180.0) / 360.0 * float(1 << nlon)),
                    0, (1 << nlon) - 1).astype(np.int64)
    lat_q = np.clip(np.floor((lat + 90.0) / 180.0 * float(1 << nlat)),
                    0, (1 << nlat) - 1).astype(np.int64)
    code = np.zeros(len(lon), dtype=np.int64)
    # lon-first interleave from the MSB: even total bits puts lon bit i at
    # position 2i+1 and lat bit i at 2i; odd totals (odd precision) end on a
    # lon bit, shifting lon to 2i and lat to 2i+1
    lon_off, lat_off = (1, 0) if nlon == nlat else (0, 1)
    for i in range(nlon):
        code |= ((lon_q >> np.int64(i)) & 1) << np.int64(2 * i + lon_off)
    for i in range(nlat):
        code |= ((lat_q >> np.int64(i)) & 1) << np.int64(2 * i + lat_off)
    # 5-bit groups -> base32 chars, assembled as one fixed-width byte matrix
    alpha = np.frombuffer(GEOHASH_ALPHABET.encode(), dtype=np.uint8)
    chars = np.empty((len(lon), precision), dtype=np.uint8)
    for k in range(precision):
        idx = (code >> np.int64(5 * (precision - 1 - k))) & 31
        chars[:, k] = alpha[idx]
    offs = (np.arange(len(lon) + 1, dtype=np.int32) * precision)
    gh = pa.StringArray.from_buffers(
        len(lon), pa.py_buffer(offs.tobytes()), pa.py_buffer(chars.tobytes()))
    return (batch.append_column("geohash", gh)
                 .append_column("gh_code", pa.array(code)))


HILBERT_ORDER = 16  # 2^16 x 2^16 lattice -> 32-bit keys; SQL-reproducible


def add_hilbert_key(batch: pa.Table, order: int = HILBERT_ORDER,
                    parts_bits: int = 10) -> pa.Table:
    """Space-filling-curve partition key from (lon, lat) columns.

    Quantizes to a 2^order lattice over WGS84 and appends ``hkey`` (the
    Hilbert index — nearby points get nearby keys, so range-partitioning on
    it co-locates spatial neighbors with bounded per-partition extent) and
    ``part`` (the top ``2*order - parts_bits``-shifted partition id, 2^parts_bits
    partitions).  This is THE partitioning key the scale plan reuses across
    stages: sort/repartition once on hkey, then PIP / kNN / mosaic all probe
    partition-local state.  The fixed-iteration bit loop is reproducible in
    ANSI SQL (see __ray_entry__'s generated 16-step CTE oracle)."""
    from ..state.rtree import hilbert_d

    lon = batch["lon"].to_numpy(zero_copy_only=False)
    lat = batch["lat"].to_numpy(zero_copy_only=False)
    n = np.float64(np.int64(1) << order)
    qx = np.clip(np.floor((lon + 180.0) / 360.0 * n), 0, n - 1).astype(np.int64)
    qy = np.clip(np.floor((lat + 90.0) / 180.0 * n), 0, n - 1).astype(np.int64)
    hkey = hilbert_d(order, qx, qy)
    part = hkey >> np.int64(2 * order - parts_bits)
    from ..util import strip_schema_metadata

    return strip_schema_metadata(batch).append_column(
        "hkey", pa.array(hkey)).append_column("part", pa.array(part))


def spatial_sort(ds, order: int = HILBERT_ORDER, parts_bits: int = 10):
    """Range-partition a point Dataset along the Hilbert curve: append hkey
    and sort on it.  Downstream stages inherit spatially-coherent blocks
    (each block covers a compact region), which turns broadcast-side probes
    into mostly-local work and bounds mosaic/pyramid shuffle fan-out."""
    keyed = ds.map_batches(
        lambda b: add_hilbert_key(b, order, parts_bits),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=None,
    )
    return keyed.sort("hkey")


# ---------------------------------------------------------------------------
# J1: PIP semi-join against a small broadcast zone set
# ---------------------------------------------------------------------------


class ZoneMatcher:
    """Broadcast-side PIP refine.  Zones are small (carried in the task
    closure); big polygon sides use state/spatial_index.pip_join_indexed.

    Each batch: for every zone, a vectorized containment mask; emits one row
    per (point, zone) hit.  Box zones use closed-range (SQL BETWEEN)
    semantics; convex zones use the half-plane kernel whose expression matches
    the SQL oracle exactly.
    """

    def __init__(self, boxes, convex_zones=(), keep_cols=("doc_id",)):
        self.boxes = boxes
        self.convex_zones = list(convex_zones)
        self.keep_cols = list(keep_cols)

    def __call__(self, batch: pa.Table) -> pa.Table:
        lon = batch["lon"].to_numpy(zero_copy_only=False)
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        zone_names = [z[0] for z in self.boxes] + [z[0] for z in self.convex_zones]
        idx_parts, zid_parts = [], []
        for zi, (name, x0, y0, x1, y1) in enumerate(self.boxes):
            hit = np.nonzero(geommod.box_contains_points(lon, lat, x0, y0, x1, y1))[0]
            if len(hit):
                idx_parts.append(hit)
                zid_parts.append(np.full(len(hit), zi, dtype=np.int32))
        for zj, (name, verts) in enumerate(self.convex_zones):
            hit = np.nonzero(geommod.convex_contains_points(lon, lat, verts))[0]
            if len(hit):
                idx_parts.append(hit)
                zid_parts.append(np.full(len(hit), len(self.boxes) + zj, dtype=np.int32))
        if not idx_parts:
            empty = {c: batch[c].slice(0, 0) for c in self.keep_cols}
            empty["zone_name"] = pa.array([], pa.string())
            return pa.table(empty)
        idx = np.concatenate(idx_parts)
        zids = np.concatenate(zid_parts)
        # one take for all zones; names via dictionary decode (C++, no
        # python object arrays)
        names = pa.DictionaryArray.from_arrays(
            pa.array(zids), pa.array(zone_names, pa.string())
        ).cast(pa.string())
        out = batch.select(self.keep_cols).take(pa.array(idx))
        return out.append_column("zone_name", names)


def pip_join(ds, boxes, convex_zones=(), keep_cols=("doc_id",)):
    """Point-in-polygon semi-join: broadcast zones, vectorized refine.

    No shuffle at all — the small side rides in the task closure, each block
    is filtered independently (the scale path for few-thousand-zone sides;
    beyond that use state/spatial_index.pip_join_indexed).

    Block-wise (``batch_size=None``): a fixed row batch sets the map's
    ``min_rows_per_bundled_input``, and behind a row-changing map (a span
    explode, say) that alone keeps the whole narrow chain out of its read
    operator — every block then crosses the object store once
    more.  The refine is vectorized per block, so batch size buys nothing.
    The other half of that fusion is an unsplit read: Ray never fuses a
    split read, see ``pipelines.flagship.flagship_over``."""
    return ds.map_batches(
        ZoneMatcher(boxes, convex_zones, keep_cols),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=None,
    )


# ---------------------------------------------------------------------------
# O4: kNN — per-batch partial top-k, then per-query final merge
# ---------------------------------------------------------------------------


class KnnPartial:
    """Per-batch partial top-k against the broadcast query matrix.

    Emits <= k rows per query per batch; the final merge is a tiny
    groupby(query_id).  Distance expression matches the SQL oracle:
    sqrt((lon-qx)^2 + (lat-qy)^2), ties broken on doc_id.
    """

    def __init__(self, queries, k: int, id_col: str = "doc_id"):
        self.queries = np.asarray([[q[1], q[2]] for q in queries], dtype=np.float64)
        self.qids = np.asarray([q[0] for q in queries], dtype=np.int64)
        self.k = k
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        lon = batch["lon"].to_numpy(zero_copy_only=False)
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        qx = self.queries[:, 0][:, None]  # (Q, 1)
        qy = self.queries[:, 1][:, None]
        d = np.sqrt((lon[None, :] - qx) * (lon[None, :] - qx) + (lat[None, :] - qy) * (lat[None, :] - qy))
        k = min(self.k, d.shape[1])
        out_q, out_id, out_d = [], [], []
        for qi in range(len(self.qids)):
            if d.shape[1] > k:
                # keep ALL rows tied at the kth distance so the (dist, id)
                # tie-break matches the SQL oracle's ORDER BY dist, doc_id
                # (the integer-lattice geocode makes exact double ties real)
                kth = np.partition(d[qi], k - 1)[k - 1]
                cand = np.nonzero(d[qi] <= kth)[0]
            else:
                cand = np.arange(d.shape[1])
            dd = d[qi, cand]
            order = np.lexsort((ids[cand], dd))[:k]
            sel = cand[order]
            out_q.append(np.full(len(sel), self.qids[qi], dtype=np.int64))
            out_id.append(ids[sel])
            out_d.append(d[qi, sel])
        return pa.table(
            {
                "query_id": np.concatenate(out_q),
                "doc_id": np.concatenate(out_id),
                "dist": np.concatenate(out_d),
            }
        )


def knn(ds, queries, k: int, id_col: str = "doc_id", batch_size=131072):
    """kNN of broadcast query points against the point dataset.

    map_batches partial top-k (narrow) -> groupby(query_id) final top-k merge
    (shuffle of Q*k*num_blocks rows only)."""
    partial = ds.map_batches(
        KnnPartial(queries, k, id_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
    )

    # total merge: vectorized key-bucket top-k (no per-query pandas groups)
    from .stats import top_k_per_group

    return top_k_per_group(partial, group_col="query_id", order_col="dist",
                           k=k, tie_col="doc_id", ascending=True)


# ---------------------------------------------------------------------------
# J3: distance self-join via neighbor-replicated cell grid
# ---------------------------------------------------------------------------


def _dist_cell_res(theta: float) -> int:
    """Finest resolution whose cell side >= theta (so all pairs within theta
    live in adjacent cells)."""
    res = 0
    while res < cellmod.MAX_RES and 360.0 / (2 ** (res + 2)) >= theta:
        res += 1
    return res


# dense distance-kernel scratch bound: left-chunk x |right| doubles per
# block (~16 MB at 2M cells) — the J3 kernel of _distance_pairs, behind
# distance_join and vector.distance_join_formatted
_DIST_KERNEL_CELLS = 2_000_000


def _distance_pairs(ds, theta: float, id_col: str, lon_col: str = "lon",
                    lat_col: str = "lat", name_col: str | None = None):
    """All pairs (id1 < id2) with euclidean distance < theta: id1, id2,
    dist, plus name1, name2 from ``name_col`` when given.

    Grid-partitioned θ-join on the co-partition shuffle, ONE side and one
    pass over ``ds``: the route emits every point's copy into each of its
    3x3 neighbour cells (_home 0) AND its home-cell copy (_home 1), so each
    candidate pair meets in exactly one cell group — no post-dedup shuffle.
    Per cell a vectorized brute force whose distance expression matches the
    SQL oracle."""
    from .joins import _co_partition, _fans_out

    res = _dist_cell_res(theta)
    carry = [name_col] if name_col else []

    @_fans_out
    def route(b: pa.Table) -> pa.Table:
        lon = b[lon_col].to_numpy(zero_copy_only=False)
        lat = b[lat_col].to_numpy(zero_copy_only=False)
        x, y = cellmod.latlng_to_cell_xy(lat, lon, res)
        nx = np.int64(2) ** (res + 1)
        ny = np.int64(2) ** res
        idx, cell, home = [], [], []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                cx, cy = x + dx, y + dy
                ok = (cx >= 0) & (cx < nx) & (cy >= 0) & (cy < ny)
                idx.append(np.nonzero(ok)[0])
                cell.append(cellmod.pack_cell(res, cx[ok], cy[ok]))
                home.append(np.zeros(len(idx[-1]), np.int8))
                if dx == 0 and dy == 0:
                    idx.append(np.arange(len(x)))
                    cell.append(cellmod.pack_cell(res, x, y))
                    home.append(np.ones(len(x), np.int8))
        idx = np.concatenate(idx)
        t = pa.table({"id": b[id_col].to_numpy(zero_copy_only=False)[idx],
                      "lon": lon[idx], "lat": lat[idx],
                      "_home": np.concatenate(home),
                      "_bucket": np.concatenate(cell).astype(np.int64)})
        for c in carry:
            t = t.append_column(c, b[c].take(pa.array(idx)))
        return t

    ncol = ["name1", "name2"] if name_col else []

    def per_cell(g: pa.Table) -> pa.Table:
        home = g["_home"].to_numpy()
        li, ri = np.nonzero(home == 0)[0], np.nonzero(home == 1)[0]
        lon, lat = g["lon"].to_numpy(), g["lat"].to_numpy()
        ids = g["id"].to_numpy()
        lx, ly, lid = lon[li], lat[li], ids[li]
        rx, ry, rid = lon[ri], lat[ri], ids[ri]
        # CHUNKED kernel: fixed left row-blocks x full right bounds the
        # dense scratch to ~_DIST_KERNEL_CELLS doubles per block, so a hot
        # cell (dense urban cluster at 100x) can't spike a worker's memory.
        # The distance expression is unchanged — identical doubles to the
        # SQL twin chunk-independently (per-element math).
        step = max(1, _DIST_KERNEL_CELLS // max(1, len(rid)))
        out1, out2, outd = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)], [np.zeros(0)]
        for s in range(0, len(lid), step):
            lxs, lys, lids = lx[s:s + step], ly[s:s + step], lid[s:s + step]
            d = np.sqrt((lxs[:, None] - rx[None, :]) * (lxs[:, None] - rx[None, :]) + (lys[:, None] - ry[None, :]) * (lys[:, None] - ry[None, :]))
            ii, jj = np.nonzero((d < theta) & (lids[:, None] < rid[None, :]))
            out1.append(li[s + ii])
            out2.append(ri[jj])
            outd.append(d[ii, jj].astype(np.float64))
        i, j = np.concatenate(out1), np.concatenate(out2)
        out = pa.table({"id1": pa.array(ids[i].astype(np.int64)),
                        "id2": pa.array(ids[j].astype(np.int64)),
                        "dist": pa.array(np.concatenate(outd))})
        for c, k in zip(ncol, (i, j)):
            out = out.append_column(c, g[name_col].take(pa.array(k)))
        return out

    return _co_partition([(ds, route)], per_cell)


def distance_join(ds, theta: float, id_col: str = "doc_id"):
    """All pairs (id1 < id2) with euclidean distance < theta over the
    ``lon``/``lat`` columns (_distance_pairs).  Output: id1, id2, dist."""
    return _distance_pairs(ds, theta, id_col)


# ---------------------------------------------------------------------------
# J6/A6: zonal summary + raster summary; rasterize + pyramid (A7)
# ---------------------------------------------------------------------------


def zonal_summary(ds, boxes, convex_zones=(), value_col: str = "n_chars"):
    """Polygonal summary: PIP join then per-zone aggregate with per-batch
    partial reduction (one row per zone per batch crosses the shuffle)."""
    joined = pip_join(ds, boxes, convex_zones, keep_cols=("doc_id", value_col))

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.group_by("zone_name").aggregate([(value_col, "sum"), ("doc_id", "count")])
        return t.rename_columns(["zone_name", "psum", "pcnt"])

    part = joined.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None,)
    import ray.data as rd

    from .agg import driver_group_rollup

    # bounded group count (one row per ZONE): driver-combine tier, no
    # all-to-all (stages/agg.py tier rules)
    return rd.from_arrow(driver_group_rollup(
        part, ["zone_name"],
        [("psum", "sum", "sum_chars"), ("pcnt", "sum", "n_docs")],
    ))


def rasterize_count(ds, grid: GridExtent, value_col: str | None = None):
    """Rasterize points onto ``grid``: per-cell count (+ optional value sum).

    Narrow partial aggregate per batch, tiny final groupby on (col, row)."""

    def partial(batch: pa.Table) -> pa.Table:
        lon = batch["lon"].to_numpy(zero_copy_only=False)
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        col, row = grid.map_to_grid(lon, lat)
        cols = {"col": col, "row": row}
        aggs = [("col", "count")]
        if value_col is not None:
            cols[value_col] = batch[value_col].to_numpy(zero_copy_only=False)
            aggs.append((value_col, "sum"))
        t = pa.table(cols)
        g = t.group_by(["col", "row"], use_threads=False).aggregate(aggs)
        names = ["col", "row", "pcnt"] + (["psum"] if value_col else [])
        return g.rename_columns(names)

    part = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None,)
    from .agg import salted_group_reduce

    aggs = [("pcnt", "sum", "n_points")]
    if value_col is not None:
        aggs.append(("psum", "sum", f"sum_{value_col}"))
    # one group per grid cell — keyed reduce (stages/agg.py)
    return salted_group_reduce(part, ["col", "row"], aggs)


def pyramid_aggregate(tile_ds, levels: int, count_col: str = "n_points"):
    """A7: hierarchical parent aggregation — iterated groupby(parent) where
    parent = (col >> 1, row >> 1), summing counts.  Returns the top level.

    Each iteration's input shrinks ~4x; per-batch partial aggregation keeps
    every shuffle small."""
    ds = tile_ds
    from .agg import salted_group_reduce

    for _ in range(levels):
        def to_parent(batch: pa.Table) -> pa.Table:
            col = batch["col"].to_numpy(zero_copy_only=False).astype(np.int64)
            row = batch["row"].to_numpy(zero_copy_only=False).astype(np.int64)
            t = pa.table(
                {"col": col >> 1, "row": row >> 1, count_col: batch[count_col]}
            )
            g = t.group_by(["col", "row"], use_threads=False).aggregate([(count_col, "sum")])
            return g.rename_columns(["col", "row", count_col])

        ds = salted_group_reduce(
            ds.map_batches(to_parent, batch_format="pyarrow", zero_copy_batch=True, batch_size=None,),
            ["col", "row"], [(count_col, "sum", count_col)],
        )
    return ds


def pyramid_rollup(tile_ds, levels: int, count_col: str = "n_points"):
    """Single-shuffle rollup to the level-``levels`` ancestor: because the
    reduce is associative, (col >> levels, row >> levels) in one groupby is
    exactly the iterated 2x2 pyramid's top level — use this when only the top
    is consumed; use pyramid_aggregate when every level is written."""

    def to_ancestor(batch: pa.Table) -> pa.Table:
        col = batch["col"].to_numpy(zero_copy_only=False).astype(np.int64)
        row = batch["row"].to_numpy(zero_copy_only=False).astype(np.int64)
        t = pa.table({"col": col >> levels, "row": row >> levels, count_col: batch[count_col]})
        g = t.group_by(["col", "row"], use_threads=False).aggregate([(count_col, "sum")])
        return g.rename_columns(["col", "row", count_col])

    from .agg import salted_group_reduce

    return salted_group_reduce(
        tile_ds.map_batches(to_ancestor, batch_format="pyarrow", zero_copy_batch=True, batch_size=None,),
        ["col", "row"], [(count_col, "sum", count_col)],
    )


def layout_for_summary(summary: dict, cell_size: float, tile_size: int = 256) -> LayoutDefinition:
    """A6 completion: RasterSummary -> layout choice (the reference's
    RasterSummary.fromSeq fed layout selection, CHANGELOG.md:85,98).
    Builds a floating layout over the summarized extent at the given cell
    size."""
    from ..core.grid import Extent

    ext = Extent(summary["min_lon"], summary["min_lat"], summary["max_lon"], summary["max_lat"])
    cols = max(1, int(np.ceil(ext.width / cell_size)))
    rows = max(1, int(np.ceil(ext.height / cell_size)))
    grid = GridExtent(ext, cell_size, cell_size, cols, rows)
    return LayoutDefinition.floating(grid, tile_size)


def raster_summary(ds):
    """A6 RasterSummary: global extent/count rollup feeding layout choice."""
    from ray.data.aggregate import Count, Max, Min

    return ds.aggregate(
        Min("lon", alias_name="min_lon"),
        Max("lon", alias_name="max_lon"),
        Min("lat", alias_name="min_lat"),
        Max("lat", alias_name="max_lat"),
        Count(alias_name="n_docs"),
    )


# ---------------------------------------------------------------------------
# box-box intersection join (PostGIS `&&` for two large rectangle sets)
# ---------------------------------------------------------------------------


def box_join(left, right, *, cell: float, id_col: str = "id",
             x0: str = "x0", y0: str = "y0", x1: str = "x1", y1: str = "y1"):
    """Rectangle-intersection join (`&&`) for two LARGE box Datasets.

    Scale shape: each box is replicated into every ``cell``-sized grid cell
    its rectangle overlaps (fan-out ~ (w/cell + 1)*(h/cell + 1) — pick
    ``cell`` >= the typical box edge so replication stays ~4x); ONE
    co-partition shuffle grouped by cell; per-cell vectorized rect-overlap
    test.  Duplicate
    suppression is the REFERENCE-POINT rule (no global distinct pass): a
    pair is emitted only by the cell containing the bottom-left corner of
    the pair's intersection, which lies in exactly one cell and is covered
    by both boxes' replication.  Closed boundaries (touching boxes match,
    SQL >=/<=).  Output: (left_id, right_id).  Partitioning assumption: one
    cell's boxes fit a worker — shrink ``cell`` for hot regions (or salt)."""
    from .joins import _co_partition, _fans_out, _ragged_expand

    w = float(cell)

    @_fans_out
    def route(batch: pa.Table) -> pa.Table:
        bx0 = batch[x0].to_numpy(zero_copy_only=False).astype(np.float64)
        by0 = batch[y0].to_numpy(zero_copy_only=False).astype(np.float64)
        bx1 = batch[x1].to_numpy(zero_copy_only=False).astype(np.float64)
        by1 = batch[y1].to_numpy(zero_copy_only=False).astype(np.float64)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        cx0 = np.floor(bx0 / w).astype(np.int64)
        cy0 = np.floor(by0 / w).astype(np.int64)
        ncx = np.floor(bx1 / w).astype(np.int64) - cx0 + 1
        row, k = _ragged_expand(ncx * (np.floor(by1 / w).astype(np.int64) - cy0 + 1))
        cx = cx0[row] + k % ncx[row]
        cy = cy0[row] + k // ncx[row]
        return pa.table({"_bucket": cx * np.int64(2**31) + cy, "_cx": cx, "_cy": cy,
                         "id": ids[row], "bx0": bx0[row], "by0": by0[row],
                         "bx1": bx1[row], "by1": by1[row]})

    empty = pa.table({"left_id": pa.array([], pa.int64()),
                      "right_id": pa.array([], pa.int64())})

    def per_cell(lg: pa.Table, rg: pa.Table) -> pa.Table:
        if len(lg) == 0 or len(rg) == 0:
            return empty
        lx0 = lg["bx0"].to_numpy(); ly0 = lg["by0"].to_numpy()
        lx1 = lg["bx1"].to_numpy(); ly1 = lg["by1"].to_numpy()
        rx0 = rg["bx0"].to_numpy(); ry0 = rg["by0"].to_numpy()
        rx1 = rg["bx1"].to_numpy(); ry1 = rg["by1"].to_numpy()
        hit = (
            (lx0[:, None] <= rx1[None, :])
            & (lx1[:, None] >= rx0[None, :])
            & (ly0[:, None] <= ry1[None, :])
            & (ly1[:, None] >= ry0[None, :])
        )
        li, ri = np.nonzero(hit)
        if len(li) == 0:
            return empty
        # reference point: bottom-left of the intersection; emit only if it
        # falls in THIS cell
        px = np.maximum(lx0[li], rx0[ri])
        py = np.maximum(ly0[li], ry0[ri])
        cx = int(lg["_cx"][0].as_py())
        cy = int(lg["_cy"][0].as_py())
        keep = (np.floor(px / w).astype(np.int64) == cx) & (
            np.floor(py / w).astype(np.int64) == cy
        )
        return pa.table(
            {
                "left_id": lg["id"].take(pa.array(li[keep])),
                "right_id": rg["id"].take(pa.array(ri[keep])),
            }
        )

    return _co_partition([(left, route), (right, route)], per_cell)
