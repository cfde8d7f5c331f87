"""Vector-table stages: the slick/PostGIS surface as Ray Data operators.

Covers S5/S6 (geometry table source/sink + WKB/EWKT codecs), J1 (`@&&` bbox
filter), J3 (distance self-join with the reference's "%1.4f" output format,
PostgisSpec.scala:174-188), J7 (anti-join delete-as-rewrite), F1-F8 scalar
functions over geometry columns (distance/length/centroid/GeoJSON/bbox/
fixed-width parse/null predicates).

Geometry columns are WKB ``binary`` (+ optional srid int32); point-only
columns additionally keep (x, y) float64 for vectorized math — decode of a
point WKB column is a zero-copy-ish numpy reinterpretation of the fixed
21-byte little-endian layout, no per-row parsing.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..core import geom as geommod
from ..util import as_array


def encode_points_wkb(batch: pa.Table, x_col: str = "x", y_col: str = "y") -> pa.Table:
    """Add a WKB binary column from point coordinate columns (S6 encode)."""
    xs = batch[x_col].to_numpy(zero_copy_only=False)
    ys = batch[y_col].to_numpy(zero_copy_only=False)
    n = len(xs)
    buf = np.empty((n, 21), dtype=np.uint8)
    buf[:, 0] = 1
    buf[:, 1] = 1
    buf[:, 2:5] = 0
    buf[:, 5:13] = np.ascontiguousarray(xs, dtype="<f8").view(np.uint8).reshape(n, 8)
    buf[:, 13:21] = np.ascontiguousarray(ys, dtype="<f8").view(np.uint8).reshape(n, 8)
    flat = buf.reshape(-1)
    offsets = pa.array(np.arange(0, (n + 1) * 21, 21, dtype=np.int32))
    wkb = pa.BinaryArray.from_buffers(
        pa.binary(), n, [None, offsets.buffers()[1], pa.py_buffer(flat.tobytes())]
    )
    return batch.append_column("wkb", wkb)


def decode_point_wkb(batch: pa.Table, col: str = "wkb") -> pa.Table:
    """Vectorized decode of a little-endian WKB point column -> (x, y).

    Falls back to the general parser for rows that aren't plain LE points
    (hex strings, EWKB with SRID, other geometry types)."""
    arr = as_array(batch[col])
    n = len(arr)
    offs = np.frombuffer(arr.buffers()[1], dtype=np.int32)[arr.offset : arr.offset + n + 1]
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
    lens = offs[1:] - offs[:-1]
    xs = np.full(n, np.nan)
    ys = np.full(n, np.nan)
    fast = lens == 21
    if fast.any():
        starts = offs[:-1][fast]
        idx = starts[:, None] + np.arange(21)[None, :]
        rows = data[idx]
        is_pt = (rows[:, 0] == 1) & (rows[:, 1] == 1) & (rows[:, 2:5] == 0).all(axis=1)
        coords_x = rows[:, 5:13].copy().view("<f8").ravel()
        coords_y = rows[:, 13:21].copy().view("<f8").ravel()
        tgt = np.nonzero(fast)[0][is_pt]
        xs[tgt] = coords_x[is_pt]
        ys[tgt] = coords_y[is_pt]
        slow_mask = ~fast.copy()
        slow_mask[np.nonzero(fast)[0][~is_pt]] = True
    else:
        slow_mask = ~fast
    for i in np.nonzero(slow_mask)[0]:
        v = arr[i].as_py()
        if v is None:
            continue
        kind, coords, _ = geommod.wkb_to_geometry(v)
        if kind == "Point":
            xs[i], ys[i] = coords
    return batch.append_column("x", pa.array(xs)).append_column("y", pa.array(ys))


def bbox_filter(ds, xmin: float, ymin: float, xmax: float, ymax: float, x_col="x", y_col="y"):
    """`@&&` bbox-overlap filter (PostgisSpec.scala:133-140,161-170)."""

    def f(batch: pa.Table) -> pa.Table:
        xs = batch[x_col].to_numpy(zero_copy_only=False)
        ys = batch[y_col].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(geommod.box_contains_points(xs, ys, xmin, ymin, xmax, ymax)))

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)


def anti_bbox_filter(ds, xmin, ymin, xmax, ymax, x_col="x", y_col="y"):
    """J7 delete-as-rewrite: keep rows NOT matching the spatial predicate."""

    def f(batch: pa.Table) -> pa.Table:
        xs = batch[x_col].to_numpy(zero_copy_only=False)
        ys = batch[y_col].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(~geommod.box_contains_points(xs, ys, xmin, ymin, xmax, ymax)))

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)


def add_geojson(batch: pa.Table, x_col="x", y_col="y") -> pa.Table:
    """F4 asGeoJSON — exact reference format ({"type":"Point",...},
    PostgisSpec.scala:191-196).  Python-level formatting, small tables."""
    xs = batch[x_col].to_numpy(zero_copy_only=False)
    ys = batch[y_col].to_numpy(zero_copy_only=False)
    gj = [geommod.point_geojson(float(x), float(y)) for x, y in zip(xs, ys)]
    return batch.append_column("geojson", pa.array(gj, pa.string()))


def distance_join_formatted(ds, theta: float, name_col: str = "name", id_col: str = "id"):
    """J3 with reference output shape: (n1, n2, "%1.4f" % dist) for all
    ordered pairs with dist < theta and different names
    (PostgisSpec.scala:174-188).

    The grid-partitioned distance kernel over the ``x``/``y`` columns
    (spatial._distance_pairs, carrying the names) emits each id1 < id2 pair
    once; the reference's cross-join sees both orders, so every pair is
    mirrored (the distance is symmetric to the bit), equal-name pairs drop
    and the distance is formatted."""
    from .spatial import _distance_pairs

    def fmt(b: pa.Table) -> pa.Table:
        b = b.filter(pc.not_equal(b["name1"], b["name2"]))
        dist = pa.array([f"{v:.4f}" for v in b["dist"].to_numpy()], pa.string())
        return pa.concat_tables([
            pa.table({"n1": b["name1"], "n2": b["name2"], "dist": dist}),
            pa.table({"n1": b["name2"], "n2": b["name1"], "dist": dist})])

    pairs = _distance_pairs(ds, theta, id_col, "x", "y", name_col=name_col)
    return pairs.map_batches(fmt, batch_format="pyarrow", zero_copy_batch=True,
                             batch_size=None)


def cities_dataset():
    """The 26-row PA cities fixture as a Dataset (id, name, x, y, wkb) —
    insertion order preserved in the id column (PostgisSpec order asserts)."""
    import ray.data as rd

    from ..functions.cities import CITIES

    t = pa.table(
        {
            "id": pa.array(range(len(CITIES)), pa.int64()),
            "name": pa.array([c[0] for c in CITIES], pa.string()),
            "x": pa.array([c[1] for c in CITIES], pa.float64()),
            "y": pa.array([c[2] for c in CITIES], pa.float64()),
        }
    )
    return rd.from_arrow(encode_points_wkb(t))
