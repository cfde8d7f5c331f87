"""Per-partition spatial indexes held in per-worker state (ST5).

The reference's PIP / distance lookups ride PostGIS's GiST index implicitly
(slick PostgisSpec.scala:162-188); our engine builds the index explicitly:
a packed grid-bucket index (flat cell -> polygon/point id lists, numpy CSR
layout — the same access pattern as a packed STRtree) constructed ONCE per
worker process (``util.worker_cached``) and probed per batch.  Polygon
sides ride through ray.put.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core import geom as geommod


class GridPolygonIndex:
    """Bucket polygons by bbox cover over a fixed grid; probe = bucket lookup
    + exact PIP refine.  Pure (picklable) — the per-worker state payload."""

    def __init__(self, polygons: list[tuple[str, np.ndarray]], nx: int = 64, ny: int = 64):
        self.names = [p[0] for p in polygons]
        self.rings = [np.asarray(p[1], dtype=np.float64) for p in polygons]
        xs = np.concatenate([r[:, 0] for r in self.rings])
        ys = np.concatenate([r[:, 1] for r in self.rings])
        self.xmin, self.xmax = float(xs.min()), float(xs.max())
        self.ymin, self.ymax = float(ys.min()), float(ys.max())
        self.nx, self.ny = nx, ny
        self.dx = (self.xmax - self.xmin) / nx or 1.0
        self.dy = (self.ymax - self.ymin) / ny or 1.0
        # CSR: bucket -> polygon ids
        buckets: list[list[int]] = [[] for _ in range(nx * ny)]
        for pid, ring in enumerate(self.rings):
            bx0 = int(np.clip((ring[:, 0].min() - self.xmin) / self.dx, 0, nx - 1))
            bx1 = int(np.clip((ring[:, 0].max() - self.xmin) / self.dx, 0, nx - 1))
            by0 = int(np.clip((ring[:, 1].min() - self.ymin) / self.dy, 0, ny - 1))
            by1 = int(np.clip((ring[:, 1].max() - self.ymin) / self.dy, 0, ny - 1))
            for bx in range(bx0, bx1 + 1):
                for by in range(by0, by1 + 1):
                    buckets[by * nx + bx].append(pid)
        counts = np.array([len(b) for b in buckets], dtype=np.int64)
        self.offsets = np.zeros(len(buckets) + 1, dtype=np.int64)
        np.cumsum(counts, out=self.offsets[1:])
        self.entries = np.array(
            [pid for b in buckets for pid in b] or [0], dtype=np.int64
        )

    def query_points(self, px: np.ndarray, py: np.ndarray):
        """-> (point_idx array, polygon_id array) of exact containment hits.
        CLOSED boundaries: membership and refine both include points exactly
        on the index bbox / polygon edges (BETWEEN semantics, matching the
        brute tier and the SQL oracle)."""
        bx = np.floor((px - self.xmin) / self.dx).astype(np.int64)
        by = np.floor((py - self.ymin) / self.dy).astype(np.int64)
        # closed bbox: a point exactly ON the max edge belongs to the last
        # cell (floor puts it at index nx, which strict `< nx` would drop)
        in_grid = (px >= self.xmin) & (px <= self.xmax) & (py >= self.ymin) & (py <= self.ymax)
        bx = np.clip(bx, 0, self.nx - 1)
        by = np.clip(by, 0, self.ny - 1)
        bucket = by * self.nx + bx
        # candidate pairs via CSR expansion
        start = self.offsets[bucket]
        end = self.offsets[bucket + 1]
        ncand = (end - start) * in_grid
        total = int(ncand.sum())
        if total == 0:
            return np.zeros(0, np.int64), np.zeros(0, np.int64)
        pt_idx = np.repeat(np.arange(len(px), dtype=np.int64), ncand)
        flat = (
            np.arange(total, dtype=np.int64)
            - np.repeat(np.cumsum(ncand) - ncand, ncand)
            + np.repeat(start, ncand)
        )
        cand_pid = self.entries[flat]
        # exact refine per polygon (vectorized over that polygon's candidates)
        keep_pt, keep_pid = [], []
        for pid in np.unique(cand_pid):
            sel = cand_pid == pid
            pts = pt_idx[sel]
            inside = geommod.points_in_ring(px[pts], py[pts], self.rings[pid])
            inside |= geommod.points_on_ring_boundary(px[pts], py[pts], self.rings[pid])
            keep_pt.append(pts[inside])
            keep_pid.append(np.full(int(inside.sum()), pid, dtype=np.int64))
        return np.concatenate(keep_pt), np.concatenate(keep_pid)


class GridPointIndex:
    """Points bucketed on a grid for kNN probes (nearest-k by expanding-ring
    bucket search, exact distances)."""

    def __init__(self, ids: np.ndarray, xs: np.ndarray, ys: np.ndarray, nx: int = 128, ny: int = 128):
        self.ids = np.asarray(ids, dtype=np.int64)
        self.xs = np.asarray(xs, dtype=np.float64)
        self.ys = np.asarray(ys, dtype=np.float64)
        self.xmin, self.xmax = float(xs.min()), float(xs.max())
        self.ymin, self.ymax = float(ys.min()), float(ys.max())
        self.nx, self.ny = nx, ny
        self.dx = (self.xmax - self.xmin) / nx or 1.0
        self.dy = (self.ymax - self.ymin) / ny or 1.0
        bx = np.clip(((self.xs - self.xmin) / self.dx).astype(np.int64), 0, nx - 1)
        by = np.clip(((self.ys - self.ymin) / self.dy).astype(np.int64), 0, ny - 1)
        bucket = by * nx + bx
        order = np.argsort(bucket, kind="stable")
        self.sorted_idx = order
        self.bucket_sorted = bucket[order]
        self.offsets = np.searchsorted(self.bucket_sorted, np.arange(nx * ny + 1))

    def _bucket_members(self, bx: int, by: int) -> np.ndarray:
        b = by * self.nx + bx
        return self.sorted_idx[self.offsets[b] : self.offsets[b + 1]]

    def nearest_k(self, qx: float, qy: float, k: int):
        """Expanding-ring search; exact (dist, id)-ordered top-k.

        Termination: rings expand until the minimum possible distance from
        the query to the nearest UN-searched cell boundary strictly exceeds
        the current kth-best candidate distance.  (A fixed "+1 extra ring"
        is NOT sufficient: after ring r the kth-best can sit at
        ~sqrt(2)*(r+1)*cell while ring r+2 points start at (r+1)*cell.)
        The strict `<` keeps exact-distance ties searchable so the (dist, id)
        tie-break sees every tied candidate."""
        cbx = int(np.clip((qx - self.xmin) / self.dx, 0, self.nx - 1))
        cby = int(np.clip((qy - self.ymin) / self.dy, 0, self.ny - 1))
        found: list[np.ndarray] = []
        have = 0
        ring = 0
        max_ring = max(self.nx, self.ny)
        kth_best = np.inf
        while ring <= max_ring:
            members = []
            for bx in range(max(0, cbx - ring), min(self.nx, cbx + ring + 1)):
                for by in range(max(0, cby - ring), min(self.ny, cby + ring + 1)):
                    if max(abs(bx - cbx), abs(by - cby)) == ring:
                        members.append(self._bucket_members(bx, by))
            if members:
                ring_members = np.concatenate(members)
                if len(ring_members):
                    found.append(ring_members)
                    have += len(ring_members)
            if have >= k:
                cand = np.concatenate(found)
                d = np.sqrt((self.xs[cand] - qx) ** 2 + (self.ys[cand] - qy) ** 2)
                kth_best = np.partition(d, k - 1)[k - 1] if len(d) > k else d.max()
            # distance from q to the nearest boundary of un-searched cells:
            # the searched region after this ring is the rectangle
            # [cbx-ring, cbx+ring] x [cby-ring, cby+ring] in cell coords,
            # clipped to the grid (clipped sides have nothing beyond them).
            margins = []
            if cbx - ring > 0:
                margins.append(qx - (self.xmin + (cbx - ring) * self.dx))
            if cbx + ring < self.nx - 1:
                margins.append((self.xmin + (cbx + ring + 1) * self.dx) - qx)
            if cby - ring > 0:
                margins.append(qy - (self.ymin + (cby - ring) * self.dy))
            if cby + ring < self.ny - 1:
                margins.append((self.ymin + (cby + ring + 1) * self.dy) - qy)
            if not margins:
                break  # whole grid searched
            if kth_best < min(margins):
                break
            ring += 1
        if not found:
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
        cand = np.concatenate(found)
        d = np.sqrt((self.xs[cand] - qx) ** 2 + (self.ys[cand] - qy) ** 2)
        order = np.lexsort((self.ids[cand], d))[:k]
        sel = cand[order]
        return self.ids[sel], d[order]

    def nearest_k_bulk(self, qx: np.ndarray, qy: np.ndarray, k: int):
        """Vectorized ``nearest_k`` over a whole query set — ONE numpy pass
        per radius round instead of a python ring loop per query.

        Per round, every still-active query gathers ALL points in its
        (2r+1)^2 cell window (CSR bucket layout: offsets + repeat-gather),
        takes its (dist, id)-ordered top-k, and retires once the kth-best
        distance is strictly below the distance to the nearest UN-searched
        cell boundary (same exactness rule as nearest_k).  Survivors retry
        with a doubled radius; the radius starts at the density-implied
        window that should hold ~3k candidates.

        Returns (query_pos, ids, dists) flat arrays in (query, rank) order;
        exact — matches nearest_k row-for-row (tested)."""
        qx = np.asarray(qx, np.float64)
        qy = np.asarray(qy, np.float64)
        nq = len(qx)
        if nq == 0 or len(self.ids) == 0:
            return (np.zeros(0, np.int64),) * 2 + (np.zeros(0, np.float64),)
        cbx = np.clip(((qx - self.xmin) / self.dx).astype(np.int64), 0, self.nx - 1)
        cby = np.clip(((qy - self.ymin) / self.dy).astype(np.int64), 0, self.ny - 1)
        # density-implied starting radius: window expected to hold ~3k points
        per_cell = max(len(self.ids) / (self.nx * self.ny), 1e-9)
        r = int(np.ceil((np.sqrt(3.0 * k / per_cell) - 1.0) / 2.0))
        r = max(0, min(r, max(self.nx, self.ny)))
        max_r = max(self.nx, self.ny)

        active = np.arange(nq)
        out_q = [np.zeros(0, np.int64)]
        out_i = [np.zeros(0, np.int64)]
        out_d = [np.zeros(0, np.float64)]
        while len(active):
            a_cbx, a_cby = cbx[active], cby[active]
            off = np.arange(-r, r + 1)
            cx = a_cbx[:, None, None] + off[None, :, None]   # (A, W, 1)
            cy = a_cby[:, None, None] + off[None, None, :]   # (A, 1, W)
            cx, cy = np.broadcast_arrays(cx, cy)
            valid = (cx >= 0) & (cx < self.nx) & (cy >= 0) & (cy < self.ny)
            qslot = np.broadcast_to(
                np.arange(len(active))[:, None, None], cx.shape)[valid]
            cell = (cy[valid] * self.nx + cx[valid])
            starts = self.offsets[cell]
            cnt = self.offsets[cell + 1] - starts
            total = int(cnt.sum())
            if total:
                base = np.repeat(np.cumsum(cnt) - cnt, cnt)
                gather = np.arange(total) - base + np.repeat(starts, cnt)
                pts = self.sorted_idx[gather]
                qrep = np.repeat(qslot, cnt)
                d = np.sqrt((self.xs[pts] - qx[active][qrep]) ** 2
                            + (self.ys[pts] - qy[active][qrep]) ** 2)
                order = np.lexsort((self.ids[pts], d, qrep))
                qs, ds_, ps = qrep[order], d[order], pts[order]
                n = len(qs)
                startpos = np.maximum.accumulate(
                    np.where(np.r_[True, qs[1:] != qs[:-1]], np.arange(n), 0))
                rank = np.arange(n) - startpos
                keep = rank < k
                # per-active-query candidate count and kth-best distance
                have = np.bincount(qs, minlength=len(active))
                kth = np.full(len(active), np.inf)
                lastkeep = keep & ((rank == k - 1) | (np.r_[qs[1:] != qs[:-1], True]))
                kth[qs[lastkeep]] = ds_[lastkeep]
                kth[have < k] = np.inf
            else:
                have = np.zeros(len(active), np.int64)
                kth = np.full(len(active), np.inf)
                keep = np.zeros(0, bool)
                qs = np.zeros(0, np.int64)
                ds_ = np.zeros(0, np.float64)
                ps = np.zeros(0, np.int64)
            # margin to nearest un-searched cell boundary (clipped sides open)
            margin = np.full(len(active), np.inf)
            m = a_cbx - r > 0
            margin[m] = np.minimum(margin[m], qx[active][m] - (self.xmin + (a_cbx[m] - r) * self.dx))
            m = a_cbx + r < self.nx - 1
            margin[m] = np.minimum(margin[m], (self.xmin + (a_cbx[m] + r + 1) * self.dx) - qx[active][m])
            m = a_cby - r > 0
            margin[m] = np.minimum(margin[m], qy[active][m] - (self.ymin + (a_cby[m] - r) * self.dy))
            m = a_cby + r < self.ny - 1
            margin[m] = np.minimum(margin[m], (self.ymin + (a_cby[m] + r + 1) * self.dy) - qy[active][m])
            done = (kth < margin) | np.isinf(margin) | (r >= max_r)
            if total:
                emit = keep & done[qs]
                out_q.append(active[qs[emit]])
                out_i.append(self.ids[ps[emit]])
                out_d.append(ds_[emit])
            active = active[~done]
            r = r * 2 + 1
        oq = np.concatenate(out_q)
        oi = np.concatenate(out_i)
        od = np.concatenate(out_d)
        order = np.lexsort((oi, od, oq))
        return oq[order], oi[order], od[order]


def _block_key(ids, xs, ys) -> tuple:
    """Content key for a block's point set: a blake2b digest of the raw
    coordinate/id bytes.  (len, first-id, last-id) alone is NOT safe —
    two corpus snapshots with the same id layout but moved points would
    silently reuse the wrong geometry's index.  O(n) at memcmp speed,
    negligible next to the index build it guards."""
    import hashlib

    h = hashlib.blake2b(digest_size=16)
    h.update(np.ascontiguousarray(ids).tobytes())
    h.update(np.ascontiguousarray(xs).tobytes())
    h.update(np.ascontiguousarray(ys).tobytes())
    return (len(ids), h.digest())


def _cached_grid_index(ids, xs, ys, index: str = "grid"):
    """The block's point index, built once per worker.  Keyed on block
    CONTENT, so a static corpus probed by successive query sets reuses
    each block's index; keep=16 blocks per worker.  Purely an
    optimization: a miss rebuilds, results are identical either way."""
    from ..util import worker_cached

    def build():
        if index == "rtree":
            from .rtree import HilbertPointIndex

            return HilbertPointIndex(ids, xs, ys)
        n_side = int(np.clip(np.sqrt(len(ids) / 8.0), 8, 128))
        return GridPointIndex(ids, xs, ys, nx=n_side, ny=n_side)

    return worker_cached("spatial_index.points", (*_block_key(ids, xs, ys), index), build,
                         keep=16)


def knn_indexed(ds, queries, k: int, id_col: str = "doc_id", index: str = "grid"):
    """kNN via per-partition point indexes (ST5) — identical results to the
    brute-force path, sub-linear probe cost per query.

    Runs in plain tasks with each block's index memoized per worker process
    (zero actor spin-up; measured 30% faster than an actor pool on the
    4-CPU test host).

    Tier rule (measured, sf0.1 = 2M points @32 CPUs): the vectorized brute
    partial (spatial.knn) wins below ~2k probe points (Q=4: 0.43 s vs
    1.8 s; Q=1024: 4.8 s vs 5.8 s); the indexed tier's wall is ~flat in Q
    and wins 7x at Q=4096 (4.9 s vs 34.8 s).  Route small probe sets to
    brute, probe-heavy workloads here."""
    qlist = [(int(q[0]), float(q[1]), float(q[2])) for q in queries]
    qids = np.array([q[0] for q in qlist], np.int64)
    qxs = np.array([q[1] for q in qlist], np.float64)
    qys = np.array([q[2] for q in qlist], np.float64)

    def probe(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        if len(ids) == 0:
            return pa.table(
                {
                    "query_id": pa.array([], pa.int64()),
                    "doc_id": pa.array([], pa.int64()),
                    "dist": pa.array([], pa.float64()),
                }
            )
        xs = batch["lon"].to_numpy(zero_copy_only=False)
        ys = batch["lat"].to_numpy(zero_copy_only=False)
        idx = _cached_grid_index(ids, xs, ys, index=index)
        if hasattr(idx, "nearest_k_bulk"):
            # vectorized whole-query-set probe (one numpy pass per
            # radius round, no per-query python ring loop)
            qpos, nid, nd = idx.nearest_k_bulk(qxs, qys, k)
            return pa.table({
                "query_id": pa.array(qids[qpos]),
                "doc_id": pa.array(nid),
                "dist": pa.array(nd),
            })
        out_q, out_id, out_d = [], [], []
        for qid, qx, qy in qlist:
            nid, nd = idx.nearest_k(qx, qy, k)
            out_q.append(np.full(len(nid), qid, dtype=np.int64))
            out_id.append(nid)
            out_d.append(nd)
        return pa.table(
            {
                "query_id": np.concatenate(out_q),
                "doc_id": np.concatenate(out_id),
                "dist": np.concatenate(out_d),
            }
        )

    partial = ds.map_batches(
        probe, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )

    # total merge: vectorized key-bucket top-k (no per-query pandas groups)
    from ..stages.stats import top_k_per_group

    return top_k_per_group(partial, group_col="query_id", order_col="dist",
                           k=k, tie_col="doc_id", ascending=True)


def pip_join_indexed(ds, polygons: list[tuple[str, np.ndarray]], keep_cols=("doc_id",),
                     index: str = "grid"):
    """J1 at scale: PIP semi-join via an index built once per worker from a
    broadcast ref (ray.put) — never re-shipped per batch, never shuffled.
    Output: keep_cols of matched points + zone_name.

    ``index="grid"`` (bucket CSR) or ``"rtree"`` (packed Hilbert R-tree,
    state/rtree.py) — both exact, identical output; the R-tree wins when the
    polygon set's bboxes are highly non-uniform (skewed sizes/clusters)."""
    import ray

    from ..util import worker_cached

    ref = ray.put([(n, np.asarray(r).tolist()) for n, r in polygons])
    keep_cols = list(keep_cols)

    def build():
        polys = [(n, np.asarray(r, dtype=np.float64)) for n, r in ray.get(ref)]
        if index == "rtree":
            from .rtree import HilbertPolygonIndex

            return HilbertPolygonIndex(polys)
        return GridPolygonIndex(polys)

    def probe(batch: pa.Table) -> pa.Table:
        idx = worker_cached("spatial_index.polygons", (ref.hex(), index), build)
        px = batch["lon"].to_numpy(zero_copy_only=False)
        py = batch["lat"].to_numpy(zero_copy_only=False)
        pt_idx, pids = idx.query_points(px, py)
        names = pa.DictionaryArray.from_arrays(
            pa.array(pids.astype(np.int32)), pa.array(idx.names, pa.string())
        ).cast(pa.string())
        out = batch.select(keep_cols).take(pa.array(pt_idx))
        return out.append_column("zone_name", names)

    return ds.map_batches(probe, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)
