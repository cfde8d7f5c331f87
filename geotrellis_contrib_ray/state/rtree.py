"""Packed Hilbert R-tree (ST5 index tier) — flatbush-style static packing.

The reference's PIP / kNN probes ride PostGIS's GiST R-tree implicitly
(slick ``PostgisSpec.scala:162-188``); the north star asks for the index to
be explicit worker state: "stateful actor pools holding per-partition
STRtree/packed-Hilbert R-tree indexes for PIP and kNN probes".  This module
is that packed-Hilbert R-tree, built from public algorithm descriptions
(Kamel & Faloutsos 1994 Hilbert R-tree packing; the flatbush static layout):

* leaf boxes are sorted by the Hilbert code of their center on a 2^16 grid,
* nodes are formed by grouping ``node_size`` consecutive entries bottom-up,
* the whole tree is a list of flat numpy arrays — zero pointers, picklable,
  cheap to build per partition inside a worker (ST5 contract).

Probes are vectorized: point queries descend all points level-by-level as a
(point, node) frontier expanded with the same CSR arithmetic the grid index
uses; kNN is classic best-first search with a (dist, id) heap so the oracle's
``ORDER BY dist, doc_id`` tie-break is exact.

``HilbertPolygonIndex`` / ``HilbertPointIndex`` expose the same interfaces as
``GridPolygonIndex`` / ``GridPointIndex`` so ``pip_join_indexed`` /
``knn_indexed`` can select either tier; results are identical (both exact).
"""

from __future__ import annotations

import heapq

import numpy as np

from ..core import geom as geommod

_HILBERT_ORDER = 16  # centers quantized to a 2^16 x 2^16 grid -> 32-bit codes


def hilbert_d(order: int, x, y) -> np.ndarray:
    """Vectorized Hilbert curve index of integer cells (x, y) at ``order``.

    Classic bit-interleave-with-rotation formulation (public domain);
    verified by exhaustive bijectivity + unit-step adjacency tests in
    tests/test_rtree.py.
    """
    x = np.asarray(x, np.int64).copy()
    y = np.asarray(y, np.int64).copy()
    d = np.zeros_like(x)
    n = np.int64(1) << order
    s = np.int64(1) << (order - 1)
    while s > 0:
        rx = ((x & s) > 0).astype(np.int64)
        ry = ((y & s) > 0).astype(np.int64)
        d += s * s * ((3 * rx) ^ ry)
        # rotate the sub-quadrant so the curve stays continuous
        swap = ry == 0
        flip = swap & (rx == 1)
        xf = np.where(flip, n - 1 - x, x)
        yf = np.where(flip, n - 1 - y, y)
        x = np.where(swap, yf, xf)
        y = np.where(swap, xf, yf)
        s >>= 1
    return d


class HilbertRTree:
    """Static packed R-tree over (N, 4) boxes ``[xmin, ymin, xmax, ymax]``.

    ``levels[0]`` are the Hilbert-sorted leaf boxes; ``levels[i]`` groups
    ``node_size`` consecutive entries of ``levels[i-1]``; ``item_ids[j]`` maps
    sorted leaf position j back to the caller's box index.
    """

    def __init__(self, boxes: np.ndarray, node_size: int = 16):
        boxes = np.ascontiguousarray(boxes, dtype=np.float64).reshape(-1, 4)
        if len(boxes) == 0:
            raise ValueError("HilbertRTree needs at least one box")
        self.node_size = int(node_size)
        self.xmin = float(boxes[:, 0].min())
        self.ymin = float(boxes[:, 1].min())
        self.xmax = float(boxes[:, 2].max())
        self.ymax = float(boxes[:, 3].max())
        w = (self.xmax - self.xmin) or 1.0
        h = (self.ymax - self.ymin) or 1.0
        side = np.float64((1 << _HILBERT_ORDER) - 1)
        cx = (boxes[:, 0] + boxes[:, 2]) * 0.5
        cy = (boxes[:, 1] + boxes[:, 3]) * 0.5
        hx = np.clip(((cx - self.xmin) / w * side), 0, side).astype(np.int64)
        hy = np.clip(((cy - self.ymin) / h * side), 0, side).astype(np.int64)
        order = np.argsort(hilbert_d(_HILBERT_ORDER, hx, hy), kind="stable")
        self.item_ids = order.astype(np.int64)
        levels = [boxes[order]]
        while len(levels[-1]) > 1:
            prev = levels[-1]
            m = len(prev)
            nn = (m + self.node_size - 1) // self.node_size
            # group-min/max of node_size consecutive children (reduceat)
            starts = np.arange(nn, dtype=np.int64) * self.node_size
            parent = np.empty((nn, 4), dtype=np.float64)
            parent[:, 0] = np.minimum.reduceat(prev[:, 0], starts)
            parent[:, 1] = np.minimum.reduceat(prev[:, 1], starts)
            parent[:, 2] = np.maximum.reduceat(prev[:, 2], starts)
            parent[:, 3] = np.maximum.reduceat(prev[:, 3], starts)
            levels.append(parent)
        self.levels = levels

    # -- frontier expansion: children of node positions at level i ----------
    def _children(self, level_i: int, nodes: np.ndarray):
        lower = self.levels[level_i - 1]
        start = nodes * self.node_size
        end = np.minimum(start + self.node_size, len(lower))
        cnt = end - start
        total = int(cnt.sum())
        parent_row = np.repeat(np.arange(len(nodes), dtype=np.int64), cnt)
        child = (
            np.arange(total, dtype=np.int64)
            - np.repeat(np.cumsum(cnt) - cnt, cnt)
            + np.repeat(start, cnt)
        )
        return parent_row, child

    def query_points(self, px: np.ndarray, py: np.ndarray):
        """All (point_idx, box_id) pairs with box containing the point
        (closed boundaries), via a vectorized level-by-level descent."""
        px = np.asarray(px, np.float64)
        py = np.asarray(py, np.float64)
        pt = np.arange(len(px), dtype=np.int64)
        node = np.zeros(len(px), dtype=np.int64)
        # prune points outside the root box up front
        root = self.levels[-1][0]
        keep = (px >= root[0]) & (py >= root[1]) & (px <= root[2]) & (py <= root[3])
        pt, node = pt[keep], node[keep]
        for level_i in range(len(self.levels) - 1, 0, -1):
            if len(pt) == 0:
                break
            parent_row, child = self._children(level_i, node)
            boxes = self.levels[level_i - 1][child]
            cpx, cpy = px[pt[parent_row]], py[pt[parent_row]]
            hit = (
                (cpx >= boxes[:, 0])
                & (cpy >= boxes[:, 1])
                & (cpx <= boxes[:, 2])
                & (cpy <= boxes[:, 3])
            )
            pt, node = pt[parent_row[hit]], child[hit]
        return pt, self.item_ids[node]

    def query_bbox(self, qxmin: float, qymin: float, qxmax: float, qymax: float):
        """Box ids whose box intersects the query box (closed boundaries)."""
        node = np.zeros(1, dtype=np.int64)
        for level_i in range(len(self.levels) - 1, 0, -1):
            if len(node) == 0:
                break
            _, child = self._children(level_i, node)
            b = self.levels[level_i - 1][child]
            hit = (
                (b[:, 0] <= qxmax)
                & (b[:, 1] <= qymax)
                & (b[:, 2] >= qxmin)
                & (b[:, 3] >= qymin)
            )
            node = child[hit]
        if len(self.levels) == 1:  # single-item tree: check the root itself
            b = self.levels[0][node]
            hit = (
                (b[:, 0] <= qxmax)
                & (b[:, 1] <= qymax)
                & (b[:, 2] >= qxmin)
                & (b[:, 3] >= qymin)
            )
            node = node[hit]
        return self.item_ids[node]

    def _mindist(self, level_i: int, nodes: np.ndarray, qx: float, qy: float):
        b = self.levels[level_i][nodes]
        dx = np.maximum(np.maximum(b[:, 0] - qx, qx - b[:, 2]), 0.0)
        dy = np.maximum(np.maximum(b[:, 1] - qy, qy - b[:, 3]), 0.0)
        return np.sqrt(dx * dx + dy * dy)


class HilbertPolygonIndex:
    """Polygons in a packed Hilbert R-tree (bbox filter) + exact PIP refine.
    Same interface/results as ``GridPolygonIndex`` — interchangeable in
    ``pip_join_indexed``."""

    def __init__(self, polygons: list[tuple[str, np.ndarray]], node_size: int = 16):
        self.names = [p[0] for p in polygons]
        self.rings = [np.asarray(p[1], dtype=np.float64) for p in polygons]
        boxes = np.array(
            [
                [r[:, 0].min(), r[:, 1].min(), r[:, 0].max(), r[:, 1].max()]
                for r in self.rings
            ],
            dtype=np.float64,
        )
        self.tree = HilbertRTree(boxes, node_size=node_size)

    def query_points(self, px: np.ndarray, py: np.ndarray):
        """-> (point_idx, polygon_id) of exact containment hits."""
        pt_idx, cand_pid = self.tree.query_points(px, py)
        if len(pt_idx) == 0:
            return np.zeros(0, np.int64), np.zeros(0, np.int64)
        keep_pt, keep_pid = [], []
        for pid in np.unique(cand_pid):
            sel = cand_pid == pid
            pts = pt_idx[sel]
            inside = geommod.points_in_ring(px[pts], py[pts], self.rings[pid])
            # closed boundaries (BETWEEN semantics — see GridPolygonIndex)
            inside |= geommod.points_on_ring_boundary(px[pts], py[pts], self.rings[pid])
            keep_pt.append(pts[inside])
            keep_pid.append(np.full(int(inside.sum()), pid, dtype=np.int64))
        return np.concatenate(keep_pt), np.concatenate(keep_pid)


class HilbertPointIndex:
    """Points in a packed Hilbert R-tree (degenerate boxes); kNN by classic
    best-first search.  Same interface/results as ``GridPointIndex``."""

    def __init__(self, ids: np.ndarray, xs: np.ndarray, ys: np.ndarray, node_size: int = 16):
        self.ids = np.asarray(ids, dtype=np.int64)
        self.xs = np.asarray(xs, dtype=np.float64)
        self.ys = np.asarray(ys, dtype=np.float64)
        boxes = np.column_stack([self.xs, self.ys, self.xs, self.ys])
        self.tree = HilbertRTree(boxes, node_size=node_size)

    def nearest_k(self, qx: float, qy: float, k: int):
        """Exact (dist, id)-ordered top-k via best-first node expansion.

        The heap holds ``(mindist, kind, pos)``; ``kind=0`` for internal /
        leaf-level NODES, ``kind=1`` for concrete items.  A node is only
        expanded while its mindist can still beat the current kth-best, with
        ties kept searchable (``<=``) so equal-distance candidates all
        surface and the (dist, id) lexsort sees them."""
        tree = self.tree
        top = len(tree.levels) - 1
        heap: list[tuple[float, int, int, int]] = []
        # (mindist, kind, level, pos)
        heapq.heappush(heap, (float(tree._mindist(top, np.array([0]), qx, qy)[0]), 0, top, 0))
        cand_pos: list[int] = []
        cand_dist: list[float] = []
        kth = np.inf
        while heap:
            d, kind, level, pos = heapq.heappop(heap)
            if d > kth and len(cand_pos) >= k:
                break
            if kind == 1:
                cand_pos.append(pos)
                cand_dist.append(d)
                if len(cand_pos) >= k:
                    kth = np.partition(np.asarray(cand_dist), k - 1)[k - 1]
                continue
            if level == 0:
                # leaf-level node position IS an item position
                pos_arr = np.array([pos], dtype=np.int64)
                dd = tree._mindist(0, pos_arr, qx, qy)
                heapq.heappush(heap, (float(dd[0]), 1, 0, pos))
                continue
            _, child = tree._children(level, np.array([pos], dtype=np.int64))
            dd = tree._mindist(level - 1, child, qx, qy)
            if level - 1 == 0:
                for c, cd in zip(child, dd):
                    if cd <= kth or len(cand_pos) < k:
                        heapq.heappush(heap, (float(cd), 1, 0, int(c)))
            else:
                for c, cd in zip(child, dd):
                    if cd <= kth or len(cand_pos) < k:
                        heapq.heappush(heap, (float(cd), 0, level - 1, int(c)))
        if not cand_pos:
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
        sel = self.tree.item_ids[np.asarray(cand_pos, dtype=np.int64)]
        d = np.asarray(cand_dist, dtype=np.float64)
        order = np.lexsort((self.ids[sel], d))[:k]
        pick = sel[order]
        return self.ids[pick], d[order]
