"""Vectorized geometry kernels (no shapely; pure numpy + struct).

Covers the reference's vector-side surface (SURVEY.md §2.9, slick module):
WKB/WKT codecs (PostGisSupport.scala:89-116), distance/length/centroid/GeoJSON
scalar functions (PostgisSpec.scala:176-196, PostGisProjectionSupportSpec.scala:60-91),
bbox construction (Data.scala:59-66), and the point-in-polygon predicate behind
``@&&``-style spatial filters (PostgisSpec.scala:133-170).

Geometry model: a ``Polygon`` is a list of rings; each ring is an (N, 2)
float64 ndarray with first point == last point.  Points are plain (x, y)
float64 column pairs — the hot-path representation inside Arrow batches.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

# WKB geometry type codes (OGC)
WKB_POINT = 1
WKB_LINESTRING = 2
WKB_POLYGON = 3
WKB_MULTIPOINT = 4
WKB_MULTILINESTRING = 5
WKB_MULTIPOLYGON = 6
WKB_GEOMETRYCOLLECTION = 7


@dataclass
class Polygon:
    """Exterior ring + optional holes; rings are closed (N,2) float64 arrays."""

    exterior: np.ndarray
    holes: list[np.ndarray] = field(default_factory=list)

    @property
    def bounds(self) -> tuple[float, float, float, float]:
        xs, ys = self.exterior[:, 0], self.exterior[:, 1]
        return float(xs.min()), float(ys.min()), float(xs.max()), float(ys.max())

    def contains_points(self, px, py) -> np.ndarray:
        m = points_in_ring(px, py, self.exterior)
        for h in self.holes:
            m &= ~points_in_ring(px, py, h)
        return m


def box(xmin: float, ymin: float, xmax: float, ymax: float) -> Polygon:
    return Polygon(
        np.array(
            [[xmin, ymin], [xmax, ymin], [xmax, ymax], [xmin, ymax], [xmin, ymin]],
            dtype=np.float64,
        )
    )


def bbox_buffer(x: float, y: float, d: float) -> Polygon:
    """Square buffer around a point (slick/src/test/.../Data.scala:59-66)."""
    return box(x - d, y - d, x + d, y + d)


# --- predicates -------------------------------------------------------------


def points_in_ring(px, py, ring: np.ndarray) -> np.ndarray:
    """Vectorized ray-casting point-in-ring test; boundary-inclusive on the
    left/bottom edge crossings (even-odd rule).

    O(P * E) numpy broadcast — rings here are small (query polygons), points
    are the batch.  For big rings use the edge-bucketed index in
    state/spatial_index.py.
    """
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    x0, y0 = ring[:-1, 0], ring[:-1, 1]  # edge starts  (E,)
    x1, y1 = ring[1:, 0], ring[1:, 1]  # edge ends
    # broadcast points (P,1) against edges (E,)
    pyc = py[:, None]
    pxc = px[:, None]
    cond = (y0 > pyc) != (y1 > pyc)
    with np.errstate(divide="ignore", invalid="ignore"):
        xint = x0 + (pyc - y0) * (x1 - x0) / (y1 - y0)
    crossings = cond & (pxc < xint)
    return (crossings.sum(axis=1) % 2).astype(bool)


def points_on_ring_boundary(px, py, ring: np.ndarray, eps: float = 0.0) -> np.ndarray:
    """Vectorized point-ON-ring-edge test (exact for eps=0): |cross| <= eps
    and the point within the segment's bbox.  OR-ed with the even-odd
    interior test this gives CLOSED-boundary containment — the semantics of
    SQL BETWEEN box joins and the brute tier's half-plane <= 0 (ray-casting
    alone excludes top/right edges)."""
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    x0, y0 = ring[:-1, 0], ring[:-1, 1]
    x1, y1 = ring[1:, 0], ring[1:, 1]
    pxc, pyc = px[:, None], py[:, None]
    cross = (x1 - x0) * (pyc - y0) - (y1 - y0) * (pxc - x0)
    inx = (pxc >= np.minimum(x0, x1) - eps) & (pxc <= np.maximum(x0, x1) + eps)
    iny = (pyc >= np.minimum(y0, y1) - eps) & (pyc <= np.maximum(y0, y1) + eps)
    return ((np.abs(cross) <= eps) & inx & iny).any(axis=1)



def _segments_intersect(ax, ay, bx, by, cx, cy, dx, dy) -> bool:
    def ccw(px, py, qx, qy, rx, ry):
        return (qx - px) * (ry - py) - (qy - py) * (rx - px)

    d1 = ccw(cx, cy, dx, dy, ax, ay)
    d2 = ccw(cx, cy, dx, dy, bx, by)
    d3 = ccw(ax, ay, bx, by, cx, cy)
    d4 = ccw(ax, ay, bx, by, dx, dy)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return True
    return False


def polygon_intersects_box(ring: np.ndarray, xmin, ymin, xmax, ymax) -> bool:
    """Tile-extent × polygon intersection used by keys_for_geometry (J4)."""
    xs, ys = ring[:, 0], ring[:, 1]
    if xs.max() <= xmin or xs.min() >= xmax or ys.max() <= ymin or ys.min() >= ymax:
        return False
    # any vertex inside box
    if np.any((xs > xmin) & (xs < xmax) & (ys > ymin) & (ys < ymax)):
        return True
    # box center inside polygon
    cx, cy = (xmin + xmax) / 2.0, (ymin + ymax) / 2.0
    if points_in_ring([cx], [cy], ring)[0]:
        return True
    # edge crossings against the four box edges
    bx = [(xmin, ymin, xmax, ymin), (xmax, ymin, xmax, ymax), (xmax, ymax, xmin, ymax), (xmin, ymax, xmin, ymin)]
    for i in range(len(ring) - 1):
        ax, ay = ring[i]
        bx2, by2 = ring[i + 1]
        for (cx0, cy0, dx0, dy0) in bx:
            if _segments_intersect(ax, ay, bx2, by2, cx0, cy0, dx0, dy0):
                return True
    return False


def convex_contains_points(px, py, verts: list[tuple[float, float]]) -> np.ndarray:
    """Half-plane PIP for a CW convex polygon; expression mirrors the SQL
    oracle (query_defs.convex_sql_predicate) term-for-term so double rounding
    is identical on both sides."""
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    out = np.ones(px.shape, dtype=bool)
    m = len(verts)
    for i in range(m):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % m]
        out &= ((x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)) <= 0
    return out


def box_contains_points(px, py, xmin, ymin, xmax, ymax) -> np.ndarray:
    """Closed-range bbox containment (SQL BETWEEN semantics), vectorized."""
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    return (px >= xmin) & (px <= xmax) & (py >= ymin) & (py <= ymax)


# --- scalar functions (F1-F6) ----------------------------------------------


def distance(x1, y1, x2, y2) -> np.ndarray:
    """Planar euclidean distance, vectorized (PostgisSpec.scala:176-177)."""
    x1 = np.asarray(x1, dtype=np.float64)
    y1 = np.asarray(y1, dtype=np.float64)
    return np.sqrt((x1 - np.asarray(x2, dtype=np.float64)) ** 2 + (y1 - np.asarray(y2, dtype=np.float64)) ** 2)


def line_length(coords: np.ndarray) -> float:
    """Sum of segment lengths (PostGisProjectionSupportSpec.scala:60-72)."""
    d = np.diff(coords, axis=0)
    return float(np.sqrt((d**2).sum(axis=1)).sum())


def multipoint_centroid(coords: np.ndarray) -> tuple[float, float]:
    """Mean of points (centroid golden: Point(1.5,1.5), spec :74-92)."""
    return float(coords[:, 0].mean()), float(coords[:, 1].mean())


def polygon_area(ring: np.ndarray) -> float:
    x, y = ring[:-1, 0], ring[:-1, 1]
    x1, y1 = ring[1:, 0], ring[1:, 1]
    return float(0.5 * np.sum(x * y1 - x1 * y))


def polygon_centroid(poly: Polygon) -> tuple[float, float]:
    ring = poly.exterior
    x, y = ring[:-1, 0], ring[:-1, 1]
    x1, y1 = ring[1:, 0], ring[1:, 1]
    cross = x * y1 - x1 * y
    a = cross.sum() / 2.0
    cx = ((x + x1) * cross).sum() / (6.0 * a)
    cy = ((y + y1) * cross).sum() / (6.0 * a)
    return float(cx), float(cy)


def _fmt_coord(v: float) -> float | int:
    """GeoJSON number formatting: ints stay ints, floats trimmed
    (golden: {"type":"Point","coordinates":[75.97,40.38]}, PostgisSpec.scala:196)."""
    if v == int(v):
        return int(v)
    return v


def point_geojson(x: float, y: float) -> str:
    return json.dumps(
        {"type": "Point", "coordinates": [_fmt_coord(x), _fmt_coord(y)]},
        separators=(",", ":"),
    )


# --- WKB codec (S6) ---------------------------------------------------------


def point_to_wkb(x: float, y: float, srid: int | None = None) -> bytes:
    """Little-endian (E)WKB point; srid -> PostGIS-style EWKB flag."""
    if srid is None:
        return struct.pack("<BIdd", 1, WKB_POINT, x, y)
    return struct.pack("<BIIdd", 1, WKB_POINT | 0x20000000, srid, x, y)


class _WkbReader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def _unpack(self, fmt: str, endian: str):
        size = struct.calcsize(endian + fmt)
        vals = struct.unpack_from(endian + fmt, self.data, self.pos)
        self.pos += size
        return vals

    def read_geometry(self):
        (byte_order,) = struct.unpack_from("<B", self.data, self.pos)
        self.pos += 1
        endian = "<" if byte_order == 1 else ">"
        (gtype_raw,) = self._unpack("I", endian)
        srid = None
        gtype = gtype_raw & 0xFF
        if gtype_raw & 0x20000000:  # EWKB SRID flag
            (srid,) = self._unpack("I", endian)
        if gtype == WKB_POINT:
            x, y = self._unpack("dd", endian)
            return ("Point", (x, y), srid)
        if gtype == WKB_LINESTRING:
            return ("LineString", self._read_ring(endian), srid)
        if gtype == WKB_POLYGON:
            (nrings,) = self._unpack("I", endian)
            rings = [self._read_ring(endian) for _ in range(nrings)]
            return ("Polygon", rings, srid)
        if gtype in (WKB_MULTIPOINT, WKB_MULTILINESTRING, WKB_MULTIPOLYGON, WKB_GEOMETRYCOLLECTION):
            (n,) = self._unpack("I", endian)
            parts = [self.read_geometry() for _ in range(n)]
            name = {
                WKB_MULTIPOINT: "MultiPoint",
                WKB_MULTILINESTRING: "MultiLineString",
                WKB_MULTIPOLYGON: "MultiPolygon",
                WKB_GEOMETRYCOLLECTION: "GeometryCollection",
            }[gtype]
            return (name, parts, srid)
        raise ValueError(f"unsupported WKB geometry type {gtype}")

    def _read_ring(self, endian: str) -> np.ndarray:
        (npts,) = self._unpack("I", endian)
        arr = np.frombuffer(self.data, dtype=endian + "f8", count=npts * 2, offset=self.pos)
        self.pos += npts * 16
        return arr.reshape(npts, 2).astype(np.float64)


def wkb_to_geometry(data: bytes | str):
    """Parse WKB; accepts hex strings with optional '\\x' prefix
    (PostGisProjectionSupport.scala:118-125 auto-detects hex-WKB)."""
    if isinstance(data, str):
        if data.startswith("\\x"):
            data = data[2:]
        data = bytes.fromhex(data)
    return _WkbReader(data).read_geometry()


def geometry_to_wkb(kind: str, coords, srid: int | None = None) -> bytes:
    out = bytearray()
    gtype = {
        "Point": WKB_POINT,
        "LineString": WKB_LINESTRING,
        "Polygon": WKB_POLYGON,
        "MultiPoint": WKB_MULTIPOINT,
        "MultiLineString": WKB_MULTILINESTRING,
        "MultiPolygon": WKB_MULTIPOLYGON,
        "GeometryCollection": WKB_GEOMETRYCOLLECTION,
    }[kind]
    if srid is not None:
        out += struct.pack("<BII", 1, gtype | 0x20000000, srid)
    else:
        out += struct.pack("<BI", 1, gtype)
    if kind == "Point":
        out += struct.pack("<dd", *coords)
    elif kind == "LineString":
        arr = np.asarray(coords, dtype="<f8")
        out += struct.pack("<I", len(arr))
        out += arr.tobytes()
    elif kind == "Polygon":
        out += struct.pack("<I", len(coords))
        for ring in coords:
            arr = np.asarray(ring, dtype="<f8")
            out += struct.pack("<I", len(arr))
            out += arr.tobytes()
    else:  # multi* / collection: parts are (kind, coords[, srid]) tuples
        out += struct.pack("<I", len(coords))
        for part in coords:
            out += geometry_to_wkb(part[0], part[1])
    return bytes(out)


# --- WKT codec (S6): all 7 geometry kinds + SRID=…;WKT literals -------------
# Grammar per the OGC simple-features text form, the surface
# PostGisSupport.scala:93-98 (readWktOrWkb) and the SRID=…;WKT literal form
# (PostGisProjectionSupport.scala:103-126) accept.


def point_to_ewkt(x: float, y: float, srid: int) -> str:
    """``SRID=<srid>;POINT (x y)`` literal (PostGisProjectionSupport.scala:106)."""
    return f"SRID={srid};POINT ({_fmt_coord(x)} {_fmt_coord(y)})"


class _WktReader:
    """Recursive-descent WKT reader producing the same (kind, coords, srid)
    tuples as wkb_to_geometry: Point -> (x, y); LineString -> (N,2) array;
    Polygon -> [rings]; Multi*/GeometryCollection -> [child tuples]."""

    def __init__(self, s: str):
        self.s = s
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.s) and self.s[self.pos].isspace():
            self.pos += 1

    def _expect(self, ch: str):
        self._skip_ws()
        if self.pos >= len(self.s) or self.s[self.pos] != ch:
            raise ValueError(f"expected {ch!r} at position {self.pos} in {self.s!r}")
        self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.s[self.pos] if self.pos < len(self.s) else ""

    def _word(self) -> str:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.s) and (self.s[self.pos].isalpha()):
            self.pos += 1
        return self.s[start : self.pos].upper()

    def _number(self) -> float:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.s) and self.s[self.pos] not in " ,()\t\n":
            self.pos += 1
        return float(self.s[start : self.pos])

    def _coord(self) -> tuple[float, float]:
        return self._number(), self._number()

    def _coord_list(self) -> np.ndarray:
        self._expect("(")
        pts = [self._coord()]
        while self._peek() == ",":
            self.pos += 1
            pts.append(self._coord())
        self._expect(")")
        return np.array(pts, dtype=np.float64)

    def _ring_list(self) -> list[np.ndarray]:
        self._expect("(")
        rings = [self._coord_list()]
        while self._peek() == ",":
            self.pos += 1
            rings.append(self._coord_list())
        self._expect(")")
        return rings

    def read(self, srid: int | None = None):
        kind = self._word()
        # EMPTY geometries
        save = self.pos
        if self._word() == "EMPTY":
            empty = {
                "POINT": (float("nan"), float("nan")),
                "LINESTRING": np.zeros((0, 2)),
                "POLYGON": [],
            }.get(kind, [])
            name = _WKT_KIND[kind]
            return (name, empty, srid)
        self.pos = save

        if kind == "POINT":
            self._expect("(")
            xy = self._coord()
            self._expect(")")
            return ("Point", xy, srid)
        if kind == "LINESTRING":
            return ("LineString", self._coord_list(), srid)
        if kind == "POLYGON":
            return ("Polygon", self._ring_list(), srid)
        if kind == "MULTIPOINT":
            self._expect("(")
            parts = []
            while True:
                if self._peek() == "(":  # parenthesized form (1 1), (2 2)
                    self._expect("(")
                    parts.append(("Point", self._coord(), srid))
                    self._expect(")")
                else:  # bare form 1 1, 2 2
                    parts.append(("Point", self._coord(), srid))
                if self._peek() != ",":
                    break
                self.pos += 1
            self._expect(")")
            return ("MultiPoint", parts, srid)
        if kind == "MULTILINESTRING":
            self._expect("(")
            parts = [("LineString", self._coord_list(), srid)]
            while self._peek() == ",":
                self.pos += 1
                parts.append(("LineString", self._coord_list(), srid))
            self._expect(")")
            return ("MultiLineString", parts, srid)
        if kind == "MULTIPOLYGON":
            self._expect("(")
            parts = [("Polygon", self._ring_list(), srid)]
            while self._peek() == ",":
                self.pos += 1
                parts.append(("Polygon", self._ring_list(), srid))
            self._expect(")")
            return ("MultiPolygon", parts, srid)
        if kind == "GEOMETRYCOLLECTION":
            self._expect("(")
            parts = [self.read(srid)]
            while self._peek() == ",":
                self.pos += 1
                parts.append(self.read(srid))
            self._expect(")")
            return ("GeometryCollection", parts, srid)
        raise ValueError(f"unsupported WKT geometry kind {kind!r}")


_WKT_KIND = {
    "POINT": "Point",
    "LINESTRING": "LineString",
    "POLYGON": "Polygon",
    "MULTIPOINT": "MultiPoint",
    "MULTILINESTRING": "MultiLineString",
    "MULTIPOLYGON": "MultiPolygon",
    "GEOMETRYCOLLECTION": "GeometryCollection",
}


def parse_wkt(wkt: str):
    """Parse WKT (optionally with the ``SRID=<n>;`` EWKT prefix) into the
    same (kind, coords, srid) tuple shape wkb_to_geometry returns."""
    s = wkt.strip()
    srid = None
    if s.upper().startswith("SRID="):
        head, s = s.split(";", 1)
        srid = int(head.split("=")[1])
    return _WktReader(s).read(srid)


def _part(p):
    """Multi-geometry parts are (kind, coords) or (kind, coords, srid) —
    the WKB encoder accepts both shapes; the WKT encoder must too."""
    return p[0], p[1]


def _wkt_coords(kind: str, coords) -> str:
    def pt(xy):
        return f"{_fmt_coord(xy[0])} {_fmt_coord(xy[1])}"

    def coord_list(arr) -> str:
        return "(" + ", ".join(pt(p) for p in np.asarray(arr)) + ")"

    if kind == "Point":
        import math

        if math.isnan(coords[0]) or math.isnan(coords[1]):
            return "EMPTY"  # parse_wkt('POINT EMPTY') round-trips
        return f"({pt(coords)})"
    if kind == "LineString":
        return coord_list(coords)
    if kind == "Polygon":
        return "(" + ", ".join(coord_list(r) for r in coords) + ")"
    if kind == "MultiPoint":
        return "(" + ", ".join(f"({pt(_part(p)[1])})" for p in coords) + ")"
    if kind in ("MultiLineString", "MultiPolygon"):
        return "(" + ", ".join(_wkt_coords(*_part(p)) for p in coords) + ")"
    if kind == "GeometryCollection":
        return "(" + ", ".join(geometry_to_wkt(*_part(p)) for p in coords) + ")"
    raise ValueError(f"unsupported kind {kind}")


def geometry_to_wkt(kind: str, coords, srid: int | None = None) -> str:
    """(kind, coords) -> WKT; with srid -> ``SRID=<n>;WKT`` EWKT literal
    (PostGisProjectionSupport.toLiteral form)."""
    wc = _wkt_coords(kind, coords)
    body = f"{kind.upper()} {wc}" if wc != "EMPTY" else f"{kind.upper()} EMPTY"
    return f"SRID={srid};{body}" if srid is not None else body


_HEX_CHARS = set("0123456789abcdefABCDEF")


def read_wkt_or_wkb(s: str):
    """PostGisSupport.readWktOrWkb (PostGisSupport.scala:93-98): hex-WKB
    (with or without the ``\\x`` prefix) is auto-detected, everything else is
    parsed as (E)WKT."""
    t = s.strip()
    if t.startswith("\\x"):
        return wkb_to_geometry(t)
    if len(t) >= 10 and all(c in _HEX_CHARS for c in t[:10]) and t[:2] in ("00", "01"):
        return wkb_to_geometry(t)
    return parse_wkt(t)
