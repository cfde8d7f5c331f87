import numpy as np

from geotrellis_contrib_ray.core import geom


def test_points_in_ring_square():
    ring = geom.box(0, 0, 10, 10).exterior
    px = np.array([5.0, -1.0, 10.5, 9.99, 0.01])
    py = np.array([5.0, 5.0, 5.0, 9.99, 0.01])
    m = geom.points_in_ring(px, py, ring)
    assert m.tolist() == [True, False, False, True, True]


def test_polygon_with_hole():
    poly = geom.Polygon(
        geom.box(0, 0, 10, 10).exterior, holes=[geom.box(4, 4, 6, 6).exterior]
    )
    m = poly.contains_points([5.0, 2.0], [5.0, 2.0])
    assert m.tolist() == [False, True]


def test_bbox_buffer_golden():
    # Data.scala:59-66 + PostgisSpec.scala:161-170: bboxBuffer(78.32, 40.30, 0.01)
    # selects exactly Altoona among the cities fixture
    from geotrellis_contrib_ray.functions.cities import CITIES

    poly = geom.bbox_buffer(78.32, 40.30, 0.01)
    xs = np.array([c[1] for c in CITIES])
    ys = np.array([c[2] for c in CITIES])
    hit = poly.contains_points(xs, ys)
    names = [CITIES[i][0] for i in np.nonzero(hit)[0]]
    assert names == ["Altoona,PA"]


def test_distance_self_join_oracle():
    # PostgisSpec.scala:174-188: pairs with distance < 0.5, name mismatch, vs
    # brute-force oracle; formatted "%1.4f"
    from geotrellis_contrib_ray.functions.cities import CITIES

    xs = np.array([c[1] for c in CITIES])
    ys = np.array([c[2] for c in CITIES])
    n = len(CITIES)
    d = geom.distance(xs[:, None], ys[:, None], xs[None, :], ys[None, :])
    expected = sorted(
        (CITIES[i][0], CITIES[j][0], f"{d[i, j]:.4f}")
        for i in range(n)
        for j in range(n)
        if d[i, j] < 0.5 and CITIES[i][0] != CITIES[j][0]
    )
    assert len(expected) > 0
    # engine path: vectorized pairwise within bbox prefilter
    got = []
    for i in range(n):
        dd = geom.distance(xs[i], ys[i], xs, ys)
        for j in np.nonzero(dd < 0.5)[0]:
            if CITIES[i][0] != CITIES[j][0]:
                got.append((CITIES[i][0], CITIES[j][0], f"{dd[j]:.4f}"))
    assert sorted(got) == expected


def test_geojson_golden():
    # PostgisSpec.scala:191-196: Reading,PA
    assert geom.point_geojson(75.97, 40.38) == '{"type":"Point","coordinates":[75.97,40.38]}'
    assert geom.point_geojson(75.0, 40.0) == '{"type":"Point","coordinates":[75,40]}'


def test_length_golden():
    # Line((1,1),(1,3)) length == 2.0 (PostGisProjectionSupportSpec.scala:60-72)
    assert geom.line_length(np.array([[1.0, 1.0], [1.0, 3.0]])) == 2.0


def test_centroid_golden():
    # MultiPoint((1,1),(2,2)) centroid == (1.5, 1.5) (spec :74-92)
    assert geom.multipoint_centroid(np.array([[1.0, 1.0], [2.0, 2.0]])) == (1.5, 1.5)


def test_wkb_point_roundtrip():
    b = geom.point_to_wkb(75.97, 40.38)
    kind, (x, y), srid = geom.wkb_to_geometry(b)
    assert kind == "Point" and (x, y) == (75.97, 40.38) and srid is None
    # EWKB with SRID (Projected[Point], srid=43211 round-trip, spec :44-51)
    b2 = geom.point_to_wkb(1.0, 1.0, srid=43211)
    kind, (x, y), srid = geom.wkb_to_geometry(b2)
    assert (x, y, srid) == (1.0, 1.0, 43211)


def test_wkb_hex_prefix_autodetect():
    hexs = geom.point_to_wkb(2.0, 3.0).hex()
    for s in (hexs, "\\x" + hexs):
        kind, (x, y), _ = geom.wkb_to_geometry(s)
        assert (x, y) == (2.0, 3.0)


def test_wkb_polygon_roundtrip():
    ring = geom.box(0, 0, 4, 4).exterior
    hole = geom.box(1, 1, 2, 2).exterior
    b = geom.geometry_to_wkb("Polygon", [ring, hole])
    kind, rings, _ = geom.wkb_to_geometry(b)
    assert kind == "Polygon" and len(rings) == 2
    assert np.allclose(rings[0], ring) and np.allclose(rings[1], hole)


def test_wkb_multipoint_roundtrip():
    b = geom.geometry_to_wkb("MultiPoint", [("Point", (1.0, 1.0)), ("Point", (2.0, 2.0))])
    kind, parts, _ = geom.wkb_to_geometry(b)
    assert kind == "MultiPoint"
    assert [p[1] for p in parts] == [(1.0, 1.0), (2.0, 2.0)]


def test_ewkt_roundtrip():
    s = geom.point_to_ewkt(1.5, 2.5, 4326)
    assert s == "SRID=4326;POINT (1.5 2.5)"


def test_polygon_area_centroid():
    sq = geom.box(0, 0, 2, 2)
    assert geom.polygon_area(sq.exterior) == 4.0
    assert geom.polygon_centroid(sq) == (1.0, 1.0)


def test_polygon_intersects_box():
    ring = geom.box(0, 0, 10, 10).exterior
    assert geom.polygon_intersects_box(ring, 5, 5, 6, 6)  # box inside polygon
    assert geom.polygon_intersects_box(ring, -1, -1, 1, 1)  # overlap corner
    assert not geom.polygon_intersects_box(ring, 11, 11, 12, 12)  # disjoint
    assert geom.polygon_intersects_box(ring, -1, -1, 11, 11)  # polygon inside box


def test_hex_wkb_bigendian_ewkb_golden():
    # verbatim fixture from PostGisProjectionSupportSpec.scala:93-108: a
    # big-endian EWKB polygon (SRID 3857) in hex, with and without \x prefix
    hexs = (
        "002000000300000f110000000100000005"
        "c170b8793ccc8e80415ca9f4683a18dc"
        "c170b8793ccc8e8041631bf8457c1091"
        "c16ca9f4683a18dc41631bf8457c1091"
        "c16ca9f4683a18dc415ca9f4683a18dc"
        "c170b8793ccc8e80415ca9f4683a18dc"
    )
    expected = [
        (-17532819.799940586, 7514065.628545966),
        (-17532819.799940586, 10018754.171394618),
        (-15028131.257091932, 10018754.171394618),
        (-15028131.257091932, 7514065.628545966),
        (-17532819.799940586, 7514065.628545966),
    ]
    for s in (hexs, "\\x" + hexs):
        kind, rings, srid = geom.wkb_to_geometry(s)
        assert kind == "Polygon" and srid == 3857
        assert [tuple(p) for p in rings[0]] == expected


def test_wkt_all_seven_kinds_roundtrip():
    """WKT -> parse -> WKB -> parse -> WKT identity for all 7 geometry kinds
    (general WKT reader, PostGisSupport.scala:93-98 readWktOrWkb surface)."""
    fixtures = [
        "POINT (1 2)",
        "LINESTRING (1 1, 1 3)",
        "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0), (1 1, 2 1, 2 2, 1 2, 1 1))",
        "MULTIPOINT ((1 1), (2 2))",
        "MULTILINESTRING ((0 0, 1 1), (2 2, 3 3, 4 4))",
        "MULTIPOLYGON (((0 0, 1 0, 1 1, 0 0)), ((5 5, 6 5, 6 6, 5 5)))",
        "GEOMETRYCOLLECTION (POINT (1 2), LINESTRING (0 0, 1 1))",
    ]
    for wkt in fixtures:
        kind, coords, srid = geom.parse_wkt(wkt)
        assert srid is None
        # WKT -> WKB -> geometry round-trip preserves structure + coords
        wkb = geom.geometry_to_wkb(kind, coords)
        kind2, coords2, _ = geom.wkb_to_geometry(wkb)
        assert kind2 == kind
        # and back out to WKT text identity
        assert geom.geometry_to_wkt(kind2, coords2) == wkt


def test_wkt_srid_literal_all_kinds():
    """SRID=…;WKT literal form (PostGisProjectionSupport.scala:103-126)."""
    kind, coords, srid = geom.parse_wkt("SRID=3131;LINESTRING (1 1, 1 3)")
    assert (kind, srid) == ("LineString", 3131)
    assert geom.line_length(coords) == 2.0  # reference golden (spec :69-71)
    kind, coords, srid = geom.parse_wkt("SRID=3131;MULTIPOINT ((1 1), (2 2))")
    pts = np.array([c for _, c, _ in coords])
    assert geom.multipoint_centroid(pts) == (1.5, 1.5)  # golden (spec :89-91)
    assert srid == 3131
    # round-trip keeps the literal form
    assert geom.geometry_to_wkt("Point", (1.0, 1.0), 43211) == "SRID=43211;POINT (1 1)"


def test_wkt_multipoint_bare_form_and_empty():
    kind, coords, _ = geom.parse_wkt("MULTIPOINT (1 1, 2 2)")
    assert kind == "MultiPoint" and len(coords) == 2
    kind, coords, _ = geom.parse_wkt("POLYGON EMPTY")
    assert kind == "Polygon" and coords == []
    kind, coords, _ = geom.parse_wkt("GEOMETRYCOLLECTION EMPTY")
    assert kind == "GeometryCollection" and coords == []


def test_read_wkt_or_wkb_autodetect():
    """readWktOrWkb: hex-WKB with/without \\x prefix and plain WKT all parse
    (PostGisProjectionSupportSpec.scala:93-108 behavior)."""
    hexs = (
        "002000000300000f110000000100000005"
        "c170b8793ccc8e80415ca9f4683a18dc"
        "c170b8793ccc8e8041631bf8457c1091"
        "c16ca9f4683a18dc41631bf8457c1091"
        "c16ca9f4683a18dc415ca9f4683a18dc"
        "c170b8793ccc8e80415ca9f4683a18dc"
    )
    for s in (hexs, "\\x" + hexs):
        kind, rings, srid = geom.read_wkt_or_wkb(s)
        assert kind == "Polygon" and srid == 3857
    kind, coords, srid = geom.read_wkt_or_wkb("SRID=4326;POINT (75.97 40.38)")
    assert kind == "Point" and coords == (75.97, 40.38) and srid == 4326
    # scientific-notation coords parse too
    kind, coords, _ = geom.read_wkt_or_wkb("POINT (1e3 -2.5e-2)")
    assert coords == (1000.0, -0.025)
