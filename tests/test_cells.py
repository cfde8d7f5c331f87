import numpy as np

from geotrellis_contrib_ray.core import cells


def test_pack_unpack_roundtrip():
    res = np.array([5, 10, 15])
    x = np.array([3, 1000, 40000])
    y = np.array([1, 500, 20000])
    c = cells.pack_cell(res, x, y)
    r2, x2, y2 = cells.unpack_cell(c)
    assert r2.tolist() == res.tolist()
    assert x2.tolist() == x.tolist()
    assert y2.tolist() == y.tolist()


def test_latlng_to_cell_deterministic():
    c1 = cells.latlng_to_cell([40.0, 41.0], [-77.0, -76.0], 12)
    c2 = cells.latlng_to_cell([40.0, 41.0], [-77.0, -76.0], 12)
    assert c1.tolist() == c2.tolist()


def test_cell_to_parent_exact():
    lat, lng = np.array([40.123]), np.array([-77.456])
    child = cells.latlng_to_cell(lat, lng, 12)
    parent = cells.cell_to_parent(child)
    direct = cells.latlng_to_cell(lat, lng, 11)
    assert parent.tolist() == direct.tolist()
    # multi-level
    p8 = cells.cell_to_parent(child, 8)
    assert p8.tolist() == cells.latlng_to_cell(lat, lng, 8).tolist()


def test_cell_center_within_bounds():
    c = cells.latlng_to_cell([40.5], [-77.5], 10)
    lat0, lng0, lat1, lng1 = cells.cell_bounds(c)
    assert lat0 < lat1 and lng0 < lng1
    # the original point is inside its own cell
    assert lat0 <= 40.5 <= lat1 and lng0 <= -77.5 <= lng1


def test_zxy_known_values():
    # classic OSM example: (lat=41.85, lon=-87.65) at z=3 -> (2, 2) ... at z=0 -> (0,0)
    x, y = cells.lnglat_to_zxy([-87.65], [41.85], 3)
    assert (x[0], y[0]) == (2, 2)
    x, y = cells.lnglat_to_zxy([0.0], [0.0], 1)
    assert (x[0], y[0]) == (1, 1)


def test_add_geohash_matches_classic_subdivision():
    """add_geohash (lattice quantization + bit interleave) must equal the
    classic binary-subdivision geohash for even AND odd precisions."""
    import numpy as np
    import pyarrow as pa

    from geotrellis_contrib_ray.stages.spatial import GEOHASH_ALPHABET, add_geohash

    def ref(lat, lon, precision):
        lat_r, lon_r = [-90.0, 90.0], [-180.0, 180.0]
        out, even, bit_count, ch = [], True, 0, 0
        while len(out) < precision:
            rng, v = (lon_r, lon) if even else (lat_r, lat)
            mid = (rng[0] + rng[1]) / 2
            if v >= mid:
                ch = (ch << 1) | 1
                rng[0] = mid
            else:
                ch = ch << 1
                rng[1] = mid
            even = not even
            bit_count += 1
            if bit_count == 5:
                out.append(GEOHASH_ALPHABET[ch])
                ch = 0
                bit_count = 0
        return "".join(out)

    rng = np.random.default_rng(12)
    lon = rng.uniform(-179.9, 179.9, 200)
    lat = rng.uniform(-89.9, 89.9, 200)
    for prec in (5, 7, 8):
        t = pa.table({"lon": pa.array(lon), "lat": pa.array(lat)})
        mine = add_geohash(t, precision=prec)["geohash"].to_pylist()
        refs = [ref(la, lo, prec) for lo, la in zip(lon, lat)]
        assert mine == refs, prec
