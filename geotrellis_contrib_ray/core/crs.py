"""CRS transforms (pyproj-free): WGS84 <-> Web Mercator + affine local CRSs.

The reference delegates to Proj4 with expensive, lock-guarded transform objects
(GeoTiffReprojectRasterSource.scala:63-69,132-134).  Here the supported CRS set
is closed-form (EPSG:4326, EPSG:3857, and parameterized local affine/metric
systems), so a ``Transformer`` is a cheap stateless pair of vectorized
functions — cached per worker (ST3) purely to mirror the engine pattern.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

R = 6378137.0  # WGS84 spherical radius used by EPSG:3857
MAX_LAT = 85.05112878

EPSG_4326 = "EPSG:4326"
EPSG_3857 = "EPSG:3857"


@dataclass(frozen=True)
class LocalAffineCRS:
    """A local metric CRS defined by an affine anchor to lon/lat:
    x = (lon - lon0) * sx, y = (lat - lat0) * sy.  Stand-in for UTM-like
    local systems in tests (FIXTURES.md §4 'EPSG:26711-like')."""

    name: str
    lon0: float
    lat0: float
    sx: float  # meters per degree lon
    sy: float  # meters per degree lat


# --- ellipsoidal Transverse Mercator (UTM zones) ---------------------------
# Krüger flattening series (Karney 2011, "Transverse Mercator with an
# accuracy of a few nanometers" — public formulas; same 6th-order series
# PROJ's etmerc uses).  WGS84 ellipsoid.
_A_WGS84 = 6378137.0
_F_WGS84 = 1.0 / 298.257223563
_E2 = _F_WGS84 * (2.0 - _F_WGS84)
_E = np.sqrt(_E2)
_N = _F_WGS84 / (2.0 - _F_WGS84)  # third flattening
# rectifying radius A = a/(1+n) * (1 + n^2/4 + n^4/64 + n^6/256)
_RECT_A = _A_WGS84 / (1.0 + _N) * (1.0 + _N**2 / 4.0 + _N**4 / 64.0 + _N**6 / 256.0)
# forward series alpha_j, inverse series beta_j (6th order in n)
_ALPHA = np.array([
    _N / 2 - 2 * _N**2 / 3 + 5 * _N**3 / 16 + 41 * _N**4 / 180 - 127 * _N**5 / 288 + 7891 * _N**6 / 37800,
    13 * _N**2 / 48 - 3 * _N**3 / 5 + 557 * _N**4 / 1440 + 281 * _N**5 / 630 - 1983433 * _N**6 / 1935360,
    61 * _N**3 / 240 - 103 * _N**4 / 140 + 15061 * _N**5 / 26880 + 167603 * _N**6 / 181440,
    49561 * _N**4 / 161280 - 179 * _N**5 / 168 + 6601661 * _N**6 / 7257600,
    34729 * _N**5 / 80640 - 3418889 * _N**6 / 1995840,
    212378941 * _N**6 / 319334400,
])
_BETA = np.array([
    _N / 2 - 2 * _N**2 / 3 + 37 * _N**3 / 96 - _N**4 / 360 - 81 * _N**5 / 512 + 96199 * _N**6 / 604800,
    _N**2 / 48 + _N**3 / 15 - 437 * _N**4 / 1440 + 46 * _N**5 / 105 - 1118711 * _N**6 / 3870720,
    17 * _N**3 / 480 - 37 * _N**4 / 840 - 209 * _N**5 / 4480 + 5569 * _N**6 / 90720,
    4397 * _N**4 / 161280 - 11 * _N**5 / 504 - 830251 * _N**6 / 7257600,
    4583 * _N**5 / 161280 - 108847 * _N**6 / 3991680,
    20648693 * _N**6 / 638668800,
])
_UTM_K0 = 0.9996
_UTM_FE = 500000.0
_UTM_FN_SOUTH = 10000000.0
_J6 = 2.0 * np.arange(1, 7)


def utm_crs(zone: int, south: bool = False) -> str:
    """EPSG code string for a WGS84 UTM zone (EPSG:326xx north / 327xx south)."""
    if not 1 <= zone <= 60:
        raise ValueError(f"UTM zone out of range: {zone}")
    return f"EPSG:{32700 + zone if south else 32600 + zone}"


def _parse_utm(crs: str):
    """-> (lon0_deg, false_northing) for EPSG:326xx/327xx, else None."""
    if not (isinstance(crs, str) and crs.startswith("EPSG:") and len(crs) == 10):
        return None
    code = int(crs[5:])
    if 32601 <= code <= 32660:
        return (code - 32600) * 6.0 - 183.0, 0.0
    if 32701 <= code <= 32760:
        return (code - 32700) * 6.0 - 183.0, _UTM_FN_SOUTH
    return None


def _taupf(tau):
    """tau' (tangent of the conformal latitude) from tau = tan(phi)."""
    tau1 = np.sqrt(1.0 + tau * tau)
    sig = np.sinh(_E * np.arctanh(_E * tau / tau1))
    return tau * np.sqrt(1.0 + sig * sig) - sig * tau1


def _lonlat_to_tm(lon, lat, lon0_deg: float, fn: float):
    lon = np.asarray(lon, dtype=np.float64)
    phi = np.radians(np.asarray(lat, dtype=np.float64))
    lam = np.radians(lon - lon0_deg)
    # conformal latitude via the Gauss-Schreiber tau
    t = _taupf(np.tan(phi))
    xi = np.arctan2(t, np.cos(lam))
    eta = np.arcsinh(np.sin(lam) / np.hypot(t, np.cos(lam)))
    j2xi = _J6[:, None] * np.atleast_1d(xi)[None, :]
    j2eta = _J6[:, None] * np.atleast_1d(eta)[None, :]
    xi_p = xi + (_ALPHA[:, None] * np.sin(j2xi) * np.cosh(j2eta)).sum(axis=0)
    eta_p = eta + (_ALPHA[:, None] * np.cos(j2xi) * np.sinh(j2eta)).sum(axis=0)
    x = _UTM_FE + _UTM_K0 * _RECT_A * eta_p
    y = fn + _UTM_K0 * _RECT_A * xi_p
    return x, y


def _tm_to_lonlat(x, y, lon0_deg: float, fn: float):
    xi = (np.asarray(y, dtype=np.float64) - fn) / (_UTM_K0 * _RECT_A)
    eta = (np.asarray(x, dtype=np.float64) - _UTM_FE) / (_UTM_K0 * _RECT_A)
    j2xi = _J6[:, None] * np.atleast_1d(xi)[None, :]
    j2eta = _J6[:, None] * np.atleast_1d(eta)[None, :]
    xi_p = xi - (_BETA[:, None] * np.sin(j2xi) * np.cosh(j2eta)).sum(axis=0)
    eta_p = eta - (_BETA[:, None] * np.cos(j2xi) * np.sinh(j2eta)).sum(axis=0)
    taup = np.sin(xi_p) / np.hypot(np.sinh(eta_p), np.cos(xi_p))
    lam = np.arctan2(np.sinh(eta_p), np.cos(xi_p))
    # invert the conformal latitude tau' -> tau (GeographicLib tauf Newton)
    e2m = 1.0 - _E2
    tau = taup / e2m  # first guess overshoots toward the pole, converges fast
    for _ in range(6):
        taupa = _taupf(tau)
        tau = tau + (taup - taupa) * (1.0 + e2m * tau * tau) / (
            e2m * np.sqrt(1.0 + tau * tau) * np.sqrt(1.0 + taupa * taupa)
        )
    phi = np.arctan(tau)
    return np.degrees(lam) + lon0_deg, np.degrees(phi)


def _lonlat_to_merc(x, y):
    lon = np.asarray(x, dtype=np.float64)
    lat = np.clip(np.asarray(y, dtype=np.float64), -MAX_LAT, MAX_LAT)
    mx = np.radians(lon) * R
    my = np.log(np.tan(np.pi / 4.0 + np.radians(lat) / 2.0)) * R
    return mx, my


def _merc_to_lonlat(x, y):
    mx = np.asarray(x, dtype=np.float64)
    my = np.asarray(y, dtype=np.float64)
    lon = np.degrees(mx / R)
    lat = np.degrees(2.0 * np.arctan(np.exp(my / R)) - np.pi / 2.0)
    return lon, lat


# --- Lambert conformal conic + Albers equal-area (spherical, Snyder) -------
# Closed-form conic projections (Snyder, "Map Projections: A Working Manual",
# USGS PP 1395 — public formulas; the reference reaches these through proj4).
# Derived constants (n, F/C, rho0) are computed ONCE in python and shared
# verbatim with the generated SQL twins, so the per-point math on both
# engines reduces to the same elementary libm calls.


@dataclass(frozen=True)
class LambertConformalCRS:
    """Spherical LCC with two standard parallels (lat1, lat2), origin
    (lat0, lon0); sphere radius R (EPSG:3857's 6378137 by default)."""

    name: str
    lat1: float
    lat2: float
    lat0: float
    lon0: float
    radius: float = R


@dataclass(frozen=True)
class AlbersEqualAreaCRS:
    """Spherical Albers equal-area conic with two standard parallels."""

    name: str
    lat1: float
    lat2: float
    lat0: float
    lon0: float
    radius: float = R


def lcc_constants(crs: LambertConformalCRS) -> tuple[float, float, float]:
    """(n, F, rho0) — Snyder eqs. 15-3, 15-2, 15-1a (sphere)."""
    p1, p2, p0 = (np.radians(v) for v in (crs.lat1, crs.lat2, crs.lat0))
    n = float(np.log(np.cos(p1) / np.cos(p2))
              / np.log(np.tan(np.pi / 4 + p2 / 2) / np.tan(np.pi / 4 + p1 / 2)))
    f = float(np.cos(p1) * np.tan(np.pi / 4 + p1 / 2) ** n / n)
    rho0 = float(crs.radius * f / np.tan(np.pi / 4 + p0 / 2) ** n)
    return n, f, rho0


def aea_constants(crs: AlbersEqualAreaCRS) -> tuple[float, float, float]:
    """(n, C, rho0) — Snyder eqs. 14-6, 14-5, 14-3 (sphere)."""
    p1, p2, p0 = (np.radians(v) for v in (crs.lat1, crs.lat2, crs.lat0))
    n = float((np.sin(p1) + np.sin(p2)) / 2.0)
    c = float(np.cos(p1) ** 2 + 2.0 * n * np.sin(p1))
    rho0 = float(crs.radius * np.sqrt(c - 2.0 * n * np.sin(p0)) / n)
    return n, c, rho0


def _lonlat_to_lcc(lon, lat, crs: LambertConformalCRS):
    n, f, rho0 = lcc_constants(crs)
    phi = np.radians(np.asarray(lat, dtype=np.float64))
    lam = np.radians(np.asarray(lon, dtype=np.float64) - crs.lon0)
    rho = crs.radius * f / np.power(np.tan(np.pi / 4 + phi / 2), n)
    theta = n * lam
    return rho * np.sin(theta), rho0 - rho * np.cos(theta)


def _lcc_to_lonlat(x, y, crs: LambertConformalCRS):
    n, f, rho0 = lcc_constants(crs)
    x = np.asarray(x, dtype=np.float64)
    dy = rho0 - np.asarray(y, dtype=np.float64)
    # sqrt(x*x + dy*dy), NOT np.hypot: the generated SQL twin evaluates this
    # exact double expression and hypot differs in the last ulp on ~17% of
    # inputs (ADVICE r3) — both engines must share the identical polynomial.
    rho = np.sign(n) * np.sqrt(x * x + dy * dy)
    theta = np.arctan2(np.sign(n) * x, np.sign(n) * dy)
    phi = 2.0 * np.arctan(np.power(crs.radius * f / rho, 1.0 / n)) - np.pi / 2
    return crs.lon0 + np.degrees(theta / n), np.degrees(phi)


def _lonlat_to_aea(lon, lat, crs: AlbersEqualAreaCRS):
    n, c, rho0 = aea_constants(crs)
    phi = np.radians(np.asarray(lat, dtype=np.float64))
    lam = np.radians(np.asarray(lon, dtype=np.float64) - crs.lon0)
    rho = crs.radius * np.sqrt(c - 2.0 * n * np.sin(phi)) / n
    theta = n * lam
    return rho * np.sin(theta), rho0 - rho * np.cos(theta)


def _aea_to_lonlat(x, y, crs: AlbersEqualAreaCRS):
    n, c, rho0 = aea_constants(crs)
    x = np.asarray(x, dtype=np.float64)
    dy = rho0 - np.asarray(y, dtype=np.float64)
    rho = np.sqrt(x * x + dy * dy)  # matches SQL twin expression (not hypot)
    theta = np.arctan2(np.sign(n) * x, np.sign(n) * dy)
    phi = np.arcsin((c - (rho * n / crs.radius) ** 2) / (2.0 * n))
    return crs.lon0 + np.degrees(theta / n), np.degrees(phi)


@dataclass(frozen=True)
class PolarStereographicCRS:
    """Spherical polar stereographic (Snyder eq. 21-7..21-12): the Arctic/
    Antarctic gridding CRS family (EPSG:3413/3976-like, on the sphere).
    ``north`` selects the pole; ``lat_ts`` is the true-scale latitude."""

    name: str
    lon0: float
    lat_ts: float
    north: bool = True
    radius: float = R


@dataclass(frozen=True)
class SinusoidalCRS:
    """Spherical sinusoidal (Sanson-Flamsteed; Snyder ch. 30) — the MODIS
    land-grid projection family: equal-area, x = R*lam*cos(phi), y = R*phi."""

    name: str
    lon0: float = 0.0
    radius: float = R


def ps_k0(crs: PolarStereographicCRS) -> float:
    """Scale factor from the true-scale latitude (Snyder 21-7 reduced on the
    sphere): k0 = (1 + sin|lat_ts|) / 2."""
    return (1.0 + float(np.sin(np.radians(abs(crs.lat_ts))))) / 2.0


def _lonlat_to_ps(lon, lat, crs: PolarStereographicCRS):
    k0 = ps_k0(crs)
    lam = np.radians(np.asarray(lon, dtype=np.float64) - crs.lon0)
    phi = np.radians(np.asarray(lat, dtype=np.float64))
    if crs.north:
        rho = 2.0 * crs.radius * k0 * np.tan(np.pi / 4 - phi / 2)
        return rho * np.sin(lam), -rho * np.cos(lam)
    rho = 2.0 * crs.radius * k0 * np.tan(np.pi / 4 + phi / 2)
    return rho * np.sin(lam), rho * np.cos(lam)


def _ps_to_lonlat(x, y, crs: PolarStereographicCRS):
    k0 = ps_k0(crs)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    rho = np.sqrt(x * x + y * y)  # matches SQL twin expression (not hypot)
    c = 2.0 * np.arctan(rho / (2.0 * crs.radius * k0))
    if crs.north:
        phi = np.pi / 2 - c
        lam = np.arctan2(x, -y)
    else:
        phi = c - np.pi / 2
        lam = np.arctan2(x, y)
    return crs.lon0 + np.degrees(lam), np.degrees(phi)


def _lonlat_to_sinu(lon, lat, crs: SinusoidalCRS):
    phi = np.radians(np.asarray(lat, dtype=np.float64))
    lam = np.radians(np.asarray(lon, dtype=np.float64) - crs.lon0)
    return crs.radius * lam * np.cos(phi), crs.radius * phi


def _sinu_to_lonlat(x, y, crs: SinusoidalCRS):
    phi = np.asarray(y, dtype=np.float64) / crs.radius
    lam = np.asarray(x, dtype=np.float64) / (crs.radius * np.cos(phi))
    return crs.lon0 + np.degrees(lam), np.degrees(phi)


class Transformer:
    """Vectorized forward transform src->dst; ``inverse()`` flips it.

    Short-circuits to identity when src == dst, mirroring the reference's
    reproject no-op elision (RasterSourceF.scala:51-53).
    """

    def __init__(self, src, dst):
        self.src = src
        self.dst = dst

    @property
    def is_identity(self) -> bool:
        return self.src == self.dst

    def inverse(self) -> "Transformer":
        return Transformer(self.dst, self.src)

    def transform(self, x, y):
        if self.is_identity:
            return np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
        lon, lat = _to_lonlat(self.src, x, y)
        return _from_lonlat(self.dst, lon, lat)


def _to_lonlat(crs, x, y):
    if crs == EPSG_4326:
        return np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if crs == EPSG_3857:
        return _merc_to_lonlat(x, y)
    utm = _parse_utm(crs) if isinstance(crs, str) else None
    if utm is not None:
        return _tm_to_lonlat(x, y, utm[0], utm[1])
    if isinstance(crs, LambertConformalCRS):
        return _lcc_to_lonlat(x, y, crs)
    if isinstance(crs, AlbersEqualAreaCRS):
        return _aea_to_lonlat(x, y, crs)
    if isinstance(crs, PolarStereographicCRS):
        return _ps_to_lonlat(x, y, crs)
    if isinstance(crs, SinusoidalCRS):
        return _sinu_to_lonlat(x, y, crs)
    if isinstance(crs, LocalAffineCRS):
        return (
            np.asarray(x, dtype=np.float64) / crs.sx + crs.lon0,
            np.asarray(y, dtype=np.float64) / crs.sy + crs.lat0,
        )
    raise ValueError(f"unsupported CRS {crs!r}")


def _from_lonlat(crs, lon, lat):
    if crs == EPSG_4326:
        return lon, lat
    if crs == EPSG_3857:
        return _lonlat_to_merc(lon, lat)
    utm = _parse_utm(crs) if isinstance(crs, str) else None
    if utm is not None:
        return _lonlat_to_tm(lon, lat, utm[0], utm[1])
    if isinstance(crs, LambertConformalCRS):
        return _lonlat_to_lcc(lon, lat, crs)
    if isinstance(crs, AlbersEqualAreaCRS):
        return _lonlat_to_aea(lon, lat, crs)
    if isinstance(crs, PolarStereographicCRS):
        return _lonlat_to_ps(lon, lat, crs)
    if isinstance(crs, SinusoidalCRS):
        return _lonlat_to_sinu(lon, lat, crs)
    if isinstance(crs, LocalAffineCRS):
        return (lon - crs.lon0) * crs.sx, (lat - crs.lat0) * crs.sy
    raise ValueError(f"unsupported CRS {crs!r}")


def reproject_extent(t: Transformer, xmin, ymin, xmax, ymax, n: int = 16):
    """Densified-edge extent reprojection (matches the standard practice the
    reference's ReprojectRasterExtent relies on): sample n points along each
    edge, take the envelope."""
    xs = np.linspace(xmin, xmax, n)
    ys = np.linspace(ymin, ymax, n)
    ex = np.concatenate([xs, xs, np.full(n, xmin), np.full(n, xmax)])
    ey = np.concatenate([np.full(n, ymin), np.full(n, ymax), ys, ys])
    tx, ty = t.transform(ex, ey)
    return float(tx.min()), float(ty.min()), float(tx.max()), float(ty.max())
