"""Pure-Python tiled-(Geo)TIFF reader/writer (stdlib struct + zlib only).

Makes S1 real: the reference's core capability is lazy windowed reads of
actual GeoTiff bytes — header parsed once and memoized per source, reads
decoding only the touched tile segments
(vlm/.../effect/geotiff/GeoTiffRasterSource.scala:37-111: ``@transient lazy
val tiff`` + ``geoTiffTile.crop(bounds)`` segment-level access).  No GDAL /
imaging libs exist in this environment, so the codec itself is implemented
here for the classic tiled layout:

- classic TIFF (II/MM byte order both readable; writer emits II)
- tiled organization (TileWidth/TileLength/TileOffsets/TileByteCounts)
- Compression 1 (none), 5 (LZW, MSB-first early-change), 8 (zlib/deflate —
  "AdobeDeflate"), 32773 (PackBits); Predictor 2 (horizontal differencing)
- multi-band chunky (PlanarConfiguration=1), any numeric cell type
- GeoTIFF georeferencing: ModelPixelScale + ModelTiepoint, minimal
  GeoKeyDirectory (geographic/projected EPSG code), GDAL_NODATA
- file-native overviews as chained reduced-resolution IFDs
  (NewSubfileType=1), surfaced through ``resolutions`` /
  ``overview_source`` so OverviewStrategy routing (ST4,
  GeoTiffReprojectRasterSource.scala:92-103) exercises real file levels.

``TiffRasterSource`` parses the header LAZILY and exactly once per instance
(`parse_count` is observable for tests); decoded tiles are memoized in a
small per-instance LRU so repeated window reads inside one reader worker
(ST1) do not re-inflate shared tiles.
"""

from __future__ import annotations

import struct
import zlib
from collections import OrderedDict

import numpy as np

from ..core.celltype import CellType
from ..core.grid import Extent, GridBounds, GridExtent
from .raster_source import Raster, RasterSource

# TIFF tag ids
T_NEW_SUBFILE_TYPE = 254
T_IMAGE_WIDTH = 256
T_IMAGE_LENGTH = 257
T_BITS_PER_SAMPLE = 258
T_COMPRESSION = 259
T_PHOTOMETRIC = 262
T_STRIP_OFFSETS = 273
T_SAMPLES_PER_PIXEL = 277
T_ROWS_PER_STRIP = 278
T_STRIP_BYTE_COUNTS = 279
T_PLANAR_CONFIG = 284
T_PREDICTOR = 317
T_TILE_WIDTH = 322
T_TILE_LENGTH = 323
T_TILE_OFFSETS = 324
T_TILE_BYTE_COUNTS = 325
T_SAMPLE_FORMAT = 339
T_MODEL_PIXEL_SCALE = 33550
T_MODEL_TIEPOINT = 33922
T_GEO_KEY_DIRECTORY = 34735
T_GDAL_NODATA = 42113

# field types
FT_BYTE, FT_ASCII, FT_SHORT, FT_LONG, FT_DOUBLE = 1, 2, 3, 4, 12
_FT_SIZE = {FT_BYTE: 1, FT_ASCII: 1, FT_SHORT: 2, FT_LONG: 4, FT_DOUBLE: 8}
_FT_FMT = {FT_BYTE: "B", FT_ASCII: "B", FT_SHORT: "H", FT_LONG: "I", FT_DOUBLE: "d"}

# (sample_format, bits) <-> cell-type name.  "bit" is TIFF bilevel
# (BitsPerSample=1, rows bit-packed MSB-first, each row byte-aligned —
# TIFF 6.0 §4); int64 uses the GDAL >= 3.5 convention (SampleFormat=2,
# BitsPerSample=64).
_DTYPE_TO_SF = {
    "bit": (1, 1),
    "uint8": (1, 8), "uint16": (1, 16), "uint32": (1, 32),
    "int8": (2, 8), "int16": (2, 16), "int32": (2, 32), "int64": (2, 64),
    "float32": (3, 32), "float64": (3, 64),
}
_SF_TO_DTYPE = {v: k for k, v in _DTYPE_TO_SF.items()}

# GeoKey ids
GK_MODEL_TYPE = 1024
GK_GEOGRAPHIC_TYPE = 2048
GK_PROJECTED_CS_TYPE = 3072


def _epsg_of(crs) -> int:
    s = str(crs)
    return int(s.split(":")[1]) if ":" in s else int(s)


# ---------------------------------------------------------------------------
# compression codecs: PackBits (TIFF §9) and LZW (TIFF §13, MSB-first,
# early-change) — pure stdlib/numpy, spec-implemented; bit-level vectors in
# tests/test_tiff.py pin the wire format.
# ---------------------------------------------------------------------------


def _packbits_decode(data: bytes) -> bytes:
    out = bytearray()
    i, n = 0, len(data)
    while i < n:
        h = data[i]
        i += 1
        if h < 128:  # literal run of h+1 bytes
            out += data[i : i + h + 1]
            i += h + 1
        elif h > 128:  # repeat next byte 257-h times
            out += data[i : i + 1] * (257 - h)
            i += 1
        # h == 128: no-op
    return bytes(out)


def _packbits_encode(data: bytes) -> bytes:
    out = bytearray()
    i, n = 0, len(data)
    while i < n:
        # find a replicate run (>= 3 pays off; 2 at end of buffer also fine)
        j = i
        while j + 1 < n and data[j + 1] == data[i] and j - i < 127:
            j += 1
        run = j - i + 1
        if run >= 3 or (run == 2 and j + 1 == n):
            out.append(257 - run)
            out.append(data[i])
            i = j + 1
            continue
        # literal run: until the next >=3 replicate or 128 bytes
        j = i
        while j + 1 < n and j - i < 127:
            if j + 2 < n and data[j + 1] == data[j + 2] and (
                j + 3 >= n or data[j + 3] == data[j + 1]
            ):
                break
            j += 1
        out.append(j - i)
        out += data[i : j + 1]
        i = j + 1
    return bytes(out)


_LZW_CLEAR, _LZW_EOI = 256, 257


def _lzw_encode(data: bytes) -> bytes:
    """TIFF LZW: 9->12-bit codes, MSB-first packing, early change (the code
    width bumps when the NEXT code to assign reaches 2^bits - 1), table
    reset at 4094 entries."""
    out = bytearray()
    acc = 0
    nbits = 0

    def emit(code: int, width: int):
        nonlocal acc, nbits
        acc = (acc << width) | code
        nbits += width
        while nbits >= 8:
            nbits -= 8
            out.append((acc >> nbits) & 0xFF)

    table: dict[bytes, int] = {bytes([i]): i for i in range(256)}
    next_code = 258
    width = 9
    emit(_LZW_CLEAR, width)
    w = b""
    for b in data:
        wc = w + bytes([b])
        if wc in table:
            w = wc
            continue
        emit(table[w], width)
        table[wc] = next_code
        next_code += 1
        if next_code == (1 << width) - 1 and width < 12:
            width += 1
        w = bytes([b])
        if next_code >= 4094:
            emit(_LZW_CLEAR, width)
            table = {bytes([i]): i for i in range(256)}
            next_code = 258
            width = 9
    if w:
        emit(table[w], width)
    emit(_LZW_EOI, width)
    if nbits:
        out.append((acc << (8 - nbits)) & 0xFF)
    return bytes(out)


def _lzw_decode(data: bytes) -> bytes:
    out = bytearray()
    table: list[bytes] = []
    acc = 0
    nbits = 0
    pos = 0
    width = 9
    prev: bytes | None = None

    def reset():
        nonlocal table, width, prev
        table = [bytes([i]) for i in range(256)] + [b"", b""]
        width = 9
        prev = None

    reset()
    n = len(data)
    while True:
        while nbits < width:
            if pos >= n:
                return bytes(out)
            acc = (acc << 8) | data[pos]
            pos += 1
            nbits += 8
        nbits -= width
        code = (acc >> nbits) & ((1 << width) - 1)
        if code == _LZW_EOI:
            return bytes(out)
        if code == _LZW_CLEAR:
            reset()
            continue
        if prev is None:
            entry = table[code]
        elif code < len(table):
            entry = table[code]
            table.append(prev + entry[:1])
        else:  # KwKwK case
            entry = prev + prev[:1]
            table.append(entry)
        out += entry
        prev = entry
        # early change: the decoder trails the encoder's assignments by one
        # entry, so it bumps at table sizes 510/1022/2046 (2^w - 2), exactly
        # when the encoder (at next_code == 2^w - 1) switched widths
        if len(table) == (1 << width) - 2 and width < 12:
            width += 1
    return bytes(out)


def _apply_predictor2(arr: np.ndarray) -> np.ndarray:
    """Undo horizontal differencing in place-compatible fashion:
    arr is (h, w, spp); cumulative sum along w with native wraparound."""
    return np.add.accumulate(arr, axis=1, dtype=arr.dtype)


def _diff_predictor2(arr: np.ndarray) -> np.ndarray:
    """(h, w, spp) -> horizontally differenced copy (first column kept)."""
    out = arr.copy()
    out[:, 1:, :] = arr[:, 1:, :] - arr[:, :-1, :]
    return out


# ---------------------------------------------------------------------------
# writer
# ---------------------------------------------------------------------------


def write_tiff(path: str, pixels: np.ndarray, grid: GridExtent, *, crs="EPSG:4326",
               cell_type: CellType | None = None, tile_size: int = 256,
               compression: str = "deflate", overview_levels: tuple = (),
               layout: str = "tiled", predictor: int = 1) -> str:
    """Write (bands, rows, cols) pixels as a little-endian GeoTIFF.

    ``layout="tiled"`` (default) writes ``tile_size`` square tiles;
    ``"striped"`` writes classic strips of ``tile_size`` rows (last strip
    short).  ``overview_levels`` adds reduced-resolution IFDs (nearest 1/f
    decimation) chained after the base image — the COG-style file-native
    pyramid.  ``compression`` in none/deflate/lzw/packbits; ``predictor=2``
    adds TIFF horizontal differencing (integer cell types only — the usual
    pairing with lzw/deflate on smooth rasters)."""
    if pixels.ndim == 2:
        pixels = pixels[None]
    bands, rows, cols = pixels.shape
    if cell_type is None:
        cell_type = CellType(pixels.dtype.name, None)
    comp_code = {"none": 1, "lzw": 5, "deflate": 8, "packbits": 32773}[compression]
    is_bit = cell_type.dtype == "bit"
    dtype = cell_type.np_dtype.newbyteorder("<")
    if predictor == 2 and (is_bit or dtype.kind not in "iu"):
        raise ValueError("predictor=2 requires a multi-byte integer cell type")
    striped = layout == "striped"

    def _compress(block: np.ndarray) -> bytes:
        # block is (h, w, bands) in the output dtype
        if is_bit:
            h_ = block.shape[0]
            row = np.bitwise_and(block.reshape(h_, -1), 1).astype(np.uint8)
            raw = np.packbits(row, axis=1, bitorder="big").tobytes()
        else:
            if predictor == 2:
                block = _diff_predictor2(block)
            raw = np.ascontiguousarray(block).tobytes()
        if comp_code == 8:
            return zlib.compress(raw, 6)
        if comp_code == 5:
            return _lzw_encode(raw)
        if comp_code == 32773:
            return _packbits_encode(raw)
        return raw

    buf = bytearray(b"II*\x00\x00\x00\x00\x00")  # header; IFD0 offset patched

    def align():
        if len(buf) % 2:
            buf.append(0)

    def emit_level(px: np.ndarray, g: GridExtent, is_overview: bool, next_ptr_pos_holder: list):
        bands_, rows_, cols_ = px.shape
        offsets, counts = [], []
        if striped:
            nstrips = -(-rows_ // tile_size)
            for si in range(nstrips):
                r0 = si * tile_size
                h = min(tile_size, rows_ - r0)
                raw = _compress(np.moveaxis(px[:, r0 : r0 + h, :], 0, -1).astype(dtype))
                align()
                offsets.append(len(buf))
                counts.append(len(raw))
                buf.extend(raw)
        else:
            ntx = -(-cols_ // tile_size)
            nty = -(-rows_ // tile_size)
            for ty in range(nty):
                for tx in range(ntx):
                    tile = np.zeros((tile_size, tile_size, bands_), dtype=dtype)
                    r0, c0 = ty * tile_size, tx * tile_size
                    h = min(tile_size, rows_ - r0)
                    w = min(tile_size, cols_ - c0)
                    tile[:h, :w, :] = np.moveaxis(px[:, r0 : r0 + h, c0 : c0 + w], 0, -1)
                    raw = _compress(tile)
                    align()
                    offsets.append(len(buf))
                    counts.append(len(raw))
                    buf.extend(raw)

        # tag payloads: (tag, type, values)
        sf, bits = _DTYPE_TO_SF[cell_type.dtype]
        entries: list[tuple[int, int, list]] = [
            (T_NEW_SUBFILE_TYPE, FT_LONG, [1 if is_overview else 0]),
            (T_IMAGE_WIDTH, FT_LONG, [cols_]),
            (T_IMAGE_LENGTH, FT_LONG, [rows_]),
            (T_BITS_PER_SAMPLE, FT_SHORT, [bits] * bands_),
            (T_COMPRESSION, FT_SHORT, [comp_code]),
            (T_PHOTOMETRIC, FT_SHORT, [1]),
            (T_SAMPLES_PER_PIXEL, FT_SHORT, [bands_]),
            (T_PLANAR_CONFIG, FT_SHORT, [1]),
            (T_SAMPLE_FORMAT, FT_SHORT, [sf] * bands_),
        ]
        if predictor == 2:
            entries.append((T_PREDICTOR, FT_SHORT, [2]))
        if striped:
            entries += [
                (T_STRIP_OFFSETS, FT_LONG, offsets),
                (T_ROWS_PER_STRIP, FT_LONG, [tile_size]),
                (T_STRIP_BYTE_COUNTS, FT_LONG, counts),
            ]
        else:
            entries += [
                (T_TILE_WIDTH, FT_LONG, [tile_size]),
                (T_TILE_LENGTH, FT_LONG, [tile_size]),
                (T_TILE_OFFSETS, FT_LONG, offsets),
                (T_TILE_BYTE_COUNTS, FT_LONG, counts),
            ]
        if not is_overview:
            e = g.extent
            epsg = _epsg_of(crs)
            geographic = epsg == 4326
            geokeys = [1, 1, 0, 2,
                       GK_MODEL_TYPE, 0, 1, (2 if geographic else 1),
                       (GK_GEOGRAPHIC_TYPE if geographic else GK_PROJECTED_CS_TYPE), 0, 1, epsg]
            entries += [
                (T_MODEL_PIXEL_SCALE, FT_DOUBLE, [g.cellwidth, g.cellheight, 0.0]),
                (T_MODEL_TIEPOINT, FT_DOUBLE, [0.0, 0.0, 0.0, e.xmin, e.ymax, 0.0]),
                (T_GEO_KEY_DIRECTORY, FT_SHORT, geokeys),
            ]
            if cell_type.nodata is not None:
                nd = cell_type.nodata
                txt = ("nan" if cell_type.is_float and np.isnan(nd)
                       else str(int(nd)) if float(nd) == int(nd) else str(float(nd)))
                entries.append((T_GDAL_NODATA, FT_ASCII, list(txt.encode()) + [0]))
        entries.sort(key=lambda t: t[0])

        # out-of-line values
        value_bytes: dict[int, bytes | int] = {}
        for tag, ft, vals in entries:
            packed = struct.pack("<%d%s" % (len(vals), _FT_FMT[ft]), *vals)
            if len(packed) > 4:
                align()
                value_bytes[tag] = len(buf)
                buf.extend(packed)
            else:
                value_bytes[tag] = int.from_bytes(packed.ljust(4, b"\x00"), "little")

        align()
        ifd_pos = len(buf)
        # patch the previous next-IFD pointer (or the header) to point here
        struct.pack_into("<I", buf, next_ptr_pos_holder[0], ifd_pos)
        buf.extend(struct.pack("<H", len(entries)))
        for tag, ft, vals in entries:
            buf.extend(struct.pack("<HHII", tag, ft, len(vals), value_bytes[tag]))
        next_ptr_pos_holder[0] = len(buf)
        buf.extend(b"\x00\x00\x00\x00")

    holder = [4]  # header's IFD0-offset position
    emit_level(pixels, grid, False, holder)
    for f in overview_levels:
        ov = pixels[:, ::f, ::f]
        og = GridExtent(grid.extent, grid.cellwidth * f, grid.cellheight * f,
                        ov.shape[2], ov.shape[1])
        emit_level(ov, og, True, holder)

    with open(path, "wb") as fh:
        fh.write(bytes(buf))
    return path


# ---------------------------------------------------------------------------
# reader
# ---------------------------------------------------------------------------


class _TiffLevel:
    """One parsed IFD: enough to decode any tile (or strip — a strip is
    treated as a full-width tile of RowsPerStrip rows; the last strip is
    short, not padded)."""

    def __init__(self, tags: dict, data: bytes, endian: str):
        self.width = tags[T_IMAGE_WIDTH][0]
        self.height = tags[T_IMAGE_LENGTH][0]
        self.striped = T_TILE_OFFSETS not in tags
        if self.striped:
            self.tile_w = self.width
            self.tile_h = tags.get(T_ROWS_PER_STRIP, [self.height])[0]
            self.offsets = tags[T_STRIP_OFFSETS]
            self.counts = tags[T_STRIP_BYTE_COUNTS]
        else:
            self.tile_w = tags[T_TILE_WIDTH][0]
            self.tile_h = tags[T_TILE_LENGTH][0]
            self.offsets = tags[T_TILE_OFFSETS]
            self.counts = tags[T_TILE_BYTE_COUNTS]
        self.compression = tags.get(T_COMPRESSION, [1])[0]
        self.predictor = tags.get(T_PREDICTOR, [1])[0]
        self.spp = tags.get(T_SAMPLES_PER_PIXEL, [1])[0]
        bits = tags[T_BITS_PER_SAMPLE][0]
        sf = tags.get(T_SAMPLE_FORMAT, [1])[0]
        self.cell_name = _SF_TO_DTYPE[(sf, bits)]
        self.is_bit = self.cell_name == "bit"
        self.dtype = np.dtype("uint8" if self.is_bit else self.cell_name).newbyteorder(endian)
        # decoded bytes of one tile row (bilevel rows are bit-packed)
        self._row_bytes = ((self.tile_w * self.spp + 7) // 8 if self.is_bit
                           else self.tile_w * self.spp * self.dtype.itemsize)
        self.ntx = -(-self.width // self.tile_w)
        self.nty = -(-self.height // self.tile_h)
        self._data = data
        self.is_overview = bool(tags.get(T_NEW_SUBFILE_TYPE, [0])[0] & 1)
        if tags.get(T_PLANAR_CONFIG, [1])[0] != 1:
            raise ValueError("only PlanarConfiguration=1 (chunky) is supported")

    def decode_tile(self, ti: int) -> np.ndarray:
        """-> (spp, h, tile_w) pixel block; h < tile_h only for a short last
        strip (tiled layouts are edge-padded to full size)."""
        raw = self._data[self.offsets[ti] : self.offsets[ti] + self.counts[ti]]
        h = self.tile_h
        if self.striped:
            h = min(self.tile_h, self.height - ti * self.tile_h)
        if self.compression == 8:
            # sized to the decoded tile: zlib then never regrows its buffer
            raw = zlib.decompress(raw, bufsize=h * self._row_bytes)
        elif self.compression == 5:
            raw = _lzw_decode(raw)
        elif self.compression == 32773:
            raw = _packbits_decode(raw)
        elif self.compression != 1:
            raise ValueError(f"unsupported TIFF compression {self.compression}")
        if self.is_bit:
            # bilevel rows are bit-packed MSB-first, each row byte-aligned
            row_bytes = self._row_bytes
            packed = np.frombuffer(raw, dtype=np.uint8, count=h * row_bytes)
            arr = np.unpackbits(packed.reshape(h, row_bytes), axis=1,
                                bitorder="big")[:, : self.tile_w * self.spp]
            return np.moveaxis(arr.reshape(h, self.tile_w, self.spp), -1, 0)
        arr = np.frombuffer(raw, dtype=self.dtype, count=h * self.tile_w * self.spp)
        arr = arr.reshape(h, self.tile_w, self.spp)
        if self.predictor == 2:
            arr = _apply_predictor2(arr.astype(arr.dtype.newbyteorder("="), copy=False))
        elif self.predictor != 1:
            raise ValueError(f"unsupported TIFF predictor {self.predictor}")
        return np.moveaxis(arr, -1, 0)


def _unpack_at(fmt: str, data, off: int):
    """struct.unpack over a SLICE of ``data`` — unlike unpack_from this
    works on any sliceable byte view (mmap AND rangereader.LazyRangeBytes),
    which is what keeps header parsing lazy over ranged readers."""
    return struct.unpack(fmt, data[off : off + struct.calcsize(fmt)])


_MAX_IFDS = 256  # IFD chain cap: a pyramid never has this many levels


def _parse_tiff(data) -> tuple[list[_TiffLevel], dict]:
    """-> (levels, ifd0 tags).  ``data``: bytes / mmap / LazyRangeBytes —
    anything supporting contiguous slicing and len(); only IFD pages are
    touched.  A hostile header raises ValueError: an IFD chain that loops
    or runs past ``_MAX_IFDS`` levels, or an IFD / tag value lying outside
    the file."""
    order = data[:2]
    endian = "<" if order == b"II" else ">" if order == b"MM" else None
    if endian is None:
        raise ValueError("not a TIFF (bad byte-order mark)")
    (magic,) = _unpack_at(endian + "H", data, 2)
    if magic != 42:
        raise ValueError("not a classic TIFF (magic != 42)")
    (ifd_off,) = _unpack_at(endian + "I", data, 4)
    file_len = len(data)
    levels, tags0, seen = [], None, set()
    while ifd_off:
        if ifd_off in seen or len(seen) >= _MAX_IFDS:
            raise ValueError(f"TIFF IFD chain loops or exceeds {_MAX_IFDS} "
                             f"levels (IFD offset {ifd_off})")
        seen.add(ifd_off)
        if ifd_off + 2 > file_len:
            raise ValueError(f"TIFF IFD offset {ifd_off} is past the end of "
                             f"the file ({file_len} bytes)")
        (n,) = _unpack_at(endian + "H", data, ifd_off)
        if ifd_off + 2 + 12 * n + 4 > file_len:
            raise ValueError(f"TIFF IFD at {ifd_off} ({n} entries) runs past "
                             f"the end of the file ({file_len} bytes)")
        tags: dict[int, list] = {}
        for i in range(n):
            tag, ft, cnt, raw = _unpack_at(endian + "HHI4s", data, ifd_off + 2 + 12 * i)
            size = _FT_SIZE.get(ft)
            if size is None:
                continue  # unknown field type: skip
            total = size * cnt
            if total <= 4:
                vals = struct.unpack_from(endian + str(cnt) + _FT_FMT[ft], raw)
            else:
                (voff,) = struct.unpack(endian + "I", raw)
                if voff + total > file_len:
                    raise ValueError(
                        f"TIFF tag {tag} value [{voff}, {voff + total}) lies "
                        f"outside the file ({file_len} bytes)")
                vals = _unpack_at(endian + str(cnt) + _FT_FMT[ft], data, voff)
            tags[tag] = list(vals)
        if T_TILE_OFFSETS not in tags and T_STRIP_OFFSETS not in tags:
            raise ValueError("TIFF has neither tile nor strip offsets")
        levels.append(_TiffLevel(tags, data, endian))
        if tags0 is None:
            tags0 = tags
        (ifd_off,) = _unpack_at(endian + "I", data, ifd_off + 2 + 12 * n)
    return levels, tags0


class TiffRasterSource(RasterSource):
    """S1: lazy tiled-GeoTIFF source — header parsed ONCE on first access
    (GeoTiffRasterSource.scala:44-46 memoized tiff), windowed reads decode
    only touched tiles, file-native overview IFDs back ``resolutions`` /
    ``overview_source`` (ST4)."""

    def __init__(self, path: str, tile_cache_tiles: int = 64):
        self.path = path
        self.parse_count = 0  # observable: header must parse exactly once
        self._parsed = None
        self._reader = None
        self._fh = None
        self._cache: OrderedDict[tuple[int, int], np.ndarray] = OrderedDict()
        self._cache_cap = tile_cache_tiles

    def close(self) -> None:
        """Release the mmap file handle / range reader (long-lived workers
        open many sources — ADVICE r3).  Safe to call twice; a later read
        lazily re-opens through the memoized-parse path."""
        self._parsed = None
        self._cache.clear()
        if self._reader is not None:
            self._reader.close()
            self._reader = None
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass

    def __getstate__(self):
        # ST1 semantics: the handle is NOT shipped — each worker re-opens and
        # re-parses lazily in its own process (a broadcast source list stays
        # a list of small path handles, not file bodies)
        return {"path": self.path, "_cache_cap": self._cache_cap}

    def __setstate__(self, state):
        self.__init__(state["path"], state["_cache_cap"])

    # --- lazy parse --------------------------------------------------------
    @property
    def _info(self):
        if self._parsed is None:
            # mmap for plain paths, a RangeReader-backed lazy view for
            # scheme'd URIs — both give the RangeReader semantics
            # (GeoTiffRasterSource.scala:37-45 — streaming reader over
            # file/S3/HTTP).  Header parsing touches only the IFD pages;
            # decode_tile slices only each tile's byte range, so a multi-GB
            # object never fully loads for a windowed read.
            if "://" in self.path:
                from .rangereader import LazyRangeBytes, open_range_reader

                self._reader = open_range_reader(self.path)
                data = LazyRangeBytes(self._reader)
            else:
                import mmap

                self._fh = open(self.path, "rb")
                data = mmap.mmap(self._fh.fileno(), 0, access=mmap.ACCESS_READ)
            levels, tags0 = _parse_tiff(data)
            scale = tags0.get(T_MODEL_PIXEL_SCALE, [1.0, 1.0, 0.0])
            tp = tags0.get(T_MODEL_TIEPOINT, [0.0] * 6)
            xmin, ymax = tp[3], tp[4]
            base = levels[0]
            grid = GridExtent(
                Extent(xmin, ymax - base.height * scale[1], xmin + base.width * scale[0], ymax),
                scale[0], scale[1], base.width, base.height,
            )
            crs = "EPSG:4326"
            gk = tags0.get(T_GEO_KEY_DIRECTORY)
            if gk:
                for i in range(4, len(gk), 4):
                    if gk[i] in (GK_GEOGRAPHIC_TYPE, GK_PROJECTED_CS_TYPE):
                        crs = f"EPSG:{gk[i + 3]}"
            nodata = None
            nd_raw = tags0.get(T_GDAL_NODATA)
            if nd_raw:
                txt = bytes(nd_raw).rstrip(b"\x00").decode()
                nodata = float(txt)
            self._parsed = {"levels": levels, "grid": grid, "crs": crs, "nodata": nodata}
            self.parse_count += 1
        return self._parsed

    # --- metadata ----------------------------------------------------------
    @property
    def crs(self):
        return self._info["crs"]

    @property
    def grid(self) -> GridExtent:
        return self._info["grid"]

    @property
    def cell_type(self) -> CellType:
        lvl = self._info["levels"][0]
        if lvl.is_bit:
            return CellType("bit", None)
        return CellType(np.dtype(lvl.dtype).name, self._info["nodata"])

    @property
    def band_count(self) -> int:
        return self._info["levels"][0].spp

    @property
    def attributes(self) -> dict[str, str]:
        lvl = self._info["levels"][0]
        return {
            "compression": str(lvl.compression),
            "tile_width": str(lvl.tile_w),
            "tile_height": str(lvl.tile_h),
            "overview_count": str(len(self._info["levels"]) - 1),
        }

    @property
    def resolutions(self) -> list[GridExtent]:
        g = self.grid
        out = []
        for lvl in self._info["levels"]:
            f = g.cols / lvl.width
            out.append(GridExtent(g.extent, g.cellwidth * f, g.cellheight * f,
                                  lvl.width, lvl.height))
        return out

    # --- reads -------------------------------------------------------------
    def _tile(self, level: int, ti: int) -> np.ndarray:
        key = (level, ti)
        hit = self._cache.get(key)
        if hit is not None:
            self._cache.move_to_end(key)
            return hit
        px = self._info["levels"][level].decode_tile(ti)
        self._cache[key] = px
        if len(self._cache) > self._cache_cap:
            self._cache.popitem(last=False)
        return px

    def _read_level(self, level: int, inter: GridBounds, bands) -> np.ndarray:
        lvl = self._info["levels"][level]
        band_idx = list(range(lvl.spp)) if bands is None else list(bands)
        out = np.empty((len(band_idx), inter.height, inter.width), dtype=lvl.dtype.newbyteorder("="))
        tx0, tx1 = inter.col_min // lvl.tile_w, inter.col_max // lvl.tile_w
        ty0, ty1 = inter.row_min // lvl.tile_h, inter.row_max // lvl.tile_h
        for ty in range(ty0, ty1 + 1):
            for tx in range(tx0, tx1 + 1):
                px = self._tile(level, ty * lvl.ntx + tx)
                c0, r0 = tx * lvl.tile_w, ty * lvl.tile_h
                sc0 = max(inter.col_min, c0)
                sc1 = min(inter.col_max, c0 + lvl.tile_w - 1)
                sr0 = max(inter.row_min, r0)
                sr1 = min(inter.row_max, r0 + lvl.tile_h - 1)
                block = px[band_idx, sr0 - r0 : sr1 - r0 + 1, sc0 - c0 : sc1 - c0 + 1]
                out[:, sr0 - inter.row_min : sr1 - inter.row_min + 1,
                    sc0 - inter.col_min : sc1 - inter.col_min + 1] = block
        return out

    def read_bounds(self, bounds: GridBounds, bands=None):
        inter = bounds.intersection(self.grid_bounds)
        if inter is None:
            return None
        return Raster(self._read_level(0, inter, bands), self.grid.extent_for(inter))

    def overview_source(self, grid: GridExtent) -> RasterSource:
        """Closest file-native overview for the requested resolution (ST4)."""
        res = self.resolutions
        best = 0
        for i, g in enumerate(res):
            if g.cellwidth <= grid.cellwidth + 1e-12:
                best = i
        if best == 0:
            return self
        return _TiffOverviewSource(self, best)


class _TiffOverviewSource(RasterSource):
    """Reduced-resolution view over a parent TiffRasterSource's overview IFD
    (shares the parent's parsed header and tile cache)."""

    def __init__(self, parent: TiffRasterSource, level: int):
        self.parent = parent
        self.level = level

    @property
    def crs(self):
        return self.parent.crs

    @property
    def grid(self) -> GridExtent:
        return self.parent.resolutions[self.level]

    @property
    def cell_type(self) -> CellType:
        return self.parent.cell_type

    @property
    def band_count(self) -> int:
        return self.parent.band_count

    def read_bounds(self, bounds: GridBounds, bands=None):
        inter = bounds.intersection(self.grid_bounds)
        if inter is None:
            return None
        return Raster(
            self.parent._read_level(self.level, inter, bands),
            self.grid.extent_for(inter),
        )


def _tiff_factory(uri: str):
    path = uri[len("file://"):] if uri.startswith("file://") else uri
    return TiffRasterSource(path)


def _tiff_ranged_factory(uri: str):
    """mem+http:// GeoTIFFs keep the full URI: TiffRasterSource routes byte
    access through sources/rangereader (S1 parity — the reference's
    GeoTiffRasterSource reads any RangeReader-backed URI lazily,
    GeoTiffRasterSource.scala:37-41)."""
    return TiffRasterSource(uri)


def register_tiff_scheme():
    from .registry import register_scheme

    register_scheme("file", _tiff_factory)
    register_scheme("mem+http", _tiff_ranged_factory)
    # remote object-store tiers share the RangeReader-backed path (the
    # reference reads the same COG over HTTP and S3 — SubsceneReadingIT)
    register_scheme("http", _tiff_ranged_factory)
    register_scheme("https", _tiff_ranged_factory)
    register_scheme("s3", _tiff_ranged_factory)


register_tiff_scheme()
