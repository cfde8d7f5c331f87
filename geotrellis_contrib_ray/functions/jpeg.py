"""Baseline sequential JPEG (JFIF) codec — pure numpy + stdlib.

Completes the multimodal decode family for this dependency-free container:
PPM/BMP/PNG/WAV in codecs.py are lossless; this adds the one format a real
web-scale corpus is actually dominated by.  Everything here is from the
public JPEG spec (ITU-T T.81): Annex K quantization + Huffman tables, zigzag
order, byte stuffing, restart markers; quality scaling uses the standard
libjpeg 5000/Q formula.

Scope: baseline DCT (SOF0), 8-bit, 1 or 3 components, sampling factors in
{1, 2} (4:4:4, 4:2:2, 4:2:0), optional restart intervals.  Progressive
(SOF2) and arithmetic coding are out of scope — a deployed pipeline hands
those to libjpeg-turbo behind a DecodeBackend; this codec keeps the Ray-side
plumbing testable end-to-end with REAL entropy-coded bytes.

Encoder is deterministic; decoder is exact for the subset (the lossy step is
quantization, not implementation slack): encode->decode of a quantized image
reproduces the IDCT output bit-for-bit.
"""

from __future__ import annotations

import struct

import numpy as np

# --- Annex K tables ---------------------------------------------------------

QUANT_LUM = np.array([
    16, 11, 10, 16, 24, 40, 51, 61,
    12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77,
    24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101,
    72, 92, 95, 98, 112, 100, 103, 99,
], dtype=np.int32).reshape(8, 8)

QUANT_CHROM = np.array([
    17, 18, 24, 47, 99, 99, 99, 99,
    18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99,
    47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
], dtype=np.int32).reshape(8, 8)

ZIGZAG = np.array([
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
], dtype=np.int64)
UNZIGZAG = np.argsort(ZIGZAG)

DC_LUM_COUNTS = [0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
DC_LUM_VALUES = list(range(12))
DC_CHROM_COUNTS = [0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
DC_CHROM_VALUES = list(range(12))

AC_LUM_COUNTS = [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 125]
AC_LUM_VALUES = [
    0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41, 0x06,
    0x13, 0x51, 0x61, 0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08,
    0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0, 0x24, 0x33, 0x62, 0x72,
    0x82, 0x09, 0x0A, 0x16, 0x17, 0x18, 0x19, 0x1A, 0x25, 0x26, 0x27, 0x28,
    0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3A, 0x43, 0x44, 0x45,
    0x46, 0x47, 0x48, 0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
    0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75,
    0x76, 0x77, 0x78, 0x79, 0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
    0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3,
    0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
    0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9,
    0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2,
    0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF1, 0xF2, 0xF3, 0xF4,
    0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA,
]
AC_CHROM_COUNTS = [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 119]
AC_CHROM_VALUES = [
    0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12, 0x41,
    0x51, 0x07, 0x61, 0x71, 0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
    0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0, 0x15, 0x62, 0x72, 0xD1,
    0x0A, 0x16, 0x24, 0x34, 0xE1, 0x25, 0xF1, 0x17, 0x18, 0x19, 0x1A, 0x26,
    0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3A, 0x43, 0x44,
    0x45, 0x46, 0x47, 0x48, 0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
    0x59, 0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74,
    0x75, 0x76, 0x77, 0x78, 0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
    0x88, 0x89, 0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A,
    0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4,
    0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7,
    0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA,
    0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF2, 0xF3, 0xF4,
    0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA,
]
assert sum(AC_LUM_COUNTS) == len(AC_LUM_VALUES) == 162
assert sum(AC_CHROM_COUNTS) == len(AC_CHROM_VALUES) == 162

# 8x8 type-II DCT basis: D @ block @ D.T is the forward 2D DCT
_K = np.arange(8)
_DCT = np.cos((2 * _K[None, :] + 1) * _K[:, None] * np.pi / 16.0) * 0.5
_DCT[0, :] *= 1.0 / np.sqrt(2.0)


def _build_huffman(counts, values):
    """-> {symbol: (code, length)} per T.81 C.2 canonical code assignment."""
    table, code, k = {}, 0, 0
    for length in range(1, 17):
        for _ in range(counts[length - 1]):
            table[values[k]] = (code, length)
            code += 1
            k += 1
        code <<= 1
    return table


def _build_decode_table(counts, values):
    """-> {(length, code): symbol} for the decoder's incremental bit read."""
    enc = _build_huffman(counts, values)
    return {(ln, code): sym for sym, (code, ln) in enc.items()}


def _scale_quant(table: np.ndarray, quality: int) -> np.ndarray:
    quality = min(100, max(1, quality))
    scale = 5000 // quality if quality < 50 else 200 - 2 * quality
    q = (table * scale + 50) // 100
    return np.clip(q, 1, 255).astype(np.int32)


def _rgb_to_ycbcr(img: np.ndarray):
    f = img.astype(np.float64)
    r, g, b = f[..., 0], f[..., 1], f[..., 2]
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = -0.168736 * r - 0.331264 * g + 0.5 * b + 128.0
    cr = 0.5 * r - 0.418688 * g - 0.081312 * b + 128.0
    return y, cb, cr


def _ycbcr_to_rgb(y, cb, cr):
    cb = cb - 128.0
    cr = cr - 128.0
    r = y + 1.402 * cr
    g = y - 0.344136 * cb - 0.714136 * cr
    b = y + 1.772 * cb
    return np.clip(np.stack([r, g, b], axis=-1).round(), 0, 255).astype(np.uint8)


class _BitWriter:
    def __init__(self):
        self.out = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, code: int, length: int):
        self.acc = (self.acc << length) | (code & ((1 << length) - 1))
        self.nbits += length
        while self.nbits >= 8:
            self.nbits -= 8
            byte = (self.acc >> self.nbits) & 0xFF
            self.out.append(byte)
            if byte == 0xFF:
                self.out.append(0x00)  # byte stuffing
        # trim emitted high bits: without this the python-int accumulator
        # grows by 8 bits per stream byte and every shift becomes O(stream)
        self.acc &= (1 << self.nbits) - 1

    def pad_to_byte(self):
        if self.nbits:
            self.write(0x7F, 8 - self.nbits)  # 1-fill per spec


def _magnitude(v: int) -> tuple[int, int]:
    """-> (category, value bits) for the DC/AC amplitude coding."""
    if v == 0:
        return 0, 0
    a = abs(v)
    cat = a.bit_length()
    bits = v if v > 0 else v + (1 << cat) - 1
    return cat, bits


def _encode_block(w: _BitWriter, block_q: np.ndarray, dc_pred: int,
                  dc_tab: dict, ac_tab: dict) -> int:
    zz = block_q.ravel()[ZIGZAG]
    dc = int(zz[0])
    cat, bits = _magnitude(dc - dc_pred)
    code, ln = dc_tab[cat]
    w.write(code, ln)
    if cat:
        w.write(bits, cat)
    run = 0
    nz = np.nonzero(zz[1:])[0]
    last = nz[-1] + 1 if len(nz) else 0
    for i in range(1, last + 1):
        v = int(zz[i])
        if v == 0:
            run += 1
            continue
        while run > 15:
            code, ln = ac_tab[0xF0]  # ZRL
            w.write(code, ln)
            run -= 16
        cat, bits = _magnitude(v)
        code, ln = ac_tab[(run << 4) | cat]
        w.write(code, ln)
        w.write(bits, cat)
        run = 0
    if last < 63:
        code, ln = ac_tab[0x00]  # EOB
        w.write(code, ln)
    return dc


def _dqt_segment(tid: int, table: np.ndarray) -> bytes:
    return struct.pack(">HHB", 0xFFDB, 67, tid) + bytes(
        int(x) for x in table.ravel()[ZIGZAG]
    )


def _dht_segment(cls: int, tid: int, counts, values) -> bytes:
    body = bytes([(cls << 4) | tid]) + bytes(counts) + bytes(values)
    return struct.pack(">HH", 0xFFC4, 2 + len(body)) + body


def encode_jpeg(img: np.ndarray, quality: int = 85, subsampling: str = "4:4:4",
                restart_interval: int = 0) -> bytes:
    """uint8 (h, w, 3) RGB or (h, w) grayscale -> baseline JFIF bytes."""
    gray = img.ndim == 2
    h, w = img.shape[:2]
    qy = _scale_quant(QUANT_LUM, quality)
    qc = _scale_quant(QUANT_CHROM, quality)
    if gray:
        planes = [img.astype(np.float64)]
        samp = [(1, 1)]
        qtabs = [qy]
    else:
        y, cb, cr = _rgb_to_ycbcr(img)
        if subsampling == "4:4:4":
            samp = [(1, 1), (1, 1), (1, 1)]
            planes = [y, cb, cr]
        elif subsampling == "4:2:0":
            samp = [(2, 2), (1, 1), (1, 1)]
            planes = [y, _downsample2(cb, 2, 2), _downsample2(cr, 2, 2)]
        elif subsampling == "4:2:2":
            samp = [(2, 1), (1, 1), (1, 1)]
            planes = [y, _downsample2(cb, 2, 1), _downsample2(cr, 2, 1)]
        else:
            raise ValueError(f"unsupported subsampling {subsampling}")
        qtabs = [qy, qc, qc]

    hmax = max(s[0] for s in samp)
    vmax = max(s[1] for s in samp)
    mcux = -(-w // (8 * hmax))
    mcuy = -(-h // (8 * vmax))

    # pad each plane to its MCU-aligned size (edge replicate)
    padded = []
    for (hs, vs), p in zip(samp, planes):
        ph, pw = mcuy * 8 * vs, mcux * 8 * hs
        pp = np.empty((ph, pw), dtype=np.float64)
        ih, iw = min(p.shape[0], ph), min(p.shape[1], pw)
        pp[:ih, :iw] = p[:ih, :iw]
        pp[ih:, :iw] = pp[ih - 1 : ih, :iw]
        pp[:, iw:] = pp[:, iw - 1 : iw]
        padded.append(pp - 128.0)

    dc_lum = _build_huffman(DC_LUM_COUNTS, DC_LUM_VALUES)
    ac_lum = _build_huffman(AC_LUM_COUNTS, AC_LUM_VALUES)
    dc_chr = _build_huffman(DC_CHROM_COUNTS, DC_CHROM_VALUES)
    ac_chr = _build_huffman(AC_CHROM_COUNTS, AC_CHROM_VALUES)
    huff = [(dc_lum, ac_lum)] + [(dc_chr, ac_chr)] * (len(planes) - 1)

    wtr = _BitWriter()
    dc_pred = [0] * len(planes)
    rst = 0
    mcu_count = 0
    for my in range(mcuy):
        for mx in range(mcux):
            if restart_interval and mcu_count and mcu_count % restart_interval == 0:
                wtr.pad_to_byte()
                wtr.out += struct.pack(">H", 0xFFD0 + rst)
                rst = (rst + 1) & 7
                dc_pred = [0] * len(planes)
            for ci, ((hs, vs), plane, qt) in enumerate(zip(samp, padded, qtabs)):
                for by in range(vs):
                    for bx in range(hs):
                        r0 = (my * vs + by) * 8
                        c0 = (mx * hs + bx) * 8
                        blk = plane[r0 : r0 + 8, c0 : c0 + 8]
                        coef = _DCT @ blk @ _DCT.T
                        q = np.round(coef / qt).astype(np.int64)
                        dc_pred[ci] = _encode_block(
                            wtr, q, dc_pred[ci], huff[ci][0], huff[ci][1]
                        )
            mcu_count += 1
    wtr.pad_to_byte()

    out = bytearray(b"\xff\xd8")  # SOI
    out += struct.pack(">HH", 0xFFE0, 16) + b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00"
    out += _dqt_segment(0, qy)
    if not gray:
        out += _dqt_segment(1, qc)
    ncomp = len(planes)
    sof = struct.pack(">BHHB", 8, h, w, ncomp)
    for ci, (hs, vs) in enumerate(samp):
        sof += bytes([ci + 1, (hs << 4) | vs, 0 if ci == 0 else 1])
    out += struct.pack(">HH", 0xFFC0, 2 + len(sof)) + sof
    out += _dht_segment(0, 0, DC_LUM_COUNTS, DC_LUM_VALUES)
    out += _dht_segment(1, 0, AC_LUM_COUNTS, AC_LUM_VALUES)
    if not gray:
        out += _dht_segment(0, 1, DC_CHROM_COUNTS, DC_CHROM_VALUES)
        out += _dht_segment(1, 1, AC_CHROM_COUNTS, AC_CHROM_VALUES)
    if restart_interval:
        out += struct.pack(">HHH", 0xFFDD, 4, restart_interval)
    sos = bytes([ncomp])
    for ci in range(ncomp):
        sos += bytes([ci + 1, 0x00 if ci == 0 else 0x11])
    sos += b"\x00\x3f\x00"
    out += struct.pack(">HH", 0xFFDA, 2 + len(sos)) + sos
    out += wtr.out
    out += b"\xff\xd9"  # EOI
    return bytes(out)


def _downsample2(p: np.ndarray, fx: int, fy: int) -> np.ndarray:
    h, w = p.shape
    ph, pw = -(-h // fy) * fy, -(-w // fx) * fx
    pp = np.empty((ph, pw), dtype=np.float64)
    pp[:h, :w] = p
    pp[h:, :w] = pp[h - 1 : h, :w]
    pp[:, w:] = pp[:, w - 1 : w]
    return pp.reshape(ph // fy, fy, pw // fx, fx).mean(axis=(1, 3))


class _BitReader:
    """MSB-first reader over the entropy-coded segment with 0xFF00
    destuffing; RSTn markers are consumed by ``sync_restart``."""

    def __init__(self, data: bytes, pos: int):
        self.data = data
        self.pos = pos
        self.acc = 0
        self.nbits = 0

    def _fill(self):
        d = self.data
        while self.nbits <= 24:
            if self.pos >= len(d):
                self.acc = (self.acc << 8) | 0
                self.nbits += 8
                continue
            b = d[self.pos]
            if b == 0xFF:
                nxt = d[self.pos + 1] if self.pos + 1 < len(d) else 0xD9
                if nxt == 0x00:
                    self.pos += 2
                    self.acc = (self.acc << 8) | 0xFF
                    self.nbits += 8
                    continue
                # a real marker: stop feeding bits (pad with zeros)
                self.acc = self.acc << 8
                self.nbits += 8
                continue
            self.pos += 1
            self.acc = (self.acc << 8) | b
            self.nbits += 8

    def read_bit(self) -> int:
        if self.nbits == 0:
            self._fill()
        self.nbits -= 1
        bit = (self.acc >> self.nbits) & 1
        # trim consumed high bits (bounded accumulator — see _BitWriter)
        self.acc &= (1 << self.nbits) - 1
        return bit

    def read_bits(self, n: int) -> int:
        if n == 0:
            return 0
        while self.nbits < n:
            self._fill()
        self.nbits -= n
        out = (self.acc >> self.nbits) & ((1 << n) - 1)
        self.acc &= (1 << self.nbits) - 1
        return out

    def sync_restart(self):
        """Byte-align and consume the expected RSTn marker."""
        self.nbits = 0
        self.acc = 0
        d = self.data
        while self.pos + 1 < len(d):
            if d[self.pos] == 0xFF and 0xD0 <= d[self.pos + 1] <= 0xD7:
                self.pos += 2
                return
            self.pos += 1
        raise ValueError("expected RST marker")


def _decode_huffman(rd: _BitReader, table: dict) -> int:
    code, length = 0, 0
    while length < 16:
        code = (code << 1) | rd.read_bit()
        length += 1
        sym = table.get((length, code))
        if sym is not None:
            return sym
    raise ValueError("bad Huffman code")


def _extend(bits: int, cat: int) -> int:
    if cat == 0:
        return 0
    if bits < (1 << (cat - 1)):
        return bits - (1 << cat) + 1
    return bits


def decode_jpeg(data: bytes) -> np.ndarray:
    """Baseline JFIF bytes -> uint8 RGB (h, w, 3) (grayscale replicated)."""
    if data[:2] != b"\xff\xd8":
        raise ValueError("not a JPEG (no SOI)")
    pos = 2
    qtables: dict[int, np.ndarray] = {}
    htables: dict[tuple[int, int], dict] = {}
    frame = None
    restart_interval = 0
    while pos < len(data):
        if data[pos] != 0xFF:
            pos += 1
            continue
        marker = data[pos + 1]
        pos += 2
        if marker in (0xD8, 0x01) or 0xD0 <= marker <= 0xD7:
            continue
        if marker == 0xD9:
            break
        (seglen,) = struct.unpack_from(">H", data, pos)
        body = data[pos + 2 : pos + seglen]
        if marker == 0xDB:  # DQT (possibly several tables per segment)
            bp = 0
            while bp < len(body):
                pq, tid = body[bp] >> 4, body[bp] & 0xF
                bp += 1
                if pq == 0:
                    vals = np.frombuffer(body, np.uint8, 64, bp).astype(np.int32)
                    bp += 64
                else:
                    vals = np.frombuffer(body, ">u2", 64, bp).astype(np.int32)
                    bp += 128
                t = np.zeros(64, np.int32)
                t[ZIGZAG] = vals
                qtables[tid] = t.reshape(8, 8)
        elif marker == 0xC4:  # DHT
            bp = 0
            while bp < len(body):
                cls, tid = body[bp] >> 4, body[bp] & 0xF
                counts = list(body[bp + 1 : bp + 17])
                n = sum(counts)
                values = list(body[bp + 17 : bp + 17 + n])
                htables[(cls, tid)] = _build_decode_table(counts, values)
                bp += 17 + n
        elif marker == 0xC0:  # SOF0 baseline
            prec, fh, fw, nc = struct.unpack_from(">BHHB", body, 0)
            comps = []
            for ci in range(nc):
                cid, hv, tq = body[6 + 3 * ci : 9 + 3 * ci]
                comps.append({"id": cid, "h": hv >> 4, "v": hv & 0xF, "tq": tq})
            frame = {"h": fh, "w": fw, "comps": comps}
        elif marker in (0xC1, 0xC2, 0xC3, 0xC5, 0xC6, 0xC7, 0xC9, 0xCA, 0xCB,
                        0xCD, 0xCE, 0xCF):
            raise ValueError(f"unsupported JPEG frame type 0xFF{marker:02X} (baseline only)")
        elif marker == 0xDD:  # DRI
            (restart_interval,) = struct.unpack_from(">H", body, 0)
        elif marker == 0xDA:  # SOS
            ns = body[0]
            scan = []
            for si in range(ns):
                cs, tt = body[1 + 2 * si], body[2 + 2 * si]
                scan.append({"cs": cs, "td": tt >> 4, "ta": tt & 0xF})
            pos += seglen
            return _decode_scan(data, pos, frame, scan, qtables, htables,
                                restart_interval)
        pos += seglen
    raise ValueError("no SOS scan found")


def _decode_scan(data, pos, frame, scan, qtables, htables, restart_interval):
    h, w = frame["h"], frame["w"]
    comps = frame["comps"]
    hmax = max(c["h"] for c in comps)
    vmax = max(c["v"] for c in comps)
    mcux = -(-w // (8 * hmax))
    mcuy = -(-h // (8 * vmax))
    planes = [
        np.zeros((mcuy * 8 * c["v"], mcux * 8 * c["h"]), dtype=np.float64)
        for c in comps
    ]
    by_id = {c["id"]: i for i, c in enumerate(comps)}
    order = [by_id[s["cs"]] for s in scan]
    rd = _BitReader(data, pos)
    dc_pred = [0] * len(comps)
    idct = _DCT.T  # inverse: D.T @ coef @ D
    mcu_count = 0
    for my in range(mcuy):
        for mx in range(mcux):
            if restart_interval and mcu_count and mcu_count % restart_interval == 0:
                rd.sync_restart()
                dc_pred = [0] * len(comps)
            for si, ci in enumerate(order):
                c = comps[ci]
                dt = htables[(0, scan[si]["td"])]
                at = htables[(1, scan[si]["ta"])]
                qt = qtables[c["tq"]]
                for byy in range(c["v"]):
                    for bxx in range(c["h"]):
                        zz = np.zeros(64, dtype=np.int64)
                        cat = _decode_huffman(rd, dt)
                        diff = _extend(rd.read_bits(cat), cat)
                        dc_pred[ci] += diff
                        zz[0] = dc_pred[ci]
                        k = 1
                        while k < 64:
                            rs = _decode_huffman(rd, at)
                            r, s = rs >> 4, rs & 0xF
                            if s == 0:
                                if r == 15:
                                    k += 16
                                    continue
                                break  # EOB
                            k += r
                            if k > 63:
                                raise ValueError("AC run past block end")
                            zz[k] = _extend(rd.read_bits(s), s)
                            k += 1
                        blk = np.zeros(64, dtype=np.float64)
                        blk[ZIGZAG] = zz * qt.ravel()[ZIGZAG]
                        px = idct @ blk.reshape(8, 8) @ _DCT
                        r0 = (my * c["v"] + byy) * 8
                        c0 = (mx * c["h"] + bxx) * 8
                        planes[ci][r0 : r0 + 8, c0 : c0 + 8] = px + 128.0
            mcu_count += 1

    # upsample each component to full resolution and crop
    full = []
    for c, p in zip(comps, planes):
        fy, fx = vmax // c["v"], hmax // c["h"]
        if fy > 1 or fx > 1:
            p = np.repeat(np.repeat(p, fy, axis=0), fx, axis=1)
        full.append(p[:h, :w])
    if len(full) == 1:
        g = np.clip(full[0].round(), 0, 255).astype(np.uint8)
        return np.stack([g, g, g], axis=-1)
    return _ycbcr_to_rgb(full[0], full[1], full[2])
