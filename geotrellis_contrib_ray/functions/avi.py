"""Minimal MJPEG-in-AVI video codec — pure struct over the RIFF container,
frames via the baseline JPEG codec (functions/jpeg.py).

Makes the VIDEO leg of the multimodal family real in this dependency-free
container: encode = one '00dc' chunk per JPEG frame inside LIST/movi with
the standard avih/strh/strf headers; decode = RIFF walk collecting frame
chunks + fps from the stream header.  Everything here is the public AVI
RIFF layout (Microsoft "AVI RIFF File Reference").

Scope: one video stream, MJPG fourcc, no interleaved audio, no OpenDML
extensions — a deployed pipeline hands exotic containers to PyAV behind a
DecodeBackend; this keeps the Ray-side video plumbing testable with REAL
encoded bytes end-to-end.
"""

from __future__ import annotations

import struct

import numpy as np

from .jpeg import decode_jpeg, encode_jpeg


def _chunk(tag: bytes, body: bytes) -> bytes:
    pad = b"\x00" if len(body) % 2 else b""
    return tag + struct.pack("<I", len(body)) + body + pad


def _list(kind: bytes, body: bytes) -> bytes:
    return _chunk(b"LIST", kind + body)


def encode_avi_mjpeg(frames: np.ndarray, fps: int = 10, quality: int = 85) -> bytes:
    """(n, h, w, 3) uint8 frames -> MJPEG AVI bytes (deterministic)."""
    frames = np.asarray(frames)
    if frames.ndim != 4 or frames.shape[-1] != 3 or frames.dtype != np.uint8:
        raise ValueError("expected (n, h, w, 3) uint8 frames")
    n, h, w, _ = frames.shape
    jpegs = [encode_jpeg(f, quality=quality) for f in frames]
    max_buf = max((len(j) for j in jpegs), default=0)

    avih = struct.pack(
        "<14I",
        1_000_000 // max(fps, 1),  # dwMicroSecPerFrame
        max_buf * fps,             # dwMaxBytesPerSec
        0,                         # dwPaddingGranularity
        0,                         # dwFlags (no idx1 chunk -> no HASINDEX)
        n, 0, 1, max_buf, w, h, 0, 0, 0, 0,
    )
    # AVISTREAMHEADER: flags, prio, lang, initial, scale, rate, start,
    # length, bufsize, quality, samplesize, rcFrame
    strh = (
        b"vids" + b"MJPG"
        + struct.pack("<IHHIIIIIIII4h", 0, 0, 0, 0, 1, fps, 0, n, max_buf, 0, 0,
                      0, 0, w, h)
    )
    strf = struct.pack("<IiiHH4sIiiII", 40, w, h, 1, 24, b"MJPG", w * h * 3, 0, 0, 0, 0)
    hdrl = _list(b"hdrl", _chunk(b"avih", avih) + _list(b"strl", _chunk(b"strh", strh) + _chunk(b"strf", strf)))
    movi = _list(b"movi", b"".join(_chunk(b"00dc", j) for j in jpegs))
    riff_body = b"AVI " + hdrl + movi
    return b"RIFF" + struct.pack("<I", len(riff_body)) + riff_body


def decode_avi_mjpeg(data: bytes) -> tuple[np.ndarray, float]:
    """MJPEG AVI bytes -> ((n, h, w, 3) uint8 frames, fps)."""
    if data[:4] != b"RIFF" or data[8:12] != b"AVI ":
        raise ValueError("not an AVI (RIFF/AVI magic missing)")
    fps = 0.0
    frames: list[np.ndarray] = []

    def walk(pos: int, end: int):
        nonlocal fps
        while pos + 8 <= end:
            tag = data[pos : pos + 4]
            (size,) = struct.unpack_from("<I", data, pos + 4)
            body_start = pos + 8
            body_end = body_start + size
            if tag == b"LIST":
                walk(body_start + 4, body_end)  # skip the list-kind fourcc
            elif tag == b"strh":
                fcc_type = data[body_start : body_start + 4]
                if fcc_type == b"vids":
                    scale, rate = struct.unpack_from("<II", data, body_start + 20)
                    if scale:
                        fps = rate / scale
            elif tag[2:4] in (b"dc", b"db"):
                payload = data[body_start:body_end]
                if payload[:2] == b"\xff\xd8":
                    frames.append(decode_jpeg(payload))
            pos = body_end + (size % 2)  # chunks are word-aligned

    walk(12, len(data))
    if not frames:
        raise ValueError("no MJPEG frames found")
    return np.stack(frames), fps
