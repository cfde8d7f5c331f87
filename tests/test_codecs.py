"""Stdlib multimedia codecs: exact round-trips + real decode through the
multimodal stages."""

import numpy as np
import pyarrow as pa
import pytest

from geotrellis_contrib_ray.functions import codecs


def _img(h=13, w=17, seed=5):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)


def test_ppm_roundtrip():
    img = _img()
    np.testing.assert_array_equal(codecs.decode_ppm(codecs.encode_ppm(img)), img)


def test_ppm_comments_and_whitespace():
    img = _img(2, 3)
    data = b"P6\n# a comment\n3 2\n# another\n255\n" + img.tobytes()
    np.testing.assert_array_equal(codecs.decode_ppm(data), img)


def test_bmp_roundtrip_padded_rows():
    # width 17 -> row length 51 -> padded to 52: exercises row padding
    img = _img(13, 17)
    np.testing.assert_array_equal(codecs.decode_bmp(codecs.encode_bmp(img)), img)


def test_png_roundtrip_rgb():
    img = _img(9, 11)
    np.testing.assert_array_equal(codecs.decode_png(codecs.encode_png(img)), img)


def test_png_rgba_drops_alpha():
    rng = np.random.default_rng(7)
    img = rng.integers(0, 256, size=(5, 6, 4), dtype=np.uint8)
    out = codecs.decode_png(codecs.encode_png(img))
    np.testing.assert_array_equal(out, img[:, :, :3])


def test_png_all_filters_decode():
    """Hand-build a PNG using every filter type (0..4) and check against a
    reference unfilter computed independently."""
    import struct
    import zlib

    rng = np.random.default_rng(11)
    h, w = 5, 4
    img = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)

    def paeth(a, b, c):
        p = a + b - c
        pa_, pb, pc = abs(p - a), abs(p - b), abs(p - c)
        return a if pa_ <= pb and pa_ <= pc else (b if pb <= pc else c)

    stride = w * 3
    flat = img.reshape(h, stride).astype(np.int32)
    raw = bytearray()
    prev = np.zeros(stride, dtype=np.int32)
    for r in range(h):
        f = r % 5
        line = flat[r]
        enc = np.zeros(stride, dtype=np.int32)
        for i in range(stride):
            left = line[i - 3] if i >= 3 else 0
            ul = prev[i - 3] if i >= 3 else 0
            if f == 0:
                pred = 0
            elif f == 1:
                pred = left
            elif f == 2:
                pred = prev[i]
            elif f == 3:
                pred = (left + prev[i]) // 2
            else:
                pred = paeth(left, prev[i], ul)
            enc[i] = (line[i] - pred) & 0xFF
        raw += bytes([f]) + enc.astype(np.uint8).tobytes()
        prev = line
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    png = (
        codecs._PNG_SIG
        + codecs._png_chunk(b"IHDR", ihdr)
        + codecs._png_chunk(b"IDAT", zlib.compress(bytes(raw)))
        + codecs._png_chunk(b"IEND", b"")
    )
    np.testing.assert_array_equal(codecs.decode_png(png), img)


def test_wav_roundtrip_and_stereo_mixdown():
    t = np.linspace(0, 1, 8000, dtype=np.float64)
    mono = (0.5 * np.sin(2 * np.pi * 440 * t)).astype(np.float32)
    out, rate = codecs.decode_wav(codecs.encode_wav(mono, 8000))
    assert rate == 8000
    assert np.abs(out - mono).max() < 1e-3  # 16-bit quantization only

    # stereo mixdown via a hand-built 2-channel file
    import struct as st
    import wave
    from io import BytesIO

    left = np.full(100, 8000, dtype=np.int16)
    right = np.full(100, -8000, dtype=np.int16)
    inter = np.empty(200, dtype=np.int16)
    inter[0::2], inter[1::2] = left, right
    buf = BytesIO()
    with wave.open(buf, "wb") as wf:
        wf.setnchannels(2)
        wf.setsampwidth(2)
        wf.setframerate(16000)
        wf.writeframes(inter.tobytes())
    mixed, _ = codecs.decode_wav(buf.getvalue())
    assert np.allclose(mixed, 0.0, atol=1e-4)


def test_sniffing():
    img = _img(4, 4)
    for enc in (codecs.encode_ppm, codecs.encode_bmp, codecs.encode_png):
        np.testing.assert_array_equal(codecs.sniff_and_decode_image(enc(img)), img)
    with pytest.raises(ValueError):
        codecs.sniff_and_decode_image(b"JFIF....")
    wav = codecs.encode_wav(np.zeros(100, dtype=np.float32))
    assert len(codecs.sniff_and_decode_audio(wav)) == 100


def test_multimodal_stage_real_decode(ray_session):
    """End-to-end: real PNG/BMP/PPM payloads through the image-feature stage
    and a real WAV through the audio frame sampler."""
    import ray.data as rd

    from geotrellis_contrib_ray.stages import multimodal as mm

    imgs = {f"img{i}": _img(16 + i, 20 + i, seed=i) for i in range(6)}
    encs = [codecs.encode_png, codecs.encode_bmp, codecs.encode_ppm]
    t = pa.table(
        {
            "media_ref": pa.array(list(imgs), pa.string()),
            "media_type": pa.array(["image"] * 6, pa.string()),
            "payload": pa.array(
                [encs[i % 3](img) for i, img in enumerate(imgs.values())], pa.binary()
            ),
        }
    )
    out = (
        mm.extract_image_features(
            rd.from_arrow(t), batch_size=2
        )
        .to_pandas()
        .set_index("media_ref")
    )
    for i, (ref, img) in enumerate(imgs.items()):
        assert out.loc[ref, "height"] == img.shape[0]
        assert out.loc[ref, "width"] == img.shape[1]

    wav = codecs.encode_wav(np.ones(1024, dtype=np.float32) * 0.5, 8000)
    ta = pa.table(
        {
            "media_ref": pa.array(["a0"], pa.string()),
            "media_type": pa.array(["audio"], pa.string()),
            "payload": pa.array([wav], pa.binary()),
        }
    )
    res = mm.sample_audio_frames(rd.from_arrow(ta)).to_pandas()
    assert res["n_frames"][0] == 4  # 1024 // 256
    assert np.allclose(res["frame_energy"][0], 0.25, atol=1e-3)  # (0.5)^2


def test_avi_mjpeg_roundtrip():
    """MJPEG-AVI container: frame count/dims/fps exact, pixels within JPEG
    quantization error."""
    import numpy as np

    from geotrellis_contrib_ray.functions import avi

    n, h, w = 6, 24, 32
    yy, xx = np.mgrid[0:h, 0:w]
    frames = np.stack(
        [
            np.stack(
                [(xx * 8 + i * 10) % 256, (yy * 8) % 256, ((xx + yy) * 4) % 256],
                axis=-1,
            ).astype(np.uint8)
            for i in range(n)
        ]
    )
    data = avi.encode_avi_mjpeg(frames, fps=12, quality=90)
    out, fps = avi.decode_avi_mjpeg(data)
    assert out.shape == frames.shape
    assert fps == 12.0
    assert int(np.abs(out.astype(int) - frames.astype(int)).max()) <= 12
    # container invariants
    assert data[:4] == b"RIFF" and data[8:12] == b"AVI "
    assert data.count(b"00dc") == n


def test_avi_rejects_non_avi():
    import pytest

    from geotrellis_contrib_ray.functions import avi

    with pytest.raises(ValueError, match="not an AVI"):
        avi.decode_avi_mjpeg(b"RIFF\x00\x00\x00\x00WAVE")


def test_video_frame_sampler_stride(ray_session):
    """VideoFrameSampler: stride-2 sampling over real MJPEG-AVI payloads."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from geotrellis_contrib_ray.functions import avi
    from geotrellis_contrib_ray.stages import multimodal as mm

    frames = np.full((5, 16, 16, 3), 100, dtype=np.uint8)
    t = pa.table(
        {
            "media_ref": pa.array(["v0"], pa.string()),
            "media_type": pa.array(["video"], pa.string()),
            "payload": pa.array([avi.encode_avi_mjpeg(frames, fps=10)], pa.binary()),
        }
    )
    out = mm.sample_video_frames(rd.from_arrow(t), stride=2, batch_size=4).to_pandas()
    assert out["n_frames"].tolist() == [5]
    assert out["n_sampled"].tolist() == [3]
    assert out["width"].tolist() == [16] and out["height"].tolist() == [16]
    # solid-color frames survive JPEG exactly -> mean intensity == 100
    assert np.allclose(out["frame_mean"].iloc[0], 100.0)


def test_wav_int16_roundtrip_exact():
    import numpy as np

    from geotrellis_contrib_ray.functions.codecs import decode_wav_int16, encode_wav

    v = ((np.arange(5000, dtype=np.int64) * 7919) % 65536 - 32768).astype(np.int16)
    data = encode_wav(v, 8000)
    out, rate = decode_wav_int16(data)
    assert rate == 8000
    assert out.dtype == np.int16
    assert np.array_equal(out, v)
