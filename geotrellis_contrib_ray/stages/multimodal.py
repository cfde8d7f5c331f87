"""Multimodal (image/audio/video) stages over opaque binary columns.

Media payloads are ``binary`` columns + typed metadata (media_type, width,
height, sample_rate...).  Decode / resize / feature-extract / frame-sample
are plain-task map_batches stages behind a pluggable ``DecodeBackend``
(the stage object, backend included, ships once in the task closure):

- ``StdlibDecodeBackend`` — REAL decoding, zero dependencies: PPM/BMP/PNG
  images and PCM WAV audio via ``functions/codecs.py`` (struct+zlib+wave).
  The default for actual media payloads.
- ``FakeDecodeBackend`` — deterministic arrays derived from the payload
  hash; used for plumbing tests over synthetic (non-media) payloads.
- ``RealDecodeBackend`` — the deploy-time slot for exotic formats
  (JPEG/MP3/video) whose codec libs (Pillow/libsndfile/PyAV) are not in
  this container; raises with the dependency note.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

MEDIA_SCHEMA = pa.schema(
    [
        ("media_ref", pa.string()),
        ("media_type", pa.string()),  # "image" | "audio" | "video"
        ("payload", pa.binary()),
    ]
)


class DecodeBackend:
    def decode_image(self, payload: bytes) -> np.ndarray:  # (H, W, 3) uint8
        raise NotImplementedError

    def decode_audio(self, payload: bytes) -> np.ndarray:  # (samples,) float32
        raise NotImplementedError

    def decode_video(self, payload: bytes):  # ((N, H, W, 3) uint8, fps)
        raise NotImplementedError


class StdlibDecodeBackend(DecodeBackend):
    """Real decoding with stdlib-only codecs: PPM/BMP/PNG images, PCM WAV
    audio (functions/codecs.py).  Format sniffed from magic bytes."""

    def decode_image(self, payload: bytes) -> np.ndarray:
        from ..functions.codecs import sniff_and_decode_image

        return sniff_and_decode_image(payload)

    def decode_audio(self, payload: bytes) -> np.ndarray:
        from ..functions.codecs import sniff_and_decode_audio

        return sniff_and_decode_audio(payload)

    def decode_video(self, payload: bytes):
        from ..functions.avi import decode_avi_mjpeg

        return decode_avi_mjpeg(payload)


class RealDecodeBackend(DecodeBackend):
    """Deploy-time slot for formats beyond the pure-python codecs
    (progressive JPEG/MP3/H.264): Pillow / libsndfile / PyAV are not
    installed in this container.  The stage contract is fixed; swap in at
    deploy time."""

    def decode_image(self, payload: bytes) -> np.ndarray:
        raise NotImplementedError("exotic image codecs not available (install Pillow)")

    def decode_audio(self, payload: bytes) -> np.ndarray:
        raise NotImplementedError("MP3/exotic audio codecs not available (install soundfile)")

    def decode_video(self, payload: bytes):
        raise NotImplementedError("H.264/exotic containers not available (install PyAV)")


class FakeDecodeBackend(DecodeBackend):
    """Deterministic stand-in: array contents and dims derived from the
    payload hash — stable across processes, no codec dependency."""

    def _seed(self, payload: bytes) -> int:
        return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")

    def decode_image(self, payload: bytes) -> np.ndarray:
        s = self._seed(payload)
        h = 16 + (s % 17)
        w = 16 + ((s >> 8) % 17)
        rng = np.random.default_rng(s % (1 << 32))
        return rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)

    def decode_audio(self, payload: bytes) -> np.ndarray:
        s = self._seed(payload)
        n = 1000 + (s % 1000)
        rng = np.random.default_rng(s % (1 << 32))
        return rng.standard_normal(n).astype(np.float32)

    def decode_video(self, payload: bytes):
        s = self._seed(payload)
        n = 4 + (s % 5)
        h = 16 + (s % 9)
        w = 16 + ((s >> 8) % 9)
        rng = np.random.default_rng(s % (1 << 32))
        return rng.integers(0, 256, size=(n, h, w, 3), dtype=np.uint8), 10.0


def synth_media_table(refs: list[str], media_type: str = "image") -> pa.Table:
    """Deterministic fake payloads for tests/benches (payload = ref bytes)."""
    return pa.table(
        {
            "media_ref": pa.array(refs, pa.string()),
            "media_type": pa.array([media_type] * len(refs), pa.string()),
            "payload": pa.array([r.encode() for r in refs], pa.binary()),
        }
    )


class ImageFeatureExtractor:
    """Stage: decode -> resize (mean-pool to target) -> global stats
    features.

    Batch sizing note: payloads are wide rows — callers should pass a small
    batch_size so one batch per worker fits the worker heap."""

    def __init__(self, backend: DecodeBackend | None = None, target: int = 8):
        self.backend = backend or FakeDecodeBackend()
        self.target = target

    def _resize(self, img: np.ndarray) -> np.ndarray:
        """Mean-pool resize to (target, target) — numpy-only kernel.

        GATHER per target cell (each target cell averages its source span),
        not a source->target scatter: scattering leaves target cells with no
        source pixel at 0 whenever the image is SMALLER than the target
        (black stripes in the feature vector)."""
        t = self.target
        h, w, _ = img.shape
        # target cell i covers source rows [i*h//t, max((i+1)*h//t, i*h//t+1))
        rlo = (np.arange(t) * h) // t
        rhi = np.maximum(((np.arange(t) + 1) * h) // t, rlo + 1).clip(max=h)
        rlo = np.minimum(rlo, h - 1)
        clo = (np.arange(t) * w) // t
        chi = np.maximum(((np.arange(t) + 1) * w) // t, clo + 1).clip(max=w)
        clo = np.minimum(clo, w - 1)
        f = img.astype(np.float64)
        # row-integral then column-integral prefix sums for O(1) span means
        ps = np.zeros((h + 1, w + 1, 3), np.float64)
        ps[1:, 1:] = f.cumsum(axis=0).cumsum(axis=1)
        area = ((rhi - rlo)[:, None] * (chi - clo)[None, :]).astype(np.float64)
        tot = (ps[rhi[:, None], chi[None, :]] - ps[rlo[:, None], chi[None, :]]
               - ps[rhi[:, None], clo[None, :]] + ps[rlo[:, None], clo[None, :]])
        return tot / area[:, :, None]

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats, widths, heights, sums = [], [], [], []
        for payload in batch["payload"]:
            img = self.backend.decode_image(payload.as_py())
            heights.append(img.shape[0])
            widths.append(img.shape[1])
            sums.append(int(img.astype(np.int64).sum()))  # exact raw-pixel checksum
            feats.append(self._resize(img).ravel().astype(np.float32))
        return pa.table(
            {
                "media_ref": batch["media_ref"],
                "width": pa.array(widths, pa.int32()),
                "height": pa.array(heights, pa.int32()),
                "pixel_sum": pa.array(sums, pa.int64()),
                "features": pa.array(
                    [f.tolist() for f in feats], pa.list_(pa.float32())
                ),
            }
        )


class AudioFrameSampler:
    """Stage: decode audio -> fixed-rate frame energy samples."""

    def __init__(self, backend: DecodeBackend | None = None, frame: int = 256):
        self.backend = backend or FakeDecodeBackend()
        self.frame = frame

    def __call__(self, batch: pa.Table) -> pa.Table:
        refs, n_frames, energies = [], [], []
        for ref, payload in zip(batch["media_ref"], batch["payload"]):
            wav = self.backend.decode_audio(payload.as_py())
            k = len(wav) // self.frame
            fr = wav[: k * self.frame].reshape(k, self.frame)
            e = (fr**2).mean(axis=1)
            refs.append(ref.as_py())
            n_frames.append(k)
            energies.append(e.astype(np.float32).tolist())
        return pa.table(
            {
                "media_ref": pa.array(refs, pa.string()),
                "n_frames": pa.array(n_frames, pa.int32()),
                "frame_energy": pa.array(energies, pa.list_(pa.float32())),
            }
        )


class AudioEnergy:
    """Stage: decode 16-bit PCM WAV -> integer energy stats over
    the RAW samples (sum of squares, peak amplitude, sample count) — the
    loudness/clipping screen of an audio data pipeline, integer-exact so a
    SQL oracle can replay it from the generator formula."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.codecs import decode_wav_int16

        refs, n_samples, sum_sq, peak = [], [], [], []
        for ref, payload in zip(batch["media_ref"], batch["payload"]):
            v, _rate = decode_wav_int16(payload.as_py())
            v64 = v.astype(np.int64)
            refs.append(ref.as_py())
            n_samples.append(len(v))
            sum_sq.append(int((v64 * v64).sum()))
            peak.append(int(np.abs(v64).max()) if len(v) else 0)
        return pa.table({
            "media_ref": pa.array(refs, pa.string()),
            "n_samples": pa.array(n_samples, pa.int64()),
            "sum_sq": pa.array(sum_sq, pa.int64()),
            "peak": pa.array(peak, pa.int64()),
        })


def _map_stage(ds, stage, batch_size):
    """Run a stage in plain tasks.  The stdlib decode backends are PURE
    derived state — nothing to hold open — so the stage ships in the task
    closure and no per-worker cache is needed."""
    return ds.map_batches(lambda b: stage(b), batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=batch_size)


def audio_energy(ds, *, batch_size=256):
    return _map_stage(ds, AudioEnergy(), batch_size)


class VideoFrameSampler:
    """Stage: decode video -> sample every ``stride``-th frame ->
    per-sampled-frame mean intensity + dims.  Video rows are the WIDEST
    media payloads — callers should size batch_size small (default pipeline
    uses 16) so one batch per worker fits the worker heap."""

    def __init__(self, backend: DecodeBackend | None = None, stride: int = 2):
        self.backend = backend or StdlibDecodeBackend()
        self.stride = stride

    def __call__(self, batch: pa.Table) -> pa.Table:
        refs, n_frames, n_sampled, widths, heights, fpss, means = [], [], [], [], [], [], []
        for ref, payload in zip(batch["media_ref"], batch["payload"]):
            frames, fps = self.backend.decode_video(payload.as_py())
            sampled = frames[:: self.stride]
            refs.append(ref.as_py())
            n_frames.append(frames.shape[0])
            n_sampled.append(sampled.shape[0])
            heights.append(frames.shape[1])
            widths.append(frames.shape[2])
            fpss.append(float(fps))
            means.append(sampled.mean(axis=(1, 2, 3)).astype(np.float32).tolist())
        return pa.table(
            {
                "media_ref": pa.array(refs, pa.string()),
                "n_frames": pa.array(n_frames, pa.int32()),
                "n_sampled": pa.array(n_sampled, pa.int32()),
                "width": pa.array(widths, pa.int32()),
                "height": pa.array(heights, pa.int32()),
                "fps": pa.array(fpss, pa.float64()),
                "frame_mean": pa.array(means, pa.list_(pa.float32())),
            }
        )


def sample_video_frames(ds, *, backend: DecodeBackend | None = None, stride: int = 2,
                        batch_size=16):
    """Video frame-sample pipeline stage (REAL MJPEG-AVI decode by default)."""
    return _map_stage(ds, VideoFrameSampler(backend=backend or StdlibDecodeBackend(),
                                            stride=stride), batch_size)


def extract_image_features(ds, *, backend: DecodeBackend | None = None, batch_size=256):
    """Feature-extraction pipeline stage: small batches (wide binary rows).
    Default backend = the real stdlib codecs (PPM/BMP/PNG); pass
    FakeDecodeBackend() for synthetic payloads or RealDecodeBackend() at
    deploy time for exotic formats."""
    return _map_stage(ds, ImageFeatureExtractor(backend=backend or StdlibDecodeBackend()),
                      batch_size)


def sample_audio_frames(ds, *, backend: DecodeBackend | None = None, batch_size=256):
    return _map_stage(ds, AudioFrameSampler(backend=backend or StdlibDecodeBackend()),
                      batch_size)
