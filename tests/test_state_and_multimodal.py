"""Per-worker spatial indexes, checkpoint/resume, multimodal stages."""

import numpy as np
import pyarrow as pa
import pytest

from geotrellis_contrib_ray.core import geom as geommod
from geotrellis_contrib_ray.state.checkpoint import (
    CheckpointManifest,
    read_all_partitions,
    run_partitioned,
)
from geotrellis_contrib_ray.state.spatial_index import (
    GridPointIndex,
    GridPolygonIndex,
    pip_join_indexed,
)


def _rand_points(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-80.0, -75.0, n), rng.uniform(39.5, 42.5, n)


def test_polygon_index_matches_bruteforce():
    rng = np.random.default_rng(7)
    polys = []
    for i in range(25):
        cx, cy = rng.uniform(-80, -75), rng.uniform(39.5, 42.5)
        polys.append((f"z{i}", geommod.box(cx - 0.3, cy - 0.3, cx + 0.3, cy + 0.3).exterior))
    idx = GridPolygonIndex(polys)
    px, py = _rand_points(5000, 1)
    pt, pid = idx.query_points(px, py)
    got = set(zip(pt.tolist(), pid.tolist()))
    expected = set()
    for j, (_, ring) in enumerate(polys):
        inside = geommod.points_in_ring(px, py, ring)
        for i in np.nonzero(inside)[0]:
            expected.add((int(i), j))
    assert got == expected


def test_point_index_knn_matches_bruteforce():
    px, py = _rand_points(20000, 3)
    ids = np.arange(20000)
    idx = GridPointIndex(ids, px, py)
    for qx, qy in [(-77.5, 40.5), (-80.0, 39.5), (-75.01, 42.49)]:
        got_ids, got_d = idx.nearest_k(qx, qy, 10)
        d = np.sqrt((px - qx) ** 2 + (py - qy) ** 2)
        order = np.lexsort((ids, d))[:10]
        assert got_ids.tolist() == ids[order].tolist()
        assert np.allclose(got_d, d[order])


def test_point_index_ring_termination_adversarial():
    """Regression: the old 'one extra ring' stop rule returned a wrong
    neighbor when the true nearest sat two+ rings beyond the first candidate
    (kth-best ~ sqrt(2)*(r+1)*cell vs ring r+2 starting at (r+1)*cell)."""
    # 20x20 unit cells; query near cell (10,10)'s far corner.  A is found at
    # ring 3 (dist 4.243); the true nearest B is in ring 5 (dist 4.10).
    xs = np.array([0.0, 20.0, 13.95, 15.05])
    ys = np.array([0.0, 20.0, 13.95, 10.95])
    ids = np.array([0, 1, 2, 3])
    idx = GridPointIndex(ids, xs, ys, nx=20, ny=20)
    got_ids, got_d = idx.nearest_k(10.95, 10.95, 1)
    assert got_ids.tolist() == [3]
    assert np.isclose(got_d[0], np.sqrt((15.05 - 10.95) ** 2))


def test_point_index_knn_random_stress():
    """nearest_k == brute force on random clustered data, many queries."""
    rng = np.random.default_rng(11)
    # clustered (non-uniform) so some rings are empty and others dense
    centers = rng.uniform(0, 100, (20, 2))
    pts = (centers[rng.integers(0, 20, 5000)] + rng.normal(0, 2.0, (5000, 2)))
    ids = np.arange(5000)
    idx = GridPointIndex(ids, pts[:, 0], pts[:, 1], nx=64, ny=64)
    for _ in range(50):
        qx, qy = rng.uniform(-5, 105, 2)
        got_ids, got_d = idx.nearest_k(qx, qy, 7)
        d = np.sqrt((pts[:, 0] - qx) ** 2 + (pts[:, 1] - qy) ** 2)
        order = np.lexsort((ids, d))[:7]
        assert got_ids.tolist() == ids[order].tolist(), (qx, qy)


def test_embedding_matrix_sliced_and_ragged():
    """Regression: _embedding_matrix must honor list-array slice offsets and
    reject ragged rows instead of silently misaligning vectors."""
    from geotrellis_contrib_ray.stages.ann import _embedding_matrix

    arr = pa.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    sliced = arr.slice(1, 2)
    m = _embedding_matrix(sliced)
    assert m.tolist() == [[3.0, 4.0], [5.0, 6.0]]
    ragged = pa.array([[1.0, 2.0], [3.0]])
    with pytest.raises(ValueError):
        _embedding_matrix(ragged)
    withnull = pa.array([[1.0, 2.0], None], type=pa.list_(pa.float64()))
    with pytest.raises(ValueError):
        _embedding_matrix(withnull)
    fixed = pa.FixedSizeListArray.from_arrays(pa.array([1.0, 2.0, 3.0, 4.0]), 2)
    assert _embedding_matrix(fixed).tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_pip_join_indexed_matches_broadcast(ray_session):
    import ray.data as rd

    from geotrellis_contrib_ray.pipelines.query_defs import ZONE_BOXES
    from geotrellis_contrib_ray.stages import spatial

    px, py = _rand_points(20000, 5)
    ds = rd.from_arrow(pa.table({"doc_id": np.arange(20000), "lon": px, "lat": py}))
    polys = [(n, geommod.box(x0, y0, x1, y1).exterior) for n, x0, y0, x1, y1 in ZONE_BOXES]
    got = (
        pip_join_indexed(ds, polys)
        .to_pandas()
        .sort_values(["doc_id", "zone_name"])
        .reset_index(drop=True)
    )
    exp = (
        spatial.pip_join(ds, ZONE_BOXES)
        .to_pandas()
        .sort_values(["doc_id", "zone_name"])
        .reset_index(drop=True)
    )
    # indexed path uses open-interval ray casting vs closed BETWEEN — random
    # points never sit exactly on edges, so results must coincide
    assert got[["doc_id", "zone_name"]].equals(exp[["doc_id", "zone_name"]])


def test_checkpoint_resume(tmp_path):
    calls = []

    def make(p):
        calls.append(p)
        if p == "p2" and len([c for c in calls if c == "p2"]) == 1:
            raise RuntimeError("simulated crash")
        return pa.table({"x": [int(p[1])] * 3})

    parts = ["p0", "p1", "p2", "p3"]
    root = str(tmp_path / "ckpt")
    with pytest.raises(RuntimeError):
        run_partitioned(parts, make, root)
    m = CheckpointManifest(root)
    assert set(m.completed()) == {"p0", "p1"}
    # resume: p0/p1 skipped, p2 retried, p3 runs
    ran, skipped = run_partitioned(parts, make, root)
    assert ran == ["p2", "p3"] and skipped == ["p0", "p1"]
    out = read_all_partitions(root)
    assert out.num_rows == 12
    # idempotent rerun: everything skipped
    ran2, skipped2 = run_partitioned(parts, make, root)
    assert ran2 == [] and set(skipped2) == set(parts)


def test_multimodal_image_features(ray_session):
    import ray.data as rd

    from geotrellis_contrib_ray.stages.multimodal import (
        FakeDecodeBackend,
        extract_image_features,
        synth_media_table,
    )

    # synthetic (non-media) payloads: the deterministic Fake backend tests
    # the plumbing; real formats go through StdlibDecodeBackend (test_codecs)
    t = synth_media_table([f"media://b/{i}" for i in range(50)])
    out = extract_image_features(rd.from_arrow(t), backend=FakeDecodeBackend()).to_pandas()
    assert len(out) == 50
    assert set(out.columns) == {"media_ref", "width", "height", "pixel_sum", "features"}
    assert all(len(f) == 8 * 8 * 3 for f in out["features"])
    # deterministic across runs
    out2 = extract_image_features(rd.from_arrow(t), backend=FakeDecodeBackend()).to_pandas()
    a = out.sort_values("media_ref").reset_index(drop=True)
    b = out2.sort_values("media_ref").reset_index(drop=True)
    assert (a["width"] == b["width"]).all()
    assert all(np.allclose(x, y) for x, y in zip(a["features"], b["features"]))


def test_multimodal_audio_frames(ray_session):
    import ray.data as rd

    from geotrellis_contrib_ray.stages.multimodal import (
        FakeDecodeBackend,
        sample_audio_frames,
        synth_media_table,
    )

    t = synth_media_table([f"media://a/{i}" for i in range(20)], media_type="audio")
    out = sample_audio_frames(rd.from_arrow(t), backend=FakeDecodeBackend()).to_pandas()
    assert len(out) == 20
    assert (out["n_frames"] > 0).all()
    assert all(len(e) == n for e, n in zip(out["frame_energy"], out["n_frames"]))


def test_real_backend_raises():
    from geotrellis_contrib_ray.stages.multimodal import RealDecodeBackend

    with pytest.raises(NotImplementedError):
        RealDecodeBackend().decode_image(b"x")


def test_manifest_torn_line_resume(tmp_path):
    """A crash mid-append leaves a torn JSONL tail: completed() must skip it
    (partition re-runs) and the next record() must not fuse onto it."""
    from geotrellis_contrib_ray.state.checkpoint import CheckpointManifest

    m = CheckpointManifest(str(tmp_path))
    m.record("p0", rows=5)
    with open(m.path, "a") as f:
        f.write('{"partition": "p1", "rows"')  # torn: no close, no newline
    done = m.completed()
    assert set(done) == {"p0"}
    m.record("p2", rows=7)
    done = m.completed()
    assert set(done) == {"p0", "p2"}
    assert done["p2"]["rows"] == 7


def test_pending_honors_fingerprint(tmp_path):
    from geotrellis_contrib_ray.state.checkpoint import CheckpointManifest

    m = CheckpointManifest(str(tmp_path))
    m.record("a", rows=1, fingerprint="f1")
    m.record("b", rows=1, fingerprint="f2")
    fps = {"a": "f1", "b": "CHANGED"}
    assert m.pending(["a", "b", "c"], fingerprint_fn=fps.get) == ["b", "c"]
    # without a fingerprint_fn, name-only anti-join (old behavior)
    assert m.pending(["a", "b", "c"]) == ["c"]


def test_read_all_partitions_ignores_stale_files(tmp_path):
    import pyarrow as pa

    from geotrellis_contrib_ray.state.checkpoint import (
        CheckpointManifest,
        read_all_partitions,
        write_partition_atomic,
    )

    root = str(tmp_path)
    m = CheckpointManifest(root)
    t = pa.table({"x": pa.array([1, 2], pa.int64())})
    write_partition_atomic(t, root, "a")
    m.record("a", rows=2)
    # stale file from a previous plan: present on disk, absent from manifest
    write_partition_atomic(pa.table({"x": pa.array([9], pa.int64())}), root, "zombie")
    out = read_all_partitions(root)
    assert out.num_rows == 2
    out = read_all_partitions(root, partitions=["a", "other"])
    assert out.num_rows == 2


def test_sliding_windows_non_multiple_hop(ray_session):
    """size % hop != 0: every window w with w <= t < w+size gets the event
    (floor-k dropped each window's oldest hop); hop > size stays correct."""
    import numpy as np
    import ray.data as rd

    from geotrellis_contrib_ray.stages.windows import sliding_window_agg

    t = pa.table({
        "ts": pa.array(np.array([0, 2500], dtype="datetime64[s]").astype("datetime64[us]")),
        "value": pa.array([1.0, 1.0]),
        "event_type": pa.array(["a", "a"], pa.string()),
    })
    out = sliding_window_agg(rd.from_arrow(t), size_sec=3600, hop_sec=1000).to_pandas()
    got = dict(zip(out["window_start"], out["n_events"]))
    # truth: event at t belongs to windows w ≡ 0 (mod 1000), t-3600 < w <= t
    want = {}
    for tv in (0, 2500):
        for w in range(-3000, 3001, 1000):
            if w <= tv < w + 3600:
                want[w] = want.get(w, 0) + 1
    assert got == want
