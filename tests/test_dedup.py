"""Dedup-family planted-duplicates fixtures: exact groups, MinHash/SimHash/
n-gram-Jaccard candidate recall, embedding-cosine near-dup recall.

The planted pairs are REAL near-duplicates (small edits / tiny vector noise),
so banded LSH must recall them with high probability at fixed seeds; the
sketch parameters are the library defaults."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from geotrellis_contrib_ray.stages import dedup


def _mk_texts(n_base=60, seed=3):
    """Base texts + a near-dup variant for every 3rd one (one word changed)."""
    rng = np.random.default_rng(seed)
    words = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
             "hotel", "india", "juliet", "kilo", "lima", "mike", "november"]
    texts, planted = [], []
    for i in range(n_base):
        ws = [words[j] for j in rng.integers(0, len(words), 30)]
        texts.append(" ".join(ws))
        if i % 3 == 0:
            dup = list(ws)
            dup[15] = "changed"
            planted.append((len(texts) - 1, len(texts)))
            texts.append(" ".join(dup))
    ids = np.arange(len(texts), dtype=np.int64)
    return pa.table({"doc_id": ids, "text": pa.array(texts, pa.string())}), planted


def test_exact_dedup_groups_fingerprint_keyed(ray_session):
    import ray.data as rd

    texts = ["aaa", "bbb", "aaa", "ccc", "bbb", "aaa", ""]
    t = pa.table({"doc_id": np.arange(7, dtype=np.int64), "text": pa.array(texts, pa.string())})
    out = (
        dedup.exact_dedup_groups(rd.from_arrow(t))
        .to_pandas()
        .sort_values("text")
        .reset_index(drop=True)
    )
    exp = (
        t.to_pandas()
        .groupby("text", as_index=False)
        .agg(first_doc=("doc_id", "min"), n_copies=("doc_id", "count"))
        .sort_values("text")
        .reset_index(drop=True)
    )
    assert out["text"].tolist() == exp["text"].tolist()
    assert out["first_doc"].astype(np.int64).tolist() == exp["first_doc"].tolist()
    assert out["n_copies"].astype(np.int64).tolist() == exp["n_copies"].tolist()


def test_minhash_planted_recall(ray_session):
    import ray.data as rd

    t, planted = _mk_texts()
    pairs = dedup.minhash_candidate_pairs(rd.from_arrow(t)).to_pandas()
    got = set(zip(pairs["id1"].astype(int), pairs["id2"].astype(int)))
    hit = sum(1 for p in planted if p in got)
    # one-word-changed 30-word docs have Jaccard ~0.9; 16 bands x 4 rows
    # recall them essentially always
    assert hit / len(planted) >= 0.9, (hit, len(planted))


def test_ngram_jaccard_pairs_dataflow(ray_session):
    """The shuffle-join text re-attach must produce exact Jaccard values
    matching a driver-side python oracle (no broadcast corpus dict)."""
    import ray.data as rd

    t, planted = _mk_texts(n_base=30)
    out = dedup.ngram_jaccard_pairs(rd.from_arrow(t), threshold=0.5).to_pandas()
    texts = t["text"].to_pylist()

    def jac(a, b, k=5):
        sa = {a[i: i + k] for i in range(max(0, len(a) - k + 1))}
        sb = {b[i: i + k] for i in range(max(0, len(b) - k + 1))}
        return len(sa & sb) / max(1, len(sa | sb))

    got = {(int(r.id1), int(r.id2)): r.jaccard for r in out.itertuples()}
    hit = sum(1 for p in planted if p in got)
    assert hit / len(planted) >= 0.9, (hit, len(planted))
    for (i, j), v in got.items():
        assert np.isclose(v, jac(texts[i], texts[j])), (i, j)
        assert v >= 0.5


def test_simhash_planted_recall(ray_session):
    import ray.data as rd

    t, planted = _mk_texts()
    # bands=17 (3-bit chunks): banding completeness for hamming <= 16
    pairs = dedup.simhash_candidate_pairs(rd.from_arrow(t), max_hamming=16,
                                          bands=17).to_pandas()
    got = set(zip(pairs["id1"].astype(int), pairs["id2"].astype(int)))
    hit = sum(1 for p in planted if p in got)
    assert hit / len(planted) >= 0.7, (hit, len(planted))


def _check_embedding_neardup_recall(dim: int):
    import ray.data as rd

    rng = np.random.default_rng(9)
    base = rng.standard_normal((80, dim))
    vecs, planted = [], []
    for i in range(80):
        vecs.append(base[i])
        if i % 4 == 0:
            vecs.append(base[i] + rng.normal(0, 0.01, dim))  # cosine ~0.9999
            planted.append((len(vecs) - 2, len(vecs) - 1))
    vecs = np.asarray(vecs)
    t = pa.table(
        {
            "vec_id": np.arange(len(vecs), dtype=np.int64),
            "embedding": pa.array(list(vecs.astype(np.float64))),
        }
    )
    out = dedup.embedding_neardup_pairs(rd.from_arrow(t), threshold=0.99).to_pandas()
    got = set(zip(out["id1"].astype(int), out["id2"].astype(int)))
    hit = sum(1 for p in planted if p in got)
    assert hit / len(planted) >= 0.9, (hit, len(planted))
    # no false accepts below the exact-cosine threshold
    norm = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    for i, j in got:
        assert float(norm[i] @ norm[j]) >= 0.99


def test_embedding_neardup_planted_recall(ray_session):
    _check_embedding_neardup_recall(16)


def test_embedding_neardup_two_dims_one_session(ray_session):
    """The per-worker sketcher sizes its planes from the data: a second run
    at another embedding dimension in the same Ray session (same worker
    processes) must build fresh planes, not reuse the first run's."""
    _check_embedding_neardup_recall(24)
    _check_embedding_neardup_recall(16)


def test_embedding_neardup_ops_key_on_id_col(ray_session):
    """Both embedding near-dup ops key their rows on ``id_col``: over a
    table whose ids sit in ``id`` (no ``vec_id`` column) they return the
    pairs of the same table with the column named ``vec_id``."""
    import ray.data as rd

    rng = np.random.default_rng(4)
    base = rng.standard_normal((30, 8))
    vecs = np.concatenate([base, base[:10] + rng.normal(0, 0.01, (10, 8))])
    t = pa.table({"vec_id": np.arange(100, 100 + len(vecs), dtype=np.int64),
                  "embedding": pa.array(list(vecs))})
    renamed = t.rename_columns(["id", "embedding"])

    def pairs(op, table, **kw):
        df = op(rd.from_arrow(table), **kw).to_pandas()
        return df.sort_values(["id1", "id2"]).reset_index(drop=True)

    for op in (dedup.embedding_neardup_pairs, dedup.embedding_neardup_pairs_exact):
        want = pairs(op, t)
        assert len(want) >= 10
        assert pairs(op, renamed, id_col="id").equals(want)


def test_simhash_auto_shards_removes_its_spill(ray_session):
    """The occupancy census of n_shards='auto' spills signatures to a fresh
    /tmp/simhash_sig_* directory when given no spill_dir; once the pairs
    are consumed and dropped, the directory is gone, and so is the one of
    a census whose spill write fails."""
    import gc
    import glob

    import ray.data as rd

    t, _planted = _mk_texts()
    n_dirs = lambda: len(glob.glob("/tmp/simhash_sig_*"))  # noqa: E731
    before = n_dirs()
    out = dedup.simhash_candidate_pairs(rd.from_arrow(t), n_shards="auto")
    assert n_dirs() == before + 1
    assert len(out.to_pandas()) > 0
    del out
    gc.collect()
    assert n_dirs() == before
    no_valid = rd.from_arrow(pa.table({"doc_id": np.arange(5), "simhash": np.arange(5)}))
    with pytest.raises(Exception):
        dedup._simhash_occupancy_shards(no_valid, 4, 16, np.uint64(0xFFFF), 2048, None)
    gc.collect()
    assert n_dirs() == before


def test_exact_dedup_keep_first_vectorized(ray_session):
    import ray.data as rd

    texts = ["aaa", "bbb", "aaa", "ccc", "bbb", "aaa"]
    t = pa.table({"doc_id": np.arange(6, dtype=np.int64), "text": pa.array(texts, pa.string())})
    out = (
        dedup.exact_dedup_keep_first(rd.from_arrow(t))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out["doc_id"].tolist() == [0, 1, 3]  # min id per distinct text
    assert out["text"].tolist() == ["aaa", "bbb", "ccc"]


def test_jaccard_similarity_join_exact(ray_session):
    """jaccard_similarity_join is EXACT: matches all-pairs brute force."""
    import ray.data as rd

    t, _planted = _mk_texts(n_base=30)
    texts = t["text"].to_pylist()
    k, thr = 5, 0.5

    def shingles(s):
        return {s[i : i + k] for i in range(max(0, len(s) - k + 1))}

    sets = [shingles(s) for s in texts]
    expected = {}
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            inter = len(sets[i] & sets[j])
            union = len(sets[i] | sets[j])
            if union and inter / union >= thr:
                expected[(i, j)] = (inter, union)

    out = (
        dedup.jaccard_similarity_join(rd.from_arrow(t), shingle_k=k, threshold=thr)
        .to_pandas()
        .sort_values(["id1", "id2"])
        .reset_index(drop=True)
    )
    got = {
        (int(r.id1), int(r.id2)): (int(r.n_shared), int(r.n_union))
        for r in out.itertuples()
    }
    assert got == expected
    assert len(expected) > 0  # the planted near-dups must actually qualify
    for r in out.itertuples():
        assert r.jaccard == r.n_shared / r.n_union


def test_jaccard_prefix_pairs_identical_to_inverted_index(ray_session):
    """PPJoin prefix filtering is EXACT: identical output to the
    inverted-index path on the planted-duplicates fixture."""
    import pandas as pd
    import ray.data as rd

    t, _planted = _mk_texts(n_base=30)
    ds = rd.from_arrow(t)
    a = dedup.jaccard_similarity_join(ds, shingle_k=5, threshold=0.5).to_pandas()
    b = dedup.jaccard_prefix_pairs(ds, shingle_k=5, threshold=0.5).to_pandas()

    def norm(df):
        cols = ["id1", "id2", "n_shared", "n_union", "jaccard"]
        return df[cols].sort_values(["id1", "id2"]).reset_index(drop=True)

    assert len(a) > 0
    pd.testing.assert_frame_equal(norm(a), norm(b))


def test_jaccard_prefix_pairs_bucketed_df_tier(ray_session):
    """The distributed df-attach tier (bucketed join on tok, no driver pull)
    must be byte-identical to the broadcast tier — ``driver_df_limit=0``
    forces it (the auto-selection path at corpus scale)."""
    import pandas as pd
    import ray.data as rd

    t, _planted = _mk_texts(n_base=30)
    ds = rd.from_arrow(t)
    a = dedup.jaccard_prefix_pairs(ds, shingle_k=5, threshold=0.5).to_pandas()
    b = dedup.jaccard_prefix_pairs(ds, shingle_k=5, threshold=0.5,
                                   driver_df_limit=0).to_pandas()

    def norm(df):
        cols = ["id1", "id2", "n_shared", "n_union", "jaccard"]
        return df[cols].sort_values(["id1", "id2"]).reset_index(drop=True)

    assert len(a) > 0
    pd.testing.assert_frame_equal(norm(a), norm(b))


def test_contamination_check_planted(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from geotrellis_contrib_ray.stages.dedup import contamination_check

    bench_texts = ["the quick brown fox jumps", "pack my box with five dozen"]
    corpus_texts = [
        "the quick brown fox jumps",          # full copy -> 100% overlap
        "xxxxx the quick brown yyyyy",        # partial leak
        "completely different words here",    # clean
        "tiny",                               # shorter than k=8 -> no row
    ]
    bench = rd.from_arrow(pa.table({
        "doc_id": pa.array([100, 101], pa.int64()),
        "text": pa.array(bench_texts, pa.string()),
    }))
    corpus = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array(corpus_texts, pa.string()),
    }))
    out = (
        contamination_check(corpus, bench, shingle_k=8)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )

    def grams(s, k=8):
        return {s[i:i + k] for i in range(len(s) - k + 1)}

    bset = set().union(*(grams(t) for t in bench_texts))
    exp = []
    for i, t in enumerate(corpus_texts):
        g = grams(t)
        if g:
            exp.append((i, len(g), len(g & bset)))
    got = list(out[["doc_id", "n_grams", "n_hits"]].itertuples(index=False, name=None))
    assert got == exp
    assert got[0][1] == got[0][2] > 0        # full copy: all grams hit
    assert got[2][2] == 0                    # clean doc: zero hits
    assert len(out) == 3                     # 'tiny' has no 8-gram row


def test_exact_dedup_refuses_fingerprint_collision(ray_session, monkeypatch):
    # force every text into ONE primary-fingerprint group; the second
    # independent hash family must detect the distinct texts and refuse
    import pyarrow as pa
    import ray

    import geotrellis_contrib_ray.stages.dedup as dedup_mod

    def fake_fingerprint(batch):
        return batch.append_column(
            "fingerprint", pa.array([7] * len(batch), pa.int64()))

    monkeypatch.setattr(dedup_mod, "add_fingerprint", fake_fingerprint,
                        raising=False)
    # the function imports add_fingerprint from .text inside its body
    import geotrellis_contrib_ray.stages.text as text_mod
    monkeypatch.setattr(text_mod, "add_fingerprint", fake_fingerprint)

    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["alpha", "omega"], pa.string()),
    }))
    try:
        dedup_mod.exact_dedup_groups(ds).take_all()
        raise AssertionError("expected fingerprint-collision ValueError")
    except Exception as e:  # Ray wraps the worker ValueError
        assert "fingerprint collision" in str(e)


def test_substring_match_pairs_planted(ray_session):
    """Planted exact substrings: only pairs sharing a full aligned window on
    the stride grid are reported, with the correct distinct-window count."""
    import ray.data as rd

    from geotrellis_contrib_ray.stages.dedup import substring_match_pairs

    shared = "X" * 16 + "Y" * 16  # one 32-char block, repeated below
    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array([
            shared * 3 + "tail one",        # windows at 0,16,32,48,64: block offsets align
            shared * 3 + "other suffix",    # same aligned windows as doc 1
            "z" * 7 + shared,               # shared text NOT on the stride grid of doc 1/2
            "unrelated " * 10,
        ], pa.string()),
    })
    out = substring_match_pairs(rd.from_arrow(t), win=32, stride=16).to_pandas()
    out = out.sort_values(["id1", "id2"]).reset_index(drop=True)
    # docs 1-2: identical first 96 chars -> shared aligned windows; doc 3's
    # copy starts at offset 7 (off-grid), so it matches nobody; doc 4 never
    assert out["id1"].tolist() == [1]
    assert out["id2"].tolist() == [2]
    # distinct windows over the 96 identical chars at stride 16, win 32:
    # offsets 0..64 -> 5 windows, but only DISTINCT g count: offsets 0,32
    # give XXYY-XXYY pattern repeats -> compute directly
    texts = t["text"].to_pylist()
    ws = {texts[0][o:o + 32] for o in range(0, len(texts[0]) - 31, 16)}
    ws2 = {texts[1][o:o + 32] for o in range(0, len(texts[1]) - 31, 16)}
    assert out["n_grams"].tolist() == [len(ws & ws2)]


def test_substring_windows_null_and_empty_rows():
    """Null / empty / short texts emit zero windows (a null once wrapped the
    fast path's window count to ~5.8e17 via INT64_MIN — regression guard)."""
    from geotrellis_contrib_ray.stages.dedup import _substring_windows

    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array(["abcdefgh" * 8, None, "", "tiny"], pa.string()),
    })
    out = _substring_windows(t, win=32, stride=16)
    assert set(out["doc_id"].to_pylist()) == {1}


def test_embedding_neardup_exact_planted(ray_session):
    """The exact-integer near-dup variant must find planted duplicates and
    agree with a brute-force quantized-cosine check."""
    import ray.data as rd

    from geotrellis_contrib_ray.stages.dedup import (
        embedding_neardup_pairs_exact,
        quantize_embeddings,
    )

    rng = np.random.default_rng(9)
    base = rng.standard_normal((60, 16)) * 0.3
    # plant near-dups: rows 50..59 are tiny perturbations of rows 0..9
    base[50:60] = base[0:10] + rng.standard_normal((10, 16)) * 1e-3
    t = pa.table({
        "vec_id": pa.array(np.arange(60, dtype=np.int64)),
        "embedding": pa.array([row.astype(np.float32) for row in base]),
    })
    got = embedding_neardup_pairs_exact(
        rd.from_arrow(t), threshold_num=81, threshold_den=100,  # cos >= 0.9
        n_planes=4, n_bands=8,
    ).to_pandas()
    pairs = set(zip(got["id1"], got["id2"]))
    planted = {(i, i + 50) for i in range(10)}
    # multi-band LSH at 4 planes x 8 bands: planted near-identical pairs
    # collide with overwhelming probability
    assert planted <= pairs, planted - pairs
    # verify every reported pair against the exact quantized criterion
    q = quantize_embeddings(base.astype(np.float32).astype(np.float64))
    for i1, i2, dq, d1, d2 in got.itertuples(index=False):
        assert int(q[i1] @ q[i2]) == dq
        assert int(q[i1] @ q[i1]) == d1 and int(q[i2] @ q[i2]) == d2
        assert dq > 0 and int(dq) ** 2 * 100 >= 81 * int(d1) * int(d2)


def test_paragraph_dedup_planted(ray_session):
    """Cross-document chunk dedup: first occurrence wins, docs reassemble in
    order, fully-duplicated docs vanish, null texts are skipped."""
    import ray.data as rd

    texts = [
        "a b c d e f g h i j k l m n o p q r s t",   # 2 chunks of 10
        "a b c d e f g h i j X Y Z",                 # chunk0 dups doc0 chunk0
        "unique words only here",
        "k l m n o p q r s t",                       # dups doc0 chunk1 entirely
        None,
        "",                                          # first '' chunk survives
    ]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    out = (dedup.paragraph_dedup(rd.from_arrow(t), k_tokens=10)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    got = {int(r.doc_id): (r.clean_text, int(r.n_kept), int(r.n_total))
           for r in out.itertuples()}
    assert got[0] == ("a b c d e f g h i j k l m n o p q r s t", 2, 2)
    assert got[1] == ("X Y Z", 1, 2)
    assert got[2] == ("unique words only here", 1, 1)
    assert 3 not in got     # every chunk was a duplicate
    assert 4 not in got     # null text excluded
    assert got[5] == ("", 1, 1)


def test_paragraph_dup_ratio_planted(ray_session):
    """dup_ratio counts exactly the chunks paragraph_dedup would drop; the
    drop_above gate filters high-duplication docs."""
    import ray.data as rd

    texts = [
        "a b c d e f g h i j k l m n o p q r s t",   # 0 dup chunks / 2
        "a b c d e f g h i j X Y Z",                 # 1 dup / 2
        "k l m n o p q r s t",                       # 1 dup / 1
        "fresh words entirely",                      # 0 / 1
    ]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    out = (dedup.paragraph_dup_ratio(rd.from_arrow(t), k_tokens=10)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    got = {int(r.doc_id): (int(r.n_chunks), int(r.n_dup_chunks), r.dup_ratio)
           for r in out.itertuples()}
    assert got[0] == (2, 0, 0.0)
    assert got[1] == (2, 1, 0.5)
    assert got[2] == (1, 1, 1.0)
    assert got[3] == (1, 0, 0.0)
    kept = (dedup.paragraph_dup_ratio(rd.from_arrow(t), k_tokens=10,
                                      drop_above=0.5).to_pandas())
    assert sorted(kept["doc_id"].astype(int)) == [0, 1, 3]


def test_paragraph_dedup_random_corpora_match_python_oracle(ray_session):
    """Randomized (seed-fixed) corpora with heavy chunk sharing: the
    distributed plan must match a straightforward python oracle exactly,
    including reassembled clean_text."""
    import ray.data as rd

    rng = np.random.default_rng(11)
    words = [f"w{i}" for i in range(12)]
    for trial in range(3):
        texts = []
        for _ in range(40):
            n = int(rng.integers(0, 35))
            texts.append(" ".join(words[j] for j in rng.integers(0, len(words), n)))
        k = int(rng.integers(2, 6))
        t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                      "text": pa.array(texts, pa.string())})
        out = (dedup.paragraph_dedup(rd.from_arrow(t), k_tokens=k)
               .to_pandas().sort_values("doc_id").reset_index(drop=True))

        seen: dict[str, tuple] = {}
        chunks_by_doc = {}
        for d, s in enumerate(texts):
            toks = s.split(" ")
            cs = [" ".join(toks[i * k:(i + 1) * k])
                  for i in range(-(-len(toks) // k))] or [""]
            chunks_by_doc[d] = cs
            for i, c in enumerate(cs):
                seen.setdefault(c, (d, i))
        exp = []
        for d, cs in chunks_by_doc.items():
            kept = [c for i, c in enumerate(cs) if seen[c] == (d, i)]
            if kept:
                exp.append((d, " ".join(kept), len(kept), len(cs)))
        got = [(int(r.doc_id), r.clean_text, int(r.n_kept), int(r.n_total))
               for r in out.itertuples()]
        assert sorted(got) == sorted(exp), f"trial {trial} k={k}"


def test_incremental_dedup_keep_first_planted(ray_session):
    """Delta rows drop when their text exists in the existing corpus; within
    the delta the min-id copy wins; one 32-byte/row shuffle (ids only out)."""
    import ray.data as rd

    existing = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array(["old one", "old two", "shared text"], pa.string()),
    })
    delta = pa.table({
        "doc_id": pa.array([10, 11, 12, 13, 14], pa.int64()),
        "text": pa.array(["shared text",     # dup of existing -> drop
                          "fresh a",
                          "fresh b",
                          "fresh a",         # delta-internal dup -> drop
                          "old two"], pa.string()),  # dup of existing -> drop
    })
    out = dedup.incremental_dedup_keep_first(
        rd.from_arrow(existing), rd.from_arrow(delta)).to_pandas()
    assert sorted(out["doc_id"].astype(int)) == [11, 12]


def test_incremental_dedup_null_text_semantics(ray_session):
    """NULL texts are dropped on BOTH sides (r5 ADVICE fix): hash_utf8_array
    maps NULL and '' to the same FNV basis, so without the is_valid filter a
    NULL-text delta row would merge with empty-string rows while the SQL
    twin's text-equality predicates drop NULL rows outright."""
    import ray.data as rd

    existing = pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": pa.array([None, "keep me"], pa.string()),
    })
    delta = pa.table({
        "doc_id": pa.array([10, 11, 12, 13], pa.int64()),
        "text": pa.array([None,        # NULL -> dropped (not matched vs '')
                          "",          # empty string: real text, fresh -> kept
                          None,        # NULL -> dropped (not a dup of 10)
                          "keep me"],  # dup of existing -> dropped
                         pa.string()),
    })
    out = dedup.incremental_dedup_keep_first(
        rd.from_arrow(existing), rd.from_arrow(delta)).to_pandas()
    # '' survives even though existing has a NULL (NULL != '' per SQL), and
    # neither NULL delta row is emitted
    assert sorted(out["doc_id"].astype(int)) == [11]


def test_simhash_auto_shards_hot_bucket(ray_session, tmp_path):
    """Adversarial hot bucket: many docs share one signature chunk. The
    occupancy-adaptive tier (n_shards='auto') must (a) measure the hot
    occupancy, (b) raise the shard count so per-task run length stays under
    target_run, and (c) return the exact same pair set as the fixed tier /
    brute force."""
    import ray.data as rd

    rng = np.random.default_rng(77)
    # 120 docs: 40 copies of one base text (identical signatures -> one hot
    # chunk per band with occupancy >= 40) + 80 distinct randoms
    base = " ".join(rng.choice(["alpha", "beta", "gamma", "delta"], 30))
    texts = [base] * 40 + [
        " ".join(rng.choice(["x%d" % k for k in range(50)], 30)) for _ in range(80)
    ]
    t = pa.table({
        "doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
        "text": pa.array(texts, pa.string()),
    })
    diag: dict = {}
    auto = dedup.simhash_candidate_pairs(
        rd.from_arrow(t), max_hamming=3, bands=4, max_bucket=1_000_000,
        n_shards="auto", target_run=20, spill_dir=str(tmp_path / "sig"),
        diag=diag).to_pandas()
    assert diag["max_occ"] >= 40
    # ceil(3*max_occ/target_run) with max_occ>=40, target=20 -> >= 6 shards
    assert diag["n_shards"] >= 6
    fixed = dedup.simhash_candidate_pairs(
        rd.from_arrow(t), max_hamming=3, bands=4, max_bucket=1_000_000,
        n_shards=2).to_pandas()
    key = lambda df: sorted(zip(df["id1"].astype(int), df["id2"].astype(int),
                                df["hamming"].astype(int)))
    assert key(auto) == key(fixed)
    assert len(auto) >= 40 * 39 // 2  # the planted clique is all recovered


def test_ngram_jaccard_bloom_prefilter_parity(ray_session):
    """r5: the bloom text-pushdown (prune non-candidate texts before the
    re-attach shuffle) must return the identical pair set to the plain
    bucketed-join path."""
    import ray.data as rd

    t, planted = _mk_texts()

    def run(bloom):
        out = dedup.ngram_jaccard_pairs(rd.from_arrow(t), threshold=0.5,
                                        bloom_prefilter=bloom).to_pandas()
        return sorted(zip(out["id1"].astype(int), out["id2"].astype(int),
                          np.round(out["jaccard"], 12)))

    on, off = run(True), run(False)
    assert on == off and len(on) > 0

    # the "auto" tier resolves from approx_rows against _BLOOM_PUSHDOWN_ROWS
    # (small corpus -> pushdown off, big footer count -> on) and both
    # resolutions return the same pair set
    auto_small = dedup.ngram_jaccard_pairs(
        rd.from_arrow(t), threshold=0.5, approx_rows=len(t)).to_pandas()
    auto_big = dedup.ngram_jaccard_pairs(
        rd.from_arrow(t), threshold=0.5,
        approx_rows=dedup._BLOOM_PUSHDOWN_ROWS).to_pandas()
    key = lambda df: sorted(zip(df["id1"].astype(int), df["id2"].astype(int),
                                np.round(df["jaccard"], 12)))
    assert key(auto_small) == off and key(auto_big) == on


def test_banded_edit_distance_exhaustive_small():
    """Banded DP vs a plain full-DP reference over a small alphabet (forces
    ties/collisions) for every threshold, plus unicode multi-byte cases
    (BYTE domain — matches DuckDB's byte-based levenshtein)."""
    import numpy as np

    from geotrellis_contrib_ray.stages.dedup import _banded_edit_distance

    def full_dp(a, b):
        la, lb = len(a), len(b)
        dp = list(range(lb + 1))
        for i in range(1, la + 1):
            prev, dp = dp, [i] + [0] * lb
            for j in range(1, lb + 1):
                dp[j] = min(prev[j] + 1, dp[j - 1] + 1,
                            prev[j - 1] + (a[i - 1] != b[j - 1]))
        return dp[lb]

    rng = np.random.default_rng(11)
    for _ in range(400):
        a = rng.integers(97, 100, int(rng.integers(0, 12))).astype(np.uint8)
        b = rng.integers(97, 100, int(rng.integers(0, 12))).astype(np.uint8)
        ref = full_dp(a, b)
        for t in (0, 1, 2, 4, 7):
            assert _banded_edit_distance(a, b, t) == min(ref, t + 1)
    for x, y, d in [("éa", "ea", 2), ("日本語", "日本", 3), ("", "abc", 3),
                    ("kitten", "sitting", 3), ("", "", 0)]:
        ba = np.frombuffer(x.encode(), np.uint8)
        bb = np.frombuffer(y.encode(), np.uint8)
        assert _banded_edit_distance(ba, bb, 10) == d


def test_edit_distance_pairs_planted_adversarial(ray_session, tmp_path):
    """edit_distance_pairs vs the DuckDB levenshtein twin on a planted
    adversarial corpus: mutated near-dups at every distance 0..6 (sub/ins/del
    incl. multi-byte unicode edits), empty strings, tiny strings (the short
    sentinel bucket), NULL texts (dropped on both sides), and a hot shared
    prefix — run through the REAL queries()/oracle_sql() surface."""
    import duckdb
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as e

    base = "the quick brown fox jumps over the lazy dog again and again"
    uni = "žluťoučký kůň úpěl ďábelské ódy 情報 and some ascii tail words"
    texts = [
        base,                      # 0
        base,                      # 1: exact dup -> dist 0
        base[:-1] + "t",           # 2: dist 1 (sub)
        base[:30] + "X" + base[30:],   # 3: dist 1 (ins)
        base.replace("quick", "quirk", 1),  # 4: dist 2
        base.replace("brown", "green", 1),  # 5: dist 4-ish
        base.replace("jumps over", "hops under", 1),  # 6: > 4 likely
        uni,                       # 7
        uni.replace("情報", "情"),   # 8: 3-byte deletion -> dist 3
        uni.replace("ž", "z"),     # 9: 2-byte char -> 1-byte char: dist 2
        "", "", "",                # 10-12: empty (short bucket, dist 0)
        "ab", "ax", "abcd",        # 13-15: tiny strings (short bucket)
        None, None,                # 16-17: NULL (dropped both sides)
        "prefix" * 20 + " alpha",  # 18: hot shared 120-byte prefix
        "prefix" * 20 + " betaa",  # 19: dist <= 5 from 18
        "prefix" * 20 + " completely different tail of words here",  # 20
    ]
    n = len(texts)
    t = pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * n, pa.string()),
        "source": pa.array(["web"] * n, pa.string()),
        "n_chars": pa.array([len(x) if x else 0 for x in texts], pa.int64()),
    })
    sf = str(tmp_path)
    pq.write_table(t, f"{sf}/documents.parquet")
    got = e.queries()["edit_distance_pairs"](sf).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    exp = con.execute(e.oracle_sql()["edit_distance_pairs"]).df()
    cols = sorted(got.columns)
    g = got[cols].sort_values(cols, kind="mergesort").reset_index(drop=True)
    x = exp[cols].sort_values(cols, kind="mergesort").reset_index(drop=True)
    assert g.shape == x.shape and g.shape[0] >= 8
    for c in cols:
        assert (g[c].to_numpy().astype(np.int64)
                == x[c].to_numpy().astype(np.int64)).all(), c
    # the planted relations actually came out
    pairs = {(r.id1, r.id2): r.dist for r in g.itertuples()}
    assert pairs[(0, 1)] == 0 and pairs[(0, 2)] == 1 and pairs[(0, 3)] == 1
    assert pairs[(7, 8)] == 3 and pairs[(7, 9)] == 2
    assert pairs[(10, 11)] == 0 and (13, 14) in pairs
    assert (0, 6) not in pairs and (16, 17) not in pairs


def test_edit_distance_pairs_brute_force_planted_mutations(ray_session):
    """Pipeline recall vs exhaustive all-pairs brute force on a corpus of
    planted byte-level mutants at every edit count 0..6 — guards the
    multi-match-aware probe-window restriction (PassJoin, Li/Deng/Feng):
    any lost candidate shows as a missing pair here."""
    import numpy as np
    import pyarrow as pa
    import ray

    from geotrellis_contrib_ray.stages.dedup import (
        _banded_edit_distance,
        edit_distance_pairs,
    )

    rng = np.random.default_rng(123)
    words = ["alpha", "beta", "gamma", "delta", "omicron", "zeta", "kappa"]
    texts = []
    for _ in range(30):
        b = " ".join(rng.choice(words, rng.integers(5, 30)))
        texts.append(b)
        for k in range(0, 7):
            s = bytearray(b.encode())
            for _ in range(k):
                op = rng.integers(0, 3)
                pos = rng.integers(0, max(len(s), 1))
                if op == 0 and len(s):
                    s[pos % len(s)] = rng.integers(97, 123)
                elif op == 1:
                    s.insert(pos, rng.integers(97, 123))
                elif op == 2 and len(s):
                    del s[pos % len(s)]
            texts.append(s.decode("latin1"))
    n = len(texts)
    tb = pa.table({"doc_id": pa.array(np.arange(n, dtype=np.int64)),
                   "text": pa.array(texts, pa.string())})
    T = 4
    got = edit_distance_pairs(ray.data.from_arrow(tb), max_dist=T).to_pandas()
    got_set = {(int(r.id1), int(r.id2), int(r.dist)) for r in got.itertuples()}
    bs = [np.frombuffer(x.encode(), np.uint8) for x in texts]
    exp = set()
    for i in range(n):
        for j in range(i + 1, n):
            if abs(len(bs[i]) - len(bs[j])) <= T:
                d = _banded_edit_distance(bs[i], bs[j], T)
                if d <= T:
                    exp.add((i, j, d))
    assert got_set == exp and len(exp) > 200


def test_banded_edit_distance_batch_vs_scalar():
    """Batched DP vs the scalar reference over random byte strings of mixed
    lengths (incl. empty), every threshold, with forced chunking."""
    import numpy as np

    from geotrellis_contrib_ray.stages.dedup import (
        _banded_edit_distance,
        _banded_edit_distance_batch,
    )

    rng = np.random.default_rng(7)
    A, B = [], []
    for _ in range(300):
        la, lb = rng.integers(0, 40, 2)
        A.append(rng.integers(97, 102, la).astype(np.uint8))
        B.append(rng.integers(97, 102, lb).astype(np.uint8))
    for t in (0, 1, 2, 4, 7):
        got = _banded_edit_distance_batch(A, B, t, max_cells=64)
        ref = np.array([_banded_edit_distance(a, b, t) for a, b in zip(A, B)])
        assert (got == ref).all(), t


def test_bow_keep_first_planted(ray_session):
    """Token-sort groups: word order collapses, multiset differences don't;
    empty-token layouts and unicode sort by codepoint (= list_sort's binary
    utf8 order); NULL text drops."""
    import ray

    from geotrellis_contrib_ray.stages.dedup import bow_keep_first

    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5, 6, 7, 8], pa.int64()),
        "text": pa.array(["b a c", "c b a", "a b", None, "", "a  b",
                          "🚀 žluťoučký a", "a žluťoučký 🚀"], pa.string()),
    }))
    out = (bow_keep_first(ds).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    # groups: {1,2} 'a b c'; {3} 'a b'; {5} ''; {6} ' a b'; {7,8} unicode
    assert out["doc_id"].tolist() == [1, 3, 5, 6, 7]
    assert out["n_dups"].tolist() == [2, 1, 1, 1, 2]


def test_bow_keep_first_refuses_hash_collision(ray_session, monkeypatch):
    import ray

    import geotrellis_contrib_ray.stages.text as text_mod
    from geotrellis_contrib_ray.stages.dedup import bow_keep_first

    real = text_mod.hash_utf8_array

    def fake(texts, seed=0):
        if seed == 0:
            return np.full(len(texts), 7, np.int64)
        return real(texts, seed=seed)

    monkeypatch.setattr(text_mod, "hash_utf8_array", fake)
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["alpha beta", "omega psi"], pa.string()),
    }))
    try:
        bow_keep_first(ds).take_all()
        raise AssertionError("expected signature-hash collision ValueError")
    except Exception as e:
        assert "collision" in str(e)


def test_bow_sig_rows_on_sliced_batch(ray_session):
    """The per-batch signature kernel must honor non-zero Arrow offsets
    (sliced string columns share the parent's offset/data buffers)."""
    import ray

    from geotrellis_contrib_ray.stages.dedup import bow_keep_first

    full = pa.table({
        "doc_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
        "text": pa.array(["pad pad pad", "b a", "a b", "z", "a  b"],
                         pa.string()),
    })
    sliced = full.slice(1, 4)  # drops the pad row; buffers keep offsets
    out = (bow_keep_first(ray.data.from_arrow(sliced)).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    # {1,2} share multiset {a,b}; {3} 'z'; {4} has an empty middle token
    assert out["doc_id"].tolist() == [1, 3, 4]
    assert out["n_dups"].tolist() == [2, 1, 1]


def test_priority_dedup_keep_best_planted(ray_session):
    """Winner = lexicographic min (priority, doc_id): a curated copy with a
    HIGHER doc_id beats an earlier crawl copy; ties break on id; unknown
    sources take the default, and so do NULL sources (the SQL twin's
    CASE ... ELSE); NULL text drops; guards fire on bad ranges."""
    import pytest
    import ray

    from geotrellis_contrib_ray.stages.dedup import priority_dedup_keep_best

    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([0, 1, 2, 3, 4, 5, 6, 7, 8], pa.int64()),
        "text": pa.array(["dup body", "dup body", "dup body",
                          "only one", None, "tie body",
                          "null src", "null src", "lone null"], pa.string()),
        "source": pa.array(["web", "wiki", "web", "unknown", "wiki", "web",
                            "unknown", None, None], pa.string()),
    }))
    prio = {"wiki": 0, "web": 1}
    out = (priority_dedup_keep_best(ds, prio, 2).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    # 'dup body': wiki copy id=1 beats web ids 0 and 2 despite 0 < 1;
    # 'null src': the NULL source ties the unknown one at the default, so
    # the lower id 6 wins
    assert out["doc_id"].tolist() == [1, 3, 5, 6, 8]
    assert out["n_dups"].tolist() == [3, 1, 1, 2, 1]

    with pytest.raises(ValueError, match="2\\^23"):
        priority_dedup_keep_best(ds, {"wiki": -1}, 2)
    bad = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([1 << 41], pa.int64()),
        "text": pa.array(["x"], pa.string()),
        "source": pa.array(["web"], pa.string()),
    }))
    with pytest.raises(Exception, match="2\\^40"):
        priority_dedup_keep_best(bad, prio, 2).take_all()


def test_exact_dedup_keep_first_refuses_fingerprint_collision(ray_session, monkeypatch):
    """The keep-rows path holds the same collision contract as the grouped
    one: two distinct texts sharing a primary fingerprint are refused, not
    silently collapsed to the lower id."""
    import ray

    import geotrellis_contrib_ray.stages.text as text_mod

    def fake_fingerprint(batch):
        return batch.append_column(
            "fingerprint", pa.array([7] * len(batch), pa.int64()))

    monkeypatch.setattr(text_mod, "add_fingerprint", fake_fingerprint)
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["alpha", "omega"], pa.string()),
    }))
    with pytest.raises(Exception, match="fingerprint collision"):
        dedup.exact_dedup_keep_first(ds).take_all()


def _embedding_table():
    rng = np.random.default_rng(9)
    base = rng.standard_normal((60, 16)) * 0.3
    base[50:60] = base[0:10] + rng.standard_normal((10, 16)) * 1e-3
    return pa.table({
        "vec_id": pa.array(np.arange(60, dtype=np.int64)),
        "embedding": pa.array([row.astype(np.float32) for row in base]),
    })


def _mk_paragraph_texts():
    rng = np.random.default_rng(11)
    words = [f"w{i}" for i in range(12)]
    texts = [" ".join(words[j] for j in rng.integers(0, len(words), int(rng.integers(0, 35))))
             for _ in range(40)]
    return pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                     "text": pa.array(texts, pa.string())})


# every co-partitioned pair op, over a corpus where it finds pairs
_PAIR_OPS = {
    "minhash_candidate_pairs": (lambda ds: dedup.minhash_candidate_pairs(ds), None),
    "simhash_candidate_pairs": (lambda ds: dedup.simhash_candidate_pairs(
        ds, max_hamming=3, bands=4, n_shards=2), None),
    "jaccard_similarity_join": (lambda ds: dedup.jaccard_similarity_join(ds), None),
    "jaccard_prefix_pairs": (lambda ds: dedup.jaccard_prefix_pairs(ds), None),
    "jaccard_prefix_pairs_bucketed_df": (lambda ds: dedup.jaccard_prefix_pairs(
        ds, driver_df_limit=0), None),
    "substring_match_pairs": (lambda ds: dedup.substring_match_pairs(ds, win=16, stride=8),
                              None),
    "edit_distance_pairs": (lambda ds: dedup.edit_distance_pairs(ds, max_dist=7), None),
    "embedding_neardup_pairs_exact": (lambda ds: dedup.embedding_neardup_pairs_exact(
        ds, threshold_num=81, threshold_den=100, n_planes=4, n_bands=8), _embedding_table),
    "paragraph_dedup": (lambda ds: dedup.paragraph_dedup(ds, k_tokens=3),
                        _mk_paragraph_texts),
}


@pytest.mark.parametrize("op", sorted(_PAIR_OPS))
def test_pair_ops_bucket_count_independent(ray_session, monkeypatch, op):
    """Every pair op gives the same rows whether all its keys share one
    bucket or spread over 97: a run key that lost a group column (a band,
    a shard pair) would pair rows across groups in the one-bucket run."""
    import ray.data as rd

    from geotrellis_contrib_ray.stages import joins

    run, table = _PAIR_OPS[op]
    t = table() if table else _mk_texts()[0]
    outs = []
    for n in (1, 97):
        monkeypatch.setattr(joins, "_bucket_count", lambda ds, per_row=1, n=n: n)
        df = run(rd.from_arrow(t)).to_pandas()
        outs.append(df.sort_values(sorted(df.columns)).reset_index(drop=True)[sorted(df.columns)])
    assert len(outs[0]) > 0
    pd.testing.assert_frame_equal(outs[0], outs[1])


def test_run_pairs_matches_brute_force():
    """``_run_pairs`` against nested loops over random runs: every two rows
    of a run (id-ordered), the side-0 x side-1 variant, and the cap that
    drops a run of more than ``cap`` rows."""
    from geotrellis_contrib_ray.stages.dedup import _run_pairs

    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(0, 40))
        k1, k2 = rng.integers(0, 4, n), rng.integers(0, 3, n)
        ids = rng.permutation(1000)[:n].astype(np.int64)
        side = rng.integers(0, 2, n).astype(np.int8)
        same = [[k1[i] == k1[j] and k2[i] == k2[j] for j in range(n)] for i in range(n)]
        a, b = _run_pairs([k1, k2], ids, "test")
        assert sorted(zip(a.tolist(), b.tolist())) == sorted(
            (i, j) if ids[i] < ids[j] else (j, i)
            for i in range(n) for j in range(i + 1, n) if same[i][j])
        a, b = _run_pairs([k1, k2], ids, "test", side=side)
        assert sorted(zip(a.tolist(), b.tolist())) == sorted(
            (i, j) for i in range(n) for j in range(n)
            if same[i][j] and side[i] == 0 and side[j] == 1)
        a, b = _run_pairs([k1], ids, "test", cap=3)
        size = {k: int((k1 == k).sum()) for k in set(k1.tolist())}
        assert sorted(zip(a.tolist(), b.tolist())) == sorted(
            (i, j) if ids[i] < ids[j] else (j, i) for i in range(n) for j in range(i + 1, n)
            if k1[i] == k1[j] and size[k1[i]] <= 3)
