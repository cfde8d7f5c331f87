"""Regex redaction stage: counts, replacement, and empty/edge batches."""

import numpy as np
import pyarrow as pa

from geotrellis_contrib_ray.stages.text import redact_regex


def test_redact_counts_and_replaces(ray_session):
    import ray.data as rd

    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    "customer key hash",
                    "no match here",
                    "",  # empty string row (null-buffer gotcha)
                    "keying is not a key match for hashes but key is",
                ],
                pa.string(),
            ),
        }
    )
    out = (
        redact_regex(rd.from_arrow(t))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out["n_hits"].tolist() == [3, 0, 0, 2]
    assert out["redacted"][0] == "[REDACTED] [REDACTED] [REDACTED]"
    assert out["redacted"][1] == "no match here"
    assert out["redacted"][2] == ""
    # \b word boundary: 'keying'/'hashes' untouched, bare 'key' twice
    assert (
        out["redacted"][3]
        == "keying is not a [REDACTED] match for hashes but [REDACTED] is"
    )
    assert out["n_hits"].dtype == "int64"


def test_repetition_stats_planted(ray_session):
    """A looped text has far more duplicate 5-grams than a varied one."""
    import pyarrow as pa
    import ray.data as rd

    from geotrellis_contrib_ray.stages.text import repetition_stats

    looped = "spam " * 40                      # 200 chars of repetition
    varied = "".join(chr(97 + (i * 7) % 26) + str(i) for i in range(60))
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array([looped, varied]),
    }))
    df = repetition_stats(ds, k=5).to_pandas().set_index("doc_id")
    for doc_id, text in ((1, looped), (2, varied)):
        grams = [text[i:i + 5] for i in range(len(text) - 4)]
        assert df.loc[doc_id, "n_grams"] == len(grams)
        assert df.loc[doc_id, "n_distinct"] == len(set(grams))
    assert df.loc[1, "n_distinct"] == 5        # rotations of "spam "
    assert df.loc[1, "n_dup"] > df.loc[2, "n_dup"]
    assert (df["n_grams"] == df["n_distinct"] + df["n_dup"]).all()


def test_vocab_coverage_planted(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from geotrellis_contrib_ray.stages.text import vocab_coverage

    texts = [
        "the cat sat on the mat",
        "the the the",
        "",            # empty doc -> 1 empty token after split
        "a  b",        # double space -> empty middle token
        "rare words only here",
    ] * 4
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    out = (vocab_coverage(rd.from_arrow(t), top_v=2)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    # python reference with the same split-on-single-space convention
    toks = [s.split(" ") for s in texts]
    from collections import Counter
    c = Counter(tok for row in toks for tok in row)
    vocab = set(t for t, _ in sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[:2])
    exp_tokens = [len(row) for row in toks]
    exp_hits = [sum(tok in vocab for tok in row) for row in toks]
    assert out["n_tokens"].tolist() == exp_tokens
    assert out["n_hits"].tolist() == exp_hits


def test_quality_scorer_null_and_trailing_null_texts(ray_session):
    """Regression (round-3 self-review): null texts must score as zeros
    (not crash via NaN-wrapped reduceat offsets), and a null/empty doc at
    the END of a batch must not swallow the previous doc's last token."""
    import numpy as np
    import pyarrow as pa

    from geotrellis_contrib_ray.stages.text import QualityScorer

    t = pa.table({"text": pa.array(["the cat", None, "and the", None], pa.string()),
                  "doc_id": pa.array([0, 1, 2, 3], pa.int64())})
    out = QualityScorer()(t)
    assert out["n_words"].to_pylist() == [2, 0, 2, 0]
    # 'the' is a stopword; doc2's trailing 'the' must be counted even with
    # a null doc after it
    assert out["n_stop_words"].to_pylist() == [1, 0, 2, 0]
    assert out["quality"].to_pylist()[1] == 0.0


def test_vocab_coverage_trailing_null_doc(ray_session):
    """Regression: the last non-null doc's final token was undercounted
    when a null-text doc ended the batch (reduceat offset clamp)."""
    import pyarrow as pa
    import ray.data as rd

    from geotrellis_contrib_ray.stages.text import vocab_coverage

    t = pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()),
                  "text": pa.array(["b b a", "a b", None], pa.string())})
    out = (vocab_coverage(rd.from_arrow(t), top_v=1)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    # vocab = {'b'} (3 occurrences); doc1's trailing 'b' must count
    assert out["n_tokens"].tolist() == [3, 2, 0]
    assert out["n_hits"].tolist() == [2, 1, 0]


def test_regex_token_counts_matches_duckdb(ray_session):
    """Leftmost non-overlapping extraction parity vs DuckDB RE2, including
    NULL/empty docs, multibyte text (class bytes never match continuation
    bytes), and a doc containing the batch-join separator itself."""
    import duckdb
    import ray

    from geotrellis_contrib_ray.stages.text import regex_token_counts

    texts = ["the batch stream merge", None, "", "žluťoučký xyz zz kůň",
             "abc\ndef ghij", "bcdfg", "b", "xx yy zz xx"]
    pat = r"[b-df-hj-np-tv-z]{2,}"
    t = pa.table({"text": pa.array(texts, pa.string())})
    out = (regex_token_counts(ray.data.from_arrow(t), pat).to_pandas()
           .sort_values("tok").reset_index(drop=True))
    con = duckdb.connect()
    con.register("docs", t)
    want = con.execute(f"""
        SELECT tok, CAST(count(*) AS BIGINT) AS n
        FROM (SELECT unnest(regexp_extract_all(text, '{pat}')) AS tok
              FROM docs)
        GROUP BY tok ORDER BY tok""").df()
    assert out["tok"].tolist() == want["tok"].tolist()
    assert out["n"].tolist() == want["n"].tolist()


def _bigram_corpus(seed: int, n: int = 400):
    rng = np.random.default_rng(seed)
    words = ["a", "bb", "ccc", "dd", "e", "ff", "g", "hh", "ii", "jj",
             "kk", "ll", "mm", "nn", "oo", "pp"]
    texts = [" ".join(rng.choice(words, int(rng.integers(2, 12))))
             for _ in range(n)]
    # a hot boilerplate pair dominating the tail
    texts += ["hot pair hot pair hot pair"] * 40
    return pa.table({"text": pa.array(texts, pa.string())})


def test_top_bigrams_hh_matches_exact_under_forced_drops(ray_session):
    """Tiny capacities force per-block drops (and possibly the exact-tier
    fallback); the tier contract is identical output either way."""
    import ray

    from geotrellis_contrib_ray.stages.text import top_bigrams, top_bigrams_hh

    t = _bigram_corpus(11)
    ds = ray.data.from_arrow(t).repartition(4)
    want = top_bigrams(ds, k=10).to_pandas()
    for cap in (2, 8, 64):
        got = top_bigrams_hh(ray.data.from_arrow(t).repartition(4), k=10,
                             capacity=cap).to_pandas()
        assert got.equals(want), f"capacity={cap}"


def test_top_bigrams_hh_rescue_proves_without_fallback(ray_session, monkeypatch):
    """On a skewed corpus with real drops, the candidate rescue must PROVE
    exactness — the exact-tier fallback is patched to fail loudly."""
    import ray

    import geotrellis_contrib_ray.stages.text as text_mod

    t = _bigram_corpus(13)

    def boom(*a, **kw):
        raise AssertionError("fallback taken — rescue proof failed")

    monkeypatch.setattr(text_mod, "top_bigrams", boom)
    # capacity below the per-block distinct-bigram count (so real drops
    # happen and total_drop > 0) but high enough that the tracked bound
    # stays under the hot pair's margin — the proof must go through
    got = text_mod.top_bigrams_hh(ray.data.from_arrow(t).repartition(4),
                                  k=2, capacity=128).to_pandas()
    # the planted boilerplate pairs must win with their exact counts
    assert got["bigram"].tolist() == ["hot pair", "pair hot"]
    assert got["n"].tolist() == [120, 80]


def test_regex_token_counts_rejects_capture_groups(ray_session):
    import pytest
    import ray

    from geotrellis_contrib_ray.stages.text import regex_token_counts

    t = pa.table({"text": pa.array(["abc"], pa.string())})
    with pytest.raises(ValueError, match="capture groups"):
        regex_token_counts(ray.data.from_arrow(t), "([a-z])x")


def test_regex_token_counts_rejects_separator_matches(ray_session):
    """Texts join with '\\n' per batch: a pattern that can match it would
    merge tokens across documents, so such a match is refused."""
    import pytest
    import ray

    from geotrellis_contrib_ray.stages.text import regex_token_counts

    t = pa.table({"text": pa.array(["ab", "cd"], pa.string())})
    with pytest.raises(Exception, match="document separator"):
        regex_token_counts(ray.data.from_arrow(t), "[a-z\n]+").take_all()
    # the same texts under a separator-free class count per document
    got = regex_token_counts(ray.data.from_arrow(t), "[a-z]+").to_pandas()
    assert sorted(got["tok"]) == ["ab", "cd"]
