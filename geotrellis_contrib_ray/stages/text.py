"""Text-analysis stages for large-scale training-data pipelines: token
counting, quality scoring, language profiling, document fingerprinting.

All vectorized pyarrow.compute / numpy; the regex-bearing scorer is built
once per worker process (``util.worker_cached``).  Oracle-matched outputs
use only expressions DuckDB reproduces bit-for-bit (integer arithmetic,
count_substring).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..util import as_array


def add_token_stats(batch: pa.Table) -> pa.Table:
    """n_tokens = whitespace-separated token count (single-space convention,
    SQL twin: length(text) - length(replace(text,' ','')) + 1); plus
    avg_token_len as exact integer-derived double."""
    n_sp = pc.count_substring(batch["text"], " ")
    n_tokens = pc.add(n_sp, 1)
    n_chars = pc.utf8_length(batch["text"])
    # avg token length = (chars - spaces) / tokens, as double division of
    # exact ints (identical in DuckDB)
    n_tok_np = n_tokens.to_numpy(zero_copy_only=False).astype(np.float64)
    nonspace = pc.subtract(n_chars, n_sp).to_numpy(zero_copy_only=False).astype(np.float64)
    avg = nonspace / n_tok_np
    return (
        batch.append_column("n_tokens", pc.cast(n_tokens, pa.int64()))
        .append_column("avg_token_len", pa.array(avg))
    )


class QualityScorer:
    """Quality heuristics (stopword ratio, alpha ratio, BPE-ish token count),
    fully vectorized in Arrow compute — no per-row Python anywhere:

    * counts (words / alpha chars / BPE tokens) via ``count_substring_regex``
      (RE2, the same engine as the DuckDB oracle's ``regexp_extract_all``);
    * the stopword count flattens the word tokens of the whole batch into
      ONE Arrow array, marks stopwords with a single ``pc.is_in`` against
      the broadcast stoplist, and segment-sums back per document with
      ``np.add.reduceat`` over the list offsets (the same pattern as
      vocab_coverage).  WORD_REGEX is a plain character class, so the token
      list equals splitting on its complement (empty split fragments are
      never stopwords and cost nothing).

    State is just the shared pattern constants, built once per worker by
    ``quality_score``."""

    def __init__(self):
        # patterns/stoplist shared with the DuckDB oracle (pipelines/query_defs)
        from ..pipelines.query_defs import BPE_REGEX, STOP_WORDS, WORD_REGEX

        assert WORD_REGEX == r"[A-Za-z]+", (
            "the split-on-complement stopword kernel below assumes the word "
            "pattern is a single character class")
        self.word_regex = WORD_REGEX
        self.split_regex = r"[^A-Za-z]+"
        # BPE-ish pre-tokenizer (GPT-2-style contractions/words/numbers/punct)
        self.bpe_regex = BPE_REGEX
        self.stop = pa.array(list(STOP_WORDS), pa.string())

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = as_array(batch["text"])

        def count(pattern: str) -> np.ndarray:
            # null text -> null count -> NaN through numpy; treat as 0 (the
            # SQL twins COALESCE the same way) instead of wrapping to junk
            c = pc.fill_null(pc.count_substring_regex(texts, pattern), 0)
            return c.to_numpy(zero_copy_only=False).astype(np.int64)

        n_words = count(self.word_regex)
        # stopword count: split on the complement class, flatten the whole
        # batch's tokens, one is_in, segment-sum back per doc
        toks = pc.split_pattern_regex(texts, self.split_regex)
        flat = toks.flatten()
        hits = pc.is_in(flat, value_set=self.stop).to_numpy(
            zero_copy_only=False).astype(np.int64)
        # null texts -> null lists -> NaN lengths; exact segment sums via
        # prefix-sum differences (reduceat's offset clamp corrupts the LAST
        # non-null segment when a null/empty doc lands at the batch end)
        lens = np.nan_to_num(
            pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.float64),
            nan=0.0).astype(np.int64)
        cs = np.concatenate(([0], np.cumsum(hits)))
        ends = np.cumsum(lens)
        n_stop = cs[ends] - cs[ends - lens]
        n_alpha = count(r"[A-Za-z]")
        n_chars = pc.fill_null(pc.utf8_length(texts), 0).to_numpy(
            zero_copy_only=False).astype(np.int64)
        n_bpe = count(self.bpe_regex)
        with np.errstate(invalid="ignore", divide="ignore"):
            stop_ratio = np.where(n_words > 0, n_stop / n_words, 0.0)
            alpha_ratio = np.where(n_chars > 0, n_alpha / n_chars, 0.0)
        score = 0.5 * stop_ratio + 0.5 * alpha_ratio
        return (
            batch.append_column("stop_ratio", pa.array(stop_ratio))
            .append_column("alpha_ratio", pa.array(alpha_ratio))
            .append_column("quality", pa.array(score))
            .append_column("n_bpe_tokens", pa.array(n_bpe))
            # integer building blocks of the ratios, emitted so an oracle can
            # hash-compare exact counts (SQL twin: regexp_extract_all lengths)
            .append_column("n_words", pa.array(n_words))
            .append_column("n_stop_words", pa.array(n_stop))
            .append_column("n_alpha_chars", pa.array(n_alpha))
        )


def hash_utf8_array(texts, seed: int = 0) -> np.ndarray:
    """Vectorized FNV-1a over each string of a utf8 array -> int64 hashes
    (uint64 bit-viewed: raw uint64 > 2^63 breaks Ray's arrow<->python
    shuffle round-trips).  Offset-aware (sliced arrays hash correctly).
    ``seed`` xors the init basis — a second independent 64-bit family for
    collision cross-checks (see dedup.exact_dedup_groups)."""
    texts = as_array(texts).cast(pa.string())
    n = len(texts)
    if n == 0:
        return np.zeros(0, np.int64)
    off_buf = texts.buffers()[1]
    offs = np.frombuffer(off_buf, dtype=np.int32)[texts.offset : texts.offset + n + 1].astype(np.int64)
    data_buf = texts.buffers()[2]
    data = np.frombuffer(data_buf, dtype=np.uint8) if data_buf is not None else np.zeros(0, np.uint8)
    return _segment_hash(data, offs, seed=seed).view(np.int64)


def add_fingerprint(batch: pa.Table) -> pa.Table:
    """Rolling/content hash fingerprint per document (xxhash-style mix over
    the utf8 bytes, vectorized via numpy on the shared buffer).

    Emitted as int64 (the uint64 hash bit-viewed): values above 2^63 as
    uint64 overflow Ray's arrow<->python round-trips in shuffle stages
    ("Python int too large to convert to C long" -> pickled-object blocks)."""
    fp = hash_utf8_array(batch["text"])
    return batch.append_column("fingerprint", pa.array(fp, pa.int64()))


def _segment_hash(data: np.ndarray, offs: np.ndarray, seed: int = 0) -> np.ndarray:
    """FNV-1a per segment defined by CONSECUTIVE offsets (offs[i], offs[i+1])."""
    return _window_hash(data, offs[:-1], offs[1:], seed=seed)


def _window_hash(data: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                 seed: int = 0) -> np.ndarray:
    """FNV-1a per arbitrary (start, end) byte window into ``data``,
    vectorized across rows: process column-of-bytes position-by-position over
    the max length but masked to each row's span.  Windows are short
    (texts / PassJoin segments); cost is O(max_len * n) numpy ops."""
    n = len(starts)
    lens = ends - starts
    out = np.full(n, np.uint64(0xCBF29CE484222325) ^ np.uint64(seed))
    prime = np.uint64(0x100000001B3)
    max_len = int(lens.max()) if n else 0
    # chunk positions to bound memory: 64 positions at a time
    for start in range(0, max_len, 64):
        width = min(64, max_len - start)
        idx = starts[:, None] + start + np.arange(width)[None, :]
        valid = idx < ends[:, None]
        safe = np.where(valid, idx, 0)
        bytes_ = data[safe].astype(np.uint64)
        for j in range(width):
            m = valid[:, j]
            out[m] = (out[m] ^ bytes_[m, j]) * prime
    return out


# PII-style redaction: the pattern is a parameter; both engines run RE2
# (Arrow and DuckDB embed the same regex dialect), so the SQL twin
# regexp_replace(text, pat, rep, 'g') reproduces the output byte-for-byte.
REDACT_PATTERN = r"\b(customer|key|hash)\b"
REDACT_TOKEN = "[REDACTED]"


def redact_regex(ds, pattern: str = REDACT_PATTERN, token: str = REDACT_TOKEN,
                 text_col: str = "text"):
    """Vectorized regex redaction + per-doc hit count — the PII-scrub shape
    of a training-data pipeline.  Pure narrow map (no state: Arrow compiles
    the RE2 program once per kernel invocation over the whole batch, not per
    row).  Output: input columns minus text, plus (n_hits:int64,
    redacted:string).  SQL twin: regexp_replace(..., 'g') +
    len(regexp_extract_all(...))."""

    def scrub(b: pa.Table) -> pa.Table:
        hits = pc.cast(pc.count_substring_regex(b[text_col], pattern), pa.int64())
        red = pc.replace_substring_regex(b[text_col], pattern, token)
        out = b.drop_columns([text_col])
        return out.append_column("n_hits", hits).append_column("redacted", red)

    return ds.map_batches(scrub, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=None)


def tfidf_top_terms(ds, top_n: int = 3, id_col: str = "doc_id",
                    text_col: str = "text", n_docs: int | None = None):
    """Per-document top-``top_n`` TF-IDF terms over a space-tokenized corpus.

    Scale shape:
    * tokenize + per-doc term frequencies happen INSIDE one narrow batch
      pass (Arrow split_pattern + in-batch group_by — a document never
      spans batches, so in-batch tf is final), and that pass runs ONCE:
      a Dataset consumed by two downstream plans re-executes its upstream,
      so the old "groupby(term) then join df back" layout tokenized the
      corpus twice;
    * the (doc, term, tf) rows shuffle ONCE on a term-hash bucket; within
      a bucket every term's rows are complete, so document frequency is an
      in-group Arrow count + in-group join — no separate df shuffle, no
      string-keyed union join;
    * per-doc selection is stats.top_k_per_group: <= top_n rows per doc
      per block cross the final shuffle.

    Output: (doc_id, term, tf, df) — ranking uses score = tf * ln(N/df)
    (computed identically to the SQL twin, ties broken by term), but only
    INTEGER columns are emitted, so the driver's value-hash compare never
    sees a float.
    """
    from .stats import top_k_per_group

    if n_docs is None:
        n_docs = ds.count()

    def term_tf(b: pa.Table) -> pa.Table:
        # NULL texts contribute no terms on either engine (string_split of
        # NULL unnests to zero rows); unfiltered they crash the np.repeat
        # below (NULL list lengths surface as NaN)
        b = b.filter(pc.is_valid(b[text_col]))
        toks = as_array(pc.split_pattern(b[text_col], " "))
        ids = b[id_col].combine_chunks().cast(pa.int64())
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        flat_ids = pa.array(np.repeat(ids.to_numpy(zero_copy_only=False), lens))
        flat = pa.table({id_col: flat_ids, "term": toks.flatten()})
        g = flat.group_by([id_col, "term"], use_threads=False).aggregate([([], "count_all")])
        return g.rename_columns([id_col, "term", "tf"])

    from .joins import _bucket_of, _co_partition, _fans_out, default_join_partitions

    n_buckets = default_join_partitions()

    @_fans_out  # a document's terms go to several buckets
    def route(b: pa.Table) -> pa.Table:
        b = term_tf(b)
        return b.append_column("_bucket", pa.array(_bucket_of(b["term"], n_buckets)))

    def per_bucket(g: pa.Table) -> pa.Table:
        # all rows of a term share its bucket -> in-group df is exact
        dfc = g.group_by("term", use_threads=False).aggregate([([], "count_all")])
        dfc = pa.table({"term": dfc["term"], "df": dfc["count_all"].cast(pa.int64())})
        out = g.select([id_col, "term", "tf"]).join(dfc, keys="term")
        return out.select([id_col, "term", "tf", "df"])

    joined = _co_partition([(ds, route)], per_bucket)

    def score(b: pa.Table) -> pa.Table:
        tf = b["tf"].to_numpy(zero_copy_only=False).astype(np.float64)
        dfv = b["df"].to_numpy(zero_copy_only=False).astype(np.float64)
        # same expression order as the SQL twin: tf * ln(N / df)
        s = tf * np.log(float(n_docs) / dfv)
        return b.append_column("score", pa.array(s))

    scored = joined.map_batches(score, batch_format="pyarrow",
                                zero_copy_batch=True, batch_size=None)
    top = top_k_per_group(scored, group_col=id_col, order_col="score",
                          k=top_n, tie_col="term", carry_cols=("tf", "df"))

    def finalize(b: pa.Table) -> pa.Table:
        return b.select([id_col, "term", "tf", "df"])

    return top.map_batches(finalize, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None)


def repetition_stats(ds, k: int = 5, id_col: str = "doc_id",
                     text_col: str = "text"):
    """Gopher-style repetition quality signal: per doc, total k-CHARACTER
    grams vs DISTINCT k-grams (the duplicate fraction flags boilerplate /
    looped text).  Grams are codepoint windows — the twin's substr() is
    character-based, and byte windows would split multi-byte UTF-8 chars
    (found by the adversarial random-parity suite; the generator corpus is
    ASCII so the old byte-gram variant never diverged there).  One narrow
    pass: the batch's texts decode to a single flat uint32 codepoint array
    (one C-level join + one UTF-32 encode), window hashes are k vectorized
    polynomial steps over it, and the per-doc distinct count is ONE
    lexsort + run-detect — no per-gram python.

    Output: (doc_id, n_grams, n_distinct, n_dup).  Docs with NO k-grams
    (text shorter than k, empty, or null) emit NO row — the twin's
    GROUP-BY-over-the-gram-join drops them the same way.  The 64-bit
    gram-hash domain is collision-free for test corpora (odds
    ~n^2/2^64)."""
    P = np.uint64(1099511628211)

    def stats(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        texts = as_array(b[text_col]).cast(pa.string())
        nch = pc.fill_null(pc.utf8_length(texts), 0).to_numpy(
            zero_copy_only=False).astype(np.int64)
        grams = np.maximum(nch - k + 1, 0)
        total = int(grams.sum())
        if total:
            joined = "".join(t if t is not None else ""
                             for t in texts.to_pylist())
            cps = np.frombuffer(joined.encode("utf-32-le"),
                                np.uint32).astype(np.uint64)
            doc_start = np.r_[0, np.cumsum(nch)[:-1]]
            doci = np.repeat(np.arange(len(nch)), grams)
            gram_off = np.r_[0, np.cumsum(grams)[:-1]]
            starts = (doc_start[doci]
                      + (np.arange(total) - gram_off[doci]))
            h = np.zeros(total, np.uint64)
            for j in range(k):
                h = h * P + cps[starts + j]
            alld = h.view(np.int64)
            order = np.lexsort((alld, doci))
            d, hh = doci[order], alld[order]
            newrun = np.r_[True, (d[1:] != d[:-1]) | (hh[1:] != hh[:-1])]
            distinct = np.bincount(d[newrun], minlength=len(nch)).astype(np.int64)
        else:
            distinct = np.zeros(len(nch), np.int64)
        keep = grams > 0
        ids = b[id_col].combine_chunks().cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        return pa.table({
            id_col: pa.array(ids[keep]),
            "n_grams": pa.array(grams[keep]),
            "n_distinct": pa.array(distinct[keep]),
            "n_dup": pa.array((grams - distinct)[keep]),
        })

    return ds.map_batches(stats, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=None)


def vocab_coverage(ds, top_v: int = 32, id_col: str = "doc_id",
                   text_col: str = "text"):
    """Vocabulary-coverage quality signal: build the corpus's top-``top_v``
    token table (total term count, ties broken on token), broadcast it, and
    score every document by how many of its token occurrences fall in that
    vocabulary — the classic stopword-coverage / language-fluency heuristic
    (a fluent doc is dominated by high-frequency tokens).

    Distributed shape, both passes scale-correct:
    1. vocab build: per-batch token tf (Arrow group_by inside the block) ->
       ONE groupby(token) merge -> tiny sort+limit; only (token, count)
       partials cross the wire, never token instances;
    2. scoring: pure narrow pass — flatten each batch's token lists,
       ``pc.is_in`` against the broadcast vocab, segment-sum back to docs
       with ``np.add.reduceat``.

    Tokenization is split-on-single-space (empty tokens preserved) —
    bit-identical to DuckDB ``string_split(text, ' ')``.

    Output: (id_col, n_tokens:int64, n_hits:int64)."""
    import pyarrow.compute as pc

    def token_tf(b: pa.Table) -> pa.Table:
        toks = pc.split_pattern(b[text_col], " ")
        flat = as_array(toks).flatten()
        t = pa.table({"tok": flat})
        g = t.group_by("tok", use_threads=False).aggregate([([], "count_all")])
        return pa.table({"tok": g["tok"], "c": g["count_all"].cast(pa.int64())})

    from .agg import salted_group_reduce

    # one group per distinct token: keyed reduce instead of the
    # per-group-cost native aggregate (stages/agg.py measurements)
    counts = salted_group_reduce(
        ds.map_batches(token_tf, batch_format="pyarrow", zero_copy_batch=True,
                       batch_size=None),
        ["tok"], [("c", "sum", "n")],
    )
    # top-V selection: per-block partial top-V, tiny driver merge — a full
    # Dataset.sort range-shuffles every (token, count) row just to keep 32
    def block_top(b: pa.Table) -> pa.Table:
        n = b["n"].to_numpy(zero_copy_only=False)
        tok = b["tok"].to_numpy(zero_copy_only=False)
        order = np.lexsort((tok, -n))[:top_v]
        return b.take(pa.array(np.sort(order)))

    rows = counts.map_batches(block_top, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None).take_all()
    nn = np.array([r["n"] for r in rows], np.int64)
    tt = np.array([r["tok"] for r in rows], object)
    sel = np.lexsort((tt, -nn))[:top_v]
    vocab = pa.array(tt[sel], pa.string())

    def score(b: pa.Table) -> pa.Table:
        toks = as_array(pc.split_pattern(b[text_col], " "))
        flat = toks.flatten()
        hits = pc.is_in(flat, value_set=vocab).to_numpy(zero_copy_only=False).astype(np.int64)
        # null texts -> null list lengths -> NaN; a raw int64 cast would
        # wrap them to INT64_MIN and corrupt the segment offsets
        lens = np.nan_to_num(
            pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.float64),
            nan=0.0,
        ).astype(np.int64)
        # exact segment sums via prefix-sum differences: reduceat's
        # clamped-offset trick undercounted the LAST non-null doc whenever a
        # null/empty doc ended the batch (its clamped start swallowed the
        # final token of the previous segment)
        cs = np.concatenate(([0], np.cumsum(hits)))
        ends = np.cumsum(lens)
        seg = cs[ends] - cs[ends - lens]
        return pa.table({
            id_col: b[id_col],
            "n_tokens": pa.array(lens, pa.int64()),
            "n_hits": pa.array(seg, pa.int64()),
        })

    return ds.map_batches(score, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=None)


def quality_score(ds, *, batch_size=None):
    """QualityScorer over a Dataset in plain tasks, one scorer per worker."""
    from ..util import worker_cached

    def score(batch):
        return worker_cached("text.quality_scorer", None, QualityScorer)(batch)

    return ds.map_batches(score, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=batch_size)


def normalize_text(ds, text_col: str = "text"):
    """Unicode/whitespace normalization — the standard first cleaning pass:
    casefold (lower), collapse whitespace runs to one space, strip ends.
    Pure narrow map (Arrow utf8 kernels + one RE2 replace); output replaces
    ``text`` with ``norm_text`` plus ``n_collapsed`` (count of collapsed
    runs, the observable for how dirty the source was).
    SQL twin: trim(regexp_replace(lower(text), '\\s+', ' ', 'g'))."""
    import pyarrow.compute as pc

    def norm(b: pa.Table) -> pa.Table:
        low = pc.utf8_lower(b[text_col])
        runs = pc.cast(pc.count_substring_regex(low, r"\s+"), pa.int64())
        squashed = pc.replace_substring_regex(low, r"\s+", " ")
        out = pc.utf8_trim_whitespace(squashed)
        return (b.drop_columns([text_col])
                .append_column("norm_text", out)
                .append_column("n_collapsed", runs))

    return ds.map_batches(norm, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=None)


def top_bigrams(ds, k: int = 20, text_col: str = "text"):
    """Corpus-wide top-k word BIGRAMS (total occurrence count, ties broken
    on the bigram string) — the n-gram statistics table of a training-data
    pipeline (stopword-pair signals, boilerplate detection).

    Scale shape (vocab_coverage's plan): per-batch bigram tf (one Arrow
    group_by inside the block — only (bigram, count) partials ever cross the
    wire) -> ONE keyed reduce -> per-block partial top-k -> tiny
    driver merge.  Tokenization is split-on-single-space, empty tokens
    preserved; a bigram is tokens i, i+1 of the SAME doc joined with one
    space — bit-identical to the DuckDB twin's
    ``arr[i] || ' ' || arr[i+1]`` over ``string_split(text, ' ')``.

    Output: pa.Table (bigram:string, n:int64), n desc, bigram asc, <= k rows."""
    from .agg import salted_group_reduce

    bigram_tf = _bigram_tf_fn(text_col)
    counts = salted_group_reduce(
        ds.map_batches(bigram_tf, batch_format="pyarrow", zero_copy_batch=True,
                       batch_size=None),
        ["bigram"], [("c", "sum", "n")],
    )

    def block_top(b: pa.Table) -> pa.Table:
        nn = b["n"].to_numpy(zero_copy_only=False)
        bgv = b["bigram"].to_numpy(zero_copy_only=False)
        order = np.lexsort((bgv, -nn))[:k]
        return b.take(pa.array(np.sort(order)))

    rows = counts.map_batches(block_top, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None).take_all()
    nn = np.array([r["n"] for r in rows], np.int64)
    bgv = np.array([r["bigram"] for r in rows], object)
    sel = np.lexsort((bgv, -nn))[:k]
    return pa.table({"bigram": pa.array(bgv[sel], pa.string()),
                     "n": pa.array(nn[sel], pa.int64())})


def _bigram_tf_fn(text_col: str):
    """Per-batch EXACT bigram term frequencies: (bigram:string, c:int64),
    one Arrow group_by inside the block (zero per-row python).  Shared by
    the exact and heavy-hitter top_bigrams tiers."""
    import pyarrow.compute as pc

    def bigram_tf(b: pa.Table) -> pa.Table:
        toks = as_array(pc.split_pattern(b[text_col], " "))
        n = len(toks)
        empty = pa.table({"bigram": pa.array([], pa.string()),
                          "c": pa.array([], pa.int64())})
        if n == 0:
            return empty
        off_dt = np.int64 if pa.types.is_large_list(toks.type) else np.int32
        doc_offs = np.frombuffer(toks.buffers()[1], dtype=off_dt)[
            toks.offset : toks.offset + n + 1].astype(np.int64)
        # null docs have zero-length offset spans -> 0 tokens -> no bigrams
        nb = np.maximum(np.diff(doc_offs) - 1, 0)
        total = int(nb.sum())
        if total == 0:
            return empty
        left_idx = (np.repeat(doc_offs[:-1], nb)
                    + np.arange(total) - np.repeat(np.cumsum(nb) - nb, nb))
        flat = toks.values
        left = flat.take(pa.array(left_idx))
        right = flat.take(pa.array(left_idx + 1))
        bg = pc.binary_join_element_wise(left, right, " ")
        g = (pa.table({"bigram": bg})
             .group_by("bigram", use_threads=False)
             .aggregate([([], "count_all")]))
        return pa.table({"bigram": g["bigram"],
                         "c": g["count_all"].cast(pa.int64())})

    return bigram_tf


# a real bigram contains EXACTLY one space (split-on-space tokens cannot
# contain one), so any space-free key cannot collide — the per-block drop
# bound rides the SAME (key, count) reduce as the survivors.  (A "\x00"
# sentinel fails here: numpy object-array == uses C-string semantics and
# never matches NUL strings, silently zeroing the drop bound.)
_HH_DROP_KEY = "__drop_bound__"


def top_bigrams_hh(ds, k: int = 20, text_col: str = "text",
                   capacity: int = 4096, slack: int | None = None):
    """Heavy-hitter tier of :func:`top_bigrams` — EXACT top-k with a
    bounded shuffle, for corpora whose distinct-bigram space dwarfs the
    summary (the web-scale regime where the exact tier's (bigram, count)
    partial shuffle is the dominant cost).

    Mergeable-summary plan (SpaceSaving-style truncation with a tracked
    error bound, Metwally et al. / Agarwal et al. mergeable summaries):
    1. per block: EXACT bigram tf, truncated to the top-``capacity`` rows;
       the largest DROPPED count is the block's error bound and rides the
       same reduce under the space-free sentinel key (``_HH_DROP_KEY``,
       which no bigram — always exactly one space — can equal);
    2. ONE keyed reduce over blocks x capacity summary rows (vs the
       exact tier's blocks x distinct rows); driver pulls the global
       top-(k + slack) partial sums + total_drop = sum of block bounds;
    3. rescue pass: exact counts for ONLY the candidate set (broadcast
       ``is_in`` filter, bounded driver rollup), then top-k.

    Soundness: for any key, partial_sum <= true <= partial_sum +
    total_drop; every non-candidate's true count is < cut + total_drop
    (cut = the smallest candidate partial).  If the rescued k-th exact
    count clears that bound the top-k is PROVABLY exact and is returned;
    otherwise the skew assumption failed and the operator transparently
    falls back to the exact tier (same output, the tier is a cost choice
    — never a correctness choice).  total_drop == 0 short-circuits the
    proof (no block dropped anything: partials are exact).

    Output: identical contract to :func:`top_bigrams`."""
    from .agg import salted_group_reduce

    if slack is None:
        slack = max(3 * k, 64)
    bigram_tf = _bigram_tf_fn(text_col)

    def summarize(b: pa.Table) -> pa.Table:
        tf = bigram_tf(b)
        cc = tf["c"].to_numpy(zero_copy_only=False)
        if len(cc) <= capacity:
            drop = np.int64(0)
            keep = tf
        else:
            bgv = tf["bigram"].to_numpy(zero_copy_only=False)
            order = np.lexsort((bgv, -cc))
            keep = tf.take(pa.array(np.sort(order[:capacity])))
            drop = cc[order[capacity]]  # largest dropped count
        sent = pa.table({"bigram": pa.array([_HH_DROP_KEY], pa.string()),
                         "c": pa.array([drop], pa.int64())})
        return pa.concat_tables([keep, sent])

    counts = salted_group_reduce(
        ds.map_batches(summarize, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        ["bigram"], [("c", "sum", "n")],
    )
    kpad = k + slack

    def block_top(b: pa.Table) -> pa.Table:
        nn = b["n"].to_numpy(zero_copy_only=False)
        bgv = b["bigram"].to_numpy(zero_copy_only=False)
        sent = bgv == _HH_DROP_KEY
        order = np.lexsort((bgv[~sent], -nn[~sent]))[:kpad]
        idx = np.nonzero(~sent)[0][order]
        return b.take(pa.array(np.sort(np.concatenate(
            [idx, np.nonzero(sent)[0]]))))

    rows = counts.map_batches(block_top, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None).take_all()
    nn = np.array([r["n"] for r in rows], np.int64)
    bgv = np.array([r["bigram"] for r in rows], object)
    sent = bgv == _HH_DROP_KEY
    total_drop = int(nn[sent].sum())
    nn, bgv = nn[~sent], bgv[~sent]
    sel = np.lexsort((bgv, -nn))[:kpad]
    if len(sel) == 0:
        return pa.table({"bigram": pa.array([], pa.string()),
                         "n": pa.array([], pa.int64())})
    cand = bgv[sel]
    cut = int(nn[sel].min())

    if total_drop == 0:
        # no block dropped anything: the merged partials ARE exact counts
        final = np.lexsort((cand, -nn[sel]))[:k]
        return pa.table({"bigram": pa.array(cand[final], pa.string()),
                         "n": pa.array(nn[sel][final], pa.int64())})

    # rescue pass: exact counts for the candidate set only
    from .agg import driver_group_rollup

    cand_arr = pa.array(cand, pa.string())

    def cand_tf(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        tf = bigram_tf(b)
        return tf.filter(pc.is_in(tf["bigram"], value_set=cand_arr))

    exact = driver_group_rollup(
        ds.map_batches(cand_tf, batch_format="pyarrow", zero_copy_batch=True,
                       batch_size=None),
        ["bigram"], [("c", "sum", "n")],
        schema=pa.schema([("bigram", pa.string()), ("c", pa.int64())]))
    en = exact["n"].to_numpy(zero_copy_only=False)
    eb = exact["bigram"].to_numpy(zero_copy_only=False)
    final = np.lexsort((eb, -en))[:k]
    # every non-candidate's partial is <= cut, so its true count is
    # <= cut + total_drop; a STRICT k-th exact count above that bound
    # proves no outside key can reach the top-k (ties would need the
    # outsider's exact count to break on the bigram string — unknowable
    # without rescuing it, hence strict)
    if len(final) == k and int(en[final[-1]]) > cut + total_drop:
        return pa.table({"bigram": pa.array(eb[final], pa.string()),
                         "n": pa.array(en[final], pa.int64())})
    # guarantee failed (flat distribution vs capacity) — exact fallback
    return top_bigrams(ds, k=k, text_col=text_col)


def regex_token_counts(ds, pattern: str, text_col: str = "text"):
    """Corpus-wide counts of every regex match (re.finditer semantics:
    leftmost, non-overlapping) — the extraction dual of redact_regex:
    subword/BPE-piece harvesting, PII-candidate inventories, URL/domain
    tallies.

    Scale shape: each batch's texts are joined into ONE string with a
    separator the pattern must not cross ('\\n'; a match containing it
    raises ValueError), so the compiled program makes a single
    C-level pass per batch instead of a per-row python loop; matches are
    count-reduced inside the batch (np.unique) and only (tok, count)
    partials shuffle through one keyed reduce.  Output: Dataset
    (tok:string, n:int64), one row per distinct match text.

    SQL twin: ``unnest(regexp_extract_all(text, pat))`` + GROUP BY — python
    re and DuckDB's RE2 agree on leftmost non-overlapping scans for
    backtracking-free patterns (keep alternations/backrefs out of ``pattern``;
    character-class runs like ``[a-z]{2,}`` are exactly portable)."""
    import re

    from ..util import worker_cached
    from .agg import salted_group_reduce

    if re.compile(pattern).groups:
        raise ValueError(
            "regex_token_counts: pattern must not contain capture groups "
            "(findall would return tuples and the DuckDB twin extracts the "
            "full match) — use (?:...) for grouping")

    def partial(b: pa.Table) -> pa.Table:
        # the pattern rides as a plain string; each worker compiles it once
        rx = worker_cached("text.regex", pattern, lambda: re.compile(pattern))
        texts = as_array(b[text_col]).drop_null().cast(pa.string())
        empty = pa.table({"tok": pa.array([], pa.string()),
                          "c": pa.array([], pa.int64())})
        if len(texts) == 0:
            return empty
        lst = pa.ListArray.from_arrays(
            pa.array([0, len(texts)], pa.int32()), texts)
        joined = pc.binary_join(lst, "\n")[0].as_py()
        matches = rx.findall(joined)
        if not matches:
            return empty
        toks, counts = np.unique(np.asarray(matches, dtype=object),
                                 return_counts=True)
        if any("\n" in t for t in toks):
            # such a match can span the join separator, merging the counts
            # of two documents
            raise ValueError(
                "regex_token_counts: a match contains '\\n', the document "
                "separator — exclude '\\n' from the pattern")
        return pa.table({"tok": pa.array(toks, pa.string()),
                         "c": pa.array(counts.astype(np.int64))})

    rows = ds.map_batches(partial, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=None)
    return salted_group_reduce(rows, ["tok"], [("c", "sum", "n")])
