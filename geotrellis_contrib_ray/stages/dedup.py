"""Deduplication stages: exact keyed dedup, MinHash+LSH, SimHash, n-gram
Jaccard, PassJoin edit distance, cross-document paragraph dedup.

Scale pattern (per the Ray Data aggregation guidance): hash/sketch per batch
(narrow, vectorized), shuffle only the small (key, id) projection, resolve
groups with groupby; never move document bodies through the shuffle.

Every exact-key dedup (derive a key, keep one winner per key: the
reference's D1 window collapse) runs on one of two private primitives:
``_keyed_reduce`` (one keyed reduce, one row per key) or
``_keep_first_rows`` (one bucket shuffle keeping whole first rows).  Both
hold one collision contract: the 64-bit key h1 travels with an independent
64-bit hash h2, and a key whose h2 varies is refused (combined miss
~2^-128); string keys (paragraph chunks) compare by exact text instead.
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..util import as_array
from .agg import _default_shuffle_partitions

_log = logging.getLogger("geotrellis_contrib_ray.dedup")


# over-cap LSH buckets are skipped, but never silently: the drop is logged
# with its size so truncated coverage is visible in worker logs/metrics
def _log_bucket_drop(kind: str, size: int, cap: int) -> None:
    _log.warning(
        "%s: dropping candidate bucket of %d members (cap %d) — its pairs are NOT emitted",
        kind,
        size,
        cap,
    )


# ---------------------------------------------------------------------------
# keyed dedup kernel
# ---------------------------------------------------------------------------

# seed of the second, independent FNV family (h2) behind the collision check
_H2_SEED = 0x9E3779B97F4A7C15

# reserved fingerprints for NULL texts: SQL GROUP BY text makes every NULL
# one group DISTINCT from '' while hash_utf8_array returns the FNV basis
# for both; a real text colliding with these trips the h2 refusal
_NULL_TEXT_FP = np.int64(-0x61C8864680B583EB)
_NULL_TEXT_H2 = np.int64(0x3C79AC492BA7B653)


def _split_tokens(texts: pa.Array) -> tuple[pa.Array, np.ndarray]:
    """Space-split ``texts``: the flat token array and the int64 offsets
    (from 0, one per doc + 1) of each doc's tokens in it."""
    toks = as_array(pc.split_pattern(texts, " "))
    off_dt = np.int64 if pa.types.is_large_list(toks.type) else np.int32
    offs = np.frombuffer(toks.buffers()[1], dtype=off_dt)[
        toks.offset : toks.offset + len(texts) + 1].astype(np.int64)
    lo, hi = int(offs[0]), int(offs[-1])
    return as_array(toks.values).slice(lo, hi - lo), offs - lo


def _join_tokens(flat: pa.Array, offs: np.ndarray) -> pa.Array:
    """One string per run ``flat[offs[i]:offs[i+1]]``, joined by a space."""
    lists = (pa.ListArray.from_arrays(pa.array(offs, pa.int32()), flat)
             if offs[-1] < (1 << 31)
             else pa.LargeListArray.from_arrays(pa.array(offs, pa.int64()), flat))
    return pc.binary_join(lists, " ").cast(pa.string())


def _refuse_collision(h2_lo: np.ndarray, h2_hi: np.ndarray) -> None:
    """The collision contract: h2 is constant within every h1 group."""
    if (h2_lo != h2_hi).any():
        raise ValueError(
            "fingerprint collision: two distinct keys share a 64-bit "
            "fingerprint (the independent h2 hash disagrees) — widen the "
            "fingerprint for this corpus")


def _text_keys(text_col: str, null_group: bool):
    """Exact-text signature: ``batch -> batch + (_key, _h2)`` with the key
    h1 = text.add_fingerprint and h2 the independent family.  The hashers
    are looked up HERE, when the plan is built, and ride the closure to the
    workers.

    NULL rule: ``null_group`` gives NULL texts one group of their own,
    distinct from '' (SQL GROUP BY text); otherwise NULL rows are dropped
    (the SQL twins' equality predicates never match NULL)."""
    from .text import add_fingerprint, hash_utf8_array

    def keys(batch: pa.Table):
        texts = as_array(batch[text_col])
        valid = pc.is_valid(texts).to_numpy(zero_copy_only=False)
        if not null_group:
            batch, texts = batch.filter(pa.array(valid)), texts.filter(pa.array(valid))
        h1 = add_fingerprint(pa.table({"text": texts}))["fingerprint"].to_numpy()
        h2 = hash_utf8_array(texts, seed=_H2_SEED)
        if null_group and not valid.all():
            h1, h2 = h1.copy(), h2.copy()
            h1[~valid], h2[~valid] = _NULL_TEXT_FP, _NULL_TEXT_H2
        return batch.append_column("_key", pa.array(h1)).append_column(
            "_h2", pa.array(h2))

    return keys


_PARTIAL_OP = {"min": "min", "count": "count", "first": "min"}
_COMBINE_OP = {"min": "min", "count": "sum", "first": "first"}


def _keyed_reduce(ds, rows, aggs: list[tuple[str | None, str, str]], out=None):
    """One output row per key: the salted total reduce of the kernel.

    ``rows(batch)`` -> table (_key, _h2, *sources): the 64-bit signature
    hash h1, its independent check hash and the winner / payload columns —
    texts never move.  Every batch pre-aggregates per key (a key repeated
    inside a block ships once), the partials ride ONE keyed reduce,
    and a key whose h2 min != max is refused (_refuse_collision).

    ``aggs``: (source, op, alias) with op min | count (source None) | first
    (a payload constant per key, e.g. the exemplar text).  ``out(b)`` maps
    the reduced (_key, _h2min, _h2max, *aliases) table to the output; by
    default the aliases, in order."""
    from .agg import salted_group_reduce

    part = [("_h2", "min"), ("_h2", "max")] + [
        (src or "_key", _PARTIAL_OP[op]) for src, op, _ in aggs]
    names = ["_key", "_h2min", "_h2max"] + [f"_p{i}" for i in range(len(aggs))]

    def partial(batch: pa.Table) -> pa.Table:
        return (rows(batch).group_by("_key", use_threads=False)
                .aggregate(part).rename_columns(names))

    reduced = salted_group_reduce(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True,
                       batch_size=None),
        ["_key"],
        [("_h2min", "min", "_h2min"), ("_h2max", "max", "_h2max")]
        + [(f"_p{i}", _COMBINE_OP[op], alias)
           for i, (_, op, alias) in enumerate(aggs)],
    )

    def finalize(b: pa.Table) -> pa.Table:
        _refuse_collision(b["_h2min"].to_numpy(), b["_h2max"].to_numpy())
        return out(b) if out else b.select([alias for _, _, alias in aggs])

    return reduced.map_batches(finalize, batch_format="pyarrow",
                               zero_copy_batch=True, batch_size=None)


def _run_first(t: pa.Table, key: str, order: tuple[str, ...]) -> np.ndarray:
    """Ascending row indices of the first row, by ``order``, of every
    ``key`` run of ``t``.  An integer key is a fingerprint, checked against
    ``_h2`` when that column rides along; a string key is compared by exact
    equality (dictionary codes)."""
    if len(t) == 0:
        return np.zeros(0, np.int64)
    k = as_array(t[key])
    if pa.types.is_string(k.type) or pa.types.is_large_string(k.type):
        k = pc.dictionary_encode(k).indices
    k = k.to_numpy(zero_copy_only=False)
    srt = np.lexsort(tuple(t[c].to_numpy() for c in reversed(order)) + (k,))
    ks = k[srt]
    starts = np.nonzero(np.r_[True, ks[1:] != ks[:-1]])[0]
    if "_h2" in t.column_names:
        h2 = t["_h2"].to_numpy()[srt]
        _refuse_collision(np.minimum.reduceat(h2, starts),
                          np.maximum.reduceat(h2, starts))
    return np.sort(srt[starts])


def _keep_first_rows(sides, order: tuple[str, ...], *, key: str = "_key",
                     finish=None, pre_collapse: bool = False):
    """Keep the first row, by ``order``, of every key: ONE co-partition
    shuffle (joins._co_partition).

    ``sides``: (dataset, tag) pairs whose rows shuffle together, every tag
    returning the same columns; ``tag(batch)`` returns the rows to shuffle:
    the ``key`` column (an int64 fingerprint with an optional ``_h2`` check
    column, or a string), the ``order`` columns and any payload.  Rows
    hash-partition on ``joins._bucket_of(key)``, so a bucket holds every row
    of its keys and the winners are one in-group lexsort run mask
    (_run_first) — no python per key, group count bounded by the bucket
    count.

    ``finish(group, first)`` maps a bucket (all sides' rows) and its
    run-first row indices to output; by default those rows, minus the
    ``_key`` / ``_h2`` columns.  ``pre_collapse`` applies the same run mask inside every batch
    first, so a hot key ships at most one row per block (the intermediate
    reduce of FP-Hadoop); only valid when ``finish`` needs no losing rows."""
    from .joins import _bucket_of, _co_partition, default_join_partitions

    n_buckets = default_join_partitions()

    def route(tag):
        def f(b: pa.Table) -> pa.Table:
            b = tag(b)
            if pre_collapse:
                b = b.take(pa.array(_run_first(b, key, order)))
            return b.append_column("_bucket", pa.array(_bucket_of(as_array(b[key]), n_buckets)))

        return f

    def first_rows(g: pa.Table, first: np.ndarray) -> pa.Table:
        internal = [c for c in ("_key", "_h2") if c in g.column_names]
        return g.take(pa.array(first)).drop_columns(internal)

    fin = finish or first_rows

    def per_bucket(*rows: pa.Table) -> pa.Table:
        g = pa.concat_tables(rows) if len(rows) > 1 else rows[0]
        return fin(g, _run_first(g, key, order))

    # each side routes before the union: only its tagged rows cross it
    return _co_partition([(ds, route(tag)) for ds, tag in sides], per_bucket)


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------


def exact_dedup_groups(ds, id_col: str = "doc_id", text_col: str = "text"):
    """Exact duplicate groups, keyed on a 64-bit content FINGERPRINT (not
    the text itself) — 8 bytes of key per group at any corpus size; one
    exemplar text per group rides the reduce for the output.  The keyed
    reduce of the kernel, with its collision refusal; NULL texts form one
    group of their own.

    Output: text, first_doc (min id), n_copies.
    SQL twin: SELECT text, min(doc_id) first_doc, count(*) n_copies GROUP BY text.
    """
    keys = _text_keys(text_col, null_group=True)
    return _keyed_reduce(
        ds, lambda b: keys(b).select(["_key", "_h2", id_col, text_col]),
        [(text_col, "first", text_col), (id_col, "min", "first_doc"),
         (None, "count", "n_copies")])


def exact_dedup_keep_first(ds, id_col: str = "doc_id", text_col: str = "text"):
    """Keep one row per distinct text (the min-id row): the keep-first
    shuffle of the kernel over the exact-text fingerprint — the corpus is
    scanned once and shuffled once, whole rows, with the collision refusal.
    NULL texts form one group of their own (SQL GROUP BY text).

    Skew note: a fingerprint duplicated millions of times lands in one
    bucket — pre-thin with skew.dedup_keep_first_salted for adversarial
    corpora."""
    return _keep_first_rows([(ds, _text_keys(text_col, null_group=True))], (id_col,))


# ---------------------------------------------------------------------------
# MinHash + LSH near-dup
# ---------------------------------------------------------------------------

_MERSENNE = np.uint64((1 << 61) - 1)


def _shingle_hashes(texts: pa.Array, k: int) -> list[np.ndarray]:
    """Per-row arrays of k-byte-shingle hashes (rolling polynomial, vectorized
    across rows via the shared utf8 buffer)."""
    texts = as_array(texts)
    n = len(texts)
    if n == 0:
        return []
    # large_string columns carry int64 offsets — reading them as int32
    # silently garbles every row slice (and with it the whole dedup family)
    off_dtype = np.int64 if pa.types.is_large_string(texts.type) else np.int32
    offs = np.frombuffer(texts.buffers()[1], dtype=off_dtype)[
        texts.offset : texts.offset + n + 1
    ].astype(np.int64)
    data_buf = texts.buffers()[2]
    data = np.frombuffer(data_buf, dtype=np.uint8) if data_buf is not None else np.zeros(0, np.uint8)
    if len(data) == 0:
        return [np.zeros(0, np.uint64) for _ in range(n)]
    # rolling hash over the whole buffer, then slice per row
    base = np.uint64(1000003)
    h = np.zeros(len(data) - k + 1 if len(data) >= k else 0, dtype=np.uint64)
    if len(h):
        acc = np.zeros(len(h), dtype=np.uint64)
        for j in range(k):
            acc = acc * base + data[j : j + len(h)].astype(np.uint64)
        h = acc
    out = []
    for i in range(n):
        s, e = offs[i], offs[i + 1]
        if e - s < k:
            out.append(np.zeros(0, np.uint64))
        else:
            out.append(h[s : e - k + 1])
    return out


class MinHashLSH:
    """Stage: doc text -> (band_id, band_hash, doc_id) rows.

    num_perm minhashes via the standard (a*x+b) mod p universal family;
    permutation parameters generated once in __init__ (seed-fixed).
    Bands of r rows each; near-duplicates collide in >=1 band and are grouped
    by a downstream groupby(["band_id", "band_hash"]).
    """

    def __init__(self, num_perm: int = 64, bands: int = 16, shingle_k: int = 5, seed: int = 42):
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, (1 << 61) - 1, size=num_perm, dtype=np.uint64)
        self.b = rng.integers(0, (1 << 61) - 1, size=num_perm, dtype=np.uint64)
        self.num_perm = num_perm
        self.bands = bands
        self.rows_per_band = num_perm // bands
        self.k = shingle_k

    def signature(self, shingles: np.ndarray) -> np.ndarray:
        if len(shingles) == 0:
            return np.full(self.num_perm, np.uint64(0xFFFFFFFFFFFFFFFF))
        # (P, S) universal hashes -> min over shingles
        hashed = (shingles[None, :] * self.a[:, None] + self.b[:, None]) % _MERSENNE
        return hashed.min(axis=1)

    def _signatures(self, shingle_lists) -> np.ndarray:
        """(n, P) signatures for the whole batch: one chunked
        ``np.minimum.reduceat`` over the concatenated shingle stream instead
        of a python loop per document (~10x on word-salad corpora).  Chunks
        bound the (P, S_chunk) hash matrix to ~128 MB."""
        n = len(shingle_lists)
        sigs = np.full((n, self.num_perm), np.uint64(0xFFFFFFFFFFFFFFFF))
        lens = np.array([len(s) for s in shingle_lists], dtype=np.int64)
        nz = np.nonzero(lens)[0]
        if len(nz) == 0:
            return sigs
        max_shingles = max(1, (128 << 20) // (8 * self.num_perm))
        row_start = 0
        while row_start < len(nz):
            row_end = row_start
            tot = 0
            while row_end < len(nz) and (tot == 0 or tot + lens[nz[row_end]] <= max_shingles):
                tot += lens[nz[row_end]]
                row_end += 1
            rows = nz[row_start:row_end]
            flat = np.concatenate([shingle_lists[i] for i in rows])
            hashed = (flat[None, :] * self.a[:, None] + self.b[:, None]) % _MERSENNE
            starts = np.zeros(len(rows), dtype=np.int64)
            np.cumsum(lens[rows][:-1], out=starts[1:])
            sigs[rows] = np.minimum.reduceat(hashed, starts, axis=1).T
            row_start = row_end
        return sigs

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        shingle_lists = _shingle_hashes(batch["text"], self.k)
        n = len(ids)
        # docs with ZERO shingles (shorter than k) all share the sentinel
        # signature — banding them makes every short doc collide with every
        # other in every band (O(n^2) junk pairs or max_bucket drop spam);
        # a doc with no shingles has no content to near-match, so skip it
        has = np.array([len(s) > 0 for s in shingle_lists], dtype=bool)
        if not has.all():
            ids = ids[has]
            shingle_lists = [s for s in shingle_lists if len(s)]
            n = len(ids)
        if n == 0:
            return pa.table({
                "band_id": pa.array([], pa.int32()),
                "band_hash": pa.array([], pa.int64()),
                "doc_id": pa.array([], pa.int64()),
            })
        sigs = self._signatures(shingle_lists)
        r = self.rows_per_band
        band_hash = np.empty((n, self.bands), dtype=np.uint64)
        for b in range(self.bands):
            chunk = sigs[:, b * r : (b + 1) * r]
            acc = np.full(n, np.uint64(0xCBF29CE484222325))
            prime = np.uint64(0x100000001B3)
            for j in range(r):
                acc = (acc ^ chunk[:, j]) * prime
            band_hash[:, b] = acc
        return pa.table(
            {
                "band_id": np.repeat(np.arange(self.bands, dtype=np.int32), n),
                # int64 bit-view: raw uint64 > 2^63 breaks Ray shuffle
                # arrow<->python round-trips (CLAUDE.md)
                "band_hash": band_hash.T.ravel().view(np.int64),
                "doc_id": np.tile(np.asarray(ids, dtype=np.int64), self.bands),
            }
        )


def _bucket_runs(hashes: np.ndarray, order: np.ndarray):
    """Sorted-run detection: -> (starts, ends) of equal-hash runs in
    ``hashes[order]``.  Vectorized; the caller loops only over runs with
    >= 2 members (the duplicate tail, a small fraction of rows)."""
    h = hashes[order]
    starts = np.nonzero(np.r_[True, h[1:] != h[:-1]])[0]
    ends = np.r_[starts[1:], len(h)]
    return starts, ends


def minhash_candidate_pairs(ds, num_perm=64, bands=16, shingle_k=5,
                            group_salt: int = 64, max_bucket: int = 1000,
                            distinct: bool = True):
    """Near-dup candidate pairs via LSH banding: signature stage ->
    groupby((band, band_hash % group_salt)) -> vectorized run-based pair
    emission -> distinct.

    The group key is the band hash SALTED DOWN to ``group_salt`` partitions
    per band, not the raw hash: grouping by the raw hash makes one tiny
    group per bucket (per-group overhead dominates — measured 15 s at sf0.1),
    while salting bounds the group COUNT at bands x group_salt and equal
    hashes still co-locate.  Partitioning assumption: one salted group
    (corpus x bands / (bands x group_salt) rows) fits a worker — scale
    ``group_salt`` with the corpus.  Output: id1 < id2 candidate pairs
    (verify Jaccard downstream)."""
    from ..util import worker_cached

    def band_rows(batch: pa.Table) -> pa.Table:
        # the seed-fixed sketcher is built once per worker process
        sk = worker_cached(
            "dedup.minhash", (num_perm, bands, shingle_k),
            lambda: MinHashLSH(num_perm=num_perm, bands=bands, shingle_k=shingle_k))
        return sk(batch)

    banded = ds.map_batches(
        band_rows, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )

    def add_salt(b: pa.Table) -> pa.Table:
        salt = (b["band_hash"].to_numpy(zero_copy_only=False).view(np.uint64)
                % np.uint64(group_salt)).astype(np.int64)
        return b.append_column("gsalt", pa.array(salt))

    salted = banded.map_batches(add_salt, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)

    def pairs(g):
        # Arrow return: pandas-format blocks pay ~13x in the downstream
        # groupby/aggregate (see CLAUDE.md / jaccard_similarity_join)
        ids = g["doc_id"].to_numpy()
        hashes = g["band_hash"].to_numpy()
        order = np.lexsort((ids, hashes))
        starts, ends = _bucket_runs(hashes, order)
        sids = ids[order]
        id1s, id2s = [], []
        counts = ends - starts
        for ri in np.nonzero(counts >= 2)[0]:
            n = int(counts[ri])
            if n > max_bucket:
                _log_bucket_drop("minhash_candidate_pairs", n, max_bucket)
                continue
            run = np.sort(sids[starts[ri] : ends[ri]])
            ii, jj = np.triu_indices(n, k=1)
            id1s.append(run[ii])
            id2s.append(run[jj])
        if not id1s:
            z = pa.array([], pa.int64())
            return pa.table({"id1": z, "id2": z})
        return pa.table({"id1": pa.array(np.concatenate(id1s).astype(np.int64)),
                         "id2": pa.array(np.concatenate(id2s).astype(np.int64))})

    cand = (salted.repartition(_default_shuffle_partitions())
            .groupby(["band_id", "gsalt"]).map_groups(pairs, batch_format="pandas"))

    # Each (pair, band) is emitted exactly once (one band_hash per
    # (doc, band) -> one bucket per band; buckets partition across gsalt),
    # so a plain count per pair IS the band-match count.  The old per-block
    # distinct pre-pass was both unnecessary and subtly wrong: a map_groups
    # output BLOCK can span several band groups, so distinct-per-block could
    # collapse the same pair across two bands and undercount n_bands.
    # ``distinct=False`` skips this whole barrier for callers whose
    # downstream already groups per pair (ngram_jaccard_pairs' verify) —
    # they get (id1, id2) rows duplicated once per colliding band.
    if not distinct:
        return cand
    from .agg import salted_group_reduce

    return salted_group_reduce(cand, ["id1", "id2"],
                               [(None, "count", "n_bands")])


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------


class SimHash:
    """64-bit SimHash over byte 4-gram hashes; near-dups differ in few bits.
    Vectorized ACROSS the batch: shingle hashes are expanded to a
    (S_slab, 64) uint8 bit matrix via ``np.unpackbits`` (8x smaller than the
    old int64 matrix — 64 B/shingle vs 512 B) and per-doc bit votes come
    from padded-prefix-sum differences over row segments (exact for any
    empty-segment layout, the CLAUDE.md reduceat rule).  Docs are processed
    in shingle-bounded slabs so a 128 MB text block never materializes a
    multi-GB transient."""

    # per-slab shingle cap: bits (4M, 64) u8 = 256 MB; the 16-col int64
    # cumsum transient adds 512 MB peak — bounded regardless of block size
    MAX_SLAB_SHINGLES = 4 << 20

    def __init__(self, shingle_k: int = 4):
        self.k = shingle_k

    def _votes_slab(self, all_sh: np.ndarray, lens_nz: np.ndarray) -> np.ndarray:
        """(n_docs, 64) signed votes (ones - zeros) for one shingle slab."""
        S = len(all_sh)
        # little-endian u8 view + LSB-first unpack == (sh >> j) & 1 per column
        bits = np.unpackbits(all_sh.view(np.uint8).reshape(S, 8), axis=1,
                             bitorder="little")
        ends = np.cumsum(lens_nz)
        starts = ends - lens_nz
        ones = np.empty((len(lens_nz), 64), dtype=np.int64)
        # int32 accumulator is exact (slab cap 4M < 2^31) and halves the
        # cumsum's memory traffic vs int64 — the stage is bandwidth-bound
        for j0 in range(0, 64, 16):
            cs = np.zeros((S + 1, 16), dtype=np.int32)
            np.cumsum(bits[:, j0 : j0 + 16], axis=0, dtype=np.int32, out=cs[1:])
            ones[:, j0 : j0 + 16] = cs[ends] - cs[starts]
        return 2 * ones - lens_nz[:, None]

    def __call__(self, batch: pa.Table) -> pa.Table:
        shingle_lists = _shingle_hashes(batch["text"], self.k)
        n = len(batch)
        out = np.zeros(n, dtype=np.uint64)
        lens = np.array([len(sh) for sh in shingle_lists], dtype=np.int64)
        nz = lens > 0
        if nz.any():
            nz_idx = np.nonzero(nz)[0]
            weights = np.uint64(1) << np.arange(64, dtype=np.uint64)
            row_start = 0
            while row_start < len(nz_idx):
                row_end, tot = row_start, 0
                while row_end < len(nz_idx) and (
                    tot == 0 or tot + lens[nz_idx[row_end]] <= self.MAX_SLAB_SHINGLES
                ):
                    tot += lens[nz_idx[row_end]]
                    row_end += 1
                rows = nz_idx[row_start:row_end]
                all_sh = np.concatenate([shingle_lists[i] for i in rows])
                votes = self._votes_slab(all_sh, lens[rows])
                out[rows] = ((votes > 0).astype(np.uint64) * weights[None, :]).sum(
                    axis=1, dtype=np.uint64)
                row_start = row_end
        # int64 bit-view (the shuffle rule, CLAUDE.md); consumers re-view
        return (batch.append_column("simhash", pa.array(out.view(np.int64), pa.int64()))
                     .append_column("sh_valid", pa.array(nz)))


def _simhash_blocked_pairs(sigA, idsA, sigB, idsB, max_h: int, triangular: bool,
                           slab: int = 128):
    """All (i in A, j in B) with hamming(sigA[i], sigB[j]) <= max_h, blocked
    so no triu index matrix is ever allocated (the old np.triu_indices path
    built O(bucket^2) int64 scratch — 110 MB for one hot 3.7k bucket).
    ``triangular=True`` means A is B and only j > i pairs are emitted.
    Returns (id_lo, id_hi, hd) int64 arrays."""
    lo_out, hi_out, hd_out = [], [], []
    nB = len(sigB)
    for s0 in range(0, len(sigA), slab):
        s1 = min(s0 + slab, len(sigA))
        x = sigA[s0:s1, None] ^ sigB[None, :]
        hd = _POPCNT8[x.view(np.uint8).reshape(s1 - s0, nB, 8)].sum(
            axis=-1, dtype=np.int64)
        keep = hd <= max_h
        if triangular:
            # strictly-upper mask relative to global indices
            keep &= np.arange(nB)[None, :] > (s0 + np.arange(s1 - s0))[:, None]
        ii, jj = np.nonzero(keep)
        if len(ii):
            a, b = idsA[s0 + ii], idsB[jj]
            lo_out.append(np.minimum(a, b))
            hi_out.append(np.maximum(a, b))
            hd_out.append(hd[ii, jj])
    if not lo_out:
        z = np.zeros(0, np.int64)
        return z, z, z
    return (np.concatenate(lo_out).astype(np.int64),
            np.concatenate(hi_out).astype(np.int64),
            np.concatenate(hd_out))


def _simhash_occupancy_shards(signed, bands: int, width: int, mask: np.uint64,
                              target_run: int, spill_dir: str | None):
    """Occupancy census -> adaptive shard count for simhash banding.

    Spills the narrow (doc_id, simhash) projection of valid rows to parquet
    under /tmp so the SimHash signature stage runs ONCE — the census and the
    banding stage both stream the spill (no whole-corpus object-store pin;
    the spill is ~16 B/doc vs ~KB/doc of text, and parquet reads split into
    parallel blocks automatically).  The census itself is shuffle-light:
    per-batch ``np.bincount`` over the bands*2^width (band, chunk) bins
    (<= 2 MB scratch at width<=16), a salted_group_reduce over the <= 2^width
    * bands nonzero bins, then a per-block partial max — the driver receives
    ONE scalar per block, never the histogram.

    Returns (sig_dataset, n_shards, max_occupancy).  Per-task run length in
    the pair stage is ~2*occ/n_shards (both shards of a pair group land in
    one task), so n_shards = ceil(3*max_occ/target_run) keeps runs under
    ``target_run`` with a 1.5x hash-imbalance margin, clamped to [1, 64]
    (64 shards = 2080 shard-pair groups — the map_groups ~1 ms/group
    overhead bound, CLAUDE.md)."""
    import tempfile

    import pyarrow.compute as pc
    import ray

    from .agg import salted_group_reduce

    out_dir = spill_dir or tempfile.mkdtemp(prefix="simhash_sig_", dir="/tmp")

    def project(b: pa.Table) -> pa.Table:
        return b.select(["doc_id", "simhash"]).filter(b["sh_valid"])

    signed.map_batches(project, batch_format="pyarrow", zero_copy_batch=True,
                       batch_size=None).write_parquet(out_dir)
    from ..util import strip_schema_metadata

    # strip fused into the read: the spill carries write-time metadata that
    # would defeat Ray's shuffle schema-dedup cache (CLAUDE.md rule)
    sig = ray.data.read_parquet(out_dir, columns=["doc_id", "simhash"]).map_batches(
        strip_schema_metadata, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None)

    nbins = bands << width

    def partial(b: pa.Table) -> pa.Table:
        sh = b["simhash"].to_numpy(zero_copy_only=False).view(np.uint64)
        if len(sh) == 0:
            z = pa.array([], pa.int64())
            return pa.table({"bidx": z, "pcnt": z})
        idx = np.concatenate([
            (band << width) + ((sh >> np.uint64(band * width)) & mask).astype(np.int64)
            for band in range(bands)])
        cnt = np.bincount(idx, minlength=nbins)
        nzb = np.nonzero(cnt)[0]
        return pa.table({"bidx": pa.array(nzb.astype(np.int64)),
                         "pcnt": pa.array(cnt[nzb].astype(np.int64))})

    occ = salted_group_reduce(
        sig.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True,
                        batch_size=None),
        ["bidx"], [("pcnt", "sum", "n")])
    part_max = occ.map_batches(
        lambda b: pa.table({"m": pa.array(
            [int(pc.max(b["n"]).as_py() or 0) if len(b) else 0], pa.int64())}),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None)
    max_occ = max((int(v) for v in part_max.to_pandas()["m"]), default=0)
    n_shards = int(min(64, max(1, -(-3 * max_occ // max(1, target_run)))))
    return sig, n_shards, max_occ


def simhash_candidate_pairs(ds, max_hamming: int = 3, bands: int = 4,
                            group_salt: int | None = None, max_bucket: int = 1000,
                            allow_partial_recall: bool = False,
                            n_shards: int | str = 4, input_blocks: int | None = None,
                            target_run: int = 2048, spill_dir: str | None = None,
                            diag: dict | None = None):
    """SimHash near-dup: 64-bit signatures banded into ``64/bands``-bit
    chunks; docs sharing any chunk are candidates, verified by exact
    hamming distance.  BANDING COMPLETENESS: only pairs with hamming <
    ``bands`` are guaranteed to collide in some band (pigeonhole), so the
    defaults (bands=4, max_hamming=3) are exhaustive; asking for
    max_hamming >= bands raises unless ``allow_partial_recall=True``
    (then the output is a recall-limited candidate set, not a guarantee).
    Docs with zero shingles (shorter than shingle_k) are excluded — they
    all share the zero signature and would cross-collide meaninglessly.

    SCALE SHAPE (two-level bucket sharding): narrow banding keys (7-bit
    chunks at bands=9) make bucket occupancy structurally linear in corpus
    size, so one hot bucket used to serialize an O(occ^2) triu in a single
    task.  Each doc's band row is now replicated to ``n_shards`` shard-pair
    groups keyed by a second signature-derived hash: bucket occupancy PER
    TASK drops to occ/n_shards and the triangular work spreads over
    n_shards*(n_shards+1)/2 balanced tasks (linear row cost: bands*n_shards
    rows/doc).  Within a task the hamming verify is blocked (no triu index
    allocation).  Each surviving pair is emitted ONLY in its FIRST
    colliding band (recomputed from the two signatures in-task), so every
    pair appears exactly once globally and the old cross-band
    distinct/min-reduce shuffle (~7 rows/pair at max_hamming=8) is gone
    entirely — the pair stage output IS the result.

    ``n_shards="auto"`` (occupancy-adaptive tier): a census pre-pass
    measures the max (band, chunk) occupancy and sizes the shard count to
    keep per-task run length under ``target_run`` — the signature stage
    runs once (narrow parquet spill, see _simhash_occupancy_shards), so at
    100x the corpus the per-task quadratic work stays bounded without
    retuning a constant.  ``diag`` (optional dict) receives
    {"n_shards", "max_occ"} for observability/tests.

    ``max_bucket`` caps the per-task run length (shard-local occupancy,
    ~2*occ/n_shards), logged on drop.  CAPPED-RECALL SEMANTICS: a pair is
    emitted only in its FIRST colliding band, so a drop in that band loses
    the pair even if a later, colder band also discovered it — capped
    operation drops ALL pairs whose first colliding band is hot, not just
    the hot band's share.  Oracle-profile callers pass an uncapped bound;
    recall-sensitive capped callers should prefer ``n_shards="auto"``,
    which sizes shards so runs stay under target_run and the cap never
    triggers.  ``input_blocks`` narrow-repartitions
    the doc stream before the signature stage — the signature map is
    bandwidth-bound and a small-SF read often arrives as ONE block, which
    serializes it; production streams with natural block parallelism leave
    this None (a forced repartition there would COALESCE the stream).
    Output: id1 < id2, hamming."""
    if max_hamming >= bands and not allow_partial_recall:
        raise ValueError(
            f"bands={bands} only guarantees pairs with hamming < {bands}; "
            f"raise bands to >= {max_hamming + 1} or pass allow_partial_recall=True")
    width = 64 // bands
    mask = np.uint64((1 << width) - 1)
    if input_blocks:
        ds = ds.repartition(input_blocks)
    signed = ds.map_batches(SimHash(), batch_format="pyarrow", zero_copy_batch=True, batch_size=None)
    if n_shards == "auto":
        signed, n_shards, max_occ = _simhash_occupancy_shards(
            signed, bands, width, mask, target_run, spill_dir)
        if diag is not None:
            diag["n_shards"] = n_shards
            diag["max_occ"] = max_occ
    n_shards = max(1, int(n_shards))
    n_shard_pairs = n_shards * (n_shards + 1) // 2
    if group_salt is None:
        # bound TOTAL group count (bands x salt x shard-pairs) near ~512:
        # map_groups pays ~1 ms/group python overhead (CLAUDE.md)
        group_salt = max(1, 512 // max(1, bands * n_shard_pairs))

    def band_rows(batch: pa.Table) -> pa.Table:
        if "sh_valid" in batch.column_names:
            valid = batch["sh_valid"].to_numpy(zero_copy_only=False).astype(bool)
        else:  # spilled projection (auto tier) is pre-filtered to valid rows
            valid = np.ones(len(batch), dtype=bool)
        sh = batch["simhash"].to_numpy(zero_copy_only=False)[valid].view(np.uint64)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)[valid]
        n = len(ids)
        # shard from an independent mix of the signature (splitmix64 round)
        z = (sh ^ (sh >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        shard = (z % np.uint64(n_shards)).astype(np.int64)
        out_band, out_key, out_id, out_sh, out_shard, out_tgt = [], [], [], [], [], []
        for b in range(bands):
            chunk = (sh >> np.uint64(b * width)) & mask
            for t in range(n_shards):
                out_band.append(np.full(n, b, dtype=np.int32))
                out_key.append(chunk)
                out_id.append(ids)
                out_sh.append(sh)
                out_shard.append(shard)
                out_tgt.append(np.full(n, t, dtype=np.int64))
        key = np.concatenate(out_key)
        shard_all = np.concatenate(out_shard)
        tgt_all = np.concatenate(out_tgt)
        lo = np.minimum(shard_all, tgt_all)
        hi = np.maximum(shard_all, tgt_all)
        # flatten (gsalt, shard-pair) into ONE group column: pair index in
        # the (lo, hi) triangle = lo*n_shards - lo*(lo-1)/2 + (hi-lo)
        sp = lo * n_shards - (lo * (lo - 1)) // 2 + (hi - lo)
        gslot = (key % np.uint64(group_salt)).astype(np.int64) * n_shard_pairs + sp
        return pa.table(
            {
                "band_id": np.concatenate(out_band),
                # band_key chunks are < 2^width <= 2^16 — int64-safe as-is
                "band_key": key.astype(np.int64),
                "gslot": gslot,
                "shard": shard_all,
                "sp": sp,
                "doc_id": np.concatenate(out_id),
                "simhash": np.concatenate(out_sh).view(np.int64),
            }
        )

    banded = signed.map_batches(band_rows, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)

    # inverse of the sp triangle index, precomputed once
    sp_to_pair = {}
    for lo_s in range(n_shards):
        for hi_s in range(lo_s, n_shards):
            sp_to_pair[lo_s * n_shards - (lo_s * (lo_s - 1)) // 2 + (hi_s - lo_s)] = (lo_s, hi_s)

    def first_band_mask(sig_lo: np.ndarray, sig_hi: np.ndarray, band: int) -> np.ndarray:
        """True where ``band`` is the FIRST band whose chunks are equal —
        the global-dedup rule (each colliding pair has >=1 equal band)."""
        x = sig_lo ^ sig_hi
        first = np.full(len(x), bands, dtype=np.int64)
        for b in range(bands - 1, -1, -1):
            eq = ((x >> np.uint64(b * width)) & mask) == 0
            first[eq] = b
        return first == band

    def pairs(g):
        band = int(g["band_id"].iloc[0]) if hasattr(g, "iloc") else int(g["band_id"][0])
        keys = np.asarray(g["band_key"], dtype=np.int64)
        ids = np.asarray(g["doc_id"], dtype=np.int64)
        shards = np.asarray(g["shard"], dtype=np.int64)
        sh_all = np.asarray(g["simhash"], dtype=np.int64).view(np.uint64)
        si, sj = sp_to_pair[int(g["sp"].iloc[0] if hasattr(g, "iloc") else g["sp"][0])]
        order = np.lexsort((ids, keys))
        starts, ends = _bucket_runs(keys, order)
        sids, ssh, ssh_shard = ids[order], sh_all[order], shards[order]
        id1s, id2s, hds = [], [], []
        counts = ends - starts
        for ri in np.nonzero(counts >= 2)[0]:
            n = int(counts[ri])
            if n > max_bucket:
                _log_bucket_drop("simhash_candidate_pairs", n, max_bucket)
                continue
            sl = slice(starts[ri], ends[ri])
            run_ids, run_sh, run_shard = sids[sl], ssh[sl], ssh_shard[sl]
            if si == sj:
                selA = run_shard == si
                if selA.sum() < 2:
                    continue
                lo, hi, hd = _simhash_blocked_pairs(
                    run_sh[selA], run_ids[selA], run_sh[selA], run_ids[selA],
                    max_hamming, triangular=True)
            else:
                selA, selB = run_shard == si, run_shard == sj
                if not (selA.any() and selB.any()):
                    continue
                lo, hi, hd = _simhash_blocked_pairs(
                    run_sh[selA], run_ids[selA], run_sh[selB], run_ids[selB],
                    max_hamming, triangular=False)
            if len(lo):
                id1s.append(lo)
                id2s.append(hi)
                hds.append(hd)
        if not id1s:
            z = pa.array([], pa.int64())
            return pa.table({"id1": z, "id2": z, "hamming": z})
        lo = np.concatenate(id1s)
        hi = np.concatenate(id2s)
        hd = np.concatenate(hds)
        # emit only in the first colliding band -> globally exactly-once
        # (ids are unique within a group: one row per (doc, band, target))
        sidx = np.argsort(ids)
        sig_sorted, ids_sorted = sh_all[sidx], ids[sidx]
        sig_lo = sig_sorted[np.searchsorted(ids_sorted, lo)]
        sig_hi = sig_sorted[np.searchsorted(ids_sorted, hi)]
        keep = first_band_mask(sig_lo, sig_hi, band)
        return pa.table({"id1": pa.array(lo[keep]), "id2": pa.array(hi[keep]),
                         "hamming": pa.array(hd[keep])})

    return (banded.repartition(_default_shuffle_partitions())
            .groupby(["band_id", "gslot"]).map_groups(pairs, batch_format="pandas"))


# Row count past which ngram_jaccard_pairs' bloom text-pushdown pays for
# itself: the pushdown's fixed cost (probe materialize + distributed bloom
# build + broadcast) is ~1.5 s on this host — about what the re-attach
# shuffle pays to move ~100 MB of unpruned text — while its saving scales
# with the NON-candidate text volume (linear in the corpus; candidates
# grow like near-dup pairs).  Measured: sf0.1 (5k docs) bloom costs ~1.4 s
# net, 10x-decade (50k docs) roughly break-even, so the row proxy for the
# ~100 MB break-even at ~1 KB/doc is 100k rows.
_BLOOM_PUSHDOWN_ROWS = 100_000


def ngram_jaccard_pairs(ds, shingle_k: int = 5, threshold: float = 0.5,
                        num_perm: int = 64, bands: int = 16,
                        max_bucket: int = 1000,
                        bloom_prefilter: bool | str = "auto",
                        approx_rows: int | None = None):
    """n-gram Jaccard near-dup: MinHash-LSH candidates -> texts re-attached
    via a hash-partitioned SHUFFLE JOIN on doc_id (no driver-side corpus
    materialization, no ray.put of the text column) -> exact Jaccard per
    candidate pair.

    Scale shape: the candidate side is tiny (near-dup pairs), the text side
    streams through a hash-partitioned join once; the inner join IS the
    semi-join that drops non-candidate texts.  ``bloom_prefilter`` (r5)
    additionally prunes BEFORE that shuffle: the probe rows
    materialize once (bounded — two narrow rows per candidate pair), a
    distributed bloom of their doc_ids broadcasts via ray.put, and
    non-candidate texts die in a narrow vectorized pass (bloom + exact
    verify, see joins.bloom_semi_join) — at 100 TB only candidate texts
    ever enter the all-to-all.  ``bloom_prefilter="auto"`` (default) turns
    the pushdown on when ``approx_rows`` (pass the input's parquet-FOOTER
    row count, never ``ds.count()``) reaches ``_BLOOM_PUSHDOWN_ROWS``, and
    off below it where the pushdown's fixed cost exceeds the unpruned
    shuffle; the pair set is tier-independent (the bloom is an exact
    prefilter — the verify join still decides membership).  The bucketed
    tier is used rather than
    Dataset.join because this join sits mid-pipeline between two other
    shuffles — the groupby-based bucket join shares the sort-shuffle
    machinery instead of spawning a separate aggregator-actor pool that
    competes for CPUs with the up/downstream stages.  Output: id1 < id2,
    jaccard >= threshold (exact, float64)."""
    from .joins import bucketed_hash_join

    if bloom_prefilter == "auto":
        bloom_prefilter = (approx_rows is not None
                           and approx_rows >= _BLOOM_PUSHDOWN_ROWS)

    # distinct=False: the per-pair verify below already groups by pair, so
    # the candidate-distinct barrier (a full extra all-to-all) is skipped;
    # pairs arrive duplicated once per colliding band (small constant)
    cand = minhash_candidate_pairs(ds, num_perm=num_perm, bands=bands,
                                   shingle_k=shingle_k, distinct=False,
                                   max_bucket=max_bucket)

    # explode each candidate pair into two (doc_id, id1, id2, slot) probe rows
    def explode(b: pa.Table) -> pa.Table:
        id1 = b["id1"].to_numpy(zero_copy_only=False).astype(np.int64)
        id2 = b["id2"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(id1)
        return pa.table(
            {
                "doc_id": np.concatenate([id1, id2]),
                "id1": np.concatenate([id1, id1]),
                "id2": np.concatenate([id2, id2]),
                "slot": np.concatenate(
                    [np.zeros(n, dtype=np.int8), np.ones(n, dtype=np.int8)]
                ),
            }
        )

    probes = cand.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)
    texts = ds.select_columns(["doc_id", "text"])
    i64 = pa.int64()
    probe_schema = pa.schema([("doc_id", i64), ("id1", i64), ("id2", i64), ("slot", pa.int8())])
    text_schema = pa.schema([("doc_id", i64), ("text", pa.string())])
    if bloom_prefilter:
        from .joins import bloom_semi_join

        # materialize the probe rows ONCE (bounded: two narrow rows per
        # candidate pair) — the bloom build AND the verify join both
        # consume them; without this each consumer would re-execute the
        # entire LSH candidate pipeline
        probes = probes.materialize()
        texts = bloom_semi_join(texts, probes, on="doc_id",
                                schemas=(text_schema, probe_schema))
    # static schemas: .schema() on the probes side would re-execute the
    # whole LSH candidate pipeline once more just for the column list
    # buckets ~ CPUs (not the 8x default): this is a small verify join and
    # sort-shuffle fixed cost scales with partition count (stages/agg.py)
    attached = bucketed_hash_join(probes, texts, on="doc_id",
                                  schemas=(probe_schema, text_schema),
                                  buckets=2 * _default_shuffle_partitions())

    # final verify: pairs grouped by a SALT of the pair key (bounded group
    # count — one map_groups call per pair would pay per-group overhead for
    # every candidate), each group verifying its pairs with python set
    # jaccard (texts are short; the candidate set is the small side)
    def add_pair_salt(b: pa.Table) -> pa.Table:
        id1 = b["id1"].to_numpy(zero_copy_only=False)
        id2 = b["id2"].to_numpy(zero_copy_only=False)
        salt = ((id1 * np.int64(31) + id2) * np.int64(2654435761)) % 256
        return b.append_column("psalt", pa.array(salt))

    salted = attached.map_batches(add_pair_salt, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)

    def jac_group(g):
        i1, i2, ns, nu = _pairwise_hash_jaccard(g, shingle_k)
        jac = ns / np.maximum(nu, 1)
        keep = jac >= threshold
        return pa.table({"id1": pa.array(i1[keep]), "id2": pa.array(i2[keep]),
                         "jaccard": pa.array(jac[keep])})

    return salted.groupby("psalt").map_groups(jac_group, batch_format="pandas")


def _pairwise_hash_jaccard(g, shingle_k: int, text_col: str = "text"):
    """Exact per-pair Jaccard counts for one attached pair-probe group.

    Input rows: (id1, id2, slot, text) — slot 0 carries id1's text, slot 1
    id2's.  One vectorized shingle-hash pass per DISTINCT doc in the group
    (docs appear in many pairs; the old per-pair python set-of-substrings
    re-shingled each text once per pair), then each pair is a sorted-int64
    ``np.intersect1d``.  Counts are exact modulo 64-bit hash collisions —
    the same guarantee (and the same tokenizer) as jaccard_similarity_join,
    so the SQL oracle parity carries over.

    Returns (id1, id2, n_shared, n_union) int64 arrays over pairs where
    both texts arrived and the union is non-empty."""
    z = np.zeros(0, np.int64)
    if len(g) == 0:
        return z, z, z, z
    slot = np.asarray(g["slot"])
    id1 = np.asarray(g["id1"]).astype(np.int64)
    id2 = np.asarray(g["id2"]).astype(np.int64)
    did = np.where(slot == 0, id1, id2)
    texts = np.asarray(g[text_col], dtype=object)
    uids, first_idx = np.unique(did, return_index=True)
    hs = _shingle_hashes(pa.array(texts[first_idx], pa.string()), shingle_k)
    toks = [np.unique(h) for h in hs]
    # pair runs carrying BOTH slots (a missing side's text never arrived)
    order = np.lexsort((id2, id1))
    s1, s2, ss = id1[order], id2[order], slot[order]
    first = np.r_[True, (s1[1:] != s1[:-1]) | (s2[1:] != s2[:-1])]
    starts = np.nonzero(first)[0]
    ok = (np.minimum.reduceat(ss, starts) == 0) & \
         (np.maximum.reduceat(ss, starts) == 1)  # runs are never empty
    p1, p2 = s1[starts[ok]], s2[starts[ok]]
    if not len(p1):
        return z, z, z, z
    # per-pair sorted-set intersection; measured FASTER than one giant
    # (pid, token) lexsort-and-count (many small cache-resident sorts beat
    # a single 2-key sort of the full gather — 19 vs 433 ms per group)
    ia = np.searchsorted(uids, p1)
    ib = np.searchsorted(uids, p2)
    ns = np.empty(len(p1), np.int64)
    nu = np.empty(len(p1), np.int64)
    for x, (a_i, b_i) in enumerate(zip(ia, ib)):
        a, b = toks[a_i], toks[b_i]
        inter = np.intersect1d(a, b, assume_unique=True).size
        ns[x] = inter
        nu[x] = a.size + b.size - inter
    sel = nu > 0
    return p1[sel], p2[sel], ns[sel], nu[sel]


def _distinct_doc_tokens(batch: pa.Table, shingle_k: int, id_col: str, text_col: str):
    """(doc_id, tok_hash) DISTINCT pairs for one batch, fully vectorized:
    rolling 64-bit k-gram hashes over the shared utf8 buffer, then one
    lexsort + run mask for the per-document distinct.  Returns
    (doc_ids:int64, toks:int64-bit-viewed, per_row_distinct_counts)."""
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    shingle_lists = _shingle_hashes(batch[text_col], shingle_k)
    n = len(ids)
    lens = np.array([len(s) for s in shingle_lists], dtype=np.int64)
    if n == 0 or lens.sum() == 0:
        z = np.zeros(0, np.int64)
        return z, z, np.zeros(n, np.int64)
    row = np.repeat(np.arange(n), lens)
    toks = np.concatenate([s for s in shingle_lists if len(s)])
    order = np.lexsort((toks, row))
    r, t = row[order], toks[order]
    keep = np.r_[True, (r[1:] != r[:-1]) | (t[1:] != t[:-1])]
    r, t = r[keep], t[keep]
    sz = np.bincount(r, minlength=n).astype(np.int64)
    # int64 bit-view: uint64 > 2^63 breaks Ray's arrow<->python shuffle paths
    return ids[r], t.view(np.int64), sz


def jaccard_similarity_join(ds, shingle_k: int = 5, threshold: float = 0.5,
                            id_col: str = "doc_id", text_col: str = "text",
                            group_salt: int = 256, max_df: int | None = None):
    """EXACT n-gram Jaccard similarity self-join (no LSH approximation):
    distributed inverted-index plan, SQL-oracle-checkable.

    Plan (each arrow is a Dataset stage):
    1. tokens: per batch, distinct k-gram hashes per doc (vectorized rolling
       hash + one lexsort) -> (tok, doc_id, sz) rows; the shuffle key is the
       8-byte token hash, never the token text.  Each token row CARRIES its
       document's distinct-token count ``sz`` (+8 bytes/row) — that one
       column eliminates a second corpus scan and two downstream
       size-reattach joins the previous layout paid (a Dataset consumed by
       two plans re-executes its upstream, so the old separate "sizes" pass
       re-shingled the whole corpus).
    2. pair partials: groupby(tok % group_salt) -> within each salted group,
       sort by (tok, doc_id), detect equal-token runs, emit each run's
       id1<id2 pairs (with their sz1/sz2 riding along) and pre-aggregate
       counts (np.unique) BEFORE the wide shuffle.  Salting bounds the group
       count at ``group_salt`` (one group per raw token would pay ~1 ms/group
       python overhead).
    3. n_shared: salted_group_reduce(id1, id2) -> total sum of cnt, with
       sz1/sz2 carried (pure functions of the key).  Ray's native
       groupby.aggregate measured ~9 s on this stage's ~470k rows / ~31k
       groups; the keyed lexsort+reduceat reduce measures ~0.3 s
       (see stages/agg.py for the measurements).
    4. jaccard = n_shared / (sz1 + sz2 - n_shared) as one int64/int64 double
       division (bit-identical to the SQL oracle's CAST(... AS DOUBLE)/...).

    Exactness caveat: tokens are compared by 64-bit rolling hash; a hash
    collision between two k-grams co-occurring in a doc pair would inflate
    n_shared (probability ~ #tokens^2 / 2^64 — negligible; the text itself
    never rides the shuffle).  ``max_df`` optionally skips tokens shared by
    more than max_df docs WITH A LOGGED DROP (turns the join approximate but
    bounds the run^2 blowup; the exact-at-scale alternative is PPJoin-style
    prefix filtering — see ``jaccard_prefix_pairs``).

    Output: id1 < id2, n_shared, n_union (int64), jaccard (float64) for all
    pairs with jaccard >= threshold.  Reference parity: the window-overlap
    dedup semantics of vlm RasterSourceSpec (overlap detection by shared
    content) generalized to set similarity."""
    from .agg import salted_group_reduce

    def tokens(batch: pa.Table) -> pa.Table:
        dids, toks, sz = _distinct_doc_tokens(batch, shingle_k, id_col, text_col)
        # token rows come out row-major, so each row's sz repeats sz times
        szrep = np.repeat(sz, sz)
        salt = (toks.view(np.uint64) % np.uint64(group_salt)).astype(np.int64)
        return pa.table({"tok": toks, "doc_id": dids,
                         "sz": szrep.astype(np.int64), "gsalt": salt})

    tok_ds = ds.map_batches(tokens, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)

    def pair_partials(g):
        # returns an ARROW table: Ray's sort/aggregate path on pandas-format
        # blocks is ~13x slower (measured 154 s vs 12 s on 470k rows @4 CPUs)
        toks = g["tok"].to_numpy()
        ids = g["doc_id"].to_numpy()
        szs = g["sz"].to_numpy()
        order = np.lexsort((ids, toks))
        starts, ends = _bucket_runs(toks, order)
        sids = ids[order]
        ssz = szs[order]
        counts = ends - starts
        id1s, id2s, s1s, s2s = [], [], [], []
        triu_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for ri in np.nonzero(counts >= 2)[0]:
            m = int(counts[ri])
            if max_df is not None and m > max_df:
                _log_bucket_drop("jaccard_similarity_join", m, max_df)
                continue
            run = sids[starts[ri] : ends[ri]]  # id-sorted within the run
            rsz = ssz[starts[ri] : ends[ri]]
            if m not in triu_cache:
                triu_cache[m] = np.triu_indices(m, k=1)
            ii, jj = triu_cache[m]
            id1s.append(run[ii])
            id2s.append(run[jj])
            s1s.append(rsz[ii])
            s2s.append(rsz[jj])
        if not id1s:
            z = pa.array([], pa.int64())
            return pa.table({"id1": z, "id2": z, "cnt": z, "sz1": z, "sz2": z})
        p1 = np.concatenate(id1s)
        p2 = np.concatenate(id2s)
        q1 = np.concatenate(s1s)
        q2 = np.concatenate(s2s)
        # partial aggregation inside the group: one row per (id1, id2)
        o = np.lexsort((p2, p1))
        a, b = p1[o], p2[o]
        st = np.nonzero(np.r_[True, (a[1:] != a[:-1]) | (b[1:] != b[:-1])])[0]
        cnt = np.diff(np.r_[st, len(a)])
        return pa.table({"id1": pa.array(a[st].astype(np.int64)),
                         "id2": pa.array(b[st].astype(np.int64)),
                         "cnt": pa.array(cnt.astype(np.int64)),
                         "sz1": pa.array(q1[o][st].astype(np.int64)),
                         "sz2": pa.array(q2[o][st].astype(np.int64))})

    pairs = (tok_ds.repartition(_default_shuffle_partitions())
             .groupby("gsalt").map_groups(pair_partials, batch_format="pandas"))
    shared = salted_group_reduce(
        pairs, ["id1", "id2"], [("cnt", "sum", "n_shared")],
        carry=("sz1", "sz2"),
    )

    def finalize(b: pa.Table) -> pa.Table:
        ns = b["n_shared"].to_numpy(zero_copy_only=False).astype(np.int64)
        nu = (b["sz1"].to_numpy(zero_copy_only=False).astype(np.int64)
              + b["sz2"].to_numpy(zero_copy_only=False).astype(np.int64) - ns)
        jac = ns / nu  # int64/int64 -> float64, same IEEE division as SQL
        keep = jac >= threshold
        return pa.table(
            {
                "id1": pa.array(b["id1"].to_numpy(zero_copy_only=False).astype(np.int64)[keep]),
                "id2": pa.array(b["id2"].to_numpy(zero_copy_only=False).astype(np.int64)[keep]),
                "n_shared": pa.array(ns[keep]),
                "n_union": pa.array(nu[keep]),
                "jaccard": pa.array(jac[keep]),
            }
        )

    return shared.map_batches(finalize, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)


def _prefix_rows(dids: np.ndarray, toks: np.ndarray, dfv: np.ndarray,
                 threshold: float, group_salt: int) -> pa.Table:
    """PPJoin prefix selection over co-located (doc, tok, df) rows: sort a
    doc's tokens by (df, tok) ascending and keep only the first
    ``|X| - ceil(t*|X|) + 1`` (the rare-token prefix).  Requires ALL of a
    doc's rows to be present (doc size comes from the run length).  Shared
    by both df-attach tiers."""
    if len(toks) == 0:
        z = np.zeros(0, np.int64)
        return pa.table({"tok": z, "doc_id": z, "gsalt": z})
    o = np.lexsort((toks, dfv, dids))
    d, t = dids[o], toks[o]
    doc_start = np.r_[True, d[1:] != d[:-1]]
    idx = np.arange(len(d))
    start_of_doc = np.maximum.accumulate(np.where(doc_start, idx, 0))
    rank = idx - start_of_doc
    starts = np.nonzero(doc_start)[0]
    lens = np.diff(np.r_[starts, len(d)])
    size_per_row = np.repeat(lens, lens)
    prefix_len = size_per_row - np.ceil(threshold * size_per_row).astype(np.int64) + 1
    keep = rank < prefix_len
    tk, dk = t[keep], d[keep]
    salt = (tk.view(np.uint64) % np.uint64(group_salt)).astype(np.int64)
    return pa.table({"tok": tk, "doc_id": dk, "gsalt": salt})


def jaccard_prefix_pairs(ds, shingle_k: int = 5, threshold: float = 0.5,
                         id_col: str = "doc_id", text_col: str = "text",
                         group_salt: int = 64, pair_salt: int = 256,
                         driver_df_limit: int = 2_000_000, doc_salt: int = 256):
    """EXACT n-gram Jaccard self-join via PPJoin-style PREFIX FILTERING —
    identical results to ``jaccard_similarity_join`` (shares its SQL oracle)
    with a candidate expansion bounded by the rare-token prefix instead of
    the full inverted index.

    Prefix-filter theorem (Chaudhuri/Ganti/Kaushik 2006, Xiao et al. PPJoin
    2008 — public): order all tokens globally; if J(A, B) >= t then the
    first ``|X| - ceil(t*|X|) + 1`` tokens of A and of B (in that order)
    share at least one token.  Ordering by ascending document frequency
    makes those prefixes the RAREST tokens, so candidate pairs per token
    stay small even when the corpus shares a dense common vocabulary.

    Plan:
    1. (tok, doc) distinct pairs -> token df via per-batch partial counts +
       one tiny groupby (one row per DISTINCT token), kept DISTRIBUTED
       (materialized object-store blocks, never concat'ed on the driver);
    2+3. df attach + per-doc prefix selection, TWO TIERS auto-selected on
       the df row count (free metadata after materialize):
       - ``<= driver_df_limit`` rows: broadcast tier — the df table rides
         ray.put once and each batch prefix-selects locally (zero extra
         shuffles);
       - above the bound: bucketed tier — (doc, tok) incidences join the df
         table on ``tok`` (hash-partitioned bucket join), then a doc-salted
         regroup co-locates each doc's tokens for the prefix selection.
         Costs two all-to-alls over the incidence projection but NOTHING is
         ever pulled to the driver (the r3-verdict driver-OOM fix);
    4. salted run-detect pair emission over PREFIX tokens -> distinct
       candidate pairs (complete by the theorem);
    5. exact verify: texts re-attached with a hash-partitioned bucket join,
       true (n_shared, n_union, jaccard) computed per pair from the full
       shingle sets, threshold applied.

    Output: id1 < id2, n_shared, n_union (int64), jaccard (float64).

    Measured on the synthetic sf0.01 corpus (500 docs, one shared small
    vocabulary — the WORST case for prefix filtering): pair-incidence
    shuffle volume drops 8.8x (7.77M -> 886k rows) while distinct
    candidates barely shrink (124.7k -> 114.7k, everything truly shares
    prefix tokens), so wall time is verify-bound here.  On Zipfian
    real-text corpora the candidate set collapses instead — that regime is
    what this operator exists for."""
    import ray

    from .joins import bucketed_hash_join

    # --- stage 1+2: global token document frequencies -----------------------
    def tok_partials(batch: pa.Table) -> pa.Table:
        _d, toks, _sz = _distinct_doc_tokens(batch, shingle_k, id_col, text_col)
        u, c = np.unique(toks, return_counts=True)
        return pa.table({"tok": pa.array(u), "pdf": pa.array(c.astype(np.int64))})

    from .agg import salted_group_reduce

    df_ds = salted_group_reduce(
        ds.map_batches(tok_partials, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        ["tok"], [("pdf", "sum", "df")],
    )
    # distributed materialization: blocks stay in the object store (spillable)
    # and count() is then free metadata — the tier switch never scans twice
    df_mat = df_ds.materialize()
    n_df = df_mat.count()
    i64 = pa.int64()

    if n_df <= driver_df_limit:
        # --- broadcast tier: bounded driver pull + ray.put ------------------
        df_tbl = pa.concat_tables(
            list(df_mat.iter_batches(batch_size=None, batch_format="pyarrow"))
            or [pa.table({"tok": pa.array([], i64), "df": pa.array([], i64)})])
        toks_sorted = df_tbl["tok"].to_numpy(zero_copy_only=False).astype(np.int64)
        dfs_sorted = df_tbl["df"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(toks_sorted)
        df_ref = ray.put((toks_sorted[order], dfs_sorted[order]))

        def prefix_tokens(batch: pa.Table) -> pa.Table:
            tok_keys, tok_dfs = ray.get(df_ref)
            dids, toks, _sz = _distinct_doc_tokens(batch, shingle_k, id_col, text_col)
            if len(toks) == 0:
                return _prefix_rows(toks, toks, toks, threshold, group_salt)
            dfv = tok_dfs[np.searchsorted(tok_keys, toks)]
            return _prefix_rows(dids, toks, dfv, threshold, group_salt)

        pref = ds.map_batches(prefix_tokens, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)
    else:
        # --- bucketed tier: df joins the incidence table on tok -------------
        def incid(batch: pa.Table) -> pa.Table:
            dids, toks, _sz = _distinct_doc_tokens(batch, shingle_k, id_col, text_col)
            return pa.table({"doc_id": pa.array(dids), "tok": pa.array(toks)})

        inc_ds = ds.map_batches(incid, batch_format="pyarrow",
                                zero_copy_batch=True, batch_size=None)
        joined = bucketed_hash_join(
            inc_ds, df_mat, on="tok",
            schemas=(pa.schema([("doc_id", i64), ("tok", i64)]),
                     pa.schema([("tok", i64), ("df", i64)])),
        )

        def add_dsalt(b: pa.Table) -> pa.Table:
            d = b["doc_id"].to_numpy(zero_copy_only=False)
            salt = ((d * np.int64(2654435761)) % np.int64(doc_salt)).astype(np.int64)
            return b.append_column("dsalt", pa.array(np.abs(salt)))

        def prefix_sel(g):
            dids = np.asarray(g["doc_id"], dtype=np.int64)
            toks = np.asarray(g["tok"], dtype=np.int64)
            dfv = np.asarray(g["df"], dtype=np.int64)
            return _prefix_rows(dids, toks, dfv, threshold, group_salt)

        pref = (joined.map_batches(add_dsalt, batch_format="pyarrow",
                                   zero_copy_batch=True, batch_size=None)
                .repartition(_default_shuffle_partitions())
                .groupby("dsalt").map_groups(prefix_sel, batch_format="pandas"))

    # --- stage 4: candidate pairs from prefix-token runs ---------------------
    def cand_pairs(g):
        toks = g["tok"].to_numpy()
        ids = g["doc_id"].to_numpy()
        o = np.lexsort((ids, toks))
        starts, ends = _bucket_runs(toks, o)
        sids = ids[o]
        counts = ends - starts
        id1s, id2s = [], []
        cache: dict[int, tuple] = {}
        for ri in np.nonzero(counts >= 2)[0]:
            m = int(counts[ri])
            run = sids[starts[ri] : ends[ri]]
            if m not in cache:
                cache[m] = np.triu_indices(m, k=1)
            ii, jj = cache[m]
            id1s.append(run[ii])
            id2s.append(run[jj])
        if not id1s:
            z = pa.array([], pa.int64())
            return pa.table({"id1": z, "id2": z})
        p1 = np.concatenate(id1s)
        p2 = np.concatenate(id2s)
        # in-group distinct: exact (sorted run mask), no hash-collision risk
        oo = np.lexsort((p2, p1))
        a, b = p1[oo], p2[oo]
        first = np.r_[True, (a[1:] != a[:-1]) | (b[1:] != b[:-1])]
        return pa.table({"id1": pa.array(a[first]), "id2": pa.array(b[first])})

    cand = salted_group_reduce(
        pref.repartition(_default_shuffle_partitions())
        .groupby("gsalt").map_groups(cand_pairs, batch_format="pandas"),
        ["id1", "id2"], [(None, "count", "_nb")],  # global distinct
    )

    # --- stage 5: exact verify via text re-attach ----------------------------
    def explode(b: pa.Table) -> pa.Table:
        id1 = b["id1"].to_numpy(zero_copy_only=False).astype(np.int64)
        id2 = b["id2"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(id1)
        return pa.table(
            {
                "doc_id": np.concatenate([id1, id2]),
                "id1": np.concatenate([id1, id1]),
                "id2": np.concatenate([id2, id2]),
                "slot": np.concatenate([np.zeros(n, np.int8), np.ones(n, np.int8)]),
            }
        )

    probes = cand.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)
    texts = ds.select_columns([id_col, text_col])
    i64 = pa.int64()
    attached = bucketed_hash_join(
        probes,
        texts,
        on="doc_id",
        # static schemas — .schema() would re-run the prefix/candidate plan
        schemas=(
            pa.schema([("doc_id", i64), ("id1", i64), ("id2", i64), ("slot", pa.int8())]),
            pa.schema([("doc_id", i64), (text_col, pa.string())]),
        ),
        # small verify join: buckets ~ CPUs, not the 8x large-join default
        buckets=2 * _default_shuffle_partitions(),
    )

    def add_pair_salt(b: pa.Table) -> pa.Table:
        id1 = b["id1"].to_numpy(zero_copy_only=False)
        id2 = b["id2"].to_numpy(zero_copy_only=False)
        salt = ((id1 * np.int64(31) + id2) * np.int64(2654435761)) % pair_salt
        return b.append_column("psalt", pa.array(salt))

    salted = attached.map_batches(add_pair_salt, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)

    def verify(g):
        i1, i2, ns, nu = _pairwise_hash_jaccard(g, shingle_k, text_col)
        jac = ns / nu  # int64/int64 -> float64, same IEEE division as SQL
        keep = jac >= threshold
        return pa.table(
            {
                "id1": pa.array(i1[keep]),
                "id2": pa.array(i2[keep]),
                "n_shared": pa.array(ns[keep]),
                "n_union": pa.array(nu[keep]),
                "jaccard": pa.array(jac[keep]),
            }
        )

    return salted.groupby("psalt").map_groups(verify, batch_format="pandas")


class MultiBandHyperplaneLSH:
    """Banded random-hyperplane signatures — ``n_bands`` independent hash
    tables of ``n_planes`` planes each (2^n_planes buckets per band).  A
    near-dup pair collides in >=1 band with high probability; each band's
    bucket space is 2^n_planes (>= 2^12 by default), so no bucket holds a
    constant fraction of the corpus the way a single-table 2^4 layout did.
    Plane matrices are seed-fixed and sized for one embedding dimension
    ``dim``."""

    def __init__(self, dim: int, n_planes: int = 12, n_bands: int = 4, seed: int = 42):
        self.n_planes = n_planes
        rng = np.random.default_rng(seed)
        self._planes = [rng.standard_normal((dim, n_planes)) for _ in range(n_bands)]

    def __call__(self, batch: pa.Table, emb: np.ndarray) -> pa.Table:
        """``emb``: the batch's (n, dim) embedding matrix, n >= 1."""
        weights = 1 << np.arange(self.n_planes, dtype=np.int64)
        outs = []
        for b, planes in enumerate(self._planes):
            bucket = ((emb @ planes) > 0).astype(np.int64) @ weights
            outs.append(
                pa.table(
                    {
                        "vec_id": batch["vec_id"],
                        "embedding": batch["embedding"],
                        "band": pa.array(np.full(len(batch), b, dtype=np.int32)),
                        "bucket": pa.array(bucket),
                    }
                )
            )
        return pa.concat_tables(outs)


def _lsh_buckets(ds, namespace: str, params: tuple, make_sketcher):
    """Banded LSH bucket rows in plain tasks.  The sketcher's planes are
    sized from the data, so it is built once per worker process AND
    embedding dimension (``make_sketcher(dim)``)."""
    from ..util import worker_cached
    from .ann import _embedding_matrix

    def bucket_rows(batch: pa.Table) -> pa.Table:
        emb = _embedding_matrix(batch["embedding"])
        if emb.shape[0] == 0:
            return pa.table({
                "vec_id": batch["vec_id"],
                "embedding": batch["embedding"],
                "band": pa.array([], pa.int32()),
                "bucket": pa.array([], pa.int64()),
            })
        dim = emb.shape[1]
        sk = worker_cached(namespace, params + (dim,), lambda: make_sketcher(dim))
        return sk(batch, emb)

    return ds.map_batches(bucket_rows, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=None)


def embedding_neardup_pairs(ds, threshold: float = 0.95, id_col: str = "vec_id",
                            n_planes: int = 12, n_bands: int = 4, max_bucket: int = 2000):
    """Embedding-cosine near-dup: multi-band hyperplane LSH (n_bands tables x
    2^n_planes buckets) -> within-(band,bucket) exact cosine (float64) ->
    distinct pairs above threshold (max cosine across bands).

    Over-cap buckets are skipped with a LOGGED drop (never silent); shuffle
    payload is n_bands copies of (id, embedding, band, bucket).
    Output: id1 < id2, cosine."""
    bucketed = _lsh_buckets(ds, "dedup.hyperplane_lsh", (n_planes, n_bands),
                            lambda dim: MultiBandHyperplaneLSH(dim, n_planes, n_bands))

    def pairs(g):
        ids = g[id_col].to_numpy()
        order = np.argsort(ids)
        ids = ids[order]
        if len(ids) < 2 or len(ids) > max_bucket:
            if len(ids) > max_bucket:
                _log_bucket_drop("embedding_neardup_pairs", len(ids), max_bucket)
            z = pa.array([], pa.int64())
            return pa.table({"id1": z, "id2": z, "cosine": pa.array([], pa.float64())})
        emb = np.stack(g["embedding"].to_numpy())[order].astype(np.float64)
        norms = np.linalg.norm(emb, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        sims = (emb / norms) @ (emb / norms).T
        ii, jj = np.triu_indices(len(ids), k=1)
        keep = sims[ii, jj] >= threshold
        return pa.table({"id1": pa.array(ids[ii][keep].astype(np.int64)),
                         "id2": pa.array(ids[jj][keep].astype(np.int64)),
                         "cosine": pa.array(sims[ii, jj][keep])})

    cand = (bucketed.repartition(_default_shuffle_partitions())
            .groupby(["band", "bucket"]).map_groups(pairs, batch_format="pandas"))

    # distinct across bands: a true pair can collide in several bands
    # (max-of-max per pair; same cosine value wherever the pair collides)
    def pre(b: pa.Table) -> pa.Table:
        g = b.group_by(["id1", "id2"], use_threads=False).aggregate([("cosine", "max")])
        return g.rename_columns(["id1", "id2", "cosine"])

    from .agg import salted_group_reduce

    return salted_group_reduce(
        cand.map_batches(pre, batch_format="pyarrow", zero_copy_batch=True, batch_size=None),
        ["id1", "id2"], [("cosine", "max", "cosine")],
    )


# --- exact-arithmetic embedding near-dup (oracle-checkable variant) --------
# Embeddings are quantized to integers (floor(e * 2^20) — floor, not round:
# numpy rounds half-even, DuckDB half-away) and the LSH planes are integer
# lattice vectors, so bucket signs, dot products and the threshold decision
# are EXACT integer math that generated SQL replays bit-for-bit.  The float
# variant above remains the general operator; this one trades the metric's
# last ~1e-6 of precision for a hash-checkable contract.
EMBED_Q_SCALE = 1 << 20
PLANE_LO, PLANE_HI = -1000, 1001  # rng.integers bounds (hi exclusive)


def quantize_embeddings(emb: np.ndarray) -> np.ndarray:
    """float (n, d) -> int64 floor(e * 2^20); float32 inputs promote to
    float64 exactly, and one float64 multiply + floor is bit-identical in
    numpy and DuckDB."""
    return np.floor(emb.astype(np.float64) * float(EMBED_Q_SCALE)).astype(np.int64)


def integer_planes(dim: int, n_planes: int, n_bands: int, seed: int = 42) -> list[np.ndarray]:
    """Seed-fixed integer hyperplanes, band-ordered — the same list the SQL
    generator embeds as a VALUES table."""
    rng = np.random.default_rng(seed)
    return [rng.integers(PLANE_LO, PLANE_HI, size=(dim, n_planes)).astype(np.int64)
            for _ in range(n_bands)]


class QuantizedMultiBandLSH(MultiBandHyperplaneLSH):
    """MultiBandHyperplaneLSH with integer planes over quantized embeddings:
    bucket bit j of band b = sign(sum_i q_i * plane[b][i, j]) — exact."""

    def __init__(self, dim: int, n_planes: int = 6, n_bands: int = 6, seed: int = 42):
        self.n_planes = n_planes
        self._planes = integer_planes(dim, n_planes, n_bands, seed)

    def __call__(self, batch: pa.Table, emb: np.ndarray) -> pa.Table:
        return super().__call__(batch, quantize_embeddings(emb))


def embedding_neardup_pairs_exact(ds, threshold_num: int = 9, threshold_den: int = 100,
                                  id_col: str = "vec_id", n_planes: int = 6,
                                  n_bands: int = 6, max_bucket: int = 2000):
    """Embedding-cosine near-dup with an EXACT integer contract: candidate
    buckets from :class:`QuantizedMultiBandLSH`, per-bucket quantized dot
    products, and the cosine threshold decided as
    ``dot > 0 AND dot^2 * threshold_den >= threshold_num * d1 * d2``
    (threshold^2 = num/den; dot^2 needs >64 bits, so the boundary test runs
    in Python ints over the candidate pairs only — buckets are capped).

    Output: id1 < id2, dot_q, d1, d2 — all int64, hash-comparable against
    the generated DuckDB twin.  Over-cap buckets are logged drops, same
    policy as the float variant.  The sketcher's state is PURE DERIVED
    (seed-fixed integer planes), built once per worker process."""
    bucketed = _lsh_buckets(ds, "dedup.quantized_lsh", (n_planes, n_bands),
                            lambda dim: QuantizedMultiBandLSH(dim, n_planes, n_bands))

    def pairs(g):
        ids = g[id_col].to_numpy()
        order = np.argsort(ids)
        ids = ids[order]
        z = pa.array([], pa.int64())
        empty = pa.table({"id1": z, "id2": z, "dot_q": z, "d1": z, "d2": z})
        if len(ids) < 2 or len(ids) > max_bucket:
            if len(ids) > max_bucket:
                _log_bucket_drop("embedding_neardup_pairs_exact", len(ids), max_bucket)
            return empty
        emb = np.stack(g["embedding"].to_numpy())[order]
        q = quantize_embeddings(np.asarray(emb, dtype=np.float64))
        dots = q @ q.T                      # <= dim * (2^20 * |e|)^2 < 2^45
        d = (q * q).sum(axis=1)
        ii, jj = np.triu_indices(len(ids), k=1)
        dp = dots[ii, jj]
        pos = dp > 0
        ii, jj, dp = ii[pos], jj[pos], dp[pos]
        if len(dp) == 0:
            return empty
        # exact boundary test in python ints (dot^2 overflows int64)
        d1v, d2v = d[ii], d[jj]
        keep = np.fromiter(
            (int(a) * int(a) * threshold_den >= threshold_num * int(x) * int(y)
             for a, x, y in zip(dp, d1v, d2v)),
            dtype=bool, count=len(dp))
        return pa.table({
            "id1": pa.array(ids[ii][keep].astype(np.int64)),
            "id2": pa.array(ids[jj][keep].astype(np.int64)),
            "dot_q": pa.array(dp[keep].astype(np.int64)),
            "d1": pa.array(d1v[keep].astype(np.int64)),
            "d2": pa.array(d2v[keep].astype(np.int64)),
        })

    cand = (bucketed.repartition(_default_shuffle_partitions())
            .groupby(["band", "bucket"]).map_groups(pairs, batch_format="pandas"))

    # distinct across bands (values are identical wherever a pair collides)
    def pre(b: pa.Table) -> pa.Table:
        g = b.group_by(["id1", "id2"], use_threads=False).aggregate(
            [("dot_q", "min"), ("d1", "min"), ("d2", "min")])
        return g.rename_columns(["id1", "id2", "dot_q", "d1", "d2"])

    from .agg import salted_group_reduce

    return salted_group_reduce(
        cand.map_batches(pre, batch_format="pyarrow", zero_copy_batch=True, batch_size=None),
        ["id1", "id2"],
        [("dot_q", "min", "dot_q"), ("d1", "min", "d1"), ("d2", "min", "d2")],
    )


_POPCNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def contamination_check(ds, bench_ds, shingle_k: int = 8,
                        id_col: str = "doc_id", text_col: str = "text"):
    """Benchmark-contamination check: for every corpus document, how many of
    its distinct byte k-grams appear in a BENCHMARK set — the eval-leak scan
    every pretraining pipeline runs before training.

    Scale shape: the benchmark side is dimension-shaped by definition
    (eval suites are MBs, the corpus is TBs) — its distinct k-gram hashes
    are collected once and broadcast via ``ray.put``; the corpus side is one
    narrow vectorized pass (rolling-hash shingles + one ``searchsorted`` per
    batch), no shuffle at all.  Comparison domain: 64-bit rolling hashes of
    byte k-grams — on ASCII text identical to distinct ``substr(text,i,k)``
    membership (the SQL oracle's domain) up to a ~2^-64 collision.

    Output: (id_col, n_grams, n_hits) int64 — one row per corpus doc with at
    least one k-gram; ``n_hits / n_grams`` is the contamination fraction."""
    import ray

    def bench_tok(b: pa.Table) -> pa.Table:
        _d, toks, _s = _distinct_doc_tokens(b, shingle_k, id_col, text_col)
        return pa.table({"tok": pa.array(np.unique(toks))})

    bt = bench_ds.map_batches(bench_tok, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)
    parts = [b["tok"].to_numpy(zero_copy_only=False)
             for b in bt.iter_batches(batch_size=None, batch_format="pyarrow")]
    bench_sorted = (np.unique(np.concatenate(parts)) if parts
                    else np.zeros(0, np.int64))
    ref = ray.put(bench_sorted)

    def score(b: pa.Table) -> pa.Table:
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        _dids, toks, sz = _distinct_doc_tokens(b, shingle_k, id_col, text_col)
        bench = ray.get(ref)
        if len(bench) and len(toks):
            idx = np.searchsorted(bench, toks)
            hit = (idx < len(bench)) & (bench[np.minimum(idx, len(bench) - 1)] == toks)
        else:
            hit = np.zeros(len(toks), dtype=bool)
        row = np.repeat(np.arange(len(ids)), sz)
        nh = np.bincount(row, weights=hit, minlength=len(ids)).astype(np.int64)
        keep = sz > 0
        return pa.table({
            id_col: pa.array(ids[keep]),
            "n_grams": pa.array(sz[keep]),
            "n_hits": pa.array(nh[keep]),
        })

    return ds.map_batches(score, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=None)


# ---------------------------------------------------------------------------
# Exact substring-duplication pairs (the suffix-array dedup's distributed
# stand-in: Lee et al. 2021, "Deduplicating Training Data Makes Language
# Models Better" — exact contiguous duplication, not shingle-set similarity)
# ---------------------------------------------------------------------------


def _substring_windows(b: pa.Table, *, win: int, stride: int,
                       id_col: str = "doc_id", text_col: str = "text") -> pa.Table:
    """Per-batch kernel: (doc_id, g) rows — every FULL ``win``-char window at
    offsets 0, stride, 2*stride... (windows shorter than ``win`` are NOT
    emitted, unlike pack.chunk_batch_table's trailing chunks), DISTINCT per
    document (a doc's rows live in one batch, so in-batch distinct is global
    distinct).  ASCII fast path gathers straight from the shared utf8
    buffer; non-ASCII rows fall back to per-row char slicing (SQL substr
    counts characters)."""
    out_schema = pa.schema([(id_col, pa.int64()), ("g", pa.string())])
    if len(b) == 0:
        return out_schema.empty_table()
    arr = b[text_col].combine_chunks()
    ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    # null texts: utf8_length yields null -> NaN -> INT64_MIN after astype,
    # which would wrap the fast path's window count to ~5.8e17 — zero them
    char_lens = np.nan_to_num(
        pc.utf8_length(arr).to_numpy(zero_copy_only=False).astype(np.float64), nan=0.0
    ).astype(np.int64)
    byte_lens = np.nan_to_num(
        pc.binary_length(arr).to_numpy(zero_copy_only=False).astype(np.float64), nan=0.0
    ).astype(np.int64)
    if not np.array_equal(char_lens, byte_lens):
        rows_id, rows_g = [], []
        for i, t in enumerate(arr.to_pylist()):
            t = t or ""
            seen = set()
            for o in range(0, len(t) - win + 1, stride):
                g = t[o:o + win]
                if g not in seen:
                    seen.add(g)
                    rows_id.append(int(ids[i]))
                    rows_g.append(g)
        return pa.table({id_col: pa.array(rows_id, pa.int64()),
                         "g": pa.array(rows_g, pa.string())})
    width = 8 if pa.types.is_large_string(arr.type) else 4
    offs = np.frombuffer(arr.buffers()[1],
                         np.int64 if width == 8 else np.int32,
                         count=len(arr) + 1, offset=arr.offset * width).astype(np.int64)
    data = np.frombuffer(arr.buffers()[2], np.uint8) if arr.buffers()[2] is not None else np.zeros(0, np.uint8)
    n_win = np.maximum((char_lens - win) // stride + 1, 0)
    total = int(n_win.sum())
    if total == 0:
        return out_schema.empty_table()
    row = np.repeat(np.arange(len(ids), dtype=np.int64), n_win)
    k = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(n_win) - n_win, n_win)
    starts = offs[row] + k * stride
    # int32 gather indices: block byte offsets < 2^31 by construction, and
    # the (W, win) index matrix is the kernel's largest transient — int64
    # doubles it for nothing
    gather = (starts[:, None] + np.arange(win, dtype=np.int64)[None, :]).astype(np.int32)
    wbytes = data[gather]                          # (W, win) uint8
    new_offs = np.arange(total + 1, dtype=np.int32) * win
    g_arr = pa.StringArray.from_buffers(
        total, pa.py_buffer(new_offs.tobytes()), pa.py_buffer(wbytes.tobytes()))
    t = pa.table({id_col: pa.array(ids[row]), "g": g_arr})
    # exact distinct per (doc, window) via Arrow's C++ string hash
    return t.group_by([id_col, "g"], use_threads=False).aggregate([]).select([id_col, "g"])


def substring_match_pairs(ds, win: int = 32, stride: int = 16,
                          group_salt: int = 64, max_bucket: int | None = None,
                          id_col: str = "doc_id", text_col: str = "text"):
    """Doc pairs sharing >= 1 exact ``win``-char substring window (stride
    grid), with the shared-window count: (id1, id2, n_grams), id1 < id2.

    Scale shape: narrow window extraction (distinct per doc) -> window
    strings salted by hash(g) % group_salt (equal windows co-locate, group
    COUNT stays bounded) -> vectorized equal-g run detection + triu pair
    emission with IN-GROUP partial pair counts -> keyed total sum.
    Exactness: grouping/verification is on the window STRING (Arrow/numpy
    equality), never only its hash — no false pairs from hash collisions.
    ``max_bucket=None`` (the default) emits EVERY pair so the operator
    stays exact against its SQL oracle; pass an int to cap a window's
    member count at scale (a window shared by n docs emits n^2/2 pairs) —
    dropped windows are logged, and the output is then a recall-limited
    candidate set, not the exact pair relation.
    Partitioning assumption: one salted group's window rows fit a worker
    (scale ``group_salt`` with the corpus)."""
    from .agg import salted_group_reduce
    from .text import hash_utf8_array

    w = ds.map_batches(
        lambda b: _substring_windows(b, win=win, stride=stride,
                                     id_col=id_col, text_col=text_col),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None)

    def add_salt(b: pa.Table) -> pa.Table:
        gh = hash_utf8_array(b["g"])
        salt = (gh.view(np.uint64) % np.uint64(group_salt)).astype(np.int64)
        return b.append_column("gsalt", pa.array(salt))

    salted = w.map_batches(add_salt, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None)
    salted = salted.repartition(_default_shuffle_partitions())

    def pairs(gdf):
        ids = gdf[id_col].to_numpy().astype(np.int64)
        gs = gdf["g"].to_numpy()
        order = np.lexsort((ids, gs))
        gso, ido = gs[order], ids[order]
        starts = np.nonzero(np.r_[True, gso[1:] != gso[:-1]])[0]
        ends = np.r_[starts[1:], len(gso)]
        counts = ends - starts
        id1s, id2s = [], []
        # iterate only runs with >= 2 members (most stride windows are
        # unique — a python step per singleton is the per-group overhead
        # CLAUDE.md warns about); cap pathological hot windows like minhash
        for ri in np.nonzero(counts >= 2)[0]:
            n = int(counts[ri])
            if max_bucket is not None and n > max_bucket:
                _log_bucket_drop("substring_match_pairs", n, max_bucket)
                continue
            run = ido[starts[ri]:ends[ri]]
            ii, jj = np.triu_indices(n, k=1)
            id1s.append(run[ii])
            id2s.append(run[jj])
        if not id1s:
            z = pa.array([], pa.int64())
            return pa.table({"id1": z, "id2": z, "pn": z})
        p = pa.table({"id1": pa.array(np.concatenate(id1s)),
                      "id2": pa.array(np.concatenate(id2s))})
        # in-group partial count per pair (a pair repeats once per shared g)
        g = p.group_by(["id1", "id2"], use_threads=False).aggregate([([], "count_all")])
        return pa.table({"id1": g["id1"], "id2": g["id2"],
                         "pn": g["count_all"].cast(pa.int64())})

    partials = salted.groupby("gsalt").map_groups(pairs, batch_format="pandas")
    return salted_group_reduce(partials, ["id1", "id2"],
                               [("pn", "sum", "n_grams")])


# ---------------------------------------------------------------------------
# cross-document paragraph dedup (CCNet/Dolma-style line dedup)
# ---------------------------------------------------------------------------


_IDX_BITS = 20  # chunk_idx < 2^20 guard -> the owner key packs into int64


def _chunk_rows(batch: pa.Table, k_tokens: int, id_col: str, text_col: str,
                who: str) -> pa.Table:
    """Split every non-NULL doc into fixed ``k_tokens``-token chunks: one
    row (owner = doc_id << 20 | chunk_idx, n_total, chunk) per chunk.

    pc.split_pattern flattens the batch once, the chunk token lists are one
    take over the flat tokens, and pc.binary_join materializes the chunk
    strings in one kernel."""
    texts = as_array(batch[text_col])
    valid = pc.is_valid(texts).to_numpy(zero_copy_only=False)
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)[valid]
    texts = texts.filter(pa.array(valid))
    n = len(texts)
    if n == 0:
        return pa.table({"owner": pa.array([], pa.int64()),
                         "n_total": pa.array([], pa.int64()),
                         "chunk": pa.array([], pa.string())})
    flat, doc_offs = _split_tokens(texts)
    n_chunks = -(-np.diff(doc_offs) // k_tokens)  # ceil; >= 1 (split of '' -> [''])
    if (n_chunks >= (1 << _IDX_BITS)).any():
        raise ValueError(
            f"{who}: a document has >= 2^{_IDX_BITS} chunks — raise "
            "_IDX_BITS (the packed owner key) for this corpus")
    total_chunks = int(n_chunks.sum())
    # chunk list offsets over the FLAT token child: every k-th token
    # boundary within each doc plus the doc end
    starts = np.repeat(doc_offs[:-1], n_chunks)
    within = np.arange(total_chunks) - np.repeat(
        np.cumsum(n_chunks) - n_chunks, n_chunks)
    chunk_starts = starts + within * k_tokens
    # chunk ends: k tokens on, clamped at the doc's token end
    ends = np.minimum(chunk_starts + k_tokens,
                      np.repeat(doc_offs[1:], n_chunks))
    # chunk token lists as one take over the flat token child (ListArray
    # offsets must be monotone, which raw (start, end) pairs are not
    # across doc boundaries)
    lens = ends - chunk_starts
    tot = int(lens.sum())
    take_idx = np.repeat(chunk_starts, lens) + (
        np.arange(tot) - np.repeat(np.cumsum(lens) - lens, lens))
    chunks = _join_tokens(flat.take(pa.array(take_idx, pa.int64())),
                          np.r_[0, np.cumsum(lens)])
    owner = (np.repeat(ids, n_chunks) << np.int64(_IDX_BITS)) | within.astype(np.int64)
    return pa.table({
        "owner": pa.array(owner),
        "n_total": pa.array(np.repeat(n_chunks, n_chunks).astype(np.int64)),
        "chunk": chunks,
    })


def _first_chunks(ds, k_tokens: int, id_col: str, text_col: str, who: str,
                  finish=None):
    """The chunk rows through the keep-first shuffle: runs are EXACT chunk
    texts (the hash only routes, so 64-bit collisions cannot merge distinct
    chunks) and the corpus-first copy — min (doc_id, chunk_idx) — wins."""
    return _keep_first_rows(
        [(ds, lambda b: _chunk_rows(b, k_tokens, id_col, text_col, who))],
        ("owner",), key="chunk", finish=finish)


def paragraph_dedup(ds, k_tokens: int = 10, id_col: str = "doc_id",
                    text_col: str = "text"):
    """CCNet/Dolma-style CROSS-DOCUMENT paragraph dedup: segment every doc
    into fixed ``k_tokens``-token chunks (the deterministic stand-in for
    paragraph/line splits on a newline-free corpus), drop every chunk whose
    exact text already occurred earlier in the corpus (first occurrence by
    (doc_id, chunk_idx) wins), and reassemble each doc from its surviving
    chunks in order.

    Scale shape — two shuffles, both on the chunk projection:
    1. the keep-first chunk shuffle (_first_chunks);
    2. survivors regroup on a bounded doc salt; per doc the chunks are
       rejoined in chunk_idx order via one vectorized ListArray
       binary_join per group — no per-row python string building.

    Output: (doc_id, clean_text, n_kept, n_total); docs whose every chunk
    was dropped do not appear (same GROUP-BY-survivors semantics as the
    SQL twin).  Null texts are excluded on both engines."""
    kept = _first_chunks(ds, k_tokens, id_col, text_col, "paragraph_dedup")

    def add_dsalt(b: pa.Table) -> pa.Table:
        doc = (b["owner"].to_numpy(zero_copy_only=False) >> np.int64(_IDX_BITS))
        salt = ((doc * np.int64(2654435761)) % np.int64(256)).astype(np.int64)
        return b.append_column("_dsalt", pa.array(salt))

    def reassemble(g: pa.Table) -> pa.Table:
        if len(g) == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "clean_text": pa.array([], pa.string()),
                             "n_kept": pa.array([], pa.int64()),
                             "n_total": pa.array([], pa.int64())})
        g = g.sort_by([("owner", "ascending")])  # (doc, chunk_idx) order
        owner = g["owner"].to_numpy(zero_copy_only=False)
        doc = owner >> np.int64(_IDX_BITS)
        starts = np.nonzero(np.r_[True, doc[1:] != doc[:-1]])[0]
        lens = np.diff(np.r_[starts, len(doc)])
        n_tot = g["n_total"].to_numpy(zero_copy_only=False)[starts]
        return pa.table({
            "doc_id": pa.array(doc[starts]),
            "clean_text": _join_tokens(as_array(g["chunk"]),
                                       np.r_[0, np.cumsum(lens)]),
            "n_kept": pa.array(lens.astype(np.int64)),
            "n_total": pa.array(n_tot.astype(np.int64)),
        })

    salted = kept.map_batches(add_dsalt, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)
    return salted.groupby("_dsalt").map_groups(reassemble, batch_format="pyarrow")


def paragraph_dup_ratio(ds, k_tokens: int = 10, drop_above: float | None = None,
                        id_col: str = "doc_id", text_col: str = "text"):
    """Dolma-style FUZZY document dedup signal: per doc, the fraction of its
    ``k_tokens``-token chunks whose exact text occurs in some OTHER document
    (or earlier in this one).  ``drop_above`` filters docs whose ratio
    exceeds the threshold (the usual pipeline gate); None returns the scored
    table for downstream policy.

    Same keep-first chunk shuffle as paragraph_dedup, but each bucket only
    emits per-doc (n_chunks, n_dup) partials — a chunk is a dup when it is
    not its run's first — so the second shuffle moves (doc_id, counts)
    rows and chunk text never travels twice.
    Output: doc_id, n_chunks, n_dup_chunks, dup_ratio (n_dup/n int-division
    avoided: emitted as exact int64 counts + one float64 division, the same
    expression as the SQL twin)."""
    from .agg import salted_group_reduce

    def doc_partials(g: pa.Table, first: np.ndarray) -> pa.Table:
        is_dup = np.ones(len(g), np.int64)
        is_dup[first] = 0
        doc = g["owner"].to_numpy() >> np.int64(_IDX_BITS)
        docs, inv, n = np.unique(doc, return_inverse=True, return_counts=True)
        return pa.table({"doc_id": pa.array(docs, pa.int64()),
                         "pn": pa.array(n.astype(np.int64)),
                         "pd": pa.array(np.bincount(inv, is_dup, len(docs))
                                        .astype(np.int64))})

    partials = _first_chunks(ds, k_tokens, id_col, text_col,
                             "paragraph_dup_ratio", finish=doc_partials)
    scored = salted_group_reduce(
        partials, ["doc_id"],
        [("pn", "sum", "n_chunks"), ("pd", "sum", "n_dup_chunks")])

    def finish(b: pa.Table) -> pa.Table:
        nn = b["n_chunks"].to_numpy(zero_copy_only=False).astype(np.int64)
        nd = b["n_dup_chunks"].to_numpy(zero_copy_only=False).astype(np.int64)
        ratio = nd / np.maximum(nn, 1)
        out = pa.table({"doc_id": b["doc_id"],
                        "n_chunks": pa.array(nn),
                        "n_dup_chunks": pa.array(nd),
                        "dup_ratio": pa.array(ratio)})
        if drop_above is not None:
            out = out.filter(pa.array(ratio <= drop_above))
        return out

    return scored.map_batches(finish, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)


def incremental_dedup_keep_first(existing, delta, id_col: str = "doc_id",
                                 text_col: str = "text"):
    """INCREMENTAL ingestion dedup — the daily-crawl pattern at corpus
    scale: keep each ``delta`` row whose text appears nowhere in
    ``existing`` and is the min-id first among its own delta duplicates.

    The keep-first shuffle of the kernel over the union of both sides,
    ordered by (_delta, id): a key run's first row is its existing copy when
    there is one, so a row survives iff it is first in its run AND from the
    delta.  Only (fingerprint, h2, id, side) — 32 bytes/row — moves, with
    the collision refusal.

    NULL texts are dropped on BOTH sides before hashing: hash_utf8_array
    maps NULL and '' to the same FNV basis, so without the filter a
    NULL-text delta row would be kept/merged with empty-string rows while
    the SQL twin's text-equality predicates drop NULL rows outright (the
    same null-semantics gate corpus_clean applies).

    Output: (doc_id) of kept delta rows."""
    keys = _text_keys(text_col, null_group=False)

    def project(delta: int):
        def f(b: pa.Table) -> pa.Table:
            b = keys(b).select(["_key", "_h2", id_col])
            return b.append_column("_delta", pa.array(np.full(len(b), delta, np.int8)))

        return f

    def delta_firsts(g: pa.Table, first: np.ndarray) -> pa.Table:
        first = first[g["_delta"].to_numpy()[first] == 1]
        return pa.table({id_col: pa.array(np.sort(g[id_col].to_numpy()[first]))})

    return _keep_first_rows([(existing, project(0)), (delta, project(1))],
                            ("_delta", id_col), finish=delta_firsts)


# --- edit-distance near-dup join (PassJoin) ---------------------------------
#
# Pigeonhole partition scheme from PassJoin (Li, Deng, Feng: "PassJoin: A
# Partition-based Method for Similarity Joins", PVLDB 5(3), 2011): split
# every string into max_dist+1 even BYTE segments; any partner within edit
# distance max_dist must contain at least one segment as an exact substring,
# starting within +-max_dist of the segment's own position (at most max_dist
# edits precede the untouched segment in an optimal alignment, each shifting
# it by at most one byte).  Candidates = (segment hash) x (windowed substring
# probe hash) equi-matches; an exact banded DP verify (Ukkonen band 2T+1)
# removes hash-collision and window false positives.
#
# BYTE domain on purpose: DuckDB's levenshtein() is byte-based (measured:
# levenshtein('<e-acute>a','ea') = 2), so unlike the codepoint-gram queries
# (repetition_stats et al.) the SQL twin and the Ray side agree on raw utf8
# BYTES — segment hashes, probe windows and the verify DP all operate on the
# flat utf8 buffer with no decode.


def _banded_edit_distance(a: np.ndarray, b: np.ndarray, t: int) -> int:
    """Exact Levenshtein distance between byte arrays ``a`` and ``b`` if it
    is <= t, else t+1.  Ukkonen band: O(len(a) * (2t+1)) cells; the insert
    recurrence (a row-internal prefix dependence) is resolved vectorized as
    min_{k'<=k} (m[k'] + (k-k')) via np.minimum.accumulate on m[k]-k."""
    la, lb = len(a), len(b)
    if la > lb:
        a, b, la, lb = b, a, lb, la
    if lb - la > t:
        return t + 1
    inf = t + 1
    ks = np.arange(2 * t + 1, dtype=np.int64)  # offset k -> j = i + k - t
    j0 = ks - t
    dp = np.where((j0 >= 0) & (j0 <= lb), np.abs(j0), inf)
    dp = np.minimum(dp, inf)
    for i in range(1, la + 1):
        j = i + ks - t
        valid = (j >= 0) & (j <= lb)
        up = np.r_[dp[1:], inf] + 1  # delete a[i-1]: dp[i-1][same j] = k+1
        bj = b[np.clip(j - 1, 0, lb - 1)]
        cost = (bj != a[i - 1]).astype(np.int64)
        diag = np.where(j >= 1, dp + cost, inf)
        m = np.where(valid, np.minimum(up, diag), inf)
        dp = np.minimum.accumulate(m - ks) + ks  # insert chain
        dp = np.minimum(np.where(valid, dp, inf), inf)
        if dp.min() > t:
            return t + 1
    d = int(dp[lb - la + t])
    return d if d <= t else t + 1


def _banded_edit_distance_batch(texts_a: list, texts_b: list, t: int,
                                max_cells: int = 4_000_000) -> np.ndarray:
    """Vectorized-across-pairs :func:`_banded_edit_distance`: the per-pair
    python DP loop measured ~2 ms/pair (20k tiny-array numpy calls for 2 KB
    docs); batching runs each DP row over an (n_pairs, 2t+1) matrix instead.
    Pairs are sorted by inner length and chunked so rows x band cells stay
    bounded (padding waste and scratch memory).  Returns int64 distances
    (exact if <= t, else t+1), aligned to the input order."""
    n = len(texts_a)
    out = np.full(n, t + 1, np.int64)
    if not n:
        return out
    la0 = np.fromiter((len(x) for x in texts_a), np.int64, n)
    lb0 = np.fromiter((len(x) for x in texts_b), np.int64, n)
    swap = la0 > lb0
    la = np.where(swap, lb0, la0)
    lb = np.where(swap, la0, lb0)
    cand = np.nonzero(lb - la <= t)[0]
    if not len(cand):
        return out
    order = cand[np.argsort(la[cand], kind="stable")]
    inf = t + 1
    ks = np.arange(2 * t + 1, dtype=np.int64)
    lo = 0
    while lo < len(order):
        # chunk: rows x max-inner-length <= max_cells (sorted by la, so the
        # chunk's la_max is its last row's la)
        hi = lo + 1
        while (hi < len(order)
               and (hi + 1 - lo) * max(int(la[order[hi]]), 1) <= max_cells):
            hi += 1
        idx = order[lo:hi]
        lo = hi
        m = len(idx)
        lam, lbm = la[idx], lb[idx]
        la_max, lb_max = int(lam.max()), max(int(lbm.max()), 1)
        A = np.zeros((m, max(la_max, 1)), np.uint8)
        B = np.zeros((m, lb_max), np.uint8)
        for r, i0 in enumerate(idx):
            a0, b0 = texts_a[i0], texts_b[i0]
            if swap[i0]:
                a0, b0 = b0, a0
            if len(a0):
                A[r, : len(a0)] = a0
            if len(b0):
                B[r, : len(b0)] = b0
        j0 = ks - t
        lbc = lbm[:, None]
        dp = np.where((j0 >= 0) & (j0 <= lbc), np.abs(j0), inf)
        np.minimum(dp, inf, out=dp)
        alive = np.ones(m, bool)
        rows = np.arange(m)
        inf_col = np.full((m, 1), inf, np.int64)
        bclip = np.maximum(lbc - 1, 0)
        for i in range(1, la_max + 1):
            act = alive & (lam >= i)
            if not act.any():
                break
            j = (i + ks - t)[None, :]
            valid = (j >= 0) & (j <= lbc)
            up = np.concatenate([dp[:, 1:], inf_col], axis=1) + 1
            bj = B[rows[:, None], np.clip(j - 1, 0, bclip)]
            cost = (bj != A[:, i - 1 : i]).astype(np.int64)
            diag = np.where(j >= 1, dp + cost, inf)
            mm = np.where(valid, np.minimum(up, diag), inf)
            nd = np.minimum.accumulate(mm - ks[None, :], axis=1) + ks[None, :]
            nd = np.minimum(np.where(valid, nd, inf), inf)
            dp[act] = nd[act]
            alive &= ~(act & (dp.min(axis=1) > t))
        d = dp[rows, lbm - lam + t]
        out[idx] = np.minimum(d, inf)
    return out


_POLY_P = 0x100000001B3  # FNV prime, odd -> invertible mod 2^64


def _inv_u64(p: int) -> int:
    """Modular inverse of odd ``p`` mod 2^64 (Newton / Hensel lifting)."""
    x = p
    for _ in range(6):
        x = (x * (2 - p * x)) & 0xFFFFFFFFFFFFFFFF
    return x


_POLY_PINV = _inv_u64(_POLY_P)


def _poly_hasher(data: np.ndarray):
    """O(len) preprocessing -> O(1) content hash of any byte window
    [st, en) of ``data``: wrapping-uint64 polynomial with prefix sums,
    h(st, en) = P^(en-1) * (C[en] - C[st]) where C[i] = sum b[j] * P^-j.
    Position-independent (equal content -> equal hash); collisions only
    ADD candidates (exact verify removes them).  Replaces the per-byte
    FNV column loop whose cost was O(windows x window_len) python ops —
    PassJoin probes ~(t+1)(2t+1)^2 windows/doc, ~81x the corpus bytes.
    Scratch is ~24 B per data byte; callers chunk doc ranges to bound it."""
    n = len(data)
    ppow = np.ones(n + 1, np.uint64)
    if n:
        np.cumprod(np.full(n, _POLY_P, np.uint64), out=ppow[1:])
    pinvpow = np.ones(max(n, 1), np.uint64)
    if n > 1:
        np.cumprod(np.full(n - 1, _POLY_PINV, np.uint64), out=pinvpow[1:])
    csum = np.zeros(n + 1, np.uint64)
    if n:
        np.cumsum(data.astype(np.uint64) * pinvpow[:n], out=csum[1:])
    seed = np.uint64(0xCBF29CE484222325)

    def h(st: np.ndarray, en: np.ndarray) -> np.ndarray:
        d = csum[en] - csum[st]
        out = ppow[np.maximum(en, 1) - 1] * d
        return np.where(en > st, out ^ seed, seed)

    return h


def _mix_lih(l: np.ndarray, i: int, h: np.ndarray) -> np.ndarray:
    """Combine (partner length, segment index, window hash) into one int64
    candidate-bucket key (splitmix-style).  Collisions only ADD candidates
    (exact verify removes them); they can never lose a pair."""
    x = h.view(np.uint64) ^ (l.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15))
    x ^= np.uint64(((i + 1) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF)
    x = (x ^ (x >> np.uint64(31))) * np.uint64(0x94D049BB133111EB)
    return (x ^ (x >> np.uint64(29))).view(np.int64)


_SHORT_KEY = np.int64(-0x5851F42D4C957F2D)  # sentinel bucket for len <= 2t


def edit_distance_pairs(ds, max_dist: int = 4, id_col: str = "doc_id",
                        text_col: str = "text", group_salt: int = 64,
                        pair_salt: int = 128, max_bucket: int = 1000):
    """Self-join: all id1 < id2 pairs with byte Levenshtein <= max_dist,
    plus the exact distance.  PassJoin candidates (see module comment) ->
    per-group distinct -> text re-attach (bucketed shuffle join; texts never
    ride the candidate shuffle) -> banded DP verify (which also collapses
    the <= nseg cross-group duplicate candidates — all copies of a pair
    share its psalt, so one wide step fewer than a global distinct).

    Strings shorter than max_dist+1 bytes cannot carry non-empty segments;
    any partner of such a string is itself <= 2*max_dist bytes, so ALL
    strings <= 2*max_dist bytes share one sentinel bucket (their pair count
    is inherently quadratic when they are near-equal — e.g. a corpus of
    empty docs — so no partition scheme can beat the output size there).
    ``max_bucket`` caps any single candidate run with a logged drop;
    oracle-profile callers pass it uncapped (CLAUDE.md rule).

    Output: id1, id2, dist (all int64).  SQL twin:
    ``levenshtein(a.text, b.text) <= max_dist`` with a byte-length
    |strlen(a)-strlen(b)| <= max_dist prune (implied by the predicate)."""
    from .joins import bucketed_hash_join

    t = int(max_dist)
    nseg = t + 1

    def _emit_chunk(ids, lens, offs, data, keys_l, sides_l, out_ids):
        """Candidate rows for one doc range (offs relative to ``data``).
        Window hashes come from one O(bytes) polynomial prefix pass."""
        hasher = _poly_hasher(data)
        # --- segment side (len >= t+1): t+1 even byte segments ------------
        seg = lens >= nseg
        if seg.any():
            sl, so, sid = lens[seg], offs[:-1][seg], ids[seg]
            for i in range(nseg):
                st = so + (i * sl) // nseg
                en = so + ((i + 1) * sl) // nseg
                h = hasher(st, en).view(np.int64)
                keys_l.append(_mix_lih(sl, i, h))
                sides_l.append(np.zeros(len(h), np.int8))
                out_ids.append(sid)
        # --- probe side: partner lengths l in [lb-t, lb+t], l >= t+1,
        #     substrings at the partner's segment positions, restricted to
        #     the multi-match-aware shift window (PassJoin, Li/Deng/Feng
        #     SIGMOD'11): for 0-based segment i and delta = lb - l, only
        #     d in [max(-i, delta-(t-i)), min(i, delta+(t-i))] can open a
        #     matching substring under <= t edits (edits before the segment
        #     bound |d| by i; edits after bound |d - delta| by t - i) -------
        for dl in range(-t, t + 1):
            pl = lens + dl  # partner length per doc
            pm = pl >= nseg
            if not pm.any():
                continue
            plm, lbm, o0, idm = pl[pm], lens[pm], offs[:-1][pm], ids[pm]
            delta = -dl  # lb - pl, scalar within this dl slice
            for i in range(nseg):
                d_lo = max(-i, delta - (t - i))
                d_hi = min(i, delta + (t - i))
                if d_lo > d_hi:
                    continue
                p = (i * plm) // nseg
                s = ((i + 1) * plm) // nseg - p
                st_l, en_l, pid_l = [], [], []
                for d in range(d_lo, d_hi + 1):
                    start = p + d
                    ok = (start >= 0) & (start + s <= lbm)
                    if not ok.any():
                        continue
                    st_l.append(o0[ok] + start[ok])
                    en_l.append(o0[ok] + start[ok] + s[ok])
                    pid_l.append(np.nonzero(ok)[0])
                if not st_l:
                    continue
                st = np.concatenate(st_l)
                en = np.concatenate(en_l)
                pidx = np.concatenate(pid_l)
                h = hasher(st, en).view(np.int64)
                k = _mix_lih(plm[pidx], i, h)
                pid = idm[pidx]
                # per-doc probe dedup: same window content at several d
                oo = np.lexsort((k, pid))
                ko, po = k[oo], pid[oo]
                first = np.r_[True, (ko[1:] != ko[:-1]) | (po[1:] != po[:-1])]
                keys_l.append(ko[first])
                sides_l.append(np.ones(int(first.sum()), np.int8))
                out_ids.append(po[first])

    def cand_rows(batch: pa.Table) -> pa.Table:
        from ..util import strip_schema_metadata

        batch = strip_schema_metadata(batch)
        texts = as_array(batch[text_col])
        valid = pc.is_valid(texts).to_numpy(zero_copy_only=False)
        ids_all = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ids = ids_all[valid]
        texts = texts.filter(pa.array(valid)).cast(pa.string())
        n = len(texts)
        keys_l, sides_l, out_ids = [], [], []
        if n:
            off_buf = texts.buffers()[1]
            offs = np.frombuffer(off_buf, dtype=np.int32)[
                texts.offset : texts.offset + n + 1].astype(np.int64)
            dbuf = texts.buffers()[2]
            data = (np.frombuffer(dbuf, dtype=np.uint8)
                    if dbuf is not None else np.zeros(0, np.uint8))
            lens = offs[1:] - offs[:-1]
            # --- short bucket: every doc <= 2t bytes, both sides ----------
            sh = lens <= 2 * t
            if sh.any():
                k = np.full(int(sh.sum()), _SHORT_KEY)
                for side in (0, 1):
                    keys_l.append(k)
                    sides_l.append(np.full(len(k), side, np.int8))
                    out_ids.append(ids[sh])
            # chunk doc ranges so the poly-hash prefix scratch (~24 B/byte)
            # stays bounded on production-size blocks
            budget = 1 << 22
            lo = 0
            while lo < n:
                hi = int(np.searchsorted(offs, offs[lo] + budget, "right")) - 1
                hi = min(max(hi, lo + 1), n)
                _emit_chunk(ids[lo:hi], lens[lo:hi],
                            offs[lo : hi + 1] - offs[lo],
                            data[offs[lo] : offs[hi]],
                            keys_l, sides_l, out_ids)
                lo = hi
        if not keys_l:
            return pa.table({"k": pa.array([], pa.int64()),
                             "side": pa.array([], pa.int8()),
                             "id": pa.array([], pa.int64())})
        return pa.table({"k": pa.array(np.concatenate(keys_l)),
                         "side": pa.array(np.concatenate(sides_l)),
                         "id": pa.array(np.concatenate(out_ids))})

    rows = ds.map_batches(cand_rows, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=None)

    def add_salt(b: pa.Table) -> pa.Table:
        salt = (b["k"].to_numpy(zero_copy_only=False).view(np.uint64)
                % np.uint64(group_salt)).astype(np.int64)
        return b.append_column("gsalt", pa.array(salt))

    salted = rows.map_batches(add_salt, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)

    def pairs(g):
        """Cross-product of side-0 x side-1 ids within each k run, fully
        vectorized (the per-run python loop measured ~1 s UDF at sf0.01 —
        runs number in the 100k's).  Output is per-GROUP distinct; the
        cross-group duplicates (same pair via several segment buckets,
        <= nseg copies) collapse in verify's per-(id1,id2) run walk, so no
        global distinct shuffle is needed."""
        z = pa.array([], pa.int64())
        empty = pa.table({"id1": z, "id2": z})
        ks = g["k"].to_numpy()
        ids = g["id"].to_numpy()
        side = g["side"].to_numpy()
        if not len(ks):
            return empty
        order = np.lexsort((ids, side, ks))
        ko, io, so = ks[order], ids[order], side[order]
        first = np.r_[True, ko[1:] != ko[:-1]]
        run = np.cumsum(first) - 1  # run id per row
        nrun = int(run[-1]) + 1
        is_a = so == 0
        na = np.bincount(run[is_a], minlength=nrun)
        nb = np.bincount(run[~is_a], minlength=nrun)
        prod = na * nb
        keep = (prod > 0) & (prod <= max_bucket * max_bucket)
        for p in prod[prod > max_bucket * max_bucket]:
            _log_bucket_drop("edit_distance_pairs", int(p),
                             max_bucket * max_bucket)
        if not keep.any():
            return empty
        # compact kept runs: re-number so offsets line up
        krun = np.cumsum(keep) - 1  # old run -> kept run (valid where keep)
        a_rows = is_a & keep[run]
        b_rows = (~is_a) & keep[run]
        a_ids, a_run = io[a_rows], krun[run[a_rows]]
        b_ids = io[b_rows]
        nak, nbk = na[keep], nb[keep]
        boff = np.r_[0, np.cumsum(nbk)]  # b-segment start per kept run
        # ragged tile: each a row expands to its run's full b segment
        counts = nbk[a_run]
        offs = np.r_[0, np.cumsum(counts)]
        total = int(offs[-1])
        pos = np.arange(total, dtype=np.int64) - np.repeat(offs[:-1], counts)
        aa = np.repeat(a_ids, counts)
        bb = b_ids[np.repeat(boff[a_run], counts) + pos]
        ne = aa != bb
        aa, bb = aa[ne], bb[ne]
        if not len(aa):
            return empty
        p1 = np.minimum(aa, bb)
        p2 = np.maximum(aa, bb)
        oo = np.lexsort((p2, p1))
        a, b = p1[oo], p2[oo]
        first = np.r_[True, (a[1:] != a[:-1]) | (b[1:] != b[:-1])]
        return pa.table({"id1": pa.array(a[first]), "id2": pa.array(b[first])})

    cand = (salted.repartition(_default_shuffle_partitions())
            .groupby("gsalt").map_groups(pairs, batch_format="pandas"))

    # --- text re-attach + banded DP verify (jaccard_prefix_pairs pattern) --
    def explode(b: pa.Table) -> pa.Table:
        id1 = b["id1"].to_numpy(zero_copy_only=False).astype(np.int64)
        id2 = b["id2"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(id1)
        return pa.table({
            "doc_id": np.concatenate([id1, id2]),
            "id1": np.concatenate([id1, id1]),
            "id2": np.concatenate([id2, id2]),
            "slot": np.concatenate([np.zeros(n, np.int8), np.ones(n, np.int8)]),
        })

    probes = cand.map_batches(explode, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)

    def texts_proj(b: pa.Table) -> pa.Table:
        from ..util import strip_schema_metadata

        b = strip_schema_metadata(b.select([id_col, text_col]))
        return b.filter(pc.is_valid(b[text_col]))

    texts = ds.map_batches(texts_proj, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None)
    if id_col != "doc_id":
        texts = texts.rename_columns({id_col: "doc_id"})
    i64 = pa.int64()
    attached = bucketed_hash_join(
        probes, texts, on="doc_id",
        schemas=(pa.schema([("doc_id", i64), ("id1", i64), ("id2", i64),
                            ("slot", pa.int8())]),
                 pa.schema([("doc_id", i64), (text_col, pa.string())])),
        buckets=2 * _default_shuffle_partitions(),
    )

    def add_pair_salt(b: pa.Table) -> pa.Table:
        id1 = b["id1"].to_numpy(zero_copy_only=False)
        id2 = b["id2"].to_numpy(zero_copy_only=False)
        salt = ((id1 * np.int64(31) + id2) * np.int64(2654435761)) % pair_salt
        return b.append_column("psalt", pa.array(salt))

    salted_p = attached.map_batches(add_pair_salt, batch_format="pyarrow",
                                    zero_copy_batch=True, batch_size=None)

    def verify(g):
        z = pa.array([], pa.int64())
        if len(g) == 0:
            return pa.table({"id1": z, "id2": z, "dist": z})
        slot = np.asarray(g["slot"])
        id1 = np.asarray(g["id1"]).astype(np.int64)
        id2 = np.asarray(g["id2"]).astype(np.int64)
        did = np.where(slot == 0, id1, id2)
        txt = np.asarray(g[text_col], dtype=object)
        uids, first_idx = np.unique(did, return_index=True)
        by_id = {int(u): np.frombuffer(str(txt[fi]).encode("utf-8"), np.uint8)
                 for u, fi in zip(uids, first_idx)}
        order = np.lexsort((id2, id1))
        s1, s2, ss = id1[order], id2[order], slot[order]
        first = np.r_[True, (s1[1:] != s1[:-1]) | (s2[1:] != s2[:-1])]
        starts = np.nonzero(first)[0]
        ends = np.r_[starts[1:], len(s1)]
        # only runs carrying BOTH slots (a null text drops its side's row)
        a_txt, b_txt, p1, p2 = [], [], [], []
        for st, en in zip(starts, ends):
            sl = ss[st:en]
            if not ((sl == 0).any() and (sl == 1).any()):
                continue
            a_txt.append(by_id[int(s1[st])])
            b_txt.append(by_id[int(s2[st])])
            p1.append(s1[st]); p2.append(s2[st])
        d = _banded_edit_distance_batch(a_txt, b_txt, t)
        keep = d <= t
        return pa.table({"id1": pa.array(np.array(p1, np.int64)[keep]),
                         "id2": pa.array(np.array(p2, np.int64)[keep]),
                         "dist": pa.array(d[keep])})

    return salted_p.groupby("psalt").map_groups(verify, batch_format="pandas")


def bow_keep_first(ds, id_col: str = "doc_id", text_col: str = "text"):
    """Bag-of-words (token-sort) dedup groups — the word-ORDER-invariant
    near-dup tier between exact dedup and MinHash: two docs collide iff
    their sorted token multisets are identical (shuffled boilerplate,
    reordered list pages).  Mirrors the reference's D1 window-dedup keyed
    collapse (geotrellis-contrib semantics: dedup by a derived key, keep a
    canonical winner) with a text-derived key.

    The signature (tokens sorted, joined by one space) is hashed per doc
    INSIDE the batch and fed to the keyed reduce of the kernel: only (h1,
    h2, doc_id) 24 B/row ever shuffles, winner = min doc_id, collision
    refusal.  The per-doc token sort is one np.lexsort over dictionary ranks
    (no per-row python).  NULL texts are dropped.

    Output: one row per signature group — doc_id (min = winner), n_dups.
    SQL twin groups by ``array_to_string(list_sort(string_split(text,
    ' ')), ' ')`` directly; list_sort's binary UTF-8 order equals the
    np codepoint sort order (UTF-8 byte order is codepoint order)."""
    from .text import hash_utf8_array

    def sig_rows(batch: pa.Table) -> pa.Table:
        texts = as_array(batch[text_col])
        valid = pc.is_valid(texts).to_numpy(zero_copy_only=False)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)[valid]
        texts = texts.filter(pa.array(valid)).cast(pa.string())
        n = len(texts)
        if n == 0:
            return pa.table({"_key": pa.array([], pa.int64()),
                             "_h2": pa.array([], pa.int64()),
                             "id": pa.array([], pa.int64())})
        flat, offs = _split_tokens(texts)
        if len(flat):
            # per-doc token sort without per-row python: rank each distinct
            # token once (codepoint order == list_sort's binary utf8 order),
            # then ONE lexsort of (rank within doc)
            d = flat.dictionary_encode()
            codes = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            words = d.dictionary.to_numpy(zero_copy_only=False)
            rank_of = np.empty(len(words), np.int64)
            rank_of[np.argsort(words, kind="stable")] = np.arange(len(words))
            doc_idx = np.repeat(np.arange(n, dtype=np.int64), np.diff(offs))
            perm = np.lexsort((rank_of[codes], doc_idx))
            flat = flat.take(pa.array(perm, pa.int64()))
        sig = _join_tokens(flat, offs)
        return pa.table({"_key": hash_utf8_array(sig, seed=0),
                         "_h2": hash_utf8_array(sig, seed=_H2_SEED),
                         "id": ids})

    return _keyed_reduce(ds, sig_rows, [("id", "min", "doc_id"),
                                        (None, "count", "n_dups")])


_PRIO_ID_BITS = 40  # packed winner key: priority << 40 | doc_id


def priority_dedup_keep_best(ds, priority_of: dict, default_priority: int,
                             id_col: str = "doc_id", text_col: str = "text",
                             source_col: str = "source"):
    """Exact dedup keeping the BEST copy, not the first: one row per
    distinct text, winner = lexicographic min of (source priority, doc_id)
    — the practitioner's policy when the same document appears in several
    corpora of different quality (prefer wiki over web crawl, curated over
    raw).  The reference's D1 keyed collapse with a policy winner.

    The keyed reduce of the kernel over the exact-text fingerprint (NULL
    texts dropped) with the winner candidate riding as ONE packed int64
    (priority << 40 | doc_id): the shuffle is 24 B/row regardless of
    document size, and min-combine of the packed key IS the lexicographic
    policy.  Priorities must be < 2^23 and ids in [0, 2^40) for the packing
    (guarded).

    Output: doc_id (winner), n_dups — SQL twin groups by text and unpacks
    ``min(prio * 2^40 + doc_id)``."""
    for p in list(priority_of.values()) + [default_priority]:
        if not (0 <= int(p) < (1 << 23)):
            raise ValueError("priority_dedup_keep_best: priorities must be "
                             "in [0, 2^23) for the packed winner key")
    srcs = sorted(priority_of)
    src_set = pa.array(srcs, pa.string())
    prio_arr = np.array([priority_of[s] for s in srcs], np.int64)
    keys = _text_keys(text_col, null_group=False)

    def rows(batch: pa.Table) -> pa.Table:
        batch = keys(batch)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(ids) and (ids.min() < 0 or ids.max() >= (1 << _PRIO_ID_BITS)):
            raise ValueError("priority_dedup_keep_best: ids must fit 2^40")
        # vectorized priority lookup: unknown AND NULL sources take the
        # default (the SQL twin's CASE ... ELSE)
        src = as_array(batch[source_col]).cast(pa.string())
        prio = np.full(len(src), default_priority, np.int64)
        if len(srcs):
            pos = pc.index_in(src, value_set=src_set)
            known = pc.is_valid(pos).to_numpy(zero_copy_only=False)
            prio[known] = prio_arr[pos.drop_null().to_numpy(zero_copy_only=False)]
        return pa.table({"_key": batch["_key"], "_h2": batch["_h2"],
                         "w": (prio << _PRIO_ID_BITS) | ids})

    return _keyed_reduce(
        ds, rows, [(None, "count", "n_dups"), ("w", "min", "_w")],
        lambda b: pa.table({
            "doc_id": pa.array(b["_w"].to_numpy() & ((1 << _PRIO_ID_BITS) - 1)),
            "n_dups": b["n_dups"]}))
