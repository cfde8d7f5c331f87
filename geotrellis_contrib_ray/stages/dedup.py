"""Deduplication stages: exact keyed dedup, MinHash+LSH, SimHash, n-gram
Jaccard, PassJoin edit distance, cross-document paragraph dedup.

Scale pattern (per the Ray Data aggregation guidance): hash/sketch per batch
(narrow, vectorized), shuffle only the small (key, id) projection, resolve
groups in one keyed co-partition (``joins._co_partition``, routed on the
group key into ``joins._bucket_count`` buckets); never move document bodies
through the shuffle.

The near-dup family (MinHash, SimHash, the Jaccard joins, substring and
edit-distance pairs, the embedding ops) shares two private steps: a bucket
kernel turns runs of equal keys into id pairs with ``_run_pairs`` (one cap,
one logged drop), and the ops with an exact text verify re-attach the texts
and regroup on the pair with ``_verify_pairs``.

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
    Bands of r rows each; near-duplicates collide in >=1 band and meet in a
    downstream co-partition routed on (band_id, band_hash).
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


def _runs(keys: list[np.ndarray], minor: list[np.ndarray]):
    """``(order, starts, lens)``: the rows sorted by ``keys`` and then by
    ``minor`` (least significant first), and the runs of one ``keys``
    tuple in that order."""
    order = np.lexsort(minor + keys[::-1])
    change = np.zeros(len(order), bool)
    change[:1] = True
    for k in keys:
        k = k[order]
        change[1:] |= k[1:] != k[:-1]
    starts = np.flatnonzero(change)
    return order, starts, np.diff(np.r_[starts, len(order)])


def _run_pairs(keys: list[np.ndarray], ids: np.ndarray, kind: str,
               cap: int | None = None, side: np.ndarray | None = None):
    """Row indices ``(a, b)`` of the candidate pairs in every run of rows
    with one ``keys`` tuple (a band, a token, a window, a PassJoin key),
    vectorized with no python per run.  Without ``side``: every two rows
    of a run, ``ids[a] <= ids[b]``.  With ``side`` (0/1 per row): every
    side-0 row with every side-1 row of its run.  A run with more pairs
    than a run of ``cap`` rows (``cap * (cap - 1) / 2``) emits none, and
    the drop is logged (``_log_bucket_drop``)."""
    from .joins import _ragged_expand

    n = len(ids)
    order, starts, lens = _runs(keys, [ids] if side is None else [ids, side])
    end = np.repeat(starts + lens, lens)
    if side is None:
        lo = np.arange(1, n + 1)  # a row pairs with the rows after it
    else:  # a side-0 row pairs with its run's side-1 rows, sorted last
        s1 = side[order] == 1
        lo = np.where(s1, end, end - np.repeat(np.add.reduceat(s1.astype(np.int64), starts), lens))
    cnt = end - lo
    if cap is not None:
        over = np.add.reduceat(cnt, starts) > cap * (cap - 1) // 2
        for m in lens[over]:
            _log_bucket_drop(kind, int(m), cap)
        cnt[np.repeat(over, lens)] = 0
    a, k = _ragged_expand(cnt)
    return order[a], order[lo[a] + k]


def _pair_table(id1: np.ndarray, id2: np.ndarray, **cols) -> pa.Table:
    """One row per distinct (id1, id2) with the ``cols`` of its first
    occurrence and ``n``, its number of occurrences."""
    o = np.lexsort((id2, id1))
    a, b = id1[o], id2[o]
    first = np.ones(len(a), bool)
    first[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    st = np.flatnonzero(first)
    return pa.table({"id1": pa.array(a[st], pa.int64()), "id2": pa.array(b[st], pa.int64()),
                     **{c: pa.array(v[o][st], pa.int64()) for c, v in cols.items()},
                     "n": pa.array(np.diff(np.r_[st, len(a)]), pa.int64())})


def minhash_candidate_pairs(ds, num_perm=64, bands=16, shingle_k=5,
                            max_bucket: int = 1000, distinct: bool = True):
    """Near-dup candidate pairs via LSH banding: signature stage -> one
    co-partition routed on (band_id, band_hash) -> the pairs of every
    (band_id, band_hash) run of a bucket (``_run_pairs``; a run over
    ``max_bucket`` members is a logged drop) -> distinct.

    ``joins._bucket_count`` sizes the buckets from the corpus rows times
    ``bands``, so a bucket's band rows stay bounded as the corpus grows.
    Output: id1 < id2 candidate pairs with ``n_bands``, the number of
    bands they collide in (verify Jaccard downstream)."""
    from ..util import worker_cached
    from .agg import _keyed_buckets, salted_group_reduce

    def band_rows(batch: pa.Table) -> pa.Table:
        # the seed-fixed sketcher is built once per worker process
        sk = worker_cached(
            "dedup.minhash", (num_perm, bands, shingle_k),
            lambda: MinHashLSH(num_perm=num_perm, bands=bands, shingle_k=shingle_k))
        return sk(batch)

    banded = ds.map_batches(
        band_rows, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )

    def pairs(g: pa.Table) -> pa.Table:
        ids = g["doc_id"].to_numpy()
        a, b = _run_pairs([g["band_id"].to_numpy(), g["band_hash"].to_numpy()], ids,
                          "minhash_candidate_pairs", max_bucket)
        return pa.table({"id1": pa.array(ids[a], pa.int64()), "id2": pa.array(ids[b], pa.int64())})

    cand = _keyed_buckets(banded, ["band_id", "band_hash"], ["band_id", "band_hash", "doc_id"],
                          pairs, per_row=bands)

    # Each (pair, band) is emitted exactly once (one band_hash per (doc,
    # band) -> one run per band), so a plain count per pair IS the
    # band-match count.  ``distinct=False`` skips this whole barrier for
    # callers whose downstream already groups per pair (ngram_jaccard_pairs'
    # verify) — they get (id1, id2) rows duplicated once per colliding band.
    if not distinct:
        return cand
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
    Returns (id_lo, id_hi, hd) int64 arrays and the uint64 xor of each
    pair's signatures."""
    lo_out, hi_out, hd_out, x_out = [], [], [], []
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
            x_out.append(x[ii, jj])
    if not lo_out:
        z = np.zeros(0, np.int64)
        return z, z, z, z.view(np.uint64)
    return (np.concatenate(lo_out).astype(np.int64),
            np.concatenate(hi_out).astype(np.int64),
            np.concatenate(hd_out), np.concatenate(x_out))


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

    A spill directory made here (no ``spill_dir``) is removed once no plan
    holds ``sig_dataset``'s read any more: the pairs built on it, and every
    Dataset derived from them, are gone (their blocks, once materialized,
    do not need it).

    Returns (sig_dataset, n_shards, max_occupancy).  Per-task run length in
    the pair stage is ~2*occ/n_shards (both shards of a pair group land in
    one task), so n_shards = ceil(3*max_occ/target_run) keeps runs under
    ``target_run`` with a 1.5x hash-imbalance margin, clamped to [1, 64]
    (64 shards = 2080 shard pairs, 32x the band rows)."""
    import shutil
    import tempfile
    import weakref

    import pyarrow.compute as pc
    import ray

    from ..util import strip_schema_metadata
    from .agg import salted_group_reduce

    out_dir = spill_dir or tempfile.mkdtemp(prefix="simhash_sig_", dir="/tmp")

    def strip(b: pa.Table) -> pa.Table:
        return strip_schema_metadata(b)

    if spill_dir is None:
        # every plan over the spill holds this function (its map operator):
        # when the last one is collected, or a failure below drops it,
        # nothing reads the directory again
        weakref.finalize(strip, shutil.rmtree, out_dir, True)

    def project(b: pa.Table) -> pa.Table:
        return b.select(["doc_id", "simhash"]).filter(b["sh_valid"])

    signed.map_batches(project, batch_format="pyarrow", zero_copy_batch=True,
                       batch_size=None).write_parquet(out_dir)
    # strip fused into the read: the spill carries write-time metadata that
    # would defeat Ray's shuffle schema-dedup cache (CLAUDE.md rule)
    sig = ray.data.read_parquet(out_dir, columns=["doc_id", "simhash"]).map_batches(
        strip, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)

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
                            max_bucket: int = 1000,
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
    groups keyed by a second signature-derived hash: run length drops to
    ~2*occ/n_shards and the triangular work spreads over
    n_shards*(n_shards+1)/2 shard pairs (linear row cost: bands*n_shards
    rows/doc).  The rows meet in one co-partition routed on (band, chunk,
    shard pair), sized for bands*n_shards rows per doc; each bucket kernel
    walks its (band, shard pair, chunk) runs and blocks their hamming
    verify (no triu index allocation).  Each surviving pair is emitted ONLY
    in its FIRST colliding band (recomputed from the two signatures
    in-task), so every pair appears exactly once globally and the old cross-band
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
        # one row per (band, target shard): the pair (lo, hi) of the doc's
        # shard and the target, as its index sp in the (lo, hi) triangle =
        # lo*n_shards - lo*(lo-1)/2 + (hi-lo)
        tgt = np.repeat(np.arange(n_shards, dtype=np.int64), n)
        lo = np.minimum(np.tile(shard, n_shards), tgt)
        hi = np.maximum(np.tile(shard, n_shards), tgt)
        sp = np.tile(lo * n_shards - (lo * (lo - 1)) // 2 + (hi - lo), bands)
        key = np.concatenate([np.tile((sh >> np.uint64(b * width)) & mask, n_shards)
                              for b in range(bands)])
        return pa.table(
            {
                "band_id": np.repeat(np.arange(bands, dtype=np.int32), n * n_shards),
                # band_key chunks are < 2^width <= 2^16 — int64-safe as-is
                "band_key": key.astype(np.int64),
                "shard": np.tile(shard, bands * n_shards),
                "sp": sp,
                "doc_id": np.tile(ids, bands * n_shards),
                "simhash": np.tile(sh, bands * n_shards).view(np.int64),
            }
        )

    banded = signed.map_batches(band_rows, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)

    # inverse of the sp triangle index, precomputed once
    sp_to_pair = {}
    for lo_s in range(n_shards):
        for hi_s in range(lo_s, n_shards):
            sp_to_pair[lo_s * n_shards - (lo_s * (lo_s - 1)) // 2 + (hi_s - lo_s)] = (lo_s, hi_s)

    def pairs(g: pa.Table) -> pa.Table:
        """The pairs of every (band_id, sp, band_key) run of a bucket: its
        shard si rows with its shard sj rows (triangular when si == sj)."""
        band, sp = g["band_id"].to_numpy(), g["sp"].to_numpy()
        order, starts, lens = _runs([band, sp, g["band_key"].to_numpy()], [g["doc_id"].to_numpy()])
        ids, shard = g["doc_id"].to_numpy()[order], g["shard"].to_numpy()[order]
        sh = g["simhash"].to_numpy().view(np.uint64)[order]
        band, sp = band[order], sp[order]
        z = np.zeros(0, np.int64)
        out = [(z, z, z, z.view(np.uint64), z)]
        for st, n in zip(starts[lens >= 2], lens[lens >= 2]):
            if n > max_bucket:
                _log_bucket_drop("simhash_candidate_pairs", int(n), max_bucket)
                continue
            si, sj = sp_to_pair[sp[st]]
            run = slice(st, st + n)
            a, b = shard[run] == si, shard[run] == sj
            if not (a.any() and b.any()) or (si == sj and a.sum() < 2):
                continue
            lo, hi, hd, x = _simhash_blocked_pairs(sh[run][a], ids[run][a], sh[run][b], ids[run][b],
                                                   max_hamming, triangular=si == sj)
            out.append((lo, hi, hd, x, np.full(len(lo), band[st])))
        lo, hi, hd, x, pair_band = (np.concatenate(c) for c in zip(*out))
        # emit only in the first colliding band -> globally exactly-once
        first = np.full(len(x), bands, dtype=np.int64)
        for b in range(bands - 1, -1, -1):
            first[((x >> np.uint64(b * width)) & mask) == 0] = b
        keep = first == pair_band
        return pa.table({"id1": pa.array(lo[keep], pa.int64()),
                         "id2": pa.array(hi[keep], pa.int64()),
                         "hamming": pa.array(hd[keep], pa.int64())})

    from .agg import _keyed_buckets

    return _keyed_buckets(banded, ["band_id", "band_key", "sp"],
                          ["band_id", "band_key", "shard", "sp", "doc_id", "simhash"],
                          pairs, per_row=bands * n_shards)


# Row count past which ngram_jaccard_pairs' bloom text-pushdown pays for
# itself: the pushdown's fixed cost (probe materialize + distributed bloom
# build + broadcast) is ~1.5 s on this host — about what the re-attach
# shuffle pays to move ~100 MB of unpruned text — while its saving scales
# with the NON-candidate text volume (linear in the corpus; candidates
# grow like near-dup pairs).  Measured: sf0.1 (5k docs) bloom costs ~1.4 s
# net, 10x-decade (50k docs) roughly break-even, so the row proxy for the
# ~100 MB break-even at ~1 KB/doc is 100k rows.
_BLOOM_PUSHDOWN_ROWS = 100_000


_PROBE_SCHEMA = pa.schema([("doc_id", pa.int64()), ("id1", pa.int64()), ("id2", pa.int64()),
                           ("slot", pa.int8())])
_TEXT_SCHEMA = pa.schema([("doc_id", pa.int64()), ("text", pa.string())])


def _explode_pairs(b: pa.Table) -> pa.Table:
    """Each (id1, id2) pair as two probe rows (doc_id, id1, id2, slot):
    slot 0 fetches id1's text, slot 1 id2's."""
    id1 = b["id1"].to_numpy(zero_copy_only=False).astype(np.int64)
    id2 = b["id2"].to_numpy(zero_copy_only=False).astype(np.int64)
    n = len(id1)
    return pa.table([np.concatenate([id1, id2]), np.concatenate([id1, id1]),
                     np.concatenate([id2, id2]),
                     np.repeat(np.array([0, 1], np.int8), n)], schema=_PROBE_SCHEMA)


def _verify_pairs(cand, ds, id_col: str, text_col: str, verify, bloom: bool = False):
    """The exact verify of the candidate pairs ``cand`` (id1, id2; a pair
    may repeat): the pairs explode into probe rows, the texts of ``ds``
    re-attach by a bucketed hash join on doc_id (texts never ride the
    candidate shuffle; NULL texts are dropped), and the probes regroup on
    the pair in one co-partition routed on (id1, id2).

    ``verify(p1, p2, docs, texts)`` gets the distinct pairs of a bucket
    whose two texts arrived, the sorted distinct doc ids of the bucket and
    their texts (an Arrow string array), and returns the output table.
    ``bloom`` first drops non-candidate texts in a narrow pass
    (joins.bloom_semi_join over the probes, materialized once: the bloom
    build and the join both read them)."""
    from .agg import _keyed_buckets
    from .joins import bloom_semi_join, bucketed_hash_join

    probes = cand.map_batches(_explode_pairs, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)

    def project(b: pa.Table) -> pa.Table:
        b = pa.table([b[id_col], b[text_col]], names=["doc_id", "text"])
        return b.filter(pc.is_valid(b["text"]))

    texts = ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True,
                           batch_size=None)
    if bloom:
        probes = probes.materialize()
        texts = bloom_semi_join(texts, probes, on="doc_id",
                                schemas=(_TEXT_SCHEMA, _PROBE_SCHEMA))
    # static schemas: .schema() on the probes would run the candidate plan;
    # buckets ~ CPUs (not the 8x default): a small join, and the sort
    # shuffle's fixed cost scales with the partition count (stages/agg.py)
    attached = bucketed_hash_join(probes, texts, on="doc_id",
                                  schemas=(_PROBE_SCHEMA, _TEXT_SCHEMA),
                                  buckets=2 * _default_shuffle_partitions())

    def per_bucket(g: pa.Table) -> pa.Table:
        slot = g["slot"].to_numpy()
        id1, id2 = g["id1"].to_numpy(), g["id2"].to_numpy()
        docs, first = np.unique(np.where(slot == 0, id1, id2), return_index=True)
        # pair runs carrying BOTH slots (a NULL text never arrives)
        o, st, n = _runs([id1, id2], [slot])
        ok = (slot[o[st]] == 0) & (slot[o[st + n - 1]] == 1)
        return verify(id1[o[st[ok]]], id2[o[st[ok]]], docs,
                      as_array(g["text"]).take(pa.array(first)))

    per_bucket.__name__ = verify.__name__  # the stats' op label
    return _keyed_buckets(attached, ["id1", "id2"], ["id1", "id2", "slot", "text"], per_bucket)


def ngram_jaccard_pairs(ds, shingle_k: int = 5, threshold: float = 0.5,
                        num_perm: int = 64, bands: int = 16,
                        max_bucket: int = 1000,
                        bloom_prefilter: bool | str = "auto",
                        approx_rows: int | None = None):
    """n-gram Jaccard near-dup: MinHash-LSH candidates -> texts re-attached
    via a hash-partitioned SHUFFLE JOIN on doc_id (no driver-side corpus
    materialization, no ray.put of the text column) -> exact Jaccard per
    candidate pair (``_verify_pairs``).

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
    if bloom_prefilter == "auto":
        bloom_prefilter = (approx_rows is not None
                           and approx_rows >= _BLOOM_PUSHDOWN_ROWS)

    # distinct=False: the per-pair verify already groups by pair, so the
    # candidate-distinct barrier (a full extra all-to-all) is skipped;
    # pairs arrive duplicated once per colliding band (small constant)
    cand = minhash_candidate_pairs(ds, num_perm=num_perm, bands=bands,
                                   shingle_k=shingle_k, distinct=False,
                                   max_bucket=max_bucket)

    def ngram_jaccard(p1, p2, docs, texts) -> pa.Table:
        p1, p2, ns, nu = _pair_shingle_counts(p1, p2, docs, texts, shingle_k)
        jac = ns / np.maximum(nu, 1)
        keep = jac >= threshold
        return pa.table({"id1": pa.array(p1[keep]), "id2": pa.array(p2[keep]),
                         "jaccard": pa.array(jac[keep], pa.float64())})

    return _verify_pairs(cand, ds, "doc_id", "text", ngram_jaccard, bloom=bloom_prefilter)


def _pair_shingle_counts(p1, p2, docs, texts, shingle_k: int):
    """Exact Jaccard counts of the pairs (p1, p2) over the texts of
    ``docs`` (sorted ids): one vectorized shingle-hash pass per DISTINCT doc
    (docs appear in many pairs), then each pair is a sorted-int64
    ``np.intersect1d``.  Counts are exact modulo 64-bit hash collisions —
    the same guarantee (and the same tokenizer) as jaccard_similarity_join,
    so the SQL oracle parity carries over.

    Returns (id1, id2, n_shared, n_union) int64 arrays over the pairs
    whose union is non-empty."""
    toks = [np.unique(h) for h in _shingle_hashes(texts, shingle_k)]
    ia = np.searchsorted(docs, p1)
    ib = np.searchsorted(docs, p2)
    # per-pair sorted-set intersection; measured FASTER than one giant
    # (pid, token) lexsort-and-count (many small cache-resident sorts beat
    # a single 2-key sort of the full gather — 19 vs 433 ms per group)
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
                            id_col: str = "doc_id", text_col: str = "text"):
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
    2. pair partials: one co-partition routed on the token; each bucket
       emits the id1<id2 pairs of its equal-token runs (``_run_pairs``,
       with their sz1/sz2 riding along) and pre-aggregates their counts
       BEFORE the wide shuffle.
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
    never rides the shuffle).  A token shared by m docs emits m^2/2 pairs;
    the exact-at-scale alternative is PPJoin-style prefix filtering — see
    ``jaccard_prefix_pairs``.

    Output: id1 < id2, n_shared, n_union (int64), jaccard (float64) for all
    pairs with jaccard >= threshold.  Reference parity: the window-overlap
    dedup semantics of vlm RasterSourceSpec (overlap detection by shared
    content) generalized to set similarity."""
    from .agg import _keyed_buckets, salted_group_reduce

    def tokens(batch: pa.Table) -> pa.Table:
        dids, toks, sz = _distinct_doc_tokens(batch, shingle_k, id_col, text_col)
        # token rows come out row-major, so each row's sz repeats sz times
        return pa.table({"tok": toks, "doc_id": dids, "sz": np.repeat(sz, sz)})

    tok_ds = ds.map_batches(tokens, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)

    def pair_partials(g: pa.Table) -> pa.Table:
        ids, sz = g["doc_id"].to_numpy(), g["sz"].to_numpy()
        a, b = _run_pairs([g["tok"].to_numpy()], ids, "jaccard_similarity_join")
        # partial aggregation inside the bucket: one row per (id1, id2)
        return _pair_table(ids[a], ids[b], sz1=sz[a], sz2=sz[b]).rename_columns(
            ["id1", "id2", "sz1", "sz2", "cnt"])

    pairs = _keyed_buckets(tok_ds, ["tok"], ["tok", "doc_id", "sz"], pair_partials)
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
                 threshold: float) -> pa.Table:
    """PPJoin prefix selection over co-located (doc, tok, df) rows: sort a
    doc's tokens by (df, tok) ascending and keep only the first
    ``|X| - ceil(t*|X|) + 1`` (the rare-token prefix).  Requires ALL of a
    doc's rows to be present (doc size comes from the run length).  Shared
    by both df-attach tiers."""
    if len(toks) == 0:
        z = np.zeros(0, np.int64)
        return pa.table({"tok": z, "doc_id": z})
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
    return pa.table({"tok": t[keep], "doc_id": d[keep]})


def jaccard_prefix_pairs(ds, shingle_k: int = 5, threshold: float = 0.5,
                         id_col: str = "doc_id", text_col: str = "text",
                         driver_df_limit: int = 2_000_000):
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
         table on ``tok`` (hash-partitioned bucket join), then a
         co-partition routed on the doc co-locates each doc's tokens for
         the prefix selection.
         Costs two all-to-alls over the incidence projection but NOTHING is
         ever pulled to the driver (the r3-verdict driver-OOM fix);
    4. a co-partition routed on the PREFIX token emits the pairs of its
       equal-token runs (``_run_pairs``) -> distinct candidate pairs
       (complete by the theorem);
    5. exact verify (``_verify_pairs``): texts re-attached with a
       hash-partitioned bucket join, true (n_shared, n_union, jaccard)
       computed per pair from the full shingle sets, threshold applied.

    Output: id1 < id2, n_shared, n_union (int64), jaccard (float64).

    Measured on the synthetic sf0.01 corpus (500 docs, one shared small
    vocabulary — the WORST case for prefix filtering): pair-incidence
    shuffle volume drops 8.8x (7.77M -> 886k rows) while distinct
    candidates barely shrink (124.7k -> 114.7k, everything truly shares
    prefix tokens), so wall time is verify-bound here.  On Zipfian
    real-text corpora the candidate set collapses instead — that regime is
    what this operator exists for."""
    import ray

    from .agg import _keyed_buckets, salted_group_reduce
    from .joins import bucketed_hash_join

    # --- stage 1+2: global token document frequencies -----------------------
    def tok_partials(batch: pa.Table) -> pa.Table:
        _d, toks, _sz = _distinct_doc_tokens(batch, shingle_k, id_col, text_col)
        u, c = np.unique(toks, return_counts=True)
        return pa.table({"tok": pa.array(u), "pdf": pa.array(c.astype(np.int64))})

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
                return _prefix_rows(toks, toks, toks, threshold)
            dfv = tok_dfs[np.searchsorted(tok_keys, toks)]
            return _prefix_rows(dids, toks, dfv, threshold)

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

        def prefix_sel(g: pa.Table) -> pa.Table:
            return _prefix_rows(g["doc_id"].to_numpy(), g["tok"].to_numpy(),
                                g["df"].to_numpy(), threshold)

        pref = _keyed_buckets(joined, ["doc_id"], ["doc_id", "tok", "df"], prefix_sel)

    # --- stage 4: candidate pairs from prefix-token runs ---------------------
    def cand_pairs(g: pa.Table) -> pa.Table:
        ids = g["doc_id"].to_numpy()
        a, b = _run_pairs([g["tok"].to_numpy()], ids, "jaccard_prefix_pairs")
        return _pair_table(ids[a], ids[b]).drop_columns(["n"])  # in-bucket distinct

    cand = salted_group_reduce(
        _keyed_buckets(pref, ["tok"], ["tok", "doc_id"], cand_pairs),
        ["id1", "id2"], [(None, "count", "_nb")],  # global distinct
    )

    # --- stage 5: exact verify via text re-attach ----------------------------
    def jaccard(p1, p2, docs, texts) -> pa.Table:
        p1, p2, ns, nu = _pair_shingle_counts(p1, p2, docs, texts, shingle_k)
        jac = ns / nu  # int64/int64 -> float64, same IEEE division as SQL
        keep = jac >= threshold
        return pa.table({"id1": pa.array(p1[keep]), "id2": pa.array(p2[keep]),
                         "n_shared": pa.array(ns[keep]), "n_union": pa.array(nu[keep]),
                         "jaccard": pa.array(jac[keep], pa.float64())})

    return _verify_pairs(cand, ds, id_col, text_col, jaccard)


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

    def __call__(self, batch: pa.Table, emb: np.ndarray, id_col: str = "vec_id") -> pa.Table:
        """``emb``: the batch's (n, dim) embedding matrix, n >= 1; the rows
        keep their ids from ``id_col``."""
        weights = 1 << np.arange(self.n_planes, dtype=np.int64)
        outs = []
        for b, planes in enumerate(self._planes):
            bucket = ((emb @ planes) > 0).astype(np.int64) @ weights
            outs.append(
                pa.table(
                    {
                        id_col: batch[id_col],
                        "embedding": batch["embedding"],
                        "band": pa.array(np.full(len(batch), b, dtype=np.int32)),
                        "bucket": pa.array(bucket),
                    }
                )
            )
        return pa.concat_tables(outs)


def _lsh_pairs(ds, id_col: str, sketcher: tuple, n_bands: int, max_bucket: int, kind: str,
               score, aggs):
    """The embedding near-dup skeleton.  Banded LSH bucket rows in plain
    tasks: ``sketcher = (namespace, params, make)``, whose planes are sized
    from the data, so it is built once per worker process AND embedding
    dimension (``make(dim)``).  The rows meet one (band, bucket) group at a
    time (``agg._map_key_groups``): ``score(ids, emb)`` gets a group's ids
    in ascending order with their (n, dim) float64 embeddings and returns
    its pairs; a group over ``max_bucket`` members is scored empty, with a
    logged drop.  Last, one row per pair across bands (``aggs``)."""
    from ..util import worker_cached
    from .agg import _map_key_groups, salted_group_reduce
    from .ann import _embedding_matrix

    namespace, params, make = sketcher

    def bucket_rows(batch: pa.Table) -> pa.Table:
        emb = _embedding_matrix(batch["embedding"])
        if emb.shape[0] == 0:
            return pa.table({
                id_col: batch[id_col],
                "embedding": batch["embedding"],
                "band": pa.array([], pa.int32()),
                "bucket": pa.array([], pa.int64()),
            })
        dim = emb.shape[1]
        return worker_cached(namespace, params + (dim,), lambda: make(dim))(batch, emb, id_col)

    def pairs(g: pa.Table) -> pa.Table:
        if len(g) > max_bucket:
            _log_bucket_drop(kind, len(g), max_bucket)
            g = g.slice(0, 0)
        ids = g[id_col].to_numpy()
        order = np.argsort(ids)
        return score(ids[order], _embedding_matrix(g["embedding"])[order])

    bucketed = ds.map_batches(bucket_rows, batch_format="pyarrow", zero_copy_batch=True,
                              batch_size=None)
    cand = _map_key_groups(bucketed, ["band", "bucket"], [id_col, "embedding", "band", "bucket"],
                           pairs, per_row=n_bands)
    return salted_group_reduce(cand, ["id1", "id2"], aggs)


def embedding_neardup_pairs(ds, threshold: float = 0.95, id_col: str = "vec_id",
                            n_planes: int = 12, n_bands: int = 4, max_bucket: int = 2000):
    """Embedding-cosine near-dup: multi-band hyperplane LSH (n_bands tables x
    2^n_planes buckets) -> within-(band,bucket) exact cosine (float64) ->
    distinct pairs above threshold (max cosine across bands).

    Over-cap buckets are skipped with a LOGGED drop (never silent); shuffle
    payload is n_bands copies of (id, embedding, band, bucket).
    Output: id1 < id2, cosine."""
    def cosine(ids: np.ndarray, emb: np.ndarray) -> pa.Table:
        norms = np.linalg.norm(emb, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        sims = (emb / norms) @ (emb / norms).T
        ii, jj = np.triu_indices(len(ids), k=1)
        keep = sims[ii, jj] >= threshold
        return pa.table({"id1": pa.array(ids[ii][keep], pa.int64()),
                         "id2": pa.array(ids[jj][keep], pa.int64()),
                         "cosine": pa.array(sims[ii, jj][keep], pa.float64())})

    # distinct across bands: a true pair can collide in several bands
    return _lsh_pairs(ds, id_col, ("dedup.hyperplane_lsh", (n_planes, n_bands),
                                   lambda dim: MultiBandHyperplaneLSH(dim, n_planes, n_bands)),
                      n_bands, max_bucket, "embedding_neardup_pairs", cosine,
                      [("cosine", "max", "cosine")])


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

    def __call__(self, batch: pa.Table, emb: np.ndarray, id_col: str = "vec_id") -> pa.Table:
        return super().__call__(batch, quantize_embeddings(emb), id_col)


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
    def quantized_dot(ids: np.ndarray, emb: np.ndarray) -> pa.Table:
        q = quantize_embeddings(emb)
        dots = q @ q.T                      # <= dim * (2^20 * |e|)^2 < 2^45
        d = (q * q).sum(axis=1)
        ii, jj = np.triu_indices(len(ids), k=1)
        pos = dots[ii, jj] > 0
        ii, jj = ii[pos], jj[pos]
        dp, d1v, d2v = dots[ii, jj], d[ii], d[jj]
        # exact boundary test in python ints (dot^2 overflows int64)
        keep = np.fromiter(
            (int(a) * int(a) * threshold_den >= threshold_num * int(x) * int(y)
             for a, x, y in zip(dp, d1v, d2v)),
            dtype=bool, count=len(dp))
        return pa.table({"id1": pa.array(ids[ii][keep], pa.int64()),
                         "id2": pa.array(ids[jj][keep], pa.int64()),
                         "dot_q": pa.array(dp[keep], pa.int64()),
                         "d1": pa.array(d1v[keep], pa.int64()),
                         "d2": pa.array(d2v[keep], pa.int64())})

    # distinct across bands (values are identical wherever a pair collides)
    return _lsh_pairs(ds, id_col, ("dedup.quantized_lsh", (n_planes, n_bands),
                                   lambda dim: QuantizedMultiBandLSH(dim, n_planes, n_bands)),
                      n_bands, max_bucket, "embedding_neardup_pairs_exact", quantized_dot,
                      [("dot_q", "min", "dot_q"), ("d1", "min", "d1"), ("d2", "min", "d2")])


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
                          max_bucket: int | None = None,
                          id_col: str = "doc_id", text_col: str = "text"):
    """Doc pairs sharing >= 1 exact ``win``-char substring window (stride
    grid), with the shared-window count: (id1, id2, n_grams), id1 < id2.

    Scale shape: narrow window extraction (distinct per doc) -> one
    co-partition routed on the window string (equal windows co-locate) ->
    the pairs of every equal-window run (``_run_pairs``) with IN-BUCKET
    partial pair counts -> keyed total sum.
    Exactness: runs are on the window STRING (dictionary codes), never only
    its hash — no false pairs from hash collisions.
    ``max_bucket=None`` (the default) emits EVERY pair so the operator
    stays exact against its SQL oracle; pass an int to cap a window's
    member count at scale (a window shared by n docs emits n^2/2 pairs) —
    dropped windows are logged, and the output is then a recall-limited
    candidate set, not the exact pair relation."""
    from .agg import _keyed_buckets, salted_group_reduce

    w = ds.map_batches(
        lambda b: _substring_windows(b, win=win, stride=stride,
                                     id_col=id_col, text_col=text_col),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None)

    def pairs(g: pa.Table) -> pa.Table:
        ids = g[id_col].to_numpy()
        codes = pc.dictionary_encode(as_array(g["g"])).indices.to_numpy(zero_copy_only=False)
        a, b = _run_pairs([codes], ids, "substring_match_pairs", max_bucket)
        # in-bucket partial count per pair (a pair repeats once per shared g)
        return _pair_table(ids[a], ids[b]).rename_columns(["id1", "id2", "pn"])

    partials = _keyed_buckets(w, ["g"], [id_col, "g"], pairs)
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
    2. survivors regroup in a co-partition routed on the doc; per doc the
       chunks are rejoined in chunk_idx order via one vectorized ListArray
       binary_join per bucket — no per-row python string building.

    Output: (doc_id, clean_text, n_kept, n_total); docs whose every chunk
    was dropped do not appear (same GROUP-BY-survivors semantics as the
    SQL twin).  Null texts are excluded on both engines."""
    from .joins import _bucket_count, _bucket_of, _co_partition

    kept = _first_chunks(ds, k_tokens, id_col, text_col, "paragraph_dedup")
    n = _bucket_count(kept)

    def by_doc(b: pa.Table) -> pa.Table:
        doc = b["owner"].to_numpy(zero_copy_only=False) >> np.int64(_IDX_BITS)
        return b.append_column("_bucket", pa.array(_bucket_of(doc, n)))

    def reassemble(g: pa.Table) -> pa.Table:
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

    return _co_partition([(kept, by_doc)], reassemble)


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
                        text_col: str = "text", max_bucket: int = 1000):
    """Self-join: all id1 < id2 pairs with byte Levenshtein <= max_dist,
    plus the exact distance.  PassJoin candidates (see module comment) in
    one co-partition routed on the candidate key -> per-bucket distinct ->
    text re-attach and banded DP verify (``_verify_pairs``, whose regroup
    on the pair also collapses the <= nseg cross-bucket duplicate
    candidates, so one wide step fewer than a global distinct).

    Strings shorter than max_dist+1 bytes cannot carry non-empty segments;
    any partner of such a string is itself <= 2*max_dist bytes, so ALL
    strings <= 2*max_dist bytes share one sentinel bucket (their pair count
    is inherently quadratic when they are near-equal — e.g. a corpus of
    empty docs — so no partition scheme can beat the output size there).
    ``max_bucket`` caps any single candidate run (a run of more segment x
    probe pairs than a ``max_bucket``-member self-join) with a logged drop;
    oracle-profile callers pass it uncapped (CLAUDE.md rule).

    Output: id1, id2, dist (all int64).  SQL twin:
    ``levenshtein(a.text, b.text) <= max_dist`` with a byte-length
    |strlen(a)-strlen(b)| <= max_dist prune (implied by the predicate)."""
    from .agg import _keyed_buckets

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

    def pairs(g: pa.Table) -> pa.Table:
        """Every side-0 x side-1 id pair of each k run, as (min, max) ids,
        distinct within the bucket; the cross-bucket duplicates (same pair
        via several segment buckets, <= nseg copies) collapse in the
        verify's regroup on the pair."""
        ids = g["id"].to_numpy()
        a, b = _run_pairs([g["k"].to_numpy()], ids, "edit_distance_pairs", max_bucket,
                          side=g["side"].to_numpy())
        aa, bb = ids[a], ids[b]
        ne = aa != bb
        return _pair_table(np.minimum(aa, bb)[ne], np.maximum(aa, bb)[ne]).drop_columns(["n"])

    cand = _keyed_buckets(rows, ["k"], ["k", "side", "id"], pairs)

    def within_distance(p1, p2, docs, texts) -> pa.Table:
        raw = [np.frombuffer(x, np.uint8) for x in texts.cast(pa.binary()).to_pylist()]
        d = _banded_edit_distance_batch([raw[i] for i in np.searchsorted(docs, p1)],
                                        [raw[i] for i in np.searchsorted(docs, p2)], t)
        keep = d <= t
        return pa.table({"id1": pa.array(p1[keep], pa.int64()),
                         "id2": pa.array(p2[keep], pa.int64()), "dist": pa.array(d[keep])})

    return _verify_pairs(cand, ds, id_col, text_col, within_distance)


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
