"""Similarity search over an embedding column (list<float>).

Baseline: brute-force cosine top-k — numpy matmul of each Arrow batch against
a broadcast query matrix (zero-copy fixed-size reshape of the list column),
partial top-k per batch, tiny final merge.  Scale path: LSH-bucketed variant
(random-hyperplane signatures -> groupby bucket -> exact rerank in-bucket).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..util import as_array


def _embedding_matrix(col) -> np.ndarray:
    """list<float> column -> (n, d) float64 matrix.

    Uses ``flatten()`` (offset-aware — ``arr.values`` ignores slice offsets)
    and validates a fixed dimension from the offsets: ragged rows or nulls
    raise instead of silently reshaping misaligned data into wrong vectors."""
    arr = as_array(col)
    n = len(arr)
    if n == 0:
        return np.zeros((0, 0), dtype=np.float64)
    if arr.null_count:
        raise ValueError("embedding column contains nulls")
    if pa.types.is_fixed_size_list(arr.type):
        d = arr.type.list_size
    else:
        offsets = arr.offsets.to_numpy(zero_copy_only=False)
        lens = np.diff(offsets)
        d = int(lens[0])
        if not np.all(lens == d):
            raise ValueError(f"ragged embedding lists (lengths {np.unique(lens)})")
    flat = arr.flatten().to_numpy(zero_copy_only=False)
    return flat.reshape(n, d).astype(np.float64)


class CosineTopK:
    """Per-batch partial top-k by cosine similarity against broadcast queries.

    Query matrix is normalized once in __init__ (built once per worker via
    ``util.worker_cached``); each batch does one (B, d) x (d, Q) matmul."""

    def __init__(self, queries: np.ndarray, k: int, id_col: str = "vec_id"):
        q = np.asarray(queries, dtype=np.float64)
        self.qn = q / np.linalg.norm(q, axis=1, keepdims=True)
        self.k = k
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        emb = _embedding_matrix(batch["embedding"])
        norms = np.linalg.norm(emb, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        sims = (emb / norms) @ self.qn.T  # (B, Q)
        k = min(self.k, sims.shape[0])
        out_q, out_id, out_s = [], [], []
        for qi in range(sims.shape[1]):
            s = sims[:, qi]
            if len(s) > k:
                # include ALL candidates tied at the kth similarity so the
                # (sim desc, id asc) tie-break matches the SQL oracle
                kth = np.partition(-s, k - 1)[k - 1]
                cand = np.nonzero(-s <= kth)[0]
            else:
                cand = np.arange(len(s))
            order = np.lexsort((ids[cand], -s[cand]))[:k]
            sel = cand[order]
            out_q.append(np.full(len(sel), qi, dtype=np.int64))
            out_id.append(ids[sel])
            out_s.append(s[sel])
        return pa.table(
            {
                "query_id": np.concatenate(out_q),
                "vec_id": np.concatenate(out_id),
                "cosine": np.concatenate(out_s),
            }
        )


def _scored_partials(ds, scorer_cls, queries: np.ndarray, k: int, id_col: str, batch_size):
    """Per-batch partial top-k in plain tasks: the query matrix is broadcast
    once and the scorer built once per worker process."""
    import ray

    from ..util import worker_cached

    qref = ray.put(np.asarray(queries, dtype=np.float64))

    def score(batch: pa.Table) -> pa.Table:
        scorer = worker_cached("ann.scorer", (scorer_cls.__name__, qref.hex(), k, id_col),
                               lambda: scorer_cls(ray.get(qref), k, id_col))
        return scorer(batch)

    return ds.map_batches(score, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=batch_size)


def ann_topk(ds, queries: np.ndarray, k: int, id_col: str = "vec_id", batch_size=65536):
    """Brute-force cosine top-k: map_batches partial -> groupby(query) final."""
    partial = _scored_partials(ds, CosineTopK, queries, k, id_col, batch_size)

    # total merge: vectorized key-bucket top-k (no per-query pandas groups)
    from .stats import top_k_per_group

    return top_k_per_group(partial, group_col="query_id", order_col="cosine",
                           k=k, tie_col="vec_id", ascending=False)


def ann_topk_ranks(ds, queries: np.ndarray, k: int, query_ids, id_col: str = "vec_id",
                   batch_size=65536):
    """ann_topk with an integer-only output (query_id, vec_id, rnk).

    The float similarity is dropped so the result is hash-comparable against
    a SQL oracle (`list_cosine_similarity` + row_number): both engines agree
    on the ORDER (sim desc, id asc) as long as rank gaps exceed float noise
    (~1e-7 here vs ~1e-3 gaps on the synthetic embeddings), but never on the
    similarity BITS (different summation order).  query_id is remapped from
    the positional index to the caller's stable id (the query row's vec_id)."""
    qid = np.asarray(query_ids, dtype=np.int64)
    partial = _scored_partials(ds, CosineTopK, queries, k, id_col, batch_size)

    from .stats import top_k_per_group

    # rank computed INSIDE the merge (rank_col=...), the only stage where a
    # query's rows are guaranteed whole — Ray's dynamic block splitting can
    # split a map_groups output block, so a later per-block rank pass could
    # restart at 1 mid-query (ADVICE r2)
    top = top_k_per_group(partial, group_col="query_id", order_col="cosine",
                          k=k, tie_col="vec_id", ascending=False,
                          rank_col="rnk")

    def remap(b: pa.Table) -> pa.Table:
        # row-wise only (safe under any block layout): positional query
        # index -> the caller's stable id; drop the float column
        q = b["query_id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "query_id": pa.array(qid[q]),
            "vec_id": b["vec_id"],
            "rnk": b["rnk"],
        })

    return top.map_batches(remap, batch_format="pyarrow", zero_copy_batch=True,
                           batch_size=None)


class HyperplaneLSH:
    """Scale path: random-hyperplane bucket signature per vector; vectors and
    queries sharing a bucket get exact rerank (candidate recall traded for a
    groupby instead of an all-pairs matmul)."""

    def __init__(self, dim: int, n_planes: int = 16, seed: int = 42):
        rng = np.random.default_rng(seed)
        self.planes = rng.standard_normal((dim, n_planes))

    def bucket(self, vecs: np.ndarray) -> np.ndarray:
        bits = (vecs @ self.planes) > 0
        weights = (1 << np.arange(bits.shape[1], dtype=np.int64))
        return bits.astype(np.int64) @ weights

    def __call__(self, batch: pa.Table) -> pa.Table:
        emb = _embedding_matrix(batch["embedding"])
        return batch.append_column("bucket", pa.array(self.bucket(emb)))


def ann_lsh_topk(ds, queries: np.ndarray, k: int, dim: int, n_planes: int = 8, id_col="vec_id"):
    """LSH-bucketed ANN: assign buckets, keep only buckets the queries hash
    into (broadcast set filter — a semi-join), then exact rerank.

    Approximate: recall depends on n_planes; documented as the 100TB path
    where brute force is too wide."""
    lsh = HyperplaneLSH(dim, n_planes)
    qbuckets = set(lsh.bucket(np.asarray(queries, dtype=np.float64)).tolist())

    def in_qbuckets(batch: pa.Table) -> pa.Table:
        emb = _embedding_matrix(batch["embedding"])
        b = lsh.bucket(emb)
        mask = np.isin(b, list(qbuckets))
        return batch.filter(pa.array(mask))

    filtered = ds.map_batches(in_qbuckets, batch_format="pyarrow", zero_copy_batch=True, batch_size=None,)
    return ann_topk(filtered, queries, k, id_col=id_col)


def _unit(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v, axis=1, keepdims=True)
    return v / np.where(n == 0, 1.0, n)


class IVFIndex:
    """IVF coarse quantizer (the second scale path named alongside LSH):
    k-means-lite centroids fit once on a sample (seed-fixed Lloyd iterations,
    driver- or actor-side), vectors bucketed by nearest centroid, queries
    probe the nprobe closest lists and exact-rerank inside them."""

    def __init__(self, sample: np.ndarray, n_lists: int = 16, iters: int = 10, seed: int = 42):
        rng = np.random.default_rng(seed)
        # the rerank metric is COSINE, so the quantizer must run on the
        # unit sphere: with unnormalized vectors, norm skew routes a query
        # toward centroids of similar MAGNITUDE rather than direction
        # (e.g. corpus {~10*e0, ~e1}: query e0 probes the e1 list and
        # misses every exact cosine match).  Normalize sample, vectors and
        # queries alike (_unit below).
        sample = _unit(np.asarray(sample, dtype=np.float64))
        init = sample[rng.choice(len(sample), size=min(n_lists, len(sample)), replace=False)]
        cent = init.copy()
        for _ in range(iters):
            d = ((sample[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
            assign = d.argmin(axis=1)
            for c in range(len(cent)):
                m = assign == c
                if m.any():
                    cent[c] = sample[m].mean(axis=0)
        self.centroids = cent

    def assign(self, vecs: np.ndarray) -> np.ndarray:
        v = _unit(np.asarray(vecs, dtype=np.float64))
        d = ((v[:, None, :] - self.centroids[None, :, :]) ** 2).sum(axis=2)
        return d.argmin(axis=1)

    def probe_lists(self, queries: np.ndarray, nprobe: int) -> np.ndarray:
        q = _unit(np.asarray(queries, dtype=np.float64))
        d = ((q[:, None, :] - self.centroids[None, :, :]) ** 2).sum(axis=2)
        return np.argsort(d, axis=1)[:, :nprobe]


def ann_ivf_topk(ds, queries: np.ndarray, k: int, *, sample: np.ndarray, n_lists: int = 16,
                 nprobe: int = 4, id_col: str = "vec_id"):
    """IVF ANN: centroids fit on the broadcast sample, vectors filtered to the
    union of the queries' probed lists (semi-join on the coarse code), exact
    cosine rerank on the survivors.  Approximate: recall grows with nprobe."""
    ivf = IVFIndex(sample, n_lists=n_lists)
    probe = set(ivf.probe_lists(np.asarray(queries, dtype=np.float64), nprobe).ravel().tolist())

    def in_probed(batch: pa.Table) -> pa.Table:
        emb = _embedding_matrix(batch["embedding"])
        codes = ivf.assign(emb)
        return batch.filter(pa.array(np.isin(codes, list(probe))))

    filtered = ds.map_batches(in_probed, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)
    return ann_topk(filtered, queries, k, id_col=id_col)


# ---------------------------------------------------------------------------
# Exact-integer ANN variants (oracle-checkable end-to-end)
# ---------------------------------------------------------------------------
# Cosine ORDER is decided on a monotone integer transform of the quantized
# cosine: score = sign(dot) * floor(SCORE_SCALE * dot^2 // (d_q * d_v)) over
# q = floor(e * 2^20) integer vectors — exact integer arithmetic on both
# engines (dot^2 needs >64 bits: python ints here, HUGEINT in the SQL twin).
# The float ann_topk above remains the general operator; these variants
# trade the metric's last ~1e-6 for a bit-checkable contract.

SCORE_SCALE = 1_000_000


def _quantized_scores(dots: np.ndarray, dv: np.ndarray, dq: int) -> np.ndarray:
    """sign(dot) * floor(SCALE * dot^2 / (dv * dq)) as int64 (python-int
    inner loop: dot^2 overflows int64; row counts here are batch-sized)."""
    out = np.empty(len(dots), dtype=np.int64)
    for idx in range(len(dots)):
        dot = int(dots[idx]); den = int(dv[idx]) * dq
        if den == 0:
            out[idx] = 0
            continue
        mag = (SCORE_SCALE * dot * dot) // den
        out[idx] = mag if dot >= 0 else -mag
    return out


class QuantizedCosineTopK:
    """Per-batch partial top-k by the exact quantized-cosine score."""

    def __init__(self, queries: np.ndarray, k: int, id_col: str = "vec_id"):
        from .dedup import quantize_embeddings

        self.qq = quantize_embeddings(np.asarray(queries, dtype=np.float64))
        self.dq = (self.qq * self.qq).sum(axis=1)
        self.k = k
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .dedup import quantize_embeddings

        if len(batch) == 0:
            # _embedding_matrix gives (0, 0) on empty batches — the matmul
            # below would raise on the dimension mismatch
            z = pa.array([], pa.int64())
            return pa.table({"query_id": z, "vec_id": z, "score": z})
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        q = quantize_embeddings(_embedding_matrix(batch["embedding"]))
        dots = q @ self.qq.T                      # (B, Q) int64, <= 2^45
        dv = (q * q).sum(axis=1)
        out_q, out_id, out_s = [], [], []
        for qi in range(self.qq.shape[0]):
            s = _quantized_scores(dots[:, qi], dv, int(self.dq[qi]))
            k = min(self.k, len(s))
            if len(s) > k:
                kth = np.partition(-s, k - 1)[k - 1]
                cand = np.nonzero(-s <= kth)[0]
            else:
                cand = np.arange(len(s))
            order = np.lexsort((ids[cand], -s[cand]))[:k]
            sel = cand[order]
            out_q.append(np.full(len(sel), qi, dtype=np.int64))
            out_id.append(ids[sel])
            out_s.append(s[sel])
        return pa.table({
            "query_id": np.concatenate(out_q),
            "vec_id": np.concatenate(out_id),
            "score": np.concatenate(out_s),
        })


def ann_topk_exact(ds, queries: np.ndarray, k: int, query_ids, id_col: str = "vec_id",
                   batch_size=65536):
    """Brute-force exact-integer cosine top-k: (query_id, vec_id, score,
    rnk) — every column integer, hash-comparable against the generated SQL
    twin with NO float-margin assumption anywhere (unlike ann_topk_ranks,
    which relies on rank gaps exceeding float noise)."""
    from .stats import top_k_per_group

    qid = np.asarray(query_ids, dtype=np.int64)
    partial = _scored_partials(ds, QuantizedCosineTopK, queries, k, id_col, batch_size)
    top = top_k_per_group(partial, group_col="query_id", order_col="score",
                          k=k, tie_col="vec_id", ascending=False, rank_col="rnk")

    def remap(b: pa.Table) -> pa.Table:
        qn = b["query_id"].to_numpy(zero_copy_only=False)
        return pa.table({"query_id": pa.array(qid[qn]), "vec_id": b["vec_id"],
                         "score": b["score"], "rnk": b["rnk"]})

    return top.map_batches(remap, batch_format="pyarrow", zero_copy_batch=True,
                           batch_size=None)


def quantized_lsh_filter(ds, queries: np.ndarray, n_planes: int = 6, seed: int = 42):
    """Exact single-table LSH semi-join filter: integer planes over quantized
    embeddings (the QuantizedMultiBandLSH math with n_bands=1); vectors kept
    iff their bucket is one of the queries' buckets."""
    from .dedup import integer_planes, quantize_embeddings

    q = quantize_embeddings(np.asarray(queries, dtype=np.float64))
    planes = integer_planes(q.shape[1], n_planes, 1, seed)[0]
    weights = 1 << np.arange(n_planes, dtype=np.int64)
    qbuckets = np.unique(((q @ planes) > 0).astype(np.int64) @ weights)

    def keep(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return batch  # (0,0) embedding matrix would break the matmul
        emb = quantize_embeddings(_embedding_matrix(batch["embedding"]))
        b = ((emb @ planes) > 0).astype(np.int64) @ weights
        return batch.filter(pa.array(np.isin(b, qbuckets)))

    return ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=None)


def quantized_ivf_filter(ds, queries: np.ndarray, seeds: np.ndarray, nprobe: int = 4):
    """Exact seeded-Voronoi IVF filter (coarse quantizer = the seed vectors
    themselves, no Lloyd refinement — float means are not bit-replayable):
    each vector routes to its nearest seed by exact integer ||q - s||^2
    (ties -> lowest seed index); vectors kept iff their list is among the
    union of the queries' nprobe closest lists."""
    from .dedup import quantize_embeddings

    s = quantize_embeddings(np.asarray(seeds, dtype=np.float64))
    q = quantize_embeddings(np.asarray(queries, dtype=np.float64))

    def assign(v: np.ndarray) -> np.ndarray:
        # ||v - s||^2 = |v|^2 - 2 v.s + |s|^2, all int64 (<= 2^48)
        d = ((v * v).sum(axis=1, keepdims=True)
             - 2 * (v @ s.T) + (s * s).sum(axis=1)[None, :])
        return d.argmin(axis=1)  # argmin takes the FIRST (lowest index) tie

    dq = ((q * q).sum(axis=1, keepdims=True)
          - 2 * (q @ s.T) + (s * s).sum(axis=1)[None, :])
    order = np.argsort(dq, axis=1, kind="stable")[:, :nprobe]
    probe = np.unique(order.ravel())

    def keep(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return batch  # (0,0) embedding matrix would break the matmul
        v = quantize_embeddings(_embedding_matrix(batch["embedding"]))
        return batch.filter(pa.array(np.isin(assign(v), probe)))

    return ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=None)
