"""Scale-decade oracle spot check (VERDICT r3 #8): build a ~sf1-equivalent
corpus (10x the largest generator SF) under /tmp and run the value-heaviest
sketch/ANN/pack oracle twins Ray-vs-DuckDB at that scale — the r3 simhash
sf0.1 divergence (a bucket crossing its drop cap) is exactly the failure
class only visible a decade above the driver gate.

Replicas are DECORRELATED so the near-dup structure stays ~10 independent
copies of sf0.1 rather than a quadratic clone blow-up:
  * documents: per-replica caesar-shifted letters (every shingle hash
    changes; alpha/char/token counts are preserved), doc_id += k*N;
  * embeddings: per-replica np.roll of the vector (norms preserved,
    cosines decorrelated), vec_id += k*N for k>0 (replica 0 keeps the
    original ids so the fixed ANN query ids still resolve).

Usage: PYTHONPATH=/root/repo python scripts/scale_decade_check.py
Env: GRAFT_DECADE_SKIP (comma list of checks to skip), GRAFT_DECADE_DIR
(where the 10x corpus is written), GRAFT_DECADE_CPUS (Ray num_cpus),
GRAFT_DECADE_REPLICAS, GRAFT_DECADE_BUDGET_S (DuckDB wall per check).
"""

import sys
import time

sys.path.insert(0, "/root/repo")

import os

REPLICAS = int(os.environ.get("GRAFT_DECADE_REPLICAS", "10"))
SRC = "/root/testdata/sf0.1"

# cheap replays first; the sketch CTE replays (64-perm minhash, 64-term
# simhash bit votes over every shingle) are at the END — DuckDB needs
# minutes-to-forever on them at 10x, and the interrupt budget turns the
# overrun into a recorded TIMEOUT instead of a wedged process
CHECKS = [
    q for q in [
        # r5-cont additions: window functions / sequences over 10x events,
        # histogram + moments + star-join over 10x orders/lineitem
        "window_funcs",
        "moving_stats",
        "funnel_stages",
        "cohort_retention",
        "user_actions_outer",
        "cube_lang_source",
        "jsonl_roundtrip",
        "quantile_chars_cont",
        "user_first_last",
        "csv_roundtrip",
        "user_paths",
        # the one-sided key-bucket families: sessions over 10x events and
        # the per-group top-k merge.  dedup_clusters is deliberately ABSENT:
        # its WITH RECURSIVE min-label twin runs DuckDB out of memory at 10x
        # (a 4 GiB allocation past 12.5 GiB used)
        "sessionize",
        "top_docs_per_lang",
        "mode_chars",
        "price_histogram",
        "corr_stats",
        "customer_order_totals",
        # the co-partition shuffle families: key joins over 10x
        # orders/lineitem/events, box and distance joins over documents,
        # TF-IDF term buckets
        "order_lineitem_join",
        "orders_no_lineitem",
        "skew_join",
        "asof_join",
        "interval_join_bucketed",
        "orders_left_join",
        "semi_bloom",
        "tfidf_terms",
        "box_join",
        "distance_pairs",
        # the broadcast PIP refine, block-wise: point-in-zone hits and the
        # polygonal summary over 10x documents
        "pip_zones",
        "zonal_summary",
        "pack_sequences",
        "corpus_clean",
        "paragraph_dedup",
        "paragraph_dup_ratio",
        "mixture_sample",
        "dedup_delta",
        "rollup_lang_source",
        "quantile_price",
        "quantile_price_cont",
        "vocab_coverage",
        # r5 final wave: bigram top-k, pivot, set ops.  edit_distance_pairs
        # is deliberately ABSENT: its SQL twin is a quadratic levenshtein
        # nested loop (~2.5B pairs at 10x) — the Ray side is decade-safe but
        # the DuckDB replay isn't; its adversarial coverage lives in
        # test_dedup.py planted corpora instead.
        "top_bigrams",
        "pivot_lang_source",
        "lang_set_ops",
        "graph_rank",
        # r5 last wave: token-sort dedup, regex extraction, broadcast
        # z-score, heavy-hitter top-k (proof/rescue tier)
        "bow_dedup",
        "regex_tokens",
        "zscore_chars",
        "top_bigrams_hh",
        "dedup_keep_best",
        "quantile_chars",
        "token_stats",
        "quality_scores",
        "ann_lsh",
        "ann_ivf",
        "ann_cosine",
        "ann_rank",
        # the exact pair joins: the inverted-index and PPJoin Jaccard
        # joins (one SQL twin, over the JACCARD_SAMPLE_LIMIT id range) and
        # the substring windows (a generate_series/substr window grid)
        "jaccard_exact_pairs",
        "jaccard_prefix_pairs",
        "substring_pairs",
        "embedding_neardup",
        "simhash_pairs",
        "minhash_pairs",
        "ngram_jaccard_pairs",
    ]
    if q not in os.environ.get("GRAFT_DECADE_SKIP", "").split(",")
]


def build_corpus(dst: str) -> None:
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    os.makedirs(dst, exist_ok=True)
    docs = pq.read_table(f"{SRC}/documents.parquet")
    n = docs.num_rows
    lower = "abcdefghijklmnopqrstuvwxyz"
    upper = lower.upper()
    doc_parts = []
    for k in range(REPLICAS):
        t = {name: docs[name].to_pylist() for name in docs.column_names}
        if k:
            shift = k % 26
            table = str.maketrans(
                lower + upper,
                lower[shift:] + lower[:shift] + upper[shift:] + upper[:shift])
            t["text"] = [s.translate(table) if s is not None else None
                         for s in t["text"]]
            t["doc_id"] = [d + k * n for d in t["doc_id"]]
        doc_parts.append(pa.table(
            {name: pa.array(t[name], docs.schema.field(name).type)
             for name in docs.column_names}))
    pq.write_table(pa.concat_tables(doc_parts), f"{dst}/documents.parquet")

    emb = pq.read_table(f"{SRC}/embeddings.parquet")
    m = emb.num_rows
    vec_ids = np.asarray(emb["vec_id"].to_pylist(), dtype=np.int64)
    vecs = np.asarray(emb["embedding"].to_pylist(), dtype=np.float64)
    id_parts, vec_parts = [], []
    for k in range(REPLICAS):
        id_parts.append(vec_ids + k * m if k else vec_ids)
        vec_parts.append(np.roll(vecs, k, axis=1) if k else vecs)
    out = pa.table({
        "vec_id": pa.array(np.concatenate(id_parts)),
        "embedding": pa.array(list(np.concatenate(vec_parts, axis=0)),
                              emb.schema.field("embedding").type),
    })
    pq.write_table(out, f"{dst}/embeddings.parquet")

    # lineitem replicates too (r5: the quantile_price/_cont decade checks
    # read it) — exact row duplication with shifted orderkeys, which is the
    # WORST case for the radix refinement: every value bin's occupancy
    # grows 10x, forcing recursion through oversized duplicate-heavy bins.
    # r5-cont: orders replicates with the SAME shift base so the 10x corpus
    # keeps referential integrity for the chain-join / histogram checks
    # (o_custkey stays — customer is an unreplicated dimension).
    li = pq.read_table(f"{SRC}/lineitem.parquet")
    orders = pq.read_table(f"{SRC}/orders.parquet")
    nk = np.asarray(li["l_orderkey"].to_pylist(), dtype=np.int64)
    ok_ = np.asarray(orders["o_orderkey"].to_pylist(), dtype=np.int64)
    kmax = max(int(nk.max()) + 1 if len(nk) else 1,
               int(ok_.max()) + 1 if len(ok_) else 1)
    li_parts, ord_parts = [], []
    for k in range(REPLICAS):
        part = li.set_column(li.schema.get_field_index("l_orderkey"),
                             "l_orderkey", pa.array(nk + k * kmax)) if k else li
        li_parts.append(part)
        opart = orders.set_column(orders.schema.get_field_index("o_orderkey"),
                                  "o_orderkey", pa.array(ok_ + k * kmax)) if k else orders
        ord_parts.append(opart)
    pq.write_table(pa.concat_tables(li_parts), f"{dst}/lineitem.parquet")
    pq.write_table(pa.concat_tables(ord_parts), f"{dst}/orders.parquet")

    # events replicate as REPLICAS independent user populations (user_id and
    # event_id shifted, timestamps/values unchanged) — the window-function /
    # sequence-collection checks see 10x users with identical per-user
    # structure, so per-key window semantics are stressed at scale without
    # changing any single user's stream
    ev = pq.read_table(f"{SRC}/events.parquet")
    euid = np.asarray(ev["user_id"].to_pylist(), dtype=np.int64)
    eeid = np.asarray(ev["event_id"].to_pylist(), dtype=np.int64)
    ubase = int(euid.max()) + 1 if len(euid) else 1
    ebase = int(eeid.max()) + 1 if len(eeid) else 1
    ev_parts = []
    for k in range(REPLICAS):
        p = ev
        if k:
            p = p.set_column(p.schema.get_field_index("user_id"), "user_id",
                             pa.array(euid + k * ubase))
            p = p.set_column(p.schema.get_field_index("event_id"), "event_id",
                             pa.array(eeid + k * ebase))
        ev_parts.append(p)
    pq.write_table(pa.concat_tables(ev_parts), f"{dst}/events.parquet")

    # other tables ride along unreplicated (dimensions for the checked
    # queries; _read_pq of a missing table would fail fast anyway)
    for t in ("region", "nation", "customer", "supplier", "part"):
        src = f"{SRC}/{t}.parquet"
        if os.path.exists(src):
            pq.write_table(pq.read_table(src), f"{dst}/{t}.parquet")


def main() -> int:
    import duckdb
    import pandas as pd
    import ray

    dst = os.environ.get("GRAFT_DECADE_DIR", "/tmp/scale_decade_sf1")
    t0 = time.time()
    build_corpus(dst)
    print(f"corpus built in {time.time() - t0:.0f}s", flush=True)

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False,
                 num_cpus=int(os.environ.get("GRAFT_DECADE_CPUS", "32")))
    import __ray_entry__ as e

    con = duckdb.connect()
    for t in ("region", "nation", "customer", "supplier", "part", "orders",
              "lineitem", "events", "documents", "embeddings"):
        con.execute(f"CREATE VIEW {t} AS SELECT * "
                    f"FROM read_parquet('{dst}/{t}.parquet')")

    def norm(df: pd.DataFrame) -> pd.DataFrame:
        df = df[sorted(df.columns)]
        return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)

    qs, sqls = e.queries(), e.oracle_sql()
    bad = []
    budget_s = float(__import__("os").environ.get("GRAFT_DECADE_BUDGET_S", "600"))

    def run_sql(q: str):
        """DuckDB with a hard wall budget: SIGTERM can't interrupt a C-level
        query, so a timer thread calls con.interrupt() instead."""
        import threading

        timer = threading.Timer(budget_s, con.interrupt)
        timer.start()
        try:
            return con.execute(q).df()
        finally:
            timer.cancel()

    for name in CHECKS:
        try:
            t0 = time.time()
            r = qs[name](dst)
            ray_df = norm(r.to_pandas() if not isinstance(r, pd.DataFrame) else r)
            t_ray = time.time() - t0
            t0 = time.time()
            ora_df = norm(run_sql(sqls[name]))
            t_sql = time.time() - t0
            same = ray_df.shape == ora_df.shape
            if same:
                import numpy as np

                for c in ray_df.columns:
                    av = ray_df[c].to_numpy()
                    bv = ora_df[c].to_numpy()
                    if av.dtype.kind == "O" or bv.dtype.kind == "O":
                        same = same and (av == bv).all()
                    elif av.dtype.kind == "f" or bv.dtype.kind == "f":
                        same = same and np.array_equal(
                            av.astype(np.float64), bv.astype(np.float64),
                            equal_nan=True)
                    else:
                        same = same and (av.astype(np.int64) == bv.astype(np.int64)).all()
            status = "OK " if same else "DIVERGED"
            if not same:
                bad.append(name)
            print(f"{status} {name}: rows {len(ray_df)} ray {t_ray:.1f}s "
                  f"sql {t_sql:.1f}s", flush=True)
        except Exception as ex:  # noqa: BLE001
            bad.append(name)
            print(f"ERROR {name}: {type(ex).__name__}: {str(ex)[:160]}", flush=True)
    print(f"DONE {len(CHECKS) - len(bad)}/{len(CHECKS)} bit-identical at "
          f"{REPLICAS}x sf0.1", flush=True)
    ray.shutdown()
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
