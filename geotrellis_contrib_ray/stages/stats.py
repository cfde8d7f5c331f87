"""Distribution statistics over discrete columns: exact distributed
quantiles (percentile_disc semantics) — the quality-cutoff primitive a
training-data pipeline uses to pick filtering thresholds.

Scale shape: quantiles are HOLISTIC (nondecomposable) aggregates, but over
a DISCRETE value domain they reduce to a value histogram — per-batch
pyarrow counts, one groupby((group, value)).sum whose shuffle moves one row
per distinct value per group per block, then a per-group cumsum selection
over the tiny histogram.  The histogram side is bounded by the value
domain, not the corpus (n_chars: thousands of distinct values at any
corpus size), so this is exact at 10^12 rows with a KB-sized wide step —
no sampling, no t-digest approximation.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import _map_key_groups
from .joins import _by_key


def top_k_per_group(ds, group_col: str, order_col: str, k: int,
                    tie_col: str, ascending: bool = False,
                    carry_cols: tuple = (), rank_col: str | None = None):
    """Top-k rows per group by (order_col, tie_col): per-batch partial top-k
    PER GROUP (the shuffle moves <= k rows per group per block, never the
    corpus), then a per-group merge.  Ties at the kth value are broken by
    ascending tie_col — the same total order as the SQL
    ``row_number() OVER (PARTITION BY g ORDER BY v [DESC], t)`` oracle.

    ``rank_col``: when set, the winners carry their 1-based in-group rank
    under this name.  The rank is computed INSIDE the per-group merge —
    the only place group wholeness is guaranteed (a later map_batches
    could see a group split across blocks by Ray's dynamic block
    splitting, restarting the rank mid-group).

    Output: (group_col, order_col, tie_col, *carry_cols[, rank_col]) of the
    winners — ``carry_cols`` ride along untouched (any dtype; selected via
    Arrow take, so they never pass through numpy)."""
    cols = [group_col, order_col, tie_col, *carry_cols]

    def partial(b: pa.Table, with_rank: bool = False) -> pa.Table:
        b = b.select(cols)
        gv = b[group_col].to_numpy(zero_copy_only=False)
        ov = b[order_col].to_numpy(zero_copy_only=False)
        tv = b[tie_col].to_numpy(zero_copy_only=False)
        key = ov if ascending else -ov
        order = np.lexsort((tv, key, gv))  # group, then (value, tie)
        g = gv[order]
        grp_start = np.r_[True, g[1:] != g[:-1]]
        idx = np.arange(len(g))
        start = np.maximum.accumulate(np.where(grp_start, idx, 0))
        keep = (idx - start) < k
        out = b.take(pa.array(order[keep]))
        if with_rank:
            rnk = (idx - start)[keep] + 1
            out = out.append_column(rank_col, pa.array(rnk.astype(np.int64)))
        return out

    # total merge: groups land whole in a key bucket, where the same
    # vectorized rank-within-group kernel is total (no ~1 ms/group cost)
    from .joins import _bucket_count, _co_partition, _key_route

    key_route = _key_route(cols, group_col, _bucket_count(ds))

    def merge_bucket(t: pa.Table) -> pa.Table:
        return partial(t, with_rank=rank_col is not None)

    # the per-batch partial runs inside the route, so the co-partition's
    # side is ``ds`` itself: a plan leaf sizes the shuffle from its bytes
    # (or, in one block, makes it one task)
    return _co_partition([(ds, lambda b: key_route(partial(b)))], merge_bucket)


def grouped_quantiles(ds, value_col: str, qs: tuple[float, ...],
                      group_col: str | None = None):
    """Exact quantile_disc per group: for each q, the smallest value whose
    cumulative count reaches ceil(q * n) (index ceil(q*n)-1 of the sorted
    multiset — DuckDB quantile_disc / Postgres percentile_disc, verified
    empirically against DuckDB on boundary cases).

    Output: (group_col?, q:float64, value: <value_col type>).
    Partitioning assumption: one GROUP's histogram fits a worker (domain-
    bounded, not corpus-bounded)."""
    gcols = [group_col] if group_col else []

    def partial(b: pa.Table) -> pa.Table:
        g = (
            b.select(gcols + [value_col])
            .group_by(gcols + [value_col], use_threads=False)
            .aggregate([([], "count_all")])
        )
        return g.rename_columns(gcols + [value_col, "pcnt"])

    # histogram combine = a MANY-group total reduction (one group per
    # distinct (group, value)): keyed reduce, not raw groupby
    # aggregate (the ~40x rule, CLAUDE.md / stages/agg.py)
    from .agg import salted_group_reduce

    hist = salted_group_reduce(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None),
        gcols + [value_col],
        [("pcnt", "sum", "cnt")],
    )

    qarr = np.asarray(sorted(qs), dtype=np.float64)

    def select(g: pa.Table) -> pa.Table:
        vals = g[value_col].to_numpy()
        cnts = g["cnt"].to_numpy().astype(np.int64)
        o = np.argsort(vals, kind="mergesort")
        v, c = vals[o], cnts[o]
        cum = np.cumsum(c)
        n = int(cum[-1])
        # ranks: ceil(q*n) with integer-safe ceil on the float product
        ranks = np.array([int(math.ceil(q * n)) for q in qarr], dtype=np.int64)
        ranks = np.clip(ranks, 1, n)
        idx = np.searchsorted(cum, ranks, side="left")
        cols = {}
        if group_col:
            cols[group_col] = g[group_col].take(np.zeros(len(qarr), np.int64))
        cols["q"] = qarr
        cols["value"] = v[idx]
        return pa.table(cols)

    if group_col:
        return _map_key_groups(hist, [group_col], [group_col, value_col, "cnt"], select)
    # global: the histogram is domain-bounded (small) — one final task
    return hist.repartition(1).map_batches(select, batch_format="pyarrow", batch_size=None)


def grouped_quantiles_cont(ds, value_col: str, qs: tuple[float, ...],
                           group_col: str):
    """Per-group INTERPOLATED quantiles (percentile_cont): idx = q*(n-1)
    (0-based within the group), value = lo + (hi-lo)*frac over the group's
    order statistics at floor(idx) / min(floor(idx)+1, n-1).

    Same domain-bounded histogram plan as :func:`grouped_quantiles`; the
    interpolation is the SAME fixed double expression as
    :func:`exact_quantiles_cont` (values cast to float64 FIRST, one
    subtraction, one multiply, one add — the generated twin replays it
    verbatim instead of trusting the builtin's association).

    Output: (group_col, q: float64, value: float64).  Partitioning
    assumption: one GROUP's histogram fits a worker (domain-bounded)."""

    def partial(b: pa.Table) -> pa.Table:
        g = (
            b.select([group_col, value_col])
            .group_by([group_col, value_col], use_threads=False)
            .aggregate([([], "count_all")])
        )
        return g.rename_columns([group_col, value_col, "pcnt"])

    from .agg import salted_group_reduce

    hist = salted_group_reduce(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True,
                       batch_size=None),
        [group_col, value_col],
        [("pcnt", "sum", "cnt")],
    )

    qarr = sorted({float(q) for q in qs})

    def select(g: pa.Table) -> pa.Table:
        vals = g[value_col].to_numpy().astype(np.float64)
        cnts = g["cnt"].to_numpy().astype(np.int64)
        o = np.argsort(vals, kind="mergesort")
        v, c = vals[o], cnts[o]
        cum = np.cumsum(c)
        n = int(cum[-1])
        out_q, out_v = [], []
        for q in qarr:
            idx = q * (n - 1)
            lo_i = int(np.floor(idx))
            hi_i = min(lo_i + 1, n - 1)
            lo_v = v[np.searchsorted(cum, lo_i + 1, side="left")]
            hi_v = v[np.searchsorted(cum, hi_i + 1, side="left")]
            frac = idx - np.floor(idx)
            out_q.append(q)
            out_v.append(lo_v + (hi_v - lo_v) * frac)
        return pa.table({
            group_col: g[group_col].take(np.zeros(len(qarr), np.int64)),
            "q": pa.array(out_q, pa.float64()),
            "value": pa.array(out_v, pa.float64()),
        })

    return _map_key_groups(hist, [group_col], [group_col, value_col, "cnt"], select)


def grouped_mode(ds, group_col: str, value_col: str):
    """Exact per-group MODE (most frequent value; ties -> smallest value):
    per-batch (group, value) count partials, ONE keyed-reduce shuffle to
    total the histogram, then the top-k winner merge (k=1) — never a
    per-group python pass at corpus-scale group counts, and the shuffle
    moves one row per distinct (group, value) per block, not the corpus.

    Same total order as the SQL twin
    ``row_number() OVER (PARTITION BY g ORDER BY cnt DESC, value)``.
    Output: (group_col, cnt, value_col)."""
    from .agg import salted_group_reduce

    def partial(b: pa.Table) -> pa.Table:
        g = (
            b.select([group_col, value_col])
            .group_by([group_col, value_col], use_threads=False)
            .aggregate([([], "count_all")])
        )
        return g.rename_columns([group_col, value_col, "pcnt"])

    hist = salted_group_reduce(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None),
        [group_col, value_col],
        [("pcnt", "sum", "cnt")],
    )
    return top_k_per_group(hist, group_col, "cnt", 1, tie_col=value_col,
                           ascending=False)


def value_histogram(ds, value_col: str, width: float, nbins: int):
    """Fixed-width-bin histogram with integer-cent value sums:
    bin = min(floor(x / width), nbins - 1).  Bin count is a small constant,
    so this is the BOUNDED-groups tier — per-batch bincount partials combine
    on the driver with NO all-to-all at all (the total-reduce tier rule).
    Empty bins are absent (GROUP BY semantics, same as the SQL twin).

    Output: (bin:int64, sum_cents:int64, n_rows:int64)."""
    from .agg import driver_group_rollup

    def partial(b: pa.Table) -> pa.Table:
        x = b[value_col].to_numpy(zero_copy_only=False)
        binv = np.minimum(np.floor(x / width).astype(np.int64), nbins - 1)
        cents = np.floor(x * 100.0).astype(np.int64)
        t = pa.table({"bin": pa.array(binv), "c": pa.array(cents)})
        g = t.group_by("bin", use_threads=False).aggregate(
            [("c", "sum"), ("c", "count")])
        return g.rename_columns(["bin", "ps", "pc"])

    part = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)
    return driver_group_rollup(
        part, ["bin"],
        [("ps", "sum", "sum_cents"), ("pc", "sum", "n_rows")])


def corr_from_moments(n, sx, sy, sxx, sxy, syy):
    """Pearson r from exact integer moment sums — ONE fixed double
    expression, mirrored token-for-token by query_defs.corr_sql_expr so the
    float column hash-matches the DuckDB twin (the quantile_cont replay
    precedent: both engines evaluate the identical IEEE parse tree over the
    same exact integers)."""
    fn = n.astype(np.float64)
    fsx = sx.astype(np.float64)
    fsy = sy.astype(np.float64)
    fsxx = sxx.astype(np.float64)
    fsxy = sxy.astype(np.float64)
    fsyy = syy.astype(np.float64)
    return (fn * fsxy - fsx * fsy) / (
        np.sqrt(fn * fsxx - fsx * fsx) * np.sqrt(fn * fsyy - fsy * fsy))


def grouped_moments(ds, group_col: str, x_col: str, y_col: str):
    """Distributed bivariate moment sums per group — the exact building
    block of COUNT/COV/CORR at any scale: per-batch integer partials of
    (n, Σx, Σy, Σx², Σxy, Σy²), driver rollup (bounded groups, NO
    all-to-all), then Pearson r via one shared double expression.

    ``x_col``/``y_col`` must already be int64 (callers floor-scale their
    doubles); int64 is exact while per-group Σx² < 2^63 — with x < 10^5
    (whole dollars) that is ~10^9 rows per group, beyond which callers
    rescale x (the twin shares the scale constant either way).

    Output: (group_col, n_rows, sum_x, sum_y, sum_xx, sum_xy, sum_yy,
    corr_r:float64)."""
    from .agg import driver_group_rollup

    def partial(b: pa.Table) -> pa.Table:
        x = b[x_col].to_numpy(zero_copy_only=False).astype(np.int64)
        y = b[y_col].to_numpy(zero_copy_only=False).astype(np.int64)
        t = pa.table({
            group_col: b[group_col],
            "x": pa.array(x), "y": pa.array(y),
            "xx": pa.array(x * x), "xy": pa.array(x * y),
            "yy": pa.array(y * y),
        })
        g = t.group_by(group_col, use_threads=False).aggregate(
            [("x", "sum"), ("y", "sum"), ("xx", "sum"),
             ("xy", "sum"), ("yy", "sum"), ("x", "count")])
        return g.rename_columns([group_col, "px", "py", "pxx", "pxy", "pyy", "pn"])

    part = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)
    out = driver_group_rollup(
        part, [group_col],
        [("pn", "sum", "n_rows"), ("px", "sum", "sum_x"), ("py", "sum", "sum_y"),
         ("pxx", "sum", "sum_xx"), ("pxy", "sum", "sum_xy"), ("pyy", "sum", "sum_yy")])
    r = corr_from_moments(
        out["n_rows"].to_numpy(), out["sum_x"].to_numpy(), out["sum_y"].to_numpy(),
        out["sum_xx"].to_numpy(), out["sum_xy"].to_numpy(), out["sum_yy"].to_numpy())
    return out.append_column("corr_r", pa.array(r, pa.float64()))


# ---------------------------------------------------------------------------
# HyperLogLog — the APPROXIMATE tier next to the exact pair-shuffle distinct
# ---------------------------------------------------------------------------


def _hll_mix(x: np.ndarray) -> np.ndarray:
    z = x.view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _hll_estimate(regs: np.ndarray) -> float:
    """Bias-corrected HLL estimate with linear-counting small-range fix."""
    m = float(len(regs))
    alpha = 0.7213 / (1.0 + 1.079 / m)
    est = alpha * m * m / np.sum(np.power(2.0, -regs.astype(np.float64)))
    zeros = int((regs == 0).sum())
    if est <= 2.5 * m and zeros:
        return m * np.log(m / zeros)
    return est


def grouped_count_distinct_hll(ds, group_col: str, value_col: str, p: int = 12):
    """Approximate per-group COUNT DISTINCT via HyperLogLog: each batch
    folds its values into one 2^p-register sketch PER GROUP (vectorized
    np.maximum.at), the shuffle carries sketches (2^p bytes per group per
    block — independent of row count), and the per-group merge is an
    elementwise register max + the bias-corrected estimate.

    This is the 100 TB tier beside the exact two-level distinct: the exact
    plan shuffles every distinct pair; this one shuffles a fixed 4 KB per
    (group, block).  Standard error ~1.04/sqrt(2^p) (~1.6% at p=12).

    Output: (group_col, n_approx:int64)."""
    if p < 12:
        # the float64-exponent clz trick is exact only while the sentinel
        # bit (p-1) keeps the low 11 mantissa-dropped bits from rounding
        # rest up to 2^64 (rank 0 no-op) — p >= 12 guarantees it
        raise ValueError("grouped_count_distinct_hll requires p >= 12")
    m = 1 << p

    def sketch_group(g: pa.Table) -> pa.Table:
        vals = g[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        h = _hll_mix(vals)
        idx = (h >> np.uint64(64 - p)).astype(np.int64)
        rest = (h << np.uint64(p)) | np.uint64(1 << (p - 1))  # sentinel caps rank
        # rank = clz(rest) + 1 via the float64 exponent: exponent(v) =
        # (bits >> 52) - 1023 = floor(log2 v), so clz = 1086 - (bits >> 52)
        # (validated exactly against bit_length over the full range)
        rank = (1087 - (rest.astype(np.float64).view(np.int64) >> 52)).astype(np.uint8)
        regs = np.zeros(m, np.uint8)
        np.maximum.at(regs, idx, rank)
        return pa.table({group_col: g[group_col].slice(0, 1),
                         "regs": pa.array([regs.tobytes()], pa.binary())})

    def sketch(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return pa.table({group_col: pa.array([], b.schema.field(group_col).type),
                             "regs": pa.array([], pa.binary())})
        return pa.concat_tables(list(_by_key(b.select([group_col, value_col]),
                                                sketch_group, [group_col])))

    def merge(g: pa.Table) -> pa.Table:
        # one row per block that saw the group: a (blocks, m) register max
        regs = np.frombuffer(b"".join(g["regs"].to_pylist()), np.uint8).reshape(-1, m)
        return pa.table({
            group_col: g[group_col].slice(0, 1),
            "n_approx": pa.array([int(round(_hll_estimate(regs.max(axis=0))))], pa.int64()),
        })

    part = ds.map_batches(sketch, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=None)
    return _map_key_groups(part, [group_col], [group_col, "regs"], merge)


def _resolve_order_stats(ds, value_col: str, ranks_of_n, coarse_bits: int,
                         pull_limit: int):
    """Shared radix-refinement engine: resolve arbitrary ORDER STATISTICS of
    an unbounded float64 column exactly.  ``ranks_of_n(n) -> {label: rank}``
    (1-based ranks) is called after the first counting pass; returns
    ``(n, {label: value})``.  See exact_quantiles_unbounded for the
    algorithm description."""
    from .agg import salted_group_reduce

    def order_key(vals: np.ndarray) -> np.ndarray:
        b = vals.astype(np.float64).view(np.uint64)
        flip = np.where(b >> np.uint64(63) == 1,
                        np.uint64(0xFFFFFFFFFFFFFFFF), np.uint64(1) << np.uint64(63))
        return b ^ flip

    def count_level(src, shift: int, prefix_mask: dict | None):
        """Counting pass: rows (optionally restricted to prefix bins) ->
        (bin, cnt) table on the driver, plus nothing else moving."""
        def partial(b: pa.Table) -> pa.Table:
            vals = b[value_col].to_numpy(zero_copy_only=False)
            k = order_key(vals)
            if prefix_mask is not None:
                pshift, pbins = prefix_mask["shift"], prefix_mask["bins"]
                sel = np.isin(k >> np.uint64(pshift), pbins)
                k = k[sel]
            binv = (k >> np.uint64(shift)).view(np.int64)
            u, c = np.unique(binv, return_counts=True)
            return pa.table({"bin": pa.array(u), "pcnt": pa.array(c.astype(np.int64))})

        red = salted_group_reduce(
            src.map_batches(partial, batch_format="pyarrow",
                            zero_copy_batch=True, batch_size=None),
            ["bin"], [("pcnt", "sum", "cnt")])
        t = pa.concat_tables(
            list(red.iter_batches(batch_size=None, batch_format="pyarrow"))
            or [pa.table({"bin": pa.array([], pa.int64()),
                          "cnt": pa.array([], pa.int64())})])
        bins = t["bin"].to_numpy(zero_copy_only=False).view(np.uint64)
        cnts = t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(bins)
        return bins[order], cnts[order]

    shift = 64 - coarse_bits
    bins, cnts = count_level(ds, shift, None)
    n = int(cnts.sum())
    if n == 0:
        return 0, {}
    targets = ranks_of_n(n)

    results: dict = {}
    # per-level state: for each unresolved q, (rank within the current
    # restriction, the prefix bins of its restriction)
    pend = {q: (r, None) for q, r in targets.items()}
    while pend:
        # group unresolved qs by their restriction so one level pass serves all
        # (level-0: restriction None for everyone)
        # locate each q's bin at THIS level
        level_prefixes = {}
        for q, (rank, restrict) in list(pend.items()):
            if restrict is None:
                b_l, c_l = bins, cnts
            else:
                b_l, c_l = restrict["bins_counts"]
            cum = np.cumsum(c_l)
            i = int(np.searchsorted(cum, rank))
            within = rank - (int(cum[i - 1]) if i else 0)
            level_prefixes[q] = (b_l[i], int(c_l[i]), within,
                                 restrict["shift"] if restrict else shift)
        # a bin at shift 0 IS the full 64-bit order key: every member is the
        # same float — invert the key directly, no pull needed (covers the
        # all-equal-values corpus whose one bin never shrinks)
        def key_to_float(k: np.uint64) -> float:
            k = np.uint64(k)
            if (k >> np.uint64(63)) == 1:
                raw = k ^ (np.uint64(1) << np.uint64(63))
            else:
                raw = ~k
            return float(np.array([raw], np.uint64).view(np.float64)[0])

        # resolve bins small enough to pull; recurse on the rest
        pull_bins: dict[tuple, list] = {}
        for q, (binv, cnt, within, sh) in level_prefixes.items():
            if sh == 0:
                results[q] = key_to_float(binv)
                del pend[q]
            elif cnt <= pull_limit:
                pull_bins.setdefault((int(binv), sh), []).append((q, within))
        if pull_bins:
            pb = {sh: np.array([b for (b, s) in pull_bins if s == sh], dtype=np.uint64)
                  for sh in {s for (_, s) in pull_bins}}

            def grab(b: pa.Table) -> pa.Table:
                vals = b[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
                k = order_key(vals)
                keep = np.zeros(len(vals), dtype=bool)
                for sh, arr in pb.items():
                    keep |= np.isin(k >> np.uint64(sh), arr)
                return pa.table({value_col: pa.array(vals[keep])})

            pulled = pa.concat_tables(
                ds.map_batches(grab, batch_format="pyarrow",
                               zero_copy_batch=True, batch_size=None)
                .iter_batches(batch_size=None, batch_format="pyarrow"))
            pv = pulled[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
            pk = order_key(pv)
            for (binv, sh), lst in pull_bins.items():
                sel = pv[(pk >> np.uint64(sh)) == np.uint64(binv)]
                sel = np.sort(sel)
                for q, within in lst:
                    results[q] = float(sel[within - 1])
                    del pend[q]
        # recurse the rest one radix level down — ONE counting pass per level
        # serves every unresolved q (r5 ADVICE fix: the old per-q call made k
        # quantiles in distinct oversized bins cost k full scans per level):
        # count the UNION of unresolved parent bins in a single prefix_mask
        # (count_level's np.isin already takes multi-bin masks), then slice
        # each q's child histogram back out by parent-prefix match.
        next_pend = {}
        by_shift: dict[int, dict] = {}
        for q, (rank, restrict) in pend.items():
            binv, cnt, within, sh = level_prefixes[q]
            by_shift.setdefault(sh, {})[q] = (binv, within)
        for sh, qmap in by_shift.items():
            nsh = max(0, sh - coarse_bits)
            parents = np.unique(np.array([b for b, _ in qmap.values()],
                                         dtype=np.uint64))
            nb, nc = count_level(ds, nsh, {"shift": sh, "bins": parents})
            parent_of = nb >> np.uint64(sh - nsh)
            for q, (binv, within) in qmap.items():
                m = parent_of == np.uint64(binv)
                next_pend[q] = (within, {"shift": nsh,
                                         "bins_counts": (nb[m], nc[m])})
        pend = next_pend

    return n, results


def exact_quantiles_unbounded(ds, value_col: str, qs: tuple[float, ...],
                              coarse_bits: int = 16, pull_limit: int = 262_144):
    """EXACT quantile_disc over an UNBOUNDED float64 domain — the tier for
    value spaces whose DISTINCT count is corpus-scale (grouped_quantiles'
    per-group histogram assumes it fits a worker; a float measure column at
    corpus scale does not).

    Radix refinement over the IEEE-754 TOTAL-ORDER key (bits(f) with the
    sign-dependent flip: ascending uint64 order == ascending float order,
    NaNs sort last):
      1. one distributed counting pass over the top ``coarse_bits`` of the
         order key -> <= 2^coarse_bits partial rows reach the driver;
      2. the driver locates each target rank's bin (rank = ceil(q*n), the
         quantile_disc index) and either
           a. pulls that bin's values if its count <= pull_limit (exact
              select by rank-within-bin), or
           b. recurses: another counting pass over the NEXT coarse_bits of
              only the rows in unresolved bins (a narrow distributed
              filter) — at most ceil(64/coarse_bits) levels total, so even
              a single repeated value (one bin holding the whole corpus)
              resolves after 4 passes + one bounded pull.

    Deterministic, exact, driver state <= 2^coarse_bits rows per level.
    Output: (q: float64, value: float64) — values are exact input members,
    so the twin (quantile_disc) hash-matches."""

    def ranks(n: int) -> dict:
        # quantile_disc index: ceil(q*n), clamped to [1, n]
        return {float(q): min(max(int(-(-q * n // 1)), 1), n) for q in qs}

    _n, res = _resolve_order_stats(ds, value_col, ranks, coarse_bits, pull_limit)
    if _n == 0:
        # SQL quantile over zero rows: one row per q, NULL value
        out_q = sorted({float(q) for q in qs})
        return pa.table({"q": pa.array(out_q, pa.float64()),
                         "value": pa.array([None] * len(out_q), pa.float64())})
    out_q = sorted(res)
    return pa.table({"q": pa.array(out_q, pa.float64()),
                     "value": pa.array([res[q] for q in out_q], pa.float64())})


def exact_quantiles_cont(ds, value_col: str, qs: tuple[float, ...],
                         coarse_bits: int = 16, pull_limit: int = 262_144):
    """INTERPOLATED quantiles (percentile_cont semantics) over an unbounded
    float64 domain: idx = q*(n-1) (0-based), value = lo + (hi-lo)*frac with
    lo/hi the order statistics at floor(idx)/ceil(idx).  Both bracketing
    order statistics resolve through ONE shared radix-refinement resolution
    (deduped rank set), and the interpolation is a single fixed double
    expression — the generated twin evaluates the IDENTICAL formula over
    the same two exact member values, so the float column hash-matches
    (DuckDB's builtin quantile_cont may associate differently; the twin
    replays the expression instead of calling it)."""

    def ranks(n: int) -> dict:
        out = {}
        for q in qs:
            idx = float(q) * (n - 1)
            lo = int(np.floor(idx))
            out[("lo", float(q))] = lo + 1
            out[("hi", float(q))] = min(lo + 2, n) if idx > lo else lo + 1
        return out

    n, res = _resolve_order_stats(ds, value_col, ranks, coarse_bits, pull_limit)
    if n == 0:
        out_q = sorted({float(q) for q in qs})
        return pa.table({"q": pa.array(out_q, pa.float64()),
                         "value": pa.array([None] * len(out_q), pa.float64())})
    out_q, out_v = [], []
    for q in sorted({float(q) for q in qs}):
        idx = q * (n - 1)
        lo_v = res[("lo", q)]
        hi_v = res[("hi", q)]
        frac = idx - np.floor(idx)
        out_q.append(q)
        out_v.append(lo_v + (hi_v - lo_v) * frac)
    return pa.table({"q": pa.array(out_q, pa.float64()),
                     "value": pa.array(out_v, pa.float64())})


def group_zscore(ds, group_col: str, value_col: str, quant_bits: int = 20,
                 out_col: str = "z_q"):
    """Per-group standardization (z-score) of an integer column — the
    feature-normalization primitive (per-language length scores, per-source
    quality calibration) as a BROADCAST-stats two-pass plan, not a join.

    Pass 1 collects EXACT integer moments per group (count, sum, sum of
    squares) as per-block partials combined on the driver
    (driver_group_rollup: bounded group count, zero all-to-all).  Pass 2
    re-reads the input (the narrow upstream re-executes; nothing is pinned)
    and computes, per row, z = (n*x - s1) / sqrt(n*s2 - s1^2) — the
    population z-score as ONE fixed double expression over exact int64
    moments, so the SQL twin replays it bit-for-bit (int->double conversions
    are exact below 2^53, division and sqrt are IEEE correctly rounded).
    Emitted quantized: floor(z * 2^quant_bits) as int64 (floor, not trunc —
    negative z must round the same way on both engines).

    Groups with zero variance (or one row) are dropped on both sides
    (``n*s2 - s1^2 > 0``); NULL group keys are filtered (SQL JOIN-on-key
    semantics drop them anyway).  int64 bound: n * max(x)^2 must stay under
    2^63 — at x <= 10^6 that is ~9.2e6 billion rows per group."""
    from .agg import driver_group_rollup

    def moments(b: pa.Table) -> pa.Table:
        from ..util import strip_schema_metadata

        b = strip_schema_metadata(b.select([group_col, value_col]))
        mask = pc.and_(pc.is_valid(b[group_col]), pc.is_valid(b[value_col]))
        b = b.filter(mask)
        x = b[value_col].cast(pa.int64())
        t = pa.table({group_col: b[group_col], "_x": x,
                      "_xx": pc.multiply_checked(x, x)})
        g = (t.group_by(group_col, use_threads=False)
             .aggregate([([], "count_all"), ("_x", "sum"), ("_xx", "sum")]))
        return pa.table({group_col: g[group_col],
                         "n": g["count_all"].cast(pa.int64()),
                         "s1": g["_x_sum"].cast(pa.int64()),
                         "s2": g["_xx_sum"].cast(pa.int64())})

    stats = driver_group_rollup(
        ds.map_batches(moments, batch_format="pyarrow", zero_copy_batch=True,
                       batch_size=None),
        [group_col], [("n", "sum", "n"), ("s1", "sum", "s1"),
                      ("s2", "sum", "s2")])
    keys = stats[group_col].to_numpy(zero_copy_only=False)
    n = stats["n"].to_numpy(zero_copy_only=False).astype(np.int64)
    s1 = stats["s1"].to_numpy(zero_copy_only=False).astype(np.int64)
    s2 = stats["s2"].to_numpy(zero_copy_only=False).astype(np.int64)
    # exact-arithmetic guard: n*s2 and s1*s1 must stay inside int64 (numpy
    # wraps silently); bounded group count makes the python-int check free
    for nn_i, s1_i, s2_i in zip(n.tolist(), s1.tolist(), s2.tolist()):
        if max(nn_i * s2_i, s1_i * s1_i) > (1 << 63) - 1:
            raise ValueError(
                "group_zscore: integer moments overflow int64 "
                f"(n={nn_i}, s1={s1_i}, s2={s2_i}) — rescale the value "
                "column before standardizing")
    var_n2 = n * s2 - s1 * s1  # n^2 * population variance, exact int64
    keep = var_n2 > 0
    order = np.argsort(keys[keep], kind="stable")
    sk = keys[keep][order]
    n_k = n[keep][order]
    s1_k = s1[keep][order]
    den_k = np.sqrt(var_n2[keep][order].astype(np.float64))
    scale = float(1 << quant_bits)

    def zscore(b: pa.Table) -> pa.Table:
        from ..util import strip_schema_metadata

        b = strip_schema_metadata(b)
        mask = pc.and_(pc.is_valid(b[group_col]), pc.is_valid(b[value_col]))
        b = b.filter(mask)
        g = b[group_col].to_numpy(zero_copy_only=False)
        x = b[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(sk) == 0 or len(g) == 0:
            return b.filter(pa.array(np.zeros(len(g), bool))).append_column(
                out_col, pa.array([], pa.int64()))
        # vectorized group probe: searchsorted into the sorted key table
        pos = np.clip(np.searchsorted(sk, g), 0, len(sk) - 1)
        ok = sk[pos] == g
        b = b.filter(pa.array(ok))
        p = pos[ok]
        num = (n_k[p] * x[ok] - s1_k[p]).astype(np.float64)
        zq = np.floor(num / den_k[p] * scale).astype(np.int64)
        return b.append_column(out_col, pa.array(zq))

    return ds.map_batches(zscore, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=None)
