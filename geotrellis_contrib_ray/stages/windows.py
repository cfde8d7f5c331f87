"""Stream-shaped windowed aggregation over the events table.

Ray Data is batch; event-time tumbling windows become groupby on a computed
window key (floor(epoch/size)) with per-batch partial aggregation.  Double
sums are carried as integer cents (floor(value*100)) so the DuckDB oracle is
bit-exact regardless of summation order.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def tumbling_window_agg(ds, window_sec: int = 3600):
    """Per (event_type, window) counts + integer-cent value sums.

    Output: event_type, window_start (epoch sec), n_events, sum_cents."""

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
        win = (ts // 1_000_000) // window_sec * window_sec
        cents = np.floor(batch["value"].to_numpy(zero_copy_only=False) * 100.0).astype(np.int64)
        t = pa.table(
            {
                "event_type": batch["event_type"],
                "window_start": win,
                "cents": cents,
            }
        )
        g = t.group_by(["event_type", "window_start"], use_threads=False).aggregate(
            [("cents", "sum"), ("cents", "count")]
        )
        return g.rename_columns(["event_type", "window_start", "psum", "pcnt"])

    from .agg import salted_group_reduce

    part = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None,)
    # window count grows with the stream's time range — many-group total
    # reduce via the keyed-reduce plan (the ~40x rule, stages/agg.py)
    return salted_group_reduce(
        part, ["event_type", "window_start"],
        [("psum", "sum", "sum_cents"), ("pcnt", "sum", "n_events")],
    )


def sessionize(ds, gap_sec: int = 1800):
    """Session windows per user: split each user's time-ordered events on
    ts gaps > gap.

    Users are hashed into key buckets (joins._co_partition routed on
    user_id; grouping by raw user_id makes one ~1 ms python group per user
    — measured scale killer at 1500+ users) and sessions for every user in
    a bucket are detected in one vectorized pass: lexsort by (user, ts),
    session break = user change OR gap.  Equal-user rows always share a
    bucket, so results are identical to the per-user formulation.  The
    bucket count follows the input's rows (joins._bucket_count).  Output
    (Arrow — pandas-format blocks pay a measured 13x penalty in any
    downstream shuffle): user_id, session_start, n_events."""
    from .joins import _bucket_count, _co_partition, _key_route

    def per_bucket(g):
        uid = g["user_id"].to_numpy().astype(np.int64)
        secs = g["ts"].to_numpy().astype("datetime64[s]").astype(np.int64)
        order = np.lexsort((secs, uid))
        u, s = uid[order], secs[order]
        new_sess = np.r_[True, (u[1:] != u[:-1]) | (s[1:] - s[:-1] > gap_sec)]
        sess_id = np.cumsum(new_sess) - 1
        return pa.table(
            {
                "user_id": pa.array(u[new_sess]),
                "session_start": pa.array(s[new_sess]),
                "n_events": pa.array(np.bincount(sess_id).astype(np.int64)),
            }
        )

    route = _key_route(["user_id", "ts"], "user_id", _bucket_count(ds))
    return _co_partition([(ds, route)], per_bucket)


def sliding_window_agg(ds, size_sec: int = 3600, hop_sec: int = 1800):
    """Sliding (hopping) event-time windows: each event lands in
    size/hop overlapping windows (vectorized repeat + shift), then the same
    partial-agg -> tiny-groupby shape as the tumbling path.

    Output: event_type, window_start, n_events, sum_cents."""
    # ceil, not floor: with size % hop != 0 an event at t also belongs to
    # the window starting at the (k-1)-th hop before it iff t < w + size —
    # floor silently drops each window's oldest-hop contributions (and
    # hop > size would make k == 0, an entirely empty result)
    k = -(-size_sec // hop_sec)

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
        secs = ts // 1_000_000
        cents = np.floor(batch["value"].to_numpy(zero_copy_only=False) * 100.0).astype(np.int64)
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        n = len(secs)
        offs = np.repeat(np.arange(k, dtype=np.int64), n)
        secs_r = np.tile(secs, k)
        ws = (secs_r // hop_sec - offs) * hop_sec
        keep = secs_r < ws + size_sec  # exact membership: w <= t < w + size
        t = pa.table(
            {
                "event_type": pa.array(np.tile(et, k)[keep].astype(object), pa.string()),
                "window_start": ws[keep],
                "cents": np.tile(cents, k)[keep],
            }
        )
        g = t.group_by(["event_type", "window_start"], use_threads=False).aggregate(
            [("cents", "sum"), ("cents", "count")]
        )
        return g.rename_columns(["event_type", "window_start", "psum", "pcnt"])

    from .agg import salted_group_reduce

    part = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)
    return salted_group_reduce(
        part, ["event_type", "window_start"],
        [("psum", "sum", "sum_cents"), ("pcnt", "sum", "n_events")],
    )


def window_functions(ds, gap_none: int = -1, ntile_k: int = 4):
    """Per-row SQL window functions over events, per user ordered by
    (epoch_us, event_id): ROW_NUMBER, RANK and DENSE_RANK (ties on the
    timestamp), the LAG and LEAD time gaps, NTILE(``ntile_k``), the
    partition row count, and a running integer-cent sum — one vectorized
    pass per user bucket (sessionize's plan: equal users never split
    across buckets, so results equal the per-user SQL window exactly).

    Unlike ``top_k_per_group`` (winners only) this emits EVERY input row
    with its window values; the per-row output never re-shuffles (the one
    wide step is the user-bucket shuffle).  ``gap_none`` is the first-row
    LAG / last-row LEAD sentinel — no SQL NULLs, so the oracle hash sees
    identical values.  NTILE follows the SQL standard: the first
    ``n % k`` tiles get ``ceil(n/k)`` rows, the rest ``floor(n/k)``.

    Also emits the two float ranking functions as ONE int64/int64 IEEE
    division each (the shared-expression convention — the twin replays the
    same division, not the builtin): pct_rank = (rk-1)/(n-1) (0.0 for a
    single-row partition, SQL standard) and cume_dist = peers_cume/n
    (peer rows of the current ts all count, matching the RANGE default
    frame).

    Output: event_id, user_id, rn, rk, dense_rk, gap_us, lead_gap_us,
    tile, grp_n, cum_cents (int64); pct_rank, cume_dist (float64)."""
    from .joins import _bucket_count, _co_partition, _key_route

    def per_bucket(g):
        uid = g["user_id"].to_numpy().astype(np.int64)
        n = len(uid)
        tus = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        eid = g["event_id"].to_numpy().astype(np.int64)
        cents = np.floor(g["value"].to_numpy() * 100.0).astype(np.int64)
        order = np.lexsort((eid, tus, uid))
        u, t, e, c = uid[order], tus[order], eid[order], cents[order]
        idx = np.arange(n, dtype=np.int64)
        grp_new = np.r_[True, u[1:] != u[:-1]]
        gstart = np.maximum.accumulate(np.where(grp_new, idx, 0))
        rn = idx - gstart + 1
        # RANK: first index of this (user, ts) run, relative to group start
        key_new = grp_new.copy()
        key_new[1:] |= t[1:] != t[:-1]
        first_same = np.maximum.accumulate(np.where(key_new, idx, 0))
        rk = first_same - gstart + 1
        # DENSE_RANK: distinct-key ordinal within the group (cumsum of
        # key-run starts, rebased at the group start which is itself a run)
        kcum = np.cumsum(key_new.astype(np.int64))
        dense = kcum - kcum[gstart] + 1
        gap = np.where(grp_new, np.int64(gap_none), t - np.r_[t[:1], t[:-1]])
        next_new = np.r_[grp_new[1:], True]
        lead_gap = np.where(next_new, np.int64(gap_none),
                            np.r_[t[1:], t[-1:]] - t)
        # NTILE(k), SQL standard: first n%k tiles get ceil(n/k) rows
        i0 = idx - gstart
        starts = np.nonzero(grp_new)[0]
        lens = np.diff(np.r_[starts, n])
        gsize = np.repeat(lens, lens)
        q, r = gsize // ntile_k, gsize % ntile_k
        cut = r * (q + 1)
        tile = np.where(i0 < cut, i0 // np.maximum(q + 1, 1) + 1,
                        r + (i0 - cut) // np.maximum(q, 1) + 1)
        cs = np.cumsum(c)
        pre = cs - c  # exclusive prefix sum
        cum = cs - pre[gstart]
        # PERCENT_RANK: one int64/int64 IEEE division (twin-shared expr)
        pct = np.where(gsize == 1, 0.0,
                       (rk - 1).astype(np.float64)
                       / np.maximum(gsize - 1, 1).astype(np.float64))
        # CUME_DIST: peers of the current ts all count (RANGE default
        # frame) — last index of this key-run, rebased to the group start
        key_starts = np.nonzero(key_new)[0]
        key_lens = np.diff(np.r_[key_starts, n])
        run_last = np.repeat(key_starts + key_lens - 1, key_lens)
        cume_n = run_last - gstart + 1
        cume = cume_n.astype(np.float64) / gsize.astype(np.float64)
        return pa.table({
            "event_id": pa.array(e), "user_id": pa.array(u),
            "rn": pa.array(rn), "rk": pa.array(rk),
            "dense_rk": pa.array(dense),
            "gap_us": pa.array(gap.astype(np.int64)),
            "lead_gap_us": pa.array(lead_gap.astype(np.int64)),
            "tile": pa.array(tile.astype(np.int64)),
            "grp_n": pa.array(gsize.astype(np.int64)),
            "cum_cents": pa.array(cum),
            "pct_rank": pa.array(pct),
            "cume_dist": pa.array(cume),
        })

    route = _key_route(["user_id", "ts", "event_id", "value"], "user_id", _bucket_count(ds))
    return _co_partition([(ds, route)], per_bucket)


def window_frame_agg(ds, frame_rows: int = 2):
    """Bounded ROWS-frame window aggregates per user over events: moving
    count / sum / min of integer cents over ``ROWS BETWEEN frame_rows
    PRECEDING AND CURRENT ROW`` in (epoch_us, event_id) order — the frame
    surface next to window_functions' unbounded running sum.

    Same user-bucket single-pass plan as window_functions.  The moving sum
    is exact via inclusive/exclusive prefix-sum differences (frame start
    clamps at the partition start); the moving min is an elementwise min of
    ``frame_rows`` shifted copies masked at partition boundaries — O(k*n)
    vectorized, fine for the small frames this models (k is a constant,
    not data-sized).

    Output: event_id, user_id, mv_n, mv_sum_cents, mv_min_cents (int64)."""
    from .joins import _bucket_count, _co_partition, _key_route

    def per_bucket(g):
        uid = g["user_id"].to_numpy().astype(np.int64)
        n = len(uid)
        tus = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        eid = g["event_id"].to_numpy().astype(np.int64)
        cents = np.floor(g["value"].to_numpy() * 100.0).astype(np.int64)
        order = np.lexsort((eid, tus, uid))
        u, e, c = uid[order], eid[order], cents[order]
        idx = np.arange(n, dtype=np.int64)
        grp_new = np.r_[True, u[1:] != u[:-1]]
        gstart = np.maximum.accumulate(np.where(grp_new, idx, 0))
        i0 = idx - gstart
        w = np.minimum(i0, frame_rows) + 1  # frame length = mv_n
        cs = np.cumsum(c)
        cse = cs - c  # exclusive prefix sum
        mv_sum = cs - cse[idx - w + 1]
        mv_min = c.copy()
        for k in range(1, frame_rows + 1):
            shifted = np.empty_like(c)
            shifted[k:] = c[:-k]
            shifted[:k] = 0
            in_frame = i0 >= k
            mv_min = np.where(in_frame, np.minimum(mv_min, shifted), mv_min)
        return pa.table({
            "event_id": pa.array(e), "user_id": pa.array(u),
            "mv_n": pa.array(w.astype(np.int64)),
            "mv_sum_cents": pa.array(mv_sum),
            "mv_min_cents": pa.array(mv_min),
        })

    route = _key_route(["user_id", "ts", "event_id", "value"], "user_id", _bucket_count(ds))
    return _co_partition([(ds, route)], per_bucket)


def funnel_counts(ds, stages: tuple[str, ...] = ("view", "click", "purchase")) -> pa.Table:
    """Ordered conversion funnel over events: per user, stage i+1 counts
    only if an event of that type occurs STRICTLY LATER (epoch_us) than the
    user's earliest qualifying stage-i event — the product-analytics
    "view -> click -> purchase" sequence match.

    One user-bucket pass computes every user's per-stage first-qualifying
    timestamp with masked segment minima (per-user ``np.minimum.reduceat``
    over non-empty segments — safe: every user segment has >= 1 row), then
    emits ``len(stages)`` partial count rows per bucket; the final combine
    is the bounded-group driver rollup (no second all-to-all, per the
    total-reduce tier rule).

    Returns a pa.Table: stage (1-based int64), stage_name, n_users."""
    from .agg import driver_group_rollup
    from .joins import _bucket_count, _co_partition, _key_route

    NOTYET = np.iinfo(np.int64).max

    def per_bucket(g):
        stage_ids = np.arange(1, len(stages) + 1, dtype=np.int64)
        names = pa.array(list(stages), pa.string())
        uid = g["user_id"].to_numpy().astype(np.int64)
        tus = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        et = g["event_type"].to_numpy().astype(object)
        order = np.lexsort((tus, uid))
        u, t, e = uid[order], tus[order], et[order]
        starts = np.nonzero(np.r_[True, u[1:] != u[:-1]])[0]
        seg = np.cumsum(np.r_[True, u[1:] != u[:-1]]) - 1
        prev_t = np.full(len(starts), np.int64(-(2 ** 62)))  # before all ts
        counts = np.zeros(len(stages), dtype=np.int64)
        for si, name in enumerate(stages):
            mask = (e == name) & (t > prev_t[seg])
            vals = np.where(mask, t, NOTYET)
            cur = np.minimum.reduceat(vals, starts)
            counts[si] = int((cur < NOTYET).sum())
            prev_t = cur
        return pa.table({"stage": pa.array(stage_ids), "stage_name": names,
                         "p": pa.array(counts)})

    route = _key_route(["user_id", "ts", "event_type"], "user_id", _bucket_count(ds))
    part = _co_partition([(ds, route)], per_bucket)
    out = driver_group_rollup(part, ["stage", "stage_name"],
                              [("p", "sum", "n_users")])
    if out.num_rows == 0:
        # zero-block input (empty events): the SQL funnel still emits every
        # stage row with a 0 count — the stage list is static
        out = pa.table({
            "stage": pa.array(np.arange(1, len(stages) + 1, dtype=np.int64)),
            "stage_name": pa.array(list(stages), pa.string()),
            "n_users": pa.array(np.zeros(len(stages), np.int64)),
        })
    return out.sort_by("stage")


def group_first_last(ds):
    """Per-group ARG_MIN / ARG_MAX over events: each user's FIRST and LAST
    event_type in (epoch_us, event_id) order plus the row count — the
    order-statistic aggregate family (SQL arg_min/arg_max, or
    first_value/last_value + DISTINCT).

    Same user-bucket single-pass plan as sessionize: one lexsort, gather
    the payload column at each user segment's first and last index.  No
    per-row output — one row per user crosses nothing but the user-bucket
    shuffle.

    Output: user_id, first_type, last_type (string), n_events (int64)."""
    from .joins import _bucket_count, _co_partition, _key_route

    def per_bucket(g):
        uid = g["user_id"].to_numpy().astype(np.int64)
        n = len(uid)
        tus = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        eid = g["event_id"].to_numpy().astype(np.int64)
        et = g["event_type"].to_numpy().astype(object)
        order = np.lexsort((eid, tus, uid))
        u, e = uid[order], et[order]
        starts = np.nonzero(np.r_[True, u[1:] != u[:-1]])[0]
        ends = np.r_[starts[1:], n] - 1
        return pa.table({
            "user_id": pa.array(u[starts]),
            "first_type": pa.array(list(e[starts]), pa.string()),
            "last_type": pa.array(list(e[ends]), pa.string()),
            "n_events": pa.array((ends - starts + 1).astype(np.int64)),
        })

    route = _key_route(["user_id", "ts", "event_id", "event_type"], "user_id", _bucket_count(ds))
    return _co_partition([(ds, route)], per_bucket)


def cohort_retention(ds, signup_type: str = "signup",
                     day_us: int = 86_400_000_000):
    """Cohort retention matrix over events: users are cohorted by the UTC
    day of their FIRST ``signup_type`` event; for every later (or same) day
    on which the user has ANY event, the (cohort_day, day_offset) cell
    counts that user once — the classic day-N retention table.

    One user-bucket pass: cohort day via a masked per-user segment min,
    per-user distinct activity days via run-starts over the (user, day)
    sort, then per-bucket (cohort_day, offset) count partials.
    The final combine is the bounded-group driver rollup — the cell count
    is bounded by the SQUARE of the stream's day span (calendar-bounded,
    not corpus-bounded), so no second all-to-all.

    Returns a pa.Table: cohort_day (epoch days), day_offset, n_users."""
    from .agg import driver_group_rollup
    from .joins import _bucket_count, _co_partition, _key_route

    NOTYET = np.iinfo(np.int64).max

    def per_bucket(g):
        uid = g["user_id"].to_numpy().astype(np.int64)
        tus = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        et = g["event_type"].to_numpy().astype(object)
        day = tus // day_us
        order = np.lexsort((day, uid))
        u, d, e = uid[order], day[order], et[order]
        grp_new = np.r_[True, u[1:] != u[:-1]]
        starts = np.nonzero(grp_new)[0]
        seg = np.cumsum(grp_new) - 1
        vals = np.where(e == signup_type, d, NOTYET)
        cohort = np.minimum.reduceat(vals, starts)  # segments non-empty
        row_cohort = cohort[seg]
        # distinct (user, day) activity cells at/after the cohort day
        day_new = grp_new | np.r_[True, d[1:] != d[:-1]]
        keep = day_new & (row_cohort < NOTYET) & (d >= row_cohort)
        t = pa.table({"cohort_day": pa.array(row_cohort[keep]),
                      "day_offset": pa.array((d - row_cohort)[keep])})
        out = t.group_by(["cohort_day", "day_offset"],
                         use_threads=False).aggregate([([], "count_all")])
        return out.rename_columns(["cohort_day", "day_offset", "p"])

    route = _key_route(["user_id", "ts", "event_type"], "user_id", _bucket_count(ds))
    part = _co_partition([(ds, route)], per_bucket)
    out = driver_group_rollup(part, ["cohort_day", "day_offset"],
                              [("p", "sum", "n_users")])
    return out.sort_by([("cohort_day", "ascending"),
                        ("day_offset", "ascending")])


def user_paths(ds, sep: str = "->", max_events: int | None = None):
    """Ordered sequence collection (SQL ``string_agg(... ORDER BY)``): each
    user's event_type sequence in (epoch_us, event_id) order, joined with
    ``sep`` — the behavioral-sequence builder a training-data pipeline uses
    to turn event logs into path strings.

    Same user-bucket plan as sessionize/window_functions: the string build
    is a per-user join over group boundaries (O(rows) total work inside the
    vectorized sort).  ``max_events`` truncates each user's path to its
    FIRST n events — the scale valve for hot users whose full path would be
    one giant string (None = unbounded, matching the plain SQL twin).

    Output: user_id, path (string), n_events (int64, pre-truncation)."""
    from .joins import _bucket_count, _co_partition, _key_route

    def per_bucket(g):
        uid = g["user_id"].to_numpy().astype(np.int64)
        n = len(uid)
        tus = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        eid = g["event_id"].to_numpy().astype(np.int64)
        et = g["event_type"].to_numpy().astype(object)
        order = np.lexsort((eid, tus, uid))
        u, e = uid[order], et[order]
        starts = np.nonzero(np.r_[True, u[1:] != u[:-1]])[0]
        bounds = np.r_[starts, n]
        lens = np.diff(bounds)
        cut = lens if max_events is None else np.minimum(lens, max_events)
        paths = [sep.join(e[s:s + c]) for s, c in zip(bounds[:-1], cut)]
        return pa.table({
            "user_id": pa.array(u[starts]),
            "path": pa.array(paths, pa.string()),
            "n_events": pa.array(lens.astype(np.int64)),
        })

    route = _key_route(["user_id", "ts", "event_id", "event_type"], "user_id", _bucket_count(ds))
    return _co_partition([(ds, route)], per_bucket)


def window_distinct_users(ds, window_sec: int = 3600):
    """EXACT count-distinct per tumbling window — the two-level distinct
    shape: per-batch collapse to distinct (window, user) pairs (narrow),
    ONE groupby over the pair key finishes global dedup, and a per-batch
    pair->count partial plus a tiny second groupby yields the counts.
    Only distinct pairs ever cross the first shuffle; the second shuffle
    carries one row per (window, batch).

    Output: (window_start, n_users)."""
    import pyarrow as pa

    def pairs(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
        win = (ts // 1_000_000) // window_sec * window_sec
        t = pa.table({
            "window_start": pa.array(win),
            "user_id": batch["user_id"],
        })
        return t.group_by(["window_start", "user_id"], use_threads=False).aggregate([])

    from .agg import salted_group_reduce

    # global distinct (window, user): one group per pair, so Ray's native
    # aggregate pays per-group cost over every distinct pair — the
    # keyed reduce does the same distinct in one bounded shuffle
    dedup = salted_group_reduce(
        ds.map_batches(pairs, batch_format="pyarrow", zero_copy_batch=True,
                       batch_size=None),
        ["window_start", "user_id"], [(None, "count", "_c")],
    )

    def fold(b: pa.Table) -> pa.Table:
        g = b.select(["window_start"]).group_by("window_start", use_threads=False) \
            .aggregate([([], "count_all")])
        return g.rename_columns(["window_start", "p"])

    return salted_group_reduce(
        dedup.map_batches(fold, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=None),
        ["window_start"], [("p", "sum", "n_users")],
    )
