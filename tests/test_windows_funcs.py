"""Per-row window functions (stages/windows.py::window_functions):
hand-computed tie/rank/gap/running-sum semantics + bucket-count independence.
"""

import numpy as np
import pyarrow as pa
import pytest


def _events_table():
    # two users; user 1 has a ts TIE (events 2 and 3 share t=100)
    ts = pa.array(
        np.array([100, 100, 250, 40, 90], dtype="datetime64[us]").astype("datetime64[us]")
    )
    return pa.table({
        "event_id": pa.array([3, 2, 5, 10, 11], pa.int64()),
        "user_id": pa.array([1, 1, 1, 2, 2], pa.int64()),
        "ts": ts,
        "value": pa.array([1.0, 2.0, 3.0, 0.5, 0.25], pa.float64()),
    })


def test_window_functions_hand_case(ray_session):
    import ray.data as rd

    from geotrellis_contrib_ray.stages.windows import window_functions

    out = (
        window_functions(rd.from_arrow(_events_table()))
        .to_pandas().sort_values(["user_id", "rn"]).reset_index(drop=True)
    )
    # user 1 order: (t=100,eid=2), (t=100,eid=3), (t=250,eid=5)
    assert out["event_id"].tolist() == [2, 3, 5, 10, 11]
    assert out["rn"].tolist() == [1, 2, 3, 1, 2]
    # RANK ties on ts: both t=100 rows rank 1, t=250 ranks 3
    assert out["rk"].tolist() == [1, 1, 3, 1, 2]
    # DENSE_RANK: tie rows share 1, next distinct ts is 2
    assert out["dense_rk"].tolist() == [1, 1, 2, 1, 2]
    # LAG gap: first row sentinel -1; tie rows gap 0
    assert out["gap_us"].tolist() == [-1, 0, 150, -1, 50]
    # LEAD gap: last row of each partition gets the sentinel
    assert out["lead_gap_us"].tolist() == [0, 150, -1, 50, -1]
    # NTILE(4) with n < k: first n tiles get one row each
    assert out["tile"].tolist() == [1, 2, 3, 1, 2]
    assert out["grp_n"].tolist() == [3, 3, 3, 2, 2]
    # running cents per user in (ts, event_id) order
    assert out["cum_cents"].tolist() == [200, 300, 600, 50, 75]
    # PERCENT_RANK = (rk-1)/(n-1); CUME_DIST counts ts peers (tie rows share)
    assert out["pct_rank"].tolist() == [0.0, 0.0, 1.0, 0.0, 1.0]
    assert out["cume_dist"].tolist() == [2 / 3, 2 / 3, 1.0, 0.5, 1.0]


_EVENT_OPS = ("sessionize", "window_functions", "window_frame_agg", "funnel_counts",
              "group_first_last", "cohort_retention", "user_paths")


def _random_events() -> pa.Table:
    n = 1000
    rng = np.random.default_rng(3)
    types = np.array(["signup", "view", "click", "purchase"], dtype=object)
    return pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "user_id": pa.array(rng.integers(0, 37, n).astype(np.int64)),
        # two days: sessions both merge and split, cohorts span both days
        "ts": pa.array(rng.integers(0, 2 * 86_400_000_000, n).astype("datetime64[us]")),
        "event_type": pa.array(list(types[rng.integers(0, 4, n)]), pa.string()),
        "value": pa.array(rng.uniform(0, 10, n)),
    })


def _sorted_frame(out):
    """Rows of a Dataset or pa.Table, sorted on every column."""
    df = out.to_pandas()
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.mark.parametrize("op", _EVENT_OPS)
def test_event_ops_bucket_count_independent(ray_session, monkeypatch, op):
    """Every user-bucket op gives the same rows whether all users share one
    bucket or spread over 97 (a prime: no alignment with the hash)."""
    import ray.data as rd

    from geotrellis_contrib_ray.stages import joins, windows

    t = _random_events()
    outs = []
    for n in (1, 97):
        monkeypatch.setattr(joins, "_bucket_count", lambda ds, n=n: n)
        outs.append(_sorted_frame(getattr(windows, op)(rd.from_arrow(t))))
    assert len(outs[0]) > 0
    assert outs[0].equals(outs[1])


def test_user_paths_order_and_cap(ray_session):
    import ray.data as rd

    from geotrellis_contrib_ray.stages.windows import user_paths

    t = _events_table().append_column(
        "event_type", pa.array(["b", "a", "c", "x", "y"], pa.string()))
    out = (user_paths(rd.from_arrow(t)).to_pandas()
           .sort_values("user_id").reset_index(drop=True))
    # user 1 tie at t=100 breaks on event_id (2 before 3): a, b, c
    assert out["path"].tolist() == ["a->b->c", "x->y"]
    assert out["n_events"].tolist() == [3, 2]
    capped = (user_paths(rd.from_arrow(t), max_events=2).to_pandas()
              .sort_values("user_id").reset_index(drop=True))
    assert capped["path"].tolist() == ["a->b", "x->y"]
    assert capped["n_events"].tolist() == [3, 2]  # count is pre-truncation


def test_window_frame_agg_hand_case(ray_session):
    import ray.data as rd

    from geotrellis_contrib_ray.stages.windows import window_frame_agg

    out = (
        window_frame_agg(rd.from_arrow(_events_table()), frame_rows=2)
        .to_pandas().sort_values(["user_id", "event_id"]).reset_index(drop=True)
    )
    # user 1 order: eid2(c=200), eid3(c=100), eid5(c=300); user 2: eid10(50), eid11(25)
    assert out["event_id"].tolist() == [2, 3, 5, 10, 11]
    assert out["mv_n"].tolist() == [1, 2, 3, 1, 2]
    assert out["mv_sum_cents"].tolist() == [200, 300, 600, 50, 75]
    assert out["mv_min_cents"].tolist() == [200, 100, 100, 50, 25]


def test_funnel_counts_hand_case(ray_session):
    import ray.data as rd

    from geotrellis_contrib_ray.stages.windows import funnel_counts

    ts = pa.array(np.array([10, 20, 30, 5, 10, 10, 15, 1, 50],
                           dtype="datetime64[us]"))
    t = pa.table({
        "user_id": pa.array([1, 1, 1, 2, 2, 2, 2, 3, 3], pa.int64()),
        "ts": ts,
        "event_type": pa.array(
            ["view", "click", "purchase",       # user 1: full funnel
             "click", "view", "click", "click",  # user 2: tie click@10 must
             "purchase", "view"],                # NOT count (strict >); u3
            pa.string()),                        # purchase BEFORE view: no
    })
    out = funnel_counts(rd.from_arrow(t)).to_pandas()
    assert out["stage"].tolist() == [1, 2, 3]
    assert out["stage_name"].tolist() == ["view", "click", "purchase"]
    assert out["n_users"].tolist() == [3, 2, 1]


def test_cohort_retention_hand_case(ray_session):
    import ray.data as rd

    from geotrellis_contrib_ray.stages.windows import cohort_retention

    # day_us=100: t//100 is the "day".  u1 cohort day 0, active days {0,1,3};
    # u2 signs up day 2 (its day-1 view is BEFORE the cohort -> excluded),
    # active days {2,3}; u3 never signs up -> excluded entirely.
    ts = pa.array(np.array([50, 150, 160, 350, 10, 250, 120, 320, 70],
                           dtype="datetime64[us]"))
    t = pa.table({
        "user_id": pa.array([1, 1, 1, 1, 2, 2, 2, 2, 3], pa.int64()),
        "ts": ts,
        "event_type": pa.array(
            ["signup", "view", "click", "view",
             "view", "signup", "view", "purchase", "view"], pa.string()),
    })
    out = cohort_retention(rd.from_arrow(t), day_us=100).to_pandas()
    cells = list(zip(out["cohort_day"], out["day_offset"], out["n_users"]))
    assert cells == [(0, 0, 1), (0, 1, 1), (0, 3, 1), (2, 0, 1), (2, 1, 1)]


def test_group_first_last_hand_case(ray_session):
    import ray.data as rd

    from geotrellis_contrib_ray.stages.windows import group_first_last

    t = _events_table().append_column(
        "event_type", pa.array(["b", "a", "c", "x", "y"], pa.string()))
    out = (group_first_last(rd.from_arrow(t)).to_pandas()
           .sort_values("user_id").reset_index(drop=True))
    # user 1 tie at t=100 breaks on event_id (2 before 3): first=a, last=c
    assert out["first_type"].tolist() == ["a", "x"]
    assert out["last_type"].tolist() == ["c", "y"]
    assert out["n_events"].tolist() == [3, 2]
