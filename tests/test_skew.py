"""Hot-key census and skew-safe keep-first vs plain groupby on skewed keys."""

import numpy as np
import pyarrow as pa

from geotrellis_contrib_ray.stages.skew import dedup_keep_first_salted, detect_hot_keys


def _skewed_ds(n=20_000):
    import ray.data as rd

    rng = np.random.default_rng(11)
    # one hot key holds half the rows, the rest spread over 1000 keys
    keys = np.where(rng.random(n) < 0.5, 7, rng.integers(100, 300, n))
    return rd.from_arrow(
        pa.table({"fingerprint": keys.astype(np.int64), "doc_id": np.arange(n, dtype=np.int64)})
    )


def test_detect_hot_keys(ray_session):
    ds = _skewed_ds()
    hot = detect_hot_keys(ds, ["fingerprint"], threshold=1000)
    assert hot == {7}


def test_salted_keep_first_matches_plain(ray_session):
    ds = _skewed_ds()

    def keep_first(g):
        return g.sort_values("doc_id", kind="mergesort").head(1)

    plain = (
        ds.groupby("fingerprint")
        .map_groups(keep_first, batch_format="pandas")
        .to_pandas()
        .sort_values("fingerprint")
        .reset_index(drop=True)
    )
    salted = (
        dedup_keep_first_salted(ds)
        .to_pandas()
        .sort_values("fingerprint")
        .reset_index(drop=True)
    )
    assert plain.equals(salted)


def test_detect_hot_keys_many_distinct(ray_session):
    """Regression (ADVICE r2 / VERDICT #1): the census must filter
    n > threshold DISTRIBUTED — with a huge distinct-key space the driver
    only ever receives the (tiny) hot set.  The contract check here: the
    returned set is exactly the planted hot keys, never the census."""
    import ray.data as rd

    n = 200_000
    rng = np.random.default_rng(3)
    # ~100k distinct cold keys + 2 planted hot keys holding ~30% of rows
    cold = rng.integers(1_000, 101_000, n)
    keys = np.where(rng.random(n) < 0.15, 1, np.where(rng.random(n) < 0.15, 2, cold))
    ds = rd.from_arrow(pa.table({"fingerprint": keys.astype(np.int64),
                                 "doc_id": np.arange(n, dtype=np.int64)}))
    hot = detect_hot_keys(ds, ["fingerprint"], threshold=5_000)
    assert hot == {1, 2}
