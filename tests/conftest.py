import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (see TESTDATA.md).
    ``GRAFT_TEST_CPUS`` sets its CPU count (default 4): at 1 the one-sided
    co-partition callers over plan leaves run their one-task tier."""
    import ray

    ray.init(
        address="local",
        num_cpus=int(os.environ.get("GRAFT_TEST_CPUS", "4")),
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    yield
    ray.shutdown()


import os

# GRAFT_MIRROR_SF re-points the oracle-mirror suite at any testdata scale
# (the driver's gate runs sf0.01; parity holds at every provided SF)
SF_DIR = os.environ.get("GRAFT_MIRROR_SF", "/root/testdata/sf0.001")
