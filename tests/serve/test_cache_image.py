"""One community cache image per run: devices serve from clones of it.

Guards against per-device cache builds coming back: each build runs
``PocketSearchCache.load_community`` (and ``__init__``) once, a clone
runs neither.
"""

import pytest

from repro.pocketsearch.cache import PocketSearchCache
from repro.serve import LoadGenConfig, run_loadtest, serve_replay
from repro.sim.replay import CacheMode, ReplayConfig, run_replay


@pytest.fixture
def builds(monkeypatch):
    """Counts of cache constructions and community bulk-loads."""
    counts = {"init": 0, "load_community": 0}
    for name, method in (
        ("init", PocketSearchCache.__init__),
        ("load_community", PocketSearchCache.load_community),
    ):

        def counted(self, *args, _name=name, _method=method, **kwargs):
            counts[_name] += 1
            return _method(self, *args, **kwargs)

        attr = "__init__" if name == "init" else name
        monkeypatch.setattr(PocketSearchCache, attr, counted)
    return counts


@pytest.mark.parametrize("max_devices", [1, 8])
def test_loadtest_builds_one_image(small_log, builds, max_devices):
    report, workload = run_loadtest(
        small_log,
        LoadGenConfig(
            duration_s=300.0, rate_multiplier=300.0, max_devices=max_devices
        ),
    )
    assert workload.n_devices == max_devices
    assert report.completed > max_devices
    assert builds == {"init": 1, "load_community": 1}


def test_serve_replay_builds_one_image_per_mode(small_log, builds):
    config = ReplayConfig(users_per_class=2, seed=97)
    results, _ = serve_replay(small_log, config, modes=CacheMode.ALL)
    assert all(len(result.users) > 1 for result in results.values())
    # The personalization-only image loads no community content.
    assert builds == {"init": 3, "load_community": 2}


def test_scalar_replay_builds_one_image_per_mode(small_log, builds):
    config = ReplayConfig(users_per_class=2, seed=97)
    results = run_replay(small_log, config, modes=CacheMode.ALL)
    assert all(len(result.users) > 1 for result in results.values())
    assert builds == {"init": 3, "load_community": 2}
