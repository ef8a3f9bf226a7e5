"""Checks of the span tracer's derivations.

Run with ``python3 -m pytest perfbench/test_layers.py`` from the
repository root; the tier-1 suite does not collect this directory.
"""

import asyncio
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_time_subtracts_direct_children_only():
    tracer = layers.Tracer()
    leaf = tracer._spanned("leaf", lambda: _busy(0.01))
    mid = tracer._spanned("mid", lambda: (_busy(0.01), leaf()))
    tracer.root(lambda: (mid(), leaf()))
    self_s, durations = tracer.self_times()
    wall = durations[layers.ROOT][0]
    assert tracer.calls["leaf"] == 2 and tracer.calls["mid"] == 1
    assert abs(sum(self_s.values()) - wall) < 1e-9
    assert abs(self_s["mid"] - (durations["mid"][0] - durations["leaf"][0])) < 1e-9
    assert self_s["leaf"] >= 0.02


def test_async_span_counts_only_its_own_steps():
    tracer = layers.Tracer()

    async def fetch():
        _busy(0.01)
        await asyncio.sleep(0)
        _busy(0.01)
        return "done"

    async def other():
        _busy(0.03)

    wrapped = tracer._spanned("fetch", fetch)

    async def main():
        task = asyncio.ensure_future(other())
        result = await wrapped()
        await task
        return result

    assert tracer.root(lambda: asyncio.run(main())) == "done"
    self_s, durations = tracer.self_times()
    assert tracer.calls["fetch"] == 1
    assert len(durations["fetch"]) == 2  # one span per resumption step
    # ``other`` ran while fetch was suspended and is not fetch's time.
    assert 0.02 <= self_s["fetch"] < 0.03
    spans = sorted(s for s in tracer.spans if s[1] == "fetch")
    assert all(a[3] <= b[2] for a, b in zip(spans, spans[1:]))


def test_distribution_tail_leaves_ten_samples_beyond():
    p50, tail, pct = layers.distribution([i / 1e3 for i in range(1, 100)])
    assert (p50, tail, pct) == pytest.approx((50.0, 89.0, 100 * 89 / 99))
    assert layers.distribution([0.001, 0.002]) == pytest.approx((1.0, 2.0, 100.0))
    assert layers.distribution([]) == (0.0, 0.0, 0.0)
