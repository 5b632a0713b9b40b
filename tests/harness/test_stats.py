"""Tests for the latency statistics collector."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import EngineKind
from repro.errors import HarnessError
from repro.harness.runner import ClusterRuntime
from repro.harness.stats import LatencyCollector, mean, percentile
from repro.units import KiB


def _run_with_collector(kind="recv", tag=None, n=6):
    rt = ClusterRuntime.build(engine=EngineKind.PIOMAN)
    collector = LatencyCollector(rt.node(1).session, kind=kind, tag=tag)

    def sender(ctx):
        nm = ctx.env["nm"]
        reqs = []
        for i in range(n):
            r = yield from nm.isend(ctx, 1, i % 2, KiB(1) * (1 + i), payload=i)
            reqs.append(r)
            yield ctx.compute(10.0)
        yield from nm.wait_all(ctx, reqs)

    def receiver(ctx):
        nm = ctx.env["nm"]
        for i in range(n):
            req = yield from nm.recv(ctx, 0, i % 2, KiB(16))

    rt.spawn(0, sender)
    rt.spawn(1, receiver)
    rt.run()
    return collector


def test_collects_recv_latencies():
    c = _run_with_collector()
    assert len(c) == 6
    assert all(lat > 0 for lat in c.latencies_us)


def test_summary_percentile_ordering():
    s = _run_with_collector().summary()
    assert s.count == 6
    assert s.p50_us <= s.p95_us <= s.p99_us <= s.max_us
    assert s.mean_us > 0
    assert "p95" in s.format()


def test_tag_filter():
    c = _run_with_collector(tag=0)
    assert len(c) == 3


def test_kind_filter_send():
    rt = ClusterRuntime.build(engine=EngineKind.PIOMAN)
    c = LatencyCollector(rt.node(0).session, kind="send")

    def sender(ctx):
        nm = ctx.env["nm"]
        req = yield from nm.isend(ctx, 1, 0, KiB(2))
        yield from nm.swait(ctx, req)

    def receiver(ctx):
        nm = ctx.env["nm"]
        yield from nm.recv(ctx, 0, 0, KiB(2))

    rt.spawn(0, sender)
    rt.spawn(1, receiver)
    rt.run()
    assert len(c) == 1


def test_invalid_kind_rejected():
    rt = ClusterRuntime.build()
    with pytest.raises(HarnessError):
        LatencyCollector(rt.node(0).session, kind="sideways")


def test_empty_summary_rejected():
    rt = ClusterRuntime.build()
    c = LatencyCollector(rt.node(0).session)
    with pytest.raises(HarnessError, match="no completed"):
        c.summary()


def _one_pingpong(rt, tag=0):
    def sender(ctx):
        nm = ctx.env["nm"]
        yield from nm.send(ctx, 1, tag, KiB(2))

    def receiver(ctx):
        nm = ctx.env["nm"]
        yield from nm.recv(ctx, 0, tag, KiB(2))

    rt.spawn(0, sender)
    rt.spawn(1, receiver)
    rt.run()


def test_detach_stops_recording():
    rt = ClusterRuntime.build(engine=EngineKind.PIOMAN)
    c = LatencyCollector(rt.node(1).session)
    c.detach()
    _one_pingpong(rt)
    assert len(c) == 0
    assert c._on_complete not in rt.node(1).session.on_request_complete


def test_detach_is_idempotent_and_keeps_samples():
    rt = ClusterRuntime.build(engine=EngineKind.PIOMAN)
    c = LatencyCollector(rt.node(1).session)
    _one_pingpong(rt)
    assert len(c) == 1
    c.detach()
    c.detach()
    assert len(c) == 1  # recorded latencies survive detaching
    assert c.summary().count == 1


def test_context_manager_detaches_on_exit():
    rt = ClusterRuntime.build(engine=EngineKind.PIOMAN)
    session = rt.node(1).session
    with LatencyCollector(session) as c:
        _one_pingpong(rt)
    assert c._on_complete not in session.on_request_complete
    assert len(c) == 1


def test_per_run_collectors_do_not_double_count():
    """The leak this API fixes: a collector rebuilt per run must not keep
    feeding the previous instance. With detach, each collector sees only
    its own run's completions."""
    rt = ClusterRuntime.build(engine=EngineKind.PIOMAN)
    session = rt.node(1).session
    hooks_before = list(session.on_request_complete)
    counts = []
    for tag in (0, 1):
        with LatencyCollector(session) as c:
            _one_pingpong(rt, tag=tag)
            counts.append(len(c))
    assert counts == [1, 1]
    assert session.on_request_complete == hooks_before  # no collector left behind


# -- pure-Python mean/percentile against numpy --------------------------------------

_values = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=600,
)


@settings(max_examples=300, deadline=None)
@given(_values)
def test_mean_equals_numpy(xs):
    np = pytest.importorskip("numpy")
    assert mean(xs) == float(np.mean(xs))


@settings(max_examples=300, deadline=None)
@given(_values, st.sampled_from([0, 1, 25, 50, 95, 99, 100]) | st.floats(0, 100))
def test_percentile_equals_numpy(xs, p):
    np = pytest.importorskip("numpy")
    assert percentile(xs, p) == float(np.percentile(xs, p))


@pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 255, 256, 1000, 1023, 5000])
def test_mean_equals_numpy_across_block_sizes(n):
    np = pytest.importorskip("numpy")
    xs = np.random.default_rng(n).lognormal(3.0, 1.0, size=n).tolist()
    assert mean(xs) == float(np.mean(xs))


def test_summary_uses_numpy_order():
    np = pytest.importorskip("numpy")
    c = _run_with_collector(n=12)
    s = c.summary()
    xs = c.latencies_us
    assert s.mean_us == float(np.mean(xs))
    assert (s.p50_us, s.p95_us, s.p99_us) == tuple(float(np.percentile(xs, q)) for q in (50, 95, 99))
    assert s.max_us == max(xs)
