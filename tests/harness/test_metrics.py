"""The unified metrics subsystem: registry semantics, runtime wiring,
sampler determinism, exporters, and the zero-sim-time guarantee."""

from __future__ import annotations

import json

import pytest

from repro.config import EngineKind, ObsConfig, TimingModel
from repro.errors import ObsError
from repro.harness.runner import ClusterRuntime
from repro.obs import (
    MetricsRegistry,
    TimeSeriesSampler,
    build_run_report,
    snapshot_to_json,
    snapshot_to_prometheus,
    timeseries_to_csv,
)
from repro.sim.kernel import Simulator
from repro.sim.tracing import Tracer
from repro.units import KiB

pytestmark = pytest.mark.obs


# ------------------------------------------------------------------ registry


class TestInstruments:
    def test_counter_monotonic(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ObsError):
            c.inc(-1)

    def test_gauge_set_inc_dec(self):
        g = MetricsRegistry().gauge("depth")
        g.set(10)
        g.inc(2)
        g.dec(5)
        assert g.value == 7

    def test_histogram_summary(self):
        h = MetricsRegistry().histogram("lat", bounds=(10.0, 100.0, 1000.0))
        for v in (1, 5, 50, 500, 5000):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 5
        assert snap["min"] == 1 and snap["max"] == 5000
        assert snap["mean"] == pytest.approx(1111.2)
        assert snap["p50"] <= snap["p95"] <= snap["p99"] <= snap["max"]

    def test_histogram_percentiles_clamped_to_observed(self):
        h = MetricsRegistry().histogram("lat", bounds=(1000.0,))
        h.observe(7.0)
        # one sample in a huge bucket: interpolation must not report an
        # edge nobody hit
        assert h.percentile(0.5) == 7.0
        assert h.percentile(0.99) == 7.0

    def test_empty_histogram_snapshot(self):
        h = MetricsRegistry().histogram("lat")
        assert h.snapshot() == {"count": 0}
        assert h.percentile(0.5) == 0.0

    def test_same_name_same_instance(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.histogram("c") is reg.histogram("c")

    def test_type_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ObsError):
            reg.gauge("x")
        with pytest.raises(ObsError):
            reg.histogram("x")


class TestRegistry:
    def test_snapshot_flat_and_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b.n").inc(2)
        reg.gauge("a.g").set(1.5)
        h = reg.histogram("c.h")
        h.observe(3.0)
        snap = reg.snapshot()
        assert list(snap) == sorted(snap)
        assert snap["b.n"] == 2 and snap["a.g"] == 1.5
        assert snap["c.h.count"] == 1 and snap["c.h.mean"] == 3.0

    def test_collectors_prefixed_and_removable(self):
        reg = MetricsRegistry()
        stats = {"hits": 0}
        reg.register_collector("n0.cache", lambda: stats)
        stats["hits"] = 9
        assert reg.snapshot()["n0.cache.hits"] == 9
        fn = reg._collectors[0][1]
        reg.unregister_collector(fn)
        assert reg.snapshot() == {}

    def test_disabled_registry_is_inert(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("x")
        c.inc(5)  # no-op instrument, shared across names
        assert c is reg.counter("y")
        reg.gauge("g").set(3)
        reg.histogram("h").observe(1.0)
        reg.register_collector("p", lambda: {"k": 1})
        assert reg.snapshot() == {}


# ------------------------------------------------------------------- wiring


def _pingpong(rt: ClusterRuntime, n: int = 3, size: int = KiB(8)):
    def origin(ctx):
        nm = ctx.env["nm"]
        for i in range(n):
            yield from nm.send(ctx, 1, i, size, payload=i)
            yield from nm.recv(ctx, 1, 100 + i, size)

    def echo(ctx):
        nm = ctx.env["nm"]
        for i in range(n):
            req = yield from nm.recv(ctx, 0, i, size)
            yield from nm.send(ctx, 0, 100 + i, size, payload=req.data)

    rt.spawn(0, origin, name="S")
    rt.spawn(1, echo, name="R")


def _obs_timing(sample: float = 0.0, enabled: bool = True) -> TimingModel:
    return TimingModel().replace(
        obs=ObsConfig(enabled=enabled, sample_interval_us=sample)
    )


class TestRuntimeWiring:
    def test_snapshot_covers_every_subsystem(self):
        rt = ClusterRuntime.build(engine=EngineKind.PIOMAN)
        _pingpong(rt)
        rt.run()
        m = rt.metrics()
        assert m["n0.session.sends"] == 3
        assert m["n0.reliability.retransmits"] == 0
        # the ping-pong does no application compute: all charged time is
        # communication service work
        assert m["n0.scheduler.service_us"] > 0
        assert m["n0.pioman.kicks"] >= 0
        assert m["n0.driver.mx0.eager_sends"] == 3
        assert m["n0.driver.mx0.polls"] > 0
        assert m["n0.latency.send_us.count"] == 3
        assert m["n1.latency.recv_us.count"] == 3
        assert m["sim.events_fired"] > 0
        assert m["sim.chain_boundaries"] == rt.sim.chain_boundaries
        assert m["sim.chain_batches"] == rt.sim.chain_batches
        rt.close()

    def test_per_core_scheduler_series(self):
        rt = ClusterRuntime.build(engine=EngineKind.PIOMAN)
        _pingpong(rt)
        rt.run()
        m = rt.metrics()
        per_core = [k for k in m if k.startswith("n0.scheduler.c")]
        assert len(per_core) == 3 * len(rt.node(0).scheduler.cores)
        rt.close()

    def test_metrics_disabled_runtime(self):
        rt = ClusterRuntime.build(engine=EngineKind.PIOMAN, metrics=False)
        _pingpong(rt)
        rt.run()
        assert rt.metrics() == {}
        assert rt.sampler is None
        rt.close()

    def test_signature_shape_identical_metrics_on_off(self):
        """The acceptance criterion: metrics cost zero simulated time.

        Compared as (time, category, where) shape — the repo's determinism
        convention, since labels embed process-global request counters.
        """

        def run(enabled: bool):
            tracer = Tracer()
            rt = ClusterRuntime.build(
                engine=EngineKind.PIOMAN,
                tracer=tracer,
                timing=_obs_timing(enabled=enabled),
            )
            _pingpong(rt)
            end = rt.run()
            shape = [(t, c, w) for t, c, w, _ in tracer.signature()]
            rt.close()
            return end, shape

        assert run(True) == run(False)


# ------------------------------------------------------------------- sampler


class TestSampler:
    def test_requires_positive_interval(self):
        with pytest.raises(ObsError):
            TimeSeriesSampler(Simulator(), MetricsRegistry(), 0.0)

    def test_samples_quantized_to_boundaries(self):
        sim = Simulator()
        reg = MetricsRegistry()
        sampler = TimeSeriesSampler(sim, reg, interval_us=10.0)
        for d in (3.0, 12.0, 47.0):
            sim.schedule(d, lambda: None)
        sim.run()
        assert [t for t, _ in sampler.samples] == [10.0, 40.0]

    def test_ring_buffer_cap(self):
        sim = Simulator()
        sampler = TimeSeriesSampler(sim, MetricsRegistry(), 1.0, max_samples=2)
        for d in range(1, 6):
            sim.schedule(float(d), lambda: None)
        sim.run()
        assert len(sampler.samples) == 2
        assert sampler.dropped == 3
        assert sampler.samples[-1][0] == 5.0

    def test_disabled_registry_never_attaches(self):
        sim = Simulator()
        sampler = TimeSeriesSampler(sim, MetricsRegistry(enabled=False), 1.0)
        sim.schedule(5.0, lambda: None)
        sim.run()
        assert sampler.samples == []

    def test_deterministic_across_identical_runs(self):
        def run():
            rt = ClusterRuntime.build(
                engine=EngineKind.PIOMAN, timing=_obs_timing(sample=5.0)
            )
            _pingpong(rt)
            rt.run()
            samples = list(rt.sampler.samples)
            rt.close()
            return samples

        a, b = run(), run()
        assert len(a) > 0
        assert [t for t, _ in a] == [t for t, _ in b]
        for (_, sa), (_, sb) in zip(a, b):
            assert sa == sb

    def test_detach_stops_sampling(self):
        sim = Simulator()
        sampler = TimeSeriesSampler(sim, MetricsRegistry(), 1.0)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert len(sampler.samples) == 1
        sampler.detach()
        sampler.detach()  # idempotent
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert len(sampler.samples) == 1


# ------------------------------------------------------------------ exporters


class TestExporters:
    def test_json_round_trip(self):
        rt = ClusterRuntime.build(engine=EngineKind.PIOMAN)
        _pingpong(rt)
        rt.run()
        snap = rt.metrics()
        assert json.loads(snapshot_to_json(snap)) == snap
        rt.close()

    def test_prometheus_text_format(self):
        text = snapshot_to_prometheus({"n0.pioman.kicks": 4, "9bad name": 1.5})
        lines = text.strip().splitlines()
        assert "repro_n0_pioman_kicks 4" in lines
        assert any(line.startswith("repro__9bad_name ") for line in lines)
        assert all(
            line.startswith("# TYPE") or " " in line for line in lines
        )

    def test_csv_time_series(self):
        sim = Simulator()
        reg = MetricsRegistry()
        c = reg.counter("hits")
        sampler = TimeSeriesSampler(sim, reg, 10.0)
        sim.schedule(10.0, lambda: c.inc())
        sim.schedule(20.0, lambda: c.inc())
        sim.run()
        csv = timeseries_to_csv(sampler)
        rows = csv.strip().splitlines()
        assert rows[0] == "time_us,hits"
        assert rows[1] == "10,1"
        assert rows[2] == "20,2"

    def test_run_report_merges_everything(self):
        rt = ClusterRuntime.build(
            engine=EngineKind.PIOMAN,
            tracer=Tracer(),
            timing=_obs_timing(sample=5.0),
        )
        _pingpong(rt)
        rt.run()
        report = build_run_report(rt)
        assert report["meta"]["nodes"] == 2
        assert report["meta"]["time_us"] == rt.sim.now
        assert report["meta"]["chain_batches"] == rt.sim.chain_batches
        assert report["metrics"] == rt.metrics()
        assert report["timeseries"]["interval_us"] == 5.0
        assert len(report["timeseries"]["samples"]) == len(rt.sampler.samples)
        assert isinstance(report["trace"], list) and report["trace"]
        json.dumps(report)  # must be serialisable as-is
        rt.close()
