"""Tests for cluster assembly and program execution."""

from __future__ import annotations

import pytest

from repro.config import EngineKind, NicModel, TimingModel, ib_nic_model, tcp_nic_model
from repro.errors import HarnessError
from repro.harness.runner import ClusterRuntime
from repro.nmad.progress import SequentialEngine
from repro.pioman.engine import PiomanEngine


class TestBuild:
    def test_default_is_paper_testbed(self):
        rt = ClusterRuntime.build()
        assert len(rt.nodes) == 2
        assert len(rt.node(0).scheduler.cores) == 8
        assert rt.cluster.interconnect == "mx"

    def test_engine_selection(self):
        assert isinstance(ClusterRuntime.build(engine="pioman").node(0).engine, PiomanEngine)
        assert isinstance(
            ClusterRuntime.build(engine="sequential").node(0).engine, SequentialEngine
        )

    def test_invalid_engine_rejected(self):
        with pytest.raises(Exception):
            ClusterRuntime.build(engine="magic")

    def test_invalid_rails_rejected(self):
        with pytest.raises(HarnessError):
            ClusterRuntime.build(rails=0)

    def test_invalid_interconnect_rejected(self):
        with pytest.raises(HarnessError):
            ClusterRuntime.build(interconnect="carrier-pigeon")

    @pytest.mark.parametrize(
        "interconnect, nic_model",
        [("mx", TimingModel().nic), ("ib", ib_nic_model()), ("tcp", tcp_nic_model())],
    )
    def test_interconnect_prices_registration_and_interrupt(self, interconnect, nic_model):
        """Buffer registration and PIOMan's blocking-detection interrupt are
        priced with the chosen interconnect's NIC model (IB and TCP runs
        used to be priced with the MX model)."""
        rt = ClusterRuntime.build(interconnect=interconnect)
        nrt = rt.node(0)
        cost = nrt.session.registry.register("buf", 4096)
        assert cost == pytest.approx(nic_model.registration_us(4096))
        engine = nrt.engine
        fired = []
        engine._fire_detection = lambda: fired.append(rt.sim.now)
        engine._arm(nrt.session.make_recv(1, 0, 16))
        engine._interrupt()
        rt.run(until=100.0)
        assert fired == [pytest.approx(nic_model.interrupt_us)]

    @pytest.mark.parametrize("interconnect", ["mx", "ib", "tcp"])
    def test_custom_nic_model_is_used_or_refused(self, interconnect):
        """MX runs on the caller's NIC model; IB and TCP run on their
        presets and refuse a custom one rather than discard it silently."""
        custom = TimingModel(nic=NicModel(wire_latency_us=9.0, rdv_threshold=4096))
        if interconnect == "mx":
            rt = ClusterRuntime.build(interconnect=interconnect, timing=custom)
            assert rt.timing.nic == custom.nic
            assert rt.node(0).drivers[0].model == custom.nic
            assert rt.node(0).drivers[0].rdv_threshold == 4096
        else:
            with pytest.raises(HarnessError, match="timing.nic"):
                ClusterRuntime.build(interconnect=interconnect, timing=custom)

    @pytest.mark.parametrize(
        "interconnect, preset", [("mx", NicModel), ("ib", ib_nic_model), ("tcp", tcp_nic_model)]
    )
    def test_default_or_preset_nic_model_accepted(self, interconnect, preset):
        for nic in (NicModel(), preset()):
            rt = ClusterRuntime.build(interconnect=interconnect, timing=TimingModel(nic=nic))
            driver = rt.node(0).drivers[0]
            assert rt.timing.nic == driver.model == preset()
            assert driver.name == interconnect
            rt.close()

    def test_gates_fully_wired(self):
        rt = ClusterRuntime.build(nodes=3)
        for nrt in rt.nodes:
            assert sorted(nrt.session.gates) == [0, 1, 2]  # incl. self (shm)

    def test_multirail_attaches_n_nics(self):
        rt = ClusterRuntime.build(rails=2)
        assert len(rt.node(0).nics) == 2
        gate = rt.node(0).session.gate_to(1)
        assert len(gate.rails) == 2

    def test_self_gate_uses_shm(self):
        rt = ClusterRuntime.build()
        gate = rt.node(0).session.gate_to(0)
        assert gate.rails[0].name == "shm"

    def test_node_lookup_bounds(self):
        rt = ClusterRuntime.build()
        with pytest.raises(HarnessError):
            rt.node(5)


class TestRun:
    def test_spawn_env_bindings(self):
        rt = ClusterRuntime.build()
        seen = {}

        def body(ctx):
            seen["nm"] = ctx.env["nm"]
            seen["node"] = ctx.env["node"]
            seen["runtime"] = ctx.env["runtime"]
            yield ctx.compute(1.0)

        rt.spawn(1, body)
        rt.run()
        assert seen["node"] == 1
        assert seen["nm"] is rt.interface(1)
        assert seen["runtime"] is rt

    def test_custom_env_merged(self):
        rt = ClusterRuntime.build()
        seen = {}

        def body(ctx):
            seen["extra"] = ctx.env["extra"]
            yield ctx.compute(1.0)

        rt.spawn(0, body, env={"extra": 99})
        rt.run()
        assert seen["extra"] == 99

    def test_total_stats_structure(self):
        rt = ClusterRuntime.build()

        def body(ctx):
            yield ctx.compute(5.0)

        rt.spawn(0, body)
        rt.run()
        stats = rt.total_stats()
        assert stats["engine"] == EngineKind.PIOMAN
        assert stats["time_us"] == pytest.approx(5.0)
        assert "n0.sched" in stats and "n1.session" in stats

    def test_tcp_interconnect_works_end_to_end(self):
        rt = ClusterRuntime.build(engine="pioman", interconnect="tcp")
        out = {}

        def sender(ctx):
            nm = ctx.env["nm"]
            req = yield from nm.isend(ctx, 1, 0, 4096, payload="over-tcp")
            yield from nm.swait(ctx, req)

        def receiver(ctx):
            nm = ctx.env["nm"]
            req = yield from nm.recv(ctx, 0, 0, 4096)
            out["data"] = req.data
            out["t"] = ctx.now

        rt.spawn(0, sender)
        rt.spawn(1, receiver)
        rt.run()
        assert out["data"] == "over-tcp"
        # gigabit-ethernet latency: much slower than MX
        assert out["t"] > 25.0

    def test_tcp_rendezvous_without_zero_copy(self):
        rt = ClusterRuntime.build(engine="pioman", interconnect="tcp")
        out = {}

        def sender(ctx):
            nm = ctx.env["nm"]
            req = yield from nm.isend(ctx, 1, 0, 128 * 1024, payload="big")
            out["req"] = req
            yield from nm.swait(ctx, req)

        def receiver(ctx):
            nm = ctx.env["nm"]
            req = yield from nm.recv(ctx, 0, 0, 128 * 1024)
            out["data"] = req.data

        rt.spawn(0, sender)
        rt.spawn(1, receiver)
        rt.run()
        assert out["data"] == "big"
        assert out["req"].protocol == "rdv"
