"""Tests for the fabric's wire timing and its opt-in ingress-contention rule."""

from __future__ import annotations

import pytest

from repro.config import EngineKind, NicModel
from repro.errors import RouteError
from repro.harness.runner import ClusterRuntime
from repro.network.fabric import Fabric
from repro.network.message import Packet, PacketKind
from repro.network.nic import Nic
from repro.units import KiB


def _three_node_net(sim, contention: bool):
    fabric = Fabric(sim, ingress_contention=contention)
    nics = []
    for i in range(3):
        nic = Nic(sim, i, NicModel(), fabric)
        fabric.attach(nic)
        nics.append(nic)
    return fabric, nics


def _arrivals(sim, nics, sizes):
    """Nodes 0 and 1 each DMA one packet to node 2 at t=0."""
    times = []
    nics[2].add_activity_listener(lambda: times.append(sim.now))
    for src, size in zip((0, 1), sizes):
        nics[src].submit_dma(Packet(PacketKind.EAGER, src, 2, size))
    sim.run()
    return times


def test_direct_timing_matches_wire_formula(sim):
    """The fabric must price exactly latency + size/bw."""
    _f, nics = _three_node_net(sim, contention=False)
    times = []
    nics[1].add_activity_listener(lambda: times.append(sim.now))
    nics[0].submit_dma(Packet(PacketKind.EAGER, 0, 1, KiB(16)))
    sim.run()
    model = NicModel()
    wire = model.wire_latency_us + (KiB(16) + 40) / model.wire_bw
    # activity fires at delivery; DMA submit cost precedes transmit
    assert times[0] == pytest.approx(wire, rel=0.05)


def test_loopback_rejected(sim):
    """Intra-node traffic belongs on the shared-memory channel."""
    fabric, nics = _three_node_net(sim, contention=False)
    with pytest.raises(RouteError):
        fabric.transmit(nics[2], Packet(PacketKind.EAGER, 2, 2, KiB(1)), tx_time=0.0)


def test_without_contention_arrivals_coincide(sim):
    _f, nics = _three_node_net(sim, contention=False)
    times = _arrivals(sim, nics, [KiB(16), KiB(16)])
    assert times[0] == pytest.approx(times[1])


def test_with_contention_second_frame_queues(sim):
    fabric, nics = _three_node_net(sim, contention=True)
    times = _arrivals(sim, nics, [KiB(16), KiB(16)])
    drain = (KiB(16) + 40) / NicModel().wire_bw
    assert times[1] - times[0] == pytest.approx(drain, rel=0.01)
    assert fabric.ingress_queued_us > 0


def test_contention_only_per_destination(sim):
    """Flows to different destinations never queue on each other."""
    fabric = Fabric(sim, ingress_contention=True)
    nics = []
    for i in range(4):
        nic = Nic(sim, i, NicModel(), fabric)
        fabric.attach(nic)
        nics.append(nic)
    times = {}
    nics[2].add_activity_listener(lambda: times.setdefault(2, sim.now))
    nics[3].add_activity_listener(lambda: times.setdefault(3, sim.now))
    nics[0].submit_dma(Packet(PacketKind.EAGER, 0, 2, KiB(16)))
    nics[1].submit_dma(Packet(PacketKind.EAGER, 1, 3, KiB(16)))
    sim.run()
    assert times[2] == pytest.approx(times[3])
    assert fabric.ingress_queued_us == 0


def test_single_flow_unaffected(sim):
    """The paper experiments (one flow) must time identically with the
    model on — contention only matters with concurrent frames."""
    results = []
    for contention in (False, True):
        s = type(sim)()  # fresh simulator
        fabric, nics = _three_node_net(s, contention)
        times = []
        nics[2].add_activity_listener(lambda t=times, ss=s: t.append(ss.now))
        nics[0].submit_dma(Packet(PacketKind.EAGER, 0, 2, KiB(8)))
        s.run()
        results.append(times[0])
    assert results[0] == pytest.approx(results[1])


def test_end_to_end_flood_slower_with_contention():
    def run(contention: bool) -> float:
        rt = ClusterRuntime.build(
            engine=EngineKind.PIOMAN, nodes=3, ingress_contention=contention
        )
        done = []

        def sender(ctx, me):
            nm = ctx.env["nm"]
            reqs = []
            for i in range(4):
                r = yield from nm.isend(ctx, 2, me * 10 + i, KiB(24), payload=i)
                reqs.append(r)
            yield from nm.wait_all(ctx, reqs)

        def sink(ctx):
            nm = ctx.env["nm"]
            for me in (0, 1):
                for i in range(4):
                    req = yield from nm.recv(ctx, me, me * 10 + i, KiB(24))
                    done.append(req.data)

        rt.spawn(0, lambda c: sender(c, 0))
        rt.spawn(1, lambda c: sender(c, 1))
        rt.spawn(2, sink)
        end = rt.run()
        assert len(done) == 8
        return end

    assert run(True) > run(False)


def test_obs_lane_exposes_links():
    """A 3-node contention run reports the per-port link sub-lane."""
    rt = ClusterRuntime.build(engine=EngineKind.PIOMAN, nodes=3, ingress_contention=True)

    def sender(ctx, me):
        nm = ctx.env["nm"]
        req = yield from nm.isend(ctx, 2, me, KiB(16), payload=me)
        yield from nm.swait(ctx, req)

    def receiver(ctx):
        nm = ctx.env["nm"]
        for me in (0, 1):
            yield from nm.recv(ctx, me, me, KiB(16))

    rt.spawn(0, lambda c: sender(c, 0))
    rt.spawn(1, lambda c: sender(c, 1))
    rt.spawn(2, receiver)
    rt.run()
    snap = rt.metrics()
    link = "fabric.mx0.link.fabric>h2"
    assert snap[f"{link}.frames"] >= 2
    assert snap[f"{link}.bytes"] >= 2 * (KiB(16) + 40)
    assert 0 < snap[f"{link}.util"] <= 1
    for key in ("queued_us", "busy_us"):
        assert f"{link}.{key}" in snap
    rt.close()


# --------------------------------------------------------- duplicate frames


def _dup_injector(seed: int = 0, **rule_kwargs) -> "FaultInjector":
    from repro.faults import FaultAction, FaultInjector, FaultPlan, FaultRule

    return FaultInjector(
        FaultPlan(
            rules=[FaultRule(FaultAction.DUPLICATE, every_nth=1, **rule_kwargs)],
            seed=seed,
        )
    )


def test_duplicates_serialize_under_contention(sim):
    """Regression: duplicated frames must traverse the same per-link
    serialization path as originals. Previously a duplicate was scheduled
    at ``delay + (i+1)*drain`` without consulting or advancing the link
    cursor, so a concurrent flow's frame could overlap the duplicate on a
    busy link."""
    fabric, nics = _three_node_net(sim, contention=True)
    fabric.set_injector(_dup_injector())
    times = _arrivals(sim, nics, [KiB(16), KiB(16)])
    # 2 originals + 2 duplicates, all to node 2: four frames on one link
    assert len(times) == 4
    drain = (KiB(16) + 40) / NicModel().wire_bw
    gaps = [b - a for a, b in zip(times, times[1:])]
    for gap in gaps:
        # every consecutive pair must be at least one full drain apart —
        # the link carries one frame at a time
        assert gap >= drain * 0.999, f"frames overlapped: gaps={gaps}"


def test_duplicates_advance_link_cursor(sim):
    """A duplicate occupies the link: a concurrent clean frame behind it
    queues for the duplicate's drain too, not just the original's."""
    fabric, nics = _three_node_net(sim, contention=True)
    # only node 0's frame duplicates; node 1 sends a clean frame at t=0
    fabric.set_injector(_dup_injector(src_node=0))
    times = []
    nics[2].add_activity_listener(lambda: times.append(sim.now))
    nics[0].submit_dma(Packet(PacketKind.EAGER, 0, 2, KiB(16)))
    nics[1].submit_dma(Packet(PacketKind.EAGER, 1, 2, KiB(16)))
    sim.run()
    assert len(times) == 3  # original + duplicate + clean frame
    drain = (KiB(16) + 40) / NicModel().wire_bw
    gaps = [b - a for a, b in zip(times, times[1:])]
    # all three frames serialized on the n2 link: each gap a full drain.
    # Pre-fix, the duplicate ignored the cursor and overlapped the clean
    # frame, producing a sub-drain gap.
    for gap in gaps:
        assert gap >= drain * 0.999, f"frames overlapped: gaps={gaps}"
    assert fabric.ingress_queued_us > 0


def test_duplicates_without_contention_keep_trailing_gap(sim):
    """Contention off: a duplicate still trails the original by exactly one
    drain time (the pre-refactor timing, pinned by the golden traces)."""
    fabric, nics = _three_node_net(sim, contention=False)
    fabric.set_injector(_dup_injector())
    times = []
    nics[2].add_activity_listener(lambda: times.append(sim.now))
    nics[0].submit_dma(Packet(PacketKind.EAGER, 0, 2, KiB(16)))
    sim.run()
    assert len(times) == 2
    drain = (KiB(16) + 40) / NicModel().wire_bw
    assert times[1] - times[0] == pytest.approx(drain)
