"""Unit tests for the pluggable interconnect model layer."""

from __future__ import annotations

import pytest

from repro.config import EngineKind, InterconnectConfig, NicModel, TimingModel
from repro.errors import ConfigError, HarnessError, RouteError
from repro.harness.runner import ClusterRuntime
from repro.network.fabric import Fabric
from repro.network.interconnect import (
    Direct,
    Dragonfly,
    FatTree,
    Topology,
    make_topology,
    topology_from_config,
)
from repro.network.message import Packet, PacketKind
from repro.network.nic import Nic
from repro.units import KiB

pytestmark = pytest.mark.topo


def _net(sim, topology: Topology, n: int):
    fabric = Fabric(sim, topology=topology)
    nics = []
    for i in range(n):
        nic = Nic(sim, i, NicModel(), fabric)
        fabric.attach(nic)
        nics.append(nic)
    return fabric, nics


# ------------------------------------------------------------------- factories


def test_make_topology_specs():
    assert isinstance(make_topology("direct"), Direct)
    ft = make_topology("fattree:8")
    assert isinstance(ft, FatTree) and ft.k == 8
    df = make_topology("dragonfly:4,2,2")
    assert isinstance(df, Dragonfly) and (df.a, df.p, df.h) == (4, 2, 2)
    # an instance passes through untouched
    inst = FatTree(4)
    assert make_topology(inst) is inst


def test_make_topology_rejects_garbage():
    with pytest.raises(ConfigError):
        make_topology("torus")
    with pytest.raises(ConfigError):
        make_topology("fattree:3")  # odd k
    with pytest.raises(ConfigError):
        make_topology("dragonfly:0,1,1")


def test_topology_from_config_maps_fields():
    cfg = InterconnectConfig(topology="fattree", fattree_k=6, contention=True)
    model = topology_from_config(cfg)
    assert isinstance(model, FatTree) and model.k == 6 and model.contention


# ------------------------------------------------------------------- capacity


def test_fattree_capacity_and_validate():
    ft = FatTree(4)
    assert ft.capacity() == 16
    ft.validate_node(15)
    with pytest.raises(RouteError):
        ft.validate_node(16)


def test_dragonfly_capacity():
    df = Dragonfly(a=4, p=2, h=2)  # 9 groups x 4 routers x 2 hosts
    assert df.capacity() == 72
    with pytest.raises(RouteError):
        df.validate_node(72)


def test_direct_unbounded():
    assert Direct().capacity() is None
    Direct().validate_node(10_000)


# ------------------------------------------------------------------- routing


def test_fattree_path_shapes():
    ft = FatTree(4)
    # same edge switch: host - edge - host = 2 links
    assert len(ft.path(0, 1)) == 2
    # same pod, different edge: through an aggregation switch = 4 links
    assert len(ft.path(0, 2)) == 4
    # cross-pod: up to a core and back down = 6 links
    assert len(ft.path(0, 8)) == 6


def test_fattree_path_endpoints():
    ft = FatTree(4)
    path = ft.path(0, 8)
    assert path[0].u == "h0"
    assert path[-1].v == "h8"
    # store-and-forward chain: each hop starts where the last ended
    for a, b in zip(path, path[1:]):
        assert a.v == b.u


def test_dragonfly_path_endpoints():
    df = Dragonfly(a=4, p=2, h=2)
    # cross-group route: h0 (group 0) to last host (group 8)
    path = df.path(0, 71)
    assert path[0].u == "h0"
    assert path[-1].v == "h71"
    for a, b in zip(path, path[1:]):
        assert a.v == b.u
    # exactly one global (inter-group) link on a minimal route
    globals_ = [l for l in path if l.latency_us == df.global_latency_us]
    assert len(globals_) == 1


def test_loopback_rejected():
    for topo in (Direct(), FatTree(4), Dragonfly()):
        with pytest.raises(RouteError):
            topo.path(3, 3)


# ------------------------------------------------------------------- timing


def test_direct_timing_matches_wire_formula(sim):
    """The default model must price exactly latency + size/bw."""
    _fabric, nics = _net(sim, Direct(), 2)
    times = []
    nics[1].add_activity_listener(lambda: times.append(sim.now))
    nics[0].submit_dma(Packet(PacketKind.EAGER, 0, 1, KiB(16)))
    sim.run()
    model = NicModel()
    wire = model.wire_latency_us + (KiB(16) + 40) / model.wire_bw
    # activity fires at delivery; DMA submit cost precedes transmit
    assert times[0] == pytest.approx(wire, rel=0.05)


def test_fattree_adds_hop_latency(sim):
    """A fat-tree cross-pod path is strictly slower than direct."""

    def run(topology: Topology) -> float:
        s = type(sim)()
        _f, nics = _net(s, topology, 16)
        times = []
        nics[8].add_activity_listener(lambda: times.append(s.now))
        nics[0].submit_dma(Packet(PacketKind.EAGER, 0, 8, KiB(16)))
        s.run()
        return times[0]

    assert run(FatTree(4)) > run(Direct())


def test_contention_queues_on_shared_uplink(sim):
    """Two cross-pod flows sharing an edge->agg uplink serialize there."""
    ft = FatTree(4, contention=True)
    fabric, nics = _net(sim, ft, 16)
    # flows 0->8 and 1->10 share p0e0>p0a0 (both dst even => agg 0)
    nics[0].submit_dma(Packet(PacketKind.EAGER, 0, 8, KiB(32)))
    nics[1].submit_dma(Packet(PacketKind.EAGER, 1, 10, KiB(32)))
    sim.run()
    stats = fabric.metrics()
    assert stats["link.p0e0>p0a0.frames"] == 2.0
    assert fabric.ingress_queued_us > 0


def test_no_contention_no_queueing(sim):
    ft = FatTree(4, contention=False)
    fabric, nics = _net(sim, ft, 16)
    nics[0].submit_dma(Packet(PacketKind.EAGER, 0, 8, KiB(32)))
    nics[1].submit_dma(Packet(PacketKind.EAGER, 1, 10, KiB(32)))
    sim.run()
    assert fabric.ingress_queued_us == 0


# ------------------------------------------------------------------- harness


def test_build_topology_spec_string():
    rt = ClusterRuntime.build(
        engine=EngineKind.PIOMAN, nodes=4, topology="fattree:4"
    )
    assert isinstance(rt.fabrics[0].model, FatTree)
    rt.close()


def test_build_topology_from_timing_config():
    timing = TimingModel(interconnect=InterconnectConfig(topology="dragonfly"))
    rt = ClusterRuntime.build(engine=EngineKind.PIOMAN, nodes=4, timing=timing)
    assert isinstance(rt.fabrics[0].model, Dragonfly)
    rt.close()


def test_build_topology_instance_rejected_for_multirail():
    with pytest.raises(HarnessError):
        ClusterRuntime.build(
            engine=EngineKind.PIOMAN, nodes=4, rails=2, topology=FatTree(4)
        )


def test_build_topology_spec_ok_for_multirail():
    rt = ClusterRuntime.build(
        engine=EngineKind.PIOMAN, nodes=4, rails=2, topology="fattree:4"
    )
    models = [f.model for f in rt.fabrics]
    assert len(models) == 2 and models[0] is not models[1]
    rt.close()


def test_capacity_enforced_at_build():
    with pytest.raises(RouteError):
        ClusterRuntime.build(
            engine=EngineKind.PIOMAN, nodes=17, topology="fattree:4"
        )


def test_obs_lane_exposes_links():
    rt = ClusterRuntime.build(
        engine=EngineKind.PIOMAN,
        nodes=8,
        topology="fattree:4",
        ingress_contention=True,
    )

    def sender(ctx):
        nm = ctx.env["nm"]
        req = yield from nm.isend(ctx, 5, 7, KiB(16), payload=1)
        yield from nm.swait(ctx, req)

    def receiver(ctx):
        nm = ctx.env["nm"]
        yield from nm.recv(ctx, 0, 7, KiB(16))

    rt.spawn(0, sender)
    rt.spawn(5, receiver)
    rt.run()
    snap = rt.metrics()
    link_keys = [k for k in snap if ".link." in k and k.endswith(".frames")]
    assert link_keys, f"no per-link metrics in {sorted(snap)[:10]}"
    assert any(snap[k] > 0 for k in link_keys)
    rt.close()
