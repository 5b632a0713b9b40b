"""Property tests for the fabric's per-port accounting.

Hypothesis draws a random traffic matrix, the ingress-contention switch
and a duplicating fault plan, and checks that every byte an egress port
recorded is explained by the frames sent to its node — each fault-injected
duplicate counted as one more frame — and that, under contention, the
frames a port delivered never overlap on the wire.
"""

from __future__ import annotations

from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import NicModel
from repro.faults import FaultInjector, FaultPlan
from repro.network.fabric import Fabric
from repro.network.message import Packet, PacketKind
from repro.network.nic import Nic
from repro.sim.kernel import Simulator


@given(
    data=st.data(),
    contention=st.booleans(),
    duplicate=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=40, deadline=None)
def test_per_link_byte_conservation(data, contention: bool, duplicate: float, seed: int):
    """Every byte a port recorded is explained by the frames sent to it."""
    n = data.draw(st.integers(min_value=2, max_value=6))
    sim = Simulator()
    fabric = Fabric(sim, ingress_contention=contention)
    injector = FaultInjector(FaultPlan.lossy(duplicate=duplicate, seed=seed))
    fabric.set_injector(injector)
    sent: dict[int, int] = defaultdict(int)
    frames: dict[int, int] = defaultdict(int)
    decide = injector.decide

    def counting_decide(packet, now):
        decision = decide(packet, now)
        if decision.deliver:
            copies = 1 + decision.duplicates
            sent[packet.dst_node] += copies * packet.wire_size
            frames[packet.dst_node] += copies
        return decision

    injector.decide = counting_decide
    arrivals: dict[int, list[tuple[float, int]]] = defaultdict(list)
    nics = []
    for i in range(n):
        nic = Nic(sim, i, NicModel(), fabric)
        fabric.attach(nic)
        deliver = nic.deliver

        def recording_deliver(packet, i=i, deliver=deliver):
            arrivals[i].append((sim.now, packet.wire_size))
            deliver(packet)

        nic.deliver = recording_deliver
        nics.append(nic)
    flows = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=1, max_value=64 * 1024),
            ).filter(lambda f: f[0] != f[1]),
            min_size=1,
            max_size=10,
        )
    )
    for src, dst, size in flows:
        nics[src].submit_dma(Packet(PacketKind.EAGER, src, dst, size))
    sim.run()
    # the hook saw every frame (size + 40-byte header on the wire) ...
    expected = defaultdict(int)
    for _src, dst, size in flows:
        expected[dst] += size + 40
    if duplicate == 0.0:
        assert dict(sent) == dict(expected)
    # ... and each port's counters account for exactly those frames
    metrics = fabric.metrics()
    observed = {
        node: int(metrics[f"link.fabric>h{node}.bytes"])
        for node in range(n)
        if f"link.fabric>h{node}.bytes" in metrics
    }
    assert observed == dict(sent)
    for node, count in frames.items():
        assert metrics[f"link.fabric>h{node}.frames"] == count
        assert len(arrivals[node]) == count
    assert metrics["bytes"] == sum(expected.values())
    if contention:
        drain_per_byte = 1.0 / NicModel().wire_bw
        for times in arrivals.values():
            times.sort()
            for (t0, _), (t1, size) in zip(times, times[1:]):
                assert t1 - t0 >= size * drain_per_byte * (1 - 1e-9), times
