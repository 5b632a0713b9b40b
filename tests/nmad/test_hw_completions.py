"""The session's poll loop against the devices' own queues.

The session answers ``has_completions()`` from the hardware completion
queue each driver hands it (``Driver.hw_cq``, collected by ``add_gate``),
not by asking the drivers. These tests hold it to the reference — some
rail's device (NIC or shared-memory channel) has a completion record
queued — after every event of a run that delivers packets and drains
transmissions, after takes that leave records behind, and after a second
``add_gate``. A driver that handed over the wrong queue, or none, fails
here. They also pin what one ``poll_completions`` pass charges and
counts, and that arrived frames reach the reliability layer with the rail
they came in on.
"""

from __future__ import annotations

import pytest

from repro.config import HostModel, NicModel, ShmModel, ib_nic_model, tcp_nic_model
from repro.marcel.scheduler import MarcelScheduler
from repro.network.fabric import Fabric
from repro.network.message import Packet, PacketKind
from repro.network.nic import Nic
from repro.network.shm import ShmChannel
from repro.nmad.core import NmSession
from repro.nmad.drivers.base import ExecContext
from repro.nmad.drivers import NicDriver, ShmDriver, TcpDriver
from repro.units import KiB

HOST = HostModel()
NIC_DRIVERS = {
    "mx": (NicDriver, NicModel),
    "ib": (NicDriver, ib_nic_model),
    "tcp": (TcpDriver, tcp_nic_model),
}


def _ctx(sim):
    return ExecContext(sim, 0, sim.now)


def _device(driver):
    """The NIC or channel a driver wraps: the hardware holding the queue."""
    return driver.channel if isinstance(driver, ShmDriver) else driver.nic


def _take(driver, n: int) -> int:
    """Take up to ``n`` records off ``driver``'s queue, as a poll would;
    returns how many it took."""
    taken = min(n, len(driver.hw_cq))
    for _ in range(taken):
        driver.hw_cq.popleft()
    return taken


class Rig:
    """A node-0 session with one gate over ``rails`` rails of ``kind``, the
    node-1 drivers on the other end of each rail, and node 0's loopback
    shared-memory driver (not yet gated)."""

    def __init__(self, sim, node8, kind: str, rails: int) -> None:
        self.sim = sim
        self.session = NmSession(sim, MarcelScheduler(sim, node8), node8)
        self.shm = ShmDriver(ShmChannel(sim, 0, ShmModel()), HOST)
        if kind == "shm":
            self.local, self.remote, self.peer = [self.shm], [self.shm], 0
        else:
            cls, model = NIC_DRIVERS[kind]
            self.local, self.remote, self.peer = [], [], 1
            for r in range(rails):
                fabric = Fabric(sim, name=f"{kind}{r}")
                n0, n1 = Nic(sim, 0, model(), fabric), Nic(sim, 1, model(), fabric)
                fabric.attach(n0)
                fabric.attach(n1)
                self.local.append(cls(n0, HOST))
                self.remote.append(cls(n1, HOST))
        self.session.add_gate(self.peer, self.local)

    def reference(self) -> bool:
        return any(_device(d).cq for d in self.session.drivers)

    def check(self) -> None:
        assert self.session.has_completions() == self.reference()

    def run_checked(self) -> None:
        """Run to quiescence, checking the invariant after every event."""
        self.check()
        while self.sim.step():
            self.check()

    def send(self, driver, count: int, src: int, dst: int) -> None:
        for _ in range(count):
            packet = Packet(PacketKind.EAGER, src, dst, KiB(2))
            driver.submit_eager(_ctx(self.sim), packet, KiB(2))


CASES = [("mx", 1), ("shm", 1), ("ib", 1), ("tcp", 1), ("mx", 2)]


@pytest.fixture(params=CASES, ids=[f"{k}-rails{r}" for k, r in CASES])
def rig(request, sim, node8):
    kind, rails = request.param
    return Rig(sim, node8, kind, rails)


def test_hardware_queues_come_from_the_drivers(rig):
    assert len(rig.session.hw_cqs) == len(rig.local)
    assert all(q is _device(d).cq for q, d in zip(rig.session.hw_cqs, rig.local))


def test_deliveries_and_tx_drains(rig):
    rig.check()
    # packets into node 0 (rx records) and out of it (tx_done records)
    for remote, local in zip(rig.remote, rig.local):
        rig.send(remote, 3, src=rig.peer, dst=0)
        rig.send(local, 2, src=0, dst=rig.peer)
    rig.run_checked()
    assert rig.session.has_completions()
    for driver in rig.local:
        while _take(driver, 1):
            rig.check()
    assert not rig.session.has_completions()


def test_partial_polls(rig):
    for remote in rig.remote:
        rig.send(remote, 20, src=rig.peer, dst=0)
    rig.run_checked()
    for driver in rig.local:
        # more records queued than one poll harvests: the rest stay visible
        assert _take(driver, 16) == 16
        rig.check()
        assert rig.session.has_completions()
        while _take(driver, 16):
            rig.check()
    assert not rig.session.has_completions()


def test_second_add_gate(rig, sim):
    # the second gate: node 0's loopback, or an MX rail to node 1 when the
    # first gate is the loopback
    if rig.peer == 0:
        fabric = Fabric(sim, name="mx-second")
        n0, n1 = Nic(sim, 0, NicModel(), fabric), Nic(sim, 1, NicModel(), fabric)
        fabric.attach(n0)
        fabric.attach(n1)
        peer, new, other_end = 1, NicDriver(n0, HOST), NicDriver(n1, HOST)
    else:
        peer, new, other_end = 0, rig.shm, rig.shm
    rig.session.add_gate(peer, [new])
    assert rig.session.hw_cqs[-1] is _device(new).cq
    rig.send(other_end, 2, src=peer, dst=0)
    rig.run_checked()
    for driver in rig.local:
        driver.hw_cq.clear()
    # only the newly gated driver's queue holds records now
    assert rig.session.has_completions()
    rig.check()
    while _take(new, 1):
        rig.check()
    assert not rig.session.has_completions()


# -- poll accounting -----------------------------------------------------------------


def _poll_cost(driver) -> float:
    """CPU one poll of ``driver``'s completion queue costs (its model's)."""
    return driver.model.ring_op_us if isinstance(driver, ShmDriver) else driver.model.poll_us


def _tx_done_now(driver, peer: int) -> None:
    """Queue one ``tx_done`` record on ``driver``'s device at once, with no
    CPU charged: a PIO frame through a NIC, a frame through the shared
    segment. Its dispatch completes nothing and charges nothing."""
    if isinstance(driver, ShmDriver):
        driver.channel.submit(Packet(PacketKind.PIO, 0, 0, 8))
    else:
        driver.nic.submit_pio(Packet(PacketKind.PIO, 0, peer, 8))


def _gate_an_empty_rail(rig, sim):
    """Gate one more driver, which no record ever reaches: node 0's
    loopback, or an MX rail to node 1 when the first gate is the loopback."""
    if rig.peer == 0:
        fabric = Fabric(sim, name="mx-empty")
        n0, n1 = Nic(sim, 0, NicModel(), fabric), Nic(sim, 1, NicModel(), fabric)
        fabric.attach(n0)
        fabric.attach(n1)
        rig.session.add_gate(1, [NicDriver(n0, HOST)])
    else:
        rig.session.add_gate(0, [rig.shm])


def test_one_poll_pass_charges_counts_and_caps(rig, sim):
    """One ``poll_completions`` pass charges every rail's poll cost, empty
    rails included, counts one poll per rail and the records it took, and
    takes at most 16 records from a rail: 20 queued go as 16, then 4."""
    _gate_an_empty_rail(rig, sim)
    drivers = rig.session.drivers
    for _ in range(20):
        _tx_done_now(drivers[0], rig.peer)
    cost = 0.0
    for driver in drivers:
        cost += _poll_cost(driver)
    for harvest in (16, 4, 0):
        before = [(d.polls, d.rx_completions) for d in drivers]
        ctx = _ctx(sim)
        did = rig.session.poll_completions(ctx)
        assert did == (harvest > 0)
        assert ctx.cpu_us == cost
        assert len(drivers[0].hw_cq) == {16: 4, 4: 0, 0: 0}[harvest]
        for i, (driver, (polls, records)) in enumerate(zip(drivers, before)):
            assert driver.polls == polls + 1
            assert driver.rx_completions == records + (harvest if i == 0 else 0)


def test_frames_reach_reliability_with_their_rail(monkeypatch):
    """With a fault plan on two rails, every arrived frame — ACKs,
    duplicates and corrupted copies among them — reaches
    ``ReliabilityLayer.on_rx`` with the driver of the NIC it arrived on."""
    from repro.config import EngineKind
    from repro.faults import FaultAction, FaultPlan, FaultRule
    from repro.harness.runner import ClusterRuntime
    from repro.nmad.reliability import ReliabilityLayer

    arrived_on: dict[int, tuple[Packet, Nic]] = {}
    deliver = Nic.deliver

    def recording_deliver(nic, packet):
        arrived_on[id(packet)] = (packet, nic)
        deliver(nic, packet)

    seen = []
    on_rx = ReliabilityLayer.on_rx

    def recording_on_rx(layer, ctx, driver, packet):
        seen.append((driver, packet))
        return on_rx(layer, ctx, driver, packet)

    monkeypatch.setattr(Nic, "deliver", recording_deliver)
    monkeypatch.setattr(ReliabilityLayer, "on_rx", recording_on_rx)
    plan = FaultPlan(
        rules=[
            FaultRule(FaultAction.CORRUPT, every_nth=5),
            FaultRule(FaultAction.CORRUPT, every_nth=3, kinds=(PacketKind.ACK,)),
            FaultRule(FaultAction.DUPLICATE, every_nth=4),
        ],
        seed=3,
    )
    for engine in (EngineKind.SEQUENTIAL, EngineKind.PIOMAN):
        rt = ClusterRuntime.build(
            engine=engine, rails=2, strategy="split", faults=plan, recover=True
        )

        def sender(ctx):
            nm = ctx.env["nm"]
            for i, size in enumerate((64, KiB(4), KiB(64))):
                yield from nm.send(ctx, 1, i, size)
            yield from nm.drain(ctx)

        def receiver(ctx):
            nm = ctx.env["nm"]
            for i, size in enumerate((64, KiB(4), KiB(64))):
                yield from nm.recv(ctx, 0, i, size)
            yield from nm.drain(ctx)

        rt.spawn(0, sender, name="S")
        rt.spawn(1, receiver, name="R")
        rt.run()
        rt.close()
    assert seen
    for driver, packet in seen:
        assert arrived_on[id(packet)][1] is driver.nic
    kinds = {p.kind for _d, p in seen}
    assert PacketKind.ACK in kinds
    assert any("corrupted" in p.headers for _d, p in seen)
    times_seen: dict[int, int] = {}
    for _d, p in seen:
        times_seen[id(p)] = times_seen.get(id(p), 0) + 1
    assert max(times_seen.values()) > 1  # a duplicated frame arrived twice
    # both rails carried frames
    assert len({id(d) for d, _p in seen}) >= 2
