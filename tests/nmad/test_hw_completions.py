"""``NmSession.has_completions()`` against the devices' own queues.

The session answers from the hardware completion queue each driver hands
it (``Driver.hw_cq``, collected by ``add_gate``), not by asking the
drivers. These tests hold it to the reference — some rail's device
(NIC or shared-memory channel) has a completion record queued — after
every event of a run that delivers packets and drains transmissions,
after polls that leave records behind, and after a second ``add_gate``.
A driver that handed over the wrong queue, or none, fails here.
"""

from __future__ import annotations

import pytest

from repro.config import HostModel, NicModel, ShmModel
from repro.marcel.scheduler import MarcelScheduler
from repro.marcel.tasklet import TaskletContext
from repro.network.fabric import Fabric
from repro.network.message import Packet, PacketKind
from repro.network.nic import Nic
from repro.network.shm import ShmChannel
from repro.nmad.core import NmSession
from repro.nmad.drivers.ib import IbDriver, ib_nic_model
from repro.nmad.drivers.mx import MxDriver
from repro.nmad.drivers.shm import ShmDriver
from repro.nmad.drivers.tcp import TcpDriver, tcp_nic_model
from repro.units import KiB

HOST = HostModel()
NIC_DRIVERS = {
    "mx": (MxDriver, NicModel),
    "ib": (IbDriver, ib_nic_model),
    "tcp": (TcpDriver, tcp_nic_model),
}


def _ctx(sim):
    return TaskletContext(sim, 0, sim.now)


def _device(driver):
    """The NIC or channel a driver wraps: the hardware holding the queue."""
    return driver.channel if isinstance(driver, ShmDriver) else driver.nic


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
    assert len(rig.session._hw_cqs) == len(rig.local)
    assert all(q is _device(d).cq for q, d in zip(rig.session._hw_cqs, rig.local))


def test_deliveries_and_tx_drains(rig):
    rig.check()
    # packets into node 0 (rx records) and out of it (tx_done records)
    for remote, local in zip(rig.remote, rig.local):
        rig.send(remote, 3, src=rig.peer, dst=0)
        rig.send(local, 2, src=0, dst=rig.peer)
    rig.run_checked()
    assert rig.session.has_completions()
    for driver in rig.local:
        while driver.poll():
            rig.check()
    assert not rig.session.has_completions()


def test_partial_polls(rig):
    for remote in rig.remote:
        rig.send(remote, 20, src=rig.peer, dst=0)
    rig.run_checked()
    for driver in rig.local:
        # more records queued than one poll harvests: the rest stay visible
        assert len(driver.poll(max_events=16)) == 16
        rig.check()
        assert rig.session.has_completions()
        while driver.poll(max_events=16):
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
        peer, new, other_end = 1, MxDriver(n0, HOST), MxDriver(n1, HOST)
    else:
        peer, new, other_end = 0, rig.shm, rig.shm
    rig.session.add_gate(peer, [new])
    assert rig.session._hw_cqs[-1] is _device(new).cq
    rig.send(other_end, 2, src=peer, dst=0)
    rig.run_checked()
    for driver in rig.local:
        while driver.poll():
            pass
    # only the newly gated driver's queue holds records now
    assert rig.session.has_completions()
    rig.check()
    while new.poll():
        rig.check()
    assert not rig.session.has_completions()
