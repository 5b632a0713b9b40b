"""Property tests for interconnect routing invariants.

Hypothesis draws topology shapes and host pairs and checks the structural
contract every model must honour:

* a route is a connected chain of directed links from ``h{src}`` to
  ``h{dst}`` — no gaps, no teleporting;
* transported bytes are conserved per link: replaying the frames of a
  random traffic matrix over the recomputed paths accounts for every byte
  the links recorded.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import NicModel
from repro.network.fabric import Fabric
from repro.network.interconnect import Direct, Dragonfly, FatTree, Topology
from repro.network.message import Packet, PacketKind
from repro.network.nic import Nic
from repro.sim.kernel import Simulator

pytestmark = pytest.mark.topo

# keep shapes small: path construction is O(1) but capacity grows fast
fattrees = st.sampled_from([2, 4, 6, 8]).map(lambda k: FatTree(k))
dragonflies = st.tuples(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
).map(lambda aph: Dragonfly(*aph))
topologies = st.one_of(fattrees, dragonflies)


def _pairs(topo: Topology):
    cap = topo.capacity()
    assert cap is not None and cap >= 2
    return st.tuples(
        st.integers(min_value=0, max_value=cap - 1),
        st.integers(min_value=0, max_value=cap - 1),
    ).filter(lambda p: p[0] != p[1])


@given(data=st.data(), topo=topologies)
@settings(max_examples=120, deadline=None)
def test_path_is_connected_chain(data, topo: Topology):
    src, dst = data.draw(_pairs(topo))
    path = topo.path(src, dst)
    assert path, f"empty path {src}->{dst} on {topo!r}"
    assert path[0].u == f"h{src}"
    assert path[-1].v == f"h{dst}"
    for a, b in zip(path, path[1:]):
        assert a.v == b.u, f"gap {a.name} -> {b.name}"
    # no link repeats within one route (minimal routing is loop-free)
    names = [link.name for link in path]
    assert len(names) == len(set(names))


@given(
    data=st.data(),
    topo=st.one_of(st.just(Direct()).map(lambda _: Direct()), fattrees, dragonflies),
    contention=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_per_link_byte_conservation(data, topo: Topology, contention: bool):
    """Every byte a link recorded is explained by the frames routed over it."""
    topo.contention = contention
    cap = topo.capacity() or 8
    n = min(cap, 8)
    sim = Simulator()
    fabric = Fabric(sim, topology=topo)
    nics = []
    for i in range(n):
        nic = Nic(sim, i, NicModel(), fabric)
        fabric.attach(nic)
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
    # recompute the expected per-link byte totals from the routes
    expected: dict[str, int] = {}
    for src, dst, size in flows:
        wire = size + 40  # packet header overhead on the wire
        for link in topo.path(src, dst):
            expected[link.name] = expected.get(link.name, 0) + wire
    observed = {l.name: l.bytes for l in topo.links() if l.frames}
    assert observed == expected
