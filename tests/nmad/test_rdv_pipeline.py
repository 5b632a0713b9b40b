"""The pipelined/striped rendezvous data phase (``TimingModel.rdv``).

Covers the planner geometry, the payload codec, end-to-end byte-identical
delivery of chunked transfers on one and many rails, the registration/
transmission overlap win, per-chunk retransmission under fault injection,
the ``rdv.*`` observability lane, and the gate-wide protocol-threshold
bugfix in ``post_send``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.config import EngineKind, RdvConfig, TimingModel
from repro.errors import ProtocolError
from repro.faults import FaultAction, FaultPlan, FaultRule
from repro.harness.runner import ClusterRuntime
from repro.network.message import PacketKind
from repro.nmad.rdv import PayloadAssembler, RdvPlanner, classify_payload, slice_raw
from repro.nmad.wire import DataChunkFrame
from repro.nmad.request import Protocol
from repro.nmad.strategies.base import RailInfo, stripe_by_bandwidth
from repro.sim.tracing import Tracer
from repro.units import KiB

pytestmark = pytest.mark.rdv

ENGINES = (EngineKind.SEQUENTIAL, EngineKind.PIOMAN)

#: deterministic non-repeating byte pattern (catches offset mix-ups that a
#: constant fill would mask)
def _pattern(n: int) -> bytes:
    return bytes((i * 31 + (i >> 8) * 7) % 256 for i in range(n))


def _rails(*bandwidths: float) -> list[RailInfo]:
    return [
        RailInfo(i, 128, KiB(32), bandwidth=bw) for i, bw in enumerate(bandwidths)
    ]


# ------------------------------------------------------------------- planner


class TestPlanner:
    def test_default_config_is_single_chunk_on_first_rail(self):
        chunks = RdvPlanner(RdvConfig()).plan(KiB(512), _rails(1000.0, 1000.0))
        assert len(chunks) == 1
        assert (chunks[0].offset, chunks[0].length, chunks[0].rail_index) == (0, KiB(512), 0)

    def test_fixed_chunking_partitions_payload(self):
        cfg = RdvConfig(chunk_bytes=KiB(64))
        chunks = RdvPlanner(cfg).plan(KiB(256) + 5, _rails(1000.0))
        assert len(chunks) == 5  # 4 full chunks + 5-byte tail
        assert [c.index for c in chunks] == list(range(5))
        covered = sorted((c.offset, c.length) for c in chunks)
        edge = 0
        for off, length in covered:
            assert off == edge
            edge += length
        assert edge == KiB(256) + 5

    def test_striping_is_proportional_to_bandwidth(self):
        cfg = RdvConfig(chunk_bytes=KiB(64))
        rails = _rails(1000.0, 3000.0)
        chunks = RdvPlanner(cfg).plan(KiB(256), rails)
        per_rail = {0: 0, 1: 0}
        for c in chunks:
            per_rail[c.rail_index] += c.length
        assert per_rail[0] == KiB(64)  # 1/4 of the bandwidth
        assert per_rail[1] == KiB(192)
        # same arithmetic as the eager splitter
        assert stripe_by_bandwidth(KiB(256), rails) == [KiB(64), KiB(192)]

    def test_multirail_false_pins_one_rail(self):
        cfg = RdvConfig(chunk_bytes=KiB(64), multirail=False)
        chunks = RdvPlanner(cfg).plan(KiB(256), _rails(1000.0, 1000.0))
        assert {c.rail_index for c in chunks} == {0}

    def test_adaptive_sizes_from_rail_bandwidth(self):
        cfg = RdvConfig(adaptive=True, adaptive_chunk_us=50.0)
        # 1000 B/µs × 50 µs = 50_000-byte chunks
        chunks = RdvPlanner(cfg).plan(200_000, _rails(1000.0))
        assert len(chunks) == 4
        assert all(c.length == 50_000 for c in chunks)

    def test_max_chunks_per_rail_bounds_plan(self):
        cfg = RdvConfig(chunk_bytes=1024, max_chunks_per_rail=4)
        chunks = RdvPlanner(cfg).plan(KiB(256), _rails(1000.0))
        assert len(chunks) <= 4

    def test_min_chunk_bytes_floor(self):
        cfg = RdvConfig(chunk_bytes=16, min_chunk_bytes=4096)
        chunks = RdvPlanner(cfg).plan(KiB(16), _rails(1000.0))
        assert all(c.length >= 4096 for c in chunks[:-1])

    def test_empty_rails_rejected(self):
        with pytest.raises(ProtocolError):
            RdvPlanner(RdvConfig()).plan(KiB(64), [])


# --------------------------------------------------------------------- codec


def _chunk_frame(*, offset, length, chunk_index, payload, mode, meta=None,
                 size=0, nchunks=2):
    """A receiver-side DATA chunk frame as op_send_chunk would build it."""
    return DataChunkFrame(
        tx_req_id=1, recv_req_id=1, length=length, payload=payload,
        mode=mode, meta=meta, chunk_index=chunk_index, offset=offset,
        size=size, nchunks=nchunks,
    )


class TestPayloadCodec:
    def test_bytes_roundtrip(self):
        payload = _pattern(10_000)
        mode, raw, meta = classify_payload(payload, 10_000)
        assert mode == "bytes" and meta is None
        asm = PayloadAssembler(10_000, 3)
        for i, (off, length) in enumerate([(0, 4000), (4000, 4000), (8000, 2000)]):
            done = asm.add(
                _chunk_frame(
                    offset=off, length=length, chunk_index=i,
                    payload=slice_raw(mode, raw, off, length, i),
                    mode=mode, meta=meta if i == 0 else None,
                    size=10_000, nchunks=3,
                )
            )
        assert done
        assert asm.payload() == payload

    def test_numpy_roundtrip_preserves_dtype_and_shape(self):
        arr = np.arange(6_000, dtype=np.float64).reshape(60, 100)
        mode, raw, meta = classify_payload(arr, arr.nbytes)
        assert mode == "ndarray"
        asm = PayloadAssembler(arr.nbytes, 2)
        half = arr.nbytes // 2
        for i, off in enumerate((0, half)):
            asm.add(
                _chunk_frame(
                    offset=off, length=half, chunk_index=i,
                    payload=slice_raw(mode, raw, off, half, i),
                    mode=mode, meta=meta if i == 0 else None,
                    size=arr.nbytes,
                )
            )
        out = asm.payload()
        assert out.dtype == arr.dtype and out.shape == arr.shape
        assert np.array_equal(out, arr)

    def test_opaque_payload_rides_chunk_zero(self):
        obj = {"not": "bytes"}
        mode, raw, meta = classify_payload(obj, 500)
        assert mode == "opaque"
        asm = PayloadAssembler(500, 2)
        asm.add(_chunk_frame(offset=0, length=250, chunk_index=0,
                             payload=slice_raw(mode, raw, 0, 250, 0),
                             mode=mode, size=500))
        asm.add(_chunk_frame(offset=250, length=250, chunk_index=1,
                             payload=slice_raw(mode, raw, 250, 250, 1),
                             mode=mode, size=500))
        assert asm.payload() is obj

    def test_length_mismatch_degrades_to_opaque(self):
        mode, _, _ = classify_payload(b"short", 10_000)
        assert mode == "opaque"

    def test_duplicate_chunk_ignored(self):
        asm = PayloadAssembler(100, 2)
        hdr = _chunk_frame(offset=0, length=50, chunk_index=0,
                           payload=b"x" * 50, mode="bytes", size=100)
        assert asm.add(hdr) is False
        assert asm.add(hdr) is False  # duplicate: no double count
        assert asm.chunks_seen == 1

    def test_overflow_raises(self):
        asm = PayloadAssembler(60, 2)
        asm.add(_chunk_frame(offset=0, length=50, chunk_index=0,
                             payload=b"x" * 50, mode="bytes", size=60))
        with pytest.raises(ProtocolError):
            asm.add(_chunk_frame(offset=50, length=50, chunk_index=1,
                                 payload=b"y" * 50, mode="bytes", size=60))


# --------------------------------------------------------------- end-to-end


def _rdv_roundtrip(
    engine: str,
    payload,
    size: int,
    *,
    rdv: RdvConfig | None = None,
    rails: int = 1,
    faults=None,
    recover: bool = False,
    tracer: Tracer | None = None,
    timing: TimingModel | None = None,
):
    """One RDV-sized transfer n0 → n1; returns (end, data, metrics, rt-stats)."""
    rt = ClusterRuntime.build(
        engine=engine,
        rails=rails,
        rdv=rdv,
        faults=faults,
        recover=recover,
        tracer=tracer,
        timing=timing,
    )
    got = {}

    def sender(ctx):
        nm = ctx.env["nm"]
        yield from nm.send(ctx, 1, 7, payload=payload, buffer_id="tx")
        yield from nm.drain(ctx)

    def receiver(ctx):
        nm = ctx.env["nm"]
        req = yield from nm.recv(ctx, 0, 7, size)
        got["data"] = req.data
        yield from nm.drain(ctx)

    rt.spawn(0, sender, name="S")
    rt.spawn(1, receiver, name="R")
    end = rt.run()
    snap = rt.metrics_registry.snapshot()
    stats = [dict(n.session.stats) for n in rt.nodes]
    rt.close()
    return end, got.get("data"), snap, stats


@pytest.mark.parametrize("engine", ENGINES, ids=["seq", "piom"])
def test_chunked_rdv_delivers_byte_identical(engine):
    payload = _pattern(KiB(256))
    end, data, snap, stats = _rdv_roundtrip(
        engine, payload, KiB(256), rdv=RdvConfig(chunk_bytes=KiB(64))
    )
    assert data == payload
    assert stats[0]["rdv_sends"] == 1
    assert stats[0]["rdv_chunked_sends"] == 1
    assert stats[0]["rdv_chunks_sent"] == 4
    assert stats[1]["rdv_chunks_received"] == 4
    # counters surface under the dedicated metrics lane, rdv_ prefix folded
    assert snap["n0.rdv.chunks_sent"] == 4
    assert snap["n1.rdv.chunks_received"] == 4
    assert "rdv_chunks_sent" not in {k.split(".")[-1] for k in snap if k.startswith("n0.session.")}


@pytest.mark.parametrize("engine", ENGINES, ids=["seq", "piom"])
def test_chunked_rdv_numpy_payload(engine):
    arr = np.arange(KiB(128) // 8, dtype=np.float64).reshape(-1, 64)
    end, data, snap, _ = _rdv_roundtrip(
        engine, arr, arr.nbytes, rdv=RdvConfig(chunk_bytes=KiB(32))
    )
    assert isinstance(data, np.ndarray)
    assert data.dtype == arr.dtype and data.shape == arr.shape
    assert np.array_equal(data, arr)


@pytest.mark.parametrize("engine", ENGINES, ids=["seq", "piom"])
def test_striped_rdv_uses_both_rails(engine):
    payload = _pattern(KiB(512))
    end, data, snap, stats = _rdv_roundtrip(
        engine, payload, KiB(512), rdv=RdvConfig(chunk_bytes=KiB(64)), rails=2
    )
    assert data == payload
    assert stats[0]["rdv_striped_sends"] == 1
    # zero-copy submissions land on both of the sender's NICs
    assert snap["n0.driver.mx0.zero_copy_sends"] > 0
    assert snap["n0.driver.mx1.zero_copy_sends"] > 0


@pytest.mark.parametrize("engine", ENGINES, ids=["seq", "piom"])
def test_pipelined_chunks_beat_one_shot_data_phase(engine):
    """Registration of chunk k+1 overlaps the drain of chunk k, so a large
    single-rail transfer finishes sooner than the seed's one-shot DATA."""
    payload = _pattern(KiB(512))
    one_shot, data_a, _, _ = _rdv_roundtrip(engine, payload, KiB(512), rdv=None)
    chunked, data_b, _, _ = _rdv_roundtrip(
        engine, payload, KiB(512), rdv=RdvConfig(chunk_bytes=KiB(64))
    )
    assert data_a == data_b == payload
    assert chunked < one_shot


def test_chunking_off_trace_is_deterministic():
    """Same seed, chunking off, single rail → identical trace signatures
    (the acceptance bar for leaving the default path untouched)."""
    shapes = []
    for _ in range(2):
        tracer = Tracer()
        payload = _pattern(KiB(128))
        _rdv_roundtrip(
            EngineKind.PIOMAN, payload, KiB(128), rdv=RdvConfig(), tracer=tracer
        )
        shapes.append([(t, c, w) for t, c, w, _label in tracer.signature()])
    assert shapes[0] == shapes[1]


@pytest.mark.parametrize("engine", ENGINES, ids=["seq", "piom"])
def test_lost_chunk_retransmits_alone(engine):
    """Drop exactly one DATA chunk: only that chunk goes out again (the
    rdv.* counters prove it) and the payload still reassembles exactly."""
    plan = FaultPlan(
        rules=[
            FaultRule(
                FaultAction.DROP, every_nth=1, kinds=(PacketKind.DATA,), max_count=1
            )
        ],
        seed=11,
    )
    # ack_timeout must span the serialized drain of the whole chunk train
    # (4 × ~61 µs here), otherwise queued chunks time out spuriously
    timing = TimingModel()
    timing = dataclasses.replace(
        timing,
        faults=dataclasses.replace(timing.faults, enabled=True, ack_timeout_us=1000.0),
    )
    payload = _pattern(KiB(256))
    end, data, snap, stats = _rdv_roundtrip(
        engine,
        payload,
        KiB(256),
        rdv=RdvConfig(chunk_bytes=KiB(64)),
        faults=plan,
        recover=True,
        timing=timing,
    )
    assert data == payload
    assert snap["n0.rdv.chunk_retransmits"] == 1
    # the other three chunks were not re-sent
    assert snap["n0.rdv.chunks_sent"] == 4
    assert snap["n1.rdv.chunks_received"] == 4


# ------------------------------------------------- post_send threshold bugfix


def _heterogeneous_session():
    from repro.marcel.scheduler import MarcelScheduler
    from repro.network.fabric import Fabric
    from repro.network.nic import Nic
    from repro.nmad.core import NmSession
    from repro.nmad.drivers import NicDriver
    from repro.sim.kernel import Simulator
    from repro.topology.builder import build_node

    timing = TimingModel()
    sim = Simulator()
    node = build_node(0, sockets=2, cores_per_socket=4)
    scheduler = MarcelScheduler(sim, node, timing)
    session = NmSession(sim, scheduler, node, timing)
    fabric = Fabric(sim, name="mx0")
    fast = Nic(sim, 0, timing.nic, fabric)  # rdv cutoff 32 KiB
    slow_model = dataclasses.replace(timing.nic, rdv_threshold=KiB(8))
    slow = Nic(sim, 0, slow_model, fabric)
    session.add_gate(1, [NicDriver(fast, timing.host), NicDriver(slow, timing.host)])
    return session


def test_post_send_uses_gate_wide_thresholds():
    """A 16 KiB send on a gate whose rails disagree on the rendezvous
    cutoff (32 KiB vs 8 KiB) must go rendezvous: rerouting or striping may
    put it on the small-cutoff rail, where 16 KiB cannot travel eagerly.
    The seed consulted rails[0] only and chose EAGER here."""
    session = _heterogeneous_session()
    req = session.make_send(1, 0, KiB(16))
    session.post_send(req)
    assert req.protocol == Protocol.RDV


def test_post_send_homogeneous_gate_unchanged():
    rt = ClusterRuntime.build(engine=EngineKind.SEQUENTIAL, rails=2)
    session = rt.nodes[0].session
    for size, proto in ((64, Protocol.PIO), (KiB(16), Protocol.EAGER), (KiB(64), Protocol.RDV)):
        req = session.make_send(1, 0, size)
        session.post_send(req)
        assert req.protocol == proto
    rt.close()


def test_effective_thresholds_match_single_rail():
    rt = ClusterRuntime.build(engine=EngineKind.SEQUENTIAL)
    gate = rt.nodes[0].session.gate_to(1)
    assert gate.effective_thresholds() == (
        gate.rails[0].pio_threshold,
        gate.rails[0].rdv_threshold,
    )
    rt.close()
