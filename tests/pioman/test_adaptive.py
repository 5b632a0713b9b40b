"""The engine's offload modes (§5 future work): always, never, adaptive."""

from __future__ import annotations

import hashlib

import pytest

from repro.config import EngineKind
from repro.errors import HarnessError
from repro.harness.runner import ClusterRuntime
from repro.sim.tracing import Tracer
from repro.units import KiB


def _engine(mode: str, busy_cores: int = 0):
    """Node 0's engine in ``mode``, with ``busy_cores`` cores given a thread."""
    rt = ClusterRuntime.build(engine=EngineKind.PIOMAN, offload_policy=mode)

    def body(ctx):
        yield ctx.compute(1.0)

    for i in range(busy_cores):
        rt.spawn(0, body, core_index=i, migratable=False)
    return rt.node(0).engine


def _send_sizes(mode: str, sizes) -> ClusterRuntime:
    """Node 0 isends ``sizes`` back to back, then waits for them all."""
    rt = ClusterRuntime.build(engine=EngineKind.PIOMAN, offload_policy=mode)

    def sender(ctx):
        nm = ctx.env["nm"]
        reqs = []
        for tag, size in enumerate(sizes):
            r = yield from nm.isend(ctx, 1, tag, size)
            reqs.append(r)
        yield from nm.wait_all(ctx, reqs)

    def receiver(ctx):
        nm = ctx.env["nm"]
        for tag, size in enumerate(sizes):
            yield from nm.recv(ctx, 0, tag, size)

    rt.spawn(0, sender)
    rt.spawn(1, receiver)
    rt.run()
    return rt


class TestAlways:
    def test_always_true(self):
        assert _engine("always")._offload(1)
        assert _engine("always", busy_cores=8)._offload(1 << 20)
        eng = _send_sizes("always", (256, KiB(32))).node(0).engine
        assert (eng.offloads, eng.inlines) == (2, 0)


class TestNever:
    def test_always_false(self):
        assert not _engine("never")._offload(1 << 20)
        eng = _send_sizes("never", (KiB(32),)).node(0).engine
        assert (eng.offloads, eng.inlines) == (0, 1)


class TestAdaptive:
    def test_requires_idle_core(self):
        assert not _engine("adaptive", busy_cores=8)._offload(1 << 20)
        assert _engine("adaptive", busy_cores=7)._offload(1 << 20)

    def test_tiny_copies_inline(self):
        """A copy cheaper than the inter-CPU dispatch (§4.1's 2 µs) runs
        in place; one that costs at least as much is offloaded."""
        eng = _engine("adaptive")
        host = eng.timing.host
        assert host.memcpy_us(256) < host.tasklet_remote_us
        assert not eng._offload(256)
        assert eng._offload(KiB(32))

    def test_statistics(self):
        eng = _send_sizes("adaptive", (256, KiB(32))).node(0).engine
        assert (eng.offloads, eng.inlines) == (1, 1)

    def test_validation(self):
        with pytest.raises(HarnessError, match="unknown offload policy"):
            ClusterRuntime.build(engine=EngineKind.PIOMAN, offload_policy="psychic")
        with pytest.raises(HarnessError, match="only applies"):
            ClusterRuntime.build(engine=EngineKind.SEQUENTIAL, offload_policy="never")


class TestEngineIntegration:
    def test_never_policy_submits_inline(self):
        rt = ClusterRuntime.build(engine=EngineKind.PIOMAN, offload_policy="never")
        out = {}

        def sender(ctx):
            nm = ctx.env["nm"]
            t0 = ctx.now
            req = yield from nm.isend(ctx, 1, 0, KiB(16))
            out["isend_us"] = ctx.now - t0
            yield from nm.swait(ctx, req)

        def receiver(ctx):
            nm = ctx.env["nm"]
            yield from nm.recv(ctx, 0, 0, KiB(16))

        rt.spawn(0, sender)
        rt.spawn(1, receiver)
        rt.run()
        # inline submission: isend takes the copy time, like the baseline —
        # but *without* the big lock (event-granular)
        assert out["isend_us"] >= rt.timing.host.memcpy_us(KiB(16)) * 0.9

    def test_always_policy_defers(self):
        rt = ClusterRuntime.build(engine=EngineKind.PIOMAN, offload_policy="always")
        out = {}

        def sender(ctx):
            nm = ctx.env["nm"]
            t0 = ctx.now
            req = yield from nm.isend(ctx, 1, 0, KiB(16))
            out["isend_us"] = ctx.now - t0
            yield from nm.swait(ctx, req)

        def receiver(ctx):
            nm = ctx.env["nm"]
            yield from nm.recv(ctx, 0, 0, KiB(16))

        rt.spawn(0, sender)
        rt.spawn(1, receiver)
        rt.run()
        assert out["isend_us"] < 1.0

    def test_payloads_identical_across_policies(self):
        for policy in ("always", "never", "adaptive"):
            rt = ClusterRuntime.build(engine=EngineKind.PIOMAN, offload_policy=policy)
            got = []

            def sender(ctx):
                nm = ctx.env["nm"]
                reqs = []
                for i in range(5):
                    r = yield from nm.isend(ctx, 1, i, 1024 * (1 + i), payload=i)
                    reqs.append(r)
                yield from nm.wait_all(ctx, reqs)

            def receiver(ctx):
                nm = ctx.env["nm"]
                for i in range(5):
                    req = yield from nm.recv(ctx, 0, i, 1 << 20)
                    got.append(req.data)

            rt.spawn(0, sender)
            rt.spawn(1, receiver)
            rt.run()
            assert got == [0, 1, 2, 3, 4], policy


#: (size, mode) -> (end time, trace digest) of the Fig. 4 loop: 12 rounds
#: of isend, 20 µs of compute and swait against a receiver doing the same.
#: At 256 B adaptive submits inline like never; at 32 KiB it offloads like
#: always. Captured before the offload policies were folded into the engine.
FIG4_PINS = {
    (256, "always"): (242.39999999999998, "3e1421aa28fd009943201806c763b4b8"),
    (256, "never"): (261.69469726562494, "b110f2ee34cf306d1e1e8c955bf518af"),
    (256, "adaptive"): (261.69469726562494, "b110f2ee34cf306d1e1e8c955bf518af"),
    (KiB(32), "always"): (564.1360810279846, "6b16de1c5bede5c4c81cba3346747232"),
    (KiB(32), "never"): (759.6560810279848, "e3906e3dcaf003215f8469e31deb77dc"),
    (KiB(32), "adaptive"): (564.1360810279846, "6b16de1c5bede5c4c81cba3346747232"),
}


def fig4_loop(size: int, mode: str) -> tuple[float, str]:
    """(end time, trace digest) of the Fig. 4 loop under ``mode``."""
    tracer = Tracer()
    rt = ClusterRuntime.build(engine=EngineKind.PIOMAN, offload_policy=mode, tracer=tracer)

    def sender(ctx):
        nm = ctx.env["nm"]
        for i in range(12):
            req = yield from nm.isend(ctx, 1, 0, size, payload=i, buffer_id="b")
            yield ctx.compute(20.0)
            yield from nm.swait(ctx, req)

    def receiver(ctx):
        nm = ctx.env["nm"]
        for _ in range(12):
            req = yield from nm.irecv(ctx, 0, 0, size, buffer_id="r")
            yield ctx.compute(20.0)
            yield from nm.rwait(ctx, req)

    rt.spawn(0, sender, name="S")
    rt.spawn(1, receiver, name="R")
    end = rt.run()
    digest = hashlib.blake2b(repr((end, tracer.signature())).encode(), digest_size=16)
    return end, digest.hexdigest()


@pytest.mark.parametrize("size,mode", sorted(FIG4_PINS))
def test_fig4_loop_is_pinned(size, mode):
    assert fig4_loop(size, mode) == FIG4_PINS[(size, mode)]
