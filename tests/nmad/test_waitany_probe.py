"""Tests for wait_any and message probing (both engines)."""

from __future__ import annotations

import pytest

from repro.errors import RequestError
from repro.harness.runner import ClusterRuntime
from repro.units import KiB


class TestWaitAny:
    def test_returns_first_completion(self, runtime):
        out = {}

        def sender(ctx):
            nm = ctx.env["nm"]
            # tag 1 sent immediately; tag 0 sent much later
            r1 = yield from nm.isend(ctx, 1, 1, KiB(2), payload="fast")
            yield ctx.compute(200.0)
            r0 = yield from nm.isend(ctx, 1, 0, KiB(2), payload="slow")
            yield from nm.wait_all(ctx, [r0, r1])

        def receiver(ctx):
            nm = ctx.env["nm"]
            slow = yield from nm.irecv(ctx, 0, 0, KiB(2))
            fast = yield from nm.irecv(ctx, 0, 1, KiB(2))
            idx, req = yield from nm.wait_any(ctx, [slow, fast])
            out["first"] = (idx, req.data, ctx.now)
            yield from nm.rwait(ctx, slow)

        runtime.spawn(0, sender)
        runtime.spawn(1, receiver)
        runtime.run()
        idx, data, t = out["first"]
        assert idx == 1 and data == "fast"
        assert t < 150.0  # did not wait for the slow one

    def test_already_done_returns_immediately(self, runtime):
        out = {}

        def sender(ctx):
            nm = ctx.env["nm"]
            req = yield from nm.isend(ctx, 1, 0, KiB(1), payload="x")
            yield from nm.swait(ctx, req)

        def receiver(ctx):
            nm = ctx.env["nm"]
            req = yield from nm.irecv(ctx, 0, 0, KiB(1))
            yield from nm.rwait(ctx, req)  # complete it first
            idx, got = yield from nm.wait_any(ctx, [req])
            out["idx"] = idx

        runtime.spawn(0, sender)
        runtime.spawn(1, receiver)
        runtime.run()
        assert out["idx"] == 0

    def test_empty_list_rejected(self, runtime):
        def body(ctx):
            nm = ctx.env["nm"]
            with pytest.raises(RequestError, match="at least one"):
                yield from nm.wait_any(ctx, [])
            yield ctx.compute(0.1)

        runtime.spawn(0, body)
        runtime.run()

    def test_streaming_consumer_pattern(self, runtime):
        """The master/worker pattern: post N recvs, consume completions in
        arrival order via wait_any."""
        arrivals = []
        n = 5

        def sender(ctx):
            nm = ctx.env["nm"]
            reqs = []
            for i in (3, 0, 4, 1, 2):  # arbitrary send order
                r = yield from nm.isend(ctx, 1, i, KiB(1), payload=i)
                reqs.append(r)
                yield ctx.compute(15.0)
            yield from nm.wait_all(ctx, reqs)

        def receiver(ctx):
            nm = ctx.env["nm"]
            pending = []
            for i in range(n):
                r = yield from nm.irecv(ctx, 0, i, KiB(1))
                pending.append(r)
            remaining = list(pending)
            while remaining:
                idx, req = yield from nm.wait_any(ctx, remaining)
                arrivals.append(req.data)
                remaining.pop(idx)

        runtime.spawn(0, sender)
        runtime.spawn(1, receiver)
        runtime.run()
        assert arrivals == [3, 0, 4, 1, 2]  # completion order == send order


class TestProbe:
    def test_iprobe_nothing_pending(self, runtime):
        out = {}

        def body(ctx):
            nm = ctx.env["nm"]
            found = yield from nm.iprobe(ctx, 1, 0)
            out["found"] = found

        runtime.spawn(0, body)
        runtime.run()
        assert out["found"] is None

    def test_probe_blocks_until_message(self, runtime):
        out = {}

        def sender(ctx):
            nm = ctx.env["nm"]
            yield ctx.compute(50.0)
            req = yield from nm.isend(ctx, 1, 7, KiB(4), payload="probed")
            yield from nm.swait(ctx, req)

        def prober(ctx):
            nm = ctx.env["nm"]
            status = yield from nm.probe(ctx, 0, 7)
            out["status"] = status
            out["t"] = ctx.now
            # now actually receive it
            req = yield from nm.recv(ctx, 0, 7, KiB(4))
            out["data"] = req.data

        runtime.spawn(0, sender)
        runtime.spawn(1, prober)
        runtime.run()
        assert out["status"].source == 0
        assert out["status"].tag == 7
        assert out["status"].size == KiB(4)
        assert not out["status"].rdv
        assert out["t"] >= 50.0
        assert out["data"] == "probed"

    def test_probe_sees_rdv_handshake(self, runtime):
        out = {}

        def sender(ctx):
            nm = ctx.env["nm"]
            req = yield from nm.isend(ctx, 1, 3, KiB(64), payload="big")
            yield from nm.swait(ctx, req)

        def prober(ctx):
            nm = ctx.env["nm"]
            status = yield from nm.probe(ctx, 0, 3)
            out["status"] = status
            req = yield from nm.recv(ctx, 0, 3, KiB(64))
            out["data"] = req.data

        runtime.spawn(0, sender)
        runtime.spawn(1, prober)
        runtime.run()
        assert out["status"].rdv is True
        assert out["status"].size == KiB(64)
        assert out["data"] == "big"

    def test_probe_is_non_destructive(self, runtime):
        out = {}

        def sender(ctx):
            nm = ctx.env["nm"]
            req = yield from nm.isend(ctx, 1, 0, KiB(2), payload="still-there")
            yield from nm.swait(ctx, req)

        def prober(ctx):
            nm = ctx.env["nm"]
            s1 = yield from nm.probe(ctx, 0, 0)
            s2 = yield from nm.probe(ctx, 0, 0)  # probe again: same message
            out["same"] = s1 == s2
            req = yield from nm.recv(ctx, 0, 0, KiB(2))
            out["data"] = req.data

        runtime.spawn(0, sender)
        runtime.spawn(1, prober)
        runtime.run()
        assert out["same"] and out["data"] == "still-there"


class TestNonBlockingTest:
    def test_test_reflects_completion(self, runtime):
        out = {}

        def sender(ctx):
            nm = ctx.env["nm"]
            req = yield from nm.isend(ctx, 1, 0, KiB(2), payload="t")
            out["early"] = nm.test(req)
            yield from nm.swait(ctx, req)
            out["late"] = nm.test(req)

        def receiver(ctx):
            nm = ctx.env["nm"]
            req = yield from nm.recv(ctx, 0, 0, KiB(2))

        runtime.spawn(0, sender)
        runtime.spawn(1, receiver)
        runtime.run()
        assert out["late"] is True

    def test_test_drives_no_progress(self, pioman_runtime):
        """nm.test must be pure: a pending op stays pending."""
        out = {}

        def sender(ctx):
            nm = ctx.env["nm"]
            # occupy every core so the submission op cannot be offloaded
            req = yield from nm.isend(ctx, 1, 0, KiB(8))
            ops_before = pioman_runtime.node(0).session.has_pending_ops()
            nm.test(req)
            out["unchanged"] = (
                pioman_runtime.node(0).session.has_pending_ops() == ops_before
            )
            yield from nm.swait(ctx, req)

        def receiver(ctx):
            nm = ctx.env["nm"]
            yield from nm.recv(ctx, 0, 0, KiB(8))

        pioman_runtime.spawn(0, sender)
        pioman_runtime.spawn(1, receiver)
        pioman_runtime.run()
        assert out["unchanged"]
