"""Tests for scan, reduce_scatter, waitany, and MPI probing."""

from __future__ import annotations

import operator

import pytest

from repro.config import EngineKind
from repro.harness.runner import ClusterRuntime
from repro.mpi import MpiWorld


def _run_spmd(nodes: int, body, engine=EngineKind.PIOMAN):
    rt = ClusterRuntime.build(engine=engine, nodes=nodes)
    world = MpiWorld(rt)
    out: dict = {}
    for rank in range(nodes):
        world.spawn_rank(rank, lambda ctx: body(ctx, out))
    rt.run()
    return out


@pytest.mark.parametrize("nodes", [2, 3, 5, 8])
class TestScan:
    def test_inclusive_prefix_sum(self, nodes):
        def body(ctx, out):
            comm = ctx.env["comm"]
            acc = yield from comm.scan(ctx, comm.rank + 1)
            out[comm.rank] = acc

        out = _run_spmd(nodes, body)
        for r in range(nodes):
            assert out[r] == sum(range(1, r + 2)), f"rank {r}"

    def test_custom_op(self, nodes):
        def body(ctx, out):
            comm = ctx.env["comm"]
            acc = yield from comm.scan(ctx, comm.rank + 1, op=operator.mul)
            out[comm.rank] = acc

        out = _run_spmd(nodes, body)
        import math

        for r in range(nodes):
            assert out[r] == math.factorial(r + 1)


@pytest.mark.parametrize("nodes", [2, 4, 5])
class TestReduceScatter:
    def test_block_reduction(self, nodes):
        def body(ctx, out):
            comm = ctx.env["comm"]
            # rank r contributes blocks [r*10 + i for block i]
            blocks = [comm.rank * 10 + i for i in range(comm.size)]
            acc = yield from comm.reduce_scatter(ctx, blocks)
            out[comm.rank] = acc

        out = _run_spmd(nodes, body)
        for i in range(nodes):
            expected = sum(r * 10 + i for r in range(nodes))
            assert out[i] == expected, f"block {i}"

    def test_wrong_block_count_rejected(self, nodes):
        from repro.errors import MpiError

        rt = ClusterRuntime.build(nodes=nodes)
        world = MpiWorld(rt)
        failures = []

        def body(ctx):
            comm = ctx.env["comm"]
            if comm.rank == 0:
                try:
                    yield from comm.reduce_scatter(ctx, [1])  # wrong length
                except MpiError:
                    failures.append(True)
            blocks = [0] * comm.size
            yield from comm.reduce_scatter(ctx, blocks)

        world.spawn_all(body)
        rt.run()
        assert failures == [True]


class TestMpiWaitany:
    def test_first_arrival_wins(self):
        out = {}

        def body(ctx, o):
            comm = ctx.env["comm"]
            if comm.rank == 0:
                slow = yield from comm.irecv(ctx, 1, 0)
                fast = yield from comm.irecv(ctx, 1, 1)
                idx, data = yield from comm.waitany(ctx, [slow, fast])
                o["first"] = (idx, data)
                yield from slow.wait(ctx)
            else:
                r1 = yield from comm.isend(ctx, "quick", 0, 1)
                yield ctx.compute(120.0)
                r0 = yield from comm.isend(ctx, "late", 0, 0)
                yield from r1.wait(ctx)
                yield from r0.wait(ctx)

        out = _run_spmd(2, body)
        assert out["first"] == (1, "quick")

    def test_empty_rejected(self):
        from repro.errors import MpiError

        def body(ctx, o):
            comm = ctx.env["comm"]
            with pytest.raises(MpiError):
                yield from comm.waitany(ctx, [])
            yield ctx.compute(0.1)

        _run_spmd(2, body)


class TestMpiProbe:
    def test_probe_then_recv(self):
        def body(ctx, out):
            comm = ctx.env["comm"]
            if comm.rank == 0:
                yield from comm.send(ctx, {"payload": 1}, dest=1, tag=9)
            else:
                status = yield from comm.probe(ctx, source=0, tag=9)
                out["size"] = status.size
                obj = yield from comm.recv(ctx, source=0, tag=9)
                out["obj"] = obj

        out = _run_spmd(2, body)
        assert out["size"] > 0
        assert out["obj"] == {"payload": 1}

    def test_iprobe_polls(self):
        def body(ctx, out):
            comm = ctx.env["comm"]
            if comm.rank == 0:
                yield ctx.compute(30.0)
                yield from comm.send(ctx, "later", dest=1, tag=2)
            else:
                first = yield from comm.iprobe(ctx, source=0, tag=2)
                out["early"] = first
                found = None
                while found is None:
                    yield ctx.sleep(5.0)
                    found = yield from comm.iprobe(ctx, source=0, tag=2)
                out["late"] = found
                yield from comm.recv(ctx, source=0, tag=2)

        out = _run_spmd(2, body)
        assert out["early"] is None
        assert out["late"].tag == 2
