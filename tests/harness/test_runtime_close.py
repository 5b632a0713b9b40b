"""A closed runtime is freed by reference counting alone.

``ClusterRuntime.close()`` breaks the reference cycles between the layers
(device listeners, the NIC-fabric link, the simulator's pending callbacks
and probes, the session's protocol engines and queued ops, a completed
request and its completion event), so dropping a closed runtime frees it
at once instead of waiting for a cyclic garbage collection; its
statistics stay readable after ``close()``.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.config import EngineKind
from repro.faults.plan import FaultPlan
from repro.harness.runner import ClusterRuntime
from repro.units import KiB


def _run_and_close(engine: str, lossy: bool) -> weakref.ref:
    rt = ClusterRuntime.build(
        engine=engine,
        rails=2 if lossy else 1,
        strategy="aggreg" if lossy else "default",
        faults=FaultPlan.lossy(drop=0.1, delay=0.05, seed=3) if lossy else None,
    )
    # eager and rendezvous sizes
    sizes = (64, KiB(64), KiB(1))

    def ping(ctx):
        nm = ctx.env["nm"]
        for i, size in enumerate(sizes):
            yield from nm.send(ctx, 1, i, size, payload=i)
            yield from nm.recv(ctx, 1, i, size)

    def pong(ctx):
        nm = ctx.env["nm"]
        for i, size in enumerate(sizes):
            req = yield from nm.recv(ctx, 0, i, size)
            yield from nm.send(ctx, 0, i, size, payload=req.data)

    rt.spawn(0, ping, name="ping")
    rt.spawn(1, pong, name="pong")
    rt.run()
    before = (rt.total_stats(), rt.metrics())
    rt.close()
    assert (rt.total_stats(), rt.metrics()) == before
    rt.close()  # idempotent
    return weakref.ref(rt.sim)


@pytest.mark.parametrize("lossy", [False, True], ids=["lossless", "lossy"])
@pytest.mark.parametrize("engine", [EngineKind.SEQUENTIAL, EngineKind.PIOMAN])
def test_closed_runtime_leaves_no_cyclic_garbage(engine, lossy):
    gc.collect()
    gc.disable()
    try:
        sim = _run_and_close(engine, lossy)
        # freed by reference counting as the runtime went out of scope
        assert sim() is None
        assert gc.collect() == 0
    finally:
        gc.enable()
