"""Untraced runs make no trace call.

Every trace site tests ``tracer is not None`` before calling the layer's
trace helper, so a runtime built without a tracer never enters one. The
traced path is pinned by the golden traces
(``tests/property/test_prop_trace_compat.py``).
"""

from __future__ import annotations

import pytest

from repro.config import EngineKind
from repro.harness.runner import ClusterRuntime
from repro.marcel.scheduler import MarcelScheduler
from repro.nmad.core import NmSession
from repro.units import KiB


def _refuse(*_args, **_kw):
    raise AssertionError("an untraced run made a trace call")


@pytest.mark.parametrize("engine", [EngineKind.SEQUENTIAL, EngineKind.PIOMAN])
@pytest.mark.parametrize("size", [64, KiB(128)], ids=["eager", "rdv"])
def test_untraced_run_makes_no_trace_call(monkeypatch, engine, size):
    monkeypatch.setattr(MarcelScheduler, "_trace", _refuse)
    monkeypatch.setattr(NmSession, "_trace", _refuse)
    monkeypatch.setattr(NmSession, "_trace_raw", _refuse)
    rt = ClusterRuntime.build(engine=engine)
    assert rt.sim.trace is None
    echoed = []

    def origin(ctx):
        nm = ctx.env["nm"]
        for i in range(3):
            yield from nm.send(ctx, 1, i, size, payload=i)
            req = yield from nm.recv(ctx, 1, 100 + i, size)
            echoed.append(req.data)

    def echo(ctx):
        nm = ctx.env["nm"]
        for i in range(3):
            req = yield from nm.recv(ctx, 0, i, size)
            yield from nm.send(ctx, 0, 100 + i, size, payload=req.data)

    rt.spawn(0, origin, name="S")
    rt.spawn(1, echo, name="R")
    rt.run()
    assert echoed == [0, 1, 2]
