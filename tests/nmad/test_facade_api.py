"""The typed/ergonomic front-end pass on :class:`NmInterface`.

Payload-first sends (size derived from bytes/numpy payloads), keyword-only
optional arguments, the pure-inspection ``test_all``/``test_any``
companions, and the :class:`ProbeInfo` result of ``probe``/``iprobe``
(typed attributes).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import EngineKind
from repro.errors import RequestError
from repro.harness.runner import ClusterRuntime
from repro.nmad.interface import NmInterface
from repro.nmad.unexpected import ProbeInfo
from repro.units import KiB


@pytest.fixture()
def rt():
    runtime = ClusterRuntime.build(engine=EngineKind.SEQUENTIAL)
    yield runtime
    runtime.close()


# ------------------------------------------------------------ size resolution


class TestResolveSize:
    def test_explicit_size_only(self):
        assert NmInterface._resolve_size(4096, None) == 4096

    def test_derives_from_bytes(self):
        assert NmInterface._resolve_size(None, b"x" * 100) == 100

    def test_derives_from_bytearray_and_memoryview(self):
        assert NmInterface._resolve_size(None, bytearray(64)) == 64
        assert NmInterface._resolve_size(None, memoryview(bytes(64))) == 64

    def test_derives_from_numpy(self):
        arr = np.zeros((10, 10), dtype=np.float32)
        assert NmInterface._resolve_size(None, arr) == 400

    def test_numpy_integer_size_accepted(self):
        assert NmInterface._resolve_size(np.int64(256), None) == 256

    def test_matching_pair_validated(self):
        assert NmInterface._resolve_size(100, b"x" * 100) == 100

    def test_mismatched_pair_rejected(self):
        with pytest.raises(RequestError, match="does not match"):
            NmInterface._resolve_size(99, b"x" * 100)

    def test_underivable_payload_needs_size(self):
        with pytest.raises(RequestError, match="cannot derive size"):
            NmInterface._resolve_size(None, {"an": "object"})
        # ...and works once the caller sizes it
        assert NmInterface._resolve_size(123, {"an": "object"}) == 123

    def test_non_integral_size_rejected(self):
        with pytest.raises(RequestError, match="size must be an integer"):
            NmInterface._resolve_size(12.5, b"xx")


# ------------------------------------------------------------- facade surface


def test_optional_args_are_keyword_only(rt):
    nm = rt.interface(0)
    # a 5th positional argument can only be buffer_id, which is keyword-only
    with pytest.raises(TypeError):
        nm.isend(None, 1, 0, 128, None, "buf")
    with pytest.raises(TypeError):
        nm.irecv(None, 1, 0, 128, "buf")


def test_payload_first_send_roundtrip(rt):
    payload = bytes(range(256)) * 8  # 2 KiB → eager
    got = {}

    def sender(ctx):
        nm = ctx.env["nm"]
        # positional payload-first form: no size anywhere
        req = yield from nm.send(ctx, 1, 5, payload)
        got["sent_size"] = req.size

    def receiver(ctx):
        nm = ctx.env["nm"]
        req = yield from nm.recv(ctx, 0, 5, KiB(4))
        got["data"] = req.data

    rt.spawn(0, sender, name="S")
    rt.spawn(1, receiver, name="R")
    rt.run()
    assert got["sent_size"] == len(payload)
    assert got["data"] == payload


def test_isend_size_payload_mismatch_raises(rt):
    def sender(ctx):
        nm = ctx.env["nm"]
        with pytest.raises(RequestError, match="does not match"):
            yield from nm.isend(ctx, 1, 0, 999, payload=b"x" * 100)

    rt.spawn(0, sender, name="S")
    rt.run()


# ------------------------------------------------------------ test_all / _any


def test_test_all_and_test_any_are_pure_inspection(rt):
    nm = rt.interface(0)
    session = rt.nodes[0].session
    a = session.make_recv(1, 0, 10)
    b = session.make_recv(1, 1, 10)

    assert nm.test_all([]) is True  # vacuous
    assert nm.test_all([a, b]) is False
    assert nm.test_any([a, b]) is None

    b.complete(0.0)
    assert nm.test_all([a, b]) is False
    assert nm.test_any([a, b]) == (1, b)  # wait_any-shaped result

    a.complete(0.0)
    assert nm.test_all([a, b]) is True
    assert nm.test_any([a, b]) == (0, a)  # first completed wins

    # no progression was driven and no time passed
    assert rt.sim.now == 0.0


# ----------------------------------------------------------------- ProbeInfo


class TestProbeInfo:
    def test_typed_attributes(self):
        info = ProbeInfo(source=3, tag=7, size=1024, rdv=True)
        assert (info.source, info.tag, info.size, info.rdv) == (3, 7, 1024, True)

    def test_probe_returns_probe_info(self, rt):
        got = {}

        def sender(ctx):
            nm = ctx.env["nm"]
            yield from nm.send(ctx, 1, 9, payload=b"z" * 512)

        def receiver(ctx):
            nm = ctx.env["nm"]
            info = yield from nm.probe(ctx, 0, 9)
            got["info"] = info
            yield from nm.recv(ctx, 0, 9, 512)

        rt.spawn(0, sender, name="S")
        rt.spawn(1, receiver, name="R")
        rt.run()
        info = got["info"]
        assert isinstance(info, ProbeInfo)
        assert info.source == 0 and info.tag == 9 and info.size == 512
