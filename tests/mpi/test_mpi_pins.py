"""End times and trace digests of short MPI runs at 4 nodes.

Every blocking collective the library's MPI layer offers over point-to-point
(barrier, bcast, allreduce, allgather, alltoall) runs under both engines,
and an ``iallreduce`` overlapped with a compute phase runs under both
engines too. A change to the MPI layer, to NewMadeleine or to an engine's
progression moves these pins. The blocking pins and the sequential
``iallreduce`` pin were captured before nonblocking-collective actions
moved onto the session op queue; the PIOMan ``iallreduce`` pin was
re-captured then (one idle activation per action instead of two).
"""

from __future__ import annotations

import hashlib

import pytest

from repro.config import EngineKind
from repro.harness.runner import ClusterRuntime
from repro.mpi import MpiWorld
from repro.sim.tracing import Tracer
from repro.units import KiB

SEQ, PIOM = EngineKind.SEQUENTIAL, EngineKind.PIOMAN
NODES = 4


def _run(engine: str, body) -> tuple[float, str]:
    """(end time rounded to 0.1 ns, SHA-256 of the trace signature) of
    ``body`` run on every rank of a 4-node, 2-core-per-node cluster."""
    tracer = Tracer()
    rt = ClusterRuntime.build(
        engine=engine, nodes=NODES, sockets=1, cores_per_socket=2, tracer=tracer
    )
    MpiWorld(rt).spawn_all(body)
    end = rt.run()
    digest = hashlib.sha256(repr(tracer.signature()).encode()).hexdigest()
    return round(end, 4), digest


def _blocking(name: str):
    def body(ctx):
        comm = ctx.env["comm"]
        rank = comm.rank
        for _ in range(2):
            if name == "barrier":
                yield from comm.barrier(ctx)
            elif name == "bcast":
                yield from comm.bcast(ctx, bytes(KiB(8)) if rank == 1 else None, root=1)
            elif name == "allreduce":
                yield from comm.allreduce(ctx, rank + 1, op=max)
            elif name == "allgather":
                yield from comm.allgather(ctx, bytes(512 * (rank + 1)))
            else:
                yield from comm.alltoall(ctx, [bytes(256 * (rank + d)) for d in range(NODES)])
            yield ctx.compute(5.0)

    return body


def _iallreduce(ctx):
    """4 iterations of an 8 KiB ``iallreduce`` overlapped with 112.3 µs of
    compute (about one blocking allreduce of that size under PIOMan)."""
    comm = ctx.env["comm"]
    payload = bytes(KiB(8))
    for _ in range(4):
        req = yield from comm.iallreduce(ctx, payload, op=max)
        yield ctx.compute(112.3)
        yield from req.wait(ctx)


#: (collective, engine) -> (end time, SHA-256 of the trace signature)
PINS = {
    ("barrier", SEQ): (26.629, "927e6a37aaa25b4fc2da7675c18b56a9419110b32f421b5be836047199eb90b8"),
    ("barrier", PIOM): (26.949, "94592640af70433d027692f0581408c3a930319e4090f06eb0c2c92f934fb49a"),
    ("bcast", SEQ): (89.2459, "cfd583486dd0143e1bac731a681b6fddd172f133d88057cbec0d898234786a40"),
    ("bcast", PIOM): (90.7259, "0ca6589436e77a5a8c5bfcd62e01239a20d2af265d70a6b63f16b1dcf7be46a9"),
    ("allreduce", SEQ): (45.2477, "d7ae9692aa36fea03da9fd2f26eb398f6975b9b78d0566d4cf698eafc96ee48b"),
    ("allreduce", PIOM): (47.6477, "f8d73c8f03bc181530300add493b2ffb3db556c8bd5e950dd4c36618dcf4f1f6"),
    ("allgather", SEQ): (61.1754, "73b96026e001af3e2ee069de8361424144b383cc69dc74427ddf27259eeb74ef"),
    ("allgather", PIOM): (61.6554, "6d6ed9265125ff4ae5d756371fea3cae92867c87151505a7e9f80790a6b67dbf"),
    ("alltoall", SEQ): (50.875, "56c8d3fb407cc05ef1ed34fdceb517e01c53cb679daabb86380bf5ad348bf766"),
    ("alltoall", PIOM): (52.6586, "06c83df5c607e7456b63065af8131e329251a8d4e5c68c79be88e493c4238f24"),
    ("iallreduce", SEQ): (890.807, "567a367deb691c363c8c95d0504bd825d14968d9753c39db47bcf83416009c9a"),
    ("iallreduce", PIOM): (512.7085, "239156b2fb632abfef126de7a1e817f698052320a5795d41461b9db97732d99e"),
}


@pytest.mark.parametrize("engine", [SEQ, PIOM])
@pytest.mark.parametrize("name", ["barrier", "bcast", "allreduce", "allgather", "alltoall"])
def test_blocking_collective_is_pinned(name, engine):
    assert _run(engine, _blocking(name)) == PINS[(name, engine)]


@pytest.mark.parametrize("engine", [SEQ, PIOM])
def test_iallreduce_with_compute_is_pinned(engine):
    assert _run(engine, _iallreduce) == PINS[("iallreduce", engine)]
