"""Trace-compatibility guard for the layered protocol-engine refactor.

The refactor (typed wire schema, per-protocol handler modules, unified
completion queue) must be *invisible* in simulated behaviour: per-seed
trace digests of fig5/fig6-shaped runs — with faults on and off — are
pinned here as golden values captured from the pre-refactor tree, and a
hypothesis property asserts the digest is a pure function of the seed
(rebuilding the cluster, re-running, or consuming completions through
``wait_any``'s queue path instead of per-request waits must not move a
single event).

Regenerate goldens (only when a behaviour change is *intended*)::

    PYTHONPATH=src python tests/property/test_prop_trace_compat.py
"""

from __future__ import annotations

import hashlib
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.network.message as _message
import repro.nmad.request as _request
from repro.config import EngineKind, KernelConfig, TimingModel
from repro.faults import FaultAction, FaultPlan, FaultRule
from repro.harness.executors import ExecutionConfig
from repro.harness.experiments import experiment_table1
from repro.harness.runner import ClusterRuntime
from repro.network.message import PacketKind
from repro.sim.tracing import Tracer
from repro.units import KiB

pytestmark = pytest.mark.rdv


def _fresh_counters() -> None:
    """Rewind the process-global id counters before a digest run.

    Trace labels embed request ids (``req#N``), which come from a
    process-wide counter — without the rewind a digest would depend on how
    many requests *earlier tests* created, not just on the seed.
    """
    _request._req_ids = itertools.count(1)
    _message._packet_ids = itertools.count(1)

#: mixed PIO / eager / rendezvous sizes (fig5 smalls + fig6 rdv points)
_SIZES = (64, 256, KiB(4), KiB(16), KiB(64), KiB(128))


def _fault_plan(seed: int) -> FaultPlan:
    """Deterministic lossy plan touching every recovery path."""
    return FaultPlan(
        rules=[
            FaultRule(FaultAction.DROP, every_nth=7),
            FaultRule(FaultAction.CORRUPT, every_nth=11, kinds=(PacketKind.ACK,)),
            FaultRule(FaultAction.DUPLICATE, every_nth=13),
        ],
        seed=seed,
    )


def trace_digest(
    engine: str,
    seed: int,
    faults: bool,
    compute_us: float = 20.0,
    waitany: bool = False,
    categories: "tuple[str, ...] | None" = None,
    timing: "TimingModel | None" = None,
    topology: "str | None" = None,
) -> str:
    """Digest of one fig5/fig6-shaped seeded run.

    A sender streams mixed-size messages (PIO, eager, rendezvous) with
    overlapped compute — the fig5/fig6 workload shape — while the receiver
    either waits per-request or drains a ``wait_any`` set (the completion-
    queue consumption path). The blake2b digest covers the final virtual
    time and the full trace signature, so any reordering, retiming, or
    added/removed event changes it.
    """
    _fresh_counters()
    tracer = Tracer()
    rt = ClusterRuntime.build(
        engine=engine,
        tracer=tracer,
        seed=seed,
        timing=timing,
        topology=topology,
        faults=_fault_plan(seed) if faults else None,
    )

    def sender(ctx):
        nm = ctx.env["nm"]
        for i, size in enumerate(_SIZES):
            req = yield from nm.isend(ctx, 1, i, size)
            yield ctx.compute(compute_us)
            yield from nm.swait(ctx, req)
        yield from nm.drain(ctx)

    def receiver(ctx):
        nm = ctx.env["nm"]
        reqs = []
        for i, size in enumerate(_SIZES):
            r = yield from nm.irecv(ctx, 0, i, size)
            reqs.append(r)
        if waitany:
            pending = list(reqs)
            while pending:
                idx, _req = yield from nm.wait_any(ctx, pending)
                pending.pop(idx)
        else:
            for r in reqs:
                yield from nm.rwait(ctx, r)
        yield from nm.drain(ctx)

    rt.spawn(0, sender, name="S")
    rt.spawn(1, receiver, name="R")
    end = rt.run()
    sig = tracer.signature()
    if categories is not None:
        sig = tuple(r for r in sig if r[1].startswith(categories))
    payload = repr((end, sig)).encode()
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


#: (engine, seed, faults) -> digest, captured on the pre-refactor tree.
#: These pin the dispatch-table and completion-queue refactor to the exact
#: event stream of the monolithic NmSession implementation.
GOLDEN: dict[tuple[str, int, bool], str] = {
    ("sequential", 0, False): "8dc605df679f76f3eb8d484991fca3d9",
    ("sequential", 0, True): "a2a0705fa652cda91fcdadb64ad4dbc5",
    ("sequential", 1, False): "8dc605df679f76f3eb8d484991fca3d9",
    ("sequential", 1, True): "a2a0705fa652cda91fcdadb64ad4dbc5",
    ("sequential", 2, False): "8dc605df679f76f3eb8d484991fca3d9",
    ("sequential", 2, True): "a2a0705fa652cda91fcdadb64ad4dbc5",
    ("pioman", 0, False): "5e0d8358d78c2cec53b5f12aa35dde47",
    ("pioman", 0, True): "a9e2734984d42d25087c592704ab38ce",
    ("pioman", 1, False): "5e0d8358d78c2cec53b5f12aa35dde47",
    ("pioman", 1, True): "a9e2734984d42d25087c592704ab38ce",
    ("pioman", 2, False): "5e0d8358d78c2cec53b5f12aa35dde47",
    ("pioman", 2, True): "a9e2734984d42d25087c592704ab38ce",
}


_CASES = [
    (engine, seed, faults)
    for engine in (EngineKind.SEQUENTIAL, EngineKind.PIOMAN)
    for seed in (0, 1, 2)
    for faults in (False, True)
]


@pytest.mark.parametrize("engine,seed,faults", _CASES)
def test_golden_trace_digests(engine: str, seed: int, faults: bool) -> None:
    """Per-seed digests are byte-identical to the pre-refactor capture."""
    key = (engine, seed, faults)
    assert GOLDEN, "golden digests missing - regenerate with the module docstring command"
    assert trace_digest(engine, seed, faults) == GOLDEN[key]


@pytest.mark.parametrize("engine,seed,faults", _CASES)
def test_heap_oracle_matches_golden(engine: str, seed: int, faults: bool) -> None:
    """The heap queue — run by the kernel's generic loop rather than the
    calendar fast loop the goldens were captured on — reproduces every
    golden digest: the fast loop is a wall-clock optimisation only."""
    heap = TimingModel().replace(kernel=KernelConfig(queue="heap"))
    assert trace_digest(engine, seed, faults, timing=heap) == GOLDEN[(engine, seed, faults)]


def table1_digest() -> str:
    """SHA-256 of the two-iteration Table 1 result, run serially."""
    _fresh_counters()
    result = experiment_table1(iterations=2, execution=ExecutionConfig.serial())
    blob = json.dumps(result.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


#: The Table 1 convolution is the one golden with several threads per
#: node contending for cores, so it pins the eager submit model where the
#: one-sender/one-receiver traces above cannot: an event-per-action submit
#: chain retimes its 16-thread offloading run.
TABLE1_GOLDEN = "3c880114ced062e0987f4e4ceb74cc98300b40fb22f0a58140fd18cfc964f799"


def test_table1_digest_matches_golden() -> None:
    assert table1_digest() == TABLE1_GOLDEN


@pytest.mark.topo
@pytest.mark.parametrize("engine,seed,faults", _CASES)
def test_explicit_direct_topology_matches_golden(
    engine: str, seed: int, faults: bool
) -> None:
    """``topology="direct"`` must reproduce the goldens byte-for-byte: the
    pluggable interconnect layer's default model prices delivery with the
    exact pre-refactor floating-point operation order (including the
    fault-injected duplicate trailing rule), so extracting the model is
    invisible across the whole trace suite."""
    digest = trace_digest(engine, seed, faults, topology="direct")
    assert digest == GOLDEN[(engine, seed, faults)]


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    engine=st.sampled_from([EngineKind.SEQUENTIAL, EngineKind.PIOMAN]),
    faults=st.booleans(),
)
def test_digest_is_pure_function_of_seed(seed: int, engine: str, faults: bool) -> None:
    """Rebuild + re-run must reproduce the digest exactly (faults on or
    off): the refactored dispatch/completion machinery holds the repo-wide
    determinism contract for arbitrary seeds, not just the pinned ones."""
    assert trace_digest(engine, seed, faults) == trace_digest(engine, seed, faults)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), faults=st.booleans())
def test_waitany_path_matches_perreq_waits(seed: int, faults: bool) -> None:
    """Consuming completions through ``wait_any`` (the completion-queue
    subscription path) must leave the protocol behaviour untouched: same
    final virtual time, same complete ``nmad.*`` event stream. (The park
    micro-schedule may differ — ``wait_any``'s detection loop runs one
    extra empty poll before sleeping, exactly as the pre-refactor rescan
    loop did — so scheduler events are excluded from the comparison.)"""
    a = trace_digest(EngineKind.SEQUENTIAL, seed, faults, waitany=False, categories=("nmad.", "rel."))
    b = trace_digest(EngineKind.SEQUENTIAL, seed, faults, waitany=True, categories=("nmad.", "rel."))
    assert a == b


if __name__ == "__main__":
    entries = []
    for engine, seed, faults in _CASES:
        d = trace_digest(engine, seed, faults)
        entries.append(f"    ({engine!r}, {seed}, {faults}): {d!r},")
        print(f"({engine!r}, {seed}, {faults}): {d!r}")
    print("\nGOLDEN = {")
    print("\n".join(entries))
    print("}")
    print(f"\nTABLE1_GOLDEN = {table1_digest()!r}")
