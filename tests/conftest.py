"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.config import EngineKind, TimingModel
from repro.harness.runner import ClusterRuntime
from repro.marcel.scheduler import MarcelScheduler
from repro.sim.kernel import Simulator
from repro.topology.builder import build_node, paper_testbed


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def node8():
    """One 8-core node (half the paper testbed)."""
    return build_node(0, sockets=2, cores_per_socket=4)


@pytest.fixture
def scheduler(sim, node8) -> MarcelScheduler:
    return MarcelScheduler(sim, node8)


@pytest.fixture
def testbed():
    return paper_testbed()


@pytest.fixture(params=[EngineKind.SEQUENTIAL, EngineKind.PIOMAN], ids=["seq", "piom"])
def engine_kind(request) -> str:
    """Parametrize a test over both progression engines."""
    return request.param


@pytest.fixture
def runtime(engine_kind) -> ClusterRuntime:
    """A freshly built 2-node paper testbed with the parametrized engine."""
    return ClusterRuntime.build(engine=engine_kind)


@pytest.fixture
def pioman_runtime() -> ClusterRuntime:
    return ClusterRuntime.build(engine=EngineKind.PIOMAN)


@pytest.fixture
def sequential_runtime() -> ClusterRuntime:
    return ClusterRuntime.build(engine=EngineKind.SEQUENTIAL)


@pytest.fixture
def timing() -> TimingModel:
    return TimingModel()
