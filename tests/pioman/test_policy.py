"""Unit tests for the engine's detection rule (§3.2): poll while a core
will idle, block on a kernel thread when none will."""

from __future__ import annotations

from repro.config import EngineKind, PiomanConfig, TimingModel
from repro.harness.runner import ClusterRuntime


def _engine(allow_blocking: bool = True):
    timing = TimingModel().replace(pioman=PiomanConfig(allow_blocking_calls=allow_blocking))
    return ClusterRuntime.build(engine=EngineKind.PIOMAN, timing=timing).node(0).engine


def test_idle_cores_poll():
    engine = _engine()
    assert not engine._blocks(idle_after=3)
    assert engine.poll_choices == 1


def test_no_idle_cores_block():
    engine = _engine()
    assert engine._blocks(idle_after=0)
    assert engine.block_choices == 1


def test_blocking_disabled_always_polls():
    engine = _engine(allow_blocking=False)
    assert not engine._blocks(idle_after=0)
    assert engine.block_choices == 0


def test_statistics_accumulate():
    engine = _engine()
    for idle in (0, 0, 5, 1):
        engine._blocks(idle)
    assert engine.block_choices == 2
    assert engine.poll_choices == 2
