"""Coverage for small helpers and validation paths across modules."""

from __future__ import annotations

import pytest

from repro.errors import SchedulerError
from repro.marcel.effects import Compute, Sleep
from repro.units import bytes_per_us, us


class TestEffectValidation:
    def test_negative_compute_rejected(self):
        with pytest.raises(SchedulerError):
            Compute(-1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchedulerError):
            Compute(1.0, kind="leisure")

    def test_negative_sleep_rejected(self):
        with pytest.raises(SchedulerError):
            Sleep(-0.1)

    def test_service_kind_accepted(self):
        assert Compute(1.0, kind="service").kind == "service"


class TestUnitAliases:
    def test_identity_helpers(self):
        assert us(5) == 5.0
        assert bytes_per_us(1074.0) == 1074.0


class TestEngineBaseAbstract:
    def test_abstract_methods_raise(self, sim, node8):
        from repro.marcel.scheduler import MarcelScheduler
        from repro.nmad.core import NmSession
        from repro.nmad.progress import EngineBase

        session = NmSession(sim, MarcelScheduler(sim, node8), node8)
        engine = EngineBase(session)
        for gen in (
            engine.isend(None, 1, 0, 10),
            engine.irecv(None, 0, 0, 10),
            engine.wait(None, None),
        ):
            with pytest.raises(NotImplementedError):
                next(gen)

    def test_progress_step_default_is_shared_not_shadowed(self, sim, node8):
        """PiomanEngine must not duplicate the base inline-progression
        path: it customises the label/cap hooks only (regression for a
        shadowing copy that drifted from the base implementation)."""
        from repro.nmad.progress import EngineBase
        from repro.pioman.engine import PiomanEngine

        assert PiomanEngine._progress_step is EngineBase._progress_step
        assert PiomanEngine.step_label == "piom.step"
        assert EngineBase.step_label == "nm.step"

    def test_progress_step_idle_session_returns_false(self, sim, node8):
        """The default step skips (and charges nothing) on a quiet session."""
        from repro.marcel.scheduler import MarcelScheduler
        from repro.nmad.core import NmSession
        from repro.nmad.progress import EngineBase

        session = NmSession(sim, MarcelScheduler(sim, node8), node8)
        engine = EngineBase(session)
        gen = engine._progress_step(None)  # tctx unused before has_work gate
        with pytest.raises(StopIteration) as stop:
            next(gen)
        assert stop.value.value is False


class TestReportEdge:
    def test_ascii_plot_linear_x(self):
        from repro.harness.report import ascii_plot

        out = ascii_plot([1, 2, 3], {"s": [1.0, 2.0, 3.0]}, logx=False)
        assert "s" in out

    def test_interface_engine_session_mismatch(self, sim, node8):
        from repro.errors import RequestError
        from repro.marcel.scheduler import MarcelScheduler
        from repro.nmad.core import NmSession
        from repro.nmad.interface import NmInterface
        from repro.nmad.progress import SequentialEngine

        sched = MarcelScheduler(sim, node8)
        s1 = NmSession(sim, sched, node8)
        s2 = NmSession(sim, sched, node8)
        engine = SequentialEngine(s1)
        with pytest.raises(RequestError, match="different session"):
            NmInterface(s2, engine)


class TestVersionMetadata:
    def test_version_importable(self):
        import repro

        assert repro.__version__
        from repro._version import __version__

        assert __version__ == repro.__version__

    def test_unknown_toplevel_attribute(self):
        import repro

        with pytest.raises(AttributeError):
            repro.warp_drive  # noqa: B018
