"""A stand-in for the PIOMan engine on a bare Marcel scheduler."""

from __future__ import annotations

from types import SimpleNamespace


def stub_engine(scheduler, *, idle=None, tick=None, switch=None, wants=None, detect=None):
    """Point ``scheduler.pioman`` at an object answering the trigger calls
    from plain callables: ``idle(core) -> (cpu_us, repoll)``,
    ``tick(core) -> cpu_us``, ``switch(core) -> cpu_us``,
    ``wants(core) -> bool`` and ``detect(core) -> cpu_us``. A trigger left
    out does nothing; without ``wants`` every tick is wanted when ``tick``
    is given, none otherwise.

    ``engine.fire()`` makes the kernel detection due as PIOMan's
    ``_fire_detection`` does: it sets ``detect_pending`` and, on False →
    True, re-arms every core's ticks and kicks a core that is not active.
    While it is due, every tick is wanted; the scheduler's
    ``run_detection(core, after)`` clears it and calls ``detect``."""
    if wants is None:
        wanted = tick is not None
        wants = lambda core: wanted  # noqa: E731
    detect = detect or (lambda core: 0.0)

    def fire():
        if not engine.detect_pending:
            engine.detect_pending = True
            scheduler.resume_ticks()
            scheduler.kick_idle()

    def run_detection(core, after):
        engine.detect_pending = False
        return detect(core)

    engine = SimpleNamespace(
        on_idle=idle or (lambda core: (0.0, None)),
        on_tick=tick or (lambda core: 0.0),
        on_switch=switch or (lambda core: 0.0),
        tick_wants=lambda core: engine.detect_pending or wants(core),
        detect_pending=False,
        run_detection=run_detection,
        fire=fire,
    )
    scheduler.pioman = engine
    return engine
