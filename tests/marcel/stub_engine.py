"""A stand-in for the PIOMan engine on a bare Marcel scheduler."""

from __future__ import annotations

from types import SimpleNamespace


def stub_engine(scheduler, *, idle=None, tick=None, switch=None, wants=None):
    """Point ``scheduler.pioman`` at an object answering the four trigger
    calls from plain callables: ``idle(core) -> (cpu_us, repoll)``,
    ``tick(core) -> cpu_us``, ``switch(core) -> cpu_us`` and
    ``wants(core) -> bool``. A trigger left out does nothing; without
    ``wants`` every tick is wanted when ``tick`` is given, none otherwise."""
    if wants is None:
        wanted = tick is not None
        wants = lambda core: wanted  # noqa: E731
    engine = SimpleNamespace(
        on_idle=idle or (lambda core: (0.0, None)),
        on_tick=tick or (lambda core: 0.0),
        on_switch=switch or (lambda core: 0.0),
        tick_wants=wants,
    )
    scheduler.pioman = engine
    return engine
