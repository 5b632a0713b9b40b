"""Layer map of ``src/repro`` and wall-clock attribution of a cProfile run.

Every module under ``src/repro`` belongs to exactly one layer, chosen by
its first path component below ``repro/`` (``repro/nmad/drivers/mx.py`` →
``nmad``; ``repro/cli.py`` → ``cli`` → ``harness``).

Attribution works on the ``pstats`` table of one profiled run:

* a function defined in ``src/repro`` charges its self time to its module;
* the benchmark's own code (the ping-pong and storm thread bodies, the
  driving loop) plays the application and charges ``harness``;
* any other function -- builtins, the stdlib, numpy -- is charged to
  whoever called it, split over its pstats caller edges by the cumulative
  time of each edge. A caller that is itself foreign is resolved the same
  way, so a builtin called by ``heapq`` called by the kernel lands in
  ``sim``.

A call into a layer's function from a function of another layer is a
boundary call; a foreign caller counts as the layer it is mostly charged
to.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path
from typing import Any, Optional

LAYERS: dict[str, tuple[str, ...]] = {
    "sim": ("sim",),
    "marcel": ("marcel",),
    "pioman": ("pioman",),
    "nmad": ("nmad",),
    "network": ("network",),
    "faults": ("faults",),
    "obs": ("obs",),
    "mpi": ("mpi",),
    "harness": (
        "harness", "apps", "topology", "config", "units", "errors", "cli",
        "__init__", "__main__", "_version",
    ),
}

#: modules and packages reported on their own, as ``<name>.share``
SUBMODULES = (
    "sim.kernel", "sim.queues", "sim.tracing",
    "marcel.scheduler", "marcel.runqueue", "marcel.tasklet",
    "nmad.core", "nmad.eager", "nmad.rdv", "nmad.progress", "nmad.drivers",
    "nmad.reliability", "nmad.strategies", "nmad.wire",
    "network.nic", "network.fabric", "network.interconnect",
    "pioman.engine",
    "faults.inject",
)

#: pseudo-module for the benchmark's own code and for time with no caller
APPLICATION = "repro.harness"

_SRC = Path(__file__).resolve().parents[2] / "src"
_BENCH = Path(__file__).resolve().parent


def layers_of(module: str) -> list[str]:
    """Every layer claiming ``module`` (dotted, e.g. ``repro.nmad.core``)."""
    parts = module.split(".")
    top = parts[1] if len(parts) > 1 else "__init__"
    return [layer for layer, tops in LAYERS.items() if top in tops]


def layer_of(module: str) -> str:
    (layer,) = layers_of(module)
    return layer


def module_of(filename: str) -> Optional[str]:
    """Dotted module of a ``src/repro`` file, :data:`APPLICATION` for the
    benchmark's own files, None for anything else."""
    if not filename.endswith(".py"):
        return None
    path = Path(filename).resolve()
    if path.is_relative_to(_SRC / "repro"):
        parts = list(path.relative_to(_SRC).with_suffix("").parts)
        if parts[-1] == "__init__" and len(parts) > 1:
            parts.pop()
        return ".".join(parts)
    if path.is_relative_to(_BENCH):
        return APPLICATION
    return None


class Attribution:
    """Self time per module and boundary calls per layer of one profile."""

    def __init__(self, stats: dict[Any, tuple]) -> None:
        self._stats = stats
        self._owner = {func: module_of(func[0]) for func in stats}
        self._memo: dict[Any, dict[str, float]] = {}
        self.self_s: dict[str, float] = defaultdict(float)
        for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
            for module, frac in self._charge(func, set()).items():
                self.self_s[module] += tt * frac
        self.calls_in: dict[str, int] = defaultdict(int)
        for func, (_cc, _nc, _tt, _ct, callers) in stats.items():
            owner = self._owner[func]
            if owner is None:
                continue
            callee = layer_of(owner)
            for caller, (nc, _ccc, _ctt, _cct) in callers.items():
                if self._layer(caller) != callee:
                    self.calls_in[callee] += nc

    @property
    def total_s(self) -> float:
        """Profiled self time of every function, before attribution."""
        return sum(entry[2] for entry in self._stats.values())

    def by_layer(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for module, seconds in self.self_s.items():
            out[layer_of(module)] += seconds
        return out

    def by_submodule(self) -> dict[str, float]:
        out = dict.fromkeys(SUBMODULES, 0.0)
        for module, seconds in self.self_s.items():
            for sub in SUBMODULES:
                prefix = f"repro.{sub}"
                if module == prefix or module.startswith(prefix + "."):
                    out[sub] += seconds
        return out

    def _charge(self, func: Any, active: set) -> dict[str, float]:
        """How ``func``'s cost splits over modules (fractions summing to 1)."""
        owner = self._owner.get(func)
        if owner is not None:
            return {owner: 1.0}
        if func in self._memo:
            return self._memo[func]
        callers = self._stats[func][4] if func in self._stats else {}
        # weight by cumulative time, falling back to call counts for edges
        # too short for the timer; callers on the current path are a cycle
        edges = [(c, e[3]) for c, e in callers.items() if c not in active]
        if not any(w for _, w in edges):
            edges = [(c, e[0]) for c, e in callers.items() if c not in active]
        total = sum(w for _, w in edges)
        if not total:
            return {APPLICATION: 1.0}
        active.add(func)
        out: dict[str, float] = defaultdict(float)
        for caller, weight in edges:
            for module, frac in self._charge(caller, active).items():
                out[module] += frac * weight / total
        active.discard(func)
        self._memo[func] = out
        return out

    def _layer(self, func: Any) -> str:
        shares: dict[str, float] = defaultdict(float)
        for module, frac in self._charge(func, set()).items():
            shares[layer_of(module)] += frac
        return max(shares, key=shares.__getitem__)
