"""repro — reproduction of *"A multithreaded communication engine for
multicore architectures"* (Trahay, Brunet, Denis, Namyst — CAC/IPDPS 2008).

The package implements the PM2 software suite of the paper on top of a
deterministic discrete-event simulation of a multicore cluster:

* :mod:`repro.sim` — discrete-event kernel (virtual µs clock);
* :mod:`repro.topology` — machine model (the paper's dual quad-core Xeon
  testbed and generic shapes);
* :mod:`repro.marcel` — two-level thread scheduler with scheduling
  triggers;
* :mod:`repro.network` — NIC/wire models (MX-like, TCP-like, shared memory);
* :mod:`repro.nmad` — the NewMadeleine communication library (eager +
  rendezvous protocols, optimizer strategies);
* :mod:`repro.pioman` — **the paper's contribution**: the event-driven
  multithreaded communication engine;
* :mod:`repro.mpi` — an mpi4py-flavoured layer on top;
* :mod:`repro.apps` / :mod:`repro.harness` — the paper's benchmarks and the
  experiment harness regenerating every figure and table.
"""

from ._version import __version__
from .config import (
    EngineKind,
    HostModel,
    MarcelConfig,
    NicModel,
    PiomanConfig,
    ShmModel,
    TimingModel,
)
from .errors import ReproError

__all__ = [
    "__version__",
    "ReproError",
    "EngineKind",
    "TimingModel",
    "HostModel",
    "NicModel",
    "ShmModel",
    "MarcelConfig",
    "PiomanConfig",
    # lazy (see __getattr__): heavyweight entry points
    "ClusterRuntime",
    "MpiWorld",
]

_LAZY = {
    "ClusterRuntime": ("repro.harness.runner", "ClusterRuntime"),
    "MpiWorld": ("repro.mpi", "MpiWorld"),
}


def __getattr__(name: str):
    """Lazy top-level conveniences: ``from repro import ClusterRuntime``.

    Loaded on demand so that ``import repro`` stays light and cycle-free.
    """
    if name in _LAZY:
        import importlib

        module_name, attr = _LAZY[name]
        return getattr(importlib.import_module(module_name), attr)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
