"""NewMadeleine: the communication library of the PM2 suite.

Three-layer architecture (Fig. 3 of the paper):

1. **Interface layer** (:mod:`repro.nmad.interface`) — ``isend`` /
   ``irecv`` / ``swait`` / ``rwait``; the application enqueues packets and
   immediately returns to computing.
2. **Optimizer/scheduler layer** (:mod:`repro.nmad.strategies`) — decides
   how pending packets become wire packets: FIFO, aggregation, multirail
   split.
3. **Transfer layer** (:mod:`repro.nmad.drivers`) — per-technology drivers
   (MX-like NIC, TCP-like NIC, intra-node shared memory) translating packet
   submissions into hardware operations with CPU/wire costs.

Protocols: PIO (very small), eager copy+DMA (≤ rendezvous threshold), and
the zero-copy rendezvous (RTS/CTS/DATA) for large messages (§2.2, §2.3).
Each protocol lives in its own engine module — :mod:`repro.nmad.eager`
and :mod:`repro.nmad.rdv` — which :class:`~repro.nmad.core.NmSession`
calls directly, exchanging the typed wire frames of :mod:`repro.nmad.wire`.
The session's poll loop dispatches each record of its rails' hardware
completion queues straight to those engines; finished requests are
announced to the session's ``on_request_complete`` listeners.

Progression is pluggable: :class:`repro.nmad.progress.SequentialEngine`
reproduces the original non-multithreaded NewMadeleine (progress only on
the application thread), while :class:`repro.pioman.engine.PiomanEngine`
is the paper's contribution.
"""

from .core import Gate, NmSession
from .eager import EagerEngine
from .interface import NmInterface, payload_nbytes
from .progress import EngineBase, SequentialEngine
from .rdv import RdvEngine
from .request import NmRequest, ReqState
from .wire import AckFrame, CtsFrame, DataChunkFrame, EagerFrame, RtsFrame

__all__ = [
    "NmSession",
    "Gate",
    "NmRequest",
    "ReqState",
    "NmInterface",
    "payload_nbytes",
    "EngineBase",
    "SequentialEngine",
    "EagerEngine",
    "RdvEngine",
    "EagerFrame",
    "RtsFrame",
    "CtsFrame",
    "DataChunkFrame",
    "AckFrame",
]
