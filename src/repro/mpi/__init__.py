"""An mpi4py-flavoured MPI layer over NewMadeleine.

The paper's context is hybrid MPI+threads ("one MPI process … per node …
comprised of several threads"); its conclusion announces integration into
MPICH2. This package provides that programming model on the simulator:
rank = node, any Marcel thread of the node may call the communicator
(thread-safety comes from the underlying engine — the baseline serializes
on its library-wide lock, PIOMan runs event-granular).

Naming follows mpi4py's lowercase object API (``isend``/``irecv``/
``send``/``recv``/``bcast``/…), per the project's HPC Python guides. All
calls are generators for use inside Marcel thread bodies::

    def body(ctx):
        comm = ctx.env["comm"]
        data = yield from comm.bcast(ctx, {"a": 7} if comm.rank == 0 else None, root=0)
"""

from .comm import ANY_SOURCE, ANY_TAG, MAX_USER_TAG, Communicator, MpiRequest, MpiWorld
from .nbc import NbcRequest, Schedule

__all__ = [
    "MpiWorld",
    "Communicator",
    "MpiRequest",
    "NbcRequest",
    "Schedule",
    "ANY_SOURCE",
    "ANY_TAG",
    "MAX_USER_TAG",
]
