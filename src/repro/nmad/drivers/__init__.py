"""Transfer-layer drivers (the bottom layer of Fig. 3).

A driver binds the protocol engine to one hardware channel and charges the
correct CPU costs for each operation through an
:class:`repro.nmad.drivers.base.ExecContext`. :class:`NicDriver` serves
every NIC model (MX, InfiniBand); :class:`TcpDriver` overrides only its
socket costs; :class:`ShmDriver` is intra-node shared memory.
"""

from .base import Driver
from .nic import NicDriver
from .shm import ShmDriver
from .tcp import TcpDriver

__all__ = ["Driver", "NicDriver", "ShmDriver", "TcpDriver"]
