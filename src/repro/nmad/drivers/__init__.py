"""Transfer-layer drivers (the bottom layer of Fig. 3).

A driver binds the protocol engine to one hardware channel and charges the
correct CPU costs for each operation through an
:class:`repro.nmad.drivers.base.ExecContext`.
"""

from .base import Driver
from .ib import IbDriver
from .mx import MxDriver
from .shm import ShmDriver
from .tcp import TcpDriver

__all__ = ["Driver", "MxDriver", "IbDriver", "ShmDriver", "TcpDriver"]
