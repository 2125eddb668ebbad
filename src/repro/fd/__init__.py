"""Failure detectors.

``HeartbeatFd`` is the realistic adaptive ◊S detector of the paper's FD
module; ``OracleFd`` is a simulation-only instrument for tests.  Both
provide the kernel service ``fd``.
"""

from .base import FdModuleBase
from .heartbeat import HeartbeatFd
from .oracle import OracleFd

__all__ = ["FdModuleBase", "HeartbeatFd", "OracleFd"]
