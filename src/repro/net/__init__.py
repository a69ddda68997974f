"""Network communication: one-sided message passing over a simulated fabric.

Trinity's network module "provides an efficient, one-sided,
machine-to-machine message passing infrastructure" (Section 2) with
request-response semantics (:class:`MessageRuntime`) and transparent
packing of small messages into shared transfers (Section 4.2), charged
per round by :class:`ParallelRound`.

Because this reproduction runs a whole cluster in one process, the fabric
is a *cost model* rather than sockets: every transfer is delivered
immediately but charged simulated time (latency + bytes/bandwidth +
per-message overhead), and :class:`ParallelRound` aggregates per-machine
compute and communication into the per-round elapsed times that the
benchmarks report.
"""

from .message import Message
from .simnet import ParallelRound, SimClock, SimNetwork
from .runtime import MessageRuntime

__all__ = [
    "Message",
    "SimNetwork",
    "SimClock",
    "ParallelRound",
    "MessageRuntime",
]
