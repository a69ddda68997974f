"""The message-passing runtime: one-sided request/response dispatch.

Implements the communication semantics of Sections 2 and 4.2:

* **One-sided**: a component sends to a machine without any prior
  rendezvous; the receiver's registered protocol handler runs on arrival
  (the paper contrasts this with MPI's two-sided paradigm).
* **Synchronous protocols** (`Type: Syn`) return the handler's response to
  the caller, charging a full round trip.  The cluster's request paths
  are all synchronous; Section 4.2's packing of many small messages
  into one physical transfer is charged per round by
  :class:`~repro.net.simnet.ParallelRound` when
  ``NetworkParams.packing_enabled`` is set.
* Handlers are registered per (machine, protocol), mirroring the generated
  ``EchoHandler`` pattern: users implement the algorithm logic "as if
  implementing a local method".

If a :class:`~repro.tsl.compiler.CompiledSchema` is supplied, payloads are
encoded/decoded through the protocol's TSL message structs, so wire sizes
are the real blob sizes.
"""

from __future__ import annotations

from typing import Callable

from ..errors import MachineDownError, ProtocolError
from .message import Message
from .simnet import SimNetwork

Handler = Callable[[Message, object], object]


class MessageRuntime:
    """Dispatches messages between simulated cluster components."""

    def __init__(self, network: SimNetwork | None = None, schema=None):
        self.network = network or SimNetwork()
        self.schema = schema
        self._handlers: dict[tuple[int, str], Handler] = {}
        self._down: set[int] = set()
        self.delivered = 0

    # -- membership -----------------------------------------------------------

    def fail_machine(self, machine_id: int) -> None:
        """Mark a machine dead: sends to it raise MachineDownError."""
        self._down.add(machine_id)

    def recover_machine(self, machine_id: int) -> None:
        self._down.discard(machine_id)

    def is_alive(self, machine_id: int) -> bool:
        return machine_id not in self._down

    # -- handler registry ---------------------------------------------------

    def register_handler(self, machine_id: int, protocol: str,
                         handler: Handler) -> None:
        """Install the message handler for ``protocol`` on one machine."""
        self._handlers[(machine_id, protocol)] = handler

    # -- encoding ------------------------------------------------------------

    def _encode(self, protocol: str, payload, request: bool) -> bytes:
        if self.schema is not None and protocol in self.schema.protocols:
            spec = self.schema.protocol(protocol)
            struct_type = spec.request if request else spec.response
            if struct_type is None:
                if payload not in (None, b"", {}):
                    raise ProtocolError(
                        f"{protocol}: protocol declares void "
                        f"{'request' if request else 'response'}"
                    )
                return b""
            if isinstance(payload, dict):
                return struct_type.encode(payload)
        if isinstance(payload, bytes):
            return payload
        if payload is None:
            return b""
        raise ProtocolError(
            f"{protocol}: cannot encode payload of type "
            f"{type(payload).__name__} without a schema"
        )

    def _decode(self, protocol: str, blob: bytes, request: bool):
        if self.schema is not None and protocol in self.schema.protocols:
            spec = self.schema.protocol(protocol)
            struct_type = spec.request if request else spec.response
            if struct_type is None:
                return None
            value, _ = struct_type.decode(blob, 0)
            return value
        return blob

    # -- sending ---------------------------------------------------------

    def send_sync(self, src: int, dst: int, protocol: str, payload=None):
        """Synchronous request/response; returns the decoded response.

        Charges request transfer + handler dispatch + response transfer on
        the simulated clock.
        """
        self._check_alive(dst)
        start = self.network.clock.now
        request_blob = self._encode(protocol, payload, request=True)
        message = Message(src, dst, protocol, request_blob)
        if self.network.faults is not None and src != dst:
            # Charge injected drops (retransmit + exponential backoff),
            # duplicates (suppressed by correlation id, wire cost paid)
            # and delays before the successful attempt below; raises
            # MachineDownError when the retry budget is exhausted.
            self.network.faults.charge_rpc_faults(
                self.network, src, dst, message.size
            )
        self.network.clock.advance(
            self.network.transfer(src, dst, message.size)
        )
        response_payload = self._dispatch(message)
        response_blob = self._encode(protocol, response_payload, request=False)
        response = message.reply(response_blob)
        self.network.clock.advance(
            self.network.transfer(dst, src, response.size)
        )
        # Per-slave request latency in simulated seconds (round trip +
        # handler), the series the cluster layer reports per machine.
        self.network.obs.histogram(
            "cluster.request.seconds", machine=dst, protocol=protocol,
        ).observe(self.network.clock.now - start)
        return self._decode(protocol, response_blob, request=False)

    # -- dispatch ------------------------------------------------------------

    def _dispatch(self, message: Message):
        handler = self._handlers.get((message.dst, message.protocol))
        if handler is None:
            raise ProtocolError(
                f"machine {message.dst} has no handler for protocol "
                f"{message.protocol!r}"
            )
        decoded = self._decode(message.protocol, message.payload, request=True)
        self.delivered += 1
        return handler(message, decoded)

    def _check_alive(self, machine_id: int) -> None:
        if machine_id in self._down:
            raise MachineDownError(machine_id)
