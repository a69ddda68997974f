"""Exception hierarchy for the Trinity reproduction.

Every error raised by the library derives from :class:`TrinityError` so that
callers can catch library failures with a single ``except`` clause while the
concrete subclasses keep failure modes distinguishable.
"""

from __future__ import annotations


class TrinityError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(TrinityError):
    """An invalid configuration value was supplied."""


class DivergenceError(TrinityError, AssertionError):
    """A ``cross_check`` replay disagreed with the path it shadows.

    Raised in one place, :func:`repro.oracle.shadow`, which every
    differential check calls.  An :class:`AssertionError` because it
    reports a bug in the library, never bad input.
    """


# ---------------------------------------------------------------------------
# Memory cloud
# ---------------------------------------------------------------------------


class MemoryCloudError(TrinityError):
    """Base class for memory-cloud failures."""


class CellNotFoundError(MemoryCloudError, KeyError):
    """No cell exists for the requested 64-bit UID."""

    def __init__(self, cell_id: int):
        super().__init__(cell_id)
        self.cell_id = cell_id

    def __str__(self) -> str:  # KeyError quotes its repr; keep it readable
        return f"cell {self.cell_id:#x} not found"


class TrunkFullError(MemoryCloudError):
    """A memory trunk ran out of reserved address space."""


class CellLockedError(MemoryCloudError):
    """A spin lock could not be acquired within the configured budget."""


class StaleSpanError(MemoryCloudError):
    """A zero-copy span outlived a structural change on its trunk.

    Raised by span consumers when the trunk's mutation epoch has moved
    since the spans were fetched: a put/remove/resize/defragmentation may
    have slid cells under the view, so decoding it would read moved
    bytes.  Re-fetch the spans and decode again.
    """

    def __init__(self, trunk_id: int, fetched_epoch: int,
                 current_epoch: int):
        super().__init__(
            f"trunk {trunk_id}: spans fetched at structural epoch "
            f"{fetched_epoch} are stale (trunk is now at epoch "
            f"{current_epoch}); re-fetch before decoding"
        )
        self.trunk_id = trunk_id
        self.fetched_epoch = fetched_epoch
        self.current_epoch = current_epoch


class AddressingError(MemoryCloudError):
    """The addressing table cannot map a trunk to a live machine."""


# ---------------------------------------------------------------------------
# TSL (Trinity Specification Language)
# ---------------------------------------------------------------------------


class TslError(TrinityError):
    """Base class for TSL failures."""


class TslSyntaxError(TslError):
    """The TSL script could not be parsed."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(message)
        self.line = line
        self.column = column

    def __str__(self) -> str:
        base = super().__str__()
        if self.line:
            return f"line {self.line}, col {self.column}: {base}"
        return base


class TslTypeError(TslError):
    """A TSL type is unknown or used inconsistently."""


class SchemaMismatchError(TslError):
    """A blob does not conform to the schema used to read it."""


# ---------------------------------------------------------------------------
# Network / cluster
# ---------------------------------------------------------------------------


class NetworkError(TrinityError):
    """Base class for message-passing failures."""


class ProtocolError(NetworkError):
    """A message violates its declared protocol."""


class MachineDownError(NetworkError):
    """The destination machine is not alive."""

    def __init__(self, machine_id: int):
        super().__init__(f"machine {machine_id} is down")
        self.machine_id = machine_id


class ClusterError(TrinityError):
    """Base class for cluster-management failures."""


class LeaderElectionError(ClusterError):
    """No leader could be established."""


class RecoveryError(ClusterError):
    """Data for a failed machine could not be recovered from TFS."""


# ---------------------------------------------------------------------------
# TFS
# ---------------------------------------------------------------------------


class TfsError(TrinityError):
    """Base class for Trinity File System failures."""


class BlockNotFoundError(TfsError, KeyError):
    """A TFS block (or file) is missing from every replica."""

    def __init__(self, name: str):
        super().__init__(name)
        self.name = name

    def __str__(self) -> str:
        return f"TFS object {self.name!r} not found"


# ---------------------------------------------------------------------------
# Computation
# ---------------------------------------------------------------------------


class ComputeError(TrinityError):
    """Base class for computation-engine failures."""


class SuperstepError(ComputeError):
    """A vertex program raised during a BSP superstep."""


class QueryError(TrinityError):
    """An online query was malformed or cannot be executed."""
