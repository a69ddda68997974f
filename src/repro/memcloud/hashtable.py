"""Per-trunk open-addressing hash table (Figure 3).

Each memory trunk owns a hash table that maps a 64-bit UID to the cell's
location inside the trunk.  The paper partitions a machine's memory into
many trunks partly because "the performance of a single huge hash table is
suboptimal due to a higher probability of hashing conflicts"; to make that
claim testable, this table is a real open-addressing (linear probing)
implementation that counts probe steps, rather than a Python ``dict``.

Slots live in three numpy arrays — uint64 keys, int64 values, uint8
states — which is the form the bulk data path wants: ``bulk_insert_fresh``
hashes a batch in one pass, ``items()`` is one ``tolist()``, and the
cloud's :class:`~repro.memcloud.directory.SpanDirectory` mirrors
:meth:`TrunkHashTable.columns` to probe a whole read window in
vectorized rounds (no batch is looked up here).  Scalar operations walk
the same arrays through ``memoryview``s: indexing a memoryview returns a
plain Python int at the price of a list index, where indexing the
ndarray would box a numpy scalar for every slot touched.  Both walks
take the same probe sequence, and the directory adds what it walked to
``probe_count`` / ``lookup_count``, so they never depend on which ran.

Keys are UIDs in ``[0, 2**64)``.  Nothing else is ever stored, so a read
of any other integer misses (scalar and bulk alike) and a write of one
raises :class:`~repro.errors.MemoryCloudError`.
"""

from __future__ import annotations

import numpy as np

from ..errors import MemoryCloudError
from ..utils.hashing import mix64, mix64_array

_EMPTY = 0
_LIVE = 1
_TOMBSTONE = 2

_MASK64 = (1 << 64) - 1

# Keys reaching one trunk share the low p bits of mix64(uid) — that is
# how the addressing layer routed them here.  The paper's Figure 3
# therefore "hash[es] the 64-bit key again" inside the trunk; salting
# with an odd constant decorrelates this table's slots from the trunk
# index (without it, every key in a trunk lands in the same few slots).
_TRUNK_SALT = 0x9E3779B97F4A7C15


def _capacity_for(entries: int) -> int:
    """Smallest power-of-two capacity that holds ``entries`` below the
    2/3 load factor (i.e. never triggers an incremental resize)."""
    capacity = 16
    while entries * 3 >= capacity * 2:
        capacity <<= 1
    return capacity


def check_key(key: int) -> None:
    """Refuse to store anything that is not a 64-bit UID."""
    if not 0 <= key <= _MASK64:
        raise MemoryCloudError(f"cell id {key} is outside [0, 2**64)")


def wrap_keys(keys) -> tuple[np.ndarray, np.ndarray | None]:
    """``keys`` modulo 2**64 as a uint64 array, plus the positions of
    the keys outside ``[0, 2**64)`` — ``None`` when there are none.

    The wrapped value is what :func:`~repro.utils.hashing.mix64` hashes,
    so it routes an out-of-range key where the scalar path would; the
    positions let the caller refuse it there.
    """
    array = np.asarray(keys)
    if array.dtype.kind == "u":
        return array.astype(np.uint64, copy=False), None
    if array.dtype.kind == "i":
        wrapped = array.astype(np.uint64)
        if array.size and array.min() < 0:
            return wrapped, np.flatnonzero(array < 0)
        return wrapped, None
    # Python ints too wide (or too mixed) for a native integer dtype.
    ints = [int(key) for key in keys]
    outside = [i for i, key in enumerate(ints) if not 0 <= key <= _MASK64]
    wrapped = np.array([key & _MASK64 for key in ints], dtype=np.uint64)
    return wrapped, np.array(outside, dtype=np.int64) if outside else None


def _home_slots(keys: np.ndarray, mask) -> np.ndarray:
    """First probe slot per uint64 key (``mask``: one, or one per key)."""
    return (mix64_array(keys ^ np.uint64(_TRUNK_SALT))
            & np.uint64(mask)).astype(np.int64)


class TrunkHashTable:
    """Linear-probing hash map from 64-bit UID to a non-negative int.

    Grows at 2/3 load factor.  Tombstones from deletions are compacted at
    resize.  ``probe_count`` / ``lookup_count`` expose average probe length
    for the trunk-count ablation benchmark.
    """

    __slots__ = ("_keys", "_values", "_states", "_key_view", "_value_view",
                 "_state_view", "_mask", "_used", "_tombstones",
                 "probe_count", "lookup_count")

    def __init__(self, initial_capacity: int = 16):
        capacity = 16
        while capacity < initial_capacity:
            capacity <<= 1
        self._allocate(capacity)
        self._used = 0          # live entries
        self._tombstones = 0
        self.probe_count = 0    # total probe steps across lookups
        self.lookup_count = 0   # total lookups (get/set/delete)

    def _allocate(self, capacity: int) -> None:
        self._keys = np.zeros(capacity, dtype=np.uint64)
        self._values = np.zeros(capacity, dtype=np.int64)
        self._states = np.zeros(capacity, dtype=np.uint8)
        self._key_view = memoryview(self._keys)
        self._value_view = memoryview(self._values)
        self._state_view = memoryview(self._states)
        self._mask = capacity - 1

    def __len__(self) -> int:
        return self._used

    @property
    def capacity(self) -> int:
        return self._mask + 1

    @property
    def mean_probe_length(self) -> float:
        """Average probes per lookup; 1.0 means zero conflicts."""
        if not self.lookup_count:
            return 0.0
        return self.probe_count / self.lookup_count

    def _probe(self, key: int) -> tuple[int, int, bool]:
        """``(slot, probe steps, found)`` for ``key``: the slot holding
        it, or the first insertable slot if it is absent."""
        states, keys, mask = self._state_view, self._key_view, self._mask
        index = mix64(key ^ _TRUNK_SALT) & mask
        first_tombstone = -1
        probes = 1
        while (state := states[index]) != _EMPTY:
            if state == _LIVE:
                if keys[index] == key:
                    return index, probes, True
            elif first_tombstone < 0:
                first_tombstone = index
            index = (index + 1) & mask
            probes += 1
        return (index if first_tombstone < 0 else first_tombstone,
                probes, False)

    def _claim(self, key: int, index: int) -> int:
        """Store ``key`` in the insertable slot a missed probe returned;
        the slot it ends up in (a resize moves it)."""
        check_key(key)
        if self._state_view[index] == _TOMBSTONE:
            self._tombstones -= 1
        self._key_view[index] = key
        self._state_view[index] = _LIVE
        self._used += 1
        if (self._used + self._tombstones) * 3 >= self.capacity * 2:
            self._resize()
            # Re-locating the key in the rebuilt table is part of the
            # same logical operation: not counted a second time.
            index = self._probe(key)[0]
        return index

    def get(self, key: int, default: int | None = None) -> int | None:
        # A read never needs the first tombstone, so the probe loop is
        # inlined without it (this is the cloud's scalar read path).
        states, keys, mask = self._state_view, self._key_view, self._mask
        index = mix64(key ^ _TRUNK_SALT) & mask
        probes = 1
        while (state := states[index]) and not (state == _LIVE
                                                and keys[index] == key):
            index = (index + 1) & mask
            probes += 1
        self.lookup_count += 1
        self.probe_count += probes
        return self._value_view[index] if state else default

    def __contains__(self, key: int) -> bool:
        return self.get(key) is not None

    def has_key(self, key: int) -> bool:
        """Membership test that does NOT touch the probe statistics.

        The bulk path uses this to classify a batch before replaying the
        scalar-equivalent (and therefore recorded) operation sequence.
        """
        return self._probe(key)[2]

    def set(self, key: int, value: int) -> None:
        if value < 0:
            raise ValueError("TrunkHashTable values must be non-negative")
        index, probes, found = self._probe(key)
        self.lookup_count += 1
        self.probe_count += probes
        if not found:
            index = self._claim(key, index)
        self._value_view[index] = value

    def insert_fresh(self, key: int, value: int) -> None:
        """Insert a key known to be absent, probing once.

        Records the statistics of the scalar path's get-miss + set pair
        (two lookups, twice the probe steps): between the scalar get and
        set nothing changes, so both walk the identical probe sequence —
        fusing them keeps counters bit-identical while halving the probe
        work on bulk loads.
        """
        if value < 0:
            raise ValueError("TrunkHashTable values must be non-negative")
        index, probes, _ = self._probe(key)
        self.lookup_count += 2
        self.probe_count += 2 * probes
        index = self._claim(key, index)  # may swap the arrays: index first
        self._value_view[index] = value

    def delete(self, key: int) -> bool:
        """Remove ``key``; returns False if it was absent."""
        index, probes, found = self._probe(key)
        self.lookup_count += 1
        self.probe_count += probes
        if found:
            self._state_view[index] = _TOMBSTONE
            self._used -= 1
            self._tombstones += 1
        return found

    def bulk_insert_fresh(self, keys, values) -> bool:
        """Insert a batch of fresh keys with one vectorized hash pass:
        an empty table is laid out whole, an occupied one takes the
        batch's collision-free keys at once and probes for the rest.

        Contents-equivalent to a loop of :meth:`insert_fresh` — same
        key/value set, same ``used``/``lookup_count``, same capacity —
        but free to land collided keys in a different slot order, which
        can change ``probe_count``.  Callers must therefore only use it
        on the pre-sized path, where probe-layout equality is already
        waived.  Returns ``False`` without touching anything when the
        batch might trigger a resize (caller falls back to the loop,
        whose per-insert resize checks are exact).
        """
        n = len(keys)
        if (self._used + self._tombstones + n) * 3 >= self.capacity * 2:
            return False
        if not n:
            return True
        keys_arr, outside = wrap_keys(keys)
        if outside is not None:
            check_key(int(keys[outside[0]]))
        values_arr = np.asarray(values, dtype=np.int64)
        if int(values_arr.min()) < 0:
            raise ValueError("TrunkHashTable values must be non-negative")
        homes = _home_slots(keys_arr, self._mask)
        # One plain sort of ``home << bits | position``: the batch by
        # home slot, in batch order within a slot.
        bits = n.bit_length()
        packed = np.sort((homes << bits) | np.arange(n))
        order, home = packed & ((1 << bits) - 1), packed >> bits
        if not (self._used or self._tombstones):
            # An empty table's layout is a function of the homes alone:
            # inserted in that order, key i lands on max(home_i, slot of
            # key i-1 plus one) — a running maximum of ``home - rank``.
            # Which slots linear probing fills, and its total
            # displacement, do not depend on insertion order.
            rank = np.arange(n)
            final = np.maximum.accumulate(home - rank) + rank
            if final[-1] <= self._mask:     # no run wraps past the end
                self._keys[final] = keys_arr[order]
                self._values[final] = values_arr[order]
                self._states[final] = _LIVE
                self._used = n
                self.lookup_count += 2 * n
                self.probe_count += 2 * int((final - home).sum() + n)
                return True
        # Occupied, or wrapping: the earliest key of the batch per home
        # slot, where that slot is empty, lands there with probe length
        # 1 whatever the order, so one fancy-indexed store is exactly
        # the sequential result; the rest probe one at a time.
        claimant = np.ones(n, dtype=bool)
        claimant[1:] = home[1:] != home[:-1]
        claimants = order[claimant]
        free = claimants[self._states[homes[claimants]] == _EMPTY]
        free_homes = homes[free]
        self._keys[free_homes] = keys_arr[free]
        self._values[free_homes] = values_arr[free]
        self._states[free_homes] = _LIVE
        self._used += len(free)
        self.lookup_count += 2 * len(free)
        self.probe_count += 2 * len(free)
        collided = np.ones(n, dtype=bool)
        collided[free] = False
        for i in np.flatnonzero(collided).tolist():
            self.insert_fresh(int(keys_arr[i]), int(values_arr[i]))
        return True

    def reserve(self, entries: int) -> None:
        """Pre-size the table to hold ``entries`` live keys resize-free.

        Rebuilds (rehashing live entries, dropping tombstones) only when
        the target capacity exceeds the current one; probe statistics are
        untouched, exactly like an internal resize.
        """
        capacity = _capacity_for(entries)
        if capacity > self.capacity:
            self._rebuild(capacity)

    def live_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """``(keys, values)`` of the live slots, in slot order (copies)."""
        live = self._states == _LIVE
        return self._keys[live], self._values[live]

    def items(self):
        """(key, value) pairs in arbitrary (slot) order, as Python ints."""
        keys, values = self.live_columns()
        return zip(keys.tolist(), values.tolist())

    def keys(self):
        return self.live_columns()[0].tolist()

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The slot arrays themselves, ``(keys, values, states)`` — not
        copies: whoever mirrors them holds the owning trunk's mutex."""
        return self._keys, self._values, self._states

    def _resize(self) -> None:
        capacity = self.capacity
        # Grow only if genuinely full of live entries; a tombstone-heavy
        # table is rebuilt at the same size.
        if self._used * 3 >= capacity * 2:
            capacity <<= 1
        self._rebuild(capacity)

    def _rebuild(self, capacity: int) -> None:
        live = self._states == _LIVE
        old_keys, old_values = self._keys[live], self._values[live].tolist()
        self._allocate(capacity)
        self._tombstones = 0
        states, keys, values = (self._state_view, self._key_view,
                                self._value_view)
        mask = self._mask
        # Re-inserted in old slot order, one hash pass for all of them.
        for index, key, value in zip(_home_slots(old_keys, mask).tolist(),
                                     old_keys.tolist(), old_values):
            while states[index]:
                index = (index + 1) & mask
            keys[index] = key
            values[index] = value
            states[index] = _LIVE
