"""The paged tier's page table, one page at a time.

This is the ``_touch_page → _evict_to_budget → _evict`` chain
``repro.memcloud.storage.PagedStorage`` ran per page before it walked a
whole batch's pages at once: kept here, as a pure model over ``(order,
dirty, pins, budget)``, as the reference the batch walk is held to —
same LRU order, same dirty set, same pins, same victims in the same
order, same totals.  It touches no bytes and makes no system call.
"""

from __future__ import annotations


class PageTableModel:

    def __init__(self, page_size: int, budget: int):
        self.page = page_size
        self.budget = budget
        self.order: dict[int, None] = {}    # LRU: key order is recency
        self.dirty: set[int] = set()
        self.pins: dict[int, int] = {}
        self.victims: list[int] = []        # every eviction, in order
        self.faults = 0
        self.writebacks = 0

    @property
    def evictions(self) -> int:
        return len(self.victims)

    # -- the per-page chain -------------------------------------------------

    def _touch_page(self, page: int, dirty: bool) -> None:
        table = self.order
        if page in table:
            del table[page]
            table[page] = None
        else:
            table[page] = None
            self.faults += 1
            self._evict_to_budget()
        if dirty:
            self.dirty.add(page)

    def _touch_range(self, start: int, end: int, dirty: bool) -> None:
        if end <= start:
            return
        for page in range(start // self.page, (end - 1) // self.page + 1):
            self._touch_page(page, dirty)

    def _evict_to_budget(self) -> None:
        table = self.order
        while len(table) > self.budget:
            victim = next((p for p in table if p not in self.pins), None)
            if victim is None:
                return      # everything resident is pinned: overrun
            self._evict(victim)

    def _evict(self, page: int) -> None:
        if page in self.dirty:
            self.writebacks += 1
            self.dirty.discard(page)
        del self.order[page]
        self.victims.append(page)

    def span_pages(self, starts, limits) -> list[int]:
        pages: set[int] = set()
        for start, limit in zip(starts, limits):
            if limit > start:
                pages.update(range(start // self.page,
                                   (limit - 1) // self.page + 1))
        return sorted(pages)

    # -- the storage operations ---------------------------------------------

    def read(self, start: int, end: int) -> None:
        self._touch_range(start, end, dirty=False)

    def write(self, start: int, length: int) -> None:
        self._touch_range(start, start + length, dirty=True)

    def view(self, start: int, end: int) -> None:
        self._touch_range(start, end, dirty=True)
        for page in self.span_pages([start], [end]):
            self.pins[page] = self.pins.get(page, 0) + 1

    def copy_spans(self, starts, limits) -> None:
        """A batched read: its pages are read once, in order, and
        copied out; nothing is pinned."""
        for page in self.span_pages(starts, limits):
            self._touch_page(page, dirty=False)

    def release_pins(self) -> None:
        if self.pins:
            self.pins.clear()
            self._evict_to_budget()

    def flush(self) -> int:
        written = len(self.dirty)
        self.writebacks += written
        self.dirty.clear()
        return written
