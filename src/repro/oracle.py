"""The oracle seam: the one place a fast path meets its reference.

Every ``cross_check=True`` site computes its answer twice — the path it
serves from, then the private reference that path shadows — and hands
both to :func:`shadow`.  Nothing else under ``src/`` raises
:class:`~repro.errors.DivergenceError`; DESIGN.md §18 lists the sites.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence

from .errors import DivergenceError
from .obs import get_registry

_CLIP = 160   # characters of a value's repr a message carries


def _clip(value) -> str:
    text = repr(value)
    if len(text) <= _CLIP:
        return text
    return f"{text[:_CLIP]}... ({len(text)} chars)"


def shadow(where: str, fast, reference, fields=(), equal=None) -> None:
    """Raise :class:`DivergenceError` unless ``fast`` equals ``reference``.

    ``where`` names the site; each call bumps ``oracle.checks{where}`` on
    the process registry (sites number in the dozens and outlive any one
    cloud, like the spin-lock totals).  With ``fields`` the two results
    are compared attribute by attribute and the first that differs is
    named; ``equal`` replaces ``==`` where that is not a verdict
    (``np.array_equal`` for arrays).  Differing sequences are narrowed
    to their first differing index, and both values are clipped, so the
    message stays readable whatever the frontier size.
    """
    get_registry().counter("oracle.checks", where=where).inc()
    equal = equal or operator.eq
    pairs = [(f".{name}", getattr(fast, name), getattr(reference, name))
             for name in fields] or [("", fast, reference)]
    for at, mine, theirs in pairs:
        if equal(mine, theirs):
            continue
        if hasattr(mine, "tolist") and hasattr(theirs, "tolist"):
            mine, theirs = mine.tolist(), theirs.tolist()
        if (isinstance(mine, Sequence) and isinstance(theirs, Sequence)
                and not isinstance(mine, (str, bytes))):
            i = next((i for i, (a, b) in enumerate(zip(mine, theirs))
                      if a != b), min(len(mine), len(theirs)))
            at, mine, theirs = f"{at}[{i}]", mine[i:i + 1], theirs[i:i + 1]
        raise DivergenceError(
            f"cross-check failed at {where}{at}: "
            f"{_clip(mine)} != {_clip(theirs)}")
