"""The public-surface ledger: five central classes and DESIGN.md agree.

Every public method is a promise callers can come to depend on, so the
public callables of the classes most code goes through are a tracked
list, like the knobs (``tests/test_knobs.py``).  A method added to (or
dropped from) one of these class bodies fails here until DESIGN.md's
"Public surface" table follows, so every new entry point shows up in
code review; each class's count is held to a ceiling.
"""

import pathlib
import re

from repro.compute import BspEngine
from repro.graph import Graph
from repro.memcloud import MemoryCloud
from repro.memcloud.trunk import MemoryTrunk
from repro.serve import QueryServer

DESIGN = pathlib.Path(__file__).resolve().parents[1] / "DESIGN.md"
CLASSES = (MemoryCloud, MemoryTrunk, Graph, BspEngine, QueryServer)
#: The ledger only shrinks without review: raising a ceiling is the
#: decision to add a public method, made in code review.
CEILINGS = {
    "MemoryCloud": 26,
    "MemoryTrunk": 16,
    "Graph": 20,
    "BspEngine": 5,
    "QueryServer": 5,
}
#: ``| `Class` | count | `name`, `name`, ... |``
ROW = re.compile(r"^\| `(\w+)` \| (\d+) \| ((?:`\w+`(?:, )?)+) \|$", re.M)


def public_callables(cls) -> set[str]:
    """Public names the class body itself defines as callables:
    methods, static and class methods; properties aside."""
    return {name for name, member in vars(cls).items()
            if not name.startswith("_")
            and not isinstance(member, property)
            and (callable(member)
                 or isinstance(member, (staticmethod, classmethod)))}


def documented_surface() -> dict[str, tuple[int, list[str]]]:
    text = DESIGN.read_text(encoding="utf-8")
    start = text.index("\n### Public surface\n")
    section = text[start:text.index("\n## ", start)]
    return {cls: (int(count), re.findall(r"`(\w+)`", names))
            for cls, count, names in ROW.findall(section)}


def test_surface_table_matches_class_bodies():
    documented = documented_surface()
    assert set(documented) == {cls.__name__ for cls in CLASSES}
    for cls in CLASSES:
        count, names = documented[cls.__name__]
        assert len(names) == len(set(names)), cls.__name__
        assert set(names) == public_callables(cls), cls.__name__
        assert count == len(names), cls.__name__


def test_surface_total_stated_in_design():
    """The headline number above the table is the rows' sum."""
    text = DESIGN.read_text(encoding="utf-8")
    stated = re.search(r"\*\*(\d+) public callables\*\*", text)
    total = sum(count for count, _ in documented_surface().values())
    assert stated and int(stated.group(1)) == total


def test_surface_is_a_ratchet():
    for cls in CLASSES:
        assert len(public_callables(cls)) <= CEILINGS[cls.__name__], \
            cls.__name__
