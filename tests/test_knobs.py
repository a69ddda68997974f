"""The knob ledger: config fields and DESIGN.md's Knobs table agree.

Every independently settable option doubles the configurations tests and
benchmarks have to cover, so the set of options is a tracked number.  A
field added to (or dropped from) one of the config objects fails here
until the "Knobs" table in DESIGN.md — name, default, who sets it to
something else — gains or loses the row, which puts every new option in
front of a reviewer.
"""

import dataclasses
import pathlib
import re

from repro.config import (
    ClusterConfig,
    ComputeParams,
    MemoryParams,
    NetworkParams,
)
from repro.serve import ServeConfig

DESIGN = pathlib.Path(__file__).resolve().parents[1] / "DESIGN.md"
CONFIGS = (ServeConfig, MemoryParams, NetworkParams, ComputeParams,
           ClusterConfig)
#: ``| `Config` | `knob` | default | who |``
ROW = re.compile(r"^\| `(\w+)` \| `(\w+)` \| [^|]+ \| [^|]+ \|$", re.M)


def documented_knobs() -> list[tuple[str, str]]:
    text = DESIGN.read_text(encoding="utf-8")
    section = text[text.index("\n## 17. Knobs\n"):]
    return ROW.findall(section)


def test_knobs_table_matches_config_fields():
    rows = documented_knobs()
    assert len(rows) == len(set(rows)), "duplicate row in the Knobs table"
    declared = {(config.__name__, field.name)
                for config in CONFIGS
                for field in dataclasses.fields(config)}
    assert set(rows) == declared


def test_knob_count_stated_in_design():
    """The headline number above the table is the table's length."""
    text = DESIGN.read_text(encoding="utf-8")
    stated = re.search(r"\*\*(\d+) knobs\*\*", text)
    assert stated and int(stated.group(1)) == len(documented_knobs())
