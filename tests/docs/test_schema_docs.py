"""The study schema's documentation cannot go stale.

``docs/studies.md`` ("Fields, bounds and errors") lists, under one
``#### ... — `Class``` heading per table, the fields a study document
may give.  The lists must equal the fields the schema reads
(:func:`repro.studies.schema.plan`, by document key), every schema
table must have its list, and the per-kind bounds table must name
exactly the fields each registered built-in kind bounds.
"""

import re
from pathlib import Path

from repro.emc import LimitMask
from repro.experiments import AntennaModel
from repro.studies import (CoupledLoadSpec, Distribution, JitterSpec,
                           LoadSpec, RunnerOptions, SpectralSpec,
                           StochasticSpec, Study, TrafficModel, get_kind)
from repro.studies.schema import plan

PAGE = Path(__file__).resolve().parents[2] / "docs" / "studies.md"

#: every table of a study document, by the class that reads it
TABLES = {cls.__name__: cls for cls in (
    Study, SpectralSpec, LimitMask, AntennaModel, RunnerOptions, LoadSpec,
    CoupledLoadSpec, StochasticSpec, TrafficModel, JitterSpec,
    Distribution)}

_HEADING = re.compile(r"^#### .* — `(\w+)`$")
_BULLET = re.compile(r"^- ((?:`\w+`(?:, )?)+):")
_BOUND = re.compile(r"`(\w+)` (?:>=?|=|in) ")


def _documented_fields() -> dict:
    """``{class name: set of documented field keys}`` from the page."""
    out, current = {}, None
    for line in PAGE.read_text(encoding="utf-8").splitlines():
        heading = _HEADING.match(line)
        if heading:
            current = out.setdefault(heading.group(1), set())
        elif line.startswith("#"):
            current = None
        elif current is not None and (bullet := _BULLET.match(line)):
            current.update(re.findall(r"`(\w+)`", bullet.group(1)))
    return out


def test_every_table_lists_exactly_its_schema_fields():
    documented = _documented_fields()
    assert set(documented) == set(TABLES)
    for name, cls in TABLES.items():
        keys = {meta.key for meta in plan(cls).values()}
        assert documented[name] == keys, name


def test_the_bounds_table_names_each_kind_bounds():
    rows = {}
    for line in PAGE.read_text(encoding="utf-8").splitlines():
        row = re.match(r"^\| `(\w+)` \| (.*) \|$", line)
        if row:
            rows[row.group(1)] = set(_BOUND.findall(row.group(2)))
    assert set(rows) == {"r", "rc", "line", "rx", "coupled"}
    for kind, fields in rows.items():
        assert fields == set(get_kind(kind).bounds), kind
