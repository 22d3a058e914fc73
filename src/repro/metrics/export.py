"""Export recorded metrics to CSV / JSON for external analysis.

The collector's in-memory series are handy inside Python; downstream
users (plotting, spreadsheets, other languages) get flat files:

* :func:`export_csv` -- one CSV per record type into a directory;
* :func:`export_json` -- a single JSON document;
* :func:`load_json` -- round-trip loader (returns plain dicts/lists).

The table set is derived from :class:`MetricsCollector`'s dataclass
fields (:func:`record_tables`), not hand-listed: every list-valued
field exports, so adding a record series to the collector automatically
adds its table here.  (A hand-written table list once silently dropped
``unmatched_deficits`` and ``plant_events`` -- the whole fault
telemetry of a run; ``tests/test_metrics_export.py`` now asserts the
field-to-table coverage introspectively.)
"""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path
from typing import Any, Dict, List

from repro.metrics.collector import TUPLE_COLUMNS, MetricsCollector

__all__ = ["export_csv", "export_json", "load_json", "record_tables"]

#: Collector field -> exported table name, where they differ (the
#: original export shipped the sample series under shorter names).
_TABLE_NAMES = {"server_samples": "servers", "switch_samples": "switches"}


def record_tables(collector: MetricsCollector) -> Dict[str, list]:
    """Every record series of the collector, keyed by exported name.

    Introspects the dataclass: all list-valued fields are record series
    (non-list fields, like the forwarding tracer, are not).
    """
    tables: Dict[str, list] = {}
    for field in dataclasses.fields(type(collector)):
        value = getattr(collector, field.name)
        if not isinstance(value, list):
            continue
        tables[_TABLE_NAMES.get(field.name, field.name)] = value
    return tables


def _normalise(record: Dict[str, Any]) -> Dict[str, Any]:
    out = {}
    for key, value in record.items():
        if hasattr(value, "value"):  # enums
            out[key] = value.value
        else:
            out[key] = value
    return out


def _table_rows(name: str, records: list) -> List[Dict[str, Any]]:
    if name in TUPLE_COLUMNS:
        columns = TUPLE_COLUMNS[name]
        return [dict(zip(columns, record)) for record in records]
    return [_normalise(dataclasses.asdict(r)) for r in records]


def export_csv(collector: MetricsCollector, directory) -> Dict[str, Path]:
    """Write one CSV per record type; returns the written paths.

    Empty record types are skipped.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: Dict[str, Path] = {}
    for name, records in record_tables(collector).items():
        rows = _table_rows(name, records)
        if not rows:
            continue
        path = directory / f"{name}.csv"
        with path.open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        written[name] = path
    return written


def export_json(collector: MetricsCollector, path) -> Path:
    """Write the whole collector as one JSON document."""
    path = Path(path)
    document = {
        name: _table_rows(name, records)
        for name, records in record_tables(collector).items()
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1))
    return path


def load_json(path) -> Dict[str, Any]:
    """Load a document written by :func:`export_json`."""
    return json.loads(Path(path).read_text())
