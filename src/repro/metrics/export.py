"""Export recorded metrics to CSV / JSON for external analysis.

The collector's in-memory series are handy inside Python; downstream
users (plotting, spreadsheets, other languages) get flat files:

* :func:`export_csv` -- one CSV per record type into a directory;
* :func:`export_json` -- a single JSON document;
* :func:`load_json` -- round-trip loader (returns plain dicts/lists).

The table set is the collector's own (:meth:`MetricsCollector.tables`,
through :func:`record_tables`), not hand-listed, so adding a record
table to the collector adds its export too.  (A hand-written table list
once silently dropped ``unmatched_deficits`` and ``plant_events`` --
the whole fault telemetry of a run; ``tests/test_metrics_export.py``
asserts the coverage.)  Rows are written from the tables' columns, one
``{field: value}`` dict per row, with enums as their values.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any, Dict, List

from repro.metrics.collector import MetricsCollector
from repro.metrics.columnar import RecordTable

__all__ = ["export_csv", "export_json", "load_json", "record_tables"]

#: Collector field -> exported table name, where they differ (the
#: original export shipped the sample series under shorter names).
_TABLE_NAMES = {"server_samples": "servers", "switch_samples": "switches"}


def record_tables(collector: MetricsCollector) -> Dict[str, RecordTable]:
    """Every record table of the collector, keyed by exported name."""
    return {
        _TABLE_NAMES.get(name, name): table
        for name, table in collector.tables().items()
    }


def _normalise(value: Any) -> Any:
    return value.value if hasattr(value, "value") else value  # enums


def _table_rows(table: RecordTable) -> List[Dict[str, Any]]:
    columns = [map(_normalise, table.column(name)) for name in table.fields]
    return [dict(zip(table.fields, values)) for values in zip(*columns)]


def export_csv(collector: MetricsCollector, directory) -> Dict[str, Path]:
    """Write one CSV per record type; returns the written paths.

    Empty record types are skipped.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: Dict[str, Path] = {}
    for name, table in record_tables(collector).items():
        if not table:
            continue
        path = directory / f"{name}.csv"
        with path.open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=table.fields)
            writer.writeheader()
            writer.writerows(_table_rows(table))
        written[name] = path
    return written


def export_json(collector: MetricsCollector, path) -> Path:
    """Write the whole collector as one JSON document."""
    path = Path(path)
    document = {
        name: _table_rows(table)
        for name, table in record_tables(collector).items()
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1))
    return path


def load_json(path) -> Dict[str, Any]:
    """Load a document written by :func:`export_json`."""
    return json.loads(Path(path).read_text())
