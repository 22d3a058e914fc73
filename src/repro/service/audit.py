"""The replayable audit log: every accepted event, where it landed.

One JSONL file (rotated by the shared :class:`repro.trace.writer
.JsonlTraceWriter`, discovered back via :func:`repro.trace.writer
.trace_segments`) holding three record kinds:

``meta``  (first line)
    The :class:`~repro.service.simulation.ServiceSpec` plus run
    parameters -- everything replay needs to rebuild t=0.
``event``
    One accepted ingest event: the tick boundary it was applied at,
    its gateway sequence number, source, whether it actually applied
    (state-dependent no-ops record ``applied: false`` with the reason),
    and the normalized event body.
``end``   (last line, graceful shutdowns only)
    Tick count, acceptance totals and the live run's decision digest --
    what ``replay`` verifies itself against.

Writes are batched per tick and flushed at the tick boundary (fsync
optional), so every record on disk is a complete line; a hard kill can
at worst truncate the final line, which the reader tolerates.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional

from repro.trace.writer import JsonlTraceWriter, trace_segments

__all__ = ["AuditLog", "read_audit", "AuditRecordError"]

#: Audit format version (bump on incompatible record changes).
AUDIT_VERSION = 1


class AuditRecordError(ValueError):
    """An audit log is structurally unusable for replay."""


class AuditLog:
    """Append-side of the audit log (the live worker's writer)."""

    def __init__(
        self,
        path,
        *,
        max_bytes: Optional[int] = 32 * 1024 * 1024,
        fsync: bool = False,
        append: bool = False,
    ):
        self._writer = JsonlTraceWriter(
            path, max_bytes=max_bytes, fsync=fsync, append=append
        )
        self.path = Path(path)

    def write_meta(self, spec_meta: Mapping[str, Any], **extra: Any) -> None:
        record = {"kind": "meta", "version": AUDIT_VERSION, "spec": dict(spec_meta)}
        record.update(extra)
        self._writer.write_frame(record)
        self._writer.flush()

    def write_event(
        self,
        tick: int,
        seq: int,
        source: str,
        event: Mapping[str, Any],
        *,
        applied: bool,
        reason: str = "",
    ) -> None:
        record: Dict[str, Any] = {
            "kind": "event",
            "tick": tick,
            "seq": seq,
            "source": source,
            "applied": applied,
            "event": dict(event),
        }
        if reason:
            record["reason"] = reason
        self._writer.write_frame(record)

    def write_end(
        self, *, ticks: int, accepted: int, digest: str, **extra: Any
    ) -> None:
        record = {
            "kind": "end",
            "ticks": ticks,
            "accepted": accepted,
            "digest": digest,
        }
        record.update(extra)
        self._writer.write_frame(record)
        self._writer.flush()

    def flush(self) -> None:
        """Tick-boundary flush: complete lines reach the OS (or disk)."""
        self._writer.flush()

    def close(self) -> None:
        self._writer.close()


def _iter_lines(path: Path) -> Iterator[str]:
    with path.open() as handle:
        yield from handle


def read_audit(path) -> Dict[str, Any]:
    """Parse an audit log (all rotated segments, oldest first).

    Returns ``{"meta": ..., "events": [...], "end": ... or None,
    "truncated_lines": n}``.  Events are sorted by ``(tick, seq)``; a
    trailing partial line (hard kill mid-write) is skipped and counted,
    never fatal -- but a missing/invalid meta record is.
    """
    try:
        segments = trace_segments(path)
    except FileNotFoundError:
        raise FileNotFoundError(f"no audit log found at {path}") from None
    meta: Optional[Dict[str, Any]] = None
    end: Optional[Dict[str, Any]] = None
    events: List[Dict[str, Any]] = []
    truncated = 0
    for segment in segments:
        for line in _iter_lines(segment):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                truncated += 1
                continue
            kind = record.get("kind")
            if kind == "meta":
                if meta is None:
                    meta = record
            elif kind == "event":
                events.append(record)
            elif kind == "end":
                end = record
    if meta is None:
        raise AuditRecordError(
            f"{path}: no meta record found; not an audit log?"
        )
    if meta.get("version") != AUDIT_VERSION:
        raise AuditRecordError(
            f"{path}: audit version {meta.get('version')!r} unsupported "
            f"(expected {AUDIT_VERSION})"
        )
    events.sort(key=lambda r: (r.get("tick", 0), r.get("seq", 0)))
    return {
        "meta": meta,
        "events": events,
        "end": end,
        "truncated_lines": truncated,
    }
