"""On-disk checkpoint format: versioned, hashed, atomically replaced.

A checkpoint file is::

    willow-checkpoint 1\n
    {json header}\n
    <payload bytes>

The magic line marks the file family and never changes; the header's
``version`` names the payload layout.  A file of another version is
refused with :class:`CheckpointError` (not reported as corrupt) before
its payload is read.  Version 2 stores the metrics tables as columns
(:meth:`~repro.metrics.collector.MetricsCollector.snapshot_tables`).

The header records the payload's exact byte length and sha256 so a torn
or bit-flipped file is detected *before* the payload is unpickled; the
pickle is never touched unless the hash verifies.  Files are written to
a temporary sibling and published with ``os.replace`` so readers only
ever observe complete checkpoints; ``fsync=True`` additionally syncs
the file and its directory for durability across power loss.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Any, Dict, Optional

from repro.checkpoint.errors import CheckpointCorruptError, CheckpointError

__all__ = [
    "CHECKPOINT_VERSION",
    "MAGIC",
    "write_checkpoint",
    "read_checkpoint",
    "read_header",
]

CHECKPOINT_VERSION = 2
MAGIC = b"willow-checkpoint 1\n"


def write_checkpoint(
    path: Path,
    *,
    kind: str,
    tick: int,
    state: Any,
    meta: Optional[Dict[str, Any]] = None,
    fsync: bool = False,
) -> Dict[str, Any]:
    """Atomically write ``state`` to ``path``; returns the header written."""
    path = Path(path)
    payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    header = {
        "version": CHECKPOINT_VERSION,
        "kind": str(kind),
        "tick": int(tick),
        "payload_bytes": len(payload),
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
        "meta": dict(meta or {}),
    }
    blob = MAGIC + json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + payload

    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as handle:
        handle.write(blob)
        if fsync:
            handle.flush()
            os.fsync(handle.fileno())
    os.replace(tmp, path)
    if fsync:
        directory = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)
    return header


def _read_header(handle) -> Dict[str, Any]:
    magic = handle.readline()
    if magic != MAGIC:
        raise CheckpointCorruptError(
            f"not a willow checkpoint (bad magic {magic[:32]!r})"
        )
    raw = handle.readline()
    if not raw.endswith(b"\n"):
        raise CheckpointCorruptError("torn checkpoint header")
    try:
        header = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise CheckpointCorruptError(f"undecodable checkpoint header: {error}") from None
    if not isinstance(header, dict):
        raise CheckpointCorruptError("checkpoint header is not an object")
    version = header.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version!r} "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )
    return header


def read_header(path: Path) -> Dict[str, Any]:
    """Read and validate only the header of ``path`` (payload untouched)."""
    with Path(path).open("rb") as handle:
        return _read_header(handle)


def read_checkpoint(path: Path) -> Dict[str, Any]:
    """Read, verify, and unpickle ``path``.

    Returns ``{"version", "kind", "tick", "meta", "state", "path"}``.
    Raises :class:`CheckpointCorruptError` on any integrity failure and
    :class:`CheckpointError` on a version this build cannot read.
    """
    path = Path(path)
    with path.open("rb") as handle:
        header = _read_header(handle)
        expected_bytes = header.get("payload_bytes")
        expected_sha = header.get("payload_sha256")
        if not isinstance(expected_bytes, int) or not isinstance(expected_sha, str):
            raise CheckpointCorruptError("checkpoint header missing payload digest")
        payload = handle.read(expected_bytes + 1)
    if len(payload) < expected_bytes:
        raise CheckpointCorruptError(
            f"torn checkpoint payload: expected {expected_bytes} bytes, "
            f"found {len(payload)}"
        )
    if len(payload) > expected_bytes:
        raise CheckpointCorruptError(
            f"trailing bytes after checkpoint payload ({expected_bytes} expected)"
        )
    actual_sha = hashlib.sha256(payload).hexdigest()
    if actual_sha != expected_sha:
        raise CheckpointCorruptError(
            f"checkpoint hash mismatch: header says {expected_sha[:12]}..., "
            f"payload is {actual_sha[:12]}..."
        )
    try:
        state = pickle.loads(payload)
    except Exception as error:  # hash passed but pickle won't load
        raise CheckpointCorruptError(f"unreadable checkpoint payload: {error}") from None
    return {
        "version": header["version"],
        "kind": header["kind"],
        "tick": header["tick"],
        "meta": header.get("meta", {}),
        "state": state,
        "path": path,
    }
