"""Directory of numbered checkpoints with corrupt-skip recovery scan.

A :class:`CheckpointStore` owns one directory of
``checkpoint-<tick>.wck`` files.  Writers call :meth:`save` on the
consolidation cadence; recovery calls :meth:`latest_valid`, which walks
the directory newest-first, *verifies* each candidate (magic, version,
header, payload length, sha256) and falls back past corrupt, torn or
unsupported files — a half-written or bit-rotted newest checkpoint
degrades the restart point by one cadence instead of poisoning the
resume.  Every file passed over is recorded with its reason, also when
none is valid, so callers can name it (:func:`describe_skip`).
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.checkpoint.errors import CheckpointCorruptError, CheckpointError
from repro.checkpoint.format import read_checkpoint, write_checkpoint

__all__ = ["CheckpointStore", "describe_skip"]

_FILE_RE = re.compile(r"^checkpoint-(\d{10})\.wck$")


class CheckpointStore:
    """Numbered checkpoints under one directory.

    Parameters
    ----------
    directory:
        Created (with parents) on first use.
    fsync:
        Forwarded to :func:`write_checkpoint` for crash durability.
    keep:
        If set, prune to the ``keep`` newest checkpoints after each save.
    """

    def __init__(
        self,
        directory: Path,
        *,
        fsync: bool = False,
        keep: Optional[int] = None,
    ):
        if keep is not None and keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        self.fsync = fsync
        self.keep = keep
        #: ``(path, error)`` for every file the last :meth:`latest_valid`
        #: scan passed over, newest first.
        self.skipped: List[Tuple[Path, CheckpointError]] = []

    def path_for(self, tick: int) -> Path:
        return self.directory / f"checkpoint-{int(tick):010d}.wck"

    def ticks(self) -> List[int]:
        """Ticks with a checkpoint file present, ascending (unverified)."""
        if not self.directory.is_dir():
            return []
        found = []
        for entry in self.directory.iterdir():
            match = _FILE_RE.match(entry.name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    def save(
        self,
        *,
        kind: str,
        tick: int,
        state: Any,
        meta: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Write one checkpoint atomically; prunes old ones if configured."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(tick)
        write_checkpoint(
            path, kind=kind, tick=tick, state=state, meta=meta, fsync=self.fsync
        )
        if self.keep is not None:
            for old in self.ticks()[: -self.keep]:
                self.path_for(old).unlink(missing_ok=True)
        return path

    def load(self, tick: int) -> Dict[str, Any]:
        """Read and verify the checkpoint for ``tick``."""
        path = self.path_for(tick)
        if not path.exists():
            raise CheckpointError(f"no checkpoint for tick {tick} in {self.directory}")
        return read_checkpoint(path)

    def latest_valid(
        self, *, max_tick: Optional[int] = None
    ) -> Optional[Dict[str, Any]]:
        """Newest verified checkpoint (``tick <= max_tick`` if given).

        Corrupt, torn and unsupported-version candidates are skipped,
        newest-first.  :attr:`skipped` lists ``(path, error)`` for every
        file passed over, and a returned document carries the same list
        under ``"skipped"``, so callers can surface the fallback instead
        of diverging silently.  Returns ``None`` when no valid
        checkpoint exists; :attr:`skipped` then says why.
        """
        self.skipped = skipped = []
        for tick in reversed(self.ticks()):
            if max_tick is not None and tick > max_tick:
                continue
            path = self.path_for(tick)
            try:
                document = read_checkpoint(path)
            except CheckpointError as error:
                skipped.append((path, error))
                continue
            if document["tick"] != tick:
                error = CheckpointCorruptError(
                    f"filename tick {tick} != header tick {document['tick']}"
                )
                skipped.append((path, error))
                continue
            document["skipped"] = skipped
            return document
        return None


def describe_skip(path, error: CheckpointError) -> str:
    """One line naming a checkpoint the recovery scan passed over.

    Only integrity failures are called corrupt; a file of another
    format version is intact, just unreadable by this build.
    """
    what = (
        "corrupt checkpoint"
        if isinstance(error, CheckpointCorruptError)
        else "checkpoint"
    )
    return f"skipped {what} {path}: {error}"
