"""Crash-safe checkpoint/restore with bit-exact deterministic resume.

Layers:

* :mod:`repro.checkpoint.format` — one checkpoint file: versioned
  magic + JSON header (kind, tick, payload sha256/length, rebuild
  meta) + pickled state, written atomically (tmp + ``os.replace``,
  optional fsync).  Torn or corrupt files are detected by hash before
  the payload is ever unpickled.
* :mod:`repro.checkpoint.store` — a directory of numbered checkpoints
  with a newest-first ``latest_valid()`` recovery scan that skips
  corrupt or unsupported files instead of failing, and names each.
* :mod:`repro.checkpoint.hooks` — :class:`Checkpointer`, an ``on_tick``
  hook snapshotting a controller or federation coordinator on the
  consolidation cadence (``eta2`` ticks).

The state itself comes from ``snapshot_state()``/``restore_state()``
threaded through :class:`~repro.core.controller.WillowController`, its
vectorized and fault-tolerant subclasses,
:class:`~repro.federation.coordinator.FederationCoordinator`, and the
live service's ``LiveSimulation``.  The contract: restore onto a
freshly constructed twin (same construction inputs), then continue —
the resumed run's decisions, collector tables, and
``decision_digest()`` are bit-identical to an uninterrupted run.  See
docs/checkpointing.md.
"""

from repro.checkpoint.errors import CheckpointCorruptError, CheckpointError
from repro.checkpoint.format import (
    CHECKPOINT_VERSION,
    read_checkpoint,
    read_header,
    write_checkpoint,
)
from repro.checkpoint.hooks import Checkpointer
from repro.checkpoint.store import CheckpointStore, describe_skip

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointCorruptError",
    "CheckpointError",
    "CheckpointStore",
    "Checkpointer",
    "describe_skip",
    "read_checkpoint",
    "read_header",
    "write_checkpoint",
]
