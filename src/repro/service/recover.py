"""Crash recovery: latest valid checkpoint + audit-tail replay.

A live run writes two artifacts that together make it crash-safe: the
audit log (every accepted event, flushed as complete lines per tick)
and a directory of periodic checkpoints (full simulation snapshots,
hash-verified, written atomically).  After a hard kill,
:func:`recover_simulation` rebuilds the exact pre-crash state:

1. parse the audit log (tolerating a torn final line) and rebuild a
   fresh :class:`~repro.service.simulation.LiveSimulation` from its
   meta record;
2. scan the checkpoint directory newest-first and restore the latest
   checkpoint whose payload hash verifies -- torn, corrupt or
   other-version files are skipped and named, never trusted;
3. replay the audit tail: every logged event with tick >= the
   checkpoint's tick, applied at its original tick boundary.

Because a checkpoint at tick C is written *after* the tick-C-1 audit
flush, it contains exactly the events with record tick < C; the tail
replay supplies the rest, and the recovered simulation's state (and
therefore its ``decision_digest`` once the run completes) is
bit-identical to a run that never crashed.  With no usable checkpoint
the tail is the whole log -- recovery degrades to a full replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.checkpoint import CheckpointError, CheckpointStore, describe_skip
from repro.service.audit import read_audit
from repro.service.simulation import LiveSimulation, ServiceSpec

__all__ = ["RecoveryResult", "recover_simulation"]


@dataclass
class RecoveryResult:
    """The rebuilt simulation plus how it was put back together."""

    sim: LiveSimulation
    spec: ServiceSpec
    restored_tick: int  #: checkpoint tick restored from (0 = none, full replay)
    checkpoint_path: Optional[str]  #: file restored from, or None
    replayed_ticks: int  #: ticks re-stepped after the checkpoint
    replayed_applied: int
    replayed_ignored: int
    apply_mismatches: int  #: events that resolved differently than logged
    #: ``(path, error)`` for every checkpoint passed over, newest first.
    skipped_checkpoints: List[Tuple[str, CheckpointError]] = field(
        default_factory=list
    )
    truncated_lines: int = 0

    def format(self) -> str:
        lines = []
        if self.checkpoint_path is not None:
            lines.append(
                f"restored checkpoint at tick {self.restored_tick} "
                f"({self.checkpoint_path})"
            )
        else:
            lines.append(
                "no usable checkpoint; replaying the full audit log"
            )
        for path, error in self.skipped_checkpoints:
            lines.append(describe_skip(path, error))
        lines.append(
            f"replayed {self.replayed_ticks} tick(s) from the audit tail: "
            f"{self.replayed_applied} event(s) applied, "
            f"{self.replayed_ignored} no-op(s)"
        )
        if self.truncated_lines:
            lines.append(
                f"warning: skipped {self.truncated_lines} partial/garbled "
                f"audit line(s) (hard kill mid-write?)"
            )
        if self.apply_mismatches:
            lines.append(
                f"warning: {self.apply_mismatches} event(s) resolved "
                f"differently than logged (state divergence)"
            )
        lines.append(f"recovered state: tick {self.sim.tick}")
        return "\n".join(lines)


def recover_simulation(
    audit_path, checkpoint_dir=None
) -> RecoveryResult:
    """Rebuild the pre-crash state of a live run.

    Parameters
    ----------
    audit_path:
        The run's audit log (rotated segments are discovered).
    checkpoint_dir:
        The run's checkpoint directory; None (or an empty/corrupt
        directory) falls back to replaying the whole audit log.

    Raises whatever :func:`~repro.service.audit.read_audit` raises for
    a missing or structurally unusable audit log; checkpoint damage is
    never fatal, only slower.
    """
    document = read_audit(audit_path)
    spec = ServiceSpec.from_meta(document["meta"]["spec"])
    sim = LiveSimulation(spec)

    restored_tick = 0
    checkpoint_path: Optional[str] = None
    skipped: List[Tuple[str, CheckpointError]] = []
    if checkpoint_dir is not None:
        store = CheckpointStore(checkpoint_dir)
        doc = store.latest_valid()
        skipped = [(str(path), error) for path, error in store.skipped]
        if doc is not None:
            sim.restore_state(doc["state"])
            restored_tick = doc["tick"]
            checkpoint_path = str(doc["path"])

    by_tick: Dict[int, List[dict]] = {}
    last_event_tick = restored_tick - 1
    for record in document["events"]:
        if record["tick"] < restored_tick:
            continue  # already inside the checkpoint
        by_tick.setdefault(record["tick"], []).append(record)
        last_event_tick = max(last_event_tick, record["tick"])

    applied = ignored = mismatches = 0
    for tick in range(restored_tick, last_event_tick + 1):
        for record in by_tick.get(tick, ()):
            result = sim.apply(record["event"])
            if result.applied:
                applied += 1
            else:
                ignored += 1
            if result.applied != record.get("applied", result.applied):
                mismatches += 1
        sim.step()

    return RecoveryResult(
        sim=sim,
        spec=spec,
        restored_tick=restored_tick,
        checkpoint_path=checkpoint_path,
        replayed_ticks=sim.tick - restored_tick,
        replayed_applied=applied,
        replayed_ignored=ignored,
        apply_mismatches=mismatches,
        skipped_checkpoints=skipped,
        truncated_lines=document["truncated_lines"],
    )
