"""Control-message accounting (paper Property 3).

"The number of communication messages on any network link between a
node at level l and a node at level l+1 in a period of Delta_Dl is at
most 2 -- one on either direction in the link."
"""

from __future__ import annotations

from typing import Dict

from repro.metrics.collector import MetricsCollector

__all__ = ["max_messages_per_link", "verify_message_bound"]


def max_messages_per_link(collector: MetricsCollector) -> Dict[int, int]:
    """Worst per-tick message count observed on each tree link.

    Links are identified by the child node's id (each non-root node has
    exactly one upward link).
    """
    return collector.messages_per_link_per_tick()


def verify_message_bound(collector: MetricsCollector, bound: int = 2) -> bool:
    """True iff no link ever carried more than ``bound`` messages/tick.

    The bound applies to *sent* control messages per link per tick --
    under a lossy transport (:mod:`repro.control_plane`) dropped and
    duplicated deliveries do not change the count, but retransmissions
    are genuine sends and do.

    Raises :class:`ValueError` if the collector recorded no messages at
    all: an ``all()`` over an empty dict would be vacuously true, and a
    run that never exchanged control traffic proves nothing about
    Property 3 (most likely the controller never ran, or messages were
    recorded into a different collector).
    """
    worst = max_messages_per_link(collector)
    if not worst:
        raise ValueError(
            "collector recorded no control messages; Property 3 cannot be "
            "verified on an empty run (did the controller run, and with "
            "this collector?)"
        )
    return all(count <= bound for count in worst.values())


def messages_per_direction(collector: MetricsCollector) -> Dict[str, int]:
    """Total upward (demand reports) vs downward (budget directives)."""
    upward = collector.messages.column("upward")
    up = sum(1 for is_up in upward if is_up)
    down = len(upward) - up
    return {"upward": up, "downward": down}
