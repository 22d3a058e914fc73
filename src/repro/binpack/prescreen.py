"""Array pre-screening for the Sec. IV-E shed/repack candidate search.

The federation coordinator's rebalance step must answer two questions
per transfer directive: *which VMs would the deficit site shed* (the
largest-first rule, capped at the directive) and *which servers at the
destination can absorb them* (the FFDLR bins).  Both answers start with
full-fleet scans that are pure screening -- no state changes -- so they
vectorize: masks and ``argsort``/``lexsort`` orderings over the
:class:`~repro.core.fleet.FleetState` arrays.  Each donor's own
largest-first takes stay a sequential fold over its few VM objects
(:func:`repro.federation.vectorized.shed_candidates`), and only the
chosen moves are realised through the scalar FFDLR packer.

Bit-exactness: orderings use the exact scalar sort keys (no float
arithmetic), so they are the scalar coordinator's orderings.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["deficient_order", "destination_order"]


def deficient_order(
    awake: np.ndarray,
    raw: np.ndarray,
    budget: np.ndarray,
    node_ids: np.ndarray,
    eps: float,
) -> np.ndarray:
    """Rows of over-budget awake servers, worst deficit first.

    Matches ``sorted(..., key=lambda s: (s.budget - s.raw_demand,
    s.node.node_id))``: most-negative surplus first, node id breaking
    ties.
    """
    rows = np.nonzero(awake & (raw > budget + eps))[0]
    if not len(rows):
        return rows
    surplus = budget[rows] - raw[rows]
    return rows[np.lexsort((node_ids[rows], surplus))]


def destination_order(
    awake: np.ndarray,
    raw: np.ndarray,
    budget: np.ndarray,
    squeezed: np.ndarray,
    capacity: np.ndarray,
    node_ids: np.ndarray,
    eps: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Eligible receiver rows (node-id order) and their bin capacities.

    Same screening as the scalar ``_destination_bins``: awake, not
    deficient, not squeezed by the unidirectional rule, positive
    ``capacity``.  The caller computes ``capacity`` with the scalar's
    exact operand order (``budget - raw - p_min - wan``), since
    regrouping the subtractions can move the last ulp.
    """
    rows = np.nonzero(
        awake & ~(raw > budget + eps) & ~squeezed & (capacity > eps)
    )[0]
    if not len(rows):
        return rows, capacity[rows]
    order = rows[np.argsort(node_ids[rows])]
    return order, capacity[order]
