"""Variable-size bin packing (paper Sec. IV-F).

Matching migrating demands to node surpluses "reduces to the classical
bin packing problem.  The surpluses available in different nodes form
the bins.  The bins are variable sized and the demands need to be
fitted in them."  The paper chooses the FFDLR scheme of Friesen &
Langston: O(n log n), guaranteed within (3/2) OPT + 1 bins, and the
final repack-into-smallest-bins step naturally empties servers for
consolidation.

* :mod:`repro.binpack.items` -- :class:`Item` / :class:`Bin` /
  :class:`Receivers` / :class:`PackResult` data model.
* :mod:`repro.binpack.ffdlr` -- the FFDLR packer.
* :mod:`repro.binpack.baselines` -- first-fit, FFD, best-fit-decreasing
  and worst-fit comparators.
* :mod:`repro.binpack.exact` -- exhaustive optima for small instances
  (test oracle for the FFDLR bound).
"""

from repro.binpack.items import Bin, Item, PackResult, Receivers
from repro.binpack.ffdlr import ffdlr_pack, ffd_bin_count
from repro.binpack.baselines import (
    best_fit_decreasing,
    first_fit,
    first_fit_decreasing,
    worst_fit,
)
from repro.binpack.exact import feasible_exact, optimal_bin_count

__all__ = [
    "Bin",
    "Item",
    "PackResult",
    "Receivers",
    "best_fit_decreasing",
    "feasible_exact",
    "ffd_bin_count",
    "ffdlr_pack",
    "first_fit",
    "first_fit_decreasing",
    "optimal_bin_count",
    "worst_fit",
]
