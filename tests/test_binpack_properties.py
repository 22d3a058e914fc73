"""Property-based tests for the packers (hypothesis).

The headline check is FFDLR's published guarantee: no more than
(3/2) OPT + 1 bins on equal-capacity instances (Friesen & Langston),
verified against the exhaustive optimum on small instances.  FFDLR's
searches are also checked against a reference: the packer as it was
written with NumPy scans over flat capacity and load arrays.
"""

from typing import List, Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.binpack import (
    Bin,
    Item,
    PackResult,
    Receivers,
    best_fit_decreasing,
    feasible_exact,
    ffd_bin_count,
    ffdlr_pack,
    first_fit,
    first_fit_decreasing,
    optimal_bin_count,
    worst_fit,
)
from repro.binpack.ffdlr import _SLACK, _ffd_groups

sizes_strategy = st.lists(st.floats(0.01, 1.0), min_size=1, max_size=10)
capacities_strategy = st.lists(st.floats(0.1, 2.0), min_size=1, max_size=8)

ALL_PACKERS = [
    ffdlr_pack,
    first_fit,
    first_fit_decreasing,
    best_fit_decreasing,
    worst_fit,
]


@given(sizes=sizes_strategy, capacities=capacities_strategy)
@settings(max_examples=150)
@pytest.mark.parametrize("packer", ALL_PACKERS)
def test_every_packer_produces_valid_packings(packer, sizes, capacities):
    items = [Item(i, s) for i, s in enumerate(sizes)]
    bins = [Bin(j, c) for j, c in enumerate(capacities)]
    result = packer(items, bins)
    result.validate()  # no overflow, no duplication
    # Every positive item is either packed or unpacked, never lost.
    accounted = set(result.assignment) | {it.key for it in result.unpacked}
    assert accounted == {i for i, s in enumerate(sizes) if s > 0}


@given(sizes=sizes_strategy, capacities=capacities_strategy)
@settings(max_examples=100)
def test_ffdlr_unpacked_items_truly_do_not_fit_residuals(sizes, capacities):
    """After FFDLR finishes, nothing unpacked fits any residual."""
    items = [Item(i, s) for i, s in enumerate(sizes)]
    bins = [Bin(j, c) for j, c in enumerate(capacities)]
    result = ffdlr_pack(items, bins)
    for item in result.unpacked:
        assert all(not b.fits(item) for b in result.bins)


@given(
    sizes=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=9),
)
@settings(max_examples=60, deadline=None)
def test_ffd_respects_friesen_langston_bound(sizes):
    """FFD bin count <= (3/2) OPT + 1 on unit-capacity instances."""
    used = ffd_bin_count(sizes, 1.0)
    optimal = optimal_bin_count(sizes, 1.0)
    assert used <= 1.5 * optimal + 1
    assert used >= optimal  # sanity: never beats the optimum


@given(
    sizes=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=8),
    n_bins=st.integers(1, 8),
)
@settings(max_examples=60, deadline=None)
def test_ffdlr_matches_feasibility_oracle_when_it_packs_all(sizes, n_bins):
    """If FFDLR packs everything, the oracle agrees it is feasible."""
    items = [Item(i, s) for i, s in enumerate(sizes)]
    bins = [Bin(j, 1.0) for j in range(n_bins)]
    result = ffdlr_pack(items, bins)
    if not result.unpacked:
        assert feasible_exact(sizes, [1.0] * n_bins)


@given(
    sizes=st.lists(st.floats(0.3, 1.0), min_size=1, max_size=6),
    n_bins=st.integers(1, 6),
)
@settings(max_examples=60, deadline=None)
def test_ffdlr_on_equal_bins_uses_at_most_bound_bins(sizes, n_bins):
    """With enough equal bins available, FFDLR stays within the bound."""
    optimal = optimal_bin_count(sizes, 1.0)
    allowed = int(1.5 * optimal) + 1
    if allowed > n_bins:
        return  # not enough bins offered to make the claim
    items = [Item(i, s) for i, s in enumerate(sizes)]
    bins = [Bin(j, 1.0) for j in range(n_bins)]
    result = ffdlr_pack(items, bins)
    assert not result.unpacked
    assert result.bins_used <= allowed


@given(sizes=sizes_strategy)
@settings(max_examples=100)
def test_packed_size_conserved(sizes):
    """Total packed + unpacked size equals total offered size."""
    items = [Item(i, s) for i, s in enumerate(sizes)]
    bins = [Bin(0, 1.5), Bin(1, 1.0)]
    result = ffdlr_pack(items, bins)
    unpacked = sum(item.size for item in result.unpacked)
    assert result.packed_size + unpacked == pytest.approx(sum(sizes))


@given(
    sizes=sizes_strategy,
    capacities=capacities_strategy,
    extra=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=5),
    data=st.data(),
)
@settings(max_examples=150)
def test_ffdlr_oversized_items_change_only_unpacked(
    sizes, capacities, extra, data
):
    """Adding items larger than every bin (and every other item) changes
    only ``unpacked``: the assignment and every bin's contents stay, and
    the added items come first in ``unpacked``, largest first."""
    top = max(max(capacities), max(sizes))
    oversized = [top + 1e-6 + x for x in extra]
    items = [Item(i, s) for i, s in enumerate(sizes)]
    mixed = list(items)
    for k, size in enumerate(oversized):
        at = data.draw(st.integers(0, len(mixed)))
        mixed.insert(at, Item(f"big{k}", size))

    def pack(offered):
        bins = [Bin(j, c) for j, c in enumerate(capacities)]
        return ffdlr_pack(offered, bins)

    base, more = pack(items), pack(mixed)
    assert more.assignment == base.assignment
    assert [[it.key for it in b.contents] for b in more.bins] == [
        [it.key for it in b.contents] for b in base.bins
    ]
    n = len(oversized)
    assert [it.size for it in more.unpacked[:n]] == sorted(
        oversized, reverse=True
    )
    assert [it.key for it in more.unpacked[n:]] == [
        it.key for it in base.unpacked
    ]


def reference_ffdlr_pack(items: Sequence[Item], bins: Sequence[Bin]) -> PackResult:
    """FFDLR with NumPy scans over flat capacity/load arrays: phase 2
    takes the first available entry of a stable capacity order that
    holds a group, and the best fit the first minimum residual that
    holds an item."""
    bins = list(bins)
    result = PackResult(assignment={}, bins=bins, unpacked=[])
    keys = [item.key for item in items]
    if len(set(keys)) != len(keys):
        raise ValueError("duplicate item keys")
    pending = [item for item in items if item.size > 0]
    if not pending:
        return result
    if not bins:
        result.unpacked = list(pending)
        return result

    largest = max(b.capacity for b in bins)
    if largest <= 0:
        result.unpacked = list(pending)
        return result

    oversized = [it for it in pending if it.size > largest + _SLACK]
    packable = [it for it in pending if it.size <= largest + _SLACK]
    groups = _ffd_groups(packable, largest)

    caps = np.array([b.capacity for b in bins], dtype=float)
    loads = np.array([b.load for b in bins], dtype=float)
    order = np.argsort(caps, kind="stable")
    sorted_caps = caps[order]
    avail = np.ones(len(bins), dtype=bool)
    leftovers: List[Item] = list(oversized)
    for group in sorted(groups, key=lambda g: sum(i.size for i in g), reverse=True):
        total = sum(item.size for item in group)
        feasible = avail & (total <= sorted_caps + _SLACK)
        pos = int(np.argmax(feasible)) if feasible.any() else -1
        if pos >= 0:
            avail[pos] = False
            bin_index = int(order[pos])
            chosen = bins[bin_index]
            for item in group:
                chosen.add(item)
                result.assignment[item.key] = chosen.key
            loads[bin_index] = chosen.load
        else:
            leftovers.extend(group)

    for item in sorted(leftovers, key=lambda it: it.size, reverse=True):
        if item.size > largest + _SLACK:
            result.unpacked.append(item)
            continue
        residual = caps - loads
        feasible = np.flatnonzero(item.size <= residual + _SLACK)
        if feasible.size:
            best_index = int(feasible[np.argmin(residual[feasible])])
            best = bins[best_index]
            best.add(item)
            result.assignment[item.key] = best.key
            loads[best_index] = best.load
        else:
            result.unpacked.append(item)

    result.validate()
    return result


@st.composite
def tied_instances(draw, prefill: bool):
    """Items and bin capacities that tie: a few values repeated, sizes
    within ``_SLACK`` of a capacity, zero-size and oversized items,
    and (with ``prefill``) bins that already hold items."""
    values = draw(
        st.lists(
            st.integers(0, 6).map(float)
            | st.floats(0.0, 10.0, allow_nan=False, width=32),
            min_size=1,
            max_size=4,
        )
    )
    capacities = draw(st.lists(st.sampled_from(values), max_size=9))
    near = [
        max(v + k * _SLACK / 4, 0.0) for v in values for k in (-5, -4, -1, 1, 4, 5)
    ]
    pool = values + near + [0.0, max(values) + 1.0]
    sizes = draw(
        st.lists(
            st.sampled_from(pool)
            | st.floats(0.0, 12.0, allow_nan=False)
            | st.builds(
                lambda a, b: a + b, st.sampled_from(values), st.sampled_from(values)
            ),
            max_size=14,
        )
    )
    fills = [
        draw(st.lists(st.sampled_from(pool), max_size=2)) if prefill else []
        for _ in capacities
    ]
    return sizes, capacities, fills


def pack_outcome(case, packer, receivers=False, used_only=False):
    """What ``packer`` did with fresh items and bins built from
    ``case``: the assignment, each bin's contents (only the bins that
    got an item, with ``used_only``) and the unpacked items, by key and
    in order.  If it raised ValueError, the message and each bin's
    contents so far (given receivers, or with ``used_only``, the
    message alone).  A pre-filled item is in no assignment, so
    ``validate()`` raises on every pre-filled bin, after the packing;
    and ``Bin.add`` raises when a group that fits its bin within
    ``_SLACK`` still holds an item smaller than what the slack let in."""
    sizes, capacities, fills = case
    items = [Item(i, s) for i, s in enumerate(sizes)]
    if receivers:
        bins = Receivers(list(range(len(capacities))), list(capacities))
    else:
        bins = [
            Bin(j, c, contents=[Item(("fill", j, k), f) for k, f in enumerate(fill)])
            for j, (c, fill) in enumerate(zip(capacities, fills))
        ]
    try:
        result = packer(items, bins)
    except ValueError as exc:
        if receivers or used_only:
            return str(exc)
        return str(exc), [(b.key, [it.key for it in b.contents]) for b in bins]
    return (
        list(result.assignment.items()),
        [
            (b.key, [it.key for it in b.contents])
            for b in result.bins
            if b.contents or not used_only
        ],
        [it.key for it in result.unpacked],
    )


# Leftover items that two used bins, or a used and an unused bin, hold
# with equal residuals.
TIED_RESIDUALS = [
    ([1.0, 2.0, 3.0, 1.0, 3.0, 5.0], [1.0, 4.0, 5.0], [[], [], []]),
    ([2.0, 1.0, 2.0, 4.0, 2.0], [3.0, 6.0, 3.0, 1.0], [[], [], [], []]),
]


@given(case=tied_instances(prefill=True))
@example(case=TIED_RESIDUALS[0])
@example(case=TIED_RESIDUALS[1])
@settings(max_examples=400, deadline=None)
def test_ffdlr_matches_numpy_reference_on_bins(case):
    """On ``Bin`` lists (pre-filled ones included) the bisect searches
    place every item where the NumPy scans did, in the same order, and
    raise where they raised."""
    expected = pack_outcome(case, reference_ffdlr_pack)
    assert pack_outcome(case, ffdlr_pack) == expected


@given(case=tied_instances(prefill=False))
@example(case=TIED_RESIDUALS[0])
@example(case=TIED_RESIDUALS[1])
@settings(max_examples=400, deadline=None)
def test_ffdlr_matches_numpy_reference_on_receivers(case):
    """On key/capacity lists the result holds a ``Bin`` for exactly the
    receivers that got an item, in caller order, each with the
    reference's contents; the assignment and unpacked order match."""
    expected = pack_outcome(case, reference_ffdlr_pack, used_only=True)
    assert pack_outcome(case, ffdlr_pack, receivers=True) == expected
