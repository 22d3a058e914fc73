"""Property-based tests for the packers (hypothesis).

The headline check is FFDLR's published guarantee: no more than
(3/2) OPT + 1 bins on equal-capacity instances (Friesen & Langston),
verified against the exhaustive optimum on small instances.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.binpack import (
    Bin,
    Item,
    best_fit_decreasing,
    feasible_exact,
    ffd_bin_count,
    ffdlr_pack,
    first_fit,
    first_fit_decreasing,
    optimal_bin_count,
    worst_fit,
)

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
