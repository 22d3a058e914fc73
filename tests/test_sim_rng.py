"""Tests for reproducible named random streams."""

import numpy as np
import pytest

from repro.sim import RandomStreams


def test_same_seed_same_stream():
    a = RandomStreams(42)["demand"].random(10)
    b = RandomStreams(42)["demand"].random(10)
    assert np.array_equal(a, b)


def test_different_names_different_streams():
    streams = RandomStreams(42)
    a = streams["demand"].random(100)
    b = streams["supply"].random(100)
    assert not np.array_equal(a, b)


def test_different_seeds_different_streams():
    a = RandomStreams(1)["x"].random(50)
    b = RandomStreams(2)["x"].random(50)
    assert not np.array_equal(a, b)


def test_stream_identity_independent_of_creation_order():
    forward = RandomStreams(7)
    _ = forward["alpha"].random(3)
    first = forward["beta"].random(5)

    backward = RandomStreams(7)
    second = backward["beta"].random(5)
    assert np.array_equal(first, second)


def test_stream_is_cached():
    streams = RandomStreams(0)
    assert streams["a"] is streams["a"]


def test_contains_and_len():
    streams = RandomStreams(0)
    assert "x" not in streams
    _ = streams["x"]
    assert "x" in streams
    assert len(streams) == 1


def test_seed_must_be_int():
    with pytest.raises(TypeError):
        RandomStreams("not-an-int")


#: UTF-8 lengths 4..8 cover every padding length (4, 3, 2, 1 NULs);
#: "grüße" pads by its character count, not its byte count.
PINNED_NAMES = ("abcd", "vm-12", "demand", "vm-1234", "grüße")


@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32 + 5, 2**70 + 3])
def test_stream_derivation_is_pinned(seed):
    """Each stream is seeded by ``SeedSequence([seed, *padded name
    bytes])`` -- the list form, whatever the implementation hands
    NumPy -- so every recorded run keeps its demand sequence.  The
    batch path (``many``) creates the same streams, hashing names of
    one entropy length together and mixed lengths in one call."""
    names = PINNED_NAMES + ("vm-9", "vm-10")
    batch = RandomStreams(seed).many(names)
    for k, name in enumerate(names):
        padded = name.encode("utf-8") + b"\x00" * (4 - len(name) % 4 or 4)
        reference = np.random.default_rng(
            np.random.SeedSequence([seed, *padded])
        )
        single = RandomStreams(seed)[name]
        for stream in (single, batch[k]):
            assert (
                stream.bit_generator.state == reference.bit_generator.state
            ), name
        draws = reference.random(4)
        assert np.array_equal(single.random(4), draws), name
        assert np.array_equal(batch[k].random(4), draws), name


def test_batch_keeps_request_order_and_existing_streams():
    """Mixed single-name and batch creation lists streams in request
    order, and a batch call returns, never recreates, an existing
    stream."""
    streams = RandomStreams(4)
    held = streams["b"]
    _ = held.random(3)
    state = held.bit_generator.state
    got = streams.many(["a", "b", "c", "a"])
    assert got[1] is held and got[0] is got[3]
    assert held.bit_generator.state == state
    _ = streams["d"]
    streams.many(["e", "c"])
    assert list(streams.state_dict()["streams"]) == ["b", "a", "c", "d", "e"]
    assert streams.many([]) == []


def test_load_state_dict_creates_missing_streams_in_snapshot_order():
    source = RandomStreams(8)
    source.many(["x", "y"])
    _ = source["z"].random(2)
    target = RandomStreams(8)
    held = target["y"]
    target.load_state_dict(source.state_dict())
    assert target["y"] is held
    assert list(target.state_dict()["streams"]) == ["y", "x", "z"]
    assert target.state_dict() == source.state_dict()


def test_negative_seed_rejected_on_first_stream():
    streams = RandomStreams(-3)
    with pytest.raises(ValueError):
        streams["x"]
    with pytest.raises(ValueError):
        streams.many(["x"])


def test_fork_changes_streams_deterministically():
    base = RandomStreams(9)
    fork_a = base.fork(1)["w"].random(5)
    fork_b = RandomStreams(9).fork(1)["w"].random(5)
    assert np.array_equal(fork_a, fork_b)
    assert not np.array_equal(fork_a, base["w"].random(5))


def test_fork_seed_derivation_is_pinned():
    # SeedSequence-based derivation is a documented serialization
    # contract: these exact values must never change between releases.
    assert RandomStreams(9).fork(1).seed == 1494730845
    assert RandomStreams(0).fork(0).seed == 74991045
    assert RandomStreams(42).fork(3).seed == 2929963353
    assert RandomStreams(9).fork(1)["w"].integers(0, 1000, 4).tolist() == [
        296,
        65,
        901,
        477,
    ]


def test_fork_salts_are_distinct():
    base = RandomStreams(7)
    seeds = {base.fork(i).seed for i in range(64)}
    assert len(seeds) == 64


def test_fork_does_not_collide_with_named_streams():
    base = RandomStreams(5)
    fork_draw = base.fork(0)["x"].random(8)
    named_draw = RandomStreams(5)["x"].random(8)
    assert not np.array_equal(fork_draw, named_draw)


def test_state_dict_round_trip_resumes_bit_exactly():
    streams = RandomStreams(21)
    _ = streams["demand"].random(17)
    _ = streams["noise"].standard_normal(5)
    state = streams["demand"].bit_generator.state  # advance asymmetrically
    del state

    snapshot = streams.state_dict()
    expected_a = streams["demand"].random(9)
    expected_b = streams["noise"].standard_normal(9)

    restored = RandomStreams(21)
    restored.load_state_dict(snapshot)
    assert np.array_equal(restored["demand"].random(9), expected_a)
    assert np.array_equal(restored["noise"].standard_normal(9), expected_b)


def test_load_state_dict_preserves_generator_identity():
    streams = RandomStreams(3)
    held = streams["sensor-noise"]
    _ = held.random(4)
    snapshot = streams.state_dict()
    _ = held.random(4)

    streams.load_state_dict(snapshot)
    # The externally held reference must observe the restored state.
    fresh = RandomStreams(3)
    fresh.load_state_dict(snapshot)
    assert np.array_equal(held.random(6), fresh["sensor-noise"].random(6))


def test_load_state_dict_rejects_foreign_seed():
    snapshot = RandomStreams(1).state_dict()
    with pytest.raises(ValueError, match="seed"):
        RandomStreams(2).load_state_dict(snapshot)


def test_state_dict_only_captures_realised_streams():
    streams = RandomStreams(11)
    _ = streams["only"]
    assert set(streams.state_dict()["streams"]) == {"only"}


def test_streams_statistically_distinct():
    # Crude independence check: correlation between two long streams
    # should be near zero.
    streams = RandomStreams(1234)
    a = streams["one"].standard_normal(20_000)
    b = streams["two"].standard_normal(20_000)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.05
