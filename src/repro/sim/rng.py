"""Reproducible named random streams.

Monte-Carlo simulations need *independent* random streams for logically
distinct noise sources (per-server demand, supply variation, placement,
...): otherwise changing how often one source draws perturbs every other
source.  :class:`RandomStreams` derives one :class:`numpy.random.Generator`
per name from a single root seed via ``numpy``'s ``SeedSequence.spawn``
mechanism, so streams are statistically independent and stable across
runs and across the order in which they are first requested.

A fleet creates one stream per VM, tens of thousands at once.
:meth:`RandomStreams.many` creates them in one pass: it runs
``SeedSequence``'s entropy hash for all names of one entropy length in
lock step as ``uint32`` array operations (the hash constants depend
only on the word position) and builds each ``PCG64`` from its four
state words, with no ``SeedSequence`` object per stream.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["RandomStreams"]

#: Domain-separation constant mixed into fork() derivations so a fork
#: can never collide with a named stream of the same root seed.
_FORK_DOMAIN = 0x666F726B  # "fork"

# NumPy's SeedSequence constants (numpy/random/bit_generator.pyx): its
# pool of four uint32 words, the entropy hash (A), the output hash (B)
# and the pool mix.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF
_XSHIFT = np.uint32(16)


def _uint32_words(value: int) -> Optional[np.ndarray]:
    """``value`` as ``SeedSequence`` coerces an int: little-endian
    32-bit words, one zero word for 0; ``None`` when negative."""
    if value < 0:
        return None
    words = [value & 0xFFFFFFFF]
    value >>= 32
    while value:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
    return np.array(words, dtype=np.uint32)


def _padded(name: str) -> bytes:
    """A stream name's entropy bytes: its UTF-8 encoding, NUL-padded by
    its character count to the next multiple of four plus one."""
    return name.encode("utf-8") + b"\x00" * (4 - len(name) % 4 or 4)


def _hash_constants(n: int, init: int, mult: int) -> List[int]:
    """The first ``n + 1`` values of a SeedSequence hash constant."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK32)
    return out


def _state_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for every row
    of a ``(m, L)`` uint32 entropy matrix, as an ``(m, 4)`` array.

    The same word operations as NumPy's ``mix_entropy`` and
    ``generate_state``, with each word a column: every row sees the
    same hash constant at the same position, so the rows hash in lock
    step.  uint32 array arithmetic wraps like NumPy's C code.
    """
    m, length = entropy.shape
    pool = _POOL_SIZE
    n_hashes = pool + pool * (pool - 1) + max(length - pool, 0) * pool
    consts = _hash_constants(n_hashes, _INIT_A, _MULT_A)
    # Hash k xors with constant k and multiplies by constant k + 1.
    steps = iter(zip(consts, consts[1:]))

    def hashmix(value: np.ndarray) -> np.ndarray:
        xor, mult = next(steps)
        value = (value ^ np.uint32(xor)) * np.uint32(mult)
        return value ^ (value >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return result ^ (result >> _XSHIFT)

    zero = np.zeros(m, dtype=np.uint32)
    mixer = [
        hashmix(entropy[:, i] if i < length else zero) for i in range(pool)
    ]
    for src in range(pool):
        for dst in range(pool):
            if src != dst:
                mixer[dst] = mix(mixer[dst], hashmix(mixer[src]))
    for src in range(pool, length):
        for dst in range(pool):
            mixer[dst] = mix(mixer[dst], hashmix(entropy[:, src]))

    state = np.empty((m, 2 * pool), dtype=np.uint32)
    consts = _hash_constants(2 * pool, _INIT_B, _MULT_B)
    for k in range(2 * pool):
        value = (mixer[k % pool] ^ np.uint32(consts[k])) * np.uint32(
            consts[k + 1]
        )
        state[:, k] = value ^ (value >> _XSHIFT)
    # Little-endian word pairs, as generate_state(dtype=np.uint64).
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _StateWords(ISeedSequence):
    """A seed sequence that hands ``PCG64`` precomputed state words.

    ``PCG64`` asks its seed for ``generate_state(4, np.uint64)`` once,
    when it is built; these are the words ``SeedSequence`` would have
    returned, computed for many streams at once by :func:`_state_words`.
    """

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        if n_words != len(self.words) or np.dtype(dtype) != np.uint64:
            raise ValueError(
                f"holds {len(self.words)} uint64 words, asked for "
                f"{n_words} {np.dtype(dtype)}"
            )
        return self.words


class RandomStreams:
    """A family of named, independent random generators.

    Parameters
    ----------
    seed:
        Root seed.  The same ``(seed, name)`` pair always yields a stream
        producing the same sequence.

    Examples
    --------
    >>> streams = RandomStreams(42)
    >>> a = streams["demand/server-0"].integers(0, 10, 3)
    >>> b = RandomStreams(42)["demand/server-0"].integers(0, 10, 3)
    >>> (a == b).all()
    np.True_
    """

    def __init__(self, seed: int = 0):
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self.seed = int(seed)
        self._generators: Dict[str, np.random.Generator] = {}
        self._seed_words = _uint32_words(self.seed)

    def __getitem__(self, name: str) -> np.random.Generator:
        """Return (creating if needed) the generator for ``name``.

        The stream's entropy is the root seed followed by one word per
        byte of the NUL-padded UTF-8 name, so stream identity does not
        depend on creation order.  The words are handed to
        ``SeedSequence`` as one ``uint32`` array, which NumPy adopts as
        is (a Python list is coerced element by element, the dominant
        cost of creating a stream).
        """
        if name not in self._generators:
            entropy = np.concatenate(
                (
                    self._checked_seed_words(),
                    np.frombuffer(_padded(name), dtype=np.uint8).astype(
                        np.uint32
                    ),
                )
            )
            self._generators[name] = np.random.default_rng(
                np.random.SeedSequence(entropy)
            )
        return self._generators[name]

    def many(self, names: Sequence[str]) -> List[np.random.Generator]:
        """The generators for ``names``, in order, creating the missing
        ones in one pass.

        Each stream equals the one :meth:`__getitem__` creates for its
        name; the missing names are created in request order, so
        :meth:`state_dict` lists them as one-by-one creation would.
        Names of one entropy length hash together (:func:`_state_words`)
        and each ``PCG64`` starts from its words, which makes a stream
        several times cheaper to create than through ``SeedSequence``.
        """
        generators = self._generators
        missing = [
            name for name in dict.fromkeys(names) if name not in generators
        ]
        if missing:
            seed_words = self._checked_seed_words()
            padded = [_padded(name) for name in missing]
            words = np.empty((len(missing), _POOL_SIZE), dtype=np.uint64)
            by_length: Dict[int, List[int]] = {}
            for k, entropy in enumerate(padded):
                by_length.setdefault(len(entropy), []).append(k)
            for length, rows in by_length.items():
                entropy = np.empty(
                    (len(rows), len(seed_words) + length), dtype=np.uint32
                )
                entropy[:, : len(seed_words)] = seed_words
                entropy[:, len(seed_words) :] = np.frombuffer(
                    b"".join([padded[k] for k in rows]), dtype=np.uint8
                ).reshape(len(rows), length)
                words[rows] = _state_words(entropy)
            for name, row in zip(missing, words):
                generators[name] = np.random.Generator(
                    np.random.PCG64(_StateWords(row))
                )
        return [generators[name] for name in names]

    def _checked_seed_words(self) -> np.ndarray:
        if self._seed_words is None:
            raise ValueError(f"expected a non-negative seed, got {self.seed}")
        return self._seed_words

    def __contains__(self, name: str) -> bool:
        return name in self._generators

    def __len__(self) -> int:
        return len(self._generators)

    def fork(self, salt: int) -> "RandomStreams":
        """A new family with a seed derived from this one and ``salt``.

        Useful for replications: ``streams.fork(i)`` for replicate ``i``.

        The child seed is ``SeedSequence([root, _FORK_DOMAIN, salt])``
        collapsed to one 32-bit word — a documented, process-independent
        contract (unlike Python's ``hash``, which is neither specified
        nor stable for serialization purposes).
        """
        sequence = np.random.SeedSequence([self.seed, _FORK_DOMAIN, int(salt)])
        return RandomStreams(int(sequence.generate_state(1, dtype=np.uint32)[0]))

    def state_dict(self) -> Dict[str, Any]:
        """Serializable snapshot: root seed plus every realised stream.

        Only streams that have actually been requested are captured;
        restoring recreates them by name and overwrites their
        ``bit_generator.state``, so draws continue bit-exactly from the
        snapshot point.
        """
        return {
            "seed": self.seed,
            "streams": {
                name: gen.bit_generator.state
                for name, gen in self._generators.items()
            },
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore a :meth:`state_dict` snapshot in place.

        Generator objects are preserved (state is written through
        ``bit_generator.state``), so external references to a stream —
        e.g. a sensor bank holding ``streams["sensor-noise"]`` — observe
        the restored state without rebinding.  Missing streams are
        created in one pass (:meth:`many`), in snapshot order.
        """
        if int(state["seed"]) != self.seed:
            raise ValueError(
                f"stream snapshot was taken with seed {state['seed']}, "
                f"cannot restore into a family seeded with {self.seed}"
            )
        streams = state["streams"]
        for generator, generator_state in zip(
            self.many(list(streams)), streams.values()
        ):
            generator.bit_generator.state = generator_state
