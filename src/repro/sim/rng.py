"""Reproducible named random streams.

Monte-Carlo simulations need *independent* random streams for logically
distinct noise sources (per-server demand, supply variation, placement,
...): otherwise changing how often one source draws perturbs every other
source.  :class:`RandomStreams` derives one :class:`numpy.random.Generator`
per name from a single root seed via ``numpy``'s ``SeedSequence.spawn``
mechanism, so streams are statistically independent and stable across
runs and across the order in which they are first requested.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

__all__ = ["RandomStreams"]

#: Domain-separation constant mixed into fork() derivations so a fork
#: can never collide with a named stream of the same root seed.
_FORK_DOMAIN = 0x666F726B  # "fork"


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
            if self._seed_words is None:
                raise ValueError(
                    f"expected a non-negative seed, got {self.seed}"
                )
            padded = name.encode("utf-8") + b"\x00" * (4 - len(name) % 4 or 4)
            entropy = np.concatenate(
                (
                    self._seed_words,
                    np.frombuffer(padded, dtype=np.uint8).astype(np.uint32),
                )
            )
            self._generators[name] = np.random.default_rng(
                np.random.SeedSequence(entropy)
            )
        return self._generators[name]

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
        the restored state without rebinding.
        """
        if int(state["seed"]) != self.seed:
            raise ValueError(
                f"stream snapshot was taken with seed {state['seed']}, "
                f"cannot restore into a family seeded with {self.seed}"
            )
        for name, generator_state in state["streams"].items():
            self[name].bit_generator.state = generator_state
