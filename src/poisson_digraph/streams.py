"""Deterministic random streams keyed by (seed, purpose tags).

Every stochastic operation in this package draws from its own Philox
(counter-based) stream derived from a user seed plus purpose tags.  Streams
for different tag tuples are statistically independent, and the mapping from
(seed, tags) to the stream is stable across runs, platforms and thread
counts, so any operation is bitwise reproducible for a fixed seed.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["stream", "derive_seed"]


def _tag_to_int(tag: str | int) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag)
    # stable across processes, unlike hash()
    digest = hashlib.sha256(str(tag).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def stream(seed: int, *tags: str | int) -> np.random.Generator:
    """Return an independent Generator for (seed, tags).

    Parameters
    ----------
    seed : int
        Base seed, any Python integer.
    *tags : str or int
        Purpose tags, e.g. ``stream(seed, "fast")`` for the arc sampler or
        ``stream(seed, "evolve", 101)`` for one growth step.
    """
    entropy = (int(seed) & 0xFFFFFFFFFFFFFFFF, *(_tag_to_int(t) for t in tags))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def derive_seed(seed: int, *tags: str | int) -> int:
    """A fresh integer seed deterministically derived from (seed, tags).

    Used to key whole sub-experiments (for example one replicate of a
    larger study) whose internals then derive their own tagged streams.
    """
    entropy = (int(seed) & 0xFFFFFFFFFFFFFFFF, *(_tag_to_int(t) for t in tags))
    state = np.random.SeedSequence(entropy).generate_state(2, np.uint64)
    return (int(state[0]) ^ (int(state[1]) << 1)) & 0x7FFFFFFFFFFFFFFF

