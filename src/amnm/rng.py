"""Counter-based random streams.

Every random draw in the package comes from a Philox4x64 generator keyed by
(seed, stream index), so any consumer can be re-run in isolation and results
do not depend on evaluation order or thread scheduling.

The stream index is folded from a tuple of small nonnegative integers:

    fold(i0, i1, i2, ...) = i0 + i1 * 2**20 + i2 * 2**40 + ...

Each component must stay below 2**20 and the folded word below 2**64, so
distinct tuples without trailing zeros get distinct words; both are checked
(``ValueError``).  The Philox key is the pair (seed mod 2**64, fold(indices)).
It reaches Philox through a minimal seed sequence, ``_PhiloxKey``, since
``Philox(key=...)`` would still draw a fresh ``SeedSequence`` from OS entropy
and discard it.  That sequence cannot ``spawn``; no caller spawns streams.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_MASK64 = (1 << 64) - 1
_COMPONENT_BITS = 20


def fold_indices(indices: tuple[int, ...]) -> int:
    word = 0
    for pos, idx in enumerate(indices):
        if idx < 0 or idx >= 1 << _COMPONENT_BITS:
            raise ValueError(f"stream index component out of range: {idx}")
        word |= idx << (pos * _COMPONENT_BITS)
    if word > _MASK64:
        raise ValueError(f"stream indices {tuple(indices)} fold to more than 64 bits")
    return word


class _PhiloxKey:
    """Hands Philox a given key: Philox derives its key from a seed sequence
    as ``generate_state(2, np.uint64)``, so that request returns the key and
    any other raises.

    Registered as numpy's ``ISeedSequence`` at the first stream, not at
    import: that interface lives in ``numpy.random``, which numpy imports on
    first use, and importing it with amnm raised the peak memory of an
    in-process run by about 0.8 MiB and slowed commands that draw nothing."""

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("a Philox key is two 64-bit words")
        return self.key.copy()


def stream(seed: int, *indices: int) -> np.random.Generator:
    """Independent generator for the given (seed, indices) address."""
    key = np.array([seed & _MASK64, fold_indices(indices)], dtype=np.uint64)
    _register_philox_key()
    return np.random.Generator(np.random.Philox(_PhiloxKey(key)))


@cache
def _register_philox_key() -> None:
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_PhiloxKey)


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """Real part, then imaginary part, from one draw: the same stream as two
    ``standard_normal(shape)`` calls."""
    shape = (shape,) if isinstance(shape, (int, np.integer)) else tuple(shape)
    x = rng.standard_normal((2,) + shape)
    return x[0] + 1j * x[1]
