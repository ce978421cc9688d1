"""Deterministic derivation of independent random streams.

Every stochastic component (per-node destination permutations, arbitration
tie-breaks, ...) derives its own :class:`numpy.random.Generator` from a
single experiment seed plus a structured key, so results are reproducible
regardless of the order in which components draw.  Seeded shuffles are
memoized per process (:func:`shuffled_others`).
"""

from __future__ import annotations

import zlib
from typing import Union

import numpy as np

KeyPart = Union[int, str]


def derive_seed(seed: int, *key: KeyPart) -> int:
    """Derive a child seed from *seed* and a structured *key*.

    The key parts (ints or strings) are folded through CRC32 so that
    ("node", 12) and ("node", 21) give unrelated child seeds.  Stable across
    runs and platforms.
    """
    h = zlib.crc32(repr(int(seed)).encode())
    for part in key:
        h = zlib.crc32(repr(part).encode(), h)
    return h & 0x7FFFFFFF


def derive_rng(seed: int, *key: KeyPart) -> np.random.Generator:
    """Return an independent ``Generator`` for (*seed*, *key*).

    Uses ``SeedSequence`` spawned from the derived child seed, giving
    high-quality independent streams.
    """
    return np.random.default_rng(np.random.SeedSequence(derive_seed(seed, *key)))


#: Most indices the permutation memo holds, summed over its entries: at
#: 1,024 nodes, 128 destination orders of 1,023 ranks, about 4 MB.
PERMUTATION_MEMO_INTS = 1 << 17

#: (seed, key, node, extent) -> shuffled index order, oldest first.
_permutations: dict[tuple, tuple[int, ...]] = {}
_memo_ints = 0


def shuffled_others(
    seed: int, key: str, node: int, extent: int, skip: int
) -> list[int]:
    """``range(extent)`` without *skip*, in the order
    ``derive_rng(seed, key, node).shuffle`` leaves that list.

    The shuffle's swaps depend on the random stream and the list's
    length alone, so the index order it leaves is a function of (seed,
    key, node, extent).  Deriving a generator costs ~20 us, and a sweep
    asks for the same order once per strategy and message size, so the
    order is memoized per process, evicting the oldest entries past
    :data:`PERMUTATION_MEMO_INTS` indices.
    """
    global _memo_ints
    memo_key = (seed, key, node, extent)
    perm = _permutations.get(memo_key)
    if perm is None:
        n = extent - 1
        order = np.arange(n)
        derive_rng(seed, key, node).shuffle(order)
        perm = tuple(order.tolist())
        if 0 < n <= PERMUTATION_MEMO_INTS:
            while _memo_ints + n > PERMUTATION_MEMO_INTS:
                oldest = next(iter(_permutations))
                _memo_ints -= len(_permutations.pop(oldest))
            _permutations[memo_key] = perm
            _memo_ints += n
    return [j + (j >= skip) for j in perm]
