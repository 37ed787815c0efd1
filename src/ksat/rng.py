"""Portable, documented randomness.

All randomness in this package is derived from ``random.Random`` (the
Mersenne Twister) seeded with a 64-bit unsigned integer, and only through
``getrandbits``. ``getrandbits`` output is a fixed function of the seed on
every platform and Python version, so every operation in this package is
bit-reproducible from its seed. The derivations below (rejection sampling,
partial Fisher-Yates, 53-bit floats) are part of the package contract and
must not be swapped for stdlib conveniences like ``randrange`` or
``sample``, whose internals are not guaranteed stable.
"""

from __future__ import annotations

import random

from .errors import UsageError

Rng = random.Random


def make_rng(seed: int) -> Rng:
    """New generator from a 64-bit unsigned seed."""
    if not 0 <= seed < 2**64:
        raise UsageError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return random.Random(seed)


def as_rng(seed_or_rng: int | Rng) -> Rng:
    """Pass through an existing generator, or seed a fresh one."""
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    return make_rng(seed_or_rng)


def rand_below(rng: Rng, n: int) -> int:
    """Uniform integer in [0, n) by rejection on the minimal bit width."""
    if n <= 0:
        raise ValueError(f"rand_below needs n >= 1, got {n}")
    if n == 1:
        return 0
    k = (n - 1).bit_length()
    while True:
        r = rng.getrandbits(k)
        if r < n:
            return r


def rand_bit(rng: Rng) -> int:
    return rng.getrandbits(1)


def rand_float(rng: Rng) -> float:
    """Uniform float in [0, 1) with 53-bit resolution."""
    return rng.getrandbits(53) / 9007199254740992.0


def sample_without_replacement(rng: Rng, n: int, k: int) -> list[int]:
    """k distinct values from 1..n, uniform over k-subsets (partial Fisher-Yates).

    The returned order is the selection order, not sorted.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    # the pool 1..n is implicit: position p holds p + 1 unless a swap moved
    # another value there, so a draw costs O(k) whatever n is
    moved = {}
    out = []
    for i in range(k):
        j = i + rand_below(rng, n - i)
        out.append(moved.get(j, j + 1))
        moved[j] = moved.get(i, i + 1)
    return out


def subsample(rng: Rng, items: list, k: int) -> list:
    """k distinct elements of `items`, uniform over k-subsets, selection order."""
    idx = sample_without_replacement(rng, len(items), k)
    return [items[i - 1] for i in idx]


def spawn_seed(rng: Rng) -> int:
    """Derive an independent 63-bit child seed from a master stream."""
    return rng.getrandbits(63)
