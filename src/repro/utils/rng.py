"""Deterministic random-number management.

Every stochastic step in the library (benchmark generation, netlist
randomization, placement, attacks) accepts an explicit seed or
:class:`random.Random` instance.  This module centralises how seeds are
derived so that experiments are reproducible end to end: the same top-level
seed always produces the same layouts, the same swaps and the same attack
results.
"""

from __future__ import annotations

import hashlib
import random
from typing import Union

SeedLike = Union[int, str, None, random.Random]


def derive_seed(base: Union[int, str], *labels: Union[int, str]) -> int:
    """Derive a stable 63-bit sub-seed from a base seed and a label path.

    The derivation is a SHA-256 hash of the textual representation of the
    base seed and labels, so it is stable across Python versions and
    processes (unlike :func:`hash`).

    >>> derive_seed(1, "placement") == derive_seed(1, "placement")
    True
    >>> derive_seed(1, "placement") != derive_seed(2, "placement")
    True
    """
    text = "/".join(str(part) for part in (base, *labels))
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFF_FFFF_FFFF_FFFF


def make_rng(seed: SeedLike, *labels: Union[int, str]) -> random.Random:
    """Return a :class:`random.Random` for ``seed`` (optionally sub-labelled).

    ``seed`` may be:

    * ``None`` — a non-deterministic RNG is returned;
    * an ``int`` or ``str`` — a deterministic RNG seeded via
      :func:`derive_seed`;
    * an existing :class:`random.Random` — returned unchanged (labels are
      ignored so callers can thread a shared RNG through sub-steps).
    """
    if isinstance(seed, random.Random):
        return seed
    if seed is None:
        return random.Random()
    return random.Random(derive_seed(seed, *labels) if labels else derive_seed(seed))
