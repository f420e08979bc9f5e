"""One-shot degradation warnings.

The execution layer's resilience contract (PR 5) is "never degrade
silently": whenever a batched or vectorized build path falls back to a
slower loop-based path, the reason must surface on the ``repro`` logger
exactly once per process — loud enough to notice, quiet enough not to spam
a sweep that hits the same fallback thousands of times.

Callers pick a stable ``key`` describing the degradation site (and, where
useful, the reason), so distinct fallbacks each warn once while repeats of
the same one stay silent.
"""

from __future__ import annotations

import logging
from typing import Set

_emitted: Set[str] = set()


def warn_once(logger: logging.Logger, key: str, message: str) -> bool:
    """Log ``message`` as a warning the first time ``key`` is seen.

    Returns True when the warning was emitted, False when ``key`` had
    already fired (the call is then a no-op).
    """
    if key in _emitted:
        return False
    _emitted.add(key)
    logger.warning(message)
    return True

