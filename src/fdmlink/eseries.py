"""Preferred-number (E-series) component value tables and snapping.

Tables are hard-coded standard mantissas so snapping is bit-exact
reproducible across platforms.
"""

from __future__ import annotations

import math

__all__ = ["ESERIES", "snap_eseries", "snap_floor"]

ESERIES: dict[str, tuple[float, ...]] = {
    "E6": (1.0, 1.5, 2.2, 3.3, 4.7, 6.8),
    "E12": (1.0, 1.2, 1.5, 1.8, 2.2, 2.7, 3.3, 3.9, 4.7, 5.6, 6.8, 8.2),
    "E24": (
        1.0, 1.1, 1.2, 1.3, 1.5, 1.6, 1.8, 2.0,
        2.2, 2.4, 2.7, 3.0, 3.3, 3.6, 3.9, 4.3,
        4.7, 5.1, 5.6, 6.2, 6.8, 7.5, 8.2, 9.1,
    ),
}


def _candidates(value: float, series: str) -> list[float]:
    if value <= 0.0 or not math.isfinite(value):
        raise ValueError(f"snapping needs a positive finite value, got {value}")
    try:
        mantissas = ESERIES[series]
    except KeyError:
        raise ValueError(f"unknown E-series {series!r}; use E6, E12 or E24") from None
    exp = math.floor(math.log10(value))
    return [m * 10.0**d for d in (exp - 1, exp, exp + 1) for m in mantissas]


def snap_eseries(value: float, series: str = "E12") -> float:
    """Nearest series member by geometric distance; ties break downward."""
    best = None
    best_d = math.inf
    for c in _candidates(value, series):
        d = abs(math.log10(c / value))
        # strict improvement, or equal distance with a smaller candidate
        if d < best_d - 1e-15 or (abs(d - best_d) <= 1e-15 and best is not None and c < best):
            best, best_d = c, d
    assert best is not None
    return best


def snap_floor(value: float, series: str = "E12") -> float:
    """Largest series member not exceeding ``value``."""
    below = [c for c in _candidates(value, series) if c <= value * (1.0 + 1e-12)]
    return max(below)
