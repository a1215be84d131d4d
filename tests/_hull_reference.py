"""Reference monotone chain for the 2D hull view: turns on numpy scalars.

This is the chain ``repro.views.hull2d`` ran before its turns moved to
Python floats, kept here as the oracle with its turns and pops
unchanged (it charges no work): the library's chain must return the
same index list on every lex-sorted distinct input.
"""

from __future__ import annotations

import numpy as np


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def reference_chain(p: np.ndarray) -> list[int]:
    """Monotone chain over lex-sorted distinct coords (``<= 0`` pops)."""
    n = len(p)
    if n <= 2:
        return list(range(n))
    lower: list[int] = []
    for i in range(n):
        while len(lower) >= 2 and _cross(p[lower[-2]], p[lower[-1]], p[i]) <= 0:
            lower.pop()
        lower.append(i)
    upper: list[int] = []
    for i in range(n - 1, -1, -1):
        while len(upper) >= 2 and _cross(p[upper[-2]], p[upper[-1]], p[i]) <= 0:
            upper.pop()
        upper.append(i)
    return lower[:-1] + upper[:-1]
