"""Reference values of the single-mode entropy s(x) for ``test_gaussian.py``.

    python tests/kernel_reference.py

Prints s(x) = ((x+1)/2) ln((x+1)/2) - ((x-1)/2) ln((x-1)/2) at the float64
points of ``POINTS``, each taken exactly as its float and evaluated with
800 significant digits by mpmath, then rounded to the nearest float64. The
tests hold the printed values as literals, so they never import mpmath.
"""
from __future__ import annotations

import mpmath

POINTS = (1.0 + 2.0 ** -52, 1.0 + 1e-12, 1.0 + 1e-8, 1.0001, 1.5, 3.0, 99.99, 100.0,
          1e3, 1e10, 1e154, 1e300, 1.7e308)


def entropy(x: float) -> float:
    """s(x) of the float ``x`` in 800-digit arithmetic, rounded once to float64."""
    with mpmath.workdps(800):
        v = (mpmath.mpf(x) - 1) / 2
        return float((v + 1) * mpmath.log(v + 1) - v * mpmath.log(v))


if __name__ == "__main__":
    for x in POINTS:
        print(f"    ({x!r}, {entropy(x)!r}),")
