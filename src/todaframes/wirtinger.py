"""Finite difference Wirtinger derivatives of fields on the plane.

Convention, used everywhere in this package: the minus derivative is
d/dz (holomorphic direction) and the plus derivative is d/dzbar.  A
holomorphic field therefore has vanishing plus derivative.

Fields are callables of a single complex argument returning scalars or
arrays.  Central differences along the real and imaginary axes combine
into the two Wirtinger directions.  No package code calls them: the
frame and the Toda residuals read exact jets.  The tests use them as the
finite-difference cross-check of those jets.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["DEFAULT_STEP", "d_minus", "d_plus", "memoized"]

DEFAULT_STEP = 1e-4


def d_minus(f: Callable, z: complex, step: float = DEFAULT_STEP):
    """d/dz by central differences."""
    dx = (f(z + step) - f(z - step)) / (2.0 * step)
    dy = (f(z + 1j * step) - f(z - 1j * step)) / (2.0 * step)
    return 0.5 * (dx - 1j * dy)


def d_plus(f: Callable, z: complex, step: float = DEFAULT_STEP):
    """d/dzbar by central differences."""
    dx = (f(z + step) - f(z - step)) / (2.0 * step)
    dy = (f(z + 1j * step) - f(z - 1j * step)) / (2.0 * step)
    return 0.5 * (dx + 1j * dy)


def memoized(f: Callable) -> Callable:
    """Cache field values by evaluation point.

    Nested stencils around one point read the same field values, so a
    finite-difference check builds one memoized field and nests the
    Wirtinger stencils on it.  The cache lives for the lifetime of the
    returned callable.
    """
    cache: dict[complex, object] = {}

    def wrapped(z: complex):
        key = complex(z)
        hit = cache.get(key)
        if hit is None:
            hit = f(key)
            cache[key] = hit
        return hit

    return wrapped
