"""Finite difference Wirtinger derivatives of fields on the plane.

Convention, used everywhere in this package: the minus derivative is
d/dz (holomorphic direction) and the plus derivative is d/dzbar.  A
holomorphic field therefore has vanishing plus derivative.

Fields are callables of a single complex argument returning scalars or
arrays.  Central differences along the real and imaginary axes combine
into the two Wirtinger directions, and the mixed second derivative uses
the five point Laplacian, exact for quadratics and accurate to second
order for smooth fields.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["DEFAULT_STEP", "d_minus", "d_plus", "d_plus_d_minus", "memoized"]

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


def d_plus_d_minus(f: Callable, z: complex, step: float = DEFAULT_STEP):
    """Mixed derivative d/dzbar d/dz, a quarter of the Laplacian."""
    lap = (
        f(z + step) + f(z - step) + f(z + 1j * step) + f(z - 1j * step) - 4.0 * f(z)
    ) / (step * step)
    return 0.25 * lap


def memoized(f: Callable) -> Callable:
    """Cache field values by evaluation point.

    Several stencils around one point read the same field values: the
    frame checks of a grid point build one memoized field and reuse it
    for the point's own data, the frame equations and the potential
    identity.  Stencils around different grid points share no values
    unless the grid spacing is as small as the step.  The cache lives for
    the lifetime of the returned callable.
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
