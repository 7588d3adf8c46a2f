"""Finite difference derivative conventions."""

from __future__ import annotations

import numpy as np

from todaframes.wirtinger import d_minus, d_plus, memoized


class TestConvention:
    def test_minus_is_holomorphic_direction(self):
        f = lambda z: z**3
        z0 = 0.4 - 0.2j
        assert abs(d_minus(f, z0) - 3 * z0**2) < 1e-7
        assert abs(d_plus(f, z0)) < 1e-7

    def test_plus_is_antiholomorphic_direction(self):
        f = lambda z: np.conj(z) ** 2
        z0 = -0.3 + 0.9j
        assert abs(d_plus(f, z0) - 2 * np.conj(z0)) < 1e-7
        assert abs(d_minus(f, z0)) < 1e-7

    def test_modulus_squared(self):
        f = lambda z: z * np.conj(z)
        z0 = 1.1 + 0.7j
        assert abs(d_minus(f, z0) - np.conj(z0)) < 1e-7
        assert abs(d_plus(f, z0) - z0) < 1e-7

    def test_matrix_valued_fields(self):
        f = lambda z: np.array([[z, np.conj(z)], [z * np.conj(z), 1.0]])
        z0 = 0.2 - 0.6j
        dm = d_minus(f, z0)
        assert np.allclose(dm, [[1.0, 0.0], [np.conj(z0), 0.0]], atol=1e-7)
        dp = d_plus(f, z0)
        assert np.allclose(dp, [[0.0, 1.0], [z0, 0.0]], atol=1e-7)


class TestMemoized:
    def test_caches_by_point(self):
        calls = []

        def f(z):
            calls.append(z)
            return z * 2

        g = memoized(f)
        assert g(1 + 1j) == 2 + 2j
        assert g(1 + 1j) == 2 + 2j
        assert len(calls) == 1
        g(2.0)
        assert len(calls) == 2

    def test_derivatives_share_stencil_points(self):
        calls = []

        def f(z):
            calls.append(z)
            return z * np.conj(z)

        g = memoized(f)
        z0 = 0.3 + 0.4j
        d_minus(g, z0)
        before = len(calls)
        d_plus(g, z0)
        # the plus stencil reuses all four minus stencil points
        assert len(calls) == before
