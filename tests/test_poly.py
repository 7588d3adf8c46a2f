"""Exact polynomial algebra and the constant rank machinery."""

from __future__ import annotations

import struct
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from todaframes.errors import NotConstantRank, ZeroFunction
from todaframes.poly import (
    GaussianRational,
    Poly,
    PolyMatrix,
    adjoin_columns,
    constant_rank_reduce,
    factor_zeros,
    minor_gcd,
    poly_gcd,
    poly_gcd_many,
)

Z = Poly.x()
ONE = Poly.one()


def col(*entries) -> PolyMatrix:
    return PolyMatrix.column(entries)


def numeric_rank_everywhere(columns, points, tol=1e-8):
    """Smallest numeric rank of the stacked columns over the sample points."""
    m = PolyMatrix.from_columns(columns)
    ranks = []
    for z in points:
        vals = m.evaluate(z)
        s = np.linalg.svd(vals, compute_uv=False)
        ranks.append(int(np.sum(s > tol * max(1.0, s[0]))))
    return min(ranks)


def spot_points(rng, count=20, radius=2.0):
    pts = rng.uniform(-radius, radius, size=(count, 2))
    return [complex(a, b) for a, b in pts]


class TestGaussianRational:
    def test_field_operations(self):
        a = GaussianRational(Fraction(1, 2), 1)
        b = GaussianRational(0, Fraction(-1, 3))
        assert a + b == GaussianRational(Fraction(1, 2), Fraction(2, 3))
        assert a * b == GaussianRational(Fraction(1, 3), Fraction(-1, 6))
        assert (a / b) * b == a
        assert a - a == GaussianRational()

    def test_division_is_exact(self):
        a = GaussianRational(3, 4)
        inv = GaussianRational(1) / a
        assert a * inv == GaussianRational(1)
        assert inv == GaussianRational(Fraction(3, 25), Fraction(-4, 25))

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            GaussianRational(1) / GaussianRational()

    def test_conjugate_and_complex(self):
        a = GaussianRational(2, -5)
        assert a.conjugate() == GaussianRational(2, 5)
        assert a.to_complex() == 2 - 5j

    def test_immutable(self):
        a = GaussianRational(1)
        with pytest.raises(AttributeError):
            a.re = Fraction(2)


class TestPoly:
    def test_normalization_strips_trailing_zeros(self):
        assert Poly.of(1, 2, 0, 0) == Poly.of(1, 2)
        assert Poly.of(0, 0).is_zero
        assert Poly().degree == -1

    def test_ring_operations(self):
        p = Poly.of(1, 1)
        q = Poly.of(-1, 1)
        assert p * q == Poly.of(-1, 0, 1)
        assert p + q == Poly.of(0, 2)
        assert p - p == Poly()

    def test_divmod_exact(self):
        p = Poly.of(-1, 0, 0, 1)
        q, r = divmod(p, Poly.of(-1, 1))
        assert r.is_zero
        assert q == Poly.of(1, 1, 1)
        with pytest.raises(ValueError):
            Poly.of(1, 1).exact_div(Z)

    def test_gcd_is_monic(self):
        p = Poly.of(0, 0, 2)
        q = Poly.of(0, 3)
        assert poly_gcd(p, q) == Z
        assert poly_gcd(Poly(), Poly()) == Poly()
        assert poly_gcd(p, Poly.of(5)) == ONE

    def test_derivative(self):
        p = Poly.of(7, 0, 3, 2)
        assert p.derivative() == Poly.of(0, 6, 6)
        assert ONE.derivative().is_zero

    def test_squarefree_part(self):
        p = Z * Z * Poly.of(-1, 1)
        assert p.squarefree_part() == Z * Poly.of(-1, 1)
        assert Poly.of(4).squarefree_part() == ONE

    def test_evaluate_matches_exact(self):
        p = Poly.of(GaussianRational(1, 2), GaussianRational(0, -1), 3)
        z = GaussianRational(Fraction(1, 3), Fraction(-1, 7))
        exact = GaussianRational()
        for c in reversed(p.coeffs):
            exact = exact * z + c
        approx = PolyMatrix([[p]]).evaluate(z.to_complex())[0, 0]
        assert abs(exact.to_complex() - approx) < 1e-14

    def test_conjugate_coeffs_semantics(self):
        p = Poly.of(GaussianRational(1, 2), GaussianRational(0, 1))
        z = 0.3 - 0.8j
        q = PolyMatrix([[p.conjugate_coeffs()]]).evaluate(np.conj(z))
        assert abs(q[0, 0] - np.conj(PolyMatrix([[p]]).evaluate(z)[0, 0])) < 1e-14


class TestPolyMatrix:
    def test_entry_coercion(self):
        m = PolyMatrix([[1, [0, 1]], [[GaussianRational(0, 1)], Fraction(1, 2)]])
        assert m.entry(0, 0) == ONE
        assert m.entry(0, 1) == Z
        assert m.entry(1, 0) == Poly.of(GaussianRational(0, 1))
        assert m.entry(1, 1) == Poly.of(Fraction(1, 2))
        # a pair is not a complex coefficient: (1, 4) is neither 1 + 4i nor 1/4
        for bad in ([[[1, (1, 4)]]], [[[[1, 4]]]]):
            with pytest.raises(TypeError, match="coefficient"):
                PolyMatrix(bad)
        with pytest.raises(TypeError, match="coefficient"):
            Poly.of((0, 1))

    def test_matmul_and_identity(self):
        m = PolyMatrix([[1, [0, 1]], [0, 1]])
        assert PolyMatrix.identity(2) @ m == m
        sq = m @ m
        assert sq.entry(0, 1) == Poly.of(0, 2)

    def test_evaluate_many_matches_pointwise(self):
        m = PolyMatrix([[[1, 0, 1], [0, GaussianRational(0, 1)]], [[GaussianRational(2, -1)], 0]])
        pts = np.array([0.1 + 0.2j, -1.5j, 2.0])
        batched = m.evaluate(pts)
        assert batched.shape == (3, 2, 2)
        for k, z in enumerate(pts):
            assert batched[k].tobytes() == m.evaluate(z).tobytes()

    def test_conjugate_transpose_semantics(self):
        m = PolyMatrix([[[1, GaussianRational(0, 1)], 2], [[0, 0, 1], [GaussianRational(0, -3)]]])
        q = m.conjugate_transpose()
        z = 0.7 + 0.25j
        assert np.allclose(q.evaluate(np.conj(z)), m.evaluate(z).conj().T, atol=1e-14)

    def test_det_bareiss(self):
        m = PolyMatrix([[1, [0, 1]], [[0, 1], [0, 0, 1]]])
        assert m.det() == Poly()
        m2 = PolyMatrix([[[0, 1], 1], [1, 0]])
        assert m2.det() == Poly.of(-1)
        m3 = PolyMatrix([[1, 2, 3], [[0, 1], 1, 0], [0, [0, 0, 1], 1]])
        brute = sum(
            sign * m3.entry(0, p[0]) * m3.entry(1, p[1]) * m3.entry(2, p[2])
            for sign, p in [
                (1, (0, 1, 2)), (-1, (0, 2, 1)), (-1, (1, 0, 2)),
                (1, (1, 2, 0)), (1, (2, 0, 1)), (-1, (2, 1, 0)),
            ]
        )
        assert m3.det() == brute

    def test_from_columns(self):
        c0, c1 = col(1, Z), col(0, 1)
        m = PolyMatrix.from_columns([c0, c1])
        assert m.shape == (2, 2)
        assert m.column_at(0) == c0 and m.column_at(1) == c1


def random_gaussian_poly(rng, degree) -> Poly:
    """Random Gaussian rational coefficients; degree -1 is the zero polynomial."""
    coeffs = [
        GaussianRational(
            Fraction(int(rng.integers(-60, 61)), int(rng.integers(1, 40))),
            Fraction(int(rng.integers(-60, 61)), int(rng.integers(1, 40))),
        )
        for _ in range(degree + 1)
    ]
    if coeffs and coeffs[-1].is_zero:
        coeffs[-1] = GaussianRational(1)
    return Poly(coeffs)


def reference_evaluate(p: Poly, z) -> complex:
    """Horner's rule in Python complex arithmetic at one point."""
    z, acc = complex(z), 0j
    for c in reversed(p.coeffs):
        acc = acc * z + c.to_complex()
    return acc


def reference_matrix(m: PolyMatrix, z) -> np.ndarray:
    return np.array([[reference_evaluate(e, z) for e in row] for row in m.entries], dtype=complex)


def bits(z) -> bytes:
    z = complex(z)
    return struct.pack("<dd", z.real, z.imag)


EVAL_POINTS = (0.0, 1.0, -0.37, 2.5, 1e-3, 0.3 + 0.7j, -1.2 - 0.45j, 1e-3j, 1 / 3 + 2j, np.complex128(0.6 - 0.2j))


class TestNumericEvaluation:
    """One kernel: a point alone and a point in an array round as Python
    complex Horner does, bit for bit."""

    def test_evaluate_is_bit_identical_to_reference(self):
        rng = np.random.default_rng(2024)
        polys = [Poly(), Poly.one(), Poly.of(Fraction(-2, 3)), Poly.of(GaussianRational(0, 1))]
        polys += [random_gaussian_poly(rng, d) for d in range(7) for _ in range(4)]
        pts = np.array([complex(z) for z in EVAL_POINTS])
        for p in polys:
            m = PolyMatrix([[p]])
            batched = m.evaluate(pts)
            for k, z in enumerate(EVAL_POINTS):
                expected = bits(reference_evaluate(p, z))
                assert bits(m.evaluate(z)[0, 0]) == expected
                assert bits(batched[k, 0, 0]) == expected

    def test_matrix_evaluation_is_bit_identical_to_reference(self):
        rng = np.random.default_rng(2025)
        for rows, cols in ((1, 1), (3, 2), (2, 4)):
            m = PolyMatrix(
                [[random_gaussian_poly(rng, int(rng.integers(-1, 7))) for _ in range(cols)] for _ in range(rows)]
            )
            pts = np.array([complex(z) for z in EVAL_POINTS])
            batched = m.evaluate(pts)
            assert batched.shape == (len(EVAL_POINTS), rows, cols)
            grid = m.evaluate(pts.reshape(2, 5))  # point axes first
            assert grid.tobytes() == batched.tobytes()
            for k, z in enumerate(EVAL_POINTS):
                expected = reference_matrix(m, z).tobytes()
                assert m.evaluate(z).tobytes() == expected
                assert batched[k].tobytes() == expected

    def test_overflow_is_silent_and_matches_python(self):
        # Python complex arithmetic overflows to inf without an error or a
        # warning, and so does the kernel; warnings are errors in this suite
        m = PolyMatrix([[[1, 0, 1], [0, GaussianRational(1, 1)]], [[Fraction(1, 3), 1, 1, 1], 0]])
        for z in (1e200, 1e200j, -3e155 + 2e160j):
            expected = reference_matrix(m, z)
            assert not np.isfinite(expected).all()
            np.testing.assert_array_equal(m.evaluate(z), expected)
            np.testing.assert_array_equal(m.evaluate(np.array([z, 0.5]))[0], expected)


class TestFactorZeros:
    def test_common_factor_z(self):
        g, d = factor_zeros(col(Z, Z * Z))
        assert g == col(1, Z)
        assert d == Z

    def test_shifted_factor(self):
        g, d = factor_zeros(col(Z * Z - Z, Z * Z))
        assert g == col(Poly.of(-1, 1), Z)
        assert d == Z

    def test_no_common_zero(self):
        f = col(1, Z)
        g, d = factor_zeros(f)
        assert g == f and d == ONE

    def test_zero_column_raises(self):
        with pytest.raises(ZeroFunction):
            factor_zeros(col(0, 0))


def reduce_and_check_cauchy_binet(fs):
    """constant_rank_reduce, checked against the minors of the input.

    By Cauchy-Binet the r by r minors of fs = gs d, r = len(gs), are the
    maximal minors of gs times the r by r minors of d, so their gcd, the
    rank drop, is the minor gcd of the rows of d.  d is the identity
    exactly when the input has constant rank.
    """
    gs, d = constant_rank_reduce(fs)
    r = len(gs)
    reference = poly_gcd_many(minor_gcd(list(s)) for s in combinations(fs, r))
    assert minor_gcd([PolyMatrix.column(row) for row in d.entries]) == reference
    assert (d == PolyMatrix.identity(len(fs))) == (minor_gcd(fs) == ONE)
    return gs, d


class TestConstantRankReduce:
    def test_single_column(self):
        gs, d = reduce_and_check_cauchy_binet([col(Z, Z * Z)])
        assert gs == [col(1, Z)]
        assert d == PolyMatrix([[Z]])

    def test_one_column_reads_no_determinant(self, monkeypatch):
        # over the empty base the 1 by 1 minors are the entries, whose gcd
        # factor_zeros has already divided out
        calls = []
        det = PolyMatrix.det
        monkeypatch.setattr(PolyMatrix, "det", lambda m: calls.append(m) or det(m))
        gs, d = constant_rank_reduce([col(Z * (Z - 1), Z * Z, 0)])
        assert gs == [col(Z - 1, Z, 0)]
        assert d == PolyMatrix([[Z]])
        assert calls == []

    def test_already_constant_rank(self):
        for fs in ([col(1, Z)], [col(1, Z, Z * Z), col(0, 1, Poly.of(0, 2))]):
            gs, d = reduce_and_check_cauchy_binet(fs)
            assert gs == fs
            assert d == PolyMatrix.identity(len(fs))

    def test_dependent_column(self):
        f0, f1 = col(1, Z, 0), col(Z, Z * Z, 0)
        gs, d = reduce_and_check_cauchy_binet([f0, f1])
        assert gs == [f0]
        assert d.shape == (1, 2)
        assert d == PolyMatrix([[ONE, Z]])

    def test_correction_loop_case(self):
        cases = [
            # the pair is independent but drops rank at z = 1
            [col(1, Z), col(1, 1)],
            # rank drops at z = 0, 1 and -1; each 1 by 1 minor of the first
            # column (z and z - 1) shares a zero with that modulus, so only
            # a Bezout combination of both interpolates
            [col(Z, Z - 1), col(Z, (Z - 1) * (Z + 2))],
        ]
        for fs in cases:
            gs, d = reduce_and_check_cauchy_binet(fs)
            assert len(gs) == 2
            assert minor_gcd(gs) == ONE
            # exact reconstruction through the change of basis
            assert PolyMatrix.from_columns(gs) @ d == PolyMatrix.from_columns(fs)
            # the change of basis is triangular for ordered adjunction
            assert d.entry(1, 0).is_zero
        # the Bezout case repairs its second column to a constant
        assert gs[1] == col(1, 1)

    def test_reconstruction_random_inputs(self):
        rng = np.random.default_rng(7)
        for _ in range(6):
            n = int(rng.integers(2, 5))
            k = int(rng.integers(1, min(n, 3) + 1))
            base = [
                col(*[Poly(rng.integers(-2, 3, size=3).tolist()) for _ in range(n)])
                for _ in range(k)
            ]
            if all(c.is_zero for c in base):
                continue
            try:
                gs, d = reduce_and_check_cauchy_binet(base)
            except NotConstantRank:
                continue
            assert minor_gcd(gs) == ONE
            assert PolyMatrix.from_columns(gs) @ d == PolyMatrix.from_columns(base)
            pts = spot_points(np.random.default_rng(11))
            assert numeric_rank_everywhere(gs, pts) == len(gs)

    def test_three_columns_of_rank_two_with_a_drop(self):
        # generic rank 2, dropping to rank 1 at z = 0
        fs = [col(1, Z, 0), col(Z, Z * Z, Z), col(Z * Z, Z * Z * Z, Z * Z - Z)]
        gs, d = reduce_and_check_cauchy_binet(fs)
        assert len(gs) == 2
        assert minor_gcd([PolyMatrix.column(row) for row in d.entries]) == Z

    def test_all_zero_columns_raise(self):
        with pytest.raises(ZeroFunction):
            constant_rank_reduce([col(0, 0), col(0, 0)])

    def test_zero_column_among_nonzero_is_dependent(self):
        gs, d = reduce_and_check_cauchy_binet([col(1, Z), col(0, 0)])
        assert gs == [col(1, Z)]
        assert d.entry(0, 1).is_zero


class TestAdjoinColumns:
    def test_padding_of_earlier_coefficients(self):
        base = [col(1, Z, 0)]
        gs, coeffs = adjoin_columns(base, [col(Z, Z * Z, 0), col(0, 0, Z)])
        assert len(gs) == 2
        assert coeffs[0] == [Z, Poly()]
        assert coeffs[1] == [Poly(), Z]
        assert gs[1] == col(0, 0, 1)

    def test_dependent_expression_is_polynomial(self):
        base = [col(1, 0), col(Z, 1)]
        gs, coeffs = adjoin_columns(base, [col(Poly.of(2), Poly.of(0, 3))])
        assert gs == base
        # f = 2 e0 + 3z (e0 z + e1) => coefficients (2 - 3z^2, 3z)
        assert coeffs[0] == [Poly.of(2, 0, -3), Poly.of(0, 3)]

    def test_non_polynomial_coefficient_raises(self):
        # col(1, z) = (1/z) col(z, z^2): in the span, but not over the ring
        with pytest.raises(NotConstantRank):
            adjoin_columns([col(Z, Z * Z)], [col(1, Z)])

    def test_base_pivot_is_found_once_per_call(self, monkeypatch):
        # two dependent columns over a square base: each reads the base's
        # first nonzero 2 by 2 minor, which the call computes once, plus two
        # Cramer numerators; the appended 2 by 3 sets have no maximal minors
        calls = []
        det = PolyMatrix.det
        monkeypatch.setattr(PolyMatrix, "det", lambda m: calls.append(m.shape) or det(m))
        base = [col(1, 0), col(Z, 1)]
        gs, coeffs = adjoin_columns(base, [col(2, Poly.of(0, 3)), col(Z, 1)])
        assert gs == base
        assert coeffs == [[Poly.of(2, 0, -3), Poly.of(0, 3)], [Poly(), ONE]]
        assert calls == [(2, 2)] * 5

    def test_base_without_nonzero_maximal_minor_raises(self):
        # the base columns are dependent, so every 2 by 2 minor vanishes and
        # the coefficients of a column in their span are not unique
        base = [col(1, Z, 0), col(Z, Z * Z, 0)]
        with pytest.raises(NotConstantRank):
            adjoin_columns(base, [col(1, Z, 0)])


class TestMinorGcd:
    def test_certificate_detects_common_zero(self):
        assert minor_gcd([col(Z, Z * Z)]) == Z
        assert minor_gcd([col(1, Z)]) == ONE
        assert minor_gcd([col(1, Z), col(1, 1)]) == Poly.of(-1, 1)

    def test_wide_set_has_zero_gcd(self):
        assert minor_gcd([col(1, Z), col(0, 1), col(1, 1)]).is_zero

    def test_matches_numeric_rank(self):
        rng = np.random.default_rng(23)
        cols = [col(1, Z, Z * Z), col(0, 1, Poly.of(0, 2))]
        assert minor_gcd(cols) == ONE
        assert numeric_rank_everywhere(cols, spot_points(rng)) == 2

    def test_reads_minors_until_the_gcd_is_a_unit(self, monkeypatch):
        calls = []
        det = PolyMatrix.det
        monkeypatch.setattr(PolyMatrix, "det", lambda m: calls.append(m) or det(m))
        assert minor_gcd([col(1, Z, Z * Z), col(0, 1, Poly.of(0, 2))]) == ONE
        assert len(calls) == 1  # the first minor is already 1
        calls.clear()
        assert minor_gcd([col(Z, Z * Z, 1)]) == ONE
        assert len(calls) == 3  # z, then z^2, then 1
