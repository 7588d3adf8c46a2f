"""Exact polynomial algebra and the constant rank machinery."""

from __future__ import annotations

import struct
from fractions import Fraction

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
        approx = p.evaluate(z.to_complex())
        assert abs(exact.to_complex() - approx) < 1e-14

    def test_conjugate_coeffs_semantics(self):
        p = Poly.of(GaussianRational(1, 2), GaussianRational(0, 1))
        z = 0.3 - 0.8j
        assert abs(p.conjugate_coeffs().evaluate(np.conj(z)) - np.conj(p.evaluate(z))) < 1e-14


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
        batched = m.evaluate_many(pts)
        for k, z in enumerate(pts):
            assert np.allclose(batched[k], m.evaluate(z), atol=1e-14)

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
    """Horner's rule converting every coefficient at every step."""
    acc = 0j
    for c in reversed(p.coeffs):
        acc = acc * z + c.to_complex()
    return acc


def reference_evaluate_many(m: PolyMatrix, points) -> np.ndarray:
    pts = np.asarray(points, dtype=complex).ravel()
    deg = max((e.degree for row in m.entries for e in row), default=-1)
    out = np.zeros((pts.size, m.rows, m.cols), dtype=complex)
    if deg < 0:
        return out
    coeff = np.zeros((deg + 1, m.rows, m.cols), dtype=complex)
    for i, row in enumerate(m.entries):
        for j, e in enumerate(row):
            for k, c in enumerate(e.coeffs):
                coeff[k, i, j] = c.to_complex()
    for k in range(deg, -1, -1):
        out = out * pts[:, None, None] + coeff[k]
    return out


def bits(z) -> bytes:
    z = complex(z)
    return struct.pack("<dd", z.real, z.imag)


EVAL_POINTS = (0.0, 1.0, -0.37, 2.5, 1e-3, 0.3 + 0.7j, -1.2 - 0.45j, 1e-3j, 1 / 3 + 2j, np.complex128(0.6 - 0.2j))


class TestNumericEvaluation:
    """Evaluation reads coefficients converted once, with unchanged results."""

    def test_evaluate_is_bit_identical_to_reference(self):
        rng = np.random.default_rng(2024)
        polys = [Poly(), Poly.one(), Poly.of(Fraction(-2, 3)), Poly.of(GaussianRational(0, 1))]
        polys += [random_gaussian_poly(rng, d) for d in range(7) for _ in range(4)]
        for p in polys:
            for z in EVAL_POINTS:
                expected = bits(reference_evaluate(p, z))
                assert bits(p.evaluate(z)) == expected
                assert bits(p.evaluate(z)) == expected  # read from the cache

    def test_matrix_evaluation_is_bit_identical_to_reference(self):
        rng = np.random.default_rng(2025)
        for rows, cols in ((1, 1), (3, 2), (2, 4)):
            m = PolyMatrix(
                [[random_gaussian_poly(rng, int(rng.integers(-1, 7))) for _ in range(cols)] for _ in range(rows)]
            )
            pts = np.array([complex(z) for z in EVAL_POINTS])
            expected = reference_evaluate_many(m, pts)
            for _ in range(2):
                assert m.evaluate_many(pts).tobytes() == expected.tobytes()
            for z in EVAL_POINTS:
                pointwise = np.array([[reference_evaluate(e, z) for e in row] for row in m.entries])
                assert m.evaluate(z).tobytes() == pointwise.astype(complex).tobytes()


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


class TestConstantRankReduce:
    def test_single_column(self):
        gs, d = constant_rank_reduce([col(Z, Z * Z)])
        assert gs == [col(1, Z)]
        assert d == PolyMatrix([[Z]])

    def test_already_constant_rank(self):
        gs, d = constant_rank_reduce([col(1, Z)])
        assert gs == [col(1, Z)]
        assert d == PolyMatrix.identity(1)

    def test_dependent_column(self):
        f0, f1 = col(1, Z, 0), col(Z, Z * Z, 0)
        gs, d = constant_rank_reduce([f0, f1])
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
            gs, d = constant_rank_reduce(fs)
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
                gs, d = constant_rank_reduce(base)
            except NotConstantRank:
                continue
            assert minor_gcd(gs) == ONE
            assert PolyMatrix.from_columns(gs) @ d == PolyMatrix.from_columns(base)
            pts = spot_points(np.random.default_rng(11))
            assert numeric_rank_everywhere(gs, pts) == len(gs)

    def test_all_zero_columns_raise(self):
        with pytest.raises(ZeroFunction):
            constant_rank_reduce([col(0, 0), col(0, 0)])

    def test_zero_column_among_nonzero_is_dependent(self):
        gs, d = constant_rank_reduce([col(1, Z), col(0, 0)])
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
