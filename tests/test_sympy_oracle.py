"""Cross-check of the exact layer against sympy, an independent computer algebra system.

Test-only: the package never imports sympy, and this module is skipped when
sympy is not installed.  The corpus is the five rng-57 4x2 degree-2 lifts of
``test_frenet.py`` and the rational normal curves of degree 3 and 4, plus
the column sets of ``test_poly.py``'s constant rank reduction tests.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import combinations

import numpy as np
import pytest
from test_frenet import random_lift

from todaframes.frenet import build_osculating
from todaframes.poly import (
    GaussianRational,
    Poly,
    PolyMatrix,
    adjoin_columns,
    constant_rank_reduce,
    minor_gcd,
)

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

z = sympy.Symbol("z")
Z = Poly.x()
CURVES = [f"lift{i}" for i in range(5)] + ["normal3", "normal4"]


@lru_cache(maxsize=None)
def curve(name: str) -> PolyMatrix:
    if name.startswith("normal"):
        degree = int(name[len("normal"):])
        return PolyMatrix.column([Poly([0] * i + [1]) for i in range(degree + 1)])
    rng = np.random.default_rng(57)
    lifts = [random_lift(rng, 4, 2, 2) for _ in range(5)]
    return lifts[int(name[len("lift"):])]


@lru_cache(maxsize=None)
def sequence(name: str):
    return build_osculating(curve(name))


def to_expr(p: Poly):
    return sum(
        (sympy.Rational(c.re.numerator, c.re.denominator)
         + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator)) * z**m
        for m, c in enumerate(p.coeffs)
    )


def to_poly(expr) -> sympy.Poly:
    return sympy.Poly(sympy.expand(expr), z, domain=sympy.QQ_I)


def to_matrix(m: PolyMatrix) -> sympy.Matrix:
    return sympy.Matrix([[to_expr(e) for e in row] for row in m.entries])


def sympy_minor_gcd(columns) -> sympy.Poly:
    m = to_matrix(PolyMatrix.from_columns(columns))
    k = m.cols
    minors = [to_poly(m.extract(list(rows), list(range(k))).det()) for rows in combinations(range(m.rows), k)]
    return reduce(lambda a, b: a.gcd(b), minors).monic()


def column_sets(name: str):
    """Column sets with trivial and nontrivial minor gcds."""
    cols = curve(name).columns()
    seq = sequence(name)
    sets = [cols, [c.derivative() for c in cols], [cols[0].scale(Z * Z + 1)] + cols[1:]]
    cumulative = []
    for xi in seq.xis[:-1]:
        cumulative = cumulative + xi.columns()
        sets.append(cumulative)
    return sets


@pytest.mark.parametrize("name", CURVES)
def test_minor_gcd_matches_sympy(name):
    for cols in column_sets(name):
        assert to_poly(to_expr(minor_gcd(cols))) == sympy_minor_gcd(cols)


def test_minor_gcd_of_pairs_meeting_away_from_zeros_of_columns():
    # the columns of generic rank 2 from test_frenet.py; (c0, c2) has the
    # minor gcd z(z - 1) although neither column vanishes at z = 1
    cols = [
        PolyMatrix.column([1, Z, 0]),
        PolyMatrix.column([Z, Z * Z, Z]),
        PolyMatrix.column([Z * Z, Z * Z * Z, Z * Z - Z]),
    ]
    for pair in combinations(cols, 2):
        assert to_poly(to_expr(minor_gcd(pair))) == sympy_minor_gcd(pair)


@pytest.mark.parametrize("name", CURVES)
def test_derivative_relation_is_a_polynomial_identity(name):
    seq = sequence(name)
    defect = (to_matrix(seq.xi).diff(z) - to_matrix(seq.xi) * to_matrix(seq.b)).expand()
    assert defect == sympy.zeros(*defect.shape)


@pytest.mark.parametrize("name", CURVES)
def test_dependent_coefficients_match_sympy_solve(name):
    seq = sequence(name)
    rng = np.random.default_rng(5)
    base = curve(name).columns()
    # a column known to lie in the span of the input, and the derivatives of
    # the top level, which lie in the span of the whole osculating flag
    mix = [Poly([GaussianRational(*rng.integers(-2, 3, size=2).tolist()) for _ in range(3)]) for _ in base]
    built = reduce(lambda acc, f: acc + f, (c.scale(p) for c, p in zip(base, mix)))
    flag = seq.xi.columns()
    top = seq.partition.slice(seq.t)
    cases = [(base, built)] + [(flag, c) for c in seq.dxi.columns()[top]]
    field = sympy.QQ_I.frac_field(z)
    for columns, f in cases:
        extended, coeffs = adjoin_columns(columns, [f])
        assert len(extended) == len(columns)
        # row reduce [columns | f] over Q(i)(z): full column rank and
        # consistent means the pivots are exactly the first len(columns)
        augmented = to_matrix(PolyMatrix.from_columns(columns + [f]))
        reduced, pivots = DomainMatrix.from_Matrix(augmented).convert_to(field).rref()
        j = len(columns)
        assert pivots == tuple(range(j))
        solution = reduced.to_Matrix()[:j, j]
        assert [field.from_sympy(to_expr(c)) for c in coeffs[0]] == [field.from_sympy(e) for e in solution]


def constant_rank_inputs():
    """The column sets of TestConstantRankReduce in test_poly.py, same draws."""
    def col(*entries):
        return PolyMatrix.column(entries)

    sets = [[col(Z, Z * Z)], [col(1, Z)], [col(1, Z, 0), col(Z, Z * Z, 0)], [col(1, Z), col(1, 1)]]
    rng = np.random.default_rng(7)
    for _ in range(6):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, min(n, 3) + 1))
        base = [col(*[Poly(rng.integers(-2, 3, size=3).tolist()) for _ in range(n)]) for _ in range(k)]
        if not all(c.is_zero for c in base):
            sets.append(base)
    return sets


def test_constant_rank_reduce_matches_sympy():
    for fs in constant_rank_inputs():
        gs, d = constant_rank_reduce(fs)
        # the output is certified: its maximal minors have no common zero
        assert sympy_minor_gcd(gs) == to_poly(1)
        # and it rebuilds the input exactly through the change of basis
        defect = (to_matrix(PolyMatrix.from_columns(gs)) * to_matrix(d)
                  - to_matrix(PolyMatrix.from_columns(fs))).expand()
        assert defect == sympy.zeros(*defect.shape)
