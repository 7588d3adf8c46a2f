"""Exact polynomial linear algebra over the Gaussian rationals.

Scalars are Gaussian rationals, pairs of ``fractions.Fraction`` values in
lowest terms.  Polynomials are tuples of such scalars in ascending degree
with no trailing zeros, so equality of representations is equality of
polynomials.  Matrices over the polynomial ring come with the operations
needed to manufacture constant rank column sets:

* ``factor_zeros`` divides a column by the monic gcd of its entries,
* ``constant_rank_reduce`` replaces a column set by a constant rank set
  spanning the same module, together with the exact polynomial change of
  basis.

All exact elimination runs on one kernel, ``PolyMatrix.det``, fraction free
(Bareiss) elimination over the polynomial ring.  Every other quantity is
built from its minors and from Euclid's algorithm.  Minors come from a
generator and are computed only as a decision reads them; a gcd stops at
the first minor that brings it to degree 0.

* constant rank of l columns: the monic gcd of the l by l minors is 1,
  which rules out a common zero anywhere in the plane;
* a column in the span of a constant rank set: every minor with it
  appended vanishes, and its coefficients are the Cramer quotients over
  the first nonzero maximal minor of the set, which must divide exactly;
* a column that adds rank: the first nonzero minor with it appended
  certifies independence, and the gcd of the minors, read lazily from
  that one on, is its defect.  The correction loop repairs the defect by
  interpolation modulo the squarefree part of that gcd.  The interpolant
  is a Bezout combination of Cramer numerators, since the base minors
  have gcd 1.

Each pass of the correction loop strictly lowers the gcd degree, so the
pass count is capped by the initial degree and a cap overrun is a hard
error rather than a silent fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import NotConstantRank, ZeroFunction

__all__ = [
    "GaussianRational",
    "Poly",
    "PolyMatrix",
    "factor_zeros",
    "adjoin_columns",
    "constant_rank_reduce",
    "minor_gcd",
    "poly_gcd",
    "poly_gcd_many",
]


class GaussianRational:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @classmethod
    def from_complex(cls, z: complex, limit: int) -> "GaussianRational":
        """Nearest parts with denominators at most ``limit``."""
        return cls(
            Fraction(float(np.real(z))).limit_denominator(limit),
            Fraction(float(np.imag(z))).limit_denominator(limit),
        )

    @staticmethod
    def _coerce(other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return NotImplemented

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        norm = o.re * o.re + o.im * o.im
        if not norm:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / norm,
            (self.im * o.re - self.re * o.im) / norm,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o / self

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        if not self.im:
            return f"GR({self.re})"
        return f"GR({self.re}, {self.im})"


_GR_ZERO = GaussianRational()
_GR_ONE = GaussianRational(1)


def _as_scalar(value) -> GaussianRational:
    """Coerce ints, Fractions and GaussianRationals, never an (re, im) pair."""
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    raise TypeError(f"coefficient {value!r} is not an int, Fraction or GaussianRational")


class Poly:
    """A polynomial in one variable over the Gaussian rationals.

    The coefficients as Python complex numbers are converted on the first
    numerical evaluation and kept in a private slot, so repeated
    evaluation does no ``Fraction`` work.
    """

    __slots__ = ("coeffs", "_complex")

    def __init__(self, coeffs: Iterable = ()):
        cs = [_as_scalar(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def of(cls, *coeffs) -> "Poly":
        return cls(coeffs)

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((_GR_ONE,))

    @classmethod
    def x(cls) -> "Poly":
        return cls((_GR_ZERO, _GR_ONE))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> GaussianRational:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other):
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [_GR_ZERO] * (n - len(self.coeffs))
        b = list(other.coeffs) + [_GR_ZERO] * (n - len(other.coeffs))
        return Poly(x + y for x, y in zip(a, b))

    __radd__ = __add__

    def __neg__(self):
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) - self

    def __mul__(self, other):
        other = _as_poly(other)
        if self.is_zero or other.is_zero:
            return Poly()
        out = [_GR_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    __rmul__ = __mul__

    def scale(self, s) -> "Poly":
        s = _as_scalar(s)
        return Poly(c * s for c in self.coeffs)

    def __divmod__(self, other):
        other = _as_poly(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly(), self
        quo = [_GR_ZERO] * (dq + 1)
        inv_lead = _GR_ONE / other.lead
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] * inv_lead
            quo[k] = c
            if not c.is_zero:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] = rem[k + j] - c * b
        return Poly(quo), Poly(rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other) -> "Poly":
        quo, rem = divmod(self, other)
        if not rem.is_zero:
            raise ValueError("exact polynomial division left a remainder")
        return quo

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        return self.scale(_GR_ONE / self.lead)

    def derivative(self) -> "Poly":
        return Poly(c * m for m, c in enumerate(self.coeffs) if m >= 1)

    def conjugate_coeffs(self) -> "Poly":
        """Coefficientwise conjugate q, so q(conj(z)) = conj(self(z))."""
        return Poly(c.conjugate() for c in self.coeffs)

    def squarefree_part(self) -> "Poly":
        if self.degree < 1:
            return self.monic()
        return self.exact_div(poly_gcd(self, self.derivative())).monic()

    def _complex_coeffs(self) -> tuple[complex, ...]:
        """The coefficients as complex numbers, ascending, converted once."""
        try:
            return self._complex
        except AttributeError:
            cs = tuple(c.to_complex() for c in self.coeffs)
            object.__setattr__(self, "_complex", cs)
            return cs

    def evaluate(self, z: complex) -> complex:
        acc = 0j
        for c in reversed(self._complex_coeffs()):
            acc = acc * z + c
        return acc

    def __eq__(self, other):
        try:
            other = _as_poly(other)
        except TypeError:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero:
            return "Poly(0)"
        parts = []
        for m, c in enumerate(self.coeffs):
            if c.is_zero:
                continue
            if c.im:
                s = f"({c.re}{'+' if c.im > 0 else '-'}{abs(c.im)}i)"
            else:
                s = f"{c.re}"
            parts.append(s if m == 0 else (f"{s}*z" if m == 1 else f"{s}*z^{m}"))
        return "Poly(" + " + ".join(parts) + ")"


def _as_poly(value) -> Poly:
    if isinstance(value, Poly):
        return value
    return Poly((_as_scalar(value),))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm; gcd(0, 0) = 0."""
    a, b = _as_poly(a), _as_poly(b)
    while not b.is_zero:
        a, b = b, a % b
        b = b.monic() if not b.is_zero else b
    return a.monic()


def poly_gcd_many(ps: Iterable[Poly]) -> Poly:
    g = Poly()
    for p in ps:
        g = poly_gcd(g, p)
        if g.degree == 0:
            break
    return g


class PolyMatrix:
    """A rows by cols matrix of polynomials."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence]):
        rows = tuple(tuple(_entry_as_poly(e) for e in row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("PolyMatrix needs at least one row and column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows in PolyMatrix")
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "PolyMatrix":
        return cls([[Poly.one() if i == j else Poly.zero() for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "PolyMatrix":
        return cls([[Poly.zero()] * cols for _ in range(rows)])

    @classmethod
    def column(cls, entries: Sequence) -> "PolyMatrix":
        return cls([[e] for e in entries])

    @classmethod
    def from_columns(cls, columns: Sequence["PolyMatrix"]) -> "PolyMatrix":
        if not columns:
            raise ValueError("need at least one column")
        rows = columns[0].rows
        if any(c.rows != rows for c in columns):
            raise ValueError("column height mismatch")
        return cls(
            [[col.entries[i][j] for col in columns for j in range(col.cols)] for i in range(rows)]
        )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for row in self.entries for e in row)

    def entry(self, i: int, j: int) -> Poly:
        return self.entries[i][j]

    def column_at(self, j: int) -> "PolyMatrix":
        return PolyMatrix([[row[j]] for row in self.entries])

    def columns(self) -> list["PolyMatrix"]:
        return [self.column_at(j) for j in range(self.cols)]

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "PolyMatrix":
        return PolyMatrix([[self.entries[i][j] for j in col_idx] for i in row_idx])

    def derivative(self) -> "PolyMatrix":
        return PolyMatrix([[e.derivative() for e in row] for row in self.entries])

    def conjugate_transpose(self) -> "PolyMatrix":
        """q with q(conj(z)) equal to the conjugate transpose of self(z)."""
        return PolyMatrix(
            [[self.entries[i][j].conjugate_coeffs() for i in range(self.rows)] for j in range(self.cols)]
        )

    def scale(self, s) -> "PolyMatrix":
        return PolyMatrix([[e * s for e in row] for row in self.entries])

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return PolyMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)]
        )

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self + other.scale(-1)

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matmul")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = Poly()
                for k in range(self.cols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return PolyMatrix(out)

    def evaluate(self, z: complex) -> np.ndarray:
        out = np.empty((self.rows, self.cols), dtype=complex)
        for i, row in enumerate(self.entries):
            for j, e in enumerate(row):
                out[i, j] = e.evaluate(z)
        return out

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at a 1d array of points, returning shape (len, rows, cols)."""
        pts = np.asarray(points, dtype=complex).ravel()
        deg = max((e.degree for row in self.entries for e in row), default=-1)
        out = np.zeros((pts.size, self.rows, self.cols), dtype=complex)
        if deg < 0:
            return out
        coeff = np.zeros((deg + 1, self.rows, self.cols), dtype=complex)
        for i, row in enumerate(self.entries):
            for j, e in enumerate(row):
                for m, c in enumerate(e._complex_coeffs()):
                    coeff[m, i, j] = c
        for m in range(deg, -1, -1):
            out = out * pts[:, None, None] + coeff[m]
        return out

    def det(self) -> Poly:
        """Exact determinant by fraction free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non square matrix")
        n = self.rows
        m = [list(row) for row in self.entries]
        sign = 1
        prev = Poly.one()
        for k in range(n - 1):
            if m[k][k].is_zero:
                for r in range(k + 1, n):
                    if not m[r][k].is_zero:
                        m[k], m[r] = m[r], m[k]
                        sign = -sign
                        break
                else:
                    return Poly()
            pivot = m[k][k]
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]).exact_div(prev)
                m[i][k] = Poly()
            prev = pivot
        return m[n - 1][n - 1] if sign == 1 else -m[n - 1][n - 1]

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"PolyMatrix({self.rows}x{self.cols})"


def _entry_as_poly(e) -> Poly:
    """Matrix entry coercion: a list or tuple is an ascending coefficient list.

    Each coefficient is an int, a Fraction or a GaussianRational; a complex
    one is spelled GaussianRational(re, im), a constant or inside the list.
    """
    if isinstance(e, Poly):
        return e
    if isinstance(e, (list, tuple)):
        return Poly(e)
    return _as_poly(_as_scalar(e))


def _require_column(f: PolyMatrix, name: str = "column"):
    if f.cols != 1:
        raise ValueError(f"{name} must have a single column, got {f.cols}")


def factor_zeros(f: PolyMatrix) -> tuple[PolyMatrix, Poly]:
    """Write the column f as g * d with d the monic gcd of the entries.

    The entries of g then have no common zero.  Raises ZeroFunction on an
    identically zero column.
    """
    _require_column(f)
    if f.is_zero:
        raise ZeroFunction("cannot factor an identically zero column")
    d = poly_gcd_many(e for row in f.entries for e in row)
    g = PolyMatrix([[row[0].exact_div(d)] for row in f.entries])
    return g, d


def _maximal_minors(columns: Sequence[PolyMatrix]) -> Iterator[Poly]:
    """The size len(columns) minors of the stacked column matrix, row sets
    in combinations order, each computed only when it is read.  There are
    none when there are more columns than rows."""
    m = PolyMatrix.from_columns(columns)
    for rows_idx in combinations(range(m.rows), m.cols):
        yield m.submatrix(rows_idx, range(m.cols)).det()


def minor_gcd(columns: Sequence[PolyMatrix]) -> Poly:
    """Monic gcd of all maximal minors of the stacked columns.

    Equal to 1 exactly when the columns have full rank at every point of
    the plane.  The minors are read lazily and the gcd stops at the first
    one that brings it to degree 0, so a constant rank set often costs a
    single determinant.  Returns the zero polynomial when there are more
    columns than rows, since there are no maximal minors to take.
    """
    cols = list(columns)
    if not cols:
        raise ValueError("need at least one column")
    for c in cols:
        _require_column(c)
    return poly_gcd_many(_maximal_minors(cols))


def _numerators(m: PolyMatrix, f: PolyMatrix, rows: Sequence[int]) -> list[Poly]:
    """Cramer numerators on the given rows: for each column b of m, the
    minor of m on those rows with column b replaced by the column f."""
    return [
        PolyMatrix(
            [[f.entries[i][0] if c == b else m.entries[i][c] for c in range(m.cols)] for i in rows]
        ).det()
        for b in range(m.cols)
    ]


def _solve_in_span(columns: Sequence[PolyMatrix], f: PolyMatrix) -> list[Poly]:
    """Exact coefficients writing f as a combination of the columns.

    The caller has certified that f lies in the span (every maximal minor of
    the columns together with f vanishes), so Cramer's rule on the first
    nonzero maximal minor of the columns gives the unique coefficients.
    They must divide out to polynomials, which holds whenever the columns
    form a constant rank set.
    """
    m = PolyMatrix.from_columns(columns)
    size = m.cols
    for rows_idx in combinations(range(m.rows), size):
        den = m.submatrix(rows_idx, range(size)).det()
        if not den.is_zero:
            break
    else:
        raise NotConstantRank("dependent column solve over a base with no nonzero maximal minor")
    out = []
    for num in _numerators(m, f, rows_idx):
        quo, rem = divmod(num, den)
        if not rem.is_zero:
            raise NotConstantRank(
                "combination coefficients are not polynomial; the base set is not constant rank"
            )
        out.append(quo)
    return out


def _xgcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """(d, s, t) with d = s a + t b the monic gcd of a and b, a nonzero."""
    r0, s0, t0 = a, Poly.one(), Poly()
    r1, s1, t1 = b, Poly(), Poly.one()
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, s0, t0, r1, s1, t1 = r1, s1, t1, r, s0 - q * s1, t0 - q * t1
    inv = _GR_ONE / r0.lead
    return r0.scale(inv), s0.scale(inv), t0.scale(inv)


def _interpolating_combination(columns, g, modulus):
    """Polynomials b with g congruent to sum(columns[b] * b) mod modulus.

    At a zero w of the squarefree modulus the columns are independent and
    g(w) = sum c_b col_b(w), so on every row set R the Cramer numerators
    satisfy N_{R,b}(w) = c_b D_R(w), with D_R the minor of the columns on R.
    The minors of a constant rank set have gcd 1, so extended Euclid walks
    the row sets until sum u_R D_R = 1 mod modulus, and then
    b = sum u_R N_{R,b} mod modulus.  This b is the unique solution of
    degree below the modulus degree.
    """
    m = PolyMatrix.from_columns(columns)
    h, acc = modulus, [Poly()] * m.cols
    # invariant: h = sum u_R D_R mod modulus and acc[b] = sum u_R N_{R,b}
    for rows in combinations(range(m.rows), m.cols):
        d, s, t = _xgcd(h, m.submatrix(rows, range(m.cols)).det() % modulus)
        if d.degree == h.degree:
            continue
        acc = [(s * a + t * n) % modulus for a, n in zip(acc, _numerators(m, g, rows))]
        h = d
        if h.degree == 0:
            return acc
    raise NotConstantRank("the base minors share a zero with the correction modulus")


def _adjoin_one(columns: list[PolyMatrix], f: PolyMatrix):
    """Express f over the constant rank set, extending the set if needed.

    Returns ("dependent", coeffs) with len(columns) polynomial coefficients,
    or ("independent", new_column, coeffs, factor) meaning
    f = sum(columns * coeffs) + new_column * factor and the extended set is
    again constant rank, certified exactly.
    """
    j = len(columns)
    if f.is_zero:
        return "dependent", [Poly()] * j
    minors = (m for m in _maximal_minors(columns + [f]) if not m.is_zero)
    first = next(minors, None)
    if first is None:
        return "dependent", _solve_in_span(columns, f)
    g, d = factor_zeros(f)
    coeffs = [Poly()] * j
    prefix = d
    # minors are linear in the last column and d is monic, so the minor gcd
    # of columns + [g] is that of columns + [f] divided by d
    e = poly_gcd_many(chain([first], minors)).exact_div(d)
    cap = e.degree + 1
    passes = 0
    while e.degree > 0:
        if passes >= cap:
            raise NotConstantRank(
                "constant rank correction loop exceeded the zero order cap"
            )
        passes += 1
        modulus = e.squarefree_part()
        bs = _interpolating_combination(columns, g, modulus)
        h = g
        for b, col in zip(bs, columns):
            h = h - col.scale(b)
        if h.is_zero:
            raise NotConstantRank("correction loop collapsed a rank increasing column")
        g, dprime = factor_zeros(h)
        for i, b in enumerate(bs):
            coeffs[i] = coeffs[i] + prefix * b
        prefix = prefix * dprime
        e = minor_gcd(columns + [g])
    return "independent", g, coeffs, prefix


def adjoin_columns(
    base: Sequence[PolyMatrix], new: Sequence[PolyMatrix]
) -> tuple[list[PolyMatrix], list[list[Poly]]]:
    """Adjoin columns to a constant rank set, keeping it constant rank.

    Returns the extended set and, for every adjoined input column, its
    polynomial coefficients over the extended set (padded with zeros for
    columns introduced later).  The base set is trusted to be constant rank.
    """
    columns = list(base)
    raw = []
    for f in new:
        _require_column(f)
        result = _adjoin_one(columns, f)
        if result[0] == "dependent":
            raw.append(list(result[1]))
        else:
            _, g, coeffs, prefix = result
            columns.append(g)
            raw.append(list(coeffs) + [prefix])
    total = len(columns)
    coeff_cols = [cs + [Poly()] * (total - len(cs)) for cs in raw]
    return columns, coeff_cols


def constant_rank_reduce(
    fs: Sequence[PolyMatrix],
) -> tuple[list[PolyMatrix], PolyMatrix]:
    """Replace columns by a constant rank set with the same span.

    Returns (gs, d) with every f equal to the combination of gs by the
    matching column of d.  The output set is certified exactly: the monic
    gcd of its maximal minors is 1.  d is upper triangular whenever the
    leading columns already carry the rank.
    """
    fs = list(fs)
    if not fs:
        raise ValueError("need at least one column")
    for f in fs:
        _require_column(f)
    if all(f.is_zero for f in fs):
        raise ZeroFunction("all columns are identically zero")
    gs, coeff_cols = adjoin_columns([], fs)
    cert = minor_gcd(gs)
    if cert != Poly.one():
        raise NotConstantRank(f"certificate gcd is {cert!r}, expected 1")
    d = PolyMatrix([[coeff_cols[a][b] for a in range(len(fs))] for b in range(len(gs))])
    return gs, d
