"""Exact polynomial linear algebra over the Gaussian rationals.

Coefficients come in, and are read back, as ``GaussianRational`` values,
pairs of ``fractions.Fraction``; a float is never a coefficient here, the
CLI turns config floats into exact values itself.  Values are immutable and
copy and pickle through their constructors.  A ``Poly`` stores them as Gaussian
integers over one positive denominator: ``num``, (re, im) int pairs in
ascending degree with no trailing zeros, and ``den``, sharing no factor
with every part of ``num``.  That normal form makes equality of
representations equality of polynomials, and all arithmetic runs on ints.
One division kernel, pseudo-division over the Gaussian integers, serves
``divmod``, Euclid's algorithm (on primitive remainders) and the exact
divisions of elimination.  Matrices over the polynomial ring come with the
operations needed to manufacture constant rank column sets:

* ``factor_zeros`` divides a column by the monic gcd of its entries,
* ``constant_rank_reduce`` replaces a column set by a constant rank set
  spanning the same module, together with the exact polynomial change of
  basis.

All exact elimination runs on one kernel, ``PolyMatrix.det``, fraction free
(Bareiss) elimination over the Gaussian-integer polynomials, with each
matrix's denominators cleared once and every division checked.  Every
other quantity is built from its minors and from Euclid's algorithm.
Minors come from a generator and are computed only as a decision reads
them; a gcd stops at the first minor that brings it to degree 0.

* constant rank of l columns: the monic gcd of the l by l minors is 1,
  which rules out a common zero anywhere in the plane;
* a column in the span of a constant rank set: every minor with it
  appended vanishes, and its coefficients are the Cramer quotients over
  the first nonzero maximal minor of the set, which must divide exactly
  (one ``adjoin_columns`` call finds that minor once per base);
* a column that adds rank: the first nonzero minor with it appended
  certifies independence, and the gcd of the minors, read lazily from
  that one on, is its defect.  The correction loop repairs the defect by
  interpolation modulo the squarefree part of that gcd.  The interpolant
  is a Bezout combination of Cramer numerators, since the base minors
  have gcd 1.

Each pass of the correction loop strictly lowers the gcd degree, so the
pass count is capped by the initial degree and a cap overrun is a hard
error rather than a silent fallback.  The loop ends only once the gcd
of the maximal minors of the extended set is 1, so the adjoin that adds a
set's last column certifies the whole set; ``constant_rank_reduce`` takes
no second certificate.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations
from math import gcd, lcm
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
    """A complex number with exact rational real and imaginary parts: the
    scalar that coefficients are given and read back as.  Poly computes on
    Gaussian integers, so this class does no arithmetic."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):
        return GaussianRational, (self.re, self.im)

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # a real value hashes as the int or Fraction it equals
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __repr__(self):
        if not self.im:
            return f"GR({self.re})"
        return f"GR({self.re}, {self.im})"


def _as_scalar(value) -> GaussianRational:
    """Coerce ints, Fractions and GaussianRationals, never an (re, im) pair."""
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    raise TypeError(f"coefficient {value!r} is not an int, Fraction or GaussianRational")


def _trim(a: list) -> list:
    while a and a[-1] == (0, 0):
        a.pop()
    return a


def _times(a, k: int):
    """a times the integer k."""
    return a if k == 1 else [(r * k, i * k) for r, i in a]


def _add(a, b) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for j, (r, i) in enumerate(b):
        x = out[j]
        out[j] = (x[0] + r, x[1] + i)
    return _trim(out)


def _mul(a, b) -> list:
    if not a or not b:
        return []
    re = [0] * (len(a) + len(b) - 1)
    im = re[:]
    for k, (ar, ai) in enumerate(a):
        if ar or ai:
            for j, (br, bi) in enumerate(b, k):
                re[j] += ar * br - ai * bi
                im[j] += ar * bi + ai * br
    return list(zip(re, im))


def _pseudo_divmod(a, b) -> tuple[list, list, int]:
    """(q, r, s) with s a = q b + r over the Gaussian integers, deg r below
    deg b, and s the positive integer that the quotient coefficients need:
    each step scales by the part of the norm of b's leading coefficient
    that the new coefficient lacks, so an exact quotient has s = 1."""
    br, bi = b[-1]
    norm = br * br + bi * bi
    top = len(b) - 1
    r = list(a)
    q = [(0, 0)] * max(len(a) - top, 0)
    s = 1
    for k in range(len(q) - 1, -1, -1):
        cr, ci = r[k + top]
        if not (cr or ci):
            continue
        # c / lead(b) = c conj(lead(b)) / norm
        tr, ti = cr * br + ci * bi, ci * br - cr * bi
        m = norm // gcd(norm, tr, ti)
        if m != 1:
            r, q, s, tr, ti = _times(r, m), _times(q, m), s * m, tr * m, ti * m
        tr, ti = tr // norm, ti // norm
        q[k] = (tr, ti)
        for j, (xr, xi) in enumerate(b, k):
            yr, yi = r[j]
            r[j] = (yr - tr * xr + ti * xi, yi - tr * xi - ti * xr)
    return q, _trim(r[:top]), s


def _exact_quotient(a, b) -> list:
    """a / b, which must be a polynomial over the Gaussian integers."""
    q, r, s = _pseudo_divmod(a, b)
    if r or s != 1:
        raise ValueError("exact polynomial division left a remainder")
    return q


class Poly:
    """A polynomial in one variable over the Gaussian rationals, num / den
    in the normal form of the module docstring."""

    __slots__ = ("num", "den")

    def __new__(cls, coeffs: Iterable = ()):
        cs = [_as_scalar(c) for c in coeffs]
        den = lcm(*(x.denominator for c in cs for x in (c.re, c.im)))
        # den is a multiple of every denominator, so each product is an integer
        return cls._of([(int(c.re * den), int(c.im * den)) for c in cs], den)

    @classmethod
    def _of(cls, num, den: int = 1) -> "Poly":
        """num / den in normal form, from Gaussian-integer pairs and a positive integer."""
        num = _trim(list(num))
        if den != 1:
            g = gcd(den, *chain.from_iterable(num))
            if g != 1:
                num, den = [(r // g, i // g) for r, i in num], den // g
        p = object.__new__(cls)
        object.__setattr__(p, "num", tuple(num))
        object.__setattr__(p, "den", den)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        return Poly._of, (self.num, self.den)

    @classmethod
    def of(cls, *coeffs) -> "Poly":
        return cls(coeffs)

    @classmethod
    def one(cls) -> "Poly":
        return cls._of(((1, 0),))

    @classmethod
    def x(cls) -> "Poly":
        return cls._of(((0, 0), (1, 0)))

    @property
    def coeffs(self) -> tuple[GaussianRational, ...]:
        """The coefficients in ascending degree, each in lowest terms."""
        return tuple(GaussianRational(Fraction(r, self.den), Fraction(i, self.den)) for r, i in self.num)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.num) - 1

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __add__(self, other):
        other = _as_poly(other)
        den = lcm(self.den, other.den)
        return Poly._of(_add(_times(self.num, den // self.den), _times(other.num, den // other.den)), den)

    __radd__ = __add__

    def __neg__(self):
        return Poly._of(_times(self.num, -1), self.den)

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __mul__(self, other):
        other = _as_poly(other)
        return Poly._of(_mul(self.num, other.num), self.den * other.den)

    __rmul__ = __mul__

    def __divmod__(self, other):
        other = _as_poly(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        # s A = Q B + R for self = A / da and other = B / db gives
        # self = (Q db / (s da)) other + R / (s da)
        q, r, s = _pseudo_divmod(self.num, other.num)
        return Poly._of(_times(q, other.den), s * self.den), Poly._of(r, s * self.den)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other) -> "Poly":
        quo, rem = divmod(self, other)
        if not rem.is_zero:
            raise ValueError("exact polynomial division left a remainder")
        return quo

    def _lead_inverse(self) -> "Poly":
        """The constant 1 / lead of a nonzero polynomial."""
        br, bi = self.num[-1]
        return Poly._of(((self.den * br, -self.den * bi),), br * br + bi * bi)

    def monic(self) -> "Poly":
        return self * self._lead_inverse() if self.num else self

    def derivative(self) -> "Poly":
        return Poly._of([(m * r, m * i) for m, (r, i) in enumerate(self.num) if m], self.den)

    def conjugate_coeffs(self) -> "Poly":
        """Coefficientwise conjugate q, so q(conj(z)) = conj(self(z))."""
        return Poly._of([(r, -i) for r, i in self.num], self.den)

    def squarefree_part(self) -> "Poly":
        if self.degree < 1:
            return self.monic()
        return self.exact_div(poly_gcd(self, self.derivative())).monic()

    def __eq__(self, other):
        try:
            other = _as_poly(other)
        except TypeError:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a constant hashes as the scalar it equals
        if self.degree < 1:
            return hash(self.coeffs[0]) if self.num else 0
        return hash((self.num, self.den))

    def __repr__(self):
        return f"Poly.of({', '.join(map(repr, self.coeffs))})"


def _as_poly(value) -> Poly:
    return value if isinstance(value, Poly) else Poly((value,))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm on primitive Gaussian-integer
    remainders; gcd(0, 0) = 0."""
    x, y = _as_poly(a).num, _as_poly(b).num
    while y:
        r = _pseudo_divmod(x, y)[1]
        g = gcd(*chain.from_iterable(r)) or 1
        x, y = y, [(re // g, im // g) for re, im in r]
    return Poly._of(x).monic()


def poly_gcd_many(ps: Iterable[Poly]) -> Poly:
    g = Poly()
    for p in ps:
        g = poly_gcd(g, p)
        if g.degree == 0:
            break
    return g


class PolyMatrix:
    """A rows by cols matrix of polynomials."""

    __slots__ = ("rows", "cols", "entries", "_floats")

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

    def __reduce__(self):
        # rebuilt from the entries: the float cache of evaluate is not state
        return PolyMatrix, (self.entries,)

    @classmethod
    def identity(cls, n: int) -> "PolyMatrix":
        return cls([[Poly.one() if i == j else Poly() for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "PolyMatrix":
        return cls([[Poly()] * cols for _ in range(rows)])

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

    def block_pattern(self, blocks) -> tuple[tuple[int, int], ...]:
        """The block positions (a, b), in row order, where self has a
        nonzero entry; blocks is a BlockStructure, whose slices cut the rows
        and the columns alike."""
        cuts = [blocks.slice(a) for a in range(blocks.count)]
        return tuple(
            (a, b)
            for a, rows in enumerate(cuts)
            for b, cols in enumerate(cuts)
            if any(not e.is_zero for row in self.entries[rows] for e in row[cols])
        )

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

    def evaluate(self, z) -> np.ndarray:
        """Values at a point or an array of points, shape z.shape + (rows, cols).

        Horner's rule on float (re, im) pairs, converted once and kept, by
        the formulas of Python complex arithmetic, so each value has the
        bits of Python complex Horner at that point alone; numpy's complex
        multiply may fuse multiply and add.  Only the nonzero entries are
        evaluated, and scattered into zeros: a zero entry is exactly 0.
        Overflow gives inf silently.
        """
        try:
            coeff, where = self._floats
        except AttributeError:
            flat = [e for row in self.entries for e in row]
            nonzero = [i for i, e in enumerate(flat) if not e.is_zero]
            coeff = np.zeros((max((flat[i].degree for i in nonzero), default=0) + 1, 2, len(nonzero), 1))
            for col, i in enumerate(nonzero):
                e = flat[i]
                # int true division rounds as float(Fraction) does
                for m, (re, im) in enumerate(e.num):
                    coeff[m, :, col, 0] = re / e.den, im / e.den
            # the float columns of the (re, im) parts of the nonzero entries,
            # in the order of coeff's part and entry axes; None when no entry is zero
            where = None
            if len(nonzero) < len(flat):
                where = (2 * np.array(nonzero, dtype=int) + np.arange(2)[:, None]).ravel()
            object.__setattr__(self, "_floats", (coeff, where))
        w = np.asarray(z, dtype=complex).reshape(-1)
        # (ar, ai) w = (ar wr + ai (-wi), ai wr + ar wi), and a - b is a + (-b);
        # parts first and points last, so each operation runs along the points
        wr, wi = w.real.copy(), np.array([-1.0, 1.0])[:, None, None] * w.imag
        out = np.zeros((2, coeff.shape[2], w.size))
        with np.errstate(over="ignore", invalid="ignore"):
            for c in coeff[::-1]:
                swap = out[::-1] * wi
                out *= wr
                out += swap
                out += c
        if where is None:
            values = out.T.copy()
        else:
            values = np.zeros((w.size, 2 * self.rows * self.cols))
            values[:, where] = out.reshape(len(where), w.size).T
        return values.view(complex).reshape(np.shape(z) + (self.rows, self.cols))

    def det(self) -> Poly:
        """Exact determinant by fraction free (Bareiss) elimination over the
        Gaussian integers, on the entries times the lcm c of their
        denominators: det M = det(cM) / c^n.  Every division is checked."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non square matrix")
        n = self.rows
        c = lcm(*(e.den for row in self.entries for e in row))
        m = [[_times(e.num, c // e.den) for e in row] for row in self.entries]
        sign = 1
        prev = [(1, 0)]
        for k in range(n - 1):
            if not m[k][k]:
                for r in range(k + 1, n):
                    if m[r][k]:
                        m[k], m[r] = m[r], m[k]
                        sign = -sign
                        break
                else:
                    return Poly()
            pivot = m[k][k]
            for i in range(k + 1, n):
                lower = _times(m[i][k], -1)
                for j in range(k + 1, n):
                    m[i][j] = _exact_quotient(_add(_mul(m[i][j], pivot), _mul(lower, m[k][j])), prev)
            prev = pivot
        return Poly._of(_times(m[-1][-1], sign), c**n)

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
    return Poly(e) if isinstance(e, (list, tuple)) else _as_poly(e)


def _require_column(f: PolyMatrix, name: str = "column"):
    if f.cols != 1:
        raise ValueError(f"{name} must have a single column, got {f.cols}")


def factor_zeros(f: PolyMatrix) -> tuple[PolyMatrix, Poly]:
    """Write the column f as g * d with d the monic gcd of the entries.

    The entries of g then have no common zero.  When d is 1, g is f itself.
    Raises ZeroFunction on an identically zero column.
    """
    _require_column(f)
    if f.is_zero:
        raise ZeroFunction("cannot factor an identically zero column")
    d = poly_gcd_many(e for row in f.entries for e in row)
    if d.degree == 0:  # d is monic: 1, and f is its own quotient
        return f, d
    g = PolyMatrix([[row[0].exact_div(d)] for row in f.entries])
    return g, d


def _maximal_minors(m: PolyMatrix) -> Iterator[tuple[tuple[int, ...], Poly]]:
    """(rows, minor) for every size m.cols minor of m, the row sets in
    combinations order, each minor computed only when it is read.  The one
    walk over row sets: the gcd certificate, the pivot of a span solve and
    the interpolation all read it.  There are none when m is wide."""
    cols = range(m.cols)
    for rows in combinations(range(m.rows), m.cols):
        yield rows, m.submatrix(rows, cols).det()


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
    return poly_gcd_many(d for _, d in _maximal_minors(PolyMatrix.from_columns(cols)))


def _numerators(m: PolyMatrix, f: PolyMatrix, rows: Sequence[int]) -> list[Poly]:
    """Cramer numerators on the given rows: for each column b of m, the
    minor of m on those rows with column b replaced by the column f."""
    return [
        PolyMatrix(
            [[f.entries[i][0] if c == b else m.entries[i][c] for c in range(m.cols)] for i in rows]
        ).det()
        for b in range(m.cols)
    ]


def _solve_in_span(m: PolyMatrix, rows: tuple[int, ...], den: Poly, f: PolyMatrix) -> list[Poly]:
    """Exact coefficients writing f as a combination of the columns of m.

    The caller has certified that f lies in the span (every maximal minor of
    m with f appended vanishes), so Cramer's rule on the pivot, the first
    nonzero maximal minor den of m, on rows, gives the unique coefficients.
    They must divide out to polynomials, which holds whenever the columns
    form a constant rank set.
    """
    out = []
    for num in _numerators(m, f, rows):
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
    inv = r0._lead_inverse()
    return r0 * inv, s0 * inv, t0 * inv


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
    for rows, minor in _maximal_minors(m):
        d, s, t = _xgcd(h, minor % modulus)
        if d.degree == h.degree:
            continue
        acc = [(s * a + t * n) % modulus for a, n in zip(acc, _numerators(m, g, rows))]
        h = d
        if h.degree == 0:
            return acc
    raise NotConstantRank("the base minors share a zero with the correction modulus")


def _adjoin_one(columns: list[PolyMatrix], f: PolyMatrix, pivots: dict):
    """Express f over the constant rank set, extending the set if needed.

    Returns (coeffs, g): g is None when f lies in the span, and coeffs are
    its len(columns) polynomial coefficients.  Otherwise g is the new
    column, coeffs ends with its factor, f = sum(columns + [g] times
    coeffs), and the extended set is certified constant rank: the loop
    below exits only once its minor gcd is 1.  pivots holds the stacked
    base with its pivot for _solve_in_span by base size, found once per
    adjoin_columns call.
    """
    j = len(columns)
    if f.is_zero:
        return [Poly()] * j, None
    if not columns:
        # the 1 by 1 minors are f's entries, whose gcd factor_zeros divides out
        g, d = factor_zeros(f)
        return [d], g
    minors = (d for _, d in _maximal_minors(PolyMatrix.from_columns(columns + [f])) if not d.is_zero)
    first = next(minors, None)
    if first is None:
        if j not in pivots:
            m = PolyMatrix.from_columns(columns)
            pivot = next(((rows, d) for rows, d in _maximal_minors(m) if not d.is_zero), None)
            if pivot is None:
                raise NotConstantRank("dependent column solve over a base with no nonzero maximal minor")
            pivots[j] = m, *pivot
        return _solve_in_span(*pivots[j], f), None
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
    return coeffs + [prefix], g


def adjoin_columns(
    base: Sequence[PolyMatrix], new: Sequence[PolyMatrix]
) -> tuple[list[PolyMatrix], list[list[Poly]]]:
    """Adjoin columns to a constant rank set, keeping it constant rank.

    Returns the extended set and, for every adjoined input column, its
    polynomial coefficients over the extended set (padded with zeros for
    columns introduced later).  The base set is trusted to be constant rank;
    each column the call adds is certified by its own adjoin.
    """
    columns = list(base)
    raw = []
    pivots: dict = {}
    for f in new:
        _require_column(f)
        coeffs, g = _adjoin_one(columns, f, pivots)
        if g is not None:
            columns.append(g)
        raw.append(coeffs)
    total = len(columns)
    coeff_cols = [cs + [Poly()] * (total - len(cs)) for cs in raw]
    return columns, coeff_cols


def constant_rank_reduce(
    fs: Sequence[PolyMatrix],
) -> tuple[list[PolyMatrix], PolyMatrix]:
    """Replace columns by a constant rank set with the same span.

    Returns (gs, d) with every f equal to the combination of gs by the
    matching column of d.  The output set is certified exactly by the last
    adjoin that added a column: it returns only once the monic gcd of the
    maximal minors of the set is 1.  For constant rank input gs is the
    input and d the identity.  d is upper triangular whenever the leading
    columns already carry the rank.
    """
    fs = list(fs)
    if not fs:
        raise ValueError("need at least one column")
    for f in fs:
        _require_column(f)
    if all(f.is_zero for f in fs):
        raise ZeroFunction("all columns are identically zero")
    gs, coeff_cols = adjoin_columns([], fs)
    d = PolyMatrix([[coeff_cols[a][b] for a in range(len(fs))] for b in range(len(gs))])
    return gs, d
