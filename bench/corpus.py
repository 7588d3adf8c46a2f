"""Job configurations of the four benchmark workloads, made from a seed.

Seed 0 reproduces the test corpora exactly: the five rng-57 4x2 degree-2
lifts of ``tests/test_frenet.py`` and the rng-77 degree-2 Toda seed of
``tests/test_acceptance.py``, with the same draws in the same order.

Any other seed moves every input by a seeded diagonal unitary of unit
phases (1, i, -1, -i): on the rows of each curve, and on the left of each
Toda seed (the same one for gamma_minus and gamma_plus).  With the
identity metric this leaves the partition, the rank drop polynomial,
every ``g_*`` and every ``ln_det_beta_*`` unchanged, so one reference
made at seed 0 checks the reports of every seed.  It keeps every
coefficient's size and every zero, so the exact layer takes the same
pivots and the same number of steps on every seed; a row permutation
would not (it changes the gcd count of exact-corpus by up to 15%).  What
changes is the arithmetic itself: complex instead of real coefficients,
other polynomials and other rounding.

This module imports nothing from the package under test, so the inputs of
a seed do not depend on the code being measured.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np

WORKLOADS = ("exact-corpus", "frenet-verify", "toda-hermitian", "toda-general")
SIZES = ("full", "tiny")

# A complex coefficient is an exact (re, im) pair of Fractions; a
# polynomial is a list of them, ascending; a matrix is a list of rows.
ONE = (Fraction(1), Fraction(0))
ZERO = (Fraction(0), Fraction(0))
UNITS = (ONE, (Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0)), (Fraction(0), Fraction(-1)))


def _mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _coeff_json(c):
    re, im = c
    if im == 0 and re.denominator == 1:
        return re.numerator
    return [re.numerator, re.denominator, im.numerator, im.denominator]


def _matrix_json(rows):
    return [[[_coeff_json(c) for c in entry] for entry in row] for row in rows]


# -- exact integer polynomials, only for the constant rank certificate ------


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _pmul(p, q):
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _psub(p, q):
    n = max(len(p), len(q))
    return _trim([(p[i] if i < len(p) else 0) - (q[i] if i < len(q) else 0) for i in range(n)])


def _pmod(p, q):
    p = [Fraction(c) for c in p]
    while len(p) >= len(q):
        f = p[-1] / q[-1]
        shift = len(p) - len(q)
        for i, c in enumerate(q):
            p[shift + i] -= f * c
        p = _trim(p)
    return p


def _pgcd_degree(polys):
    """Degree of the gcd over Q of integer polynomials; -1 when all vanish."""
    g = []
    for p in polys:
        a, b = g, _trim(p)
        while b:
            a, b = b, _pmod(a, b)
        g = a
    return len(g) - 1


def _constant_rank(cols):
    """Whether the maximal minors of the integer columns have gcd 1."""
    n, k = len(cols[0]), len(cols)
    minors = []
    for rows in combinations(range(n), k):
        if k == 1:
            minors.append(cols[0][rows[0]])
        else:
            a, b = rows
            minors.append(_psub(_pmul(cols[0][a], cols[1][b]), _pmul(cols[1][a], cols[0][b])))
    return _pgcd_degree(minors) == 0


def _random_lift(rng, n, k, degree):
    """The constant rank lift generator of tests/test_frenet.py, draw for draw."""
    while True:
        cols = []
        for j in range(k):
            col = []
            for i in range(n):
                coeffs = rng.integers(-2, 3, size=degree + 1).tolist()
                if i == j:
                    coeffs[0] = 1
                col.append(coeffs)
            cols.append(col)
        if _constant_rank(cols):
            return [[[(Fraction(c), Fraction(0)) for c in cols[j][i]] for j in range(k)] for i in range(n)]


def _normal_curve(degree):
    """The rational normal curve (1, z, ..., z^degree) as a column."""
    return [[[ZERO] * i + [ONE]] for i in range(degree + 1)]


def _random_gamma_seed(rng, sizes, degree=2):
    """The block diagonal seed of tests/test_acceptance.py, draw for draw:
    I + z C1 + ... with coefficients of size 1/8."""
    n = sum(sizes)
    rows = [[[] for _ in range(n)] for _ in range(n)]
    start = 0
    for k in sizes:
        for i in range(start, start + k):
            for j in range(start, start + k):
                coeffs = [ONE if i == j else ZERO]
                for _ in range(degree):
                    re = Fraction(int(rng.integers(-1, 2)), 8)
                    im = Fraction(int(rng.integers(-1, 2)), 8)
                    coeffs.append((re, im))
                rows[i][j] = coeffs
        start += k
    return rows


def _subdiagonal_lowering(sizes, sign=1):
    """Identity blocks on the block subdiagonal (transposed and scaled by
    sign when sign is -1, which gives -c^dagger for this real constant c)."""
    n = sum(sizes)
    rows = [[[] for _ in range(n)] for _ in range(n)]
    offsets = np.cumsum((0,) + tuple(sizes))
    for a in range(len(sizes) - 1):
        for step in range(min(sizes[a], sizes[a + 1])):
            i, j = offsets[a + 1] + step, offsets[a] + step
            if sign < 0:
                i, j = j, i
            rows[i][j] = [(Fraction(sign), Fraction(0))]
    return rows


def _phases(rng, n):
    return [UNITS[int(k)] for k in rng.integers(0, 4, size=n)]


def _left_multiply(phases, rows):
    return [[[_mul(unit, c) for c in entry] for entry in row] for unit, row in zip(phases, rows)]


def _grid(n, radius):
    return {"nx": n, "ny": n, "radius": radius}


def make_jobs(workload: str, seed: int, size: str = "full") -> list[dict]:
    """The workload's job configurations for a seed, in run order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    tiny = size == "tiny"
    moves = None if seed == 0 else np.random.default_rng(seed)

    def curve_job(mode, curve, grid):
        if moves is not None:
            curve = _left_multiply(_phases(moves, len(curve)), curve)
        return {"mode": mode, "curve": _matrix_json(curve), "grid": grid}

    if workload == "exact-corpus":
        rng = np.random.default_rng(57)
        lifts = [_random_lift(rng, 4, 2, 2) for _ in range(1 if tiny else 5)]
        degrees = (3,) if tiny else (3, 4, 5, 6)
        grid = _grid(1 if tiny else 3, 0.7)
        return [curve_job("frenet", c, grid) for c in lifts + [_normal_curve(d) for d in degrees]]

    if workload == "frenet-verify":
        degrees = (3, 4) if tiny else (3, 4, 5, 6)
        grid = _grid(2 if tiny else 7, 0.7)
        return [curve_job("verify-frenet", _normal_curve(d), grid) for d in degrees]

    rng = np.random.default_rng(77)
    if workload == "toda-hermitian":
        sizes, mode, hermitian = (2, 2), "verify-toda", True
    else:
        sizes, mode, hermitian = (1, 2, 1), "toda-solve", False
    gamma_minus = _random_gamma_seed(rng, sizes)
    gamma_plus = None if hermitian else _random_gamma_seed(rng, sizes)
    if moves is not None:
        u = _phases(moves, sum(sizes))
        gamma_minus = _left_multiply(u, gamma_minus)
        if gamma_plus is not None:
            gamma_plus = _left_multiply(u, gamma_plus)
    seeds = {"gamma_minus": _matrix_json(gamma_minus), "c_minus": _matrix_json(_subdiagonal_lowering(sizes))}
    if not hermitian:
        seeds["gamma_plus"] = _matrix_json(gamma_plus)
        seeds["c_plus"] = _matrix_json(_subdiagonal_lowering(sizes, sign=-1))
    n = 2 if tiny else (5 if hermitian else 4)
    return [
        {
            "mode": mode,
            "gradation": {"sizes": list(sizes), "labels": [1] * (len(sizes) - 1)},
            "hermitian_mode": hermitian,
            "grid": _grid(n, 1.0),
            "seeds": seeds,
        }
    ]
