"""Osculating sequences and Frenet frames of polynomial curves.

A polynomial column set of constant rank k spans, at every point of the
plane, a k dimensional subspace, a curve in the Grassmannian of C^n.
Differentiating in z and adjoining the genuinely new directions yields the
next osculating level; repeating until the rank stops growing gives the
osculating sequence Xi = [xi_0 ... xi_t] with the defining relation

    dXi/dz = Xi B,  block by block  dxi_a/dz = sum over b <= a+1 of xi_b B_{ba},

where B is a block upper Hessenberg polynomial matrix found exactly by the
adjunction machinery of the poly module.  Orthogonalizing each level
against the frame blocks before it in a hermitian metric h, by block
Gram-Schmidt run twice on the jets of the levels, produces the Frenet frame
phi_0, ..., phi_t and the gram blocks beta_a; the frame satisfies first
order equations in both Wirtinger directions whose data (beta, B,
D = -B^dagger) feed the Toda module.

Derivative convention, fixed package wide: the minus derivative is d/dz
and the plus derivative is d/dzbar.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import SingularBeta, ZeroFunction
from .linalg import (
    BlockStructure,
    HermitianMetric,
    Survivors,
    dagger,
    jet_h,
    jet_inv,
    jet_mul,
    scaled_defect,
    take,
)
from .poly import (
    Poly,
    PolyMatrix,
    adjoin_columns,
    constant_rank_reduce,
    minor_gcd,
)
from .wirtinger import memoized  # noqa: F401  bench/selftest.py removes and restores frenet.memoized

__all__ = [
    "FrameResiduals",
    "FrenetPointData",
    "OsculatingSequence",
    "build_osculating",
    "connection_coefficients",
    "frame_at",
    "induced_metric",
    "kahler_check",
    "linear_fullness",
    "verify_frame_equations",
]


@dataclass(frozen=True)
class OsculatingSequence:
    """The osculating sequence as two polynomial matrices, xi and B.

    xi is the n by k matrix [xi_0 ... xi_t] of the levels side by side and
    b the k by k matrix B of the defining relation dxi/dz = xi B; the
    blocks of partition index both, so the (b, a) block of B is B_{ba}.
    B is block upper Hessenberg: B_{ba} vanishes for b > a+1, and its block
    subdiagonal is the holomorphic half of the Toda connection.  rank_drop
    is a monic polynomial whose roots are exactly the points where the
    input column set drops below its generic rank; it is 1 for constant
    rank input.  reduction holds the exact change of basis when a
    reduction was necessary: the polynomial matrix d with xi_0 @ d equal
    to the input columns.
    """

    xi: PolyMatrix
    b: PolyMatrix
    partition: BlockStructure
    rank_drop: Poly
    reduction: PolyMatrix | None = None

    @property
    def t(self) -> int:
        return self.partition.count - 1

    @cached_property
    def dxi(self) -> PolyMatrix:
        """The z derivative of xi, built once per sequence."""
        return self.xi.derivative()

    @property
    def xis(self) -> tuple[PolyMatrix, ...]:
        """The levels xi_a, read from the column blocks of xi."""
        rows = range(self.n)
        return tuple(
            self.xi.submatrix(rows, range(s.start, s.stop))
            for s in map(self.partition.slice, range(self.t + 1))
        )

    @property
    def n(self) -> int:
        return self.xi.rows

    @cached_property
    def b_pattern(self) -> tuple[tuple[int, int], ...]:
        """The blocks (b, a) of B with a nonzero entry, in row order, read
        once per sequence."""
        return self.b.block_pattern(self.partition)

    def c_minus_matrix(self) -> PolyMatrix:
        """B with every block off the block subdiagonal set to zero: the
        B_{a+1,a}, the holomorphic half of the Toda connection for this
        curve."""
        level = [a for a, k in enumerate(self.partition.sizes) for _ in range(k)]
        return PolyMatrix(
            [
                [e if level[i] == level[j] + 1 else Poly() for j, e in enumerate(row)]
                for i, row in enumerate(self.b.entries)
            ]
        )


@dataclass(frozen=True)
class FrenetPointData:
    """The frame and its first order data at a point or an array of points.

    phis[a] and betas[a] are the jets (value, d/dz, d/dzbar, d/dz d/dzbar)
    of phi_a and beta_a, with exact derivatives, and betas_inv[a] is the one
    inverse of the value of beta_a.  Every matrix is a stack with the point
    axes of z first, as PolyMatrix.evaluate returns it, and a jet is one
    array with its part axis before them; a single point gives plain
    matrices.  failures holds, in the flattened order of z, the error that
    failed each point, or None; the fields of a failed point are NaN.
    """

    z: complex | np.ndarray
    partition: BlockStructure
    phis: tuple[np.ndarray, ...]
    betas: tuple[np.ndarray, ...]
    betas_inv: tuple[np.ndarray, ...]
    b_sub: tuple[np.ndarray, ...]
    b_solve_residual: float | np.ndarray
    failures: tuple[SingularBeta | None, ...]

    @property
    def t(self) -> int:
        return len(self.phis) - 1

    @property
    def phi(self) -> np.ndarray:
        """All frame blocks side by side, n by (k_0 + ... + k_t)."""
        return np.concatenate([jet[0] for jet in self.phis], axis=-1)

    @property
    def gamma(self) -> np.ndarray:
        """Block diagonal of the gram blocks beta_a."""
        return self.gamma_jet[0]

    @property
    def gamma_jet(self) -> np.ndarray:
        """Jet (value, d/dz, d/dzbar, d/dz d/dzbar) of gamma, the field the
        Toda residual checks read."""
        k = self.partition.n
        out = np.zeros(self.betas[0].shape[:-2] + (k, k), dtype=complex)
        for a, jet in enumerate(self.betas):
            s = self.partition.slice(a)
            out[..., s, s] = jet
        return out

    @cached_property
    def metric(self) -> tuple:
        """The metric coefficients g_0, ..., g_{t-1} (see induced_metric)."""
        return induced_metric([jet[0] for jet in self.betas], self.b_sub)

    def take(self, index) -> "FrenetPointData":
        """The data of the points index selects, by position in the
        flattened order of z."""
        lead = np.ndim(self.z)

        def pick(x, parts=0):  # the point axes of x follow its first parts axes
            flat = np.reshape(x, np.shape(x)[:parts] + (-1,) + np.shape(x)[parts + lead:])
            return flat[(slice(None),) * parts + (index,)]

        rows = np.ravel(np.arange(len(self.failures))[index])
        return dataclasses.replace(
            self,
            z=pick(self.z),
            phis=tuple(pick(jet, 1) for jet in self.phis),
            betas=tuple(pick(jet, 1) for jet in self.betas),
            betas_inv=tuple(map(pick, self.betas_inv)),
            b_sub=tuple(map(pick, self.b_sub)),
            b_solve_residual=pick(self.b_solve_residual),
            failures=tuple(self.failures[i] for i in rows),
        )


@dataclass(frozen=True)
class FrameResiduals:
    """Norms of the frame equation defects, per level, at the points of the
    frame data."""

    minus: tuple
    plus: tuple

    @property
    def max_residual(self):
        return np.max(np.stack(self.minus + self.plus), axis=0)


def build_osculating(xi: PolyMatrix) -> OsculatingSequence:
    """Osculating sequence of a polynomial column set.

    The columns first go through constant_rank_reduce, which returns a
    constant rank set gs and the change of basis d with xi = gs d.  The
    input has constant rank exactly when d is the identity; otherwise a
    warning is issued and the levels are built on gs, with d kept on the
    result.  By Cauchy-Binet every r by r minor of xi, r = len(gs), is a
    maximal minor of gs times an r by r minor of d, and the maximal minors
    of gs have gcd 1, so the rank drop polynomial is the gcd of the r by r
    minors of d.  Levels are built by adjoining the z derivatives of the
    previous level, so every B coefficient is an exact polynomial and the
    defining relation holds identically, not just numerically.
    """
    cols = xi.columns()
    if all(c.is_zero for c in cols):
        raise ZeroFunction("cannot build an osculating sequence of the zero curve")
    gs, reduction = constant_rank_reduce(cols)
    if reduction == PolyMatrix.identity(len(cols)):
        reduction, rank_drop = None, Poly.one()
    else:
        warnings.warn(
            "input columns do not have constant rank; reducing to a constant rank set",
            stacklevel=2,
        )
        # the rows of d as columns: their maximal minors are d's r by r minors
        rank_drop = minor_gcd([PolyMatrix.column(row) for row in reduction.entries])

    # column j of B holds the coefficients of the derivative of column j
    sizes = [len(gs)]
    columns: list[PolyMatrix] = list(gs)
    b_cols: list[list[Poly]] = []
    level = list(gs)
    while True:
        extended, coeffs = adjoin_columns(columns, [c.derivative() for c in level])
        b_cols += coeffs
        level, columns = extended[len(columns):], extended
        if not level:
            break
        sizes.append(len(level))
    assert all(sizes[a] >= sizes[a + 1] for a in range(len(sizes) - 1)), "ranks must not grow"
    k = len(columns)
    b = PolyMatrix([[c[i] if i < len(c) else Poly() for c in b_cols] for i in range(k)])

    return OsculatingSequence(
        xi=PolyMatrix.from_columns(columns),
        b=b,
        partition=BlockStructure(tuple(sizes)),
        rank_drop=rank_drop,
        reduction=reduction,
    )


@np.errstate(over="ignore", invalid="ignore")
def frame_at(
    seq: OsculatingSequence, h: HermitianMetric, z: complex | np.ndarray
) -> FrenetPointData:
    """Frenet frame data at a point or an array of points: the jets of
    every phi_a and beta_a, with exact derivatives.

    phi_0 is xi_0 itself, and each later block is its level with its h
    components along the blocks before it taken out: with Q = [phi_0 ...
    phi_{a-1}] and S the stacked rows beta_b^-1 phi_b^dagger h, phi_a =
    xi_a - Q (S xi_a), and that once more on the result.  That is block
    classical Gram-Schmidt with one reorthogonalisation, "twice is enough"
    (Giraud, Langou and Rozloznik 2005), on n by k jets, so the blocks are h
    orthogonal to working precision however the levels are scaled.  Every
    product runs on jets, the truncated hyper-dual numbers of Fike and
    Alonso (2011), seeded by the holomorphic levels and their z derivatives,
    so the Wirtinger derivatives of the frame and gram blocks come out of
    the same pass by the Leibniz rule, never from the frame equations they
    are checked against.  The levels have zero d/dzbar parts, h is
    constant, and the identity metric (the default) is no product at all.
    xi, its z derivative and B are evaluated once each over all the points;
    levels and blocks are slices of those three stacks, and every product
    runs once on the stacks, so a point gets the bits it gets alone.  The recorded solve residual is the
    scaled defect of the defining relation dxi_a/dz = sum of xi_b B_{ba} at
    every level, with a term only for each nonzero block of B, so it stays
    at rounding level and large values flag a broken sequence.

    A point whose gram block fails the condition guard leaves the stacks
    before its block is inverted, and its SingularBeta is recorded in
    failures; every other point is unaffected.  At a single point the
    SingularBeta is raised.  A block that overflows fails the guard, with
    numpy's overflow and invalid value warnings off.
    """
    t = seq.t
    hm = h.matrix
    identity = np.array_equal(hm, np.eye(seq.n))
    blocks = [seq.partition.slice(a) for a in range(t + 1)]
    shape = np.shape(z)
    w = np.asarray(z, dtype=complex).reshape(-1)
    alive = Survivors(shape)
    x_all, b_all = seq.xi.evaluate(w), seq.b.evaluate(w)
    zero = np.zeros_like(x_all)
    levels = np.stack((x_all, seq.dxi.evaluate(w), zero, zero))  # holomorphic: no d/dzbar parts

    phis: list[np.ndarray] = []  # jets of the frame and gram blocks
    betas: list[np.ndarray] = []
    invs: list[np.ndarray] = []
    q = rows = None  # the jets of [phi_0 ... phi_{a-1}] and of their rows
    for a in range(t + 1):
        phi_a = levels[..., blocks[a]]
        if a:
            for _ in range(2):
                phi_a = phi_a - jet_mul(q, jet_mul(rows, phi_a))
        left = jet_h(phi_a) if identity else jet_h(phi_a) @ hm  # h is constant: part by part
        beta_a = jet_mul(left, phi_a)
        keep = alive.guard(
            beta_a[0],
            lambda i, c: SingularBeta(f"gram block {a} at z={complex(w[i]):g} has condition {c:.3e}"),
        )
        b_all, invs = take((b_all, invs), keep)
        levels, q, rows, phi_a, left, beta_a, phis, betas = take(
            (levels, q, rows, phi_a, left, beta_a, phis, betas), keep, 1
        )
        phis.append(phi_a)
        betas.append(beta_a)
        if a == t:
            invs.append(np.linalg.inv(beta_a[0]))
            break
        inv = jet_inv(beta_a)
        invs.append(inv[0])
        row = jet_mul(inv, left)
        q, rows = (phi_a, row) if a == 0 else (np.concatenate((q, phi_a), -1), np.concatenate((rows, row), -2))

    x_all, dx_all = levels[0], levels[1]
    solve_residual = 0.0
    for a in range(t + 1):
        terms = [x_all[..., blocks[b]] @ b_all[..., blocks[b], blocks[a]] for b, c in seq.b_pattern if c == a]
        solve_residual = np.maximum(
            solve_residual, scaled_defect(dx_all[..., blocks[a]], terms)
        )

    return FrenetPointData(
        z=complex(z) if not shape else w.reshape(shape),
        partition=seq.partition,
        phis=tuple(alive.full(jet, 1) for jet in phis),
        betas=tuple(alive.full(jet, 1) for jet in betas),
        betas_inv=tuple(map(alive.full, invs)),
        b_sub=tuple(alive.full(b_all[..., blocks[a + 1], blocks[a]]) for a in range(t)),
        b_solve_residual=alive.full(solve_residual)[()],
        failures=tuple(alive.failures),
    )


def verify_frame_equations(data: FrenetPointData) -> FrameResiduals:
    """Scaled defects of the two frame equations at the points of the data,
    one block column at a time.

    d/dz Phi = Phi lambda_minus and d/dzbar Phi = Phi lambda_plus, with the
    coefficients of connection_coefficients: the z derivative of phi_a is
    phi_a lambda_minus[a, a] + phi_{a+1} lambda_minus[a+1, a], and its zbar
    derivative phi_{a-1} lambda_plus[a-1, a].  Both sides are read from the
    exact derivatives of the point data.
    """
    lam_m, lam_p = connection_coefficients(data)
    blocks = [data.partition.slice(a) for a in range(data.t + 1)]
    res_minus, res_plus = [], []
    for a, s in enumerate(blocks):
        phi, phi_dz, phi_dzbar, _ = data.phis[a]
        terms = [phi @ lam_m[..., s, s]]
        if a < data.t:
            terms.append(data.phis[a + 1][0] @ lam_m[..., blocks[a + 1], s])
        res_minus.append(scaled_defect(phi_dz, terms))
        terms = [data.phis[a - 1][0] @ lam_p[..., blocks[a - 1], s]] if a else []
        res_plus.append(scaled_defect(phi_dzbar, terms))
    return FrameResiduals(minus=tuple(res_minus), plus=tuple(res_plus))


def induced_metric(betas: Sequence[np.ndarray], b_sub: Sequence[np.ndarray]) -> tuple:
    """The metric coefficients g_a = Re tr(beta_a^-1 B_a^dagger beta_{a+1} B_a),
    one for each block B_a of b_sub.

    betas are the gram blocks and b_sub the blocks B_a = B_{a+1,a} of the
    block subdiagonal of B, at a point or stacked over points: the frame
    data on the Frenet side, the blocks of gamma and of c_minus on the Toda
    side.  Each g_a is defined through the rank increment into level a+1,
    so there is one below each level but the top one.
    """
    out = []
    for a, b in enumerate(b_sub):
        product = np.linalg.inv(betas[a]) @ dagger(b) @ betas[a + 1] @ b
        out.append(np.trace(product, axis1=-2, axis2=-1).real)
    return tuple(out)


def kahler_check(data: FrenetPointData) -> tuple:
    """Per level scaled defect of the potential identity at the points of
    the data.

    The mixed derivative d/dz d/dzbar of ln det beta_a, the trace
    tr(beta^-1 ddbar beta) less tr(beta^-1 dbar beta beta^-1 d beta), must
    equal g_a - g_{a-1}, with g_{-1} = g_t = 0.  Both traces count as terms
    in the scaling: they grow with the condition of beta_a and cancel.
    """

    def trace(m):  # as a 1 by 1 matrix, the shape scaled_defect reads
        return np.trace(m, axis1=-2, axis2=-1).real[..., None, None]

    # g_{a-1} and g_a sit at gs[a] and gs[a + 1], between the boundary zeros
    zero = np.zeros((1, 1))
    gs = [zero] + [np.asarray(g)[..., None, None] for g in data.metric] + [zero]
    out = []
    for a in range(data.t + 1):
        _, beta_dz, beta_dzbar, beta_dz_dzbar = data.betas[a]
        inv = data.betas_inv[a]
        lhs = trace(inv @ beta_dz_dzbar)
        slopes = trace(inv @ beta_dzbar @ inv @ beta_dz)
        out.append(scaled_defect(lhs, [slopes, gs[a + 1], -gs[a]]))
    return tuple(out)


def connection_coefficients(data: FrenetPointData) -> tuple:
    """The pair (lambda_minus, lambda_plus) of coefficients of the frame
    equations d/dz Phi = Phi lambda_minus and d/dzbar Phi = Phi lambda_plus,
    assembled from point data and stacked over its points as the data is.

    lambda_minus holds the gram slopes beta_a^-1 d beta_a on its block
    diagonal and B below it; lambda_plus holds beta_a^-1 D_a beta_{a+1},
    D = -B^dagger, above its block diagonal.  The pair is the Toda
    connection (gamma^-1 d gamma + c_minus, gamma^-1 c_plus gamma) of
    gamma = blockdiag(beta_a), with c_minus the block subdiagonal of B and
    c_plus = -c_minus^dagger.  This is the one place they are formed.
    """
    part = data.partition
    lam_m = np.zeros(data.betas[0][0].shape[:-2] + (part.n, part.n), dtype=complex)
    lam_p = np.zeros_like(lam_m)
    for a in range(data.t + 1):
        s = part.slice(a)
        lam_m[..., s, s] = data.betas_inv[a] @ data.betas[a][1]
    for a in range(data.t):
        lam_m[..., part.slice(a + 1), part.slice(a)] = data.b_sub[a]
        lam_p[..., part.slice(a), part.slice(a + 1)] = (
            data.betas_inv[a] @ -dagger(data.b_sub[a]) @ data.betas[a + 1][0]
        )
    return lam_m, lam_p


def linear_fullness(seq: OsculatingSequence) -> bool:
    """Whether the osculating flag eventually fills C^n, n the number of
    rows of the curve."""
    return seq.partition.n == seq.n
