"""Osculating sequences and Frenet frames of polynomial curves.

A polynomial column set of constant rank k spans, at every point of the
plane, a k dimensional subspace, a curve in the Grassmannian of C^n.
Differentiating in z and adjoining the genuinely new directions yields the
next osculating level; repeating until the rank stops growing gives the
osculating sequence xi_0, ..., xi_t with the defining relation

    dxi_a/dz = sum over b <= a+1 of xi_b B_{ba},

where the coefficients B are polynomial matrices found exactly by the
adjunction machinery of the poly module.  Orthogonalizing the levels
against a hermitian metric h produces the Frenet frame phi_0, ..., phi_t
and the gram blocks beta_a; the frame satisfies first order equations in
both Wirtinger directions whose data (beta, B, D) feed the Toda module.

Derivative convention, fixed package wide: the minus derivative is d/dz
and the plus derivative is d/dzbar.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import SingularBeta, ZeroFunction
from .linalg import (
    COND_LIMIT,
    BlockStructure,
    HermitianMetric,
    jet_h,
    jet_inv,
    jet_mul,
    scaled_defect,
)
from .poly import (
    Poly,
    PolyMatrix,
    adjoin_columns,
    constant_rank_reduce,
    minor_gcd,
    poly_gcd_many,
)
from .wirtinger import memoized  # noqa: F401  bench/selftest.py removes and restores frenet.memoized

__all__ = [
    "ConnectionCoefficients",
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
    """Levels xi_a, their derivative coefficients, and the rank partition.

    bcoeffs[a][b] is the polynomial matrix B_{ba} (shape k_b by k_a) in the
    expansion of the z derivative of level a; only b <= a+1 occur, and
    B_{t+1,t} is identically zero (the chain has terminated).  rank_drop is
    a monic polynomial whose roots are exactly the points where the input
    column set drops below its generic rank; it is 1 for constant rank
    input.  reduction holds the exact change of basis when a reduction
    was necessary: the polynomial matrix d with xi_0 @ d equal to the
    input columns.
    """

    xis: tuple[PolyMatrix, ...]
    bcoeffs: tuple[tuple[PolyMatrix, ...], ...]
    partition: BlockStructure
    rank_drop: Poly
    reduction: PolyMatrix | None = None

    @property
    def t(self) -> int:
        return len(self.xis) - 1

    @cached_property
    def derivatives(self) -> tuple[PolyMatrix, ...]:
        """The z derivative of every level, built once per sequence."""
        return tuple(x.derivative() for x in self.xis)

    @property
    def n(self) -> int:
        return self.xis[0].rows

    @property
    def total(self) -> int:
        return self.partition.n

    def b_block(self, b: int, a: int) -> PolyMatrix:
        """B_{ba}, the zero matrix when b > a+1 or the chain has ended."""
        sizes = self.partition.sizes
        if not (0 <= a <= self.t and 0 <= b <= self.t):
            raise IndexError(f"no level pair ({b}, {a}) in a chain of length {self.t + 1}")
        if b < len(self.bcoeffs[a]):
            return self.bcoeffs[a][b]
        return PolyMatrix.zeros(sizes[b], sizes[a])

    def c_minus_matrix(self) -> PolyMatrix:
        """Block subdiagonal matrix of the B_{a+1,a}, the holomorphic half
        of the Toda connection for this curve."""
        k = self.total
        sizes = self.partition.sizes
        entries = [[Poly.zero() for _ in range(k)] for _ in range(k)]
        for a in range(self.t):
            blk = self.bcoeffs[a][a + 1]
            r0 = self.partition.offsets[a + 1]
            c0 = self.partition.offsets[a]
            for i in range(sizes[a + 1]):
                for j in range(sizes[a]):
                    entries[r0 + i][c0 + j] = blk.entry(i, j)
        return PolyMatrix(entries)


@dataclass(frozen=True)
class FrenetPointData:
    """The frame and its first order data at one point, with the exact
    d/dz and d/dzbar of every phi_a and beta_a and the mixed d/dz d/dzbar
    of every beta_a."""

    z: complex
    partition: BlockStructure
    phis: tuple[np.ndarray, ...]
    betas: tuple[np.ndarray, ...]
    b_sub: tuple[np.ndarray, ...]
    d_super: tuple[np.ndarray, ...]
    b_solve_residual: float
    phis_dz: tuple[np.ndarray, ...]
    phis_dzbar: tuple[np.ndarray, ...]
    betas_dz: tuple[np.ndarray, ...]
    betas_dzbar: tuple[np.ndarray, ...]
    betas_dz_dzbar: tuple[np.ndarray, ...]

    @property
    def t(self) -> int:
        return len(self.phis) - 1

    @property
    def phi(self) -> np.ndarray:
        """All frame blocks side by side, n by (k_0 + ... + k_t)."""
        return np.hstack(self.phis)

    @property
    def gamma(self) -> np.ndarray:
        """Block diagonal of the gram blocks beta_a."""
        return self.gamma_jet[0]

    @property
    def gamma_jet(self) -> tuple[np.ndarray, ...]:
        """Jet (value, d/dz, d/dzbar, d/dz d/dzbar) of gamma, the field the
        Toda residual checks read."""
        k = self.partition.n
        out = tuple(np.zeros((k, k), dtype=complex) for _ in range(4))
        parts = (self.betas, self.betas_dz, self.betas_dzbar, self.betas_dz_dzbar)
        for x, blocks in zip(out, parts):
            for a, beta in enumerate(blocks):
                s = self.partition.slice(a)
                x[s, s] = beta
        return out


@dataclass(frozen=True)
class FrameResiduals:
    """Norms of the frame equation defects at a point, per level."""

    z: complex
    minus: tuple[float, ...]
    plus: tuple[float, ...]

    @property
    def max_residual(self) -> float:
        return max(self.minus + self.plus)


@dataclass(frozen=True)
class ConnectionCoefficients:
    """First order connection data of the curve at a point.

    lambda_minus is block diagonal plus block subdiagonal, lambda_plus
    strictly block superdiagonal.  The four index arrays act on mixed
    fiber/horizontal tensors: index order (nu, alpha, beta, mu) with
    alpha, beta fiber indices (size k_0) and mu, nu horizontal ones
    (everything past the first block).
    """

    lambda_minus: np.ndarray
    lambda_plus: np.ndarray
    big_lambda_minus: np.ndarray
    big_lambda_plus: np.ndarray


def build_osculating(xi: PolyMatrix) -> OsculatingSequence:
    """Osculating sequence of a polynomial column set.

    The input should have constant rank; if the exact certificate fails, a
    warning is issued and the columns are replaced by a constant rank set
    with the same generic span (the change of basis is kept on the result).
    Levels are built by adjoining the z derivatives of the previous level,
    so every B coefficient is an exact polynomial and the defining relation
    holds identically, not just numerically.
    """
    cols = xi.columns()
    if all(c.is_zero for c in cols):
        raise ZeroFunction("cannot build an osculating sequence of the zero curve")
    cert = minor_gcd(cols)
    reduction = None
    if cert == Poly.one():
        gs = cols
    else:
        warnings.warn(
            "input columns do not have constant rank; reducing to a constant rank set",
            stacklevel=2,
        )
        gs, reduction = constant_rank_reduce(cols)
    if len(gs) == len(cols) and cert == Poly.one():
        rank_drop = Poly.one()
    else:
        rank_drop = poly_gcd_many(minor_gcd(sub) for sub in combinations(cols, len(gs)))

    levels: list[list[PolyMatrix]] = [list(gs)]
    cumulative: list[PolyMatrix] = list(gs)
    raw_coeffs: list[list[list[Poly]]] = []
    while True:
        current = levels[-1]
        derivs = [c.derivative() for c in current]
        extended, coeffs = adjoin_columns(cumulative, derivs)
        new = extended[len(cumulative):]
        raw_coeffs.append(coeffs)
        cumulative = extended
        if not new:
            break
        levels.append(list(new))

    sizes = tuple(len(lv) for lv in levels)
    t = len(sizes) - 1
    assert all(sizes[a] >= sizes[a + 1] for a in range(t)), "ranks must not grow"
    starts = [0]
    for k in sizes:
        starts.append(starts[-1] + k)
    bcoeffs = []
    for a in range(t + 1):
        upto = min(a + 1, t)
        per_b = []
        for b in range(upto + 1):
            rows = []
            for beta in range(sizes[b]):
                idx = starts[b] + beta
                rows.append(
                    [
                        raw_coeffs[a][alpha][idx] if idx < len(raw_coeffs[a][alpha]) else Poly()
                        for alpha in range(sizes[a])
                    ]
                )
            per_b.append(PolyMatrix(rows))
        bcoeffs.append(tuple(per_b))

    return OsculatingSequence(
        xis=tuple(PolyMatrix.from_columns(lv) for lv in levels),
        bcoeffs=tuple(bcoeffs),
        partition=BlockStructure(sizes),
        rank_drop=rank_drop,
        reduction=reduction,
    )


def frame_at(seq: OsculatingSequence, h: HermitianMetric, z: complex) -> FrenetPointData:
    """Frenet frame data at a single point, with its exact derivatives.

    phi_0 is xi_0 itself and each later block is the previous projector
    chain applied to its level, so the blocks are h orthogonal.  Every
    product runs on jets, the truncated hyper-dual numbers of Fike and
    Alonso (2011), seeded by the holomorphic levels and their z
    derivatives, so the Wirtinger derivatives of the frame and gram blocks
    come out of the same pass.  The B blocks are the exact coefficients of
    the sequence, evaluated at z; the recorded solve residual is the scaled
    defect of the defining relation dxi_a/dz = sum of xi_b B_{ba} at every
    level, so it stays at rounding level and large values flag a broken
    sequence.
    """
    hm = h.matrix
    n = seq.n
    t = seq.t
    xs = [seq.xis[a].evaluate(z) for a in range(t + 1)]
    dxs = [seq.derivatives[a].evaluate(z) for a in range(t + 1)]

    zero = np.zeros((n, n), dtype=complex)
    h_jet = (hm, zero, zero, zero)
    proj = (np.eye(n, dtype=complex), zero, zero, zero)
    phis: list[tuple] = []  # jets of the frame and gram blocks
    betas: list[tuple] = []
    for a in range(t + 1):
        # xi_a is holomorphic, so its d/dzbar parts vanish
        xi = (xs[a], dxs[a], np.zeros_like(xs[a]), np.zeros_like(xs[a]))
        phi_a = xi if a == 0 else jet_mul(proj, xi)
        phi_h = jet_h(phi_a)
        beta_a = jet_mul(jet_mul(phi_h, h_jet), phi_a)
        cond = np.linalg.cond(beta_a[0])
        if not np.isfinite(cond) or cond > COND_LIMIT:
            raise SingularBeta(f"gram block {a} at z={z:g} has condition {cond:.3e}")
        phis.append(phi_a)
        betas.append(beta_a)
        if a == t:
            break
        p = jet_mul(jet_mul(jet_mul(phi_a, jet_inv(beta_a)), phi_h), h_jet)
        step = (np.eye(n, dtype=complex) - p[0], -p[1], -p[2], -p[3])
        proj = jet_mul(step, proj)

    b_sub: list[np.ndarray] = []
    solve_residual = 0.0
    for a in range(t + 1):
        bs = [seq.b_block(b, a).evaluate(z) for b in range(min(a + 1, t) + 1)]
        terms = [x @ blk for x, blk in zip(xs, bs)]
        solve_residual = max(solve_residual, scaled_defect(dxs[a], terms))
        if a < t:
            b_sub.append(bs[a + 1])
    d_super = [-b.conj().T for b in b_sub]

    return FrenetPointData(
        z=complex(z),
        partition=seq.partition,
        phis=tuple(p[0] for p in phis),
        betas=tuple(b[0] for b in betas),
        b_sub=tuple(b_sub),
        d_super=tuple(d_super),
        b_solve_residual=solve_residual,
        phis_dz=tuple(p[1] for p in phis),
        phis_dzbar=tuple(p[2] for p in phis),
        betas_dz=tuple(b[1] for b in betas),
        betas_dzbar=tuple(b[2] for b in betas),
        betas_dz_dzbar=tuple(b[3] for b in betas),
    )


def verify_frame_equations(data: FrenetPointData) -> FrameResiduals:
    """Scaled defects of the two frame equations at a point.

    The minus frame equation expresses the z derivative of each block
    through its own gram block and the next block; the plus equation (zbar
    derivative) reaches back to the previous block through D.  Both sides
    are read from the exact derivatives of the point data.
    """
    t = data.t
    res_minus, res_plus = [], []
    for a in range(t + 1):
        terms = [data.phis[a] @ np.linalg.inv(data.betas[a]) @ data.betas_dz[a]]
        if a < t:
            terms.append(data.phis[a + 1] @ data.b_sub[a])
        res_minus.append(scaled_defect(data.phis_dz[a], terms))

        terms = [] if a == 0 else [
            data.phis[a - 1] @ np.linalg.inv(data.betas[a - 1]) @ data.d_super[a - 1] @ data.betas[a]
        ]
        res_plus.append(scaled_defect(data.phis_dzbar[a], terms))
    return FrameResiduals(z=data.z, minus=tuple(res_minus), plus=tuple(res_plus))


def induced_metric(data: FrenetPointData, a: int) -> float:
    """Metric coefficient of the a-th associated curve at the point.

    Defined through the rank increment into level a+1, so a must be below
    the top level; the top curve has no increment.
    """
    if not (0 <= a < data.t):
        raise IndexError(f"metric index {a} outside [0, {data.t})")
    b = data.b_sub[a]
    val = np.trace(
        np.linalg.inv(data.betas[a]) @ b.conj().T @ data.betas[a + 1] @ b
    )
    return float(np.real(val))


def kahler_check(data: FrenetPointData) -> tuple[float, ...]:
    """Per level scaled defect of the potential identity at a point.

    The mixed derivative d/dz d/dzbar of ln det beta_a, the trace
    tr(beta^-1 ddbar beta) less tr(beta^-1 dbar beta beta^-1 d beta), must
    equal g_a - g_{a-1}, with g_{-1} = g_t = 0.  Both traces count as terms
    in the scaling: they grow with the condition of beta_a and cancel.
    """
    # g_{a-1} and g_a sit at gs[a] and gs[a + 1], between the boundary zeros
    gs = [0.0] + [induced_metric(data, a) for a in range(data.t)] + [0.0]
    out = []
    for a in range(data.t + 1):
        inv = np.linalg.inv(data.betas[a])
        lhs = np.trace(inv @ data.betas_dz_dzbar[a]).real
        trace = np.trace(inv @ data.betas_dzbar[a] @ inv @ data.betas_dz[a]).real
        out.append(scaled_defect(lhs, [trace, gs[a + 1], -gs[a]]))
    return tuple(out)


def connection_coefficients(data: FrenetPointData) -> ConnectionCoefficients:
    """Connection coefficients assembled from point data.

    lambda_minus carries the gram slopes beta_a^-1 d beta_a on the
    diagonal and B below it, lambda_plus carries the D data above it, and
    the four index arrays couple the first block (fiber) to the rest
    (horizontal).
    """
    part = data.partition
    k = part.n
    lam_m = np.zeros((k, k), dtype=complex)
    lam_p = np.zeros((k, k), dtype=complex)
    for a in range(data.t + 1):
        s = part.slice(a)
        lam_m[s, s] = np.linalg.inv(data.betas[a]) @ data.betas_dz[a]
    for a in range(data.t):
        lam_m[part.slice(a + 1), part.slice(a)] = data.b_sub[a]
        lam_p[part.slice(a), part.slice(a + 1)] = (
            np.linalg.inv(data.betas[a]) @ data.d_super[a] @ data.betas[a + 1]
        )

    k0 = part.sizes[0]
    nh = k - k0
    fiber_slope = lam_m[:k0, :k0]
    lam_m_h = lam_m[k0:, k0:]
    lam_p_h = lam_p[k0:, k0:]
    eye_f = np.eye(k0, dtype=complex)
    eye_h = np.eye(nh, dtype=complex)
    big_m = np.einsum("ab,nm->nabm", eye_f, lam_m_h) - np.einsum(
        "ab,nm->nabm", fiber_slope, eye_h
    )
    big_p = np.einsum("ab,nm->nabm", eye_f, lam_p_h)

    return ConnectionCoefficients(
        lambda_minus=lam_m,
        lambda_plus=lam_p,
        big_lambda_minus=big_m,
        big_lambda_plus=big_p,
    )


def linear_fullness(seq: OsculatingSequence, n: int) -> bool:
    """Whether the osculating flag eventually fills C^n."""
    return seq.total == n
