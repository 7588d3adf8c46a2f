"""Nonabelian Toda systems attached to a block gradation of gl(n).

The field of the system is the block diagonal matrix gamma, and the data
consists of a holomorphic matrix c_minus of pure negative degree and an
antiholomorphic c_plus of the opposite degree.  Antiholomorphic objects
are stored as polynomial matrices in the conjugate variable: a stored
matrix q represents the map z -> q(zbar), which keeps every coefficient
exact and plays well with conjugate transposition of polynomial matrices.

The solution procedure, solve, transports two triangular factors from a
basepoint, Gauss decomposes their quotient, and assembles gamma, with the
frame map phi in hermitian mode; it is the only entry point to transport.
Transport solves the matrix linear ODE mu' = mu A with
A = gamma c gamma^{-1}.  A has pure nonzero degree, so it is strictly
block triangular and nilpotent, and the Picard series of mu ends after
count - 1 terms (count is the number of blocks).  Each term is a nested
integral along a straight leg, taken on Gauss-Legendre nodes; a leg
whose integrand the nodes do not resolve is cut in halves, and a leg
still unresolved in MAX_PIECES pieces fails its endpoint.

In hermitian mode the plus data is derived from the minus data, the
quotient is hermitian positive definite, and the assembled gamma is
hermitian with phi^dagger h phi = gamma; no other mode has a metric h.

Each factor has an exact derivative at its own endpoint, d mu_minus =
mu_minus A_minus and dbar mu_plus = mu_plus A_plus, so the quotient, the
Schur complements that make up its block diagonal factor, and gamma carry
exact jets (value, d/dz, d/dzbar, d/dz d/dzbar) from the one transport per
point; the residual checks read those jets and need no neighbouring point.

Everything after transport runs once on the stack of grid points, as
frenet.frame_at does: a point that fails a guard leaves the stack through
linalg.Survivors before any inverse sees it, and its slots are NaN.

Derivative convention, as everywhere in the package: the minus derivative
is d/dz, the plus derivative is d/dzbar.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InvalidArgument, SingularBeta
from .grading import GradationSpec, degree_of_block
from .linalg import (
    BlockStructure,
    HermitianMetric,
    Survivors,
    dagger,
    gauss_decompose,
    jet_h,
    jet_inv,
    jet_mul,
    relative_defect,
    scaled_defect,
    take,
)
from .poly import PolyMatrix
from .wirtinger import memoized  # noqa: F401  bench/selftest.py removes and restores toda.memoized

__all__ = [
    "MU_NORM_LIMIT",
    "TodaProblem",
    "TodaSolution",
    "phi_relation",
    "solve",
    "toda_residual",
    "zero_curvature_check",
]

MU_NORM_LIMIT = 1e12
# Gauss-Legendre nodes per straight piece of a transport leg, the
# relative size of the last two Legendre coefficients of the integrand
# below which a piece counts as resolved, and the most pieces a leg is cut
# into before its endpoint fails.
NODES = 32
TAIL_TOL = 1e-13
MAX_PIECES = 512


def _nonzero_blocks(m: PolyMatrix, blocks: BlockStructure, name: str):
    """The block positions (a, b), in row order, where m has a nonzero
    entry; m must be square of the size of the blocks."""
    if m.shape != (blocks.n, blocks.n):
        raise InvalidArgument(name, f"{name} must be {blocks.n} by {blocks.n}, got {m.shape}")
    for a in range(blocks.count):
        for b in range(blocks.count):
            rows = m.entries[blocks.slice(a)]
            if any(not e.is_zero for row in rows for e in row[blocks.slice(b)]):
                yield a, b


def _require_block_diagonal(m: PolyMatrix, blocks: BlockStructure, name: str):
    if any(a != b for a, b in _nonzero_blocks(m, blocks, name)):
        raise InvalidArgument(name, f"{name} must be block diagonal")


def _derive_gap(spec: GradationSpec, c_minus: PolyMatrix, c_plus: PolyMatrix) -> int | None:
    """The gap l of the c data, None when both are zero.

    l is read from the first nonzero block of c_minus, or of c_plus when
    c_minus is zero, and is at least 1; every nonzero block of c_minus must
    then have degree -l and every one of c_plus degree +l.  The gradation
    must have no nonzero subspace in 0 < degree < l: label runs are
    nonnegative, so its smallest positive degree is its smallest positive
    label.  A band violation names the seed the gap was read from.
    """
    sign = {"c_minus": -1, "c_plus": 1}
    found = {
        name: [(a, b, degree_of_block(spec, a, b)) for a, b in _nonzero_blocks(m, spec.blocks, name)]
        for name, m in (("c_minus", c_minus), ("c_plus", c_plus))
    }
    source = "c_minus" if found["c_minus"] else "c_plus"
    if not found[source]:
        return None
    gap = max(1, sign[source] * found[source][0][2])
    for name, degrees in found.items():
        for a, b, d in degrees:
            if d != sign[name] * gap:
                raise InvalidArgument(
                    name,
                    f"{name} has a nonzero entry in block ({a}, {b}) of degree {d}, "
                    f"expected pure degree {sign[name] * gap}",
                )
    band = min((s for s in spec.labels if s > 0), default=gap)
    if band < gap:
        raise InvalidArgument(
            source,
            f"gradation has a nonzero subspace in degree {band}, "
            f"inside the required trivial band 0 < degree < {gap}",
        )
    return gap


@dataclass(frozen=True)
class TodaProblem:
    """Gradation, the two constant-degree matrices, and the hermitian metric.

    c_minus is holomorphic (a plain polynomial matrix of z) and purely of
    degree -gap in the gradation.  c_plus is stored in the conjugate
    variable: the matrix q kept here acts as z -> q(zbar) and is purely of
    degree +gap.  The gap is not given but read from the c data (None when
    both are zero).  The problem is in hermitian mode exactly when c_plus
    is not given: c_plus is then minus the conjugate transpose of c_minus
    pointwise, which in the stored representation is an exact polynomial
    identity, and h (the identity unless given) is the metric of the frame
    phi.  A given c_plus means general mode, whatever its value; there h is
    None, and giving one is an error.
    """

    gradation: GradationSpec
    c_minus: PolyMatrix
    c_plus: PolyMatrix | None = None
    h: HermitianMetric | None = None
    hermitian_mode: bool = field(init=False)
    gap: int | None = field(init=False)

    def __post_init__(self):
        hermitian = self.c_plus is None
        object.__setattr__(self, "hermitian_mode", hermitian)
        if hermitian:
            object.__setattr__(self, "c_plus", self.c_minus.conjugate_transpose().scale(-1))
        object.__setattr__(self, "gap", _derive_gap(self.gradation, self.c_minus, self.c_plus))
        if self.h is None:
            if hermitian:
                object.__setattr__(self, "h", HermitianMetric.identity(self.gradation.n))
        elif not hermitian:
            raise InvalidArgument("h", "a metric is read only in hermitian mode")
        elif self.h.n != self.gradation.n:
            raise InvalidArgument("h", "metric size does not match the gradation")

    @property
    def blocks(self) -> BlockStructure:
        return self.gradation.blocks

    def c_minus_at(self, z: complex | np.ndarray) -> np.ndarray:
        return self.c_minus.evaluate(z)

    def c_plus_at(self, z: complex | np.ndarray) -> np.ndarray:
        return self.c_plus.evaluate(np.conj(z))


@functools.cache
def _rule() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1], with two node matrices.

    integrate maps values at the nodes to the integral from 0 up to each
    node of their interpolant; analysis maps them to the interpolant's
    Legendre coefficients.  Both are exact for polynomials of degree
    below NODES.
    """
    legendre = np.polynomial.legendre
    x, w = legendre.leggauss(NODES)
    analysis = legendre.legvander(x, NODES - 1).T * w * (np.arange(NODES) + 0.5)[:, None]
    antiderivatives = legendre.legval(x, legendre.legint(np.eye(NODES), lbnd=-1)).T
    return 0.5 * (x + 1.0), 0.5 * w, 0.5 * antiderivatives @ analysis, analysis


def _panels(
    gamma_rep: PolyMatrix,
    c_rep: PolyMatrix,
    lo: np.ndarray,
    hi: np.ndarray,
    depth: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Transport over each straight panel lo[p] -> hi[p], from the identity.

    Returns the panel factors with two masks: panels whose integrand the
    nodes do not resolve, and panels where gamma is singular at a node.
    Arrays are laid out node first, (NODES, panels, k, k), so every node
    contraction is one matrix product on a reshaped array.
    """
    s, w, integrate, analysis = _rule()
    k = gamma_rep.rows
    size = lo.size
    delta = hi - lo
    nodes = lo[None, :] + s[:, None] * delta[None, :]
    gm = gamma_rep.evaluate(nodes)
    cm = c_rep.evaluate(nodes)
    det = np.linalg.det(gm)
    singular = ~np.isfinite(det) | (det == 0)
    gm[singular] = np.eye(k)
    a = gm @ cm @ np.linalg.inv(gm)
    a *= delta[None, :, None, None]
    coeffs = np.abs(analysis @ a.reshape(NODES, -1)).reshape(NODES, size, k * k)
    unresolved = coeffs[-2:].max(axis=(0, 2)) > TAIL_TOL * coeffs.max(axis=(0, 2))
    mu = np.broadcast_to(np.eye(k, dtype=complex), (size, k, k)).copy()
    term = np.broadcast_to(np.eye(k, dtype=complex), a.shape)
    for _ in range(depth):
        integrand = (term @ a).reshape(NODES, -1)
        if not integrand.any():
            break
        mu += (w @ integrand).reshape(size, k, k)
        term = (integrate @ integrand).reshape(a.shape)
    return mu, unresolved, singular.any(axis=0)


def _transport_many(
    gamma_rep: PolyMatrix,
    c_rep: PolyMatrix,
    start: complex,
    ends,
    depth: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Transport factors along straight legs start -> ends[p], batched.

    Solves mu' = mu A with A = gamma c gamma^{-1} along each leg, mu = I
    at its start, by depth Picard sweeps on Gauss-Legendre nodes (exact
    once depth reaches the nilpotency index of A minus one).  A leg whose
    integrand is not resolved is cut into 2, 4, 8, ... equal pieces whose
    factors compose by right multiplication.  Returns (mu, failed): an
    endpoint fails when gamma is singular there or at a node of its leg,
    when its leg needs more than MAX_PIECES pieces, or when the factor
    leaves the norm guard; its factor is then NaN, and the other endpoints
    are unaffected.
    """
    ends = np.asarray(ends, dtype=complex).ravel()
    k = gamma_rep.rows
    mu = np.full((ends.size, k, k), np.nan, dtype=complex)
    det = np.linalg.det(gamma_rep.evaluate(ends))
    failed = ~np.isfinite(det) | (det == 0)  # the nodes are interior: check the end itself
    todo = np.flatnonzero(~failed)
    pieces = 1
    while todo.size and pieces <= MAX_PIECES:
        frac = np.linspace(0.0, 1.0, pieces + 1)
        cuts = start + frac[None, :] * (ends[todo] - start)[:, None]
        cuts[:, -1] = ends[todo]
        legs, unresolved, singular = _panels(
            gamma_rep, c_rep, cuts[:, :-1].ravel(), cuts[:, 1:].ravel(), depth
        )
        legs = legs.reshape(todo.size, pieces, k, k)
        singular = singular.reshape(todo.size, pieces).any(axis=1)
        retry = unresolved.reshape(todo.size, pieces).any(axis=1) & ~singular
        done = ~singular & ~retry
        product = legs[done, 0]
        for j in range(1, pieces):
            product = product @ legs[done, j]
        mu[todo[done]] = product
        failed[todo[singular]] = True
        todo = todo[retry]
        pieces *= 2
    failed[todo] = True
    failed |= ~(np.abs(mu).max(axis=(1, 2)) <= MU_NORM_LIMIT)
    mu[failed] = np.nan
    return mu, failed


@dataclass(frozen=True)
class TodaSolution:
    """Output of the solution procedure: stacks with the point axis first,
    in grid order.  gamma_jet is the jet (value, d/dz, d/dzbar, d/dz
    d/dzbar) of gamma, each part stacked over the points, as
    FrenetPointData.gamma_jet is; gamma, phi, mu_minus and mu_plus are n by
    n per point.  phi is built only in hermitian mode and is None
    elsewhere.  failures[i] is None or the text of what failed point i,
    whose gamma and phi are NaN (mu_minus and mu_plus are NaN where
    transport failed)."""

    grid: tuple[complex, ...]
    gamma_jet: tuple[np.ndarray, ...]
    phi: np.ndarray | None
    mu_minus: np.ndarray
    mu_plus: np.ndarray
    failures: tuple[str | None, ...]

    @property
    def gamma(self) -> np.ndarray:
        return self.gamma_jet[0]

    @property
    def ok_indices(self) -> tuple[int, ...]:
        return tuple(i for i, f in enumerate(self.failures) if f is None)

    @property
    def failure_fraction(self) -> float:
        return sum(f is not None for f in self.failures) / max(1, len(self.failures))


def _quotient_jet(q: np.ndarray, a_minus: np.ndarray, a_plus: np.ndarray) -> tuple:
    """Jet of Q = mu_plus^-1 mu_minus from the factors' slopes at the point:
    d Q = Q A_minus, dbar Q = -A_plus Q, and A_minus is holomorphic, A_plus
    antiholomorphic."""
    qa = q @ a_minus
    return q, qa, -a_plus @ q, -a_plus @ qa


def _eta_jet(q_jet: tuple, blocks: BlockStructure) -> tuple:
    """Jet of the block diagonal Gauss factor of Q, over the last two axes:
    its block a is the Schur complement of the leading a blocks of Q."""
    eta = tuple(np.zeros_like(x) for x in q_jet)
    for a in range(blocks.count):
        s = blocks.slice(a)
        part = [x[..., s, s] for x in q_jet]
        if s.start:
            lead = slice(0, s.start)
            inner = jet_inv(tuple(x[..., lead, lead] for x in q_jet))
            row = tuple(x[..., s, lead] for x in q_jet)
            col = tuple(x[..., lead, s] for x in q_jet)
            part = [x - y for x, y in zip(part, jet_mul(jet_mul(row, inner), col))]
        for x, y in zip(eta, part):
            x[..., s, s] = y
    return eta


def _gamma_guard(alive: Survivors, gamma, blocks: BlockStructure, z, error, rows):
    """Fail the live points where a diagonal block of gamma, the stack over
    them, is beyond the condition guard, with error(text) naming the first
    such block; returns the stacks rows on the points that pass."""
    for a in range(blocks.count):
        s = blocks.slice(a)
        keep = alive.guard(
            gamma[:, s, s],
            lambda i, c: error(f"gamma block {a} at z={complex(z[i]):g} has condition {c:.3e}"),
        )
        gamma, rows = take((gamma, rows), keep)
    return rows


@np.errstate(over="ignore", invalid="ignore")
def solve(
    problem: TodaProblem,
    gamma_minus: PolyMatrix,
    grid: Sequence[complex],
    basepoint: complex = 0.0,
    gamma_plus: PolyMatrix | None = None,
) -> TodaSolution:
    """Run the full solution procedure over a grid of points.

    This is the one transport entry point of the package.  Each factor is
    transported in one batch over the grid, along straight paths from the
    basepoint: mu_minus with the seed gamma_minus, and, outside hermitian
    mode, mu_plus with the block diagonal antiholomorphic seed gamma_plus
    (stored in the conjugate variable) along the conjugated paths; in
    hermitian mode mu_plus is the inverse conjugate transpose of mu_minus.
    The rest runs once on the stack of points transport reached: one Gauss
    decomposition of the quotients, then gamma with its exact jet, returned
    as gamma_jet, and, in hermitian mode only, phi, built with the inverse
    of the Cholesky factor g0 of the metric, g0^dagger g0 = h, on the left,
    which makes phi^dagger h phi = gamma.  A point fails as "integration:
    ...", "gauss: ..." or "SingularBeta: ..." (a diagonal block of gamma
    beyond the condition guard) and leaves the stack there; the other
    points are unaffected.  Transport factors along different legs compose
    by right multiplication: the factor at z from basepoint 0 is the one at
    w from 0 times the one at z from basepoint w.
    """
    _require_block_diagonal(gamma_minus, problem.blocks, "gamma_minus")
    if (gamma_plus is None) != problem.hermitian_mode:
        why = "derived from gamma_minus in" if problem.hermitian_mode else "required outside"
        raise InvalidArgument("gamma_plus", f"gamma_plus is {why} hermitian mode")
    if gamma_plus is not None:
        _require_block_diagonal(gamma_plus, problem.blocks, "gamma_plus")
    blocks = problem.blocks

    z = np.array([complex(p) for p in grid], dtype=complex)
    depth = blocks.count - 1
    minus, failed = _transport_many(gamma_minus, problem.c_minus, complex(basepoint), z, depth)
    if problem.hermitian_mode:
        plus = np.full_like(minus, np.nan)
        plus[~failed] = np.linalg.inv(dagger(minus[~failed]))
    else:
        plus, failed_plus = _transport_many(
            gamma_plus, problem.c_plus, np.conj(complex(basepoint)), z.conj(), depth
        )
        failed |= failed_plus
        minus[failed] = plus[failed] = np.nan
    diverged = (
        f"integration: transport diverged: a leg unresolved in {MAX_PIECES} pieces, "
        f"a singular seed on the path, or a factor norm above {MU_NORM_LIMIT:g}"
    )
    alive = Survivors(z.shape)
    w, mu_m, mu_p = take((z, minus, plus), alive.drop([diverged if f else None for f in failed]))

    gm = gamma_minus.evaluate(w)
    zero = np.zeros_like(gm)
    gm = (gm, gamma_minus.derivative().evaluate(w), zero, zero)
    if problem.hermitian_mode:
        quotient = dagger(mu_m) @ mu_m
        gp_inv = jet_h(gm)
    else:
        quotient = np.linalg.inv(mu_p) @ mu_m
        gp = gamma_plus.evaluate(w.conj()), gamma_plus.derivative().evaluate(w.conj())
        gp_inv = jet_inv((gp[0], zero, gp[1], zero))
    factors = gauss_decompose(quotient, blocks)
    keep = alive.drop([None if f is None else f"gauss: {f}" for f in factors.failures])
    w, mu_m, gm, gp_inv, quotient, eta, n_plus = take(
        (w, mu_m, gm, gp_inv, quotient, factors.eta, factors.n_plus), keep
    )
    # the transport slopes: A_minus = gamma_minus c_minus gamma_minus^-1
    # at z and A_plus = gamma_plus c_plus gamma_plus^-1 at zbar
    a_minus = gm[0] @ problem.c_minus_at(w) @ np.linalg.inv(gm[0])
    a_plus = np.linalg.solve(gp_inv[0], problem.c_plus_at(w) @ gp_inv[0])
    eta_jet = _eta_jet(_quotient_jet(quotient, a_minus, a_plus), blocks)
    gamma = jet_mul(jet_mul(gp_inv, (eta, *eta_jet[1:])), gm)
    g0inv = np.linalg.inv(problem.h.cholesky_factor()) if problem.hermitian_mode else None
    phi = None if g0inv is None else g0inv @ mu_m @ n_plus @ gm[0]
    gamma, phi = _gamma_guard(alive, gamma[0], blocks, z, "SingularBeta: {}".format, (gamma, phi))

    return TodaSolution(
        grid=tuple(complex(p) for p in z),
        gamma_jet=tuple(map(alive.full, gamma)),
        phi=None if phi is None else alive.full(phi),
        mu_minus=minus,
        mu_plus=plus,
        failures=tuple(alive.failures),
    )


def _guarded(problem: TodaProblem, gamma_jet, z):
    """The common core of the two Toda checks: the Survivors of the points
    z, and on the points that pass the gamma block guard, as flat stacks,
    gamma's jet, the jet of its inverse, c_minus and c_plus."""
    alive = Survivors(np.shape(z))
    w = np.reshape(z, -1)
    jet = tuple(np.reshape(x, (-1,) + np.shape(x)[-2:]) for x in gamma_jet)
    jet, w = _gamma_guard(alive, jet[0], problem.blocks, w, SingularBeta, (jet, w))
    return alive, jet, jet_inv(jet), problem.c_minus_at(w), problem.c_plus_at(w)


def toda_residual(problem: TodaProblem, gamma_jet, z) -> tuple:
    """Defect of the Toda equations, one scaled norm per block, at a point
    or at an array of points z.

    gamma_jet is (gamma, d/dz, d/dzbar, d/dz d/dzbar gamma), each a matrix
    or a stack over z.  The equations are checked in matrix form: the plus
    derivative of gamma^{-1} (d gamma), which is gamma^{-1} (d dbar gamma)
    less gamma^{-1} (dbar gamma) gamma^{-1} (d gamma), must match the
    commutator of c_minus with the gamma conjugate of c_plus.  Both sides
    are block diagonal; each block's defect is divided by max(1, the
    largest norm among its terms).  A point whose gamma has a block beyond
    the condition guard reads NaN, and a single one raises SingularBeta.
    """
    alive, jet, inv, cm, cp = _guarded(problem, gamma_jet, z)
    cx = inv[0] @ cp @ jet[0]
    lhs = inv[0] @ jet[3]
    terms = [-(inv[2] @ jet[1]), cm @ cx, -(cx @ cm)]
    slices = map(problem.blocks.slice, range(problem.blocks.count))
    out = [scaled_defect(lhs[:, s, s], [x[:, s, s] for x in terms]) for s in slices]
    return tuple(alive.full(x)[()] for x in out)


def zero_curvature_check(problem: TodaProblem, gamma_jet, z):
    """Scaled curvature of the connection built from gamma and the c data,
    at a point or at an array of points z, guarded as toda_residual is.

    The connection has omega_minus = gamma^{-1} (d gamma) + c_minus and
    omega_plus = gamma^{-1} c_plus gamma; its curvature dbar omega_minus -
    d omega_plus + [omega_plus, omega_minus] vanishes exactly when the
    Toda equations hold, so this is an independent cross check of
    toda_residual on the same jet.  c_minus is holomorphic and c_plus
    antiholomorphic, so only gamma's jet enters the derivatives.  The norm
    is divided by max(1, the largest norm among its terms).
    """
    alive, jet, inv, cm, cp = _guarded(problem, gamma_jet, z)
    g, dg = jet[0], jet[1]
    om = inv[0] @ dg + cm
    op = inv[0] @ cp @ g
    d_op = inv[1] @ cp @ g + inv[0] @ cp @ dg
    lhs = inv[0] @ jet[3]
    return alive.full(scaled_defect(lhs, [-(inv[2] @ dg), d_op, om @ op, -(op @ om)]))[()]


def phi_relation(problem: TodaProblem, phi: np.ndarray, gamma: np.ndarray):
    """Defect of phi^dagger h phi = gamma relative to ||gamma||, over the
    last two axes; the identity, and phi, belong to hermitian mode only."""
    if not problem.hermitian_mode:
        raise InvalidArgument("problem", "phi_relation needs a problem in hermitian mode")
    return relative_defect(dagger(phi) @ problem.h.matrix @ phi, gamma)
