"""Nonabelian Toda systems attached to a block gradation of gl(n).

The field of the system is the block diagonal matrix gamma, and the data
consists of a holomorphic matrix c_minus of pure negative degree and an
antiholomorphic c_plus of the opposite degree.  Antiholomorphic objects
are stored as polynomial matrices in the conjugate variable: a stored
matrix q represents the map z -> q(zbar), which keeps every coefficient
exact and plays well with conjugate transposition of polynomial matrices.

The solution procedure, solve, transports two triangular factors from a
basepoint, Gauss decomposes their quotient, and assembles gamma together
with the frame map phi; it is the only entry point to transport.
Transport solves the matrix linear ODE mu' = mu A with
A = gamma c gamma^{-1}.  A has pure nonzero degree, so it is strictly
block triangular and nilpotent, and the Picard series of mu ends after
count - 1 terms (count is the number of blocks).  Each term is a nested
integral along a straight leg, taken on Gauss-Legendre nodes; a leg
whose integrand the nodes do not resolve is cut in halves, and a leg
still unresolved in MAX_PIECES pieces fails its endpoint.

In hermitian mode the plus data is derived from the minus data, the
quotient is hermitian positive definite, and the assembled gamma is
hermitian with phi^dagger h phi = gamma.

Each factor has an exact derivative at its own endpoint, d mu_minus =
mu_minus A_minus and dbar mu_plus = mu_plus A_plus, so the quotient, the
Schur complements that make up its block diagonal factor, and gamma carry
exact jets (value, d/dz, d/dzbar, d/dz d/dzbar) from the one transport per
point; the residual checks read those jets and need no neighbouring point.

Derivative convention, as everywhere in the package: the minus derivative
is d/dz, the plus derivative is d/dzbar.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import GaussDecompositionFailed, InvalidArgument, SingularBeta
from .grading import GradationSpec, degree_of_block
from .linalg import (
    COND_LIMIT,
    BlockStructure,
    HermitianMetric,
    condition,
    gauss_decompose,
    jet_h,
    jet_inv,
    jet_mul,
    scaled_defect,
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


def _require_pure_degree(m: PolyMatrix, spec: GradationSpec, degree: int, name: str):
    for a, b in _nonzero_blocks(m, spec.blocks, name):
        found = degree_of_block(spec, a, b)
        if found != degree:
            raise InvalidArgument(
                name,
                f"{name} has a nonzero entry in block ({a}, {b}) of degree {found}, "
                f"expected pure degree {degree}",
            )


def _require_block_diagonal(m: PolyMatrix, blocks: BlockStructure, name: str):
    if any(a != b for a, b in _nonzero_blocks(m, blocks, name)):
        raise InvalidArgument(name, f"{name} must be block diagonal")


def _check_gap(spec: GradationSpec, gap: int):
    degrees = {
        degree_of_block(spec, a, b)
        for a in range(spec.count)
        for b in range(spec.count)
    }
    positive = sorted(d for d in degrees if d > 0)
    if positive and positive[0] < gap:
        raise InvalidArgument(
            "gap",
            f"gradation has a nonzero subspace in degree {positive[0]}, "
            f"inside the required trivial band 0 < degree < {gap}",
        )


@dataclass(frozen=True)
class TodaProblem:
    """Gradation, gap, the two constant-degree matrices, and the metric.

    c_minus is holomorphic (a plain polynomial matrix of z) and purely of
    degree -gap in the gradation.  c_plus is stored in the conjugate
    variable: the matrix q kept here acts as z -> q(zbar) and is purely of
    degree +gap.  In hermitian mode c_plus is minus the conjugate
    transpose of c_minus pointwise, which in the stored representation is
    an exact polynomial identity.
    """

    gradation: GradationSpec
    gap: int
    c_minus: PolyMatrix
    c_plus: PolyMatrix
    h: HermitianMetric
    hermitian_mode: bool = False

    def __post_init__(self):
        if self.gap < 1:
            raise InvalidArgument("gap", "gap must be a positive integer")
        _check_gap(self.gradation, self.gap)
        _require_pure_degree(self.c_minus, self.gradation, -self.gap, "c_minus")
        _require_pure_degree(self.c_plus, self.gradation, self.gap, "c_plus")
        if self.h.n != self.gradation.n:
            raise InvalidArgument("h", "metric size does not match the gradation")
        if self.hermitian_mode:
            expected = self.c_minus.conjugate_transpose().scale(-1)
            if self.c_plus != expected:
                raise InvalidArgument("c_plus", "hermitian mode requires c_plus = -(c_minus)^dagger")

    @classmethod
    def hermitian_problem(
        cls,
        gradation: GradationSpec,
        gap: int,
        c_minus: PolyMatrix,
        h: HermitianMetric | None = None,
    ) -> "TodaProblem":
        """Problem with the plus data derived from the minus data."""
        metric = HermitianMetric.identity(gradation.n) if h is None else h
        return cls(
            gradation=gradation,
            gap=gap,
            c_minus=c_minus,
            c_plus=c_minus.conjugate_transpose().scale(-1),
            h=metric,
            hermitian_mode=True,
        )

    @property
    def blocks(self) -> BlockStructure:
        return self.gradation.blocks

    @property
    def n(self) -> int:
        return self.gradation.n

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
    starts,
    ends,
    depth: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Transport factors along straight legs starts[p] -> ends[p], batched.

    Solves mu' = mu A with A = gamma c gamma^{-1} along each leg, mu = I
    at its start, by depth Picard sweeps on Gauss-Legendre nodes (exact
    once depth reaches the nilpotency index of A minus one).  A leg whose
    integrand is not resolved is cut into 2, 4, 8, ... equal pieces whose
    factors compose by right multiplication.  Returns (mu, failed): an
    endpoint fails when its leg needs more than MAX_PIECES pieces, when gamma
    is singular at a node, or when the factor leaves the norm guard; its
    factor is then NaN, and the other endpoints are unaffected.
    """
    starts, ends = np.broadcast_arrays(
        np.asarray(starts, dtype=complex).ravel(), np.asarray(ends, dtype=complex).ravel()
    )
    k = gamma_rep.rows
    mu = np.full((ends.size, k, k), np.nan, dtype=complex)
    failed = np.zeros(ends.size, dtype=bool)
    todo = np.arange(ends.size)
    pieces = 1
    while todo.size and pieces <= MAX_PIECES:
        frac = np.linspace(0.0, 1.0, pieces + 1)
        cuts = starts[todo, None] + frac[None, :] * (ends[todo] - starts[todo])[:, None]
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
    """Per point output of the solution procedure.

    gamma_jets holds the jet (value, d/dz, d/dzbar, d/dz d/dzbar) of gamma
    at each point.  Failed points keep their slot: the matrices are None
    there and the failure string records what went wrong, so a grid report
    can show every requested point exactly once.
    """

    grid: tuple[complex, ...]
    blocks: BlockStructure
    hermitian_mode: bool
    gamma_jets: tuple[tuple[np.ndarray, ...] | None, ...]
    phi: tuple[np.ndarray | None, ...]
    mu_minus: tuple[np.ndarray | None, ...]
    mu_plus: tuple[np.ndarray | None, ...]
    failures: tuple[str | None, ...]

    @property
    def gamma(self) -> tuple[np.ndarray | None, ...]:
        return tuple(None if j is None else j[0] for j in self.gamma_jets)

    @property
    def ok_indices(self) -> tuple[int, ...]:
        return tuple(i for i, f in enumerate(self.failures) if f is None)

    @property
    def failure_fraction(self) -> float:
        if not self.grid:
            return 0.0
        return 1.0 - len(self.ok_indices) / len(self.grid)


def _quotient_jet(q: np.ndarray, a_minus: np.ndarray, a_plus: np.ndarray) -> tuple:
    """Jet of Q = mu_plus^-1 mu_minus from the factors' slopes at the point:
    d Q = Q A_minus, dbar Q = -A_plus Q, and A_minus is holomorphic, A_plus
    antiholomorphic."""
    qa = q @ a_minus
    return q, qa, -a_plus @ q, -a_plus @ qa


def _eta_jet(q_jet: tuple, blocks: BlockStructure) -> tuple:
    """Jet of the block diagonal Gauss factor of Q: its block a is the Schur
    complement of the leading a blocks of Q."""
    eta = tuple(np.zeros_like(x) for x in q_jet)
    for a in range(blocks.count):
        s = blocks.slice(a)
        part = [x[s, s] for x in q_jet]
        if s.start:
            lead = slice(0, s.start)
            inner = jet_inv(tuple(x[lead, lead] for x in q_jet))
            row = tuple(x[s, lead] for x in q_jet)
            col = tuple(x[lead, s] for x in q_jet)
            part = [x - y for x, y in zip(part, jet_mul(jet_mul(row, inner), col))]
        for x, y in zip(eta, part):
            x[s, s] = y
    return eta


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
    The quotient of the factors is Gauss decomposed per point, and gamma
    and phi are assembled from the outputs, gamma with its exact jet.  phi
    is built with the inverse of the Cholesky factor g0 of the metric,
    g0^dagger g0 = h, on the left, which is what makes phi^dagger h phi =
    gamma in hermitian mode.  Transport and Gauss cell failures are
    recorded per point, as "integration: ..." and "gauss: ...", and leave
    the other points intact.  Transport factors along different legs
    compose by right multiplication: the factor at z from basepoint 0 is
    the one at w from 0 times the one at z from basepoint w.
    """
    _require_block_diagonal(gamma_minus, problem.blocks, "gamma_minus")
    if not problem.hermitian_mode:
        if gamma_plus is None:
            raise InvalidArgument("gamma_plus", "gamma_plus is required outside hermitian mode")
        _require_block_diagonal(gamma_plus, problem.blocks, "gamma_plus")
    g0inv = np.linalg.inv(problem.h.cholesky_factor())

    pts = [complex(p) for p in grid]
    ends = np.array(pts, dtype=complex)
    depth = problem.blocks.count - 1
    minus, failed = _transport_many(gamma_minus, problem.c_minus, complex(basepoint), ends, depth)
    if problem.hermitian_mode:
        plus = np.full_like(minus, np.nan)
        plus[~failed] = np.linalg.inv(minus[~failed].conj().transpose(0, 2, 1))
    else:
        plus, failed_plus = _transport_many(
            gamma_plus, problem.c_plus, np.conj(complex(basepoint)), ends.conj(), depth
        )
        failed |= failed_plus
    diverged = (
        f"integration: transport diverged: a leg unresolved in {MAX_PIECES} pieces, "
        f"a singular seed on the path, or a factor norm above {MU_NORM_LIMIT:g}"
    )
    failures: list[str | None] = [diverged if f else None for f in failed]
    mu_m_all = [None if f else m for f, m in zip(failed, minus)]
    mu_p_all = [None if f else m for f, m in zip(failed, plus)]

    zero = np.zeros((problem.n, problem.n), dtype=complex)
    gm_all = gamma_minus.evaluate(ends)
    dgm_all = gamma_minus.derivative().evaluate(ends)
    if not problem.hermitian_mode:
        gp_all = gamma_plus.evaluate(ends.conj())
        dgp_all = gamma_plus.derivative().evaluate(ends.conj())
    cm_all, cp_all = problem.c_minus_at(ends), problem.c_plus_at(ends)
    gammas: list[tuple | None] = [None] * len(pts)
    phis: list[np.ndarray | None] = [None] * len(pts)
    for i in range(len(pts)):
        if failures[i] is not None:
            continue
        mu_m, mu_p = mu_m_all[i], mu_p_all[i]
        gm = (gm_all[i], dgm_all[i], zero, zero)
        if problem.hermitian_mode:
            quotient = mu_m.conj().T @ mu_m
            gp_inv = jet_h(gm)
        else:
            quotient = np.linalg.inv(mu_p) @ mu_m
            gp_inv = jet_inv((gp_all[i], zero, dgp_all[i], zero))
        try:
            factors = gauss_decompose(quotient, problem.blocks)
        except GaussDecompositionFailed as exc:
            failures[i] = f"gauss: {exc}"
            continue
        # the transport slopes: A_minus = gamma_minus c_minus gamma_minus^-1
        # at z and A_plus = gamma_plus c_plus gamma_plus^-1 at zbar
        a_minus = gm[0] @ cm_all[i] @ np.linalg.inv(gm[0])
        a_plus = np.linalg.solve(gp_inv[0], cp_all[i] @ gp_inv[0])
        eta = _eta_jet(_quotient_jet(quotient, a_minus, a_plus), problem.blocks)
        gammas[i] = jet_mul(jet_mul(gp_inv, (factors.eta, *eta[1:])), gm)
        phis[i] = g0inv @ mu_m @ factors.n_plus @ gm[0]

    return TodaSolution(
        grid=tuple(pts),
        blocks=problem.blocks,
        hermitian_mode=problem.hermitian_mode,
        gamma_jets=tuple(gammas),
        phi=tuple(phis),
        mu_minus=tuple(mu_m_all),
        mu_plus=tuple(mu_p_all),
        failures=tuple(failures),
    )


def _block_cond_guard(g: np.ndarray, blocks: BlockStructure, z: complex):
    for a in range(blocks.count):
        s = blocks.slice(a)
        cond = condition(g[s, s])
        if cond > COND_LIMIT:
            raise SingularBeta(
                f"gamma block {a} at z={z:g} has condition {cond:.3e}"
            )


def toda_residual(
    problem: TodaProblem,
    gamma_jet: tuple[np.ndarray, ...],
    z: complex,
) -> tuple[float, ...]:
    """Defect of the Toda equations at a point, one scaled norm per block.

    gamma_jet is (gamma, d/dz, d/dzbar, d/dz d/dzbar gamma) at z.  The
    equations are checked in matrix form: the plus derivative of
    gamma^{-1} (d gamma), which is gamma^{-1} (d dbar gamma) less
    gamma^{-1} (dbar gamma) gamma^{-1} (d gamma), must match the
    commutator of c_minus with the gamma conjugate of c_plus.  Both sides
    are block diagonal; each block's defect is divided by max(1, the
    largest norm among its terms).
    """
    _block_cond_guard(gamma_jet[0], problem.blocks, z)
    inv = jet_inv(gamma_jet)
    cm = problem.c_minus_at(z)
    cx = inv[0] @ problem.c_plus_at(z) @ gamma_jet[0]
    lhs = inv[0] @ gamma_jet[3]
    terms = [-(inv[2] @ gamma_jet[1]), cm @ cx, -(cx @ cm)]
    out = []
    for a in range(problem.blocks.count):
        s = problem.blocks.slice(a)
        out.append(scaled_defect(lhs[s, s], [x[s, s] for x in terms]))
    return tuple(out)


def zero_curvature_check(
    problem: TodaProblem,
    gamma_jet: tuple[np.ndarray, ...],
    z: complex,
) -> float:
    """Scaled curvature of the connection built from gamma and the c data.

    The connection has omega_minus = gamma^{-1} (d gamma) + c_minus and
    omega_plus = gamma^{-1} c_plus gamma; its curvature dbar omega_minus -
    d omega_plus + [omega_plus, omega_minus] vanishes exactly when the
    Toda equations hold, so this is an independent cross check of
    toda_residual on the same jet.  c_minus is holomorphic and c_plus
    antiholomorphic, so only gamma's jet enters the derivatives.  The norm
    is divided by max(1, the largest norm among its terms).
    """
    _block_cond_guard(gamma_jet[0], problem.blocks, z)
    g, dg = gamma_jet[0], gamma_jet[1]
    inv = jet_inv(gamma_jet)
    cp = problem.c_plus_at(z)
    om = inv[0] @ dg + problem.c_minus_at(z)
    op = inv[0] @ cp @ g
    d_op = inv[1] @ cp @ g + inv[0] @ cp @ dg
    lhs = inv[0] @ gamma_jet[3]
    return scaled_defect(lhs, [-(inv[2] @ dg), d_op, om @ op, -(op @ om)])


def phi_relation(
    problem: TodaProblem,
    phi: np.ndarray,
    gamma: np.ndarray,
) -> float:
    """Defect of phi^dagger h phi = gamma at a point, relative to ||gamma||."""
    defect = float(np.linalg.norm(phi.conj().T @ problem.h.matrix @ phi - gamma))
    return defect / max(1e-300, float(np.linalg.norm(gamma)))
