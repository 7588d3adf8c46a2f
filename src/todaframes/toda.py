"""Nonabelian Toda systems attached to a block gradation of gl(n).

The field of the system is the block diagonal matrix gamma, and the data
consists of a holomorphic matrix c_minus of pure negative degree and an
antiholomorphic c_plus of the opposite degree.  Antiholomorphic objects
are stored as polynomial matrices in the conjugate variable: a stored
matrix q represents the map z -> q(zbar), which keeps every coefficient
exact and plays well with conjugate transposition of polynomial matrices.

The solution procedure transports two triangular factors from a basepoint,
Gauss decomposes their quotient, and assembles gamma together with the
frame map phi.  Transport solves the matrix linear ODE mu' = mu A with
A = gamma c gamma^{-1}.  A has pure nonzero degree, so it is strictly
block triangular and nilpotent, and the Picard series of mu ends after
count - 1 terms (count is the number of blocks).  Each term is a nested
integral along a straight leg, taken on Gauss-Legendre nodes; a leg
whose integrand the nodes do not resolve is cut in halves, and a leg
still unresolved after the allowed number of pieces fails its endpoint.

In hermitian mode the plus data is derived from the minus data, the
quotient is hermitian positive definite, and the assembled gamma is
hermitian with phi^dagger h phi = gamma.

Derivative convention, as everywhere in the package: the minus derivative
is d/dz, the plus derivative is d/dzbar.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    GaussDecompositionFailed,
    IntegrationDiverged,
    SingularBeta,
)
from .grading import GradationSpec, degree_of_block
from .linalg import COND_LIMIT, BlockStructure, HermitianMetric, gauss_decompose
from .poly import PolyMatrix
from .wirtinger import DEFAULT_STEP, d_minus, d_plus, memoized

__all__ = [
    "MU_NORM_LIMIT",
    "TodaProblem",
    "TodaSolution",
    "check_phi_relation",
    "integrate_mu",
    "residual_stencil",
    "solve",
    "toda_residual",
    "zero_curvature_check",
]

MU_NORM_LIMIT = 1e12
# Gauss-Legendre nodes per straight piece of a transport leg, and the
# relative size of the last two Legendre coefficients of the integrand
# below which a piece counts as resolved.
NODES = 32
TAIL_TOL = 1e-13


def _nonzero_blocks_pure_degree(m: PolyMatrix, spec: GradationSpec, degree: int, name: str):
    blocks = spec.blocks
    if m.shape != (spec.n, spec.n):
        raise ValueError(f"{name} must be {spec.n} by {spec.n}, got {m.shape}")
    for a in range(blocks.count):
        for b in range(blocks.count):
            if degree_of_block(spec, a, b) == degree:
                continue
            sa, sb = blocks.slice(a), blocks.slice(b)
            for i in range(sa.start, sa.stop):
                for j in range(sb.start, sb.stop):
                    if not m.entry(i, j).is_zero:
                        raise ValueError(
                            f"{name} has a nonzero entry in block ({a}, {b}) of "
                            f"degree {degree_of_block(spec, a, b)}, expected pure "
                            f"degree {degree}"
                        )


def _check_gap(spec: GradationSpec, gap: int):
    degrees = {
        degree_of_block(spec, a, b)
        for a in range(spec.count)
        for b in range(spec.count)
    }
    positive = sorted(d for d in degrees if d > 0)
    if positive and positive[0] < gap:
        raise ValueError(
            f"gradation has a nonzero subspace in degree {positive[0]}, "
            f"inside the required trivial band 0 < degree < {gap}"
        )


def _require_block_diagonal(m: PolyMatrix, blocks: BlockStructure, name: str):
    if m.shape != (blocks.n, blocks.n):
        raise ValueError(f"{name} must be {blocks.n} by {blocks.n}, got {m.shape}")
    for a in range(blocks.count):
        for b in range(blocks.count):
            if a == b:
                continue
            sa, sb = blocks.slice(a), blocks.slice(b)
            for i in range(sa.start, sa.stop):
                for j in range(sb.start, sb.stop):
                    if not m.entry(i, j).is_zero:
                        raise ValueError(f"{name} must be block diagonal")


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
            raise ValueError("gap must be a positive integer")
        _check_gap(self.gradation, self.gap)
        _nonzero_blocks_pure_degree(self.c_minus, self.gradation, -self.gap, "c_minus")
        _nonzero_blocks_pure_degree(self.c_plus, self.gradation, self.gap, "c_plus")
        if self.h.n != self.gradation.n:
            raise ValueError("metric size does not match the gradation")
        if self.hermitian_mode:
            expected = self.c_minus.conjugate_transpose().scale(-1)
            if self.c_plus != expected:
                raise ValueError("hermitian mode requires c_plus = -(c_minus)^dagger")

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

    def c_minus_at(self, z: complex) -> np.ndarray:
        return self.c_minus.evaluate(z)

    def c_plus_at(self, z: complex) -> np.ndarray:
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
    nodes = (lo[None, :] + s[:, None] * delta[None, :]).ravel()
    gm = gamma_rep.evaluate_many(nodes)
    cm = c_rep.evaluate_many(nodes)
    det = np.linalg.det(gm)
    singular = ~np.isfinite(det) | (det == 0)
    gm[singular] = np.eye(k)
    a = (gm @ cm @ np.linalg.inv(gm)).reshape(NODES, size, k, k)
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
    return mu, unresolved, singular.reshape(NODES, size).any(axis=0)


def _transport_many(
    gamma_rep: PolyMatrix,
    c_rep: PolyMatrix,
    starts,
    ends,
    steps: int,
    depth: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Transport factors along straight legs starts[p] -> ends[p], batched.

    Solves mu' = mu A with A = gamma c gamma^{-1} along each leg, mu = I
    at its start, by depth Picard sweeps on Gauss-Legendre nodes (exact
    once depth reaches the nilpotency index of A minus one).  A leg whose
    integrand is not resolved is cut into 2, 4, 8, ... equal pieces whose
    factors compose by right multiplication.  Returns (mu, failed): an
    endpoint fails when its leg needs more than steps pieces, when gamma
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
    while todo.size and pieces <= steps:
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


def _diverged(steps: int) -> str:
    return (
        f"transport diverged: a leg unresolved in {steps} pieces, a singular "
        f"seed on the path, or a factor norm above {MU_NORM_LIMIT:g}"
    )


def _mu_path(gamma_rep: PolyMatrix, c_rep: PolyMatrix, waypoints, steps: int, depth: int) -> np.ndarray:
    """Transport along the polygon through the waypoints, legs composed in order."""
    legs, failed = _transport_many(gamma_rep, c_rep, waypoints[:-1], waypoints[1:], steps, depth)
    if failed.any():
        raise IntegrationDiverged(_diverged(steps))
    mu = np.eye(gamma_rep.rows, dtype=complex)
    for leg in legs:
        mu = mu @ leg
    return mu


def integrate_mu(
    problem: TodaProblem,
    gamma_minus: PolyMatrix,
    basepoint: complex,
    z: complex,
    steps: int = 1000,
    via: Sequence[complex] = (),
    gamma_plus: PolyMatrix | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Both transport factors at z, integrated from the basepoint.

    The path is straight unless intermediate waypoints are given, in which
    case the legs are integrated and composed in order; the holomorphic
    integrand makes the result path independent, which the tests exercise.
    steps is the most pieces one straight leg may be cut into; a leg that
    is still unresolved then, or that meets a singular seed, raises
    IntegrationDiverged.  In hermitian mode the plus factor is the inverse
    conjugate transpose of the minus factor; otherwise a block diagonal
    antiholomorphic seed gamma_plus (stored in the conjugate variable) is
    required, and the plus factor is transported in the conjugate variable
    along the conjugated waypoints.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    _require_block_diagonal(gamma_minus, problem.blocks, "gamma_minus")
    waypoints = np.array([basepoint, *via, z], dtype=complex)
    depth = problem.blocks.count - 1
    mu_minus = _mu_path(gamma_minus, problem.c_minus, waypoints, steps, depth)
    if problem.hermitian_mode:
        mu_plus = np.linalg.inv(mu_minus.conj().T)
    else:
        if gamma_plus is None:
            raise ValueError("gamma_plus is required outside hermitian mode")
        _require_block_diagonal(gamma_plus, problem.blocks, "gamma_plus")
        mu_plus = _mu_path(gamma_plus, problem.c_plus, waypoints.conj(), steps, depth)
    return mu_minus, mu_plus


@dataclass(frozen=True)
class TodaSolution:
    """Per point output of the solution procedure.

    Failed points keep their slot: the matrices are None there and the
    failure string records what went wrong, so a grid report can show
    every requested point exactly once.
    """

    grid: tuple[complex, ...]
    blocks: BlockStructure
    hermitian_mode: bool
    gamma: tuple[np.ndarray | None, ...]
    phi: tuple[np.ndarray | None, ...]
    mu_minus: tuple[np.ndarray | None, ...]
    mu_plus: tuple[np.ndarray | None, ...]
    failures: tuple[str | None, ...]

    @property
    def ok_indices(self) -> tuple[int, ...]:
        return tuple(i for i, f in enumerate(self.failures) if f is None)

    @property
    def failure_fraction(self) -> float:
        if not self.grid:
            return 0.0
        return 1.0 - len(self.ok_indices) / len(self.grid)

    def hermiticity_residuals(self) -> tuple[float | None, ...]:
        """Relative defect of gamma from being hermitian, per point."""
        out: list[float | None] = []
        for g in self.gamma:
            if g is None:
                out.append(None)
            else:
                scale = max(1.0, float(np.linalg.norm(g)))
                out.append(float(np.linalg.norm(g - g.conj().T)) / scale)
        return tuple(out)

    def min_block_eigenvalues(self) -> tuple[float | None, ...]:
        """Smallest eigenvalue over the diagonal blocks of gamma, per point.

        Meaningful for hermitian solutions, where positivity of the blocks
        is the geometric regularity condition; reported, never enforced.
        """
        out: list[float | None] = []
        for g in self.gamma:
            if g is None:
                out.append(None)
                continue
            worst = np.inf
            for a in range(self.blocks.count):
                s = self.blocks.slice(a)
                block = g[s, s]
                sym = 0.5 * (block + block.conj().T)
                worst = min(worst, float(np.min(np.linalg.eigvalsh(sym))))
            out.append(worst)
        return tuple(out)


def solve(
    problem: TodaProblem,
    gamma_minus: PolyMatrix,
    grid: Sequence[complex],
    g0: np.ndarray | None = None,
    basepoint: complex = 0.0,
    steps: int = 1000,
    gamma_plus: PolyMatrix | None = None,
) -> TodaSolution:
    """Run the full solution procedure over a grid of points.

    Each factor is transported in one batch over the grid (straight paths
    from the basepoint, the plus factor in the conjugate variable), the
    quotient of the factors is Gauss decomposed per point, and gamma and
    phi are assembled from the outputs.  The constant g0 is a factor of
    the metric, g0^dagger g0 = h (defaulting to the Cholesky factor); phi
    is built with its inverse on the left, which is what makes phi^dagger
    h phi = gamma in hermitian mode.  steps is the most pieces one path
    may be cut into (see integrate_mu).  Transport and Gauss cell failures
    are recorded per point, as "integration: ..." and "gauss: ...", and
    leave the other points intact.
    """
    _require_block_diagonal(gamma_minus, problem.blocks, "gamma_minus")
    if not problem.hermitian_mode:
        if gamma_plus is None:
            raise ValueError("gamma_plus is required outside hermitian mode")
        _require_block_diagonal(gamma_plus, problem.blocks, "gamma_plus")
    if g0 is None:
        g0 = problem.h.cholesky_factor()
    g0 = np.asarray(g0, dtype=complex)
    residual = np.linalg.norm(g0.conj().T @ g0 - problem.h.matrix)
    if residual > 1e-9 * max(1.0, float(np.linalg.norm(problem.h.matrix))):
        raise ValueError("g0 must factor the metric: g0^dagger g0 = h")
    g0inv = np.linalg.inv(g0)

    pts = [complex(p) for p in grid]
    ends = np.array(pts, dtype=complex)
    depth = problem.blocks.count - 1
    minus, failed = _transport_many(
        gamma_minus, problem.c_minus, complex(basepoint), ends, steps, depth
    )
    if problem.hermitian_mode:
        plus = np.full_like(minus, np.nan)
        plus[~failed] = np.linalg.inv(minus[~failed].conj().transpose(0, 2, 1))
    else:
        plus, failed_plus = _transport_many(
            gamma_plus, problem.c_plus, np.conj(complex(basepoint)), ends.conj(), steps, depth
        )
        failed |= failed_plus
    failures: list[str | None] = [
        f"integration: {_diverged(steps)}" if f else None for f in failed
    ]
    mu_m_all = [None if f else m for f, m in zip(failed, minus)]
    mu_p_all = [None if f else m for f, m in zip(failed, plus)]

    gammas: list[np.ndarray | None] = [None] * len(pts)
    phis: list[np.ndarray | None] = [None] * len(pts)
    for i, z in enumerate(pts):
        if failures[i] is not None:
            continue
        mu_m, mu_p = mu_m_all[i], mu_p_all[i]
        gm_z = gamma_minus.evaluate(z)
        if problem.hermitian_mode:
            quotient = mu_m.conj().T @ mu_m
            gp_inv = gm_z.conj().T
        else:
            quotient = np.linalg.inv(mu_p) @ mu_m
            gp_inv = np.linalg.inv(gamma_plus.evaluate(np.conj(z)))
        try:
            factors = gauss_decompose(quotient, problem.blocks)
        except GaussDecompositionFailed as exc:
            failures[i] = f"gauss: {exc}"
            continue
        gammas[i] = gp_inv @ factors.eta @ gm_z
        phis[i] = g0inv @ mu_m @ factors.n_plus @ gm_z

    return TodaSolution(
        grid=tuple(pts),
        blocks=problem.blocks,
        hermitian_mode=problem.hermitian_mode,
        gamma=tuple(gammas),
        phi=tuple(phis),
        mu_minus=tuple(mu_m_all),
        mu_plus=tuple(mu_p_all),
        failures=tuple(failures),
    )


def residual_stencil(z: complex, fd_step: float = DEFAULT_STEP) -> list[complex]:
    """Every point a residual check may query around z.

    Mirrors the nested central difference stencils used by toda_residual
    and zero_curvature_check, including the exact floating point
    arithmetic, so a field known at these points, such as a dict filled
    from one solve over them, answers every query of both checks.
    """
    z = complex(z)
    outer = [z + fd_step, z - fd_step, z + 1j * fd_step, z - 1j * fd_step]
    pts = [z, *outer]
    for w in outer:
        pts.extend([w + fd_step, w - fd_step, w + 1j * fd_step, w - 1j * fd_step])
    return pts


def _block_cond_guard(g: np.ndarray, blocks: BlockStructure, z: complex):
    for a in range(blocks.count):
        s = blocks.slice(a)
        cond = np.linalg.cond(g[s, s])
        if not np.isfinite(cond) or cond > COND_LIMIT:
            raise SingularBeta(
                f"gamma block {a} at z={z:g} has condition {cond:.3e}"
            )


def toda_residual(
    problem: TodaProblem,
    gamma_field: Callable[[complex], np.ndarray],
    z: complex,
    fd_step: float = DEFAULT_STEP,
) -> tuple[float, ...]:
    """Defect of the Toda equations at a point, one norm per block.

    The equations are checked in matrix form: the plus derivative of
    gamma^{-1} (d gamma) must match the commutator of c_minus with the
    gamma conjugate of c_plus.  Both sides are block diagonal, and the
    defect is reported blockwise.
    """
    if fd_step <= 0:
        raise ValueError("fd_step must be positive")
    field = memoized(gamma_field)
    center = field(z)
    _block_cond_guard(center, problem.blocks, z)

    def slope(w: complex) -> np.ndarray:
        return np.linalg.inv(field(w)) @ d_minus(field, w, fd_step)

    lhs = d_plus(slope, z, fd_step)
    cm = problem.c_minus_at(z)
    cx = np.linalg.inv(center) @ problem.c_plus_at(z) @ center
    defect = lhs - (cm @ cx - cx @ cm)
    out = []
    for a in range(problem.blocks.count):
        s = problem.blocks.slice(a)
        out.append(float(np.linalg.norm(defect[s, s])))
    return tuple(out)


def zero_curvature_check(
    problem: TodaProblem,
    gamma_field: Callable[[complex], np.ndarray],
    z: complex,
    fd_step: float = DEFAULT_STEP,
) -> float:
    """Curvature norm of the connection built from gamma and the c data.

    The connection has omega_minus = gamma^{-1} (d gamma) + c_minus and
    omega_plus = gamma^{-1} c_plus gamma; its curvature vanishes exactly
    when the Toda equations hold, so this is an independent cross check of
    toda_residual on the same field.
    """
    if fd_step <= 0:
        raise ValueError("fd_step must be positive")
    field = memoized(gamma_field)
    center = field(z)
    _block_cond_guard(center, problem.blocks, z)

    def omega_minus(w: complex) -> np.ndarray:
        return np.linalg.inv(field(w)) @ d_minus(field, w, fd_step) + problem.c_minus_at(w)

    def omega_plus(w: complex) -> np.ndarray:
        g = field(w)
        return np.linalg.inv(g) @ problem.c_plus_at(w) @ g

    om, op = omega_minus(z), omega_plus(z)
    curvature = (
        d_plus(omega_minus, z, fd_step)
        - d_minus(omega_plus, z, fd_step)
        + op @ om
        - om @ op
    )
    return float(np.linalg.norm(curvature))


def check_phi_relation(
    solution: TodaSolution,
    problem: TodaProblem,
    g0: np.ndarray | None = None,
) -> float:
    """Worst relative defect of phi^dagger h phi = gamma over the grid.

    The metric is recovered from g0 when one is supplied (h = g0^dagger
    g0), matching whatever factor was used during assembly; failed points
    are skipped.
    """
    if g0 is not None:
        g0 = np.asarray(g0, dtype=complex)
        h = g0.conj().T @ g0
    else:
        h = problem.h.matrix
    worst = 0.0
    seen = False
    for i in solution.ok_indices:
        seen = True
        phi = solution.phi[i]
        gamma = solution.gamma[i]
        defect = np.linalg.norm(phi.conj().T @ h @ phi - gamma)
        worst = max(worst, float(defect / max(1e-300, np.linalg.norm(gamma))))
    if not seen:
        raise ValueError("no successfully solved points to check")
    return worst
