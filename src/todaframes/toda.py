"""Nonabelian Toda systems attached to a block gradation of gl(n).

The field of the system is the block diagonal matrix gamma, and the data
consists of a holomorphic matrix c_minus of pure negative degree and an
antiholomorphic c_plus of the opposite degree.  Antiholomorphic objects
are stored as polynomial matrices in the conjugate variable: a stored
matrix q represents the map z -> q(zbar), which keeps every coefficient
exact and plays well with conjugate transposition of polynomial matrices.

The solution procedure, solve, transports two triangular factors from a
basepoint, Gauss decomposes their quotient, and assembles gamma, with the
frame map phi in hermitian mode; it and its check, transport_defect, are
the only entry points to transport.
Transport solves the matrix linear ODE mu' = mu A with
A = gamma c gamma^{-1}.  A has pure nonzero degree, so it is strictly
block triangular and nilpotent, and the Picard series of mu ends after
count - 1 terms (count is the number of blocks).  Each term is a nested
integral along a straight leg, taken on Gauss-Legendre nodes; a leg
whose integrand the nodes do not resolve is cut in halves, and a leg
still unresolved in MAX_PIECES pieces fails its endpoint.  Since gamma is
block diagonal, A is zero outside the nonzero blocks of c, and its block
(a, b) is gamma_a c_ab gamma_b^{-1}: the integrand, and solve's slopes, are
formed on those blocks alone, with gamma's diagonal blocks inverted in
closed form up to size 2.  The Picard sweep stays on that block pattern:
a term is kept as its blocks, the next term's block (a, b) sums the
running integral's block (a, j) times A's block (j, b) over the pairs
that meet, and each term is added to the factor block by block, so no
full n by n product is taken along a leg.

In hermitian mode the plus data is derived from the minus data, the
quotient is hermitian positive definite, and the assembled gamma is
hermitian with phi^dagger h phi = gamma; no other mode has a metric h.

Each factor has an exact derivative at its own endpoint, d mu_minus =
mu_minus A_minus and dbar mu_plus = mu_plus A_plus, so the quotient, the
Schur complements that make up its block diagonal factor, and gamma carry
exact jets (value, d/dz, d/dzbar, d/dz d/dzbar) from the one transport per
point; the residual checks read those jets and need no neighbouring point.

Transport is the one step no residual check can see, since a factor off
by a constant, mu -> C mu, is another exact solution at its point:
transport_defect checks it by composing the factors along a bent path.

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
    jet_inv,
    jet_mul,
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
    "transport_defect",
]

MU_NORM_LIMIT = 1e12
# Gauss-Legendre nodes per straight piece of a transport leg, the
# relative size of the last two Legendre coefficients of the integrand
# below which a piece counts as resolved, and the most pieces a leg is cut
# into before its endpoint fails.
NODES = 24
TAIL_TOL = 1e-13
MAX_PIECES = 512
_TINY = np.finfo(float).tiny
_DIVERGED = (
    f"integration: transport diverged: a leg unresolved in {MAX_PIECES} pieces, "
    f"a singular seed on the path, or a factor norm above {MU_NORM_LIMIT:g}"
)


def _nonzero_blocks(m: PolyMatrix, blocks: BlockStructure, name: str):
    """m.block_pattern(blocks); m must be square of the size of the blocks."""
    if m.shape != (blocks.n, blocks.n):
        raise InvalidArgument(name, f"{name} must be {blocks.n} by {blocks.n}, got {m.shape}")
    return m.block_pattern(blocks)


def _require_block_diagonal(m: PolyMatrix, blocks: BlockStructure, name: str):
    if any(a != b for a, b in _nonzero_blocks(m, blocks, name)):
        raise InvalidArgument(name, f"{name} must be block diagonal")


def _derive_gap(spec: GradationSpec, found: dict[str, tuple]) -> int | None:
    """The gap l of the c data, None when both are zero.

    found maps "c_minus" and "c_plus" to their nonzero block positions.  l
    is read from the first nonzero block of c_minus, or of c_plus when
    c_minus is zero, and is at least 1; every nonzero block of c_minus must
    then have degree -l and every one of c_plus degree +l.  The gradation
    must have no nonzero subspace in 0 < degree < l: label runs are
    nonnegative, so its smallest positive degree is its smallest positive
    label.  A band violation names the seed the gap was read from.
    """
    sign = {"c_minus": -1, "c_plus": 1}
    degrees = {name: [(a, b, degree_of_block(spec, a, b)) for a, b in found[name]] for name in sign}
    source = "c_minus" if degrees["c_minus"] else "c_plus"
    if not degrees[source]:
        return None
    gap = max(1, sign[source] * degrees[source][0][2])
    for name, entries in degrees.items():
        for a, b, d in entries:
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
    None, and giving one is an error.  minus_pattern and plus_pattern are
    the nonzero block positions (a, b) of c_minus and of c_plus, in row
    order, read once here: transport builds its integrand and its Picard
    sweep on them alone.
    """

    gradation: GradationSpec
    c_minus: PolyMatrix
    c_plus: PolyMatrix | None = None
    h: HermitianMetric | None = None
    hermitian_mode: bool = field(init=False)
    gap: int | None = field(init=False)
    minus_pattern: tuple[tuple[int, int], ...] = field(init=False)
    plus_pattern: tuple[tuple[int, int], ...] = field(init=False)

    def __post_init__(self):
        hermitian = self.c_plus is None
        object.__setattr__(self, "hermitian_mode", hermitian)
        if hermitian:
            object.__setattr__(self, "c_plus", self.c_minus.conjugate_transpose().scale(-1))
        blocks = self.gradation.blocks
        found = {name: _nonzero_blocks(getattr(self, name), blocks, name) for name in ("c_minus", "c_plus")}
        object.__setattr__(self, "minus_pattern", found["c_minus"])
        object.__setattr__(self, "plus_pattern", found["c_plus"])
        object.__setattr__(self, "gap", _derive_gap(self.gradation, found))
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


def _diagonal(x: np.ndarray, blocks: BlockStructure) -> list[np.ndarray]:
    """Views of the diagonal blocks of x, over its last two axes."""
    return [x[..., s, s] for s in map(blocks.slice, range(blocks.count))]


def _det(x: np.ndarray) -> np.ndarray:
    """Determinants over the last two axes: the entry of a 1 by 1 block, ad -
    bc of a 2 by 2 block [[a, b], [c, d]], np.linalg.det of a wider one."""
    if x.shape[-1] == 1:
        return x[..., 0, 0]
    if x.shape[-1] == 2:
        return x[..., 0, 0] * x[..., 1, 1] - x[..., 0, 1] * x[..., 1, 0]
    return np.linalg.det(x)


def _scaled(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """x times 2^e, exactly, for a complex x."""
    out = np.empty_like(x)
    out.real, out.imag = np.ldexp(x.real, e), np.ldexp(x.imag, e)
    return out


def _seed_inverse(g: np.ndarray, blocks: BlockStructure):
    """The inverses of the diagonal blocks of the block diagonal seed values
    g, over the last two axes, with the mask of the leading axes where a
    block is singular.

    The determinants are _det's.  Where a block's determinant is 0,
    subnormal or not finite, the block is scaled by 2^-e, with 2^e the power
    of two just above its largest real or imaginary part, and inverted as
    that scaled block, whose inverse is scaled back by 2^-e.  The scaling is
    exact: a seed scaled as a whole inverts as the seed does, and where the
    determinant is a normal number it would change no bit, so it is skipped
    there.  A block is singular where its determinant, after that scaling,
    is 0 or not finite.  A 1 by 1 block is inverted by its reciprocal, a 2
    by 2 block by its adjugate over ad - bc, and a wider one by
    np.linalg.inv.  Where the mask is set, g and the blocks are set to the
    identity, in place, before inverting, so nothing is divided by zero.
    """
    parts, dets, exponents = [], [], []
    singular = np.zeros(g.shape[:-2], dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for x in _diagonal(g, blocks):
            det, e = _det(x), None
            magnitude = np.abs(det)
            # a NaN fails both comparisons
            if magnitude.size and not (magnitude.min() >= _TINY and magnitude.max() < np.inf):
                normal = (magnitude >= _TINY) & (magnitude < np.inf)
                largest = np.maximum(np.abs(x.real), np.abs(x.imag)).max(axis=(-2, -1))
                e = np.where(normal, 0, -np.frexp(largest)[1])[..., None, None]
                x = _scaled(x, e)
                det = _det(x)
                singular |= ~np.isfinite(det) | (det == 0)
            parts.append(x)
            dets.append(det)
            exponents.append(e)
    if singular.any():
        g[singular] = np.eye(blocks.n)
        for x, det, e in zip(parts, dets, exponents):
            x[singular] = np.eye(x.shape[-1])
            det[singular] = 1.0
            if e is not None:
                e[singular] = 0
    inverses = []
    for x, det, e in zip(parts, dets, exponents):
        if x.shape[-1] == 1:
            inverse = 1.0 / x
        elif x.shape[-1] == 2:
            inverse = np.empty_like(x)
            inverse[..., 0, 0], inverse[..., 1, 1] = x[..., 1, 1], x[..., 0, 0]
            inverse[..., 0, 1], inverse[..., 1, 0] = -x[..., 0, 1], -x[..., 1, 0]
            inverse /= det[..., None, None]
        else:
            inverse = np.linalg.inv(x)
        inverses.append(inverse if e is None else _scaled(inverse, e))
    return inverses, singular


def _assemble(parts: list, positions, blocks: BlockStructure, like: np.ndarray) -> np.ndarray:
    """The array shaped like like that holds parts[i] in block positions[i]
    over its last two axes and is zero elsewhere."""
    out = np.zeros_like(like)
    for (i, j), x in zip(positions, parts):
        out[..., blocks.slice(i), blocks.slice(j)] = x
    return out


def _slope_blocks(c: np.ndarray, g: list, g_inv: list, pattern: tuple, blocks: BlockStructure) -> list:
    """The blocks A[a, b] = g[a] c[a, b] g_inv[b] of A = g c g^{-1}, over the
    last two axes, for a block diagonal g given by its diagonal blocks g[a]
    and their inverses g_inv[a]: c has pure degree, so A is zero outside
    the nonzero blocks (a, b) of c, the pattern, and only those are formed,
    in its order."""
    return [g[i] @ c[..., blocks.slice(i), blocks.slice(j)] @ g_inv[j] for i, j in pattern]


def _slope(c: np.ndarray, g: list, g_inv: list, pattern: tuple, blocks: BlockStructure) -> np.ndarray:
    """A = g c g^{-1} as a full array, zero outside the pattern (_slope_blocks)."""
    return _assemble(_slope_blocks(c, g, g_inv, pattern, blocks), pattern, blocks, c)


def _packed(term: list) -> np.ndarray:
    """The blocks (a, b, x) of a Picard term, each x of shape (panels, NODES,
    r, c), side by side as one (panels, NODES, entries) array."""
    return np.concatenate([x.reshape(x.shape[:2] + (-1,)) for _, _, x in term], axis=-1)


def _unpacked(flat: np.ndarray, term: list) -> list:
    """The blocks of term's layout read back from flat, whose last axis is
    packed as _packed packs term: views shaped flat.shape[:-1] + (r, c)."""
    out, start = [], 0
    for _, _, x in term:
        stop = start + x.shape[-2] * x.shape[-1]
        out.append(flat[..., start:stop].reshape(flat.shape[:-1] + x.shape[-2:]))
        start = stop
    return out


def _panels(
    gamma_rep: PolyMatrix,
    c_rep: PolyMatrix,
    pattern: tuple,
    blocks: BlockStructure,
    lo: np.ndarray,
    hi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Transport over each straight panel lo[p] -> hi[p], from the identity.

    Returns the panel factors with two masks: panels whose integrand the
    nodes do not resolve, and panels where gamma is singular at a node.
    Everything is kept on the block pattern.  The integrand A = gamma c
    gamma^{-1} is formed only on the nonzero blocks of c (the pattern),
    from the inverses of gamma's diagonal blocks (_seed_inverse), and the
    resolution test reads the Legendre tails of those blocks alone.  A
    Picard term is a list of blocks (a, b, values), laid out panel first,
    (panels, NODES, r, c), and packed side by side for the node
    contractions, so each panel's contraction is a product of a fixed shape
    whatever the number of panels.  The first term is A itself; each later
    one is the running integral of the one before times A, formed as the
    sum over j of its block (a, j) times A's block (j, b) for the pairs
    that meet, so the term of depth m lives on the blocks of degree m times
    c's: on the (1, 2, 1) data A has 4 entries and the second term 1, one 1
    by 2 times 2 by 1 product a node.  The series has count - 1 terms, and
    ends sooner when a term has no block; an empty pattern transports to
    the identity.  Each term's integral is added to the factor block by
    block.
    """
    s, w, integrate, analysis = _rule()
    size = lo.size
    delta = hi - lo
    nodes = lo[:, None] + s[None, :] * delta[:, None]
    gm = gamma_rep.evaluate(nodes)
    inverses, singular = _seed_inverse(gm, blocks)
    mu = np.broadcast_to(np.eye(blocks.n, dtype=complex), (size, blocks.n, blocks.n)).copy()
    if not pattern:
        return mu, np.zeros(size, dtype=bool), singular.any(axis=1)
    slope = _slope_blocks(c_rep.evaluate(nodes), _diagonal(gm, blocks), inverses, pattern, blocks)
    a = term = [(i, j, x * delta[:, None, None, None]) for (i, j), x in zip(pattern, slope)]
    flat = _packed(a)
    coeffs = np.abs(analysis @ flat)
    unresolved = coeffs[:, -2:].max(axis=(1, 2)) > TAIL_TOL * coeffs.max(axis=(1, 2))
    for sweep in range(blocks.count - 1):
        if sweep:
            products = {}
            for (i, j, _), running in zip(term, _unpacked(integrate @ flat, term)):
                for jj, k, y in a:
                    if jj == j:
                        x = running @ y
                        products[i, k] = products[i, k] + x if (i, k) in products else x
            term = [(i, k, x) for (i, k), x in products.items()]
            if not term:
                break
            flat = _packed(term)
        for (i, j, _), total in zip(term, _unpacked(w @ flat, term)):
            mu[:, blocks.slice(i), blocks.slice(j)] += total
    return mu, unresolved, singular.any(axis=1)


def _transport_many(
    gamma_rep: PolyMatrix,
    c_rep: PolyMatrix,
    pattern: tuple,
    blocks: BlockStructure,
    start: complex,
    ends,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """Transport factors along straight legs start -> ends[p], batched.

    Solves mu' = mu A with A = gamma c gamma^{-1} along each leg, mu = I
    at its start, by count - 1 Picard sweeps on Gauss-Legendre nodes (exact,
    since that is the nilpotency index of A minus one); pattern is the list
    of nonzero blocks of c, the only blocks where A and the sweep are
    formed (_panels).  A leg whose integrand is not resolved is cut into 2,
    4, 8, ... equal pieces whose factors compose by right multiplication.
    Returns (mu, failed, g, g_inv).  An endpoint fails when a diagonal
    block of gamma is singular there or at a node of its leg, when its leg
    needs more than MAX_PIECES pieces, or when the factor leaves the norm
    guard; its factor is then NaN, and the other endpoints are unaffected.
    g is gamma at the ends and g_inv the inverses of its diagonal blocks
    there (_seed_inverse), which test the endpoints, since the nodes are
    interior.  solve's slopes read both, so each seed is evaluated and
    inverted once at the grid.  Where gamma is singular both hold the
    identity.
    """
    ends = np.asarray(ends, dtype=complex).ravel()
    k = blocks.n
    mu = np.full((ends.size, k, k), np.nan, dtype=complex)
    g = gamma_rep.evaluate(ends)
    g_inv, failed = _seed_inverse(g, blocks)
    todo = np.flatnonzero(~failed)
    pieces = 1
    while todo.size and pieces <= MAX_PIECES:
        frac = np.linspace(0.0, 1.0, pieces + 1)
        cuts = start + frac[None, :] * (ends[todo] - start)[:, None]
        cuts[:, -1] = ends[todo]
        legs, unresolved, singular = _panels(
            gamma_rep, c_rep, pattern, blocks, cuts[:, :-1].ravel(), cuts[:, 1:].ravel()
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
    return mu, failed, g, g_inv


@dataclass(frozen=True)
class TodaSolution:
    """Output of the solution procedure: stacks with the point axis first,
    in grid order.  gamma_jet is the jet (value, d/dz, d/dzbar, d/dz
    d/dzbar) of gamma, each part stacked over the points, as
    FrenetPointData.gamma_jet is; gamma, phi, mu_minus and mu_plus are n by
    n per point.  phi is built only in hermitian mode and is None
    elsewhere.  failures[i] is None or the text of what failed point i,
    whose gamma and phi are NaN (mu_minus and mu_plus are NaN where
    transport failed).  problem, gamma_minus, gamma_plus (None in hermitian
    mode) and basepoint are what the solution was solved from, which
    transport_defect reads."""

    problem: TodaProblem
    gamma_minus: PolyMatrix
    gamma_plus: PolyMatrix | None
    basepoint: complex
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

    This is the one solver of the package.  Each factor is
    transported in one batch over the grid, along straight paths from the
    basepoint: mu_minus with the seed gamma_minus, and, outside hermitian
    mode, mu_plus with the block diagonal antiholomorphic seed gamma_plus
    (stored in the conjugate variable) along the conjugated paths; in
    hermitian mode mu_plus is the inverse conjugate transpose of mu_minus.
    Transport evaluates each seed at the grid points and inverts its
    diagonal blocks there, once: a point where a block is singular fails
    before its leg is integrated, and the slopes of the other points read
    the same values and inverses.  The rest runs once on the stack of
    points transport reached: one Gauss decomposition of the quotients,
    then gamma with its exact jet, returned as gamma_jet, and, in
    hermitian mode only, phi, built with the inverse of the Cholesky factor
    g0 of the metric, g0^dagger g0 = h, on the left, which makes phi^dagger
    h phi = gamma.  A point fails as "integration: ...", "gauss: ..." or
    "SingularBeta: ..." (a diagonal block of gamma beyond the condition
    guard) and leaves the stack there; the other points are unaffected.
    Transport factors along different legs compose by right
    multiplication: the factor at z from basepoint 0 is the one at w from 0
    times the one at z from basepoint w.
    """
    _require_block_diagonal(gamma_minus, problem.blocks, "gamma_minus")
    if (gamma_plus is None) != problem.hermitian_mode:
        why = "derived from gamma_minus in" if problem.hermitian_mode else "required outside"
        raise InvalidArgument("gamma_plus", f"gamma_plus is {why} hermitian mode")
    if gamma_plus is not None:
        _require_block_diagonal(gamma_plus, problem.blocks, "gamma_plus")
    blocks = problem.blocks

    z = np.array([complex(p) for p in grid], dtype=complex)
    minus, failed, gm, gm_inv = _transport_many(
        gamma_minus, problem.c_minus, problem.minus_pattern, blocks, complex(basepoint), z
    )
    gp = plus_inv = None
    if problem.hermitian_mode:
        plus = np.full_like(minus, np.nan)
        plus[~failed] = np.linalg.inv(dagger(minus[~failed]))
    else:
        plus, failed_plus, gp, plus_inv = _transport_many(
            gamma_plus, problem.c_plus, problem.plus_pattern, blocks, np.conj(complex(basepoint)), z.conj()
        )
        failed |= failed_plus
        minus[failed] = plus[failed] = np.nan
    alive = Survivors(z.shape)
    keep = alive.drop([_DIVERGED if f else None for f in failed])
    w, mu_m, mu_p, gm, gm_inv, gp, plus_inv = take((z, minus, plus, gm, gm_inv, gp, plus_inv), keep)

    # the transport slopes, on the block pattern of c as in transport:
    # A_minus = gamma_minus c_minus gamma_minus^-1 at z and A_plus =
    # gamma_plus c_plus gamma_plus^-1 at zbar, where in hermitian mode
    # gamma_plus is the inverse conjugate transpose of gamma_minus.  The
    # seeds and the inverses of their diagonal blocks are transport's, at
    # the points it reached.  The seed jets have None for their zero parts:
    # gamma_minus is holomorphic and gamma_plus^-1, its blocks the inverses
    # of gamma_plus's, antiholomorphic
    a_minus = _slope(problem.c_minus_at(w), _diagonal(gm, blocks), gm_inv, problem.minus_pattern, blocks)
    gm = (gm, gamma_minus.derivative().evaluate(w), None, None)
    if problem.hermitian_mode:
        quotient = dagger(mu_m) @ mu_m
        gp_inv = (dagger(gm[0]), None, dagger(gm[1]), None)
        plus_blocks, plus_inv = [dagger(x) for x in gm_inv], _diagonal(gp_inv[0], blocks)
    else:
        quotient = np.linalg.inv(mu_p) @ mu_m
        plus_blocks = _diagonal(gp, blocks)
        dgp = _diagonal(gamma_plus.derivative().evaluate(w.conj()), blocks)
        diagonal = [(a, a) for a in range(blocks.count)]
        gp_inv = (
            _assemble(plus_inv, diagonal, blocks, gp),
            None,
            _assemble([-x @ d @ x for x, d in zip(plus_inv, dgp)], diagonal, blocks, gp),
            None,
        )
    a_plus = _slope(problem.c_plus_at(w), plus_blocks, plus_inv, problem.plus_pattern, blocks)
    factors = gauss_decompose(quotient, blocks)
    keep = alive.drop([None if f is None else f"gauss: {f}" for f in factors.failures])
    mu_m, gm, gp_inv, quotient, eta, n_plus, a_minus, a_plus = take(
        (mu_m, gm, gp_inv, quotient, factors.eta, factors.n_plus, a_minus, a_plus), keep
    )
    eta_jet = _eta_jet(_quotient_jet(quotient, a_minus, a_plus), blocks)
    gamma = jet_mul(jet_mul(gp_inv, (eta, *eta_jet[1:])), gm)
    g0inv = np.linalg.inv(problem.h.cholesky_factor()) if problem.hermitian_mode else None
    phi = None if g0inv is None else g0inv @ mu_m @ n_plus @ gm[0]
    gamma, phi = _gamma_guard(alive, gamma[0], blocks, z, "SingularBeta: {}".format, (gamma, phi))

    return TodaSolution(
        problem=problem,
        gamma_minus=gamma_minus,
        gamma_plus=gamma_plus,
        basepoint=complex(basepoint),
        grid=tuple(complex(p) for p in z),
        gamma_jet=tuple(map(alive.full, gamma)),
        phi=None if phi is None else alive.full(phi),
        mu_minus=minus,
        mu_plus=plus,
        failures=tuple(alive.failures),
    )


@np.errstate(over="ignore", invalid="ignore")
def transport_defect(solution: TodaSolution, via: complex):
    """The bent-path defect of solve's transport, the one check that sees
    a transport error, since every Toda residual is read at its own point.

    Legs compose by right multiplication, so at each point z the straight
    factor mu(b -> z) from the basepoint b must equal mu(b -> m) mu(m -> z)
    with m = via.  The defect is the scaled_defect of mu(b -> m) mu(m -> z)
    against mu(b -> z), the larger over mu_minus and, outside hermitian
    mode, mu_plus, whose legs run in the conjugate variable; the problem,
    the seeds and b are the ones the solution was solved from.  It is taken
    at the points of the solution that did not fail, with one more batched
    transport per factor, and returns (defect, failures) over the grid: NaN
    and None at a point that failed in solve, and a point whose leg m -> z
    fails gets solve's "integration: ..." text.  When the leg b -> m itself
    fails there is no check: None.
    """
    problem = solution.problem
    ok = list(solution.ok_indices)
    z = np.array(solution.grid, dtype=complex)[ok]
    b, m = solution.basepoint, complex(via)
    sides = [(solution.gamma_minus, problem.c_minus, problem.minus_pattern, b, m, z, solution.mu_minus[ok])]
    if not problem.hermitian_mode:
        b, m, z = np.conj(b), np.conj(m), z.conj()
        sides.append((solution.gamma_plus, problem.c_plus, problem.plus_pattern, b, m, z, solution.mu_plus[ok]))
    defect = np.zeros(len(ok))
    failed = np.zeros(len(ok), dtype=bool)
    for seed, c, pattern, start, mid, ends, straight in sides:
        first, lost = _transport_many(seed, c, pattern, problem.blocks, start, [mid])[:2]
        if lost[0]:
            return None
        second, lost = _transport_many(seed, c, pattern, problem.blocks, mid, ends)[:2]
        defect = np.fmax(defect, scaled_defect(first[0] @ second, [straight]))
        failed |= lost
    out = np.full(len(solution.grid), np.nan)
    out[ok] = np.where(failed, np.nan, defect)
    failures = [None] * len(solution.grid)
    for i in np.array(ok, dtype=int)[failed]:
        failures[i] = _DIVERGED
    return out, tuple(failures)


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
    omega_plus = gamma^{-1} c_plus gamma; its curvature is dbar omega_minus
    - d omega_plus + [omega_plus, omega_minus], with the norm divided by
    max(1, the largest norm among its terms).  It checks nothing that
    toda_residual does not: its degree +l part cancels for any jet, and its
    degree 0 part is the Toda equation.  The two differ only off the
    diagonal blocks of gamma's jet, which a solution's gamma never has.
    It is not exported and no report column reads it; the benchmark's
    tracer still times it, so it stays.
    """
    alive, jet, inv, cm, cp = _guarded(problem, gamma_jet, z)
    g, dg = jet[0], jet[1]
    om = inv[0] @ dg + cm
    op = inv[0] @ cp @ g
    d_op = inv[1] @ cp @ g + inv[0] @ cp @ dg
    lhs = inv[0] @ jet[3]
    return alive.full(scaled_defect(lhs, [-(inv[2] @ dg), d_op, om @ op, -(op @ om)]))[()]


def phi_relation(problem: TodaProblem, phi: np.ndarray, gamma: np.ndarray):
    """Scaled defect of phi^dagger h phi = gamma, over the last two axes;
    the identity, and phi, belong to hermitian mode only."""
    if not problem.hermitian_mode:
        raise InvalidArgument("problem", "phi_relation needs a problem in hermitian mode")
    return scaled_defect(dagger(phi) @ problem.h.matrix @ phi, [gamma])
