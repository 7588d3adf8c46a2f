"""Dense complex linear algebra with block structure.

Matrices are plain numpy arrays of dtype complex128; the jet helpers,
condition, the defects and gauss_decompose act over the last two axes, so
they take a stack of matrices as well as one.  The helpers here add the
pieces numpy does not provide directly: a hermitian metric with its
Cholesky factor, the block Gauss (block LDU) decomposition with unit
triangular outer factors, and Survivors, the one failure isolation of the
stacked computations.

A jet is a tuple (value, d/dz, d/dzbar, d/dz d/dzbar) of matrices, the
truncated hyper-dual numbers of Fike and Alonso (2011); the jet helpers
carry exact Wirtinger derivatives through products and inverses, and
jet_mul, the one Leibniz product, skips the parts known to be zero; a
None part is such a part, and every jet helper passes it through.
scaled_defect is the one residual scaling of every reported identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GaussDecompositionFailed

__all__ = [
    "BlockStructure",
    "HermitianMetric",
    "GaussFactors",
    "Survivors",
    "gauss_decompose",
    "condition",
    "dagger",
    "jet_concat",
    "jet_h",
    "jet_inv",
    "jet_mul",
    "jet_sub",
    "scaled_defect",
    "take",
]

COND_LIMIT = 1e12
# LAPACK's SVD rescales no 1 by 1 matrix x with |x| within these bounds
_UNSCALED = (1e-130, 1e130)


@dataclass(frozen=True)
class BlockStructure:
    """An ordered partition (k_0, ..., k_t) of the matrix dimension."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if not sizes:
            raise ValueError("block structure needs at least one block")
        if any(s < 1 for s in sizes):
            raise ValueError(f"block sizes must be positive, got {sizes}")

    @property
    def n(self) -> int:
        return sum(self.sizes)

    @property
    def count(self) -> int:
        return len(self.sizes)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        out, acc = [], 0
        for s in self.sizes:
            out.append(acc)
            acc += s
        return tuple(out)

    def slice(self, a: int) -> slice:
        off = self.offsets[a]
        return slice(off, off + self.sizes[a])


def jet_mul(x: tuple, y: tuple) -> tuple:
    """Product of two jets by the Leibniz rule.  A part may be None, known
    to be zero: it enters no product, the other terms are summed in the
    rule's order, and a part of the product with no term is None."""
    xv, xm, xp, xmp = x
    yv, ym, yp, ymp = y
    return (
        xv @ yv,
        _sum_of_products((xm, yv), (xv, ym)),
        _sum_of_products((xp, yv), (xv, yp)),
        _sum_of_products((xmp, yv), (xm, yp), (xp, ym), (xv, ymp)),
    )


def _sum_of_products(*pairs):
    """The sum, left to right, of a @ b over the pairs with neither None;
    None when there is no such pair."""
    out = None
    for a, b in pairs:
        if a is not None and b is not None:
            out = a @ b if out is None else out + a @ b
    return out


def jet_sub(x: tuple, y: tuple) -> tuple:
    """Difference of two jets, part by part; a None part is zero, and a part
    None on both sides stays None."""
    return tuple(a if b is None else (-b if a is None else a - b) for a, b in zip(x, y))


def jet_concat(jets, axis: int) -> tuple:
    """The jets side by side along axis, -1 or -2, part by part; a None part
    enters as zeros shaped as its jet's value, and a part None in every jet
    stays None."""
    return tuple(
        None
        if all(x is None for x in parts)
        else np.concatenate([np.zeros_like(j[0]) if x is None else x for j, x in zip(jets, parts)], axis)
        for parts in zip(*jets)
    )


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the last two axes."""
    return m.conj().swapaxes(-1, -2)


def jet_h(x: tuple) -> tuple:
    """Conjugate transpose of a jet; it swaps the d/dz and d/dzbar parts,
    and a None part stays None."""
    v, m, p, mp = x
    return tuple(None if y is None else dagger(y) for y in (v, p, m, mp))


def jet_inv(x: tuple) -> tuple:
    """Inverse of a jet, from d(A^-1) = -A^-1 dA A^-1 in each direction."""
    v, m, p, mp = x
    iv = np.linalg.inv(v)
    return (
        iv,
        -iv @ m @ iv,
        -iv @ p @ iv,
        iv @ (p @ iv @ m + m @ iv @ p - mp) @ iv,
    )


def _norm(m) -> np.ndarray:
    """Frobenius norms over the last two axes, each matrix summed as
    np.linalg.norm sums it alone: the entries in memory order, the real and
    the imaginary parts by one BLAS dot each."""
    m = np.asarray(m)
    if abs(m.strides[-2]) < abs(m.strides[-1]):  # column major: np.linalg.norm reads it so
        m = m.swapaxes(-1, -2)
    flat = m.reshape(m.shape[:-2] + (m.shape[-2] * m.shape[-1],))
    parts = (flat.real, flat.imag) if flat.dtype.kind == "c" else (flat,)
    sq = [x[..., None, :] @ x[..., :, None] for x in parts]
    return np.sqrt(sum(sq[1:], sq[0])[..., 0, 0])


@np.errstate(over="ignore", invalid="ignore")
def scaled_defect(lhs, terms):
    """Norm of lhs minus the sum of terms, over max(1, the largest norm); the
    floor keeps identities whose terms are all rounding noise at zero.

    Norms run over the last two axes, so a stack of matrices gives a stack of
    defects and one matrix a float; a norm beyond the float range is inf,
    with no warning."""
    scale = 1.0
    for x in [lhs, *terms]:
        scale = np.maximum(scale, _norm(x))
    out = _norm(lhs - sum(terms)) / scale
    return float(out) if out.ndim == 0 else out


def condition(m: np.ndarray):
    """Condition numbers of m over its last two axes; a failed SVD or a non
    finite value is infinite.  One matrix gives a scalar.

    A 1 by 1 matrix x takes no SVD where the SVD's verdict is known: its one
    singular value is |x|, so its condition is 1 when |x| lies between the
    bounds of _UNSCALED and infinite when x is zero.  Near either end of the
    float range, where the SVD's own scaling can overflow, and for a non
    finite x, the SVD still decides."""
    m = np.asarray(m)
    if m.shape[-2:] != (1, 1):
        return _svd_condition(m)
    x = m.reshape(-1)
    with np.errstate(over="ignore"):
        a = np.abs(x)
    cond = np.where(a == 0, math.inf, 1.0)
    edge = ~((a == 0) | ((a >= _UNSCALED[0]) & (a <= _UNSCALED[1])))
    if edge.any():
        cond[edge] = _svd_condition(x[edge, None, None])
    return cond.reshape(m.shape[:-2])[()]


def _svd_condition(m: np.ndarray):
    """condition of m by np.linalg.cond, which takes an SVD of every matrix."""
    try:
        cond = np.asarray(np.linalg.cond(m))
    except np.linalg.LinAlgError:  # one failed SVD fails its stack: take each alone
        if np.ndim(m) == 2:
            return math.inf
        cond = np.array([_svd_condition(x) for x in m])
    cond[~np.isfinite(cond)] = math.inf
    return cond[()]


def take(x, keep):
    """x, a stack or a tuple or list of stacks, on the rows the mask keep
    selects; None stays None, and x itself when keep is all true."""
    if x is None or keep.all():
        return x
    if isinstance(x, np.ndarray):
        return x[keep]
    return type(x)(take(y, keep) for y in x)


class Survivors:
    """Failure isolation on a stack, by position in the flattened order of
    its leading shape: live holds the positions that passed every guard so
    far, failures the error of each position (None while live).  Callers
    drop failed rows with take, so no inverse sees a failed matrix; a
    single matrix, an empty shape, raises its error at once."""

    def __init__(self, shape: tuple[int, ...]):
        self.shape = tuple(shape)
        self.live = np.arange(math.prod(self.shape))
        self.failures: list = [None] * self.live.size

    def drop(self, errors) -> np.ndarray:
        """Fail each live position whose entry of errors is not None, with
        that error; returns the mask of the rest."""
        keep = np.array([e is None for e in errors], dtype=bool)
        for k in np.flatnonzero(~keep):
            self.failures[self.live[k]] = errors[k]
        self.live = self.live[keep]
        if not self.shape and self.failures[0] is not None:
            raise self.failures[0]
        return keep

    def guard(self, m: np.ndarray, error) -> np.ndarray:
        """Fail, as drop does, the live positions whose matrix in m, the
        stack over them, has condition beyond COND_LIMIT; error(position,
        condition) builds each failure."""
        cond = zip(self.live.tolist(), condition(m).tolist())
        return self.drop([error(i, c) if c > COND_LIMIT else None for i, c in cond])

    def full(self, x: np.ndarray) -> np.ndarray:
        """x, one row per live position, at every position, NaN at the
        failed ones; when none failed, x itself reshaped, a view and not a
        copy."""
        if self.live.size == len(self.failures):
            return x.reshape(self.shape + x.shape[1:])
        out = np.full((len(self.failures),) + x.shape[1:], np.nan, dtype=x.dtype)
        out[self.live] = x
        return out.reshape(self.shape + x.shape[1:])


class HermitianMetric:
    """A hermitian positive definite form on C^n."""

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"metric must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("metric contains non finite entries")
        scale = max(1.0, float(np.max(np.abs(m))) if m.size else 1.0)
        if np.max(np.abs(m - m.conj().T)) > 1e-12 * scale:
            raise ValueError("metric is not hermitian to working precision")
        if np.min(np.linalg.eigvalsh(0.5 * (m + m.conj().T))) <= 0:
            raise ValueError("metric is not positive definite")
        self.matrix = m

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def identity(cls, n: int) -> "HermitianMetric":
        return cls(np.eye(n, dtype=complex))

    def cholesky_factor(self) -> np.ndarray:
        """A matrix g with g^dagger g equal to the metric."""
        lower = np.linalg.cholesky(self.matrix)
        return lower.conj().T

    def __repr__(self):
        return f"HermitianMetric(n={self.n})"


@dataclass
class GaussFactors:
    """Factors of g = n_minus @ eta @ inv(n_plus), over the last two axes.

    n_minus is block lower unit triangular, eta block diagonal and n_plus
    block upper unit triangular, all with respect to the blocks of the
    decomposition.  failures holds the error of each matrix, in the
    flattened order of a stack, or None; a failed matrix has NaN factors.
    """

    n_minus: np.ndarray
    eta: np.ndarray
    n_plus: np.ndarray
    failures: tuple[GaussDecompositionFailed | None, ...]


def gauss_decompose(g, blocks: BlockStructure) -> GaussFactors:
    """Block LDU decomposition g = n_minus eta n_plus^{-1} over the last two
    axes.

    Runs sequential block elimination, so a failure names the first
    diagonal block whose Schur complement pivot is singular or has
    condition number beyond ``COND_LIMIT``.  A failing matrix of a stack leaves it before its pivot
    is inverted; a single matrix raises its GaussDecompositionFailed.
    """
    gm = np.asarray(g, dtype=complex)
    n = blocks.n
    if gm.shape[-2:] != (n, n):
        raise ValueError(f"matrix shape {gm.shape} does not match blocks (n={n})")
    if not np.all(np.isfinite(gm)):
        raise ValueError("matrix contains non finite entries")
    alive = Survivors(gm.shape[:-2])
    t1 = blocks.count
    s = gm.reshape(-1, n, n).copy()
    lower = np.broadcast_to(np.eye(n, dtype=complex), s.shape).copy()
    upper = lower.copy()
    eta = np.zeros_like(s)
    for a in range(t1):
        sa = blocks.slice(a)
        keep = alive.guard(
            s[:, sa, sa], lambda i, c: GaussDecompositionFailed(a, f"pivot condition {c:.3e}")
        )
        s, lower, upper, eta = take((s, lower, upper, eta), keep)
        pivot = s[:, sa, sa]
        pinv = np.linalg.inv(pivot)
        eta[:, sa, sa] = pivot
        for b in range(a + 1, t1):
            lower[:, blocks.slice(b), sa] = s[:, blocks.slice(b), sa] @ pinv
        for c in range(a + 1, t1):
            upper[:, sa, blocks.slice(c)] = pinv @ s[:, sa, blocks.slice(c)]
        for b in range(a + 1, t1):
            sb = blocks.slice(b)
            for c in range(a + 1, t1):
                sc = blocks.slice(c)
                s[:, sb, sc] -= lower[:, sb, sa] @ pivot @ upper[:, sa, sc]
    # upper is unit upper triangular, so LAPACK takes no pivot and the
    # inverse keeps its exact zeros and ones
    n_plus = np.linalg.inv(upper)
    lower, eta, n_plus = map(alive.full, (lower, eta, n_plus))
    return GaussFactors(lower, eta, n_plus, tuple(alive.failures))
