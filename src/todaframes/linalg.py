"""Dense complex linear algebra with block structure.

Matrices are plain numpy arrays of dtype complex128; the jet helpers,
condition, the defects and gauss_decompose act over the last two axes, so
they take a stack of matrices as well as one.  The helpers here add the
pieces numpy does not provide directly: a hermitian metric, the block
Gauss (block LDU) decomposition of a jet's value with unit triangular
outer factors and the jet of its block diagonal factor, and Survivors,
the one failure isolation of the stacked computations.

A jet is one array whose leading axis of length 4 holds the parts (value,
d/dz, d/dzbar, d/dz d/dzbar), each a matrix or a stack of matrices: the
truncated hyper-dual numbers of Fike and Alonso (2011).  A part known to
be zero is stored as zeros.  The jet helpers carry exact Wirtinger
derivatives through products and inverses; jet_mul is the one Leibniz
product.
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
    "jet_h",
    "jet_inv",
    "jet_mul",
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


def jet_mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Product of two jets by the Leibniz rule, in three stacked products,
    each part's terms summed in the rule's order: the d/dz d/dzbar part is
    ((xmp yv + xm yp) + xp ym) + xv ymp."""
    out = x @ y[0]
    first = x[0] @ y[1:]
    out[1:3] += first[:2]
    cross = x[1:3] @ y[2:0:-1]
    out[3] += cross[0]
    out[3] += cross[1]
    out[3] += first[2]
    return out


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the last two axes."""
    return m.conj().swapaxes(-1, -2)


def jet_h(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a jet; it swaps the d/dz and d/dzbar parts."""
    return dagger(x[[0, 2, 1, 3]])


def jet_inv(x: np.ndarray) -> np.ndarray:
    """Inverse of a jet, from d(A^-1) = -A^-1 dA A^-1 in each direction,
    grouped as ((-A^-1) dA) A^-1: the other grouping changes bits."""
    iv = np.linalg.inv(x[0])
    out = np.empty_like(x)
    out[0] = iv
    out[1:3] = (-iv @ x[1:3]) @ iv
    swapped = x[2:0:-1] @ iv @ x[1:3]  # p iv m and m iv p
    out[3] = iv @ (swapped[0] + swapped[1] - x[3]) @ iv
    return out


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


def take(x, keep, axis: int = 0):
    """x, a stack or a tuple or list of stacks, on the entries of axis the
    mask keep selects; None stays None, and x itself when keep is all true.
    A jet's points are on axis 1."""
    if x is None or keep.all():
        return x
    if isinstance(x, np.ndarray):
        return x.compress(keep, axis)
    return type(x)(take(y, keep, axis) for y in x)


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

    def full(self, x: np.ndarray, axis: int = 0) -> np.ndarray:
        """x, one entry of axis per live position, at every position, NaN
        at the failed ones; when none failed, x itself reshaped, a view and
        not a copy.  A jet's points are on axis 1."""
        lead, rest = x.shape[:axis], x.shape[axis + 1:]
        if self.live.size == len(self.failures):
            return x.reshape(lead + self.shape + rest)
        out = np.full(lead + (len(self.failures),) + rest, np.nan, dtype=x.dtype)
        out[(slice(None),) * axis + (self.live,)] = x
        return out.reshape(lead + self.shape + rest)


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

    def __repr__(self):
        return f"HermitianMetric(n={self.n})"


@dataclass
class GaussFactors:
    """Factors of q = n_minus @ eta @ inv(n_plus), over the last two axes,
    with the jet of eta.

    n_minus is block lower unit triangular, eta block diagonal and n_plus
    block upper unit triangular, all with respect to the blocks of the
    decomposition.  eta is a jet, its parts on axis 0 as in the jet it came
    from; n_minus and n_plus are the plain stacks of its values.  failures
    holds the error of each matrix, in the flattened order of a stack, or
    None; a failed matrix has NaN factors.
    """

    n_minus: np.ndarray
    eta: np.ndarray
    n_plus: np.ndarray
    failures: tuple[GaussDecompositionFailed | None, ...]


def gauss_decompose(q_jet, blocks: BlockStructure) -> GaussFactors:
    """Block LDU decomposition q = n_minus eta n_plus^{-1} of the value q of
    a jet, over the last two axes, with the jet of eta.

    Runs sequential block elimination on the whole jet, so eta's block a is
    the jet of the Schur complement of the leading a blocks, and a failure
    names the first diagonal block whose Schur complement pivot is singular
    or has condition number beyond ``COND_LIMIT``.  The guards, the non
    finite check and the outer factors read the value part alone, so no
    derivative part moves a failure or a value.  A failing matrix of a stack
    leaves it before its pivot is inverted; a single matrix raises its
    GaussDecompositionFailed.
    """
    qj = np.asarray(q_jet, dtype=complex)
    n = blocks.n
    if qj.shape[-2:] != (n, n):
        raise ValueError(f"jet shape {qj.shape} does not match blocks (n={n})")
    if not np.all(np.isfinite(qj[0])):
        raise ValueError("matrix contains non finite entries")
    alive = Survivors(qj.shape[1:-2])
    s = qj.reshape(4, -1, n, n).copy()
    lower = np.broadcast_to(np.eye(n, dtype=complex), s.shape[1:]).copy()
    upper = lower.copy()
    eta = np.zeros_like(s)
    for a in range(blocks.count):
        sa = blocks.slice(a)
        keep = alive.guard(
            s[0][:, sa, sa], lambda i, c: GaussDecompositionFailed(a, f"pivot condition {c:.3e}")
        )
        s, eta = take((s, eta), keep, 1)
        lower, upper = take((lower, upper), keep)
        eta[..., sa, sa] = s[..., sa, sa]
        if sa.stop == n:  # the last pivot eliminates nothing
            break
        rest = slice(sa.stop, n)
        pinv = jet_inv(s[..., sa, sa])
        lower[:, rest, sa] = s[0][:, rest, sa] @ pinv[0]
        right = jet_mul(pinv, s[..., sa, rest])
        upper[:, sa, rest] = right[0]
        s[..., rest, rest] -= jet_mul(s[..., rest, sa], right)
    # upper is unit upper triangular, so LAPACK takes no pivot and the
    # inverse keeps its exact zeros and ones
    n_plus = np.linalg.inv(upper)
    lower, n_plus = map(alive.full, (lower, n_plus))
    return GaussFactors(lower, alive.full(eta, 1), n_plus, tuple(alive.failures))
