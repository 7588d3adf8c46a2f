"""Dense complex linear algebra with block structure.

Matrices are plain numpy arrays of dtype complex128; the jet helpers,
condition and scaled_defect act over the last two axes, so they take a
stack of matrices as well as one.  The helpers here add the pieces numpy
does not provide directly: a hermitian metric with its Cholesky factor and
the block Gauss (block LDU) decomposition with unit triangular outer
factors.

A jet is a tuple (value, d/dz, d/dzbar, d/dz d/dzbar) of matrices, the
truncated hyper-dual numbers of Fike and Alonso (2011); the jet helpers
carry exact Wirtinger derivatives through products and inverses, and
scaled_defect is the one residual scaling of both the frame and the Toda
identities.
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
    "as_cmatrix",
    "gauss_decompose",
    "condition",
    "dagger",
    "jet_h",
    "jet_inv",
    "jet_mul",
    "scaled_defect",
]

COND_LIMIT = 1e12


def as_cmatrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite two dimensional complex array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"{name} must be two dimensional, got shape {m.shape}")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non finite entries")
    return m


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
    """Product of two jets by the Leibniz rule."""
    xv, xm, xp, xmp = x
    yv, ym, yp, ymp = y
    return (
        xv @ yv,
        xm @ yv + xv @ ym,
        xp @ yv + xv @ yp,
        xmp @ yv + xm @ yp + xp @ ym + xv @ ymp,
    )


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the last two axes."""
    return m.conj().swapaxes(-1, -2)


def jet_h(x: tuple) -> tuple:
    """Conjugate transpose of a jet; it swaps the d/dz and d/dzbar parts."""
    v, m, p, mp = x
    return dagger(v), dagger(p), dagger(m), dagger(mp)


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
    """Frobenius norms over the last two axes.  One matrix takes
    np.linalg.norm; a stack sums each matrix as np.linalg.norm sums it
    alone: the entries in memory order, the real and the imaginary parts by
    one BLAS dot each."""
    m = np.asarray(m)
    if m.ndim == 2:
        return np.linalg.norm(m)
    if abs(m.strides[-2]) < abs(m.strides[-1]):  # column major: np.linalg.norm reads it so
        m = m.swapaxes(-1, -2)
    flat = m.reshape(m.shape[:-2] + (m.shape[-2] * m.shape[-1],))
    parts = (flat.real, flat.imag) if flat.dtype.kind == "c" else (flat,)
    sq = [x[..., None, :] @ x[..., :, None] for x in parts]
    return np.sqrt(sum(sq[1:], sq[0])[..., 0, 0])


def scaled_defect(lhs, terms):
    """Norm of lhs minus the sum of terms, over max(1, the largest norm); the
    floor keeps identities whose terms are all rounding noise at zero.

    Norms run over the last two axes, so a stack of matrices gives a stack of
    defects and one matrix a float."""
    scale = 1.0
    for x in [lhs, *terms]:
        scale = np.maximum(scale, _norm(x))
    out = _norm(lhs - sum(terms)) / scale
    return float(out) if out.ndim == 0 else out


def condition(m: np.ndarray):
    """Condition numbers of m over its last two axes; a failed SVD or a non
    finite value is infinite.  One matrix gives a scalar."""
    try:
        cond = np.asarray(np.linalg.cond(m))
    except np.linalg.LinAlgError:  # one failed SVD fails its stack: take each alone
        if np.ndim(m) == 2:
            return math.inf
        cond = np.array([condition(x) for x in m])
    cond[~np.isfinite(cond)] = math.inf
    return cond[()]


class HermitianMetric:
    """A hermitian positive definite form on C^n."""

    def __init__(self, matrix):
        m = as_cmatrix(matrix, "metric")
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"metric must be square, got shape {m.shape}")
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
    """Factors of g = n_minus @ eta @ inv(n_plus).

    n_minus is block lower unit triangular, eta block diagonal and n_plus
    block upper unit triangular, all with respect to ``blocks``.
    """

    n_minus: np.ndarray
    eta: np.ndarray
    n_plus: np.ndarray
    blocks: BlockStructure

    def recompose(self) -> np.ndarray:
        return self.n_minus @ self.eta @ np.linalg.inv(self.n_plus)


def gauss_decompose(g, blocks: BlockStructure) -> GaussFactors:
    """Block LDU decomposition g = n_minus eta n_plus^{-1}.

    Runs sequential block elimination so a failure names the first diagonal
    block whose Schur complement pivot is singular or has condition number
    beyond ``COND_LIMIT``.
    """
    gm = as_cmatrix(g, "matrix")
    n = blocks.n
    if gm.shape != (n, n):
        raise ValueError(f"matrix shape {gm.shape} does not match blocks (n={n})")
    t1 = blocks.count
    s = gm.copy()
    lower = np.eye(n, dtype=complex)
    upper = np.eye(n, dtype=complex)
    eta = np.zeros((n, n), dtype=complex)
    for a in range(t1):
        sa = blocks.slice(a)
        pivot = s[sa, sa]
        cond = condition(pivot)
        if cond > COND_LIMIT:
            raise GaussDecompositionFailed(a, f"pivot condition {cond:.3e}")
        pinv = np.linalg.inv(pivot)
        eta[sa, sa] = pivot
        for b in range(a + 1, t1):
            lower[blocks.slice(b), sa] = s[blocks.slice(b), sa] @ pinv
        for c in range(a + 1, t1):
            upper[sa, blocks.slice(c)] = pinv @ s[sa, blocks.slice(c)]
        for b in range(a + 1, t1):
            sb = blocks.slice(b)
            for c in range(a + 1, t1):
                sc = blocks.slice(c)
                s[sb, sc] -= lower[sb, sa] @ pivot @ upper[sa, sc]
    # upper is unit upper triangular, so LAPACK takes no pivot and the
    # inverse keeps its exact zeros and ones
    n_plus = np.linalg.inv(upper)
    return GaussFactors(n_minus=lower, eta=eta, n_plus=n_plus, blocks=blocks)
