"""Dense complex linear algebra with block structure.

Matrices are plain numpy arrays of dtype complex128.  The helpers here add
the pieces numpy does not provide directly: sesquilinear forms against a
hermitian metric, a relative-threshold numerical rank, the block Gauss
(block LDU) decomposition with unit triangular outer factors, and the
projection onto a fixed degree of the block Z-gradation of gl(n, C).

A jet is a tuple (value, d/dz, d/dzbar, d/dz d/dzbar) of matrices, the
truncated hyper-dual numbers of Fike and Alonso (2011); the jet helpers
carry exact Wirtinger derivatives through products and inverses, and
scaled_defect is the one residual scaling of both the frame and the Toda
identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import GaussDecompositionFailed

__all__ = [
    "BlockStructure",
    "HermitianMetric",
    "GaussFactors",
    "as_cmatrix",
    "hermitian_form",
    "numerical_rank",
    "gauss_decompose",
    "block_project",
    "block_degree",
    "block",
    "condition",
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

    @property
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


def jet_h(x: tuple) -> tuple:
    """Conjugate transpose of a jet; it swaps the d/dz and d/dzbar parts."""
    v, m, p, mp = x
    return v.conj().T, p.conj().T, m.conj().T, mp.conj().T


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


def scaled_defect(lhs, terms) -> float:
    """Norm of lhs minus the sum of terms, over max(1, the largest norm); the
    floor keeps identities whose terms are all rounding noise at zero."""
    scale = max([1.0, float(np.linalg.norm(lhs))] + [float(np.linalg.norm(x)) for x in terms])
    return float(np.linalg.norm(lhs - sum(terms))) / scale


def condition(m: np.ndarray) -> float:
    """Condition number of m; a failed SVD or a non finite value is infinite."""
    try:
        cond = float(np.linalg.cond(m))
    except np.linalg.LinAlgError:
        return math.inf
    return cond if math.isfinite(cond) else math.inf


def block(x: np.ndarray, blocks: BlockStructure, a: int, b: int) -> np.ndarray:
    """The (a, b) block of a square matrix with the given structure."""
    return x[blocks.slice(a), blocks.slice(b)]


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


def _metric_matrix(h) -> np.ndarray:
    if isinstance(h, HermitianMetric):
        return h.matrix
    return as_cmatrix(h, "metric")


def hermitian_form(a, h, b) -> np.ndarray:
    """The form a^dagger h b for column families a and b."""
    am = as_cmatrix(a, "a")
    bm = as_cmatrix(b, "b")
    hm = _metric_matrix(h)
    if am.shape[0] != hm.shape[0] or bm.shape[0] != hm.shape[1]:
        raise ValueError(
            f"shape mismatch: a {am.shape}, h {hm.shape}, b {bm.shape}"
        )
    return am.conj().T @ hm @ bm


def numerical_rank(m, tol_rel: float = 1e-10) -> int:
    """Rank as the number of singular values above tol_rel times the largest."""
    if tol_rel <= 0:
        raise ValueError("tol_rel must be positive")
    mm = as_cmatrix(m, "matrix")
    if mm.size == 0:
        return 0
    s = np.linalg.svd(mm, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > tol_rel * s[0]))


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


def _invert_block_upper_unitriangular(u: np.ndarray, blocks: BlockStructure) -> np.ndarray:
    n = blocks.n
    x = np.eye(n, dtype=complex)
    for j in range(blocks.count):
        sj = blocks.slice(j)
        for i in range(j - 1, -1, -1):
            si = blocks.slice(i)
            acc = np.zeros((blocks.sizes[i], blocks.sizes[j]), dtype=complex)
            for c in range(i + 1, j + 1):
                sc = blocks.slice(c)
                acc += u[si, sc] @ x[sc, sj]
            x[si, sj] = -acc
    return x


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
    n_plus = _invert_block_upper_unitriangular(upper, blocks)
    return GaussFactors(n_minus=lower, eta=eta, n_plus=n_plus, blocks=blocks)


def block_degree(labels: Sequence[int], a: int, b: int) -> int:
    """Gradation degree of block position (a, b) for labels (s_1, ..., s_t).

    Degree is the sum of the labels crossed when moving from block row a to
    block column b, positive above the diagonal.
    """
    if a == b:
        return 0
    if a < b:
        return sum(labels[a:b])
    return -sum(labels[b:a])


def block_project(x, blocks: BlockStructure, degree: int, labels: Sequence[int]) -> np.ndarray:
    """Projection of x onto the subspace of blocks with the given degree."""
    xm = as_cmatrix(x, "matrix")
    n = blocks.n
    if xm.shape != (n, n):
        raise ValueError(f"matrix shape {xm.shape} does not match blocks (n={n})")
    if len(labels) != blocks.count - 1:
        raise ValueError(
            f"expected {blocks.count - 1} labels for {blocks.count} blocks, got {len(labels)}"
        )
    out = np.zeros_like(xm)
    for a in range(blocks.count):
        for b in range(blocks.count):
            if block_degree(labels, a, b) == degree:
                sa, sb = blocks.slice(a), blocks.slice(b)
                out[sa, sb] = xm[sa, sb]
    return out
