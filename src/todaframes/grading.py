"""Integer gradations of gl(n) adapted to a block partition.

A gradation is fixed by the block sizes (k_0, ..., k_t) and nonnegative
integer labels (s_1, ..., s_t), one per adjacent block pair.  Block (a, b)
with a < b, above the diagonal, sits in degree s_{a+1} + ... + s_b, and its
mirror (b, a) below the diagonal in minus that, so the labels measure how
many degrees separate neighbouring blocks.

The grading operator is the traceless diagonal matrix q whose commutator
with a block matrix of pure degree m is m times that matrix.  Its weights
are exact rationals; the float matrix is derived from them on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .linalg import BlockStructure

__all__ = [
    "GradationSpec",
    "GradingOperator",
    "build_grading",
    "cartan_grading_operator",
    "degree_of_block",
    "eigen_check",
]


@dataclass(frozen=True)
class GradationSpec:
    """Block sizes plus one integer label per adjacent block pair."""

    blocks: BlockStructure
    labels: tuple[int, ...]

    def __post_init__(self):
        labels = tuple(int(s) for s in self.labels)
        object.__setattr__(self, "labels", labels)
        if len(labels) != self.blocks.count - 1:
            raise ValueError(
                f"{self.blocks.count} blocks need {self.blocks.count - 1} labels, "
                f"got {len(labels)}"
            )
        if any(s < 0 for s in labels):
            raise ValueError("labels must be nonnegative")

    @property
    def n(self) -> int:
        return self.blocks.n

    @property
    def count(self) -> int:
        return self.blocks.count


@dataclass(frozen=True)
class GradingOperator:
    """Exact block weights and the diagonal operator they define."""

    spec: GradationSpec
    rho: tuple[Fraction, ...]

    @property
    def diagonal(self) -> tuple[Fraction, ...]:
        """Per coordinate weights, each block weight repeated blockwise."""
        out: list[Fraction] = []
        for a, k in enumerate(self.spec.blocks.sizes):
            out.extend([self.rho[a]] * k)
        return tuple(out)

    @property
    def q(self) -> np.ndarray:
        return np.diag([float(w) for w in self.diagonal]).astype(complex)


def build_grading(spec: GradationSpec) -> GradingOperator:
    """Grading operator of the labelled block gradation.

    Consecutive weights drop by the label between them, so the weights are
    the running sums of minus the labels, shifted by their size-weighted
    mean to average to zero against the block sizes.  Both facts are
    asserted in exact arithmetic.
    """
    sizes, labels = spec.blocks.sizes, spec.labels
    drops = list(accumulate((-s for s in labels), initial=0))
    mean = Fraction(sum(k * r for k, r in zip(sizes, drops)), spec.n)
    rho = tuple(r - mean for r in drops)
    assert sum(k * r for k, r in zip(sizes, rho)) == 0
    for a, s in enumerate(labels):
        assert rho[a] - rho[a + 1] == s
    return GradingOperator(spec=spec, rho=rho)


def cartan_grading_operator(spec: GradationSpec) -> tuple[Fraction, ...]:
    """Coordinate weights recovered from the Cartan matrix of sl(n).

    Places the label s at the node between consecutive coordinates that
    straddle a block boundary and zero elsewhere, solves the tridiagonal
    system K y = l exactly, and reads the weights off the differences of
    y.  Agrees with build_grading(...).diagonal by construction and serves
    as an independent consistency check.
    """
    n = spec.n
    if n == 1:
        return (Fraction(0),)
    rhs = [Fraction(0)] * (n - 1)
    boundary = 0
    for a, s in enumerate(spec.labels):
        boundary += spec.blocks.sizes[a]
        rhs[boundary - 1] = Fraction(s)
    # Thomas elimination on the tridiagonal Cartan matrix (2 on the
    # diagonal, -1 beside it), kept in Fractions throughout.
    diag = [Fraction(2)] * (n - 1)
    for i in range(1, n - 1):
        diag[i] -= Fraction(1) / diag[i - 1]
        rhs[i] += rhs[i - 1] / diag[i - 1]
    y = [Fraction(0)] * (n - 1)
    y[n - 2] = rhs[n - 2] / diag[n - 2]
    for i in range(n - 3, -1, -1):
        y[i] = (rhs[i] + y[i + 1]) / diag[i]
    padded = [Fraction(0)] + y + [Fraction(0)]
    return tuple(padded[j] - padded[j - 1] for j in range(1, n + 1))


def degree_of_block(spec: GradationSpec, a: int, b: int) -> int:
    """Degree of block (a, b): the sum of the labels crossed from block row
    a to block column b, positive above the diagonal, negative below."""
    if a <= b:
        return sum(spec.labels[a:b])
    return -sum(spec.labels[b:a])


def eigen_check(op: GradingOperator, x: np.ndarray, degree: int) -> float:
    """Residual of [q, x] = degree * x, normalized by the size of x.

    Returns the relative residual; a pure degree matrix gives a residual
    at rounding level, and the caller may assert on the returned value.
    """
    x = np.asarray(x, dtype=complex)
    q = op.q
    comm = q @ x - x @ q
    norm = max(1.0, float(np.linalg.norm(x)))
    return float(np.linalg.norm(comm - degree * x)) / norm
