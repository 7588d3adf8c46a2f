"""Integer gradations of gl(n) adapted to a block partition.

A gradation is fixed by the block sizes (k_0, ..., k_t) and nonnegative
integer labels (s_1, ..., s_t), one per adjacent block pair.  Block (a, b)
with a < b, above the diagonal, sits in degree s_{a+1} + ... + s_b, and its
mirror (b, a) below the diagonal in minus that, so the labels measure how
many degrees separate neighbouring blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import BlockStructure

__all__ = ["GradationSpec", "degree_of_block"]


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


def degree_of_block(spec: GradationSpec, a: int, b: int) -> int:
    """Degree of block (a, b): the sum of the labels crossed from block row
    a to block column b, positive above the diagonal, negative below."""
    if a <= b:
        return sum(spec.labels[a:b])
    return -sum(spec.labels[b:a])

