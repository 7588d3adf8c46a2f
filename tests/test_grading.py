"""Gradation specs and block degrees."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from todaframes.grading import GradationSpec, degree_of_block
from todaframes.linalg import BlockStructure


def spec_of(sizes, labels):
    return GradationSpec(blocks=BlockStructure(tuple(sizes)), labels=tuple(labels))


class TestGradationSpec:
    def test_label_count_must_match(self):
        with pytest.raises(ValueError):
            spec_of((1, 1), ())
        with pytest.raises(ValueError):
            spec_of((2,), (1,))

    def test_negative_label_rejected(self):
        with pytest.raises(ValueError):
            spec_of((1, 1), (-1,))

    def test_single_block(self):
        s = spec_of((3,), ())
        assert s.n == 3 and s.count == 1


class TestDegreeOfBlock:
    def test_sign_convention(self):
        spec = spec_of((1, 2, 1), (1, 3))
        assert degree_of_block(spec, 0, 0) == 0
        assert degree_of_block(spec, 1, 0) == -1
        assert degree_of_block(spec, 0, 1) == 1
        assert degree_of_block(spec, 2, 0) == -4
        assert degree_of_block(spec, 0, 2) == 4

    def test_laws_of_a_gradation(self):
        # degrees add along a path of blocks, and the diagonal has degree 0
        rng = np.random.default_rng(5)
        for _ in range(20):
            t = int(rng.integers(0, 4))
            sizes = tuple(int(rng.integers(1, 4)) for _ in range(t + 1))
            spec = spec_of(sizes, tuple(int(rng.integers(0, 4)) for _ in range(t)))
            assert all(degree_of_block(spec, a, a) == 0 for a in range(t + 1))
            for a, b, c in itertools.product(range(t + 1), repeat=3):
                assert degree_of_block(spec, a, b) + degree_of_block(spec, b, c) == degree_of_block(spec, a, c)
