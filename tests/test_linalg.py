import numpy as np
import pytest

from todaframes.errors import GaussDecompositionFailed
from todaframes.grading import GradationSpec, degree_of_block
from todaframes.linalg import (
    BlockStructure,
    HermitianMetric,
    condition,
    gauss_decompose,
    scaled_defect,
)


def block(x, blocks, a, b):
    """The (a, b) block of a square matrix with the given structure."""
    return x[blocks.slice(a), blocks.slice(b)]


class TestBlockStructure:
    def test_offsets(self):
        bs = BlockStructure((2, 1, 3))
        assert bs.n == 6
        assert bs.offsets == (0, 2, 3)
        assert bs.slice(2) == slice(3, 6)

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            BlockStructure(())
        with pytest.raises(ValueError):
            BlockStructure((2, 0))


class TestHermitianMetric:
    def test_identity(self):
        h = HermitianMetric.identity(3)
        assert h.n == 3
        assert np.allclose(h.matrix, np.eye(3))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            HermitianMetric([[1, 1j], [1j, 1]])

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            HermitianMetric([[1, 0], [0, -1]])

    def test_cholesky_factor_recovers_metric(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = HermitianMetric(a @ a.conj().T + 4 * np.eye(4))
        g0 = h.cholesky_factor()
        assert np.allclose(g0.conj().T @ g0, h.matrix, atol=1e-12)


def _random_gauss_input(rng, bs, cond_cap=1e6):
    # resample until the matrix is well conditioned and all pivots behave
    n = bs.n
    while True:
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        if np.linalg.cond(g) > 100.0:
            continue
        ok = True
        for m in np.cumsum(bs.sizes)[:-1]:
            if np.linalg.cond(g[:m, :m]) > cond_cap:
                ok = False
                break
        if ok:
            return g


class TestStacks:
    """Stacked guards and residuals give each matrix the bits it gets alone."""

    @pytest.mark.parametrize("shape", [(7, 7), (7, 2), (2, 7), (1, 1), (4, 4)])
    def test_scaled_defect_per_matrix(self, shape):
        rng = np.random.default_rng(5)

        def stack():
            x = rng.standard_normal((9,) + shape) + 1j * rng.standard_normal((9,) + shape)
            return x * 10.0 ** rng.uniform(-4, 4, (9, 1, 1))

        lhs, terms = stack(), [stack(), stack()]
        # a column major stack is summed in the order np.linalg.norm reads it
        terms.append(np.ascontiguousarray(stack().swapaxes(-1, -2)).swapaxes(-1, -2))
        got = scaled_defect(lhs, terms)
        assert got.shape == (9,)
        for i in range(9):
            alone = scaled_defect(lhs[i], [x[i] for x in terms])
            assert type(alone) is float
            scale = max([1.0, np.linalg.norm(lhs[i])] + [np.linalg.norm(x[i]) for x in terms])
            assert got[i] == alone == np.linalg.norm(lhs[i] - sum(x[i] for x in terms)) / scale

    def test_condition_fails_a_slice_alone(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((4, 3, 3)) + 3 * np.eye(3)
        m[1, 0, 0] = np.inf
        m[2] = 0.0
        cond = condition(m)
        assert cond[1] == np.inf and cond[2] == np.inf
        for i in (0, 3):
            assert cond[i] == condition(m[i]) == np.linalg.cond(m[i])


class TestGaussDecompose:
    def test_identity(self):
        bs = BlockStructure((1, 1))
        f = gauss_decompose(np.eye(2), bs)
        assert np.allclose(f.n_minus, np.eye(2))
        assert np.allclose(f.eta, np.eye(2))
        assert np.allclose(f.n_plus, np.eye(2))

    def test_two_by_two_frozen(self):
        bs = BlockStructure((1, 1))
        f = gauss_decompose(np.array([[2.0, 1.0], [1.0, 1.0]]), bs)
        assert np.allclose(f.n_minus, [[1.0, 0.0], [0.5, 1.0]])
        assert np.allclose(f.eta, [[2.0, 0.0], [0.0, 0.5]])
        assert np.allclose(f.n_plus, [[1.0, -0.5], [0.0, 1.0]])

    def test_singular_leading_block(self):
        bs = BlockStructure((1, 1))
        with pytest.raises(GaussDecompositionFailed) as err:
            gauss_decompose(np.array([[0.0, 1.0], [1.0, 0.0]]), bs)
        assert err.value.block == 0

    def test_failure_reports_inner_block(self):
        # leading 1x1 minor fine, second pivot (Schur complement) singular
        g = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
        with pytest.raises(GaussDecompositionFailed) as err:
            gauss_decompose(g, BlockStructure((1, 1, 1)))
        assert err.value.block == 1

    def test_round_trip_and_structure(self):
        rng = np.random.default_rng(23)
        for sizes in [(1, 1), (2, 2), (1, 2, 1)]:
            bs = BlockStructure(sizes)
            for _ in range(25):
                g = _random_gauss_input(rng, bs)
                f = gauss_decompose(g, bs)
                assert np.linalg.norm(f.recompose() - g) < 1e-10 * np.linalg.norm(g)
                # unit triangular structure of the outer factors
                for a in range(bs.count):
                    assert np.allclose(block(f.n_minus, bs, a, a), np.eye(bs.sizes[a]))
                    assert np.allclose(block(f.n_plus, bs, a, a), np.eye(bs.sizes[a]))
                    for b in range(a + 1, bs.count):
                        assert np.max(np.abs(block(f.n_minus, bs, a, b))) < 1e-12
                        assert np.max(np.abs(block(f.n_plus, bs, b, a))) < 1e-12
                        assert np.max(np.abs(block(f.eta, bs, a, b))) < 1e-12
                        assert np.max(np.abs(block(f.eta, bs, b, a))) < 1e-12

    def test_uniqueness(self):
        # decomposing a recomposed factorization returns the same factors
        rng = np.random.default_rng(29)
        bs = BlockStructure((2, 1))
        g = _random_gauss_input(rng, bs)
        f1 = gauss_decompose(g, bs)
        f2 = gauss_decompose(f1.recompose(), bs)
        assert np.allclose(f1.n_minus, f2.n_minus, atol=1e-10)
        assert np.allclose(f1.eta, f2.eta, atol=1e-10)
        assert np.allclose(f1.n_plus, f2.n_plus, atol=1e-10)


class TestBlockDegree:
    def test_degree_antisymmetry(self):
        spec = GradationSpec(BlockStructure((1, 2, 1, 3)), (2, 1, 3))
        for a in range(4):
            for b in range(4):
                assert degree_of_block(spec, a, b) == -degree_of_block(spec, b, a)
