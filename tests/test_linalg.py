import itertools

import numpy as np
import pytest

from todaframes.errors import GaussDecompositionFailed
from todaframes.grading import GradationSpec, degree_of_block
from todaframes.linalg import (
    BlockStructure,
    HermitianMetric,
    Survivors,
    condition,
    gauss_decompose,
    jet_concat,
    jet_h,
    jet_mul,
    jet_sub,
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

    @pytest.mark.parametrize(
        "m, match",
        [
            (np.ones((2, 3)), "square"),
            (np.ones(3), "square"),
            ([[1, np.nan], [np.nan, 1]], "non finite"),
            ([[np.inf, 0], [0, 1]], "non finite"),
        ],
    )
    def test_rejects_non_square_and_non_finite(self, m, match):
        with pytest.raises(ValueError, match=match):
            HermitianMetric(m)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            HermitianMetric([[1, 0], [0, -1]])

    def test_cholesky_factor_recovers_metric(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = HermitianMetric(a @ a.conj().T + 4 * np.eye(4))
        g0 = h.cholesky_factor()
        assert np.allclose(g0.conj().T @ g0, h.matrix, atol=1e-12)


def recompose(f):
    """The matrix n_minus eta n_plus^-1 that Gauss factors stand for."""
    return f.n_minus @ f.eta @ np.linalg.inv(f.n_plus)


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

    def test_condition_of_one_by_one_is_the_svd_verdict(self):
        # 1 by 1 matrices skip the SVD where its verdict is known; across
        # the float range, overflow of |x| included, they read as it does
        big = 1.7976931348623157e308

        def svd_condition(x):  # np.linalg.cond, one matrix at a time
            try:
                c = np.linalg.cond(x)
            except np.linalg.LinAlgError:
                return np.inf
            return c if np.isfinite(c) else np.inf

        values = [
            1.0, 3 - 4j, -2.5j, 1e-130, 1e130, 1e-200 + 1e-200j, 1e200, 1e300j,  # finite
            0.0, -0.0, complex(-0.0, -0.0),  # zero
            5e-324, 5e-324j, complex(5e-324, -5e-324), 2.2e-308, 1e-310j,  # subnormal
            big, complex(0.0, -big), complex(1.3e308, 1.3e308), complex(big, big),  # huge
            complex(-1.711120398190366e308, -5.511511498926073e307),  # |x| rounds to big
            complex(np.nan, 0.0), complex(1.0, np.nan), complex(np.inf, 0.0),  # not finite
            complex(-np.inf, 1.0), complex(np.inf, np.nan),
        ]
        m = np.array(values, dtype=complex).reshape(-1, 1, 1)
        with np.errstate(all="ignore"):
            expected = np.array([svd_condition(x) for x in m])
            assert np.array_equal(condition(m), expected)
            assert np.array_equal(condition(m.reshape(2, -1, 1, 1)), expected.reshape(2, -1))
            for x, c in zip(m, expected):
                assert condition(x) == c
        assert expected[0] == 1.0 and expected[8] == np.inf

    def test_full_fills_failed_rows_only(self):
        alive = Survivors((2, 2))
        x = np.arange(8.0).reshape(4, 1, 2)
        none_failed = alive.full(x)
        assert none_failed.shape == (2, 2, 1, 2) and np.shares_memory(none_failed, x)
        assert np.array_equal(none_failed.reshape(x.shape), x)
        keep = alive.drop([None, "bad", None, None])
        full = alive.full(x[keep]).reshape(x.shape)
        assert np.isnan(full[1]).all()
        assert np.array_equal(full[keep], x[keep]) and not np.shares_memory(full, x)

    def test_gauss_decompose_per_matrix(self):
        rng = np.random.default_rng(7)
        bs = BlockStructure((1, 2, 1))
        g = np.stack([_random_gauss_input(rng, bs) for _ in range(5)])
        g[2, 2, :3] = g[2, 0, :3] + g[2, 1, :3]  # a singular leading 3 by 3
        f = gauss_decompose(g, bs)
        assert [e is None for e in f.failures] == [True, True, False, True, True]
        with pytest.raises(GaussDecompositionFailed) as err:
            gauss_decompose(g[2], bs)
        assert err.value.block == f.failures[2].block == 1
        assert str(err.value) == str(f.failures[2])
        for i in range(5):
            for name in ("n_minus", "eta", "n_plus"):
                got = getattr(f, name)[i]
                if i == 2:
                    assert np.isnan(got).all()
                else:
                    assert np.array_equal(got, getattr(gauss_decompose(g[i], bs), name))
        assert gauss_decompose(g.reshape(5, 1, 4, 4), bs).eta.shape == (5, 1, 4, 4)


class TestJetMul:
    # the Leibniz terms of each part of a product, as (x part, y part) pairs
    TERMS = ([(0, 0)], [(1, 0), (0, 1)], [(2, 0), (0, 2)], [(3, 0), (1, 2), (2, 1), (0, 3)])

    def test_none_parts_are_zeros_that_enter_no_product(self):
        rng = np.random.default_rng(8)

        def jet(shape):
            return [rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(4)]

        x, y = jet((5, 3, 2)), jet((5, 2, 4))
        # every choice of zero derivative parts in either factor
        for zero in itertools.product([False, True], repeat=6):
            zx, zy = (0,) + zero[:3], (0,) + zero[3:]
            got = jet_mul(
                [None if z else v for z, v in zip(zx, x)], [None if z else v for z, v in zip(zy, y)]
            )
            dense = jet_mul(
                [np.zeros_like(v) if z else v for z, v in zip(zx, x)],
                [np.zeros_like(v) if z else v for z, v in zip(zy, y)],
            )
            for part, terms, want in zip(got, self.TERMS, dense):
                if all(zx[i] or zy[j] for i, j in terms):
                    assert part is None
                else:
                    assert np.array_equal(part, want)


class TestJetHelpers:
    """jet_h, jet_sub and jet_concat take a None part as zero: the result
    equals the one on explicit zeros, and a part with no nonzero input stays
    None."""

    @staticmethod
    def jets(shape, count, seed=9):
        rng = np.random.default_rng(seed)
        return [[rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(4)] for _ in range(count)]

    @staticmethod
    def with_none(jet, zero):
        return [None if z else v for z, v in zip(zero, jet)]

    @staticmethod
    def with_zeros(jet, zero):
        return [np.zeros_like(v) if z else v for z, v in zip(zero, jet)]

    def zero_choices(self, count):
        # the value part is never None
        return itertools.product(*[[(False,) + z for z in itertools.product([False, True], repeat=3)]] * count)

    def test_h(self):
        (x,) = self.jets((5, 3, 2), 1)
        for (zero,) in self.zero_choices(1):
            got, want = jet_h(self.with_none(x, zero)), jet_h(self.with_zeros(x, zero))
            # the d/dz and d/dzbar parts swap, and with them their None
            for part, z, w in zip(got, (zero[0], zero[2], zero[1], zero[3]), want):
                assert part is None if z else np.array_equal(part, w)

    def test_sub(self):
        x, y = self.jets((5, 3, 2), 2)
        for zx, zy in self.zero_choices(2):
            got = jet_sub(self.with_none(x, zx), self.with_none(y, zy))
            want = jet_sub(self.with_zeros(x, zx), self.with_zeros(y, zy))
            for part, a, b, w in zip(got, zx, zy, want):
                assert part is None if a and b else np.array_equal(part, w)

    @pytest.mark.parametrize("axis", [-1, -2])
    def test_concat(self, axis):
        x, y = self.jets((5, 3, 3), 2)
        for zx, zy in self.zero_choices(2):
            got = jet_concat((self.with_none(x, zx), self.with_none(y, zy)), axis)
            want = jet_concat((self.with_zeros(x, zx), self.with_zeros(y, zy)), axis)
            for part, a, b, w in zip(got, zx, zy, want):
                assert part is None if a and b else np.array_equal(part, w)
        assert jet_concat((x, y), axis)[0].shape == ((5, 3, 6) if axis == -1 else (5, 6, 3))


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

    @pytest.mark.parametrize(
        "g, match",
        [
            (np.eye(3), "does not match"),
            (np.ones((2, 3)), "does not match"),
            ([[1, 0], [0, np.nan]], "non finite"),
            ([[[1, 0], [np.inf, 1]]], "non finite"),
        ],
    )
    def test_rejects_mis_shaped_and_non_finite(self, g, match):
        with pytest.raises(ValueError, match=match):
            gauss_decompose(g, BlockStructure((1, 1)))

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
                assert np.linalg.norm(recompose(f) - g) < 1e-10 * np.linalg.norm(g)
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
        f2 = gauss_decompose(recompose(f1), bs)
        assert np.allclose(f1.n_minus, f2.n_minus, atol=1e-10)
        assert np.allclose(f1.eta, f2.eta, atol=1e-10)
        assert np.allclose(f1.n_plus, f2.n_plus, atol=1e-10)

    def test_huge_entry_recomposes_without_warnings(self):
        # its squared norm overflows; the suite turns any numpy warning
        # into an error, and the exact recomposition still reads 0
        g = np.array([[1e200, 0.0], [0.0, 1.0]])
        f = gauss_decompose(g, BlockStructure((1, 1)))
        assert scaled_defect(recompose(f), [g]) == 0.0


class TestBlockDegree:
    def test_degree_antisymmetry(self):
        spec = GradationSpec(BlockStructure((1, 2, 1, 3)), (2, 1, 3))
        for a in range(4):
            for b in range(4):
                assert degree_of_block(spec, a, b) == -degree_of_block(spec, b, a)
