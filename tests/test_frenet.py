"""Osculating sequences, Frenet frames, and their differential identities."""

from __future__ import annotations

import dataclasses
import warnings
from itertools import combinations

import numpy as np
import pytest
from test_columns import corpus

from todaframes import poly
from todaframes.cli import parse_config
from todaframes.errors import SingularBeta, ZeroFunction
from todaframes.frenet import (
    OsculatingSequence,
    build_osculating,
    connection_coefficients,
    frame_at,
    induced_metric,
    kahler_check,
    linear_fullness,
    verify_frame_equations,
)
from todaframes.linalg import BlockStructure, HermitianMetric, dagger, jet_h, jet_inv, jet_mul, scaled_defect
from todaframes.poly import Poly, PolyMatrix, minor_gcd, poly_gcd_many
from todaframes.wirtinger import d_minus, d_plus

Z = Poly.x()
I2 = HermitianMetric.identity(2)
I3 = HermitianMetric.identity(3)


def line_curve() -> PolyMatrix:
    return PolyMatrix([[1], [[0, 1]]])


def conic_curve() -> PolyMatrix:
    return PolyMatrix([[1], [[0, 1]], [[0, 0, 1]]])


def random_lift(rng, n, k, degree):
    """A constant rank polynomial lift with small integer coefficients."""
    while True:
        cols = []
        for j in range(k):
            entries = []
            for i in range(n):
                coeffs = rng.integers(-2, 3, size=degree + 1).tolist()
                if i == j:
                    coeffs[0] = 1
                entries.append(Poly(coeffs))
            cols.append(PolyMatrix.column(entries))
        m = PolyMatrix.from_columns(cols)
        from todaframes.poly import minor_gcd

        if minor_gcd(cols) == Poly.one():
            return m


def build_checked(xi: PolyMatrix):
    """build_osculating, with rank_drop and reduction checked against the
    input's own minors: the rank drop is the gcd of its r by r minors over
    every r-column subset, r the generic rank, and the input is reduced
    exactly when its columns fail the constant rank certificate."""
    cols = xi.columns()
    seq = build_osculating(xi)
    r = seq.partition.sizes[0]
    assert seq.rank_drop == poly_gcd_many(minor_gcd(list(s)) for s in combinations(cols, r))
    assert (seq.reduction is None) == (minor_gcd(cols) == Poly.one())
    return seq


class TestBuildOsculating:
    def test_line(self):
        seq = build_checked(line_curve())
        assert seq.t == 1
        assert seq.partition.sizes == (1, 1)
        assert seq.xis[1] == PolyMatrix([[0], [1]])
        assert seq.b == PolyMatrix([[0, 0], [1, 0]])
        assert seq.rank_drop == Poly.one()

    def test_conic(self):
        seq = build_checked(conic_curve())
        assert seq.partition.sizes == (1, 1, 1)
        assert seq.xis[1] == PolyMatrix([[0], [1], [[0, 2]]])
        assert seq.xis[2] == PolyMatrix([[0], [0], [2]])
        assert seq.b.entry(1, 0) == Poly.one()
        assert seq.b.entry(2, 1) == Poly.one()
        assert seq.b.entry(0, 1).is_zero

    def test_constant_column_terminates_immediately(self):
        seq = build_checked(PolyMatrix([[1], [2]]))
        assert seq.t == 0
        assert seq.partition.sizes == (1,)
        assert seq.b == PolyMatrix([[0]])

    def test_zero_curve_rejected(self):
        with pytest.raises(ZeroFunction):
            build_osculating(PolyMatrix([[0], [0]]))

    def test_non_constant_rank_input_warns_and_reduces(self):
        xi = PolyMatrix([[[0, 1]], [[0, 0, 1]]])
        with pytest.warns(UserWarning):
            seq = build_checked(xi)
        assert seq.xis[0] == PolyMatrix([[1], [[0, 1]]])
        assert seq.rank_drop == Z
        assert seq.reduction is not None
        assert seq.xis[0] @ seq.reduction == xi
        assert seq.partition.sizes == (1, 1)

    def test_generic_rank_below_column_count(self):
        # three columns of generic rank 2 that drop to rank 1 at z = 0
        xi = PolyMatrix.from_columns(
            [
                PolyMatrix.column([1, Z, 0]),
                PolyMatrix.column([Z, Z * Z, Z]),
                PolyMatrix.column([Z * Z, Z * Z * Z, Z * Z - Z]),
            ]
        )
        with pytest.warns(UserWarning):
            seq = build_checked(xi)
        assert seq.partition.sizes == (2, 1)
        assert seq.rank_drop == Z
        assert seq.reduction is not None
        assert seq.xis[0] @ seq.reduction == xi

    def test_row_sets_that_add_nothing_modulo_the_drop(self, monkeypatch):
        # the repair of the second column interpolates modulo z: the first
        # three row sets have minors divisible by z, add nothing to the
        # Bezout combination and are passed over, and the fourth completes it
        xi = PolyMatrix.from_columns(
            [PolyMatrix.column([0, -Z, -Z, 1]), PolyMatrix.column([-Z, 0, 0, Z - 1])]
        )
        passed_over = []
        xgcd = poly._xgcd

        def counting(h, minor):
            out = xgcd(h, minor)
            passed_over.append(out[0].degree == h.degree)
            return out

        monkeypatch.setattr(poly, "_xgcd", counting)
        with pytest.warns(UserWarning, match="constant rank"):
            seq = build_checked(xi)
        assert passed_over == [True, True, True, False]
        assert seq.partition.sizes == (2, 1)
        assert seq.rank_drop == Z
        assert seq.dxi == seq.xi @ seq.b
        assert seq.xis[0] @ seq.reduction == xi
        columns = seq.xi.columns()
        assert all(minor_gcd(columns[:k]) == Poly.one() for k in range(1, len(columns) + 1))

    def test_derivative_relation_holds_exactly(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            n = int(rng.integers(2, 5))
            k = int(rng.integers(1, 3))
            if k >= n:
                k = n - 1
            xi = random_lift(rng, n, k, 3)
            seq = build_checked(xi)
            assert seq.xi @ seq.b == seq.xi.derivative()

    def test_ranks_never_grow(self):
        rng = np.random.default_rng(57)
        for _ in range(5):
            xi = random_lift(rng, 4, 2, 2)
            seq = build_checked(xi)
            sizes = seq.partition.sizes
            assert all(sizes[i] >= sizes[i + 1] for i in range(len(sizes) - 1))
            assert sizes[-1] >= 1

    @pytest.mark.parametrize("degree", [3, 4, 5, 6])
    def test_normal_curve_takes_one_determinant_a_level(self, degree, monkeypatch):
        calls = []
        det = PolyMatrix.det
        monkeypatch.setattr(PolyMatrix, "det", lambda m: calls.append(m) or det(m))
        seq = build_osculating(normal_curve(degree))
        assert seq.partition.sizes == (1,) * (degree + 1)
        assert len(calls) <= degree

    def test_c_minus_matrix_layout(self):
        seq = build_checked(conic_curve())
        c = seq.c_minus_matrix()
        expected = PolyMatrix([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        assert c == expected


class TestFrameAt:
    def test_line_at_origin(self):
        seq = build_osculating(line_curve())
        data = frame_at(seq, I2, 0.0)
        assert np.allclose(data.phi, np.eye(2))
        assert np.allclose(data.betas[0][0], [[1.0]])
        assert np.allclose(data.betas[1][0], [[1.0]])
        assert np.allclose(data.b_sub[0], [[1.0]])
        assert data.b_solve_residual < 1e-12

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_b_solve_checks_the_exact_coefficients(self, level):
        # B_{aa} + 1 breaks the defining relation of level a, the top one too
        seq = build_osculating(conic_curve())
        bump = [[int(i == j == level) for j in range(3)] for i in range(3)]
        broken = dataclasses.replace(seq, b=seq.b + PolyMatrix(bump))
        assert frame_at(seq, I3, 0.3).b_solve_residual < 1e-14
        assert frame_at(broken, I3, 0.3).b_solve_residual > 0.5

    def test_line_generic_point(self):
        seq = build_osculating(line_curve())
        z = 0.7 - 0.4j
        r2 = abs(z) ** 2
        data = frame_at(seq, I2, z)
        assert np.allclose(data.betas[0][0], [[1 + r2]], atol=1e-12)
        assert np.allclose(data.betas[1][0], [[1 / (1 + r2)]], atol=1e-12)
        expected_phi1 = np.array([[-np.conj(z)], [1.0]]) / (1 + r2)
        assert np.allclose(data.phis[1][0], expected_phi1, atol=1e-12)
        assert np.allclose(data.b_sub[0], [[1.0]], atol=1e-12)

    def test_conic_at_origin(self):
        seq = build_osculating(conic_curve())
        data = frame_at(seq, I3, 0.0)
        assert np.allclose(data.phi, np.diag([1.0, 1.0, 2.0]))
        assert np.allclose(data.betas[2][0], [[4.0]])
        assert np.allclose(data.b_sub[1], [[1.0]])

    def test_orthogonality_and_gamma(self):
        rng = np.random.default_rng(13)
        xi = random_lift(rng, 4, 2, 3)
        seq = build_osculating(xi)
        w = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = HermitianMetric(w.conj().T @ w + 4.0 * np.eye(4))
        for z in [0.0, 0.3 + 0.1j, -0.2 + 0.25j]:
            data = frame_at(seq, h, z)
            phi = data.phi
            gram = phi.conj().T @ h.matrix @ phi
            scale = np.linalg.norm(phi) ** 2
            assert np.linalg.norm(gram - data.gamma) < 1e-9 * max(1.0, scale)
            for a, (beta, *_) in enumerate(data.betas):
                assert np.linalg.norm(beta - beta.conj().T) < 1e-12 * max(
                    1.0, np.linalg.norm(beta)
                )
                assert np.min(np.linalg.eigvalsh(beta)) > 0

    def test_b_sub_matches_exact_coefficients(self):
        rng = np.random.default_rng(41)
        xi = random_lift(rng, 3, 1, 4)
        seq = build_osculating(xi)
        for z in [0.2, -0.3 + 0.4j]:
            data = frame_at(seq, I3, z)
            for a in range(seq.t):
                exact = seq.b.evaluate(z)[seq.partition.slice(a + 1), seq.partition.slice(a)]
                assert np.allclose(data.b_sub[a], exact, atol=1e-9)

    @pytest.mark.parametrize("degree", [1, 6])
    def test_three_evaluations_per_point(self, degree, monkeypatch):
        # xi, its derivative and B, once per call, however long the chain
        # and however many points
        seq = build_osculating(normal_curve(degree))
        calls = []
        evaluate = PolyMatrix.evaluate
        monkeypatch.setattr(PolyMatrix, "evaluate", lambda m, z: calls.append(m) or evaluate(m, z))
        frame_at(seq, HermitianMetric.identity(degree + 1), np.array([0.2 + 0.1j, -0.3, 0.4j, 0.0]))
        assert len(calls) == 3

    @pytest.mark.parametrize(
        "which, metric",
        [("normal5", "general"), ("lift57", "general"), ("normal5", "identity"), ("lift57", "identity")],
        ids=["normal5", "lift57", "normal5-identity", "lift57-identity"],
    )
    def test_equal_to_full_jet_products(self, which, metric):
        # frame_at skips every product with the identity metric; the same
        # two passes of block Gram-Schmidt on full jets, h included, give the
        # same numbers, and so does each point of one call on all three points
        if which == "normal5":
            seq = build_osculating(normal_curve(5))
        else:
            seq = build_osculating(random_lift(np.random.default_rng(57), 4, 2, 2))
        n = seq.n
        w = np.random.default_rng(3).standard_normal((n, n))
        h = HermitianMetric(w @ w.T + n * np.eye(n) if metric == "general" else np.eye(n))
        zs = (0.3 + 0.2j, -0.45j, 0.0)
        stacked = frame_at(seq, h, np.array(zs))
        for i, z in enumerate(zs):
            data = frame_at(seq, h, z)
            assert_same_point(stacked.take(i), data)
            h_jet = np.zeros((4, n, n), dtype=complex)
            h_jet[0] = h.matrix
            for a, s in enumerate(map(seq.partition.slice, range(seq.t + 1))):
                x = seq.xi.evaluate(z)[:, s]
                phi = np.stack((x, seq.dxi.evaluate(z)[:, s], 0 * x, 0 * x))
                if a:
                    for _ in range(2):
                        phi = phi - jet_mul(q, jet_mul(rows, phi))
                left = jet_mul(jet_h(phi), h_jet)
                beta = jet_mul(left, phi)
                assert len(data.phis[a]) == len(data.betas[a]) == 4
                assert all(np.array_equal(u, v) for u, v in zip(data.phis[a], phi))
                assert all(np.array_equal(u, v) for u, v in zip(data.betas[a], beta))
                assert np.array_equal(data.betas_inv[a], np.linalg.inv(beta[0]))
                row = jet_mul(jet_inv(beta), left)
                if a == 0:
                    q, rows = phi, row
                else:
                    q = np.concatenate((q, phi), axis=-1)
                    rows = np.concatenate((rows, row), axis=-2)

    @pytest.mark.parametrize("which", ["normal5", "lift57"])
    def test_b_solve_reads_the_nonzero_blocks_of_b(self, which):
        # a term only for each nonzero block of B: the same bits as the sum
        # over every block
        if which == "normal5":
            seq = build_osculating(normal_curve(5))
        else:
            seq = build_osculating(random_lift(np.random.default_rng(57), 4, 2, 2))
        zs = np.array([0.3 + 0.2j, -0.45j, 0.0])
        blocks = [seq.partition.slice(a) for a in range(seq.t + 1)]
        x, dx, b = seq.xi.evaluate(zs), seq.dxi.evaluate(zs), seq.b.evaluate(zs)
        assert seq.b_pattern is seq.b_pattern
        assert seq.b_pattern == tuple(
            (i, j) for i, r in enumerate(blocks) for j, c in enumerate(blocks) if np.any(b[..., r, c])
        )
        want = 0.0
        for s in blocks:
            want = np.maximum(want, scaled_defect(dx[..., s], [x[..., r] @ b[..., r, s] for r in blocks]))
        got = frame_at(seq, HermitianMetric.identity(seq.n), zs).b_solve_residual
        assert np.array_equal(got, want)
        if which == "normal5":  # dxi_a/dz = xi_{a+1}, and the top level is constant
            assert seq.b_pattern == tuple((a + 1, a) for a in range(seq.t))

    def test_singular_beta_detected(self):
        # hand built chain whose levels collide at z = 1
        with pytest.raises(SingularBeta):
            frame_at(colliding_chain(), I2, 1.0)

    def test_singular_beta_fails_only_its_point(self):
        # in an array the colliding point is recorded and leaves the stack
        # before the inverse; its neighbours match their calls alone
        seq = colliding_chain()
        data = frame_at(seq, I2, np.array([0.5, 1.0, -0.5j]))
        assert [f is None for f in data.failures] == [True, False, True]
        assert isinstance(data.failures[1], SingularBeta)
        assert str(data.failures[1]).startswith("gram block 1 at z=1+0j has condition ")
        assert all(np.isnan(x[1]).all() for jet in data.phis + data.betas for x in jet)
        assert all(np.isnan(x[1]).all() for x in data.betas_inv)
        assert np.isnan(data.b_solve_residual[1])
        for i, z in ((0, 0.5), (2, -0.5j)):
            assert_same_point(data.take(i), frame_at(seq, I2, z))

    def test_array_of_points_keeps_its_shape(self):
        seq = build_osculating(conic_curve())
        zs = np.array([[0.1, 0.2j], [-0.3, 0.0]])
        data = frame_at(seq, I3, zs)
        assert data.z.shape == (2, 2)
        assert all(x.shape == (2, 2, 3, 1) for x in data.phis[1])
        assert data.b_solve_residual.shape == (2, 2)
        assert data.failures == (None,) * 4
        assert_same_point(data.take(3), frame_at(seq, I3, 0.0))
        empty = frame_at(seq, I3, np.empty(0))
        assert empty.betas[2][0].shape == (0, 1, 1) and empty.failures == ()

    def test_gauge_covariance_of_projector(self):
        cols = [
            PolyMatrix([[1], [0], [[0, 1]]]),
            PolyMatrix([[0], [1], [[0, 0, 1]]]),
        ]
        xi = PolyMatrix.from_columns(cols)
        mixed = PolyMatrix.from_columns(
            [cols[0], cols[0] + cols[1]]
        )
        seq_a = build_osculating(xi)
        seq_b = build_osculating(mixed)

        def projector(data):
            phi0, beta0 = data.phis[0][0], data.betas[0][0]
            return np.eye(3) - phi0 @ np.linalg.inv(beta0) @ phi0.conj().T

        for z in [0.1, 0.4 - 0.2j, -0.5j]:
            pa = projector(frame_at(seq_a, I3, z))
            pb = projector(frame_at(seq_b, I3, z))
            assert np.linalg.norm(pa - pb) < 1e-12


class TestFrameEquations:
    def test_line_residuals(self):
        seq = build_osculating(line_curve())
        minus, plus = verify_frame_equations(frame_at(seq, I2, 0.3 + 0.2j))
        assert np.max(minus + plus) < 1e-10

    def test_constant_curve_residuals_vanish(self):
        seq = build_osculating(PolyMatrix([[1], [1]]))
        minus, plus = verify_frame_equations(frame_at(seq, I2, 0.5 + 0.1j))
        assert np.max(minus + plus) < 1e-12

    def test_conic_grid(self):
        seq = build_osculating(conic_curve())
        worst = 0.0
        for x in np.linspace(-0.6, 0.6, 5):
            for y in np.linspace(-0.6, 0.6, 5):
                minus, plus = verify_frame_equations(frame_at(seq, I3, complex(x, y)))
                worst = max(worst, np.max(minus + plus))
        assert worst < 1e-10

    def test_nontrivial_metric(self):
        seq = build_osculating(line_curve())
        h = HermitianMetric(np.array([[2.0, 0.5j], [-0.5j, 1.0]]))
        minus, plus = verify_frame_equations(frame_at(seq, h, 0.25 - 0.3j))
        assert np.max(minus + plus) < 1e-10

    def test_stack_equals_each_point(self):
        # the checks run once on the stacks and give each point the bits
        # of its check alone: frame equations, Kahler identity and g_a
        seq = build_osculating(random_lift(np.random.default_rng(57), 4, 2, 2))
        h = HermitianMetric.identity(4)
        zs = np.array([0.3 + 0.2j, -0.45j, 0.0, 0.2])
        data = frame_at(seq, h, zs)
        (minus, plus), kahler = verify_frame_equations(data), kahler_check(data)
        for i, z in enumerate(zs):
            alone = frame_at(seq, h, z)
            alone_minus, alone_plus = verify_frame_equations(alone)
            assert [x[i] for x in minus] == list(alone_minus)
            assert [x[i] for x in plus] == list(alone_plus)
            assert [x[i] for x in kahler] == list(kahler_check(alone))
            gs = list(induced_metric([b[0] for b in alone.betas], alone.b_sub))
            assert [g[i] for g in data.metric] == gs


def colliding_chain() -> OsculatingSequence:
    """A hand built chain whose two levels collide at z = 1."""
    return OsculatingSequence(
        xi=PolyMatrix([[1, 1], [[0, 1], 1]]),
        b=PolyMatrix.zeros(2, 2),
        partition=BlockStructure((1, 1)),
        rank_drop=Poly.one(),
    )


def assert_same_point(data, alone):
    """Every field of a point taken from an array call has the bits of the
    call at that point alone."""
    assert complex(data.z) == alone.z
    assert data.failures == alone.failures
    assert np.array_equal(data.b_solve_residual, alone.b_solve_residual)
    for name in ("phis", "betas", "betas_inv", "b_sub"):
        got, want = getattr(data, name), getattr(alone, name)
        assert len(got) == len(want)
        assert all(np.array_equal(u, v) for u, v in zip(got, want)), name


def normal_curve(degree: int) -> PolyMatrix:
    """The rational normal curve (1, z, ..., z^degree)."""
    return PolyMatrix([[[0] * m + [1]] for m in range(degree + 1)])


class TestJets:
    """The exact derivatives of frame_at agree with finite differences."""

    @pytest.mark.parametrize("which", ["normal4", "lift57"])
    def test_match_finite_differences(self, which):
        if which == "normal4":
            xi, h = normal_curve(4), HermitianMetric.identity(5)
        else:
            xi, h = random_lift(np.random.default_rng(57), 4, 2, 2), HermitianMetric.identity(4)
        seq = build_osculating(xi)

        def close(jet, fd, tol):
            return np.linalg.norm(jet - fd) <= tol * max(1.0, np.linalg.norm(fd))

        def phi(a):
            return lambda w: frame_at(seq, h, w).phis[a][0]

        def beta(a):
            return lambda w: frame_at(seq, h, w).betas[a][0]

        for z in (0.3 + 0.2j, -0.25 + 0.1j, 0.4j, 0.0):
            data = frame_at(seq, h, z)
            for a in range(seq.t + 1):
                assert close(data.phis[a][1], d_minus(phi(a), z, 1e-4), 1e-5)
                assert close(data.phis[a][2], d_plus(phi(a), z, 1e-4), 1e-5)
                assert close(data.betas[a][1], d_minus(beta(a), z, 1e-4), 1e-5)
                assert close(data.betas[a][2], d_plus(beta(a), z, 1e-4), 1e-5)
                mixed = d_plus(lambda u: d_minus(beta(a), u, 1e-3), z, 1e-3)
                assert close(data.betas[a][3], mixed, 1e-3)


class TestInducedMetric:
    def test_line_values(self):
        seq = build_osculating(line_curve())
        for z, g in ((0.0, 1.0), (1.0, 0.25)):
            data = frame_at(seq, I2, z)
            (g0,) = induced_metric([b[0] for b in data.betas], data.b_sub)
            assert abs(g0 - g) < 1e-12

    def test_one_value_per_level_below_the_top(self):
        # t values, each bit for bit the formula at its own level
        seq = build_osculating(random_lift(np.random.default_rng(3), 4, 1, 3))
        data = frame_at(seq, HermitianMetric.identity(4), np.array([0.1 + 0.2j, -0.3, 0.5j]))
        betas = [b[0] for b in data.betas]
        gs = induced_metric(betas, data.b_sub)
        assert seq.t >= 2 and len(gs) == seq.t
        for a, g in enumerate(gs):
            b = data.b_sub[a]
            product = np.linalg.inv(betas[a]) @ dagger(b) @ betas[a + 1] @ b
            assert g.tobytes() == np.trace(product, axis1=-2, axis2=-1).real.tobytes()

    def test_nonnegative_real(self):
        rng = np.random.default_rng(3)
        xi = random_lift(rng, 4, 1, 3)
        seq = build_osculating(xi)
        for z in [0.1 + 0.2j, -0.3, 0.5j]:
            data = frame_at(seq, HermitianMetric.identity(4), z)
            gs = induced_metric([b[0] for b in data.betas], data.b_sub)
            assert len(gs) == seq.t
            for g in gs:
                assert g >= 0


class TestKahlerCheck:
    def test_line_at_origin(self):
        seq = build_osculating(line_curve())
        res = kahler_check(frame_at(seq, I2, 0.0))
        assert max(res) < 1e-10

    def test_line_unit_circle(self):
        seq = build_osculating(line_curve())
        data = frame_at(seq, I2, 1.0)
        (g0,) = induced_metric([b[0] for b in data.betas], data.b_sub)
        assert abs(g0 - 0.25) < 1e-12
        res = kahler_check(data)
        assert max(res) < 1e-10

    def test_cubic_curve_grid(self):
        xi = PolyMatrix([[1], [[0, 1, 0, 1]], [[0, 0, 1]]])
        seq = build_osculating(xi)
        worst = 0.0
        for x in np.linspace(-0.4, 0.4, 3):
            for y in np.linspace(-0.4, 0.4, 3):
                worst = max(worst, max(kahler_check(frame_at(seq, I3, complex(x, y)))))
        assert worst < 1e-10


class TestConnectionCoefficients:
    def test_line_at_origin(self):
        seq = build_osculating(line_curve())
        data = frame_at(seq, I2, 0.0)
        # beta slopes at 0: d/dz (1+|z|^2) = zbar -> 0, same for the inverse
        assert np.allclose([b[1] for b in data.betas], 0)
        lam_m, lam_p = connection_coefficients(data)
        assert np.allclose(lam_m, [[0, 0], [1, 0]])
        assert np.allclose(lam_p, [[0, -1], [0, 0]])

    def test_line_generic_point(self):
        seq = build_osculating(line_curve())
        z = 0.3 - 0.2j
        r2 = abs(z) ** 2
        data = frame_at(seq, I2, z)
        assert np.allclose(data.betas[0][1], [[np.conj(z)]], atol=1e-12)
        assert np.allclose(data.betas[1][1], [[-np.conj(z) / (1 + r2) ** 2]], atol=1e-12)
        lam_m, _ = connection_coefficients(data)
        # the difference of the two gram slopes
        expected = -2 * np.conj(z) / (1 + r2)
        assert abs(lam_m[1, 1] - lam_m[0, 0] - expected) < 1e-12

    def test_constant_curve_all_zero(self):
        seq = build_osculating(PolyMatrix([[1], [2]]))
        data = frame_at(seq, I2, 0.3)
        lam_m, lam_p = connection_coefficients(data)
        assert np.allclose(lam_m, 0)
        assert np.allclose(lam_p, 0)

    def test_wide_blocks(self):
        # the first rng-57 lift of the exact corpus: partition (2, 2) on a 3 by 3 grid
        cfg = parse_config(corpus.make_jobs("exact-corpus", 0)[0])
        seq = build_osculating(cfg.curve)
        assert seq.partition.sizes == (2, 2)
        data = frame_at(seq, HermitianMetric.identity(seq.n), np.array(cfg.grid.points()))
        lam_m, lam_p = connection_coefficients(data)
        level = np.repeat([0, 1], 2)
        below = level[:, None] - level[None, :]  # row level less column level
        assert not lam_m[..., (below != 0) & (below != 1)].any()
        assert not lam_p[..., below != -1].any()
        minus, plus = verify_frame_equations(data)
        assert np.max(minus + plus) <= 1e-11


class TestLinearFullness:
    def test_plane_curve(self):
        assert linear_fullness(build_osculating(line_curve()))

    def test_padded_curve_not_full(self):
        xi = PolyMatrix([[1], [[0, 1]], [0]])
        seq = build_osculating(xi)
        assert not linear_fullness(seq)

    def test_conic_full(self):
        assert linear_fullness(build_osculating(conic_curve()))
