"""Toda problems, transports, the solution procedure, and the residual checks.

The projective line with c_minus the single lowering matrix is exactly
solvable by hand and anchors most of the oracles here:

    mu_minus = I + z E21,   eta = diag(1 + |z|^2, 1 / (1 + |z|^2)),
    gamma = eta,            phi = [[1, -zbar / (1 + |z|^2)],
                                   [z,     1 / (1 + |z|^2)]].

That gamma is also the pair of Frenet squared norms of the curve (1, z),
which ties the solver to the frame construction.
"""

from __future__ import annotations

import numpy as np
import pytest
from test_acceptance import random_gamma_seed, subdiagonal_lowering

from todaframes import toda
from todaframes.errors import IntegrationDiverged, SingularBeta
from todaframes.frenet import build_osculating, frame_at
from todaframes.grading import GradationSpec
from todaframes.linalg import BlockStructure, HermitianMetric
from todaframes.poly import GaussianRational, Poly, PolyMatrix
from todaframes.toda import (
    TodaProblem,
    check_phi_relation,
    integrate_mu,
    residual_stencil,
    solve,
    toda_residual,
    zero_curvature_check,
)


def line_gradation() -> GradationSpec:
    return GradationSpec(BlockStructure((1, 1)), (1,))


def line_lowering() -> PolyMatrix:
    return PolyMatrix([[0, 0], [1, 0]])


def line_problem(h=None) -> TodaProblem:
    return TodaProblem.hermitian_problem(line_gradation(), 1, line_lowering(), h)


def chain_spec() -> GradationSpec:
    return GradationSpec(BlockStructure((1, 1, 1)), (1, 1))


def chain_lowering() -> PolyMatrix:
    return PolyMatrix([[0, 0, 0], [1, 0, 0], [0, 1, 0]])


def rk4_transport(gamma_rep, c_rep, start, ends, steps):
    """Classical fourth order reference for mu' = mu gamma c gamma^{-1} on
    straight legs from start, batched over the ends."""
    ends = np.asarray(ends, dtype=complex)
    k = gamma_rep.rows
    nodes = start + np.linspace(0.0, 1.0, 2 * steps + 1)[:, None] * (ends - start)[None, :]
    g = gamma_rep.evaluate_many(nodes.ravel())
    a = (g @ c_rep.evaluate_many(nodes.ravel()) @ np.linalg.inv(g)).reshape(*nodes.shape, k, k)
    a *= (ends - start)[None, :, None, None]
    mu = np.broadcast_to(np.eye(k, dtype=complex), (ends.size, k, k))
    h = 1.0 / steps
    for i in range(steps):
        a0, a1, a2 = a[2 * i], a[2 * i + 1], a[2 * i + 2]
        k1 = mu @ a0
        k2 = (mu + 0.5 * h * k1) @ a1
        k3 = (mu + 0.5 * h * k2) @ a1
        k4 = (mu + h * k3) @ a2
        mu = mu + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return mu


def line_gamma(z: complex) -> np.ndarray:
    r2 = abs(z) ** 2
    return np.diag([1.0 + r2, 1.0 / (1.0 + r2)]).astype(complex)


def line_phi(z: complex) -> np.ndarray:
    r2 = abs(z) ** 2
    return np.array(
        [[1.0, -np.conj(z) / (1.0 + r2)], [z, 1.0 / (1.0 + r2)]], dtype=complex
    )


class TestProblemValidation:
    def test_hermitian_constructor(self):
        p = line_problem()
        assert p.hermitian_mode
        assert p.gap == 1
        np.testing.assert_allclose(p.c_plus_at(2.0), [[0, -1], [0, 0]])
        np.testing.assert_allclose(p.c_minus_at(2.0), [[0, 0], [1, 0]])

    def test_diagonal_entry_rejected(self):
        bad = PolyMatrix([[1, 0], [1, 0]])
        with pytest.raises(ValueError, match="degree"):
            TodaProblem.hermitian_problem(line_gradation(), 1, bad)

    def test_wrong_degree_rejected(self):
        # entry in the raising block is degree +1, not -1
        bad = PolyMatrix([[0, 1], [0, 0]])
        with pytest.raises(ValueError, match="c_minus"):
            TodaProblem.hermitian_problem(line_gradation(), 1, bad)

    def test_gap_band_must_be_trivial(self):
        with pytest.raises(ValueError, match="trivial band"):
            TodaProblem.hermitian_problem(line_gradation(), 2, line_lowering())

    def test_gap_two_with_label_two_accepted(self):
        spec = GradationSpec(BlockStructure((1, 1)), (2,))
        p = TodaProblem.hermitian_problem(spec, 2, line_lowering())
        assert p.gap == 2

    def test_hermitian_flag_checks_consistency(self):
        with pytest.raises(ValueError, match="hermitian"):
            TodaProblem(
                gradation=line_gradation(),
                gap=1,
                c_minus=line_lowering(),
                c_plus=PolyMatrix([[0, 1], [0, 0]]),
                h=HermitianMetric.identity(2),
                hermitian_mode=True,
            )

    def test_metric_size_checked(self):
        with pytest.raises(ValueError, match="metric"):
            TodaProblem.hermitian_problem(
                line_gradation(), 1, line_lowering(), HermitianMetric.identity(3)
            )

    def test_gap_positive(self):
        with pytest.raises(ValueError, match="gap"):
            TodaProblem.hermitian_problem(line_gradation(), 0, line_lowering())


class TestIntegrateMu:
    def test_nilpotent_transport_is_exact(self):
        p = line_problem()
        z = 0.7 - 0.4j
        mu_m, mu_p = integrate_mu(p, PolyMatrix.identity(2), 0.0, z, steps=50)
        expected = np.array([[1, 0], [z, 1]], dtype=complex)
        assert np.linalg.norm(mu_m - expected) < 1e-12
        expected_plus = np.array([[1, -np.conj(z)], [0, 1]], dtype=complex)
        assert np.linalg.norm(mu_p - expected_plus) < 1e-12

    def test_three_level_transport_is_exponential(self):
        # c_minus = N with N^3 = 0: mu_minus = exp(zN) needs the depth two term
        nil = np.diag([1.0, 1.0], -1)
        p = TodaProblem.hermitian_problem(chain_spec(), 1, chain_lowering())
        z = 0.8 - 0.6j
        mu_m, _ = integrate_mu(p, PolyMatrix.identity(3), 0.0, z)
        assert np.linalg.norm(mu_m - (np.eye(3) + z * nil + z * z * nil @ nil / 2)) < 1e-14

    def test_plus_factor_runs_in_the_conjugate_variable(self):
        # c_plus = -N^T stored in w = zbar: mu_plus = exp(-zbar N^T)
        up = np.diag([1.0, 1.0], 1)
        p = TodaProblem(
            gradation=chain_spec(),
            gap=1,
            c_minus=chain_lowering(),
            c_plus=PolyMatrix([[0, -1, 0], [0, 0, -1], [0, 0, 0]]),
            h=HermitianMetric.identity(3),
            hermitian_mode=False,
        )
        z = 0.8 - 0.6j
        eye = PolyMatrix.identity(3)
        _, mu_p = integrate_mu(p, eye, 0.0, z, gamma_plus=eye)
        w = np.conj(z)
        assert np.linalg.norm(mu_p - (np.eye(3) - w * up + w * w * up @ up / 2)) < 1e-14

    @pytest.mark.parametrize("sizes", [(2, 2), (1, 2, 1)])
    def test_random_seeds_match_rk4(self, sizes):
        # the rng-77 seeds of the acceptance test and the benchmark; the
        # (1, 2, 1) problem also transports a second seed as gamma_plus
        rng = np.random.default_rng(77)
        blocks = BlockStructure(sizes)
        spec = GradationSpec(blocks, (1,) * (blocks.count - 1))
        c_minus = subdiagonal_lowering(blocks)
        gamma_minus = random_gamma_seed(rng, blocks)
        gamma_plus = random_gamma_seed(rng, blocks)
        p = TodaProblem(
            gradation=spec,
            gap=1,
            c_minus=c_minus,
            c_plus=c_minus.conjugate_transpose().scale(-1),
            h=HermitianMetric.identity(blocks.n),
            hermitian_mode=False,
        )
        ends = [0.7 + 0.7j, -0.7 + 0.2j, 0.3 - 0.7j, -0.5 - 0.5j]
        want_m = rk4_transport(gamma_minus, p.c_minus, 0.0, ends, 4000)
        want_p = rk4_transport(gamma_plus, p.c_plus, 0.0, np.conj(ends), 4000)
        for z, wm, wp in zip(ends, want_m, want_p):
            mu_m, mu_p = integrate_mu(p, gamma_minus, 0.0, z, gamma_plus=gamma_plus)
            assert np.abs(mu_m - wm).max() < 1e-11
            assert np.abs(mu_p - wp).max() < 1e-11

    def test_path_independence(self):
        p = line_problem()
        seed = PolyMatrix([[[1, (1, 4)], 0], [0, 1]])  # diag(1 + z/4, 1)
        z = 0.5 - 0.2j
        straight, _ = integrate_mu(p, seed, 0.0, z, steps=400)
        bent, _ = integrate_mu(p, seed, 0.0, z, steps=400, via=(0.4 + 0.3j,))
        assert np.linalg.norm(straight - bent) < 1e-8

    def test_basepoint_returns_identity(self):
        p = line_problem()
        mu_m, mu_p = integrate_mu(p, PolyMatrix.identity(2), 0.3, 0.3, steps=5)
        assert np.linalg.norm(mu_m - np.eye(2)) < 1e-14
        assert np.linalg.norm(mu_p - np.eye(2)) < 1e-14

    def test_singular_seed_on_path_raises(self):
        p = line_problem()
        seed = PolyMatrix([[[1, -2], 0], [0, 1]])  # 1 - 2z vanishes at z = 1/2
        with pytest.raises(IntegrationDiverged):
            integrate_mu(p, seed, 0.0, 1.0, steps=10)

    def test_block_diagonal_seed_enforced(self):
        p = line_problem()
        seed = PolyMatrix([[1, 1], [0, 1]])
        with pytest.raises(ValueError, match="block diagonal"):
            integrate_mu(p, seed, 0.0, 1.0)

    def test_gamma_plus_required_without_hermitian_mode(self):
        p = TodaProblem(
            gradation=line_gradation(),
            gap=1,
            c_minus=line_lowering(),
            c_plus=PolyMatrix([[0, -1], [0, 0]]),
            h=HermitianMetric.identity(2),
            hermitian_mode=False,
        )
        with pytest.raises(ValueError, match="gamma_plus"):
            integrate_mu(p, PolyMatrix.identity(2), 0.0, 0.5)

    def test_step_count_validated(self):
        p = line_problem()
        with pytest.raises(ValueError, match="steps"):
            integrate_mu(p, PolyMatrix.identity(2), 0.0, 0.5, steps=0)


class TestSolve:
    def test_line_solution_matches_closed_form(self):
        p = line_problem()
        grid = [0.0, 0.5, 0.3 + 0.4j, -0.8j, 1.0 + 1.0j]
        sol = solve(p, PolyMatrix.identity(2), grid)
        assert sol.failures == (None,) * len(grid)
        for z, gamma, phi in zip(sol.grid, sol.gamma, sol.phi):
            assert np.linalg.norm(gamma - line_gamma(z)) < 1e-8
            assert np.linalg.norm(phi - line_phi(z)) < 1e-8

    def test_line_solution_matches_frenet_norms(self):
        seq = build_osculating(PolyMatrix([[1], [[0, 1]]]))
        h = HermitianMetric.identity(2)
        p = line_problem()
        sol = solve(p, PolyMatrix.identity(2), [0.6 - 0.3j])
        data = frame_at(seq, h, 0.6 - 0.3j)
        for a in range(2):
            s = sol.blocks.slice(a)
            assert np.linalg.norm(sol.gamma[0][s, s] - data.betas[a]) < 1e-8

    def test_phi_relation_identity_metric(self):
        p = line_problem()
        sol = solve(p, PolyMatrix.identity(2), [0.2, 0.9j, -0.5 + 0.1j])
        assert check_phi_relation(sol, p) < 1e-9

    def test_phi_relation_nontrivial_metric(self):
        h = HermitianMetric([[2, 0], [0, 1]])
        p = line_problem(h)
        grid = [0.4, -0.3 + 0.6j]
        sol = solve(p, PolyMatrix.identity(2), grid)
        assert check_phi_relation(sol, p) < 1e-9
        # gamma is untouched by the metric; only phi absorbs it
        for z, gamma in zip(sol.grid, sol.gamma):
            assert np.linalg.norm(gamma - line_gamma(z)) < 1e-8

    def test_explicit_g0_factor(self):
        h = HermitianMetric([[2, 0], [0, 1]])
        p = line_problem(h)
        g0 = np.diag([-np.sqrt(2.0), 1.0]).astype(complex)
        sol = solve(p, PolyMatrix.identity(2), [0.3 + 0.3j], g0=g0)
        assert check_phi_relation(sol, p, g0=g0) < 1e-9

    def test_bad_g0_rejected(self):
        p = line_problem()
        with pytest.raises(ValueError, match="g0"):
            solve(p, PolyMatrix.identity(2), [0.1], g0=np.diag([2.0, 1.0]))

    def test_trivial_data_gives_constants(self):
        p = TodaProblem.hermitian_problem(line_gradation(), 1, PolyMatrix.zeros(2, 2))
        sol = solve(p, PolyMatrix.identity(2), [0.0, 0.7 - 0.1j])
        for gamma, phi in zip(sol.gamma, sol.phi):
            assert np.linalg.norm(gamma - np.eye(2)) < 1e-12
            assert np.linalg.norm(phi - np.eye(2)) < 1e-12

    def test_non_hermitian_branch_matches_hermitian(self):
        hp = line_problem()
        nh = TodaProblem(
            gradation=line_gradation(),
            gap=1,
            c_minus=line_lowering(),
            c_plus=PolyMatrix([[0, -1], [0, 0]]),
            h=HermitianMetric.identity(2),
            hermitian_mode=False,
        )
        grid = [0.5, 0.2 - 0.6j]
        sol_h = solve(hp, PolyMatrix.identity(2), grid)
        sol_n = solve(nh, PolyMatrix.identity(2), grid, gamma_plus=PolyMatrix.identity(2))
        for a, b in zip(sol_h.gamma, sol_n.gamma):
            assert np.linalg.norm(a - b) < 1e-9
        for a, b in zip(sol_h.phi, sol_n.phi):
            assert np.linalg.norm(a - b) < 1e-9

    def test_failure_isolation(self):
        p = line_problem()
        seed = PolyMatrix([[[1, -2], 0], [0, 1]])  # singular at z = 1/2
        sol = solve(p, seed, [0.25, 1.0], steps=10)
        assert sol.failures[0] is None
        assert sol.failures[1] is not None and "integration" in sol.failures[1]
        assert sol.gamma[0] is not None and sol.gamma[1] is None
        assert sol.ok_indices == (0,)
        assert sol.failure_fraction == pytest.approx(0.5)

    def test_one_transport_batch_per_factor(self, monkeypatch):
        # a path through the pole of gamma_minus fails its point only, and
        # batching changes no other point
        p = TodaProblem(
            gradation=line_gradation(),
            gap=1,
            c_minus=line_lowering(),
            c_plus=PolyMatrix([[0, -1], [0, 0]]),
            h=HermitianMetric.identity(2),
            hermitian_mode=False,
        )
        seed = PolyMatrix([[[1, -2], 0], [0, 1]])  # singular at z = 1/2
        plus = PolyMatrix([[[1, (1, 4)], 0], [0, 1]])
        grid = [0.25, 1.0, -0.3 + 0.2j, 0.6j]
        calls = []
        kernel = toda._transport_many

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(toda, "_transport_many", counted)
        sol = solve(p, seed, grid, gamma_plus=plus)
        assert len(calls) == 2
        assert [f is None for f in sol.failures] == [True, False, True, True]
        assert sol.failures[1].startswith("integration:")
        for i in (0, 2, 3):
            alone = solve(p, seed, [grid[i]], gamma_plus=plus)
            assert np.linalg.norm(sol.gamma[i] - alone.gamma[0]) < 1e-14
            assert np.linalg.norm(sol.phi[i] - alone.phi[0]) < 1e-14

    def test_solution_diagnostics(self):
        p = line_problem()
        z = 0.6 + 0.2j
        sol = solve(p, PolyMatrix.identity(2), [z])
        herm = sol.hermiticity_residuals()[0]
        assert herm is not None and herm < 1e-10
        low = sol.min_block_eigenvalues()[0]
        assert low == pytest.approx(1.0 / (1.0 + abs(z) ** 2), rel=1e-6)

    def test_phi_relation_requires_a_solved_point(self):
        p = line_problem()
        seed = PolyMatrix([[[1, -2], 0], [0, 1]])
        sol = solve(p, seed, [1.0], steps=10)
        with pytest.raises(ValueError, match="no successfully solved"):
            check_phi_relation(sol, p)


class TestResiduals:
    def test_closed_form_field_satisfies_equations(self):
        p = line_problem()
        for z in (0.0, 0.4 - 0.3j, 1.1 + 0.2j):
            res = toda_residual(p, line_gamma, z)
            assert max(res) < 1e-6
            assert zero_curvature_check(p, line_gamma, z) < 1e-6

    def test_constant_field_fails_with_frozen_defect(self):
        # gamma = I is not a solution: the derivative side vanishes and the
        # commutator side is diag(1, -1), so the block norms are (1, 1) and
        # the curvature norm is sqrt(2).
        p = line_problem()
        field = lambda z: np.eye(2, dtype=complex)
        res = toda_residual(p, field, 0.3 + 0.1j)
        assert res == pytest.approx((1.0, 1.0), abs=1e-8)
        assert zero_curvature_check(p, field, 0.3 + 0.1j) == pytest.approx(
            np.sqrt(2.0), abs=1e-8
        )

    def test_residual_and_curvature_agree(self):
        # both checks measure the same matrix defect, so on a block diagonal
        # failure the curvature norm is the euclidean norm of the block norms
        p = line_problem()
        field = lambda z: np.diag([1.0 + abs(z) ** 2, 1.0]).astype(complex)
        z = 0.5 + 0.5j
        res = toda_residual(p, field, z)
        zc = zero_curvature_check(p, field, z)
        assert zc == pytest.approx(np.sqrt(sum(r * r for r in res)), abs=1e-6)

    def test_solver_output_satisfies_equations(self):
        p = line_problem()
        seed = PolyMatrix([[[1, (1, 4)], 0], [0, 1]])
        z = 0.3 - 0.2j
        sol = solve(p, seed, residual_stencil(z))
        assert sol.failures == (None,) * len(sol.grid)
        gamma = dict(zip(sol.grid, sol.gamma))
        assert max(toda_residual(p, gamma.__getitem__, z)) < 1e-5
        assert zero_curvature_check(p, gamma.__getitem__, z) < 1e-5

    def test_stencil_covers_both_checks(self):
        p = line_problem()
        z = 0.2 + 0.7j
        step = 1e-4
        allowed = set(residual_stencil(z, step))

        def strict(w):
            assert complex(w) in allowed, f"point {w!r} outside residual_stencil"
            return line_gamma(w)

        toda_residual(p, strict, z, fd_step=step)
        zero_curvature_check(p, strict, z, fd_step=step)

    def test_singular_field_guarded(self):
        p = line_problem()
        field = lambda z: np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(SingularBeta):
            toda_residual(p, field, 0.1)
        with pytest.raises(SingularBeta):
            zero_curvature_check(p, field, 0.1)

    def test_bad_step_rejected(self):
        p = line_problem()
        with pytest.raises(ValueError, match="fd_step"):
            toda_residual(p, line_gamma, 0.1, fd_step=0.0)
        with pytest.raises(ValueError, match="fd_step"):
            zero_curvature_check(p, line_gamma, 0.1, fd_step=-1.0)


class TestFrenetTodaBridge:
    def test_conic_frame_solves_three_block_system(self):
        # squared norms of the Frenet frame of (1, z, z^2) solve the Toda
        # system whose c_minus collects the osculating coefficients
        xi = PolyMatrix([[1], [[0, 1]], [[0, 0, 1]]])
        seq = build_osculating(xi)
        h = HermitianMetric.identity(3)
        spec = GradationSpec(seq.partition, (1,) * seq.t)
        p = TodaProblem.hermitian_problem(spec, 1, seq.c_minus_matrix(), h)

        def field(z):
            return frame_at(seq, h, z).gamma

        for z in (0.4 + 0.1j, -0.2 + 0.5j):
            assert max(toda_residual(p, field, z)) < 1e-4
            assert zero_curvature_check(p, field, z) < 1e-4
