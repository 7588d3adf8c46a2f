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

from fractions import Fraction

import numpy as np
import pytest
from test_acceptance import random_gamma_seed, subdiagonal_lowering

from todaframes import toda
from todaframes.errors import InvalidArgument, SingularBeta
from todaframes.frenet import build_osculating, frame_at
from todaframes.grading import GradationSpec
from todaframes.linalg import BlockStructure, HermitianMetric, gauss_decompose
from todaframes.poly import GaussianRational, Poly, PolyMatrix
from todaframes.toda import (
    TodaProblem,
    phi_relation,
    solve,
    toda_residual,
    zero_curvature_check,
)
from todaframes.wirtinger import d_minus, d_plus, memoized


def line_gradation() -> GradationSpec:
    return GradationSpec(BlockStructure((1, 1)), (1,))


def line_lowering() -> PolyMatrix:
    return PolyMatrix([[0, 0], [1, 0]])


def line_problem(h=None) -> TodaProblem:
    return TodaProblem(line_gradation(), line_lowering(), h=h)


def chain_spec() -> GradationSpec:
    return GradationSpec(BlockStructure((1, 1, 1)), (1, 1))


def chain_lowering() -> PolyMatrix:
    return PolyMatrix([[0, 0, 0], [1, 0, 0], [0, 1, 0]])


def transport(p, seed, z, basepoint=0.0, gamma_plus=None):
    """Both transport factors at z from the basepoint, read off a one-point solve."""
    sol = solve(p, seed, [z], basepoint=basepoint, gamma_plus=gamma_plus)
    return sol.mu_minus[0], sol.mu_plus[0]


def worst_phi_relation(sol, p) -> float:
    return max(phi_relation(p, sol.phi[i], sol.gamma[i]) for i in sol.ok_indices)


def rk4_transport(gamma_rep, c_rep, start, ends, steps):
    """Classical fourth order reference for mu' = mu gamma c gamma^{-1} on
    straight legs from start, batched over the ends."""
    ends = np.asarray(ends, dtype=complex)
    k = gamma_rep.rows
    nodes = start + np.linspace(0.0, 1.0, 2 * steps + 1)[:, None] * (ends - start)[None, :]
    g = gamma_rep.evaluate(nodes)
    a = g @ c_rep.evaluate(nodes) @ np.linalg.inv(g)
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


def line_gamma_jet(z: complex) -> tuple[np.ndarray, ...]:
    """line_gamma with its d/dz, d/dzbar and d/dz d/dzbar in closed form."""
    r2 = abs(z) ** 2
    f = 1.0 + r2
    zb = np.conj(z)
    return (
        line_gamma(z),
        np.diag([zb, -zb / f**2]).astype(complex),
        np.diag([z, -z / f**2]).astype(complex),
        np.diag([1.0, (r2 - 1.0) / f**3]).astype(complex),
    )


def constant_jet(g) -> tuple[np.ndarray, ...]:
    g = np.asarray(g, dtype=complex)
    zero = np.zeros_like(g)
    return g, zero, zero, zero


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

    def test_c_data_at_an_array_of_points(self):
        # an array of points gives, bit for bit, the values at each point
        c_minus = PolyMatrix([[0, 0, 0], [[1, GaussianRational(0, 1)], 0, 0], [0, [Fraction(1, 3), 0, 2], 0]])
        p = TodaProblem(chain_spec(), c_minus)
        zs = np.array([[0.3 - 0.7j, 2.0], [-1.5j, 1 / 3 + 0.25j]])
        for at in (p.c_minus_at, p.c_plus_at):
            grid = at(zs)
            assert grid.shape == (2, 2, 3, 3)
            for idx in np.ndindex(zs.shape):
                assert grid[idx].tobytes() == at(zs[idx]).tobytes()

    def test_diagonal_entry_rejected(self):
        bad = PolyMatrix([[1, 0], [1, 0]])
        with pytest.raises(ValueError, match="degree"):
            TodaProblem(line_gradation(), bad)

    def test_wrong_degree_rejected(self):
        # entry in the raising block is degree +1, not -1
        bad = PolyMatrix([[0, 1], [0, 0]])
        with pytest.raises(ValueError, match="c_minus"):
            TodaProblem(line_gradation(), bad)

    def test_gap_band_must_be_trivial(self):
        # c_minus only in block (2, 0), of degree -2, over labels (1, 1):
        # degree 1 is inside the band the gap 2 requires to be trivial
        c_minus = PolyMatrix([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
        with pytest.raises(ValueError, match="trivial band") as info:
            TodaProblem(chain_spec(), c_minus)
        assert info.value.argument == "c_minus"

    def test_gap_two_with_label_two_accepted(self):
        spec = GradationSpec(BlockStructure((1, 1)), (2,))
        p = TodaProblem(spec, line_lowering())
        assert p.gap == 2

    def test_zero_data_has_no_gap(self):
        assert TodaProblem(chain_spec(), PolyMatrix.zeros(3, 3)).gap is None

    def test_gap_read_from_c_plus_when_c_minus_is_zero(self):
        spec = GradationSpec(BlockStructure((1, 1)), (2,))
        p = TodaProblem(
            gradation=spec,
            c_minus=PolyMatrix.zeros(2, 2),
            c_plus=PolyMatrix([[0, 1], [0, 0]]),
        )
        assert p.gap == 2

    def test_mixed_degree_rejected(self):
        # blocks (1, 0) and (2, 0) have degrees -1 and -2
        c_minus = PolyMatrix([[0, 0, 0], [1, 0, 0], [1, 0, 0]])
        with pytest.raises(ValueError, match="expected pure degree -1") as info:
            TodaProblem(chain_spec(), c_minus)
        assert info.value.argument == "c_minus"

    def test_mode_is_read_from_c_plus(self):
        # no c_plus: hermitian mode, with c_plus derived from c_minus; a
        # given c_plus, even that same matrix, keeps the problem general
        c = PolyMatrix([[0, 0, 0], [[1, GaussianRational(0, 1)], 0, 0], [0, [Fraction(1, 3), 0, 2], 0]])
        derived = c.conjugate_transpose().scale(-1)
        p = TodaProblem(chain_spec(), c)
        assert p.hermitian_mode and p.c_plus == derived
        general = TodaProblem(chain_spec(), c, derived)
        assert not general.hermitian_mode and general.c_plus == derived and general.h is None
        with pytest.raises(InvalidArgument, match="required outside hermitian mode") as info:
            solve(general, PolyMatrix.identity(3), [0.5])
        assert info.value.argument == "gamma_plus"

    def test_metric_size_checked(self):
        with pytest.raises(ValueError, match="metric"):
            TodaProblem(line_gradation(), line_lowering(), h=HermitianMetric.identity(3))

    def test_general_problem_takes_no_metric(self):
        # outside hermitian mode there is no frame for a metric to enter
        general = {"gradation": line_gradation(), "c_minus": line_lowering(), "c_plus": PolyMatrix([[0, -1], [0, 0]])}
        assert TodaProblem(**general).h is None
        assert line_problem().h.matrix.tolist() == np.eye(2).tolist()
        with pytest.raises(InvalidArgument, match="hermitian mode") as info:
            TodaProblem(**general, h=HermitianMetric.identity(2))
        assert info.value.argument == "h"


class TestIntegrateMu:
    """Transport of the two factors, read off solve's mu_minus and mu_plus."""

    def test_nilpotent_transport_is_exact(self):
        p = line_problem()
        z = 0.7 - 0.4j
        mu_m, mu_p = transport(p, PolyMatrix.identity(2), z)
        expected = np.array([[1, 0], [z, 1]], dtype=complex)
        assert np.linalg.norm(mu_m - expected) < 1e-12
        expected_plus = np.array([[1, -np.conj(z)], [0, 1]], dtype=complex)
        assert np.linalg.norm(mu_p - expected_plus) < 1e-12

    def test_three_level_transport_is_exponential(self):
        # c_minus = N with N^3 = 0: mu_minus = exp(zN) needs the depth two term
        nil = np.diag([1.0, 1.0], -1)
        p = TodaProblem(chain_spec(), chain_lowering())
        z = 0.8 - 0.6j
        mu_m, _ = transport(p, PolyMatrix.identity(3), z)
        assert np.linalg.norm(mu_m - (np.eye(3) + z * nil + z * z * nil @ nil / 2)) < 1e-14

    def test_plus_factor_runs_in_the_conjugate_variable(self):
        # c_plus = -N^T stored in w = zbar: mu_plus = exp(-zbar N^T)
        up = np.diag([1.0, 1.0], 1)
        p = TodaProblem(
            gradation=chain_spec(),
            c_minus=chain_lowering(),
            c_plus=PolyMatrix([[0, -1, 0], [0, 0, -1], [0, 0, 0]]),
        )
        z = 0.8 - 0.6j
        eye = PolyMatrix.identity(3)
        _, mu_p = transport(p, eye, z, gamma_plus=eye)
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
            c_minus=c_minus,
            c_plus=c_minus.conjugate_transpose().scale(-1),
        )
        ends = [0.7 + 0.7j, -0.7 + 0.2j, 0.3 - 0.7j, -0.5 - 0.5j]
        want_m = rk4_transport(gamma_minus, p.c_minus, 0.0, ends, 4000)
        want_p = rk4_transport(gamma_plus, p.c_plus, 0.0, np.conj(ends), 4000)
        sol = solve(p, gamma_minus, ends, gamma_plus=gamma_plus)
        for mu_m, mu_p, wm, wp in zip(sol.mu_minus, sol.mu_plus, want_m, want_p):
            assert np.abs(mu_m - wm).max() < 1e-11
            assert np.abs(mu_p - wp).max() < 1e-11

    def test_path_independence(self):
        # the bent path 0 -> w -> z: legs compose by right multiplication
        p = line_problem()
        seed = PolyMatrix([[[1, GaussianRational(1, 4)], 0], [0, 1]])  # diag(1 + (1 + 4i) z, 1)
        z, w = 0.5 - 0.2j, 0.4 + 0.3j
        straight, _ = transport(p, seed, z)
        bent = transport(p, seed, w)[0] @ transport(p, seed, z, basepoint=w)[0]
        assert np.linalg.norm(straight - bent) < 1e-8

    def test_basepoint_returns_identity(self):
        p = line_problem()
        mu_m, mu_p = transport(p, PolyMatrix.identity(2), 0.3, basepoint=0.3)
        assert np.linalg.norm(mu_m - np.eye(2)) < 1e-14
        assert np.linalg.norm(mu_p - np.eye(2)) < 1e-14

    def test_block_diagonal_seed_enforced(self):
        p = line_problem()
        seed = PolyMatrix([[1, 1], [0, 1]])
        with pytest.raises(ValueError, match="block diagonal"):
            solve(p, seed, [1.0])

    def test_gamma_plus_required_without_hermitian_mode(self):
        p = TodaProblem(
            gradation=line_gradation(),
            c_minus=line_lowering(),
            c_plus=PolyMatrix([[0, -1], [0, 0]]),
        )
        with pytest.raises(ValueError, match="gamma_plus"):
            solve(p, PolyMatrix.identity(2), [0.5])


    def test_gamma_plus_rejected_in_hermitian_mode(self):
        # hermitian mode derives the plus factor from the minus one
        with pytest.raises(InvalidArgument, match="hermitian") as exc:
            solve(line_problem(), PolyMatrix.identity(2), [0.5], gamma_plus=PolyMatrix.identity(2))
        assert exc.value.argument == "gamma_plus"


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
            s = p.blocks.slice(a)
            assert np.linalg.norm(sol.gamma[0][s, s] - data.betas[a][0]) < 1e-8

    def test_phi_relation_identity_metric(self):
        p = line_problem()
        sol = solve(p, PolyMatrix.identity(2), [0.2, 0.9j, -0.5 + 0.1j])
        assert worst_phi_relation(sol, p) < 1e-9

    def test_phi_relation_nontrivial_metric(self):
        h = HermitianMetric([[2, 0], [0, 1]])
        p = line_problem(h)
        grid = [0.4, -0.3 + 0.6j]
        sol = solve(p, PolyMatrix.identity(2), grid)
        assert worst_phi_relation(sol, p) < 1e-9
        # gamma is untouched by the metric; only phi absorbs it
        for z, gamma in zip(sol.grid, sol.gamma):
            assert np.linalg.norm(gamma - line_gamma(z)) < 1e-8

    def test_metric_moves_only_phi(self):
        # the Toda equations read gamma and the c data alone, so the metric
        # of the frame leaves every bit of gamma's jet as it is
        rng = np.random.default_rng(77)
        blocks = BlockStructure((1, 2, 1))
        spec = GradationSpec(blocks, (1, 1))
        seed = random_gamma_seed(rng, blocks)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        dense = HermitianMetric(m.conj().T @ m + np.eye(4))
        problems = [TodaProblem(spec, subdiagonal_lowering(blocks), h=h) for h in (None, dense)]
        plain, metric = (solve(p, seed, [0.3 + 0.2j, -0.5 + 0.1j, 0.6j]) for p in problems)
        assert len(plain.gamma_jet) == len(metric.gamma_jet) == 4
        assert all(np.array_equal(u, v) for u, v in zip(plain.gamma_jet, metric.gamma_jet))
        assert not np.allclose(plain.phi, metric.phi)
        assert worst_phi_relation(metric, problems[1]) < 1e-9

    def test_general_solution_has_no_phi(self):
        p = TodaProblem(gradation=line_gradation(), c_minus=line_lowering(), c_plus=PolyMatrix([[0, -1], [0, 0]]))
        sol = solve(p, PolyMatrix.identity(2), [0.5, 0.2 - 0.6j], gamma_plus=PolyMatrix.identity(2))
        assert sol.phi is None
        with pytest.raises(InvalidArgument, match="hermitian mode") as info:
            phi_relation(p, np.eye(2), sol.gamma[0])
        assert info.value.argument == "problem"

    def test_trivial_data_gives_constants(self):
        p = TodaProblem(line_gradation(), PolyMatrix.zeros(2, 2))
        sol = solve(p, PolyMatrix.identity(2), [0.0, 0.7 - 0.1j])
        for gamma, phi in zip(sol.gamma, sol.phi):
            assert np.linalg.norm(gamma - np.eye(2)) < 1e-12
            assert np.linalg.norm(phi - np.eye(2)) < 1e-12

    def test_non_hermitian_branch_matches_hermitian(self):
        hp = line_problem()
        nh = TodaProblem(
            gradation=line_gradation(),
            c_minus=line_lowering(),
            c_plus=PolyMatrix([[0, -1], [0, 0]]),
        )
        grid = [0.5, 0.2 - 0.6j]
        sol_h = solve(hp, PolyMatrix.identity(2), grid)
        sol_n = solve(nh, PolyMatrix.identity(2), grid, gamma_plus=PolyMatrix.identity(2))
        for a, b in zip(sol_h.gamma, sol_n.gamma):
            assert np.linalg.norm(a - b) < 1e-9

    def test_failure_isolation(self):
        p = line_problem()
        seed = PolyMatrix([[[1, -2], 0], [0, 1]])  # singular at z = 1/2
        sol = solve(p, seed, [0.25, 1.0])
        assert sol.failures[0] is None
        assert sol.failures[1] is not None and "integration" in sol.failures[1]
        assert np.isfinite(sol.gamma[0]).all() and np.isnan(sol.gamma[1]).all()
        assert np.isnan(sol.phi[1]).all() and np.isnan(sol.mu_minus[1]).all()
        assert sol.ok_indices == (0,)
        assert sol.failure_fraction == pytest.approx(0.5)

    def test_one_transport_batch_per_factor(self, monkeypatch):
        # a path through the pole of gamma_minus fails its point only, and
        # batching changes no other point
        p = TodaProblem(
            gradation=line_gradation(),
            c_minus=line_lowering(),
            c_plus=PolyMatrix([[0, -1], [0, 0]]),
        )
        seed = PolyMatrix([[[1, -2], 0], [0, 1]])  # singular at z = 1/2
        plus = PolyMatrix([[[1, GaussianRational(1, 4)], 0], [0, 1]])
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


class TestJets:
    """solve's exact jets of the quotient Q, its block diagonal Gauss factor
    eta, and gamma agree with finite differences of the solved fields."""

    @pytest.mark.parametrize("hermitian", [True, False], ids=["hermitian", "general"])
    def test_match_finite_differences(self, hermitian):
        rng = np.random.default_rng(77)
        blocks = BlockStructure((1, 2, 1))
        c_minus = subdiagonal_lowering(blocks)
        gamma_minus = random_gamma_seed(rng, blocks)
        gamma_plus = None if hermitian else random_gamma_seed(rng, blocks)
        p = TodaProblem(
            gradation=GradationSpec(blocks, (1, 1)),
            c_minus=c_minus,
            c_plus=None if hermitian else c_minus.conjugate_transpose().scale(-1),
        )
        solved = memoized(lambda w: solve(p, gamma_minus, [w], gamma_plus=gamma_plus))

        def quotient(w):
            sol = solved(w)
            mu_m, mu_p = sol.mu_minus[0], sol.mu_plus[0]
            return mu_m.conj().T @ mu_m if hermitian else np.linalg.inv(mu_p) @ mu_m

        fields = {
            "q": quotient,
            "eta": lambda w: gauss_decompose(quotient(w), blocks).eta,
            "gamma": lambda w: solved(w).gamma[0],
        }

        def close(jet, fd, tol):
            return np.linalg.norm(jet - fd) <= tol * max(1.0, np.linalg.norm(fd))

        for z in (0.3 + 0.2j, -0.5 + 0.1j, 0.6j):
            gm = gamma_minus.evaluate(z)
            a_minus = gm @ p.c_minus_at(z) @ np.linalg.inv(gm)
            if hermitian:
                a_plus = -a_minus.conj().T
            else:
                gp = gamma_plus.evaluate(np.conj(z))
                a_plus = gp @ p.c_plus_at(z) @ np.linalg.inv(gp)
            q = toda._quotient_jet(quotient(z), a_minus, a_plus)
            jets = {"q": q, "eta": toda._eta_jet(q, blocks), "gamma": [x[0] for x in solved(z).gamma_jet]}
            for name, f in fields.items():
                jet = jets[name]
                assert close(jet[0], f(z), 1e-12), name
                assert close(jet[1], d_minus(f, z, 1e-4), 1e-6), name
                assert close(jet[2], d_plus(f, z, 1e-4), 1e-6), name
                mixed = d_plus(lambda u: d_minus(f, u, 1e-3), z, 1e-3)
                assert close(jet[3], mixed, 1e-4), name

    @pytest.mark.parametrize("hermitian", [True, False], ids=["hermitian", "general"])
    def test_seed_derivatives_match_closed_form(self, hermitian):
        # CP^1 with gamma_minus = diag(f, 1), f = 1 + z/4: mu_minus = I + L E21
        # with L = 4 log(1 + z/4), and Q has Schur factor u = 1 + L M.  In
        # hermitian mode M = conj(L) and gamma = diag(|f|^2 u, 1/u); the
        # general mode takes gamma_plus = diag(1 + w/4, 1) in w = zbar, so
        # mu_plus = I - conj(K) E12 with K = z + z^2/8, M = conj(K) and
        # gamma = diag(f u / conj(f), 1/u).  Every derivative of the seeds
        # enters these jets, which the residual checks cannot see: gamma
        # times a holomorphic factor on the right has the same residuals.
        seed = PolyMatrix([[[1, Fraction(1, 4)], 0], [0, 1]])
        p = TodaProblem(
            gradation=line_gradation(),
            c_minus=line_lowering(),
            c_plus=None if hermitian else PolyMatrix([[0, -1], [0, 0]]),
        )

        def mul(x, y):  # product rule on jets (value, d, dbar, d dbar)
            return (
                x[0] * y[0],
                x[1] * y[0] + x[0] * y[1],
                x[2] * y[0] + x[0] * y[2],
                x[3] * y[0] + x[1] * y[2] + x[2] * y[1] + x[0] * y[3],
            )

        grid = [0.3 + 0.2j, -0.5 + 0.1j, 0.6j]
        sol = solve(p, seed, grid, gamma_plus=None if hermitian else seed)
        for z, *jet in zip(grid, *sol.gamma_jet):
            zb = np.conj(z)
            f, log = 1 + z / 4, 4 * np.log(1 + z / 4)
            hol = (log, 1 / f, 0, 0)  # L, holomorphic
            if hermitian:
                anti = (np.conj(log), 0, 1 / np.conj(f), 0)  # conj(L)
                scale = (abs(f) ** 2, np.conj(f) / 4, f / 4, 1 / 16)  # f conj(f)
            else:
                anti = (zb + zb**2 / 8, 0, np.conj(f), 0)  # conj(K)
                scale = (f / np.conj(f), 1 / (4 * np.conj(f)), -f / (4 * np.conj(f) ** 2),
                         -1 / (16 * np.conj(f) ** 2))  # f / conj(f)
            u = mul(hol, anti)
            u = (1 + u[0], *u[1:])
            inv_u = (1 / u[0], -u[1] / u[0] ** 2, -u[2] / u[0] ** 2,
                     2 * u[1] * u[2] / u[0] ** 3 - u[3] / u[0] ** 2)
            for part, top, bottom in zip(jet, mul(scale, u), inv_u):
                want = np.diag([top, bottom])
                assert np.linalg.norm(part - want) <= 1e-13 * max(1.0, np.linalg.norm(want))


class TestResiduals:
    def test_closed_form_field_satisfies_equations(self):
        p = line_problem()
        for z in (0.0, 0.4 - 0.3j, 1.1 + 0.2j):
            jet = line_gamma_jet(z)
            assert max(toda_residual(p, jet, z)) < 1e-15
            assert zero_curvature_check(p, jet, z) < 1e-15

    def test_constant_field_fails_with_frozen_defect(self):
        # gamma = I is not a solution: the derivative side vanishes and the
        # commutator side is diag(1, -1), so the block norms are (1, 1) and
        # the curvature norm is sqrt(2); no term exceeds 1, so no scaling.
        p = line_problem()
        jet = constant_jet(np.eye(2))
        assert toda_residual(p, jet, 0.3 + 0.1j) == pytest.approx((1.0, 1.0), abs=1e-15)
        assert zero_curvature_check(p, jet, 0.3 + 0.1j) == pytest.approx(np.sqrt(2.0), abs=1e-15)

    def test_each_block_is_scaled_by_its_largest_term(self):
        # gamma = I with d dbar gamma = diag(s, 0): block 0 reads s against
        # the commutator's 1, block 1 reads 0 against -1
        p = line_problem()
        s = 1e6
        jet = constant_jet(np.eye(2))[:3] + (np.diag([s, 0.0]).astype(complex),)
        assert toda_residual(p, jet, 0.2) == pytest.approx(((s - 1.0) / s, 1.0), abs=1e-15)

    def test_residual_and_curvature_agree(self):
        # both checks measure the same matrix defect; with every term below
        # 1 neither is scaled, so on a block diagonal failure the curvature
        # norm is the euclidean norm of the block norms
        p = line_problem()
        z = 0.5 + 0.5j
        r2 = abs(z) ** 2
        jet = (
            np.diag([1.0 + r2, 1.0]).astype(complex),
            np.diag([np.conj(z), 0.0]).astype(complex),
            np.diag([z, 0.0]).astype(complex),
            np.diag([1.0, 0.0]).astype(complex),
        )
        res = toda_residual(p, jet, z)
        zc = zero_curvature_check(p, jet, z)
        assert min(res) > 0.1
        assert zc == pytest.approx(np.sqrt(sum(r * r for r in res)), abs=1e-15)

    def test_solver_output_satisfies_equations(self):
        p = line_problem()
        seed = PolyMatrix([[[1, GaussianRational(1, 4)], 0], [0, 1]])
        z = 0.3 - 0.2j
        sol = solve(p, seed, [z])
        assert sol.failures == (None,)
        jet = tuple(x[0] for x in sol.gamma_jet)
        assert max(toda_residual(p, jet, z)) < 1e-14
        assert zero_curvature_check(p, jet, z) < 1e-14

    def test_singular_field_guarded(self):
        p = line_problem()
        jet = constant_jet(np.diag([1.0, 0.0]))
        with pytest.raises(SingularBeta):
            toda_residual(p, jet, 0.1)
        with pytest.raises(SingularBeta):
            zero_curvature_check(p, jet, 0.1)


class TestStackedChecks:
    """The checks on a stack of points give each point the bits it gets
    alone; a point whose gamma fails the guard reads NaN there."""

    def test_checks_per_point(self):
        rng = np.random.default_rng(11)
        blocks = BlockStructure((2, 2))
        p = TodaProblem(GradationSpec(blocks, (1,)), subdiagonal_lowering(blocks))
        z = np.array([0.1 + 0.2j, -0.3j, 0.25, 0.4 - 0.1j])
        sol = solve(p, random_gamma_seed(rng, blocks), z)
        assert sol.failures == (None,) * 4
        stacked = tuple(x.copy() for x in sol.gamma_jet)
        stacked[3][:] *= 1.5  # off the solution, so every defect is far from zero
        for x in stacked:
            x[2] = 0.0
        stacked[0][2] = np.diag([1.0, 0.0, 1.0, 1.0])
        res = toda_residual(p, stacked, z)
        curvature = zero_curvature_check(p, stacked, z)
        phi = phi_relation(p, sol.phi, stacked[0])
        assert np.isnan([r[2] for r in res]).all() and np.isnan(curvature[2])
        jets = [tuple(x[i] for x in stacked) for i in range(len(z))]
        for i in (0, 1, 3):
            alone = toda_residual(p, jets[i], z[i])
            assert min(alone) > 1e-3
            assert np.array_equal([r[i] for r in res], alone)
            assert curvature[i] == zero_curvature_check(p, jets[i], z[i])
            assert phi[i] == phi_relation(p, sol.phi[i], jets[i][0]) > 0
        with pytest.raises(SingularBeta, match="gamma block 0"):
            toda_residual(p, jets[2], z[2])

    @pytest.mark.parametrize("side", ["frenet", "toda"])
    def test_stacked_gamma_jet_reads_as_it_is(self, side):
        # frame_at and solve return gamma's jet in the one format the checks
        # read: stacked, it goes in unchanged and each point gets the bits
        # of its own call
        z = np.array([0.3 + 0.2j, -0.4 + 0.1j, 0.5j])
        if side == "frenet":
            seq = build_osculating(PolyMatrix([[1], [[0, 1]], [[0, 0, 1]]]))
            h = HermitianMetric.identity(3)
            spec = GradationSpec(seq.partition, (1,) * seq.t)
            p = TodaProblem(spec, seq.c_minus_matrix())

            def gamma_jet(w):
                return frame_at(seq, h, w).gamma_jet
        else:
            blocks = BlockStructure((1, 2, 1))
            p = TodaProblem(GradationSpec(blocks, (1, 1)), subdiagonal_lowering(blocks))
            seed = random_gamma_seed(np.random.default_rng(5), blocks)

            def gamma_jet(w):
                return solve(p, seed, np.atleast_1d(w)).gamma_jet

        stacked = gamma_jet(z)
        k = p.blocks.n
        assert len(stacked) == 4 and all(x.shape == (3, k, k) for x in stacked)
        res, curvature = toda_residual(p, stacked, z), zero_curvature_check(p, stacked, z)
        for i, w in enumerate(z):
            alone = gamma_jet(w)
            if side == "toda":  # solve takes a grid: its one point
                alone = tuple(x[0] for x in alone)
            assert np.array_equal([r[i] for r in res], toda_residual(p, alone, w))
            assert curvature[i] == zero_curvature_check(p, alone, w)
        assert max(np.max(r) for r in res) < 1e-12 and np.max(curvature) < 1e-12


class TestFrenetTodaBridge:
    def test_conic_frame_solves_three_block_system(self):
        # squared norms of the Frenet frame of (1, z, z^2) solve the Toda
        # system whose c_minus collects the osculating coefficients
        xi = PolyMatrix([[1], [[0, 1]], [[0, 0, 1]]])
        seq = build_osculating(xi)
        h = HermitianMetric.identity(3)
        spec = GradationSpec(seq.partition, (1,) * seq.t)
        p = TodaProblem(spec, seq.c_minus_matrix(), h=h)

        for z in (0.4 + 0.1j, -0.2 + 0.5j):
            jet = frame_at(seq, h, z).gamma_jet
            assert max(toda_residual(p, jet, z)) < 1e-12
            assert zero_curvature_check(p, jet, z) < 1e-12
