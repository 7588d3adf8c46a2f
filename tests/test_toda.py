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

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from test_acceptance import random_gamma_seed, subdiagonal_lowering

from todaframes import toda
from todaframes.errors import InvalidArgument, SingularBeta
from todaframes.frenet import build_osculating, frame_at
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


def line_blocks() -> BlockStructure:
    return BlockStructure((1, 1))


def line_lowering() -> PolyMatrix:
    return PolyMatrix([[0, 0], [1, 0]])


def line_problem() -> TodaProblem:
    return TodaProblem(line_blocks(), line_lowering())


def line_general_problem() -> TodaProblem:
    """The line problem outside hermitian mode, with the c_plus that
    hermitian mode would derive."""
    return TodaProblem(line_blocks(), line_lowering(), PolyMatrix([[0, -1], [0, 0]]))


def chain_blocks() -> BlockStructure:
    return BlockStructure((1, 1, 1))


def chain_lowering() -> PolyMatrix:
    return PolyMatrix([[0, 0, 0], [1, 0, 0], [0, 1, 0]])


def transport(p, seed, z, basepoint=0.0, gamma_plus=None):
    """Both transport factors at z from the basepoint, read off a one-point
    solve; the plus factor is None in hermitian mode, which derives it."""
    sol = solve(p, seed, [z], basepoint=basepoint, gamma_plus=gamma_plus)
    return sol.mu_minus[0], None if sol.mu_plus is None else sol.mu_plus[0]


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


def full_det_inverse(g, blocks):
    """The singular rule of a full n by n determinant and inverse at every
    node, the reference for toda._seed_inverse's block by block rule."""
    with np.errstate(over="ignore", invalid="ignore"):  # as the block rule reads an overflow
        det = np.linalg.det(g)
    singular = ~np.isfinite(det) | (det == 0)
    g[singular] = np.eye(blocks.n)
    inv = np.linalg.inv(g)
    return [inv[..., s, s] for s in map(blocks.slice, range(blocks.count))], singular


def rng77_problem(hermitian: bool):
    """The rng-77 (1, 2, 1) problem of the benchmark with its two seeds."""
    rng = np.random.default_rng(77)
    blocks = BlockStructure((1, 2, 1))
    c_minus = subdiagonal_lowering(blocks)
    gamma_minus, gamma_plus = random_gamma_seed(rng, blocks), random_gamma_seed(rng, blocks)
    c_plus = None if hermitian else c_minus.conjugate_transpose().scale(-1)
    return TodaProblem(blocks, c_minus, c_plus), gamma_minus, gamma_plus


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
        assert p.minus_pattern == ((1, 0),) and p.plus_pattern == ((0, 1),)
        np.testing.assert_allclose(p.c_plus_at(2.0), [[0, -1], [0, 0]])
        np.testing.assert_allclose(p.c_minus_at(2.0), [[0, 0], [1, 0]])

    def test_c_data_at_an_array_of_points(self):
        # an array of points gives, bit for bit, the values at each point
        c_minus = PolyMatrix([[0, 0, 0], [[1, GaussianRational(0, 1)], 0, 0], [0, [Fraction(1, 3), 0, 2], 0]])
        p = TodaProblem(chain_blocks(), c_minus)
        zs = np.array([[0.3 - 0.7j, 2.0], [-1.5j, 1 / 3 + 0.25j]])
        for at in (p.c_minus_at, p.c_plus_at):
            grid = at(zs)
            assert grid.shape == (2, 2, 3, 3)
            for idx in np.ndindex(zs.shape):
                assert grid[idx].tobytes() == at(zs[idx]).tobytes()

    def test_diagonal_entry_rejected(self):
        bad = PolyMatrix([[1, 0], [1, 0]])
        with pytest.raises(ValueError, match="degree"):
            TodaProblem(line_blocks(), bad)

    def test_wrong_degree_rejected(self):
        # entry in the raising block is degree +1, not -1
        bad = PolyMatrix([[0, 1], [0, 0]])
        with pytest.raises(ValueError, match="c_minus"):
            TodaProblem(line_blocks(), bad)

    def test_c_minus_off_the_subdiagonal_rejected(self):
        # block (2, 0) has degree -2 in the gradation of the blocks; no
        # label can move it to -1
        c_minus = PolyMatrix([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
        with pytest.raises(InvalidArgument, match=r"block \(2, 0\) of degree -2") as info:
            TodaProblem(chain_blocks(), c_minus)
        assert info.value.argument == "c_minus"

    def test_c_plus_off_the_superdiagonal_rejected(self):
        # general mode checks the given c_plus on its own, also where
        # c_minus is zero: block (0, 1) is accepted, (0, 2) and (1, 0) not
        zero = PolyMatrix.zeros(3, 3)
        p = TodaProblem(chain_blocks(), zero, PolyMatrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))
        assert p.minus_pattern == () and p.plus_pattern == ((0, 1),)
        bad = {r"\(0, 2\)": [[0, 0, 1], [0, 0, 0], [0, 0, 0]], r"\(1, 0\)": [[0, 0, 0], [1, 0, 0], [0, 0, 0]]}
        for block, c_plus in bad.items():
            with pytest.raises(InvalidArgument, match=f"block {block}") as info:
                TodaProblem(chain_blocks(), zero, PolyMatrix(c_plus))
            assert info.value.argument == "c_plus"

    def test_mixed_degree_rejected(self):
        # blocks (1, 0) and (2, 0) have degrees -1 and -2
        c_minus = PolyMatrix([[0, 0, 0], [1, 0, 0], [1, 0, 0]])
        with pytest.raises(ValueError, match="expected pure degree -1") as info:
            TodaProblem(chain_blocks(), c_minus)
        assert info.value.argument == "c_minus"

    def test_mode_is_read_from_c_plus(self):
        # no c_plus: hermitian mode, with c_plus derived from c_minus; a
        # given c_plus, even that same matrix, keeps the problem general
        c = PolyMatrix([[0, 0, 0], [[1, GaussianRational(0, 1)], 0, 0], [0, [Fraction(1, 3), 0, 2], 0]])
        derived = c.conjugate_transpose().scale(-1)
        p = TodaProblem(chain_blocks(), c)
        assert p.hermitian_mode and p.c_plus == derived
        general = TodaProblem(chain_blocks(), c, derived)
        assert not general.hermitian_mode and general.c_plus == derived
        with pytest.raises(InvalidArgument, match="required outside hermitian mode") as info:
            solve(general, PolyMatrix.identity(3), [0.5])
        assert info.value.argument == "gamma_plus"


class TestIntegrateMu:
    """Transport of the two factors, read off solve's mu_minus and mu_plus."""

    def test_nilpotent_transport_is_exact(self):
        # hermitian mode transports mu_minus alone; general mode, on the
        # c_plus hermitian mode would derive, transports mu_plus as well
        z = 0.7 - 0.4j
        eye = PolyMatrix.identity(2)
        expected = np.array([[1, 0], [z, 1]], dtype=complex)
        expected_plus = np.array([[1, -np.conj(z)], [0, 1]], dtype=complex)
        mu_m, mu_p = transport(line_problem(), eye, z)
        assert np.linalg.norm(mu_m - expected) < 1e-12 and mu_p is None
        mu_m, mu_p = transport(line_general_problem(), eye, z, gamma_plus=eye)
        assert np.linalg.norm(mu_m - expected) < 1e-12
        assert np.linalg.norm(mu_p - expected_plus) < 1e-12

    def test_three_level_transport_is_exponential(self):
        # c_minus = N with N^3 = 0: mu_minus = exp(zN) needs the depth two term
        nil = np.diag([1.0, 1.0], -1)
        p = TodaProblem(chain_blocks(), chain_lowering())
        z = 0.8 - 0.6j
        mu_m, _ = transport(p, PolyMatrix.identity(3), z)
        assert np.linalg.norm(mu_m - (np.eye(3) + z * nil + z * z * nil @ nil / 2)) < 1e-14

    def test_plus_factor_runs_in_the_conjugate_variable(self):
        # c_plus = -N^T stored in w = zbar: mu_plus = exp(-zbar N^T)
        up = np.diag([1.0, 1.0], 1)
        p = TodaProblem(
            blocks=chain_blocks(),
            c_minus=chain_lowering(),
            c_plus=PolyMatrix([[0, -1, 0], [0, 0, -1], [0, 0, 0]]),
        )
        z = 0.8 - 0.6j
        eye = PolyMatrix.identity(3)
        _, mu_p = transport(p, eye, z, gamma_plus=eye)
        w = np.conj(z)
        assert np.linalg.norm(mu_p - (np.eye(3) - w * up + w * w * up @ up / 2)) < 1e-14

    @pytest.mark.parametrize("sizes", [(2, 2), (1, 2, 1), (1, 3), (3, 1)])
    def test_random_seeds_match_rk4(self, sizes):
        # the rng-77 seeds of the acceptance test and the benchmark; each
        # problem also transports a second seed as gamma_plus.  A 3 by 3
        # block is inverted by np.linalg.inv, not in closed form: c_plus
        # reaches it from the right in (1, 3), and c_minus in (3, 1)
        rng = np.random.default_rng(77)
        blocks = BlockStructure(sizes)
        c_minus = subdiagonal_lowering(blocks)
        gamma_minus = random_gamma_seed(rng, blocks)
        gamma_plus = random_gamma_seed(rng, blocks)
        p = TodaProblem(
            blocks=blocks,
            c_minus=c_minus,
            c_plus=c_minus.conjugate_transpose().scale(-1),
        )
        ends = [0.7 + 0.7j, -0.7 + 0.2j, 0.3 - 0.7j, -0.5 - 0.5j]
        want_m = rk4_transport(gamma_minus, p.c_minus, 0.0, ends, 4000)
        want_p = rk4_transport(gamma_plus, p.c_plus, 0.0, np.conj(ends), 4000)
        sol = solve(p, gamma_minus, ends, gamma_plus=gamma_plus)
        for mu_m, mu_p, wm, wp in zip(sol.mu_minus, sol.mu_plus, want_m, want_p):
            assert np.abs(mu_m - wm).max() < 1e-12
            assert np.abs(mu_p - wp).max() < 1e-12

    @pytest.mark.parametrize("hermitian", [True, False], ids=["hermitian", "general"])
    def test_transport_kernel_matches_rk4(self, hermitian):
        # the batched kernel on every factor solve transports in the mode:
        # mu_minus, and outside hermitian mode mu_plus in the conjugate variable
        p, gamma_minus, gamma_plus = rng77_problem(hermitian)
        ends = np.array([0.7 + 0.7j, -0.7 + 0.2j, 0.3 - 0.7j, -0.5 - 0.5j, 0.9])
        factors = [(gamma_minus, p.c_minus, p.minus_pattern, ends)]
        if not hermitian:
            factors.append((gamma_plus, p.c_plus, p.plus_pattern, ends.conj()))
        for seed, c, pattern, at in factors:
            mu, failed = toda._transport_many(seed, c, pattern, p.blocks, 0.0, at)[:2]
            assert not failed.any()
            assert np.abs(mu - rk4_transport(seed, c, 0.0, at, 4000)).max() < 1e-12

    def test_path_independence(self):
        # the bent path 0 -> w -> z: legs compose by right multiplication
        p = line_problem()
        seed = PolyMatrix([[[1, GaussianRational(1, 4)], 0], [0, 1]])  # diag(1 + (1 + 4i) z, 1)
        z, w = 0.5 - 0.2j, 0.4 + 0.3j
        straight, _ = transport(p, seed, z)
        bent = transport(p, seed, w)[0] @ transport(p, seed, z, basepoint=w)[0]
        assert np.linalg.norm(straight - bent) < 1e-8

    def test_basepoint_returns_identity(self):
        eye = PolyMatrix.identity(2)
        mu_m, mu_p = transport(line_general_problem(), eye, 0.3, basepoint=0.3, gamma_plus=eye)
        assert np.linalg.norm(mu_m - np.eye(2)) < 1e-14
        assert np.linalg.norm(mu_p - np.eye(2)) < 1e-14

    def test_block_diagonal_seed_enforced(self):
        p = line_problem()
        seed = PolyMatrix([[1, 1], [0, 1]])
        with pytest.raises(ValueError, match="block diagonal"):
            solve(p, seed, [1.0])

    def test_gamma_plus_required_without_hermitian_mode(self):
        p = line_general_problem()
        with pytest.raises(ValueError, match="gamma_plus"):
            solve(p, PolyMatrix.identity(2), [0.5])


    def test_gamma_plus_rejected_in_hermitian_mode(self):
        # hermitian mode derives the plus factor from the minus one
        with pytest.raises(InvalidArgument, match="hermitian") as exc:
            solve(line_problem(), PolyMatrix.identity(2), [0.5], gamma_plus=PolyMatrix.identity(2))
        assert exc.value.argument == "gamma_plus"


class TestSingularSeed:
    """The seed is inverted one diagonal block at a time, and a node or an
    endpoint fails where a block is singular: the same points, with the same
    statuses, as a full determinant at every node gives."""

    @staticmethod
    def seed(kind: str, root) -> PolyMatrix:
        # (1, 2, 1) block diagonal seeds, each singular at z = root alone
        z = [-root, 1]  # the polynomial z - root
        blocks = {
            "one-by-one": [[z, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            "two-by-two": [[1, 0, 0, 0], [0, 1, [0, 1], 0], [0, 1, root, 0], [0, 0, 0, 1]],
            "endpoint": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, z]],
        }
        return PolyMatrix(blocks[kind])

    @pytest.mark.parametrize("kind", ["one-by-one", "two-by-two", "endpoint"])
    def test_block_rule_fails_what_the_full_determinant_fails(self, kind, monkeypatch):
        p, _, _ = rng77_problem(hermitian=True)
        if kind == "endpoint":
            # the grid point 1/2, which no quadrature node reaches
            root, grid, lost = Fraction(1, 2), [0.5, -0.5, 0.5j, 0.3 + 0.3j], [0]
        else:
            # a Gauss-Legendre node of the one piece of the leg 0 -> 1, hit exactly
            root = Fraction(float(toda._rule()[0][toda.NODES // 3]))
            grid, lost = [1.0, 0.5j, -0.4 + 0.3j, -0.6], [0]
        seed = self.seed(kind, root)

        def node_hit():  # whether a node of the one piece 0 -> 1 is singular
            return toda._panels(seed, p.c_minus, p.minus_pattern, p.blocks, np.array([0j]), np.array([1 + 0j]))[2][0]

        blockwise, hit = solve(p, seed, grid), node_hit()
        assert [i for i, f in enumerate(blockwise.failures) if f] == lost
        assert all(blockwise.failures[i].startswith("integration: transport diverged") for i in lost)
        assert hit == (kind != "endpoint")
        monkeypatch.setattr(toda, "_seed_inverse", full_det_inverse)
        full = solve(p, seed, grid)
        assert full.failures == blockwise.failures and node_hit() == hit
        for x, y in zip(full.gamma_jet, blockwise.gamma_jet):
            np.testing.assert_allclose(x, y, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("scale", [1e-170, 1e155])
    def test_a_seed_scaled_beyond_the_determinant_range_transports_as_it_is(self, scale):
        # every block scaled by s leaves A = gamma c gamma^-1 as it is, while
        # ad - bc of the 2 by 2 block is s^2 (...): it underflows to 0 at
        # 1e-170 and overflows at 1e155, but each block is first scaled to
        # its own size.  Both seeds scaled leave gamma as it is too
        p, gamma_minus, gamma_plus = rng77_problem(hermitian=False)
        grid = [0.5, -0.5j, 0.3 + 0.3j]
        s = Fraction(scale)
        scaled = solve(p, gamma_minus.scale(s), grid, gamma_plus=gamma_plus.scale(s))
        plain = solve(p, gamma_minus, grid, gamma_plus=gamma_plus)
        assert scaled.failures == plain.failures == (None,) * 3
        assert np.abs(scaled.mu_minus - plain.mu_minus).max() < 1e-13
        assert np.abs(scaled.mu_plus - plain.mu_plus).max() < 1e-13
        for x, y in zip(scaled.gamma_jet, plain.gamma_jet):
            np.testing.assert_allclose(x, y, rtol=1e-13, atol=1e-13)

    def test_a_scaled_seed_in_range_transports_as_it_is(self):
        # at 1e-150 ad - bc is 1e-300 and every block inverts: the same
        # factors as the unscaled seed, to rounding
        p, gamma_minus, _ = rng77_problem(hermitian=True)
        grid = [0.5, -0.5j, 0.3 + 0.3j]
        scaled = solve(p, gamma_minus.scale(Fraction(1e-150)), grid)
        assert scaled.failures == (None,) * 3
        assert np.abs(scaled.mu_minus - solve(p, gamma_minus, grid).mu_minus).max() < 1e-13


PATTERN_SIZES = {"count-4": (1, 1, 1, 1), "dense-blocks": (2, 1, 2), "broken-chain": (1, 1, 1, 1), "zero": (1, 2, 1)}
PATTERN_BLOCKS = {"dense-blocks": [(1, 0), (2, 1)], "broken-chain": [(1, 0), (3, 2)]}


def pattern_problem(kind: str):
    """A general problem with two rng-77 seeds whose c data has a block
    pattern the benchmark's (1, 2, 1) data lacks:

    count-4: (1, 1, 1, 1) with the lowering c_minus, three Picard terms;
    dense-blocks: (2, 1, 2), every entry of c_minus's blocks (1, 0) and
        (2, 1) a nonzero polynomial;
    broken-chain: (1, 1, 1, 1) with c_minus on blocks (1, 0) and (3, 2)
        only, so no block of A meets a block of the first term and the
        second term has no block;
    zero: (1, 2, 1) with both c zero, the empty pattern.
    """
    rng = np.random.default_rng(77)
    blocks = BlockStructure(PATTERN_SIZES[kind])
    if kind == "count-4":
        c_minus = subdiagonal_lowering(blocks)
    else:
        entries = [[Poly() for _ in range(blocks.n)] for _ in range(blocks.n)]
        for a, b in PATTERN_BLOCKS.get(kind, ()):
            for i in range(blocks.n)[blocks.slice(a)]:
                for j in range(blocks.n)[blocks.slice(b)]:
                    re, im = (Fraction(int(rng.integers(-4, 5)), 8) for _ in range(2))
                    entries[i][j] = Poly.of(GaussianRational(1, im), re)  # 1 + i im + re z
        c_minus = PolyMatrix(entries)
    p = TodaProblem(blocks, c_minus, c_minus.conjugate_transpose().scale(-1))
    return p, random_gamma_seed(rng, blocks), random_gamma_seed(rng, blocks)


class TestBlockPatterns:
    """Transport on block patterns other than the benchmark's: the sweep
    keeps A and every Picard term on their blocks, so each factor must
    still match RK4 on the full matrices, and a point must get the same
    bits in a stack as alone."""

    KINDS = list(PATTERN_SIZES)
    ENDS = np.array([0.7 + 0.7j, -0.7 + 0.2j, 0.3 - 0.7j, 2.2 - 1.1j, 0.9])

    def test_the_patterns(self):
        assert pattern_problem("count-4")[0].minus_pattern == ((1, 0), (2, 1), (3, 2))
        assert pattern_problem("dense-blocks")[0].plus_pattern == ((0, 1), (1, 2))
        assert pattern_problem("broken-chain")[0].plus_pattern == ((0, 1), (2, 3))
        zero = pattern_problem("zero")[0]
        assert zero.minus_pattern == zero.plus_pattern == ()

    @pytest.mark.parametrize("kind", KINDS)
    def test_transport_matches_rk4(self, kind):
        p, gamma_minus, gamma_plus = pattern_problem(kind)
        for seed, c, pattern, at in (
            (gamma_minus, p.c_minus, p.minus_pattern, self.ENDS),
            (gamma_plus, p.c_plus, p.plus_pattern, self.ENDS.conj()),
        ):
            mu, failed = toda._transport_many(seed, c, pattern, p.blocks, 0.0, at)[:2]
            assert not failed.any()
            assert np.abs(mu - rk4_transport(seed, c, 0.0, at, 4000)).max() < 1e-12
            if kind == "zero":
                assert np.array_equal(mu, np.broadcast_to(np.eye(p.blocks.n), mu.shape))

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_stacked_transport_gives_each_point_its_bits(self, kind):
        p, gamma_minus, gamma_plus = pattern_problem(kind)
        for seed, c, pattern, at in (
            (gamma_minus, p.c_minus, p.minus_pattern, self.ENDS),
            (gamma_plus, p.c_plus, p.plus_pattern, self.ENDS.conj()),
        ):
            mu, failed = toda._transport_many(seed, c, pattern, p.blocks, 0.1, at)[:2]
            assert not failed.any()
            for i, end in enumerate(at):
                alone, lost = toda._transport_many(seed, c, pattern, p.blocks, 0.1, [end])[:2]
                assert not lost[0]
                assert np.array_equal(alone[0], mu[i])


class TestTransportDefect:
    """The bent-path check mu(b -> z) = mu(b -> m) mu(m -> z)."""

    @pytest.mark.parametrize("hermitian", [True, False], ids=["hermitian", "general"])
    def test_exact_transport_composes(self, hermitian):
        p, gamma_minus, gamma_plus = rng77_problem(hermitian)
        grid = [0.7 + 0.7j, -0.7 + 0.2j, 0.3 - 0.7j, 0.0]
        plus = None if hermitian else gamma_plus
        sol = solve(p, gamma_minus, grid, gamma_plus=plus)
        defect, failures = toda.transport_defect(sol, 0.5j)
        assert failures == (None,) * 4
        assert defect.shape == (4,) and (defect < 1e-14).all()

    @pytest.mark.parametrize("hermitian", [True, False], ids=["hermitian", "general"])
    def test_the_check_reads_the_solved_basepoint_and_seeds(self, hermitian):
        p, gamma_minus, gamma_plus = rng77_problem(hermitian)
        plus = None if hermitian else gamma_plus
        sol = solve(p, gamma_minus, [0.7 + 0.7j, -0.7 + 0.2j, 0.3 - 0.7j, 0.0], 0.2 + 0.1j, plus)
        assert sol.problem is p and sol.gamma_minus is gamma_minus and sol.gamma_plus is plus
        assert sol.basepoint == 0.2 + 0.1j
        # legs from any other basepoint would compose to other factors
        defect, failures = toda.transport_defect(sol, 0.5j)
        assert failures == (None,) * 4
        assert (defect < 1e-14).all()

    def test_a_factor_off_by_a_constant_is_seen(self):
        # mu -> C mu is another exact solution, which no Toda residual sees
        p, gamma_minus, _ = rng77_problem(hermitian=True)
        sol = solve(p, gamma_minus, [0.6 + 0.2j, -0.4j])
        bent = np.eye(4, dtype=complex)
        bent[1, 0] = 1e-6
        moved = dataclasses.replace(sol, mu_minus=bent @ sol.mu_minus)
        defect, _ = toda.transport_defect(moved, 0.5j)
        assert (defect > 1e-7).all()

    def test_failed_points_are_skipped_and_a_failed_bent_leg_fails_its_point(self):
        # the seed vanishes at 1/4 + i/4, on the leg from m = i/2 to 1/2
        # alone, and inside the triangle (0, m, 1/2 + i/10), around which A
        # has a pole and transport depends on the path; the point 1 has no
        # straight transport
        p = line_problem()
        seed = PolyMatrix([[[GaussianRational(Fraction(1, 4), Fraction(1, 4)), -1], 0], [0, 1]])
        seed = PolyMatrix([[[1, -1], 0], [0, 1]]) @ seed  # and singular at 1
        grid = [0.5, -0.5, -0.3 + 0.3j, 0.5 + 0.1j, 1.0]
        sol = solve(p, seed, grid)
        assert [f is None for f in sol.failures] == [True] * 4 + [False]
        defect, failures = toda.transport_defect(sol, 0.5j)
        assert failures[0].startswith("integration: transport diverged")
        assert failures[1:] == (None,) * 4
        assert np.isnan(defect[[0, 4]]).all()
        assert (defect[1:3] < 1e-14).all() and defect[3] > 1e-3

    def test_a_failed_leg_to_the_bend_gives_no_check(self):
        p = line_problem()
        seed = PolyMatrix([[[GaussianRational(0, Fraction(1, 4)), -1], 0], [0, 1]])  # singular at i/4
        sol = solve(p, seed, [0.5, -0.5])
        assert sol.failures == (None, None)
        assert toda.transport_defect(sol, 0.5j) is None
        # singular at the bend itself, which no node of either leg reaches
        seed = PolyMatrix([[[1, GaussianRational(0, 2)], 0], [0, 1]])  # singular at i/2
        sol = solve(p, seed, [0.5, -0.5])
        assert sol.failures == (None, None)
        assert toda.transport_defect(sol, 0.5j) is None


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
        # the normal curves (1, z, z^2/2, ..., z^d/d!) have the gram blocks
        # of the identity at z = 0, so the seed gamma_minus = I solves their
        # Toda systems, and the Toda side reads no metric
        z = np.array([0.6 - 0.3j, 0.2 + 0.4j, -0.5j])
        for degree in (1, 3, 4):
            n = degree + 1
            seq = build_osculating(PolyMatrix([[[0] * m + [Fraction(1, math.factorial(m))]] for m in range(n)]))
            p = TodaProblem(seq.partition, seq.c_minus_matrix())
            assert p.c_minus == PolyMatrix([[int(i == j + 1) for j in range(n)] for i in range(n)])
            sol = solve(p, PolyMatrix.identity(n), z)
            data = frame_at(seq, HermitianMetric.identity(n), z)
            for a in range(n):
                s = p.blocks.slice(a)
                beta = data.betas[a][0]
                assert np.linalg.norm(sol.gamma[:, s, s] - beta) < 1e-14 * np.linalg.norm(beta)

    def test_phi_relation_identity_metric(self):
        p = line_problem()
        sol = solve(p, PolyMatrix.identity(2), [0.2, 0.9j, -0.5 + 0.1j])
        assert sol.failures == (None,) * 3
        assert np.max(phi_relation(sol.phi, sol.gamma)) < 1e-9

    def test_general_solution_has_no_phi(self):
        p = line_general_problem()
        sol = solve(p, PolyMatrix.identity(2), [0.5, 0.2 - 0.6j], gamma_plus=PolyMatrix.identity(2))
        assert sol.phi is None

    def test_trivial_data_gives_constants(self):
        p = TodaProblem(line_blocks(), PolyMatrix.zeros(2, 2))
        sol = solve(p, PolyMatrix.identity(2), [0.0, 0.7 - 0.1j])
        for gamma, phi in zip(sol.gamma, sol.phi):
            assert np.linalg.norm(gamma - np.eye(2)) < 1e-12
            assert np.linalg.norm(phi - np.eye(2)) < 1e-12

    def test_non_hermitian_branch_matches_hermitian(self):
        hp = line_problem()
        nh = line_general_problem()
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

    def test_one_transport_batch_per_factor(self, monkeypatch):
        # a path through the pole of gamma_minus fails its point only, and
        # batching changes no other point
        p = line_general_problem()
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

    @pytest.mark.parametrize("hermitian", [True, False], ids=["hermitian", "general"])
    def test_one_seed_inversion_at_the_grid_per_seed(self, hermitian, monkeypatch):
        # transport tests the endpoints with the values and inverses that
        # the slopes read; a panel's nodes are a stack with two leading axes
        p, gamma_minus, gamma_plus = rng77_problem(hermitian)
        grid = [0.3 + 0.2j, -0.5j, 0.6, 0.1 - 0.4j]
        at_grid = []
        kernel = toda._seed_inverse

        def counted(g, blocks):
            if g.ndim == 3:
                at_grid.append(len(g))
            return kernel(g, blocks)

        monkeypatch.setattr(toda, "_seed_inverse", counted)
        sol = solve(p, gamma_minus, grid, gamma_plus=None if hermitian else gamma_plus)
        assert sol.failures == (None,) * len(grid)
        assert at_grid == [len(grid)] * (1 if hermitian else 2)


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
            blocks=blocks,
            c_minus=c_minus,
            c_plus=None if hermitian else c_minus.conjugate_transpose().scale(-1),
        )
        solved = memoized(lambda w: solve(p, gamma_minus, [w], gamma_plus=gamma_plus))

        def quotient(w):
            sol = solved(w)
            mu_m = sol.mu_minus[0]
            return mu_m.conj().T @ mu_m if hermitian else np.linalg.inv(sol.mu_plus[0]) @ mu_m

        fields = {
            "q": quotient,
            "eta": lambda w: gauss_decompose(constant_jet(quotient(w)), blocks).eta[0],
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
            jets = {"q": q, "eta": gauss_decompose(q, blocks).eta, "gamma": [x[0] for x in solved(z).gamma_jet]}
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
            blocks=line_blocks(),
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
        p = TodaProblem(blocks, subdiagonal_lowering(blocks))
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
        phi = phi_relation(sol.phi, stacked[0])
        assert np.isnan([r[2] for r in res]).all() and np.isnan(curvature[2])
        jets = [tuple(x[i] for x in stacked) for i in range(len(z))]
        for i in (0, 1, 3):
            alone = toda_residual(p, jets[i], z[i])
            assert min(alone) > 1e-3
            assert np.array_equal([r[i] for r in res], alone)
            assert curvature[i] == zero_curvature_check(p, jets[i], z[i])
            assert phi[i] == phi_relation(sol.phi[i], jets[i][0]) > 0
        with pytest.raises(SingularBeta, match="gamma block 0"):
            toda_residual(p, jets[2], z[2])

    @pytest.mark.parametrize("hermitian", [True, False], ids=["hermitian", "general"])
    def test_a_stacked_transport_gives_each_point_its_bits(self, hermitian):
        # one batch of endpoints against one endpoint at a time; 2.2 - 1.1j
        # is cut in two pieces, and 1e3 stays unresolved in MAX_PIECES pieces
        p, gamma_minus, gamma_plus = rng77_problem(hermitian)
        ends = np.array([0.3 + 0.2j, 2.2 - 1.1j, -0.7 + 0.4j, 1e3, 0.6j])
        factors = [(gamma_minus, p.c_minus, p.minus_pattern, ends)]
        if not hermitian:
            factors.append((gamma_plus, p.c_plus, p.plus_pattern, ends.conj()))
        for seed, c, pattern, at in factors:
            mu, failed = toda._transport_many(seed, c, pattern, p.blocks, 0.1, at)[:2]
            assert failed.tolist() == [False, False, False, True, False]
            for i, end in enumerate(at):
                alone, lost = toda._transport_many(seed, c, pattern, p.blocks, 0.1, [end])[:2]
                assert lost[0] == failed[i]
                assert np.array_equal(alone[0], mu[i], equal_nan=True)

    @pytest.mark.parametrize("side", ["frenet", "toda", "toda-general"])
    def test_stacked_gamma_jet_reads_as_it_is(self, side):
        # frame_at and solve return gamma's jet in the one format the checks
        # read: stacked, it goes in unchanged and each point gets the bits
        # of its own call
        z = np.array([0.3 + 0.2j, -0.4 + 0.1j, 0.5j])
        if side == "frenet":
            seq = build_osculating(PolyMatrix([[1], [[0, 1]], [[0, 0, 1]]]))
            h = HermitianMetric.identity(3)
            p = TodaProblem(seq.partition, seq.c_minus_matrix())

            def gamma_jet(w):
                return frame_at(seq, h, w).gamma_jet
        else:
            blocks = BlockStructure((1, 2, 1))
            c_minus = subdiagonal_lowering(blocks)
            rng = np.random.default_rng(5)
            seed = random_gamma_seed(rng, blocks)
            if side == "toda":
                p, plus = TodaProblem(blocks, c_minus), None
            else:  # general mode: the plus factor is transported with its own seed
                c_plus = c_minus.conjugate_transpose().scale(-1)
                p, plus = TodaProblem(blocks, c_minus, c_plus), random_gamma_seed(rng, blocks)

            def gamma_jet(w):
                return solve(p, seed, np.atleast_1d(w), gamma_plus=plus).gamma_jet

        stacked = gamma_jet(z)
        k = p.blocks.n
        assert isinstance(stacked, np.ndarray) and stacked.shape == (4, 3, k, k)
        res, curvature = toda_residual(p, stacked, z), zero_curvature_check(p, stacked, z)
        # a 4-tuple of parts, as outside callers may pass it, reads as the array
        assert np.array_equal(toda_residual(p, tuple(stacked), z), res)
        assert np.array_equal(zero_curvature_check(p, tuple(stacked), z), curvature)
        for i, w in enumerate(z):
            alone = gamma_jet(w)
            if side != "frenet":  # solve takes a grid: its one point
                alone = alone[:, 0]
            assert np.array_equal([r[i] for r in res], toda_residual(p, tuple(alone), w))
            assert curvature[i] == zero_curvature_check(p, alone, w)
        assert max(np.max(r) for r in res) < 1e-12 and np.max(curvature) < 1e-12


class TestFrenetTodaBridge:
    def test_conic_frame_solves_three_block_system(self):
        # squared norms of the Frenet frame of (1, z, z^2) solve the Toda
        # system whose c_minus collects the osculating coefficients
        xi = PolyMatrix([[1], [[0, 1]], [[0, 0, 1]]])
        seq = build_osculating(xi)
        h = HermitianMetric.identity(3)
        p = TodaProblem(seq.partition, seq.c_minus_matrix())

        for z in (0.4 + 0.1j, -0.2 + 0.5j):
            jet = frame_at(seq, h, z).gamma_jet
            assert max(toda_residual(p, jet, z)) < 1e-12
            assert zero_curvature_check(p, jet, z) < 1e-12
