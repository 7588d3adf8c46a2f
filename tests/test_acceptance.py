"""End to end acceptance checks for the whole pipeline.

Each test covers one acceptance criterion at its stated tolerance and
prints exactly one PASS or FAIL line (to the real stdout, so the lines
survive pytest capture).  Oracles are closed forms where available, and
otherwise the exact arithmetic layer certifies what the floating layer
then spot checks.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from todaframes.frenet import (
    build_osculating,
    frame_at,
    induced_metric,
    kahler_check,
    verify_frame_equations,
)
from todaframes.grading import GradationSpec, degree_of_block
from todaframes.linalg import BlockStructure, HermitianMetric, gauss_decompose
from todaframes.poly import (
    GaussianRational,
    Poly,
    PolyMatrix,
    constant_rank_reduce,
    minor_gcd,
)
from todaframes.toda import (
    TodaProblem,
    phi_relation,
    solve,
    toda_residual,
)

INTERIOR_POINTS = [complex(x, y) for x in (-0.3, 0.0, 0.3) for y in (-0.3, 0.0, 0.3)]


@contextmanager
def criterion(label: str, capsys, budget: float | None = None):
    """Time a block and print one PASS/FAIL line for it.

    The line is written outside pytest capture so it shows up in plain
    pytest runs, one line per criterion.
    """
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"FAIL {label}", flush=True)
        raise
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print(f"PASS {label} ({elapsed:.2f} s)", flush=True)
    if budget is not None:
        assert elapsed < budget, f"{label} took {elapsed:.2f} s, budget {budget} s"


def random_lift(rng: np.random.Generator, n: int, k: int, degree: int) -> PolyMatrix:
    """Identity anchored random lift certified to have constant rank k."""
    while True:
        cols = []
        for j in range(k):
            col = []
            for i in range(n):
                coeffs = [GaussianRational(int(rng.integers(-1, 2))) for _ in range(degree + 1)]
                if i == j:
                    coeffs[0] = GaussianRational(1)
                col.append(Poly(coeffs))
            cols.append(PolyMatrix.column(col))
        if minor_gcd(cols) == Poly([1]):
            return PolyMatrix.from_columns(cols)


def random_gamma_seed(rng, blocks: BlockStructure, degree: int = 2) -> PolyMatrix:
    """Block diagonal I + z C1 + ... with coefficients of size 1/8."""
    n = blocks.n
    entries = [[Poly() for _ in range(n)] for _ in range(n)]
    for a in range(blocks.count):
        s = blocks.slice(a)
        for i in range(s.start, s.stop):
            for j in range(s.start, s.stop):
                coeffs = [GaussianRational(1 if i == j else 0)]
                for _ in range(degree):
                    coeffs.append(
                        GaussianRational(
                            Fraction(int(rng.integers(-1, 2)), 8),
                            Fraction(int(rng.integers(-1, 2)), 8),
                        )
                    )
                entries[i][j] = Poly(coeffs)
    return PolyMatrix(entries)


def subdiagonal_lowering(blocks: BlockStructure) -> PolyMatrix:
    """Identity blocks on the block subdiagonal, zero elsewhere."""
    n = blocks.n
    entries = [[Poly() for _ in range(n)] for _ in range(n)]
    for a in range(blocks.count - 1):
        src, dst = blocks.slice(a), blocks.slice(a + 1)
        for step in range(min(src.stop - src.start, dst.stop - dst.start)):
            entries[dst.start + step][src.start + step] = Poly([1])
    return PolyMatrix(entries)


@pytest.fixture(scope="module")
def random_cases():
    """Ten random lifts shared by the frame, coincidence, and Kähler checks."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    cases = []
    for _ in range(10):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, min(2, n - 1) + 1))
        degree = int(rng.integers(1, 6))
        seq = build_osculating(random_lift(rng, n, k, degree))
        cases.append((n, seq))
    return cases, time.perf_counter() - start


def test_fubini_study_reproduction(capsys):
    with criterion("1 Fubini-Study reproduction", capsys, budget=1.0):
        seq = build_osculating(PolyMatrix([[1], [[0, 1]]]))
        assert seq.partition.sizes == (1, 1)
        h = HermitianMetric.identity(2)
        half = 1.0 / np.sqrt(2.0)
        axis = np.linspace(-half, half, 5)
        for y in axis:
            for x in axis:
                z = complex(x, y)
                assert abs(z) <= 1.0 + 1e-12
                data = frame_at(seq, h, z)
                r2 = abs(z) ** 2
                beta0 = data.betas[0][0][0, 0].real
                assert abs(beta0 - (1.0 + r2)) / (1.0 + r2) < 1e-8
                (g0,) = induced_metric([b[0] for b in data.betas], data.b_sub)
                expected = (1.0 + r2) ** -2
                assert abs(g0 - expected) / expected < 1e-8


def test_frame_equation_residuals(random_cases, capsys):
    cases, build_time = random_cases
    start = time.perf_counter()
    with criterion("2 frame equation residuals", capsys):
        worst = 0.0
        for n, seq in cases:
            h = HermitianMetric.identity(n)
            for z in INTERIOR_POINTS:
                res = verify_frame_equations(frame_at(seq, h, z))
                worst = max(worst, res.max_residual)
        assert worst < 1e-10, f"worst frame residual {worst:.3e}"
    elapsed = build_time + (time.perf_counter() - start)
    assert elapsed < 10.0, f"frame criterion took {elapsed:.2f} s with lift construction"


def test_frame_toda_coincidence(random_cases, capsys):
    cases, _ = random_cases
    with criterion("3 frame data solves the Toda system", capsys):
        worst = 0.0
        for n, seq in cases:
            h = HermitianMetric.identity(n)
            spec = GradationSpec(seq.partition, (1,) * seq.t)
            problem = TodaProblem(spec, seq.c_minus_matrix())
            for z in INTERIOR_POINTS:
                # gamma = blockdiag(beta_a) with the frame's exact jets
                jet = frame_at(seq, h, z).gamma_jet
                worst = max(worst, max(toda_residual(problem, jet, z)))
        assert worst < 1e-10, f"worst Toda residual from frame data {worst:.3e}"


def test_gauss_round_trip(capsys):
    with criterion("4 Gauss decomposition round trip", capsys, budget=1.0):
        rng = np.random.default_rng(41)
        worst = 0.0
        for sizes in ((1, 1), (2, 2), (1, 2, 1)):
            blocks = BlockStructure(sizes)
            n = blocks.n
            done = 0
            while done < 100:
                g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                g += n * np.eye(n)
                if np.linalg.cond(g) >= 1e3:
                    continue
                done += 1
                factors = gauss_decompose(g, blocks)
                recomposed = factors.n_minus @ factors.eta @ np.linalg.inv(factors.n_plus)
                rel = np.linalg.norm(recomposed - g) / np.linalg.norm(g)
                worst = max(worst, float(rel))
        assert worst < 1e-10, f"worst recomposition error {worst:.3e}"


def test_toda_solution_construction(capsys):
    with criterion("5 Toda solution construction", capsys, budget=30.0):
        rng = np.random.default_rng(77)
        blocks = BlockStructure((2, 2))
        spec = GradationSpec(blocks, (1,))
        problem = TodaProblem(spec, subdiagonal_lowering(blocks))
        seed = random_gamma_seed(rng, blocks, degree=2)

        half = 1.0 / np.sqrt(2.0)
        axis = np.linspace(-half, half, 5)
        grid = [complex(x, y) for y in axis for x in axis]
        sol = solve(problem, seed, grid)
        assert sol.failure_fraction <= 0.10, f"{sol.failure_fraction:.0%} of points failed"

        ok = sol.ok_indices
        herm = max(
            np.linalg.norm(g - g.conj().T) / np.linalg.norm(g) for g in (sol.gamma[i] for i in ok)
        )
        assert herm < 1e-8, f"hermiticity defect {herm:.3e}"
        phi_defect = max(phi_relation(problem, sol.phi[i], sol.gamma[i]) for i in ok)
        assert phi_defect < 1e-8, f"phi relation defect {phi_defect:.3e}"

        jets = [tuple(x[i] for x in sol.gamma_jet) for i in ok]
        worst = max(max(toda_residual(problem, jet, sol.grid[i])) for i, jet in zip(ok, jets))
        assert worst < 1e-12, f"worst Toda residual {worst:.3e}"


def test_kahler_identity(random_cases, capsys):
    cases, _ = random_cases
    with criterion("6 Kaehler potential identity", capsys):
        worst = 0.0
        for n, seq in cases:
            h = HermitianMetric.identity(n)
            for z in INTERIOR_POINTS:
                worst = max(worst, max(kahler_check(frame_at(seq, h, z))))
        assert worst < 1e-10, f"worst Kaehler defect {worst:.3e}"


def test_gradation_correctness(capsys):
    with criterion("7 gradation operators", capsys):
        rng = np.random.default_rng(7)
        for _ in range(20):
            t = int(rng.integers(0, 4))
            sizes = tuple(int(rng.integers(1, 4)) for _ in range(t + 1))
            labels = tuple(int(rng.integers(1, 4)) for _ in range(t))
            spec = GradationSpec(BlockStructure(sizes), labels)
            # the grading operator q, with weight -(s_1 + ... + s_a) on block
            # a: the commutator with E_ab is its degree times E_ab, exactly
            q = np.diag(np.repeat(-np.cumsum((0, *labels)), sizes))
            for a in range(spec.count):
                for b in range(spec.count):
                    x = np.zeros((spec.n, spec.n), dtype=int)
                    x[spec.blocks.slice(a).start, spec.blocks.slice(b).start] = 1
                    assert np.array_equal(q @ x - x @ q, degree_of_block(spec, a, b) * x)


def test_path_independence(capsys):
    with criterion("8 path independence of transport", capsys):
        rng = np.random.default_rng(8)
        structures = [(1, 1), (2, 1), (1, 1, 1), (2, 2)]
        worst = 0.0
        for case in range(10):
            blocks = BlockStructure(structures[case % len(structures)])
            spec = GradationSpec(blocks, (1,) * (blocks.count - 1))
            problem = TodaProblem(spec, subdiagonal_lowering(blocks))
            seed = random_gamma_seed(rng, blocks, degree=2)
            angle = rng.uniform(0, 2 * np.pi, size=3)
            radius = rng.uniform(0.3, 0.8, size=3)
            z, w1, w2 = (r * np.exp(1j * a) for r, a in zip(radius, angle))
            # the bent paths 0 -> w -> z: their legs compose by right multiplication
            bent = [
                solve(problem, seed, [w]).mu_minus[0]
                @ solve(problem, seed, [z], basepoint=w).mu_minus[0]
                for w in (w1, w2)
            ]
            worst = max(worst, float(np.linalg.norm(bent[0] - bent[1])))
        assert worst < 1e-8, f"worst path disagreement {worst:.3e}"


def test_exact_certification(capsys):
    with criterion("9 exact constant rank certificates", capsys):
        z = Poly([0, 1])
        fixtures = [
            [PolyMatrix.column([z, z * z])],
            [PolyMatrix.column([z * z - z, z * z])],
            [
                PolyMatrix.column([Poly([1]), z, Poly()]),
                PolyMatrix.column([z, z * z, Poly()]),
            ],
            [
                PolyMatrix.column([Poly([1]), z]),
                PolyMatrix.column([Poly([1]), Poly([1])]),
            ],
            [
                PolyMatrix.column([Poly([1]), z, z * z]),
                PolyMatrix.column([z, z * z, z * z * z]),
            ],
        ]
        rng = np.random.default_rng(9)
        for fs in fixtures:
            gs, _ = constant_rank_reduce(fs)
            assert minor_gcd(gs) == Poly([1])
            stacked = PolyMatrix.from_columns(gs)
            for _ in range(20):
                zpt = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                m = stacked.evaluate(zpt)
                assert np.linalg.matrix_rank(m, tol=1e-10 * np.linalg.norm(m, 2)) == len(gs)
