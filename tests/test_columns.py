"""What each report column checks, one mutation at a time.

The mutation matrix: each row changes one intermediate of a job, the
column it names must see the change, and every other column of its side
must not.  So no column is implied by the others, and each one can fail
on its own.  The columns are computed here by the library functions the
CLI calls, and a test checks that they equal the CLI's own report on the
unmutated jobs.  The jobs are the seed-0 tiny jobs of the benchmark
corpus, the Toda ones in ``verify-toda`` mode.

Two more tests show why ``zero_curvature`` and ``hermiticity`` are no
columns: on a gamma that is block diagonal, as every solved gamma is, the
curvature is the Toda equation again, and the defect of gamma's
hermiticity is at most twice the ``phi_relation`` defect.
"""

from __future__ import annotations

import dataclasses
import types
from pathlib import Path

import numpy as np
import pytest

from todaframes.cli import parse_config, run
from todaframes.frenet import build_osculating, frame_at, kahler_check, verify_frame_equations
from todaframes.linalg import HermitianMetric, dagger, scaled_defect
from todaframes.poly import Poly, PolyMatrix
from todaframes.toda import TodaProblem, phi_relation, solve, toda_residual, transport_defect, zero_curvature_check

CORPUS = Path(__file__).resolve().parents[1] / "bench" / "corpus.py"
SEES, BLIND = 1e-6, 1e-10  # a mutated column reads above SEES, every other one below BLIND


def _corpus():
    # exec'd, so that no bytecode cache is written under bench/
    module = types.ModuleType("bench_corpus")
    exec(compile(CORPUS.read_text(encoding="utf-8"), str(CORPUS), "exec"), module.__dict__)
    return module


corpus = _corpus()
FRENET_JOBS = [
    dict(job, mode="verify-frenet") for w in ("exact-corpus", "frenet-verify") for job in corpus.make_jobs(w, 0, "tiny")
]
TODA_JOBS = [dict(job, mode="verify-toda") for w in ("toda-hermitian", "toda-general") for job in corpus.make_jobs(w, 0, "tiny")]


# ---------------------------------------------------------------------------
# the columns of each side, as cli._run_frenet and cli._run_toda compute them


def frenet_side(job):
    cfg = parse_config(job)
    seq = build_osculating(cfg.curve)
    data = frame_at(seq, HermitianMetric.identity(seq.n), np.array(cfg.grid.points()))
    assert all(f is None for f in data.failures)
    return seq, data


def frenet_columns(data) -> dict:
    columns = {"b_solve": data.b_solve_residual}
    minus, plus = verify_frame_equations(data)
    for a in range(data.t + 1):
        columns[f"frame_minus_{a}"] = minus[a]
        columns[f"frame_plus_{a}"] = plus[a]
    for a, v in enumerate(kahler_check(data)):
        columns[f"kahler_{a}"] = v
    return {name: np.asarray(v, dtype=float) for name, v in columns.items()}


def toda_side(job):
    cfg = parse_config(job)
    problem = TodaProblem(cfg.gradation, cfg.c_minus, cfg.c_plus)
    sol = solve(problem, cfg.gamma_minus, cfg.grid.points(), basepoint=cfg.basepoint, gamma_plus=cfg.gamma_plus)
    assert all(f is None for f in sol.failures)
    return sol, cfg.basepoint + 0.5j * cfg.grid.radius


def toda_columns(sol, via) -> dict:
    z = np.array(sol.grid)
    columns = {}
    if sol.phi is not None:
        columns["phi_relation"] = phi_relation(sol.phi, sol.gamma)
    for a, v in enumerate(toda_residual(sol.problem, sol.gamma_jet, z)):
        columns[f"toda_{a}"] = v
    bent, lost = transport_defect(sol, via)
    assert all(f is None for f in lost)
    columns["transport"] = bent
    return {name: np.asarray(v, dtype=float) for name, v in columns.items()}


@pytest.mark.parametrize("job", FRENET_JOBS + TODA_JOBS, ids=lambda job: job["mode"])
def test_columns_are_the_reports(job):
    if job["mode"] == "verify-frenet":
        columns = frenet_columns(frenet_side(job)[1])
    else:
        columns = toda_columns(*toda_side(job))
    report = run(job)
    assert report.exit_code() == 0
    for i, p in enumerate(report.points):
        assert p.residuals == {name: v[i] for name, v in columns.items()}


# ---------------------------------------------------------------------------
# the mutation matrix


def _plus(jets, index, part, size=1e-3):
    """jets with size added to one part of the jet at index."""
    jet = jets[index].copy()
    jet[part] += size
    return jets[:index] + (jet,) + jets[index + 1:]


def _b_plus_e11(seq):
    # a diagonal block of B, which the frame never reads
    k = seq.b.rows
    e11 = PolyMatrix([[Poly.one() if i == j == 0 else Poly() for j in range(k)] for i in range(k)])
    return dataclasses.replace(seq, b=seq.b + e11)


def _gamma_block_0(sol, part):
    s = sol.problem.blocks.slice(0)
    jet = sol.gamma_jet.copy()
    jet[part, :, s, s] += 1e-3
    return dataclasses.replace(sol, gamma_jet=jet)


FRENET_ROWS = {
    "b_solve": lambda seq, data: frame_at(_b_plus_e11(seq), HermitianMetric.identity(seq.n), data.z),
    "frame_minus_1": lambda seq, data: dataclasses.replace(data, phis=_plus(data.phis, 1, 1)),
    "frame_plus_1": lambda seq, data: dataclasses.replace(data, phis=_plus(data.phis, 1, 2)),
    "kahler_1": lambda seq, data: dataclasses.replace(data, betas=_plus(data.betas, 1, 3)),
}
TODA_ROWS = [  # (column, mutation, its name)
    ("toda_0", lambda sol: _gamma_block_0(sol, 2), "dzbar"),
    ("toda_0", lambda sol: _gamma_block_0(sol, 3), "dz-dzbar"),
    ("phi_relation", lambda sol: dataclasses.replace(sol, phi=sol.phi * (1 + 1e-3)), "phi"),
    ("transport", lambda sol: dataclasses.replace(sol, mu_minus=sol.mu_minus * 2), "mu-minus"),
]


def _sees_only(before: dict, after: dict, column: str):
    assert set(after) == set(before)
    assert np.max(before[column]) < BLIND
    assert np.min(after[column]) > SEES, column
    for name, v in after.items():
        if name != column:
            assert np.max(v) < BLIND, (column, name)


@pytest.mark.parametrize("row", FRENET_ROWS)
@pytest.mark.parametrize("job", FRENET_JOBS, ids=lambda job: f"degree-{len(job['curve']) - 1}")
def test_frenet_column_sees_its_mutation_alone(job, row):
    seq, data = frenet_side(job)
    _sees_only(frenet_columns(data), frenet_columns(FRENET_ROWS[row](seq, data)), row)


@pytest.mark.parametrize(
    "job, column, mutate",
    [
        pytest.param(job, column, mutate, id=f"{side}-{column}-{name}")
        for job, side in zip(TODA_JOBS, ("hermitian", "general"))
        for column, mutate, name in TODA_ROWS
        if side == "hermitian" or column != "phi_relation"  # phi belongs to hermitian mode
    ],
)
def test_toda_column_sees_its_mutation_alone(job, column, mutate):
    sol, via = toda_side(job)
    _sees_only(toda_columns(sol, via), toda_columns(mutate(sol), via), column)


# ---------------------------------------------------------------------------
# the two implications that leave zero_curvature and hermiticity out

SOLUTIONS = [
    pytest.param(job, id=f"{w}-{size}")
    for w in ("toda-hermitian", "toda-general")
    for size in corpus.SIZES
    for job in corpus.make_jobs(w, 0, size)
]


def _off_diagonal_blocks(blocks) -> np.ndarray:
    mask = np.ones((blocks.n, blocks.n), dtype=bool)
    for a in range(blocks.count):
        s = blocks.slice(a)
        mask[s, s] = False
    return mask


@pytest.mark.parametrize("job", SOLUTIONS + [pytest.param(job, id="frenet") for job in FRENET_JOBS])
def test_gamma_jet_is_block_diagonal(job):
    # the precondition of the curvature implication, in all four parts
    if "curve" in job:
        data = frenet_side(job)[1]
        jet, off = data.gamma_jet, _off_diagonal_blocks(data.partition)
    else:
        sol = toda_side(job)[0]
        jet, off = sol.gamma_jet, _off_diagonal_blocks(sol.problem.blocks)
    for part in jet:
        assert np.all(part[..., off] == 0)


@pytest.mark.parametrize("size", [1e-8, 1e-3, 1.0])
@pytest.mark.parametrize("part", [1, 2, 3], ids=["d/dz", "d/dzbar", "d/dz d/dzbar"])
@pytest.mark.parametrize("job", SOLUTIONS)
def test_curvature_is_the_toda_equation(job, part, size):
    # a block diagonal perturbation of gamma's jet moves the curvature and
    # the worst toda_a column together
    sol = toda_side(job)[0]
    z = np.array(sol.grid)
    n = sol.problem.blocks.n
    rng = np.random.default_rng(5)
    bump = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) * ~_off_diagonal_blocks(sol.problem.blocks)
    jet = sol.gamma_jet.copy()
    jet[part] += size * bump
    worst = np.max(toda_residual(sol.problem, jet, z), axis=0)
    ratio = zero_curvature_check(sol.problem, jet, z) / worst
    assert np.all((0.1 <= ratio) & (ratio <= 10)), ratio


@pytest.mark.parametrize("job", [p for p in SOLUTIONS if p.values[0]["hermitian_mode"]])
def test_hermiticity_is_within_twice_phi_relation(job):
    # gamma - gamma^dagger is (gamma - P) + (P - P^dagger) + (P^dagger -
    # gamma^dagger) with P = phi^dagger phi, whose middle term is rounding
    sol = toda_side(job)[0]
    hermiticity = scaled_defect(dagger(sol.gamma), [sol.gamma])
    relation = phi_relation(sol.phi, sol.gamma)
    assert np.all(hermiticity <= 2 * relation + 8 * 2.0**-52)
