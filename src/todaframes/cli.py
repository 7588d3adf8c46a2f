"""Job configuration, dispatch, and machine readable reports.

A job is a JSON document with a mode and mode specific inputs.  Scalar
conventions, shared by every mode:

* numbers must be finite; complex numbers are ``[re, im]`` pairs (plain
  numbers are accepted where the imaginary part is zero),
* polynomials are ascending coefficient lists; each coefficient is a
  number, an ``[re, im]`` pair (``[a, b]`` is a + bi, never a/b), or an
  exact quadruple ``[re_num, re_den, im_num, im_den]``, the spelling of
  exact fractions,
* a polynomial matrix is a list of rows of such coefficient lists.

Float coefficients are turned into exact Gaussian rationals by continued
fraction approximation with denominators bounded by ``MAX_DENOMINATOR``;
integers, integer pairs and quadruples are taken exactly.

Antiholomorphic inputs (the plus seeds of a Toda job) are written as
polynomials in the conjugate variable, consistent with the rest of the
package, where the minus derivative is d/dz and the plus derivative is
d/dzbar.

Grids are square point lattices: ``nx`` by ``ny`` points centered at
``center``, scaled so every point lies within distance ``radius`` of the
center, traversed row by row.  Every requested point appears in the
report exactly once; points that cannot be processed carry a status tag
instead of data.

Exit codes: 0 when every point succeeded and every residual is within
``residual_tol``; 1 when any point failed or any residual is too large
or NaN; 2 for configuration problems.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, GaussDecompositionFailed, InvalidArgument, TodaframesError
from .frenet import (
    build_osculating,
    frame_at,
    induced_metric,
    kahler_check,
    linear_fullness,
    verify_frame_equations,
)
from .grading import GradationSpec, build_grading, cartan_grading_operator, degree_of_block, eigen_check
from .linalg import BlockStructure, HermitianMetric, gauss_decompose
from .poly import GaussianRational, Poly, PolyMatrix
from .toda import TodaProblem, phi_relation, solve, toda_residual, zero_curvature_check

__all__ = [
    "SPEC_VERSION",
    "GridSpec",
    "JobConfig",
    "PointRecord",
    "Report",
    "emit",
    "main",
    "parse_config",
    "run",
]

SPEC_VERSION = "1"
RANK_DROP_RADIUS = 1e-3
MAX_DENOMINATOR = 10**6


# ---------------------------------------------------------------------------
# configuration


@dataclass
class GridSpec:
    center: complex = 0.0
    radius: float = 1.0
    nx: int = 3
    ny: int = 3

    def points(self) -> list[complex]:
        half = self.radius / math.sqrt(2.0)
        xs = [0.0] if self.nx == 1 else list(np.linspace(-half, half, self.nx))
        ys = [0.0] if self.ny == 1 else list(np.linspace(-half, half, self.ny))
        return [complex(self.center) + complex(x, y) for y in ys for x in xs]


@dataclass
class JobConfig:
    mode: str
    curve: PolyMatrix | None = None
    gradation: GradationSpec | None = None
    metric: HermitianMetric | None = None
    grid: GridSpec = field(default_factory=GridSpec)
    residual_tol: float = 1e-5
    basepoint: complex = 0.0
    gamma_minus: PolyMatrix | None = None
    gamma_plus: PolyMatrix | None = None
    c_minus: PolyMatrix | None = None
    c_plus: PolyMatrix | None = None
    hermitian_mode: bool = True
    gap: int = 1
    matrices: tuple[np.ndarray, ...] = ()
    count: int = 0
    seed: int = 0


def _as_number(v, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(path, f"expected a number, got {v!r}")
    try:
        x = float(v)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(path, f"expected a finite number, got {v!r}")
    return x


def _as_int(v, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(path, f"expected an integer, got {v!r}")
    return v


def _as_ints(v, path: str) -> tuple[int, ...]:
    if not isinstance(v, list):
        raise ConfigError(path, f"expected a list of integers, got {v!r}")
    return tuple(_as_int(s, path) for s in v)


def _as_complex(v, path: str) -> complex:
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return complex(_as_number(v, path))
    if isinstance(v, list) and len(v) == 2:
        return complex(_as_number(v[0], path), _as_number(v[1], path))
    raise ConfigError(path, f"expected a number or [re, im] pair, got {v!r}")


def _as_gaussian(v, path: str) -> GaussianRational:
    if isinstance(v, bool):
        raise ConfigError(path, "booleans are not numbers")
    if isinstance(v, int):
        return GaussianRational(v)
    if isinstance(v, float):
        return GaussianRational.from_complex(_as_complex(v, path), MAX_DENOMINATOR)
    if isinstance(v, list) and len(v) == 2:
        if all(isinstance(x, int) and not isinstance(x, bool) for x in v):
            return GaussianRational(v[0], v[1])
        return GaussianRational.from_complex(_as_complex(v, path), MAX_DENOMINATOR)
    if isinstance(v, list) and len(v) == 4:
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in v):
            raise ConfigError(path, "exact quadruples must be integers")
        try:
            return GaussianRational(Fraction(v[0], v[1]), Fraction(v[2], v[3]))
        except ZeroDivisionError:
            raise ConfigError(path, "zero denominator") from None
    raise ConfigError(
        path, f"expected a number, [re, im] pair, or exact quadruple, got {v!r}"
    )


def _as_poly(v, path: str) -> Poly:
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        p = Poly([_as_gaussian(v, path)])
    elif isinstance(v, list):
        p = Poly([_as_gaussian(c, f"{path}[{k}]") for k, c in enumerate(v)])
    else:
        raise ConfigError(path, f"expected a coefficient list, got {v!r}")
    # frames are evaluated in floating point, so every coefficient needs a float
    try:
        for c in p.coeffs:
            c.to_complex()
    except OverflowError:
        raise ConfigError(path, "a coefficient is beyond the float range") from None
    return p


def _as_poly_matrix(v, path: str) -> PolyMatrix:
    if not isinstance(v, list) or not v or not all(isinstance(r, list) for r in v):
        raise ConfigError(path, "expected a list of rows")
    try:
        return PolyMatrix(
            [
                [_as_poly(e, f"{path}[{i}][{j}]") for j, e in enumerate(row)]
                for i, row in enumerate(v)
            ]
        )
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _as_complex_matrix(v, path: str) -> np.ndarray:
    if not isinstance(v, list) or not v or not all(isinstance(r, list) for r in v):
        raise ConfigError(path, "expected a list of rows")
    rows = [
        [_as_complex(e, f"{path}[{i}][{j}]") for j, e in enumerate(row)]
        for i, row in enumerate(v)
    ]
    if any(len(r) != len(rows[0]) for r in rows):
        raise ConfigError(path, "ragged rows")
    return np.array(rows, dtype=complex)


_TOP_KEYS = {
    "mode",
    "curve",
    "gradation",
    "metric_h",
    "grid",
    "tolerances",
    "integration",
    "seeds",
    "hermitian_mode",
    "gap",
    "matrices",
    "count",
    "seed",
}

# the keys each nested config object accepts; the README lists the same
_SECTION_KEYS = {
    "grid": ("center", "radius", "nx", "ny"),
    "tolerances": ("residual_tol",),
    "integration": ("basepoint",),
    "seeds": ("gamma_minus", "gamma_plus", "c_minus", "c_plus"),
    "gradation": ("sizes", "labels"),
}


def _section(raw: dict, name: str) -> dict:
    """The object under ``name`` (empty when absent), checked for unknown keys."""
    v = raw.get(name, {})
    if not isinstance(v, dict):
        raise ConfigError(name, "expected an object")
    unknown = set(v) - set(_SECTION_KEYS[name])
    if unknown:
        raise ConfigError(f"{name}.{sorted(unknown)[0]}", "unknown key")
    return v


def parse_config(raw: dict) -> JobConfig:
    """Validate a configuration mapping and build the typed job."""
    if not isinstance(raw, dict):
        raise ConfigError("", "configuration must be an object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown configuration key")
    mode = raw.get("mode")
    if mode not in MODES:
        raise ConfigError("mode", f"must be one of {', '.join(MODES)}")
    cfg = JobConfig(mode=mode)

    g = _section(raw, "grid")
    cfg.grid = GridSpec(
        center=_as_complex(g.get("center", 0.0), "grid.center"),
        radius=_as_number(g.get("radius", 1.0), "grid.radius"),
        nx=_as_int(g.get("nx", 3), "grid.nx"),
        ny=_as_int(g.get("ny", 3), "grid.ny"),
    )
    if cfg.grid.radius <= 0:
        raise ConfigError("grid.radius", "must be positive")
    for name in ("nx", "ny"):
        if getattr(cfg.grid, name) < 1:
            raise ConfigError(f"grid.{name}", "point counts must be at least 1")

    tol = _section(raw, "tolerances").get("residual_tol", 1e-5)
    cfg.residual_tol = _as_number(tol, "tolerances.residual_tol")
    if cfg.residual_tol <= 0:
        raise ConfigError("tolerances.residual_tol", "must be positive")
    base = _section(raw, "integration").get("basepoint", 0.0)
    cfg.basepoint = _as_complex(base, "integration.basepoint")

    if "curve" in raw:
        cfg.curve = _as_poly_matrix(raw["curve"], "curve")
    if "gradation" in raw:
        gr = _section(raw, "gradation")
        if "sizes" not in gr:
            raise ConfigError("gradation.sizes", "required")
        sizes = _as_ints(gr["sizes"], "gradation.sizes")
        if "labels" in gr:
            labels = _as_ints(gr["labels"], "gradation.labels")
        elif mode == "grading":
            raise ConfigError("gradation.labels", "required")
        else:
            labels = (1,) * (len(sizes) - 1)
        try:
            cfg.gradation = GradationSpec(BlockStructure(sizes), labels)
        except ValueError as exc:
            raise ConfigError("gradation", str(exc)) from None
    if "metric_h" in raw:
        try:
            cfg.metric = HermitianMetric(_as_complex_matrix(raw["metric_h"], "metric_h"))
        except ValueError as exc:
            raise ConfigError("metric_h", str(exc)) from None
    if "hermitian_mode" in raw:
        if not isinstance(raw["hermitian_mode"], bool):
            raise ConfigError("hermitian_mode", "expected true or false")
        cfg.hermitian_mode = raw["hermitian_mode"]
    if "gap" in raw:
        cfg.gap = _as_int(raw["gap"], "gap")
        if cfg.gap < 1:
            raise ConfigError("gap", "must be a positive integer")
    if "seed" in raw:
        cfg.seed = _as_int(raw["seed"], "seed")
        if cfg.seed < 0:
            raise ConfigError("seed", "must be nonnegative")
    if "count" in raw:
        cfg.count = _as_int(raw["count"], "count")
        if cfg.count < 0:
            raise ConfigError("count", "must be nonnegative")
    if "matrices" in raw:
        if not isinstance(raw["matrices"], list):
            raise ConfigError("matrices", "expected a list of matrices")
        cfg.matrices = tuple(
            _as_complex_matrix(m, f"matrices[{i}]") for i, m in enumerate(raw["matrices"])
        )

    s = _section(raw, "seeds")
    for name in _SECTION_KEYS["seeds"]:
        if name in s:
            setattr(cfg, name, _as_poly_matrix(s[name], f"seeds.{name}"))

    return cfg


# ---------------------------------------------------------------------------
# reports


@dataclass(eq=True)
class PointRecord:
    z: complex
    status: str
    residuals: dict[str, float]
    values: dict[str, float]

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class Report:
    spec_version: str
    mode: str
    generated_at: str = field(compare=False)  # presentation only
    summary: dict
    points: list[PointRecord]

    def to_dict(self) -> dict:
        return {
            "spec_version": self.spec_version,
            "mode": self.mode,
            "generated_at": self.generated_at,
            "summary": self.summary,
            "points": [
                {
                    "z": [p.z.real, p.z.imag],
                    "status": p.status,
                    "residuals": p.residuals,
                    "values": p.values,
                }
                for p in self.points
            ],
        }

    @property
    def max_residual(self) -> float:
        """The worst residual; NaN when any residual is NaN."""
        values = [v for p in self.points for v in p.residuals.values()]
        if any(math.isnan(v) for v in values):
            return math.nan
        return max(values, default=0.0)

    def exit_code(self) -> int:
        tol = self.summary.get("residual_tol", 1e-5)
        if any(not p.ok for p in self.points):
            return 1
        if not self.max_residual <= tol:
            return 1
        return 0


def _indexed_names(names: set[str], prefix: str) -> list[str]:
    pat = re.compile(re.escape(prefix) + r"(\d+)$")
    found = [(int(m.group(1)), n) for n in names if (m := pat.fullmatch(n))]
    return [n for _, n in sorted(found)]


def emit(report: Report, format: str = "json") -> bytes:
    """Serialize a report; json nests, csv flattens one row per point."""
    if format == "json":
        text = json.dumps(report.to_dict(), sort_keys=True, indent=2)
        return (text + "\n").encode("utf-8")
    if format != "csv":
        raise ValueError(f"unknown format {format!r}")

    res_names = sorted({n for p in report.points for n in p.residuals})
    val_names = {n for p in report.points for n in p.values}
    g_cols = _indexed_names(val_names, "g_")
    ln_cols = _indexed_names(val_names, "ln_det_beta_")
    other = sorted(val_names - set(g_cols) - set(ln_cols))
    header = (
        ["z_re", "z_im"]
        + [f"residual:{n}" for n in res_names]
        + g_cols
        + ln_cols
        + other
        + ["status"]
    )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for p in report.points:
        row = [repr(p.z.real), repr(p.z.imag)]
        row += [repr(p.residuals[n]) if n in p.residuals else "" for n in res_names]
        for n in g_cols + ln_cols + other:
            row.append(repr(p.values[n]) if n in p.values else "")
        row.append(p.status)
        writer.writerow(row)
    return buf.getvalue().encode("utf-8")


# ---------------------------------------------------------------------------
# mode pipelines


def _metric_values(gs: Sequence, betas: Sequence[np.ndarray]) -> dict:
    """The g_a and ln_det_beta_a columns, from the metric coefficients and
    the gram blocks, on either side of the correspondence; stacked blocks
    give stacked columns."""
    values = {f"g_{a}": g for a, g in enumerate(gs)}
    for a, beta in enumerate(betas):
        values[f"ln_det_beta_{a}"] = np.linalg.slogdet(beta)[1]
    return values


def _column_row(columns: dict, i) -> dict[str, float]:
    """The entries at point i of stacked report columns, as floats."""
    return {name: float(np.asarray(v)[i]) for name, v in columns.items()}


def _rank_drop_roots(poly: Poly) -> np.ndarray:
    if poly.degree < 1:
        return np.empty(0, dtype=complex)
    coeffs = [c.to_complex() for c in poly.coeffs]
    return np.roots(list(reversed(coeffs)))


def _metric(cfg: JobConfig, n: int, against: str) -> HermitianMetric:
    h = cfg.metric if cfg.metric is not None else HermitianMetric.identity(n)
    if h.n != n:
        raise ConfigError("metric_h", f"size {h.n} does not match the {against}")
    return h


def _run_frenet(cfg: JobConfig) -> tuple[dict, list[PointRecord]]:
    if cfg.curve is None:
        raise ConfigError("curve", "required for frenet modes")
    try:
        seq = build_osculating(cfg.curve)
        # a derived or rank drop coefficient beyond the float range is a config error
        for m in (seq.xi, seq.dxi, seq.b):
            m.evaluate(0)
        roots = _rank_drop_roots(seq.rank_drop)
    except TodaframesError as exc:
        raise ConfigError("curve", str(exc)) from None
    except OverflowError:
        raise ConfigError("curve", "a derived coefficient is beyond the float range") from None
    n = cfg.curve.rows
    h = _metric(cfg, n, f"curve ({n} rows)")
    t = seq.t

    points = cfg.grid.points()
    near = [bool(roots.size) and np.min(np.abs(roots - z)) < RANK_DROP_RADIUS for z in points]
    data = frame_at(seq, h, np.array([z for z, x in zip(points, near) if not x], dtype=complex))
    passed = data.take([i for i, f in enumerate(data.failures) if f is None])
    residuals = {"b_solve": passed.b_solve_residual}
    values = _metric_values(passed.metric, passed.betas)
    if cfg.mode == "verify-frenet":
        frame = verify_frame_equations(passed)
        for a in range(t + 1):
            residuals[f"frame_minus_{a}"] = frame.minus[a]
            residuals[f"frame_plus_{a}"] = frame.plus[a]
        for a, v in enumerate(kahler_check(passed)):
            residuals[f"kahler_{a}"] = v

    records = []
    failures, rows = iter(data.failures), iter(range(len(passed.failures)))
    for z, excluded in zip(points, near):
        if excluded:
            records.append(PointRecord(z, "excluded: near a rank drop point", {}, {}))
        elif (exc := next(failures)) is not None:
            records.append(PointRecord(z, f"failed: {type(exc).__name__}: {exc}", {}, {}))
        else:
            i = next(rows)
            records.append(PointRecord(z, "ok", _column_row(residuals, i), _column_row(values, i)))
    summary = {
        "partition": list(seq.partition.sizes),
        "linear_full": linear_fullness(seq, n),
        "rank_drop": [
            [c.re.numerator, c.re.denominator, c.im.numerator, c.im.denominator]
            for c in seq.rank_drop.coeffs
        ],
    }
    return summary, records


def _build_problem(cfg: JobConfig) -> TodaProblem:
    if cfg.gradation is None:
        raise ConfigError("gradation", "required for toda modes")
    if cfg.c_minus is None:
        raise ConfigError("seeds.c_minus", "required for toda modes")
    n = cfg.gradation.n
    h = _metric(cfg, n, f"gradation ({n} rows)")
    if cfg.hermitian_mode:
        if cfg.c_plus is not None:
            raise ConfigError("seeds.c_plus", "derived automatically in hermitian mode")
        return TodaProblem.hermitian_problem(cfg.gradation, cfg.gap, cfg.c_minus, h)
    if cfg.c_plus is None:
        raise ConfigError("seeds.c_plus", "required outside hermitian mode")
    return TodaProblem(
        gradation=cfg.gradation,
        gap=cfg.gap,
        c_minus=cfg.c_minus,
        c_plus=cfg.c_plus,
        h=h,
        hermitian_mode=False,
    )


def _run_toda(cfg: JobConfig) -> tuple[dict, list[PointRecord]]:
    pts = cfg.grid.points()
    try:
        problem = _build_problem(cfg)
        if cfg.gamma_minus is None:
            raise ConfigError("seeds.gamma_minus", "required for toda modes")
        if not cfg.hermitian_mode and cfg.gamma_plus is None:
            raise ConfigError("seeds.gamma_plus", "required outside hermitian mode")
        sol = solve(
            problem,
            cfg.gamma_minus,
            pts,
            basepoint=cfg.basepoint,
            gamma_plus=cfg.gamma_plus,
        )
    except InvalidArgument as exc:  # named by the config field it was read from
        field = "gap" if exc.argument == "gap" else f"seeds.{exc.argument}"
        raise ConfigError(field, str(exc)) from None
    except ValueError as exc:
        raise ConfigError("seeds", str(exc)) from None
    except OverflowError:  # a seed derivative beyond the float range
        raise ConfigError("seeds", "a derived coefficient is beyond the float range") from None
    blocks = [problem.blocks.slice(a) for a in range(problem.blocks.count)]

    def one(z: complex, failure: str | None, jet: tuple | None, phi) -> PointRecord:
        if failure is not None:
            return PointRecord(z, f"failed: {failure}", {}, {})
        gamma = jet[0]
        scale = max(1e-300, float(np.linalg.norm(gamma)))
        # both identities hold only in hermitian mode; elsewhere they are
        # reported, not gated
        checks = {
            "hermiticity": float(np.linalg.norm(gamma - gamma.conj().T)) / scale,
            "phi_relation": phi_relation(problem, phi, gamma),
        }
        residuals = checks if cfg.hermitian_mode else {}
        values: dict[str, float] = {} if cfg.hermitian_mode else dict(checks)
        c = problem.c_minus_at(z)
        b_sub = [c[s, r] for r, s in zip(blocks, blocks[1:])]
        betas = [gamma[s, s] for s in blocks]
        gs = [induced_metric(betas, b_sub, a) for a in range(len(b_sub))]
        values.update(_column_row(_metric_values(gs, betas), ()))
        try:
            for a, v in enumerate(toda_residual(problem, jet, z)):
                residuals[f"toda_{a}"] = v
            if cfg.mode == "verify-toda":
                residuals["zero_curvature"] = zero_curvature_check(problem, jet, z)
        except TodaframesError as exc:
            return PointRecord(z, f"failed: {type(exc).__name__}: {exc}", residuals, values)
        return PointRecord(z, "ok", residuals, values)

    records = [one(*point) for point in zip(pts, sol.failures, sol.gamma_jets, sol.phi)]
    summary = {
        "hermitian_mode": cfg.hermitian_mode,
        "failure_fraction": sum(1 for r in records if not r.ok) / max(1, len(records)),
    }
    return summary, records


def _random_test_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    # rejection keeps the samples comfortably decomposable
    while True:
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m += n * np.eye(n)
        if np.linalg.cond(m) < 1e3:
            return m


def _run_gauss(cfg: JobConfig) -> tuple[dict, list[PointRecord]]:
    if cfg.gradation is None:
        raise ConfigError("gradation", "required for gauss mode")
    blocks = cfg.gradation.blocks
    mats = list(cfg.matrices)
    if not mats and cfg.count:
        rng = np.random.default_rng(cfg.seed)
        mats = [_random_test_matrix(rng, blocks.n) for _ in range(cfg.count)]
    if not mats:
        raise ConfigError("matrices", "provide matrices or a positive count")

    def one(i: int) -> PointRecord:
        z = complex(i, 0.0)
        m = mats[i]
        if m.shape != (blocks.n, blocks.n):
            return PointRecord(z, f"failed: shape {m.shape} does not match blocks", {}, {})
        try:
            factors = gauss_decompose(m, blocks)
        except GaussDecompositionFailed as exc:
            return PointRecord(z, f"failed: GaussDecompositionFailed: {exc}", {}, {})
        rel = float(
            np.linalg.norm(factors.recompose() - m) / max(1e-300, np.linalg.norm(m))
        )
        return PointRecord(z, "ok", {"recompose": rel}, {})

    records = [one(i) for i in range(len(mats))]
    return {"blocks": list(blocks.sizes)}, records


def _run_grading(cfg: JobConfig) -> tuple[dict, list[PointRecord]]:
    if cfg.gradation is None:
        raise ConfigError("gradation", "required for grading mode")
    spec = cfg.gradation
    op = build_grading(spec)
    trace = sum(k * r for k, r in zip(spec.blocks.sizes, op.rho))

    def one(a: int) -> PointRecord:
        worst = 0.0
        for b in range(spec.count):
            x = np.zeros((spec.n, spec.n), dtype=complex)
            x[spec.blocks.slice(a).start, spec.blocks.slice(b).start] = 1.0
            worst = max(worst, eigen_check(op, x, degree_of_block(spec, a, b)))
        return PointRecord(
            complex(a, 0.0), "ok", {"eigen": worst}, {"rho": float(op.rho[a])}
        )

    records = [one(a) for a in range(spec.count)]
    cartan = cartan_grading_operator(spec)
    summary = {
        "rho": [[r.numerator, r.denominator] for r in op.rho],
        "traceless": trace == 0,
        "cartan_match": tuple(cartan) == tuple(op.diagonal),
        "labels": list(spec.labels),
        "blocks": list(spec.blocks.sizes),
    }
    return summary, records


_RUNNERS = {
    "frenet": _run_frenet,
    "verify-frenet": _run_frenet,
    "toda-solve": _run_toda,
    "verify-toda": _run_toda,
    "gauss": _run_gauss,
    "grading": _run_grading,
}
MODES = tuple(_RUNNERS)


def run(config: JobConfig | dict) -> Report:
    """Dispatch one job and collect its report."""
    cfg = parse_config(config) if isinstance(config, dict) else config
    summary, records = _RUNNERS[cfg.mode](cfg)
    summary["residual_tol"] = cfg.residual_tol
    summary["points_total"] = len(records)
    summary["points_ok"] = sum(1 for r in records if r.ok)
    return Report(
        spec_version=SPEC_VERSION,
        mode=cfg.mode,
        generated_at=datetime.now(timezone.utc).isoformat(),
        summary=summary,
        points=records,
    )


# ---------------------------------------------------------------------------
# entry point


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="todaframes",
        description=(
            "Frenet frames of polynomial Grassmannian curves and the "
            "associated nonabelian Toda systems. Derivative convention: "
            "the minus derivative is d/dz, the plus derivative is d/dzbar."
        ),
    )
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--config", required=True, help="path to a JSON job file")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    args = parser.parse_args(argv)

    try:
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    if not isinstance(raw, dict):
        print("config must be a JSON object", file=sys.stderr)
        return 2
    if "mode" in raw and raw["mode"] != args.mode:
        print(
            f"config mode {raw['mode']!r} conflicts with requested {args.mode!r}",
            file=sys.stderr,
        )
        return 2
    raw["mode"] = args.mode

    try:
        report = run(raw)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    data = emit(report, args.format)
    if args.out:
        try:
            Path(args.out).write_bytes(data)
        except OSError as exc:
            print(f"cannot write report: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.buffer.write(data)
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
