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
import itertools
import json
import math
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, InvalidArgument, TodaframesError
from .frenet import (
    build_osculating,
    frame_at,
    induced_metric,
    kahler_check,
    linear_fullness,
    verify_frame_equations,
)
from .linalg import BlockStructure, HermitianMetric
from .poly import Poly, PolyMatrix
from .toda import TodaProblem, phi_relation, solve, toda_residual, transport_defect

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
    gradation: BlockStructure | None = None
    metric: HermitianMetric | None = None
    grid: GridSpec = field(default_factory=GridSpec)
    residual_tol: float = 1e-5
    basepoint: complex = 0.0
    gamma_minus: PolyMatrix | None = None
    gamma_plus: PolyMatrix | None = None
    c_minus: PolyMatrix | None = None
    c_plus: PolyMatrix | None = None


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


def _as_int(v, path: str, least: int | None = None) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(path, f"expected an integer, got {v!r}")
    if least is not None and v < least:
        raise ConfigError(path, f"must be at least {least}")
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


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _as_coefficient(v, path: str) -> tuple[int, int, int, int]:
    """One exact coefficient as the integers (re_num, re_den, im_num,
    im_den); a denominator is nonzero, of either sign."""
    if isinstance(v, bool):
        raise ConfigError(path, "booleans are not numbers")
    if isinstance(v, int):
        return v, 1, 0, 1
    if isinstance(v, float) or (isinstance(v, list) and len(v) == 2):
        if isinstance(v, list) and all(map(_is_int, v)):
            return v[0], 1, v[1], 1
        # the nearest parts with denominators at most MAX_DENOMINATOR
        z = _as_complex(v, path)
        re, im = (Fraction(x).limit_denominator(MAX_DENOMINATOR) for x in (z.real, z.imag))
        return re.numerator, re.denominator, im.numerator, im.denominator
    if isinstance(v, list) and len(v) == 4:
        if not all(map(_is_int, v)):
            raise ConfigError(path, "exact quadruples must be integers")
        if not (v[1] and v[3]):
            raise ConfigError(path, "zero denominator")
        return tuple(v)
    raise ConfigError(
        path, f"expected a number, [re, im] pair, or exact quadruple, got {v!r}"
    )


def _as_poly(v, path: str) -> Poly:
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        coeffs = [_as_coefficient(v, path)]
    elif isinstance(v, list):
        coeffs = [_as_coefficient(c, f"{path}[{k}]") for k, c in enumerate(v)]
    else:
        raise ConfigError(path, f"expected a coefficient list, got {v!r}")
    # frames are evaluated in floating point, so every coefficient needs a
    # float: int true division overflows exactly where float(Fraction) does
    try:
        for re_num, re_den, im_num, im_den in coeffs:
            re_num / re_den, im_num / im_den
    except OverflowError:
        raise ConfigError(path, "a coefficient is beyond the float range") from None
    # den // d carries the sign of a negative denominator to its numerator
    den = math.lcm(*(d for c in coeffs for d in c[1::2]))
    return Poly._of([(rn * (den // rd), jn * (den // jd)) for rn, rd, jn, jd in coeffs], den)


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


_FRENET_KEYS = ("curve", "metric_h", "grid", "tolerances")
_TODA_KEYS = ("gradation", "seeds", "grid", "tolerances", "integration", "hermitian_mode")
# the top-level keys each mode reads, besides mode; the README lists the same
_MODE_KEYS = {
    "frenet": _FRENET_KEYS,
    "verify-frenet": _FRENET_KEYS,
    "toda-solve": _TODA_KEYS,
    "verify-toda": _TODA_KEYS,
}

# the fields each mode cannot run without
_REQUIRED = {
    **dict.fromkeys(("frenet", "verify-frenet"), ("curve",)),
    **dict.fromkeys(("toda-solve", "verify-toda"), ("gradation", "seeds.c_minus", "seeds.gamma_minus")),
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
    mode = raw.get("mode")
    if mode not in MODES:
        raise ConfigError("mode", f"must be one of {', '.join(MODES)}")
    unknown = set(raw) - {"mode", *_MODE_KEYS[mode]}
    if unknown:
        raise ConfigError(sorted(unknown)[0], f"unknown configuration key in {mode} mode")
    cfg = JobConfig(mode=mode)  # its fields hold the defaults of the keys left out

    g = _section(raw, "grid")
    cfg.grid = GridSpec(
        center=_as_complex(g.get("center", cfg.grid.center), "grid.center"),
        radius=_as_number(g.get("radius", cfg.grid.radius), "grid.radius"),
        nx=_as_int(g.get("nx", cfg.grid.nx), "grid.nx", 1),
        ny=_as_int(g.get("ny", cfg.grid.ny), "grid.ny", 1),
    )
    if cfg.grid.radius <= 0:
        raise ConfigError("grid.radius", "must be positive")

    tol = _section(raw, "tolerances").get("residual_tol", cfg.residual_tol)
    cfg.residual_tol = _as_number(tol, "tolerances.residual_tol")
    if cfg.residual_tol <= 0:
        raise ConfigError("tolerances.residual_tol", "must be positive")
    base = _section(raw, "integration").get("basepoint", cfg.basepoint)
    cfg.basepoint = _as_complex(base, "integration.basepoint")

    if "curve" in raw:
        cfg.curve = _as_poly_matrix(raw["curve"], "curve")
    if "gradation" in raw:
        gr = _section(raw, "gradation")
        if "sizes" not in gr:
            raise ConfigError("gradation.sizes", "required")
        sizes = _as_ints(gr["sizes"], "gradation.sizes")
        # the block partition is the gradation, with adjacent blocks one
        # degree apart: labels, when given, say so
        ones = [1] * (len(sizes) - 1)
        if "labels" in gr and list(_as_ints(gr["labels"], "gradation.labels")) != ones:
            raise ConfigError("gradation.labels", f"expected {ones}, one 1 per adjacent block pair")
        try:
            cfg.gradation = BlockStructure(sizes)
        except ValueError as exc:
            raise ConfigError("gradation", str(exc)) from None
    if "metric_h" in raw:
        try:
            cfg.metric = HermitianMetric(_as_complex_matrix(raw["metric_h"], "metric_h"))
        except ValueError as exc:
            raise ConfigError("metric_h", str(exc)) from None
    hermitian = raw.get("hermitian_mode", True)
    if not isinstance(hermitian, bool):
        raise ConfigError("hermitian_mode", "expected true or false")

    s = _section(raw, "seeds")
    for name in _SECTION_KEYS["seeds"]:
        if name in s:
            setattr(cfg, name, _as_poly_matrix(s[name], f"seeds.{name}"))

    # presence rules, once every given field has parsed
    for path in _REQUIRED[mode]:
        if getattr(cfg, path.rpartition(".")[2]) is None:
            raise ConfigError(path, f"required in {mode} mode")
    if mode in ("toda-solve", "verify-toda"):
        for name in ("c_plus", "gamma_plus"):  # hermitian mode derives both
            if (getattr(cfg, name) is None) != hermitian:
                why = "derived in hermitian mode" if hermitian else "required outside hermitian mode"
                raise ConfigError(f"seeds.{name}", why)
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
        values = itertools.chain.from_iterable(p.residuals.values() for p in self.points)
        return float(np.fromiter(values, dtype=float).max(initial=0.0))

    def exit_code(self) -> int:
        tol = self.summary.get("residual_tol", JobConfig.residual_tol)
        if any(not p.ok for p in self.points):
            return 1
        if not self.max_residual <= tol:
            return 1
        return 0


# The report and each point record have fixed keys: one format string
# each writes them as json.dumps(..., sort_keys=True, indent=2) does, in
# sorted order at their depth.
_REPORT_JSON = (
    '{{\n  "generated_at": {},\n  "mode": {},\n  "points": {},\n  "spec_version": {},\n  "summary": {}\n}}\n'
)
_POINT_JSON = '{{\n      "residuals": {},\n      "status": {},\n      "values": {},\n      "z": {}\n    }}'


def _flat_writer(depth: int):
    """A writer of a dict or list that holds no container, as json.dumps(x,
    sort_keys=True, indent=2) writes it at that depth of nesting.  With an
    indent json.dumps always takes CPython's pure Python encoder; this one
    is the C encoder, whose item separator carries the newline and indent."""
    pad = "\n" + "  " * depth
    encode = json.JSONEncoder(sort_keys=True, separators=("," + pad + "  ", ": ")).encode

    def write(x) -> str:
        text = encode(x)
        return f"{text[0]}{pad}  {text[1:-1]}{pad}{text[-1]}" if x else text

    return write


def emit(report: Report) -> bytes:
    """The report's bytes: json.dumps(report.to_dict(), sort_keys=True,
    indent=2) and a newline, ASCII, NaN and infinities spelled as json
    spells them.  The containers of each point go through the C encoder,
    the few other fields through json.dumps itself."""

    def field(x) -> str:  # at depth 1; no json string holds a raw newline
        return json.dumps(x, sort_keys=True, indent=2).replace("\n", "\n  ")

    flat = _flat_writer(3)
    points = ",\n    ".join(
        _POINT_JSON.format(
            flat(p.residuals), json.dumps(p.status), flat(p.values), flat([p.z.real, p.z.imag])
        )
        for p in report.points
    )
    return _REPORT_JSON.format(
        field(report.generated_at),
        field(report.mode),
        f"[\n    {points}\n  ]" if report.points else "[]",
        field(report.spec_version),
        field(report.summary),
    ).encode("utf-8")


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


def _records(points, failures, residuals: dict, values: dict) -> list[PointRecord]:
    """One record per point: a failed point has its failure, text or error,
    as its status and no columns; the stacked residual and value columns
    hold one row for each other point, in order."""
    columns = [
        {name: np.asarray(v, dtype=float).tolist() for name, v in c.items()} for c in (residuals, values)
    ]
    records, rows = [], iter(range(len(points)))
    for z, failure in zip(points, failures):
        if failure is not None:
            text = failure if isinstance(failure, str) else f"{type(failure).__name__}: {failure}"
            records.append(PointRecord(z, f"failed: {text}", {}, {}))
            continue
        i = next(rows)
        row = [{name: v[i] for name, v in c.items()} for c in columns]
        records.append(PointRecord(z, "ok", *row))
    return records


def _run_frenet(cfg: JobConfig) -> tuple[dict, list[PointRecord]]:
    n = cfg.curve.rows
    h = cfg.metric if cfg.metric is not None else HermitianMetric.identity(n)
    if h.n != n:
        raise ConfigError("metric_h", f"size {h.n} does not match the curve ({n} rows)")
    points = cfg.grid.points()
    try:
        seq = build_osculating(cfg.curve)
        data = frame_at(seq, h, np.array(points, dtype=complex))
    except TodaframesError as exc:
        raise ConfigError("curve", str(exc)) from None
    except OverflowError:  # a derived coefficient beyond the float range, at its first evaluation
        raise ConfigError("curve", "a derived coefficient is beyond the float range") from None
    ok = [i for i, f in enumerate(data.failures) if f is None]
    passed = data if len(ok) == len(points) else data.take(ok)
    residuals = {"b_solve": passed.b_solve_residual}
    values = _metric_values(passed.metric, [jet[0] for jet in passed.betas])
    if cfg.mode == "verify-frenet":
        minus, plus = verify_frame_equations(passed)
        for a in range(seq.t + 1):
            residuals[f"frame_minus_{a}"] = minus[a]
            residuals[f"frame_plus_{a}"] = plus[a]
        for a, v in enumerate(kahler_check(passed)):
            residuals[f"kahler_{a}"] = v

    summary = {
        "partition": list(seq.partition.sizes),
        "linear_full": linear_fullness(seq),
        "rank_drop": [
            [c.re.numerator, c.re.denominator, c.im.numerator, c.im.denominator]
            for c in seq.rank_drop.coeffs
        ],
    }
    return summary, _records(points, data.failures, residuals, values)


def _run_toda(cfg: JobConfig) -> tuple[dict, list[PointRecord]]:
    pts = cfg.grid.points()
    try:
        problem = TodaProblem(cfg.gradation, cfg.c_minus, cfg.c_plus)
        sol = solve(problem, cfg.gamma_minus, pts, basepoint=cfg.basepoint, gamma_plus=cfg.gamma_plus)
    except InvalidArgument as exc:  # named by the config field it was read from
        raise ConfigError(f"seeds.{exc.argument}", str(exc)) from None
    except ValueError as exc:
        raise ConfigError("seeds", str(exc)) from None
    except OverflowError:  # a seed derivative beyond the float range
        raise ConfigError("seeds", "a derived coefficient is beyond the float range") from None
    failures, bent = sol.failures, None
    if cfg.mode == "verify-toda":  # the bent path through m = basepoint + 0.5i radius
        via = cfg.basepoint + 0.5j * cfg.grid.radius
        check = transport_defect(sol, via)
        if check is not None:
            bent, lost = check
            failures = [f or g for f, g in zip(failures, lost)]
    blocks = [problem.blocks.slice(a) for a in range(problem.blocks.count)]
    ok = [i for i, f in enumerate(failures) if f is None]
    z = np.array(pts, dtype=complex)[ok]
    jet = sol.gamma_jet[:, ok]
    gamma = jet[0]
    residuals = {}
    if problem.hermitian_mode:  # the frame identity of the hermitian side
        residuals["phi_relation"] = phi_relation(problem, sol.phi[ok], gamma)
    c = problem.c_minus_at(z)
    b_sub = [c[:, s, r] for r, s in zip(blocks, blocks[1:])]
    betas = [gamma[:, s, s] for s in blocks]
    values = _metric_values(induced_metric(betas, b_sub), betas)
    for a, v in enumerate(toda_residual(problem, jet, z)):
        residuals[f"toda_{a}"] = v
    if bent is not None:
        residuals["transport"] = bent[ok]

    summary = {"hermitian_mode": problem.hermitian_mode, "failure_fraction": (len(pts) - len(ok)) / len(pts)}
    return summary, _records(pts, failures, residuals, values)


_RUNNERS = {
    "frenet": _run_frenet,
    "verify-frenet": _run_frenet,
    "toda-solve": _run_toda,
    "verify-toda": _run_toda,
}
MODES = tuple(_RUNNERS)


def run(config: JobConfig | dict) -> Report:
    """Dispatch one job and collect its report.  A JobConfig is taken as
    parse_config builds it: the runners check no input's presence."""
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
    parser.add_argument("mode", help=f"one of {', '.join(MODES)}")  # parse_config checks it
    parser.add_argument("--config", required=True, help="path to a JSON job file")
    parser.add_argument("--out", help="output path (default: stdout)")
    args = parser.parse_args(argv)

    try:
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        # a byte that is not UTF-8, bad syntax, or nesting beyond the parser's depth
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
    data = emit(report)
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
