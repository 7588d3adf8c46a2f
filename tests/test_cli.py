"""Configuration parsing, the mode pipelines, report formats, exit codes."""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from todaframes import cli, frenet
from todaframes.cli import (
    GridSpec,
    PointRecord,
    Report,
    emit,
    main,
    parse_config,
    run,
)
from todaframes.errors import ConfigError
from todaframes.poly import GaussianRational


LINE_CURVE = [[[1]], [[0, 1]]]  # the column (1, z)

LINE_TODA = {
    "mode": "toda-solve",
    "gradation": {"sizes": [1, 1], "labels": [1]},
    "grid": {"center": [0, 0], "radius": 0.7, "nx": 3, "ny": 3},
    "integration": {"basepoint": [0, 0]},
    "seeds": {
        "gamma_minus": [[[1], [0]], [[0], [1]]],
        "c_minus": [[[0], [0]], [[1], [0]]],
    },
}
# the seeds of LINE_TODA outside hermitian mode
GENERAL_SEEDS = dict(LINE_TODA["seeds"], gamma_plus=[[[1], [0]], [[0], [1]]], c_plus=[[[0], [-1]], [[0], [0]]])


class TestConfigParsing:
    def test_minimal_frenet(self):
        cfg = parse_config({"mode": "frenet", "curve": LINE_CURVE})
        assert cfg.mode == "frenet"
        assert cfg.curve.shape == (2, 1)
        assert cfg.residual_tol == 1e-5
        assert cfg.basepoint == 0

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_config({"mode": "frenet", "curve": LINE_CURVE, "curv": []})

    def test_bad_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            parse_config({"mode": "fernet"})

    def test_grid_validation(self):
        with pytest.raises(ConfigError, match="radius"):
            parse_config({"mode": "frenet", "grid": {"radius": -1}})
        with pytest.raises(ConfigError, match=r"'grid\.nx': must be at least 1"):
            parse_config({"mode": "frenet", "grid": {"nx": 0}})

    def test_tolerance_validation(self):
        with pytest.raises(ConfigError, match="residual_tol"):
            parse_config({"mode": "frenet", "tolerances": {"residual_tol": 0}})

    def test_fd_step_is_no_longer_accepted(self):
        # every residual reads exact jets, so no mode takes a step
        for mode in ("frenet", "toda-solve"):
            with pytest.raises(ConfigError, match=r"tolerances\.fd_step"):
                parse_config({"mode": mode, "tolerances": {"fd_step": 1e-4}})

    def test_steps_is_no_longer_accepted(self):
        # the transport's bisection cap is fixed; no workload reaches it
        with pytest.raises(ConfigError, match=r"integration\.steps"):
            parse_config({"mode": "toda-solve", "integration": {"steps": 400}})

    def test_rank_tol_is_no_longer_accepted(self):
        # no rank is decided numerically, so the knob was removed
        with pytest.raises(ConfigError, match=r"tolerances\.rank_tol"):
            parse_config({"mode": "frenet", "tolerances": {"rank_tol": 1e-10}})

    def test_float_coefficients_are_rationalized(self):
        cfg = parse_config({"mode": "frenet", "curve": [[[0.5]], [[0, 1]]]})
        assert cfg.curve.entry(0, 0).coeffs[0] == GaussianRational(Fraction(1, 2))

    def test_bare_number_entry_is_a_constant(self):
        bare = parse_config({"mode": "frenet", "curve": [[2], [0.5], [[0, 1]]]}).curve
        listed = parse_config({"mode": "frenet", "curve": [[[2]], [[0.5]], [[0, 1]]]}).curve
        assert bare == listed
        assert bare.entry(1, 0).coeffs == (GaussianRational(Fraction(1, 2)),)

    def test_integer_pair_is_exact_complex(self):
        cfg = parse_config({"mode": "frenet", "curve": [[[[1, 2]]], [[3]]]})
        assert cfg.curve.entry(0, 0).coeffs[0] == GaussianRational(1, 2)

    def test_quadruple_coefficients(self):
        cfg = parse_config({"mode": "frenet", "curve": [[[[1, 3, 0, 1]]], [[1]]]})
        assert cfg.curve.entry(0, 0).coeffs[0] == GaussianRational(Fraction(1, 3))

    def test_parts_beyond_the_float_range_parse(self):
        cfg = parse_config({"mode": "frenet", "curve": [[[[1, 10**400, 0, 1]]], [[[10**400 + 1, 10**400, 0, 1]]]]})
        assert cfg.curve.entry(0, 0).coeffs[0] == GaussianRational(Fraction(1, 10**400))
        assert cfg.curve.evaluate(0).tolist() == [[0j], [1 + 0j]]

    def test_zero_denominator_rejected(self):
        with pytest.raises(ConfigError, match="denominator"):
            parse_config({"mode": "frenet", "curve": [[[[1, 0, 0, 1]]]]})

    def test_booleans_are_not_numbers(self):
        with pytest.raises(ConfigError):
            parse_config({"mode": "frenet", "curve": [[[True]]]})

    def test_grid_points_row_major_and_bounded(self):
        g = GridSpec(center=0.5j, radius=1.0, nx=3, ny=2)
        pts = g.points()
        assert len(pts) == 6
        # first row shares the lowest imaginary part
        assert pts[0].imag == pts[1].imag == pts[2].imag
        assert pts[0].real < pts[1].real < pts[2].real
        assert all(abs(p - 0.5j) <= 1.0 + 1e-12 for p in pts)

    def test_single_point_axis_sits_at_center(self):
        pts = GridSpec(center=1.0, radius=2.0, nx=1, ny=1).points()
        assert pts == [1.0 + 0.0j]


# a job that runs in each mode, and a well-formed value of every top-level key
MODE_JOBS = {
    "frenet": {"curve": LINE_CURVE},
    "verify-frenet": {"curve": LINE_CURVE},
    "toda-solve": {k: v for k, v in LINE_TODA.items() if k != "mode"},
    "verify-toda": {k: v for k, v in LINE_TODA.items() if k != "mode"},
    "gauss": {"gradation": {"sizes": [1, 1]}, "count": 1},
    "grading": {"gradation": {"sizes": [1, 1], "labels": [1]}},
}
KEY_VALUES = {
    "curve": LINE_CURVE,
    "gradation": {"sizes": [1, 1], "labels": [1]},
    "metric_h": [[1, 0], [0, 1]],
    "grid": {"nx": 1, "ny": 1},
    "tolerances": {"residual_tol": 1e-5},
    "integration": {"basepoint": 0},
    "seeds": LINE_TODA["seeds"],
    "hermitian_mode": True,
    "matrices": [[[1, 0], [0, 1]]],
    "count": 1,
    "seed": 0,
}


class TestModeKeys:
    @pytest.mark.parametrize(
        "mode, key",
        [(mode, key) for mode in MODE_JOBS for key in KEY_VALUES if key not in cli._MODE_KEYS[mode]],
    )
    def test_key_outside_its_mode_is_exit_2(self, tmp_path, capsys, mode, key):
        job = MODE_JOBS[mode]
        parse_config(dict(job, mode=mode))
        path = tmp_path / "job.json"
        path.write_text(json.dumps(dict(job, **{key: KEY_VALUES[key]})))
        assert main([mode, "--config", str(path)]) == 2
        assert f"config field '{key}': unknown configuration key" in capsys.readouterr().err

    def test_twenty_seven_pairs_are_read(self):
        assert set(cli._MODE_KEYS) == set(cli.MODES)
        assert all(set(keys) <= set(KEY_VALUES) for keys in cli._MODE_KEYS.values())
        assert sum(len(keys) for keys in cli._MODE_KEYS.values()) == 27

    @pytest.mark.parametrize("mode", ["toda-solve", "verify-toda"])
    def test_general_toda_job_takes_no_metric(self, tmp_path, capsys, mode):
        # the hermitian jobs of MODE_JOBS check metric_h above; outside
        # hermitian mode there is no frame phi for a metric to enter either
        cfg = dict(MODE_JOBS[mode], hermitian_mode=False, seeds=GENERAL_SEEDS)
        parse_config(dict(cfg, mode=mode))
        path = tmp_path / "job.json"
        path.write_text(json.dumps(dict(cfg, metric_h=[[2, 0], [0, 1]])))
        assert main([mode, "--config", str(path)]) == 2
        assert "config field 'metric_h': unknown configuration key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, field",
        [
            ({"matrices": KEY_VALUES["matrices"]}, "matrices"),
            ({"count": None}, "matrices"),
            ({"count": None, "seed": 4, "matrices": KEY_VALUES["matrices"]}, "seed"),
            ({"count": 0}, "count"),
            ({"count": None, "matrices": []}, "matrices"),
        ],
        ids=["matrices-and-count", "neither", "seed-without-count", "count-zero", "no-matrices"],
    )
    def test_gauss_takes_matrices_or_count(self, extra, field):
        job = {k: v for k, v in {**MODE_JOBS["gauss"], **extra}.items() if v is not None}
        with pytest.raises(ConfigError, match=rf"'{field}'"):
            parse_config(dict(job, mode="gauss"))

    @pytest.mark.parametrize("mode", ["toda-solve", "verify-toda"])
    def test_hermitian_job_rejects_gamma_plus(self, tmp_path, capsys, mode):
        # the plus factor of a hermitian job is derived from the minus one
        cfg = dict(MODE_JOBS[mode], seeds=dict(LINE_TODA["seeds"], gamma_plus=GENERAL_SEEDS["gamma_plus"]))
        path = tmp_path / "job.json"
        path.write_text(json.dumps(cfg))
        assert main([mode, "--config", str(path)]) == 2
        assert "config field 'seeds.gamma_plus': derived in hermitian mode" in capsys.readouterr().err

    def test_hermitian_mode_is_a_bool(self):
        with pytest.raises(ConfigError, match="'hermitian_mode': expected true or false"):
            parse_config(dict(LINE_TODA, hermitian_mode=1))

    def test_malformed_field_named_before_a_missing_one(self):
        with pytest.raises(ConfigError, match=r"'grid\.nx'"):
            parse_config({"mode": "verify-toda", "grid": {"nx": 0}})


class TestFrenetModes:
    def test_line_report_matches_fubini_study(self):
        report = run(
            {
                "mode": "frenet",
                "curve": LINE_CURVE,
                "grid": {"center": [0, 0], "radius": 0.5, "nx": 3, "ny": 3},
            }
        )
        assert report.mode == "frenet"
        assert report.summary["partition"] == [1, 1]
        assert report.summary["linear_full"] is True
        assert len(report.points) == 9
        for p in report.points:
            assert p.ok
            expected = (1.0 + abs(p.z) ** 2) ** -2
            assert p.values["g_0"] == pytest.approx(expected, rel=1e-10)
            assert p.values["ln_det_beta_0"] == pytest.approx(
                np.log(1.0 + abs(p.z) ** 2), rel=1e-10
            )
        assert report.exit_code() == 0

    def test_verify_mode_adds_residual_columns(self):
        report = run(
            {
                "mode": "verify-frenet",
                "curve": LINE_CURVE,
                "grid": {"radius": 0.5, "nx": 2, "ny": 2},
            }
        )
        p = report.points[0]
        for name in ("frame_minus_0", "frame_plus_1", "kahler_0", "kahler_1"):
            assert name in p.residuals
        assert report.max_residual < 1e-5
        assert report.exit_code() == 0

    def test_one_frame_evaluation_per_stencil_point(self, monkeypatch):
        # both frenet modes evaluate the frame in one call per job, on every
        # grid point in report order: the checks of verify-frenet read the
        # exact derivatives from that one evaluation
        calls = []
        original = frenet.frame_at

        def counted(seq, h, z):
            calls.append(np.asarray(z).tolist())
            return original(seq, h, z)

        monkeypatch.setattr(frenet, "frame_at", counted)
        monkeypatch.setattr(cli, "frame_at", counted)
        cubic = [[[1]], [[0, 1]], [[0, 0, 1]], [[0, 0, 0, 1]]]
        grid = {"radius": 0.5, "nx": 2, "ny": 2}
        for mode in ("verify-frenet", "frenet"):
            calls.clear()
            report = run({"mode": mode, "curve": cubic, "grid": grid})
            assert report.summary["points_ok"] == 4
            assert calls == [[p.z for p in report.points]]
            assert len(set(calls[0])) == 4
            # (z, z^2) drops rank at the origin, the centre of this grid
            calls.clear()
            with pytest.warns(UserWarning, match="constant rank"):
                report = run({"mode": mode, "curve": [[[0, 1]], [[0, 0, 1]]], "grid": {"radius": 0.5}})
            assert report.summary["points_ok"] == 9
            assert calls == [[p.z for p in report.points]]

    def test_degree_four_normal_curve_passes_tight_tolerance(self):
        # every identity holds on (1, z, ..., z^4); finite difference
        # residuals failed it at every step, exact ones pass at 1e-9
        quartic = [[[0] * m + [1]] for m in range(5)]
        report = run(
            {
                "mode": "verify-frenet",
                "curve": quartic,
                "grid": {"radius": 0.7, "nx": 7, "ny": 7},
                "tolerances": {"residual_tol": 1e-9},
            }
        )
        assert report.summary["points_ok"] == 49
        assert report.exit_code() == 0

    def test_rank_drop_points_are_evaluated(self):
        # the frame is built on the reduced, constant rank columns, so a
        # root of the rank drop is an ordinary point of it: (z, z^2) and
        # (z^2 - z, z^2, z^3) drop rank at the origin, (z - 1/2)(1, z) at
        # 1/2, and each grid is centred on its root
        cases = [
            ([[[0, 1]], [[0, 0, 1]]], [0, 0], [[0, 1, 0, 1], [1, 1, 0, 1]]),
            ([[[0, -1, 1]], [[0, 0, 1]], [[0, 0, 0, 1]]], [0, 0], [[0, 1, 0, 1], [1, 1, 0, 1]]),
            ([[[-0.5, 1]], [[0, -0.5, 1]]], [0.5, 0], [[-1, 2, 0, 1], [1, 1, 0, 1]]),
        ]
        for (curve, center, rank_drop), mode in itertools.product(cases, ("frenet", "verify-frenet")):
            with pytest.warns(UserWarning, match="constant rank"):
                report = run(
                    {
                        "mode": mode,
                        "curve": curve,
                        "grid": {"center": center, "radius": 0.5, "nx": 3, "ny": 3},
                    }
                )
            assert report.summary["rank_drop"] == rank_drop
            assert report.summary["points_ok"] == 9
            assert report.max_residual <= 1e-15
            assert report.exit_code() == 0

    def test_rank_drop_summary_is_lowest_terms(self):
        # the column (w, w z) with w = (z - 1/2 - i/3)(z + 2/5), whose rank
        # drop is w: each coefficient is [re_num, re_den, im_num, im_den]
        w = [[-1, 5, -2, 15], [-1, 10, -1, 3], 1]
        with pytest.warns(UserWarning, match="constant rank"):
            report = run({"mode": "frenet", "curve": [[w], [[0] + w]], "grid": {"radius": 0.1, "nx": 1, "ny": 1}})
        assert report.summary["rank_drop"] == [[-1, 5, -2, 15], [-1, 10, -1, 3], [1, 1, 0, 1]]

    def test_overflowing_frame_warns_nothing(self):
        # the degree-3 normal curve on a radius-1e60 grid: the gram blocks
        # overflow away from the centre, and the guard fails those points
        job = {
            "mode": "verify-frenet",
            "curve": [[[1]], [[0, 1]], [[0, 0, 1]], [[0, 0, 0, 1]]],
            "grid": {"radius": 1e60, "nx": 3, "ny": 3},
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run(job)
        failed = [p.status for p in report.points if not p.ok]
        assert len(failed) == 8
        assert all(status.startswith("failed: SingularBeta") for status in failed)

    def test_zero_curve_is_a_config_error(self):
        with pytest.raises(ConfigError, match="curve"):
            run({"mode": "frenet", "curve": [[[0]], [[0]]]})


class TestTodaModes:
    def test_line_solve_report(self):
        report = run(LINE_TODA)
        assert len(report.points) == 9
        assert report.summary["points_ok"] == 9
        for p in report.points:
            assert p.ok
            assert p.residuals["hermiticity"] < 1e-10
            assert p.residuals["phi_relation"] < 1e-8
            assert p.residuals["toda_0"] < 1e-12
            assert p.residuals["toda_1"] < 1e-12
            r2 = abs(p.z) ** 2
            assert p.values["g_0"] == pytest.approx((1.0 + r2) ** -2, rel=1e-6)
            assert p.values["ln_det_beta_0"] == pytest.approx(
                np.log(1.0 + r2), abs=1e-8
            )
        assert report.exit_code() == 0

    def test_verify_toda_adds_curvature(self):
        cfg = dict(LINE_TODA, mode="verify-toda")
        cfg["grid"] = {"radius": 0.5, "nx": 2, "ny": 1}
        report = run(cfg)
        for p in report.points:
            assert p.ok
            assert p.residuals["zero_curvature"] < 1e-12

    def test_one_solve_per_job(self, monkeypatch):
        # the residual checks read gamma's exact jets, so the one solve of a
        # job is over its grid points and nothing else
        batches = []
        original = cli.solve

        def counted(problem, gamma_minus, grid, **kwargs):
            batches.append([complex(w) for w in grid])
            return original(problem, gamma_minus, grid, **kwargs)

        monkeypatch.setattr(cli, "solve", counted)
        for mode in ("toda-solve", "verify-toda"):
            batches.clear()
            cfg = dict(LINE_TODA, mode=mode, grid={"radius": 0.5, "nx": 2, "ny": 2})
            report = run(cfg)
            assert report.summary["points_ok"] == 4
            assert batches == [parse_config(cfg).grid.points()]

    def test_failed_grid_point_fails_only_itself(self, monkeypatch):
        cfg = dict(LINE_TODA, mode="verify-toda", grid={"radius": 0.5, "nx": 2, "ny": 2})
        clean = run(cfg)
        calls = []
        original = cli.solve

        def holed(problem, gamma_minus, grid, **kwargs):
            calls.append(len(grid))
            sol = original(problem, gamma_minus, grid, **kwargs)

            def punch(stack):
                out = stack.copy()
                out[1] = np.nan
                return out

            failures = list(sol.failures)
            failures[1] = "integration: transport diverged"
            return dataclasses.replace(
                sol,
                gamma_jet=tuple(map(punch, sol.gamma_jet)),
                phi=punch(sol.phi),
                failures=tuple(failures),
            )

        monkeypatch.setattr(cli, "solve", holed)
        report = run(cfg)
        assert calls == [4]
        broken = report.points[1]
        assert broken.z == clean.points[1].z
        assert broken.status == "failed: integration: transport diverged"
        assert broken.residuals == {} and broken.values == {}
        assert report.summary["points_ok"] == 3
        assert report.exit_code() == 1
        others = [p for k, p in enumerate(report.points) if k != 1]
        assert others == [p for k, p in enumerate(clean.points) if k != 1]

    def test_c_plus_rejected_in_hermitian_mode(self):
        cfg = dict(LINE_TODA)
        cfg["seeds"] = dict(cfg["seeds"], c_plus=[[[0], [-1]], [[0], [0]]])
        with pytest.raises(ConfigError, match="c_plus"):
            run(cfg)

    def test_gamma_minus_required(self):
        cfg = dict(LINE_TODA)
        cfg["seeds"] = {"c_minus": cfg["seeds"]["c_minus"]}
        with pytest.raises(ConfigError, match="gamma_minus"):
            run(cfg)

    def test_singular_gamma_block_fails_its_point(self):
        # gamma = gamma_minus^dagger gamma_minus is diag(1, 1e-14, 1, 1) at
        # the origin; the point fails like any other, with no columns
        zero, one = [0], [1]
        cfg = {
            "mode": "verify-toda",
            "gradation": {"sizes": [2, 2]},
            "grid": {"nx": 3, "ny": 1, "radius": 0.3},
            "seeds": {
                "gamma_minus": [
                    [one, zero, zero, zero],
                    [zero, [[1, 10**7, 0, 1]], zero, zero],
                    [zero, zero, one, zero],
                    [zero, zero, zero, one],
                ],
                "c_minus": [
                    [zero, zero, zero, zero],
                    [zero, zero, zero, zero],
                    [one, zero, zero, zero],
                    [zero, one, zero, zero],
                ],
            },
        }
        centre = run(cfg).points[1]
        assert centre.z == 0
        assert centre.status == "failed: SingularBeta: gamma block 0 at z=0+0j has condition 1.000e+14"
        assert centre.residuals == {} and centre.values == {}

    def test_non_hermitian_requires_plus_seeds(self):
        cfg = dict(LINE_TODA, hermitian_mode=False)
        with pytest.raises(ConfigError, match="c_plus"):
            run(cfg)

    @pytest.mark.parametrize("hermitian", [True, False], ids=["hermitian", "general"])
    def test_seed_singular_at_a_grid_point_fails_only_it(self, hermitian):
        # the seed z I is singular at the centre alone, which the interior
        # quadrature nodes of its leg never reach: the endpoint's own
        # determinant fails it in transport, and the other 8 points run
        scaled, eye = [[[0, 1], [0]], [[0], [0, 1]]], [[[1], [0]], [[0], [1]]]
        seeds = {"gamma_minus": scaled, "c_minus": [[[0], [0]], [[1], [0]]]}
        if not hermitian:
            seeds = dict(seeds, gamma_minus=eye, gamma_plus=scaled, c_plus=[[[0], [-1]], [[0], [0]]])
        report = run(
            {
                "mode": "toda-solve",
                "gradation": {"sizes": [1, 1]},
                "integration": {"basepoint": 0.5},
                "hermitian_mode": hermitian,
                "seeds": seeds,
            }
        )
        statuses = [p.status for p in report.points]
        assert report.points[4].z == 0
        assert statuses[4].startswith("failed: integration: transport diverged")
        assert statuses[:4] + statuses[5:] == ["ok"] * 8
        assert report.summary["hermitian_mode"] is hermitian
        assert report.exit_code() == 1

    def test_huge_seed_entry_runs_without_warnings(self):
        # gamma's assembly overflows to inf and NaN, which the suite's
        # filterwarnings = error would raise; every gamma block then fails
        # its guard
        seeds = {"gamma_minus": [[[1e200], [0]], [[0], [1]]], "c_minus": [[[0], [0]], [[1], [0]]]}
        report = run({"mode": "verify-toda", "gradation": {"sizes": [1, 1]}, "seeds": seeds})
        assert len(report.points) == 9
        assert all(p.status.startswith("failed: SingularBeta: gamma block 0") for p in report.points)
        assert report.exit_code() == 1

    def test_huge_c_entry_runs_without_warnings(self):
        # the residual scaling's squared norms overflow to inf with no
        # warning; the legs away from the basepoint do not resolve
        seeds = {"gamma_minus": [[[1], [0]], [[0], [1]]], "c_minus": [[[0], [0]], [[1e150], [0]]]}
        report = run({"mode": "verify-toda", "gradation": {"sizes": [1, 1]}, "seeds": seeds})
        centre = report.points[4]
        assert centre.z == 0 and centre.ok
        assert set(centre.residuals) == {"hermiticity", "phi_relation", "toda_0", "toda_1", "zero_curvature"}
        assert max(centre.residuals.values()) < 1e-12
        others = report.points[:4] + report.points[5:]
        assert all(p.status.startswith("failed: integration: transport diverged") for p in others)
        assert report.exit_code() == 1


class TestGaussMode:
    def test_explicit_matrices_with_singular_example(self):
        report = run(
            {
                "mode": "gauss",
                "gradation": {"sizes": [1, 1]},
                "matrices": [
                    [[2, 1], [1, 1]],
                    [[0, 1], [1, 0]],  # vanishing leading block
                ],
            }
        )
        assert report.points[0].ok
        assert report.points[0].residuals["recompose"] < 1e-12
        assert report.points[1].status.startswith("failed: GaussDecompositionFailed")
        assert report.points[1].z == 1.0 + 0.0j
        assert report.exit_code() == 1

    def test_random_batch(self):
        report = run(
            {
                "mode": "gauss",
                "gradation": {"sizes": [2, 1]},
                "count": 5,
                "seed": 3,
            }
        )
        assert len(report.points) == 5
        assert all(p.ok for p in report.points)
        assert report.max_residual < 1e-10

    def test_random_batch_is_seeded(self):
        cfg = {"mode": "gauss", "gradation": {"sizes": [2, 1]}, "count": 3, "seed": 9}
        assert run(cfg) == run(cfg)

    def test_requires_input(self):
        with pytest.raises(ConfigError, match="matrices"):
            run({"mode": "gauss", "gradation": {"sizes": [1, 1]}})

    def test_huge_entry_recomposes_without_warnings(self):
        # its squared norm overflows; the suite turns any numpy warning
        # into an error, and the exact recomposition still reads 0
        report = run({"mode": "gauss", "gradation": {"sizes": [1, 1]}, "matrices": [[[1e200, 0], [0, 1]]]})
        assert report.points[0].residuals == {"recompose": 0.0}
        assert report.exit_code() == 0


class TestGradingMode:
    def test_two_block_example(self):
        report = run(
            {"mode": "grading", "gradation": {"sizes": [2, 1], "labels": [2]}}
        )
        assert report.summary["rho"] == [[2, 3], [-4, 3]]
        assert report.summary["traceless"] is True
        assert report.summary["cartan_match"] is True
        assert [p.values["rho"] for p in report.points] == pytest.approx(
            [2 / 3, -4 / 3]
        )
        assert report.max_residual < 1e-12
        assert report.exit_code() == 0

    def test_labels_required(self):
        with pytest.raises(ConfigError, match="labels"):
            run({"mode": "grading", "gradation": {"sizes": [2, 1]}})


class TestReports:
    def make_report(self) -> Report:
        return run(
            {
                "mode": "frenet",
                "curve": LINE_CURVE,
                "grid": {"radius": 0.5, "nx": 2, "ny": 2},
            }
        )

    def test_json_round_trip(self):
        report = self.make_report()
        assert json.loads(emit(report, "json")) == report.to_dict()

    @pytest.mark.parametrize(
        "cfg",
        [
            {"mode": "frenet", "curve": LINE_CURVE, "grid": {"radius": 0.5, "nx": 2, "ny": 2}},
            {"mode": "verify-frenet", "curve": [[[1]], [[0, 1]], [[0, 0, 1]]], "grid": {"nx": 2, "ny": 1}},
            LINE_TODA,
            dict(LINE_TODA, mode="verify-toda", hermitian_mode=False, seeds=GENERAL_SEEDS),
            # the second matrix fails: a record with empty dicts
            {"mode": "gauss", "gradation": {"sizes": [1, 1]}, "matrices": [[[2, 1], [1, 1]], [[0, 1], [1, 0]]]},
            # nested lists and bools in the summary
            {"mode": "grading", "gradation": {"sizes": [1, 2, 1], "labels": [1, 3]}},
        ],
        ids=lambda cfg: cfg["mode"],
    )
    def test_json_bytes_are_json_dumps(self, cfg):
        report = run(cfg)
        assert emit(report, "json") == (json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n").encode()

    @pytest.mark.parametrize(
        "summary, points",
        [
            ({}, []),
            (
                {"b": [[1, 2], [3, [4.5, True]]], "a": False, "c": {"y": [], "x": {"w": {}}}, "d": None, "e": "é\n"},
                [PointRecord(0j, "failed: x", {}, {})],
            ),
            (
                {"residual_tol": 1e-5},
                [
                    PointRecord(
                        complex(-0.0, 1e-300),
                        'failed: "q" \\ é—\U0001d11e\n',
                        {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"), "zero": -0.0},
                        {"g_0": 1.0, "tiny": 5e-324, "big": 1.7976931348623157e308},
                    ),
                    PointRecord(1 + 2j, "ok", {"a": 0.1}, {}),
                ],
            ),
        ],
    )
    def test_hand_built_json_bytes_are_json_dumps(self, summary, points):
        report = Report("1", "gauss", "now µ", summary, points)
        assert emit(report, "json") == (json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n").encode()

    def test_json_deterministic_modulo_timestamp(self):
        cfg = {
            "mode": "frenet",
            "curve": LINE_CURVE,
            "grid": {"radius": 0.5, "nx": 2, "ny": 2},
        }
        a, b = run(cfg), run(cfg)
        assert a == b
        da, db = a.to_dict(), b.to_dict()
        da.pop("generated_at"), db.pop("generated_at")
        assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)

    def test_csv_column_order(self):
        report = Report(
            spec_version="1",
            mode="frenet",
            generated_at="now",
            summary={},
            points=[
                PointRecord(
                    z=0.5 + 1.0j,
                    status="ok",
                    residuals={"beta": 1.0, "alpha": 2.0},
                    values={"g_1": 3.0, "g_0": 4.0, "ln_det_beta_0": 5.0, "extra": 6.0},
                ),
                PointRecord(z=0.0, status="failed: x", residuals={}, values={}),
            ],
        )
        text = emit(report, "csv").decode()
        lines = text.strip().split("\n")
        assert lines[0] == (
            "z_re,z_im,residual:alpha,residual:beta,g_0,g_1,ln_det_beta_0,extra,status"
        )
        assert lines[1] == "0.5,1.0,2.0,1.0,4.0,3.0,5.0,6.0,ok"
        assert lines[2] == "0.0,0.0,,,,,,,failed: x"

    def test_csv_empty_report(self):
        report = Report("1", "gauss", "now", {}, [])
        assert emit(report, "csv").decode() == "z_re,z_im,status\n"

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            emit(self.make_report(), "xml")

    def test_spec_version_in_json(self):
        data = json.loads(emit(self.make_report(), "json"))
        assert data["spec_version"] == "1"

    def test_nan_residual_fails_the_gate(self):
        # max() would skip a NaN that comes after a number and keep one
        # that comes first; either way the report must not pass
        for residuals in ({"a": np.nan}, {"a": np.nan, "b": 1e-9}, {"b": 1e-9, "a": np.nan}):
            point = PointRecord(z=0.0, status="ok", residuals=residuals, values={})
            report = Report("1", "gauss", "now", {"residual_tol": 1e-5}, [point])
            assert np.isnan(report.max_residual)
            assert report.exit_code() == 1

    def test_max_residual_is_the_largest_over_every_point(self):
        cases = (
            ([], 0.0),
            ([{}], 0.0),
            ([{"a": 1e-3, "b": 2.5}, {}, {"a": 0.25}], 2.5),
            ([{"a": 1.0}, {"b": np.inf}], np.inf),
        )
        for rows, worst in cases:
            points = [PointRecord(z=0.0, status="ok", residuals=r, values={}) for r in rows]
            assert Report("1", "gauss", "now", {}, points).max_residual == worst


class TestMain:
    def write_config(self, tmp_path, cfg) -> str:
        path = tmp_path / "job.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_runs_and_writes_csv(self, tmp_path, capsys):
        cfg = {"curve": LINE_CURVE, "grid": {"radius": 0.5, "nx": 2, "ny": 2}}
        out = tmp_path / "report.csv"
        code = main(
            ["frenet", "--config", self.write_config(tmp_path, cfg), "--out", str(out), "--format", "csv"]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 5
        assert lines[0].startswith("z_re,z_im,")

    def test_stdout_json(self, tmp_path, capsys):
        cfg = {"curve": LINE_CURVE, "grid": {"radius": 0.5, "nx": 1, "ny": 1}}
        code = main(["frenet", "--config", self.write_config(tmp_path, cfg)])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["mode"] == "frenet"

    def test_module_entry_runs_a_job(self, tmp_path):
        cfg = {"curve": LINE_CURVE, "grid": {"radius": 0.5, "nx": 2, "ny": 2}}
        src = str(Path(cli.__file__).resolve().parents[1])
        path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        done = subprocess.run(
            [sys.executable, "-m", "todaframes.cli", "frenet", "--config", self.write_config(tmp_path, cfg)],
            capture_output=True,
            env=env,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr.decode()
        data = json.loads(done.stdout)
        assert data["mode"] == "frenet"
        assert len(data["points"]) == 4

    def test_invalid_json_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "job.json"
        path.write_text("{not json")
        assert main(["frenet", "--config", str(path)]) == 2

    @pytest.mark.parametrize(
        "text",
        [b'\xff{"curve": []}', b"[" * 100000],
        ids=["not-utf8", "deep-nesting"],
    )
    def test_unreadable_json_is_exit_2(self, tmp_path, capsys, text):
        path = tmp_path / "job.json"
        path.write_bytes(text)
        assert main(["frenet", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config is not valid JSON: ") and err.count("\n") == 1

    def test_config_list_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "job.json"
        path.write_text(json.dumps([{"mode": "frenet", "curve": LINE_CURVE}]))
        assert main(["frenet", "--config", str(path)]) == 2
        assert "config must be a JSON object" in capsys.readouterr().err

    def test_missing_file_is_exit_2(self, capsys):
        assert main(["frenet", "--config", "/nonexistent/job.json"]) == 2

    def test_unwritable_out_is_exit_2(self, tmp_path, capsys):
        # exit 1 means a failed point; a report that cannot be written is 2
        cfg = {"curve": LINE_CURVE, "grid": {"radius": 0.5, "nx": 1, "ny": 1}}
        out = tmp_path / "missing" / "report.json"
        assert main(["frenet", "--config", self.write_config(tmp_path, cfg), "--out", str(out)]) == 2
        assert "cannot write report" in capsys.readouterr().err
        assert not out.exists()

    def test_mode_conflict_is_exit_2(self, tmp_path, capsys):
        path = self.write_config(tmp_path, {"mode": "grading", "curve": LINE_CURVE})
        assert main(["frenet", "--config", path]) == 2

    def test_config_error_is_exit_2(self, tmp_path, capsys):
        path = self.write_config(tmp_path, {"curve": LINE_CURVE, "bogus": 1})
        assert main(["frenet", "--config", path]) == 2

    def test_removed_fd_step_is_exit_2(self, tmp_path, capsys):
        cfg = dict(LINE_TODA, tolerances={"fd_step": 1e-4})
        assert main(["toda-solve", "--config", self.write_config(tmp_path, cfg)]) == 2
        assert "tolerances.fd_step" in capsys.readouterr().err

    def test_removed_gap_is_exit_2(self, tmp_path, capsys):
        # the gap is read from c_minus and c_plus
        cfg = dict(LINE_TODA, gap=1)
        assert main(["toda-solve", "--config", self.write_config(tmp_path, cfg)]) == 2
        assert "'gap'" in capsys.readouterr().err

    def test_gap_two_without_gap_key_is_exit_0(self, tmp_path, capsys):
        # labels [2] put c_minus's block (1, 0) in degree -2
        cfg = dict(LINE_TODA, gradation={"sizes": [1, 1], "labels": [2]})
        assert main(["toda-solve", "--config", self.write_config(tmp_path, cfg)]) == 0

    def test_removed_steps_is_exit_2(self, tmp_path, capsys):
        cfg = dict(LINE_TODA, integration={"steps": 400})
        assert main(["toda-solve", "--config", self.write_config(tmp_path, cfg)]) == 2
        assert "integration.steps" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cfg, field",
        [
            ({"tolerances": {"residual_tol": float("nan")}}, "tolerances.residual_tol"),
            ({"grid": {"radius": float("inf")}}, "grid.radius"),
            ({"grid": {"radius": 10**400}}, "grid.radius"),
            ({"grid": {"center": float("nan")}}, "grid.center"),
            ({"curve": [[[1]], [[0, float("inf")]]]}, "curve[1][0][1]"),
            ({"curve": [[[1]], [[0, [0.5, float("nan")]]]]}, "curve[1][0][1]"),
            ({"mode": "gauss", "gradation": {"sizes": [1, 1]}, "matrices": [[[1, 0], [0, float("nan")]]]}, "matrices[0][1][1]"),
            ({"mode": "gauss", "gradation": {"sizes": 3}}, "gradation.sizes"),
            ({"mode": "grading", "gradation": {"sizes": [2, 1], "labels": 1}}, "gradation.labels"),
            ({"mode": "grading", "gradation": {"sizes": [2, 1], "levels": [1]}}, "gradation.levels"),
            ({"max_denominator": 100}, "max_denominator"),
            (dict(LINE_TODA, metric_h=[[1, 0, 0], [0, 1, 0], [0, 0, 1]]), "metric_h"),
            (dict(LINE_TODA, mode="verify-toda", metric_h=[[1]]), "metric_h"),
            (dict(LINE_TODA, seeds=dict(LINE_TODA["seeds"], g0=[[1, 0], [0, 1]])), "seeds.g0"),
            ({"mode": "gauss", "gradation": {"sizes": [1, 1]}, "count": 2, "seed": -1}, "seed"),
            ({"grid": {"nx": 3, "ny": 0}}, "grid.ny"),
            ({"curve": [[[1]], [[0, 10**400]]]}, "curve[1][0]"),
            ({"curve": [[[1]], [[0, [10**400, 1, 0, 1]]]]}, "curve[1][0]"),
            # finite as parsed, but the derivative 2 * 10**308 z is not
            ({"curve": [[[1]], [[0, 0, 10**308]]]}, "curve"),
            (
                dict(LINE_TODA, seeds=dict(LINE_TODA["seeds"], gamma_minus=[[[1, 0, 10**308], [0]], [[0], [1]]])),
                "seeds",
            ),
            # a malformed Toda input is named by its own field
            # c_minus of degree -2 over labels (1, 1): degree 1 is in the
            # band its gap 2 requires to be trivial
            (
                dict(
                    LINE_TODA,
                    gradation={"sizes": [1, 1, 1], "labels": [1, 1]},
                    seeds=dict(LINE_TODA["seeds"], c_minus=[[[0], [0], [0]], [[0], [0], [0]], [[1], [0], [0]]]),
                ),
                "seeds.c_minus",
            ),
            (dict(LINE_TODA, seeds=dict(LINE_TODA["seeds"], c_minus=[[[0]]])), "seeds.c_minus"),
            (
                dict(LINE_TODA, hermitian_mode=False, seeds=dict(GENERAL_SEEDS, c_plus=[[[0], [0]], [[1], [0]]])),
                "seeds.c_plus",
            ),
            (dict(LINE_TODA, seeds=dict(LINE_TODA["seeds"], gamma_minus=[[[1]]])), "seeds.gamma_minus"),
            (
                dict(LINE_TODA, hermitian_mode=False, seeds=dict(GENERAL_SEEDS, gamma_plus=[[[1], [1]], [[0], [1]]])),
                "seeds.gamma_plus",
            ),
            # a matrix of the wrong size for the gradation is the input's fault
            (
                {"mode": "gauss", "gradation": {"sizes": [1, 1]}, "matrices": [[[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]]},
                "matrices[1]",
            ),
            ({"grid": {"radius": "1"}}, "grid.radius"),
            ({"grid": {"nx": 2.0}}, "grid.nx"),
            ({"grid": {"center": [1, 2, 3]}}, "grid.center"),
            ({"grid": []}, "grid"),
            # a quadruple of non integers, a coefficient of three numbers, a
            # dict entry in place of a coefficient list
            ({"curve": [[[1]], [[0, [1, 2, 0, 1.5]]]]}, "curve[1][0][1]"),
            ({"curve": [[[1]], [[0, [1, 2, 3]]]]}, "curve[1][0][1]"),
            ({"curve": [[[1]], [{"re": 1}]]}, "curve[1][0]"),
            ({"curve": [1, 2]}, "curve"),
            ({"curve": [[[1], [0]], [[1]]]}, "curve"),
            ({"metric_h": [1]}, "metric_h"),
            ({"metric_h": [[1, 0], [0]]}, "metric_h"),
            ({"metric_h": [[1, 1], [0, 1]]}, "metric_h"),
            ({"mode": "gauss", "gradation": {"labels": [1]}, "count": 1}, "gradation.sizes"),
            ({"mode": "grading", "gradation": {"sizes": [1, 1], "labels": [1, 2]}}, "gradation"),
            ({"hermitian_mode": 1}, "hermitian_mode"),
            ({"gap": 0}, "gap"),
            ({"mode": "gauss", "gradation": {"sizes": [1, 1]}, "count": -1}, "count"),
            ({"mode": "gauss", "gradation": {"sizes": [1, 1]}, "matrices": {}}, "matrices"),
            # a required input left out
            ({"curve": None}, "curve"),
            (dict(LINE_TODA, gradation=None), "gradation"),
            (dict(LINE_TODA, seeds={"gamma_minus": LINE_TODA["seeds"]["gamma_minus"]}), "seeds.c_minus"),
            ({"mode": "gauss", "count": 1}, "gradation"),
            ({"mode": "grading"}, "gradation"),
            (
                dict(LINE_TODA, hermitian_mode=False, seeds={k: v for k, v in GENERAL_SEEDS.items() if k != "gamma_plus"}),
                "seeds.gamma_plus",
            ),
        ],
    )
    def test_malformed_config_names_the_field(self, tmp_path, capsys, cfg, field):
        # a job is a frenet job with the line curve unless it says otherwise;
        # a None value leaves its key out of the job
        base = {"mode": "frenet", "curve": LINE_CURVE} if cfg.get("mode", "frenet") == "frenet" else {}
        cfg = {k: v for k, v in {**base, **cfg}.items() if v is not None}
        path = self.write_config(tmp_path, cfg)
        assert main([cfg["mode"], "--config", path]) == 2
        assert f"config field '{field}'" in capsys.readouterr().err

    def test_failed_point_is_exit_1(self, tmp_path, capsys):
        # the second matrix has a vanishing leading block
        cfg = {"gradation": {"sizes": [1, 1]}, "matrices": [[[2, 1], [1, 1]], [[0, 1], [1, 0]]]}
        path = self.write_config(tmp_path, cfg)
        out = tmp_path / "r.json"
        assert main(["gauss", "--config", path, "--out", str(out)]) == 1
        points = json.loads(out.read_text())["points"]
        assert [p["status"] == "ok" for p in points] == [True, False]

    def test_overflowing_gram_block_fails_its_point(self, tmp_path, capsys):
        # away from the centre of this grid the gram blocks of (1, z)
        # overflow; the condition guard fails those points, the SVD error
        # of the overflowed block does not escape
        cfg = {"curve": LINE_CURVE, "grid": {"radius": 1e300, "nx": 3, "ny": 3}}
        path = self.write_config(tmp_path, cfg)
        out = tmp_path / "r.json"
        with np.errstate(all="ignore"):
            assert main(["frenet", "--config", path, "--out", str(out)]) == 1
        points = json.loads(out.read_text())["points"]
        failed = [p for p in points if p["status"] != "ok"]
        assert len(failed) == 8
        assert all(p["status"].startswith("failed: SingularBeta") for p in failed)
        assert [p["z"] for p in points if p["status"] == "ok"] == [[0.0, 0.0]]

    def test_non_hermitian_job_gates_only_toda_residuals(self, tmp_path, capsys):
        # gamma is not hermitian here; outside hermitian mode there is no
        # frame phi, and neither hermiticity nor the frame relation is reported
        cfg = dict(
            LINE_TODA,
            hermitian_mode=False,
            seeds={
                "gamma_minus": [[[1, 0.25], [0]], [[0], [1]]],
                "gamma_plus": [[[1], [0]], [[0], [1]]],
                "c_minus": [[[0], [0]], [[1], [0]]],
                "c_plus": [[[0], [-1]], [[0], [0]]],
            },
        )
        out = tmp_path / "r.json"
        assert main(["toda-solve", "--config", self.write_config(tmp_path, cfg), "--out", str(out)]) == 0
        points = json.loads(out.read_text())["points"]
        for p in points:
            assert p["status"] == "ok"
            assert set(p["residuals"]) == {"toda_0", "toda_1"}
            assert "hermiticity" not in p["values"] and "phi_relation" not in p["values"]
