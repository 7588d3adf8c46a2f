"""Configuration parsing, the mode pipelines, the report, exit codes."""

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
from test_acceptance import random_gamma_seed, subdiagonal_lowering
from test_columns import corpus

from todaframes import cli, frenet, toda
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
from todaframes.linalg import BlockStructure
from todaframes.poly import GaussianRational, Poly


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
# the seed diag(z, 1) is singular at the centre of the grid, which lies on
# the straight legs from the basepoint 0.5 to two of its points
SINGULAR_SEED_TODA = dict(
    LINE_TODA,
    integration={"basepoint": 0.5},
    seeds=dict(LINE_TODA["seeds"], gamma_minus=[[[0, 1], [0]], [[0], [1]]]),
)
# the seeds of LINE_TODA outside hermitian mode
GENERAL_SEEDS = dict(LINE_TODA["seeds"], gamma_plus=[[[1], [0]], [[0], [1]]], c_plus=[[[0], [-1]], [[0], [0]]])


class TestConfigParsing:
    def test_minimal_frenet(self):
        cfg = parse_config({"mode": "frenet", "curve": LINE_CURVE})
        assert cfg.mode == "frenet"
        assert cfg.curve.shape == (2, 1)
        assert cfg.residual_tol == 1e-5
        assert cfg.basepoint == 0

    @pytest.mark.parametrize("raw", [[], "frenet", None, 3], ids=["list", "string", "null", "number"])
    def test_non_object_config(self, raw):
        with pytest.raises(ConfigError) as info:
            parse_config(raw)
        assert info.value.field == ""
        assert str(info.value) == "config field '': configuration must be an object"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_config({"mode": "frenet", "curve": LINE_CURVE, "curv": []})

    def test_bad_mode(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="mode"):
            parse_config({"mode": "fernet"})
        # a removed mode is refused as a misspelt one is
        jobs = {
            "grading": {"gradation": {"sizes": [1, 1], "labels": [1]}},
            "gauss": {"gradation": {"sizes": [1, 1]}, "matrices": [[[1, 0], [0, 1]]]},
        }
        for mode, job in jobs.items():
            with pytest.raises(ConfigError, match="'mode': must be one of"):
                parse_config(dict(job, mode=mode))
            path = tmp_path / "job.json"
            path.write_text(json.dumps(job))
            # the CLI returns 2 with parse_config's one line, as for any config problem
            assert main([mode, "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert "'mode': must be one of frenet, verify-frenet, toda-solve, verify-toda" in err

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

    def test_coefficients_parse_as_their_exact_values(self):
        # every spelling, negative and unreduced denominators included, gives
        # the polynomial of the coefficients as exact Gaussian rationals
        spelled = [
            (7, GaussianRational(7)),
            (-0.125, GaussianRational(Fraction(-1, 8))),
            (1 / 3, GaussianRational(Fraction(1, 3))),
            ([2, -5], GaussianRational(2, -5)),
            ([0.5, 3], GaussianRational(Fraction(1, 2), 3)),
            ([6, -4, 10, 15], GaussianRational(Fraction(-3, 2), Fraction(2, 3))),
            ([-1, -7, 0, -2], GaussianRational(Fraction(1, 7))),
            ([2**80, 3**40, 5, 2**70], GaussianRational(Fraction(2**80, 3**40), Fraction(5, 2**70))),
            (0, GaussianRational(0)),
        ]
        for k in range(len(spelled) + 1):
            coeffs = [v for v, _ in spelled[k:] + spelled[:k]]
            want = Poly([c for _, c in spelled[k:] + spelled[:k]])
            got = cli._as_poly(coeffs, "p")
            assert (got.num, got.den) == (want.num, want.den)
        assert cli._as_poly(0.75, "p") == Poly([GaussianRational(Fraction(3, 4))])
        assert cli._as_poly([], "p") == Poly()

    def test_float_range_checked_on_each_part(self):
        # the check divides each part's integers, as float(Fraction) does
        for ok in ([10**400, 10**92, 0, 1], [1, 10**400, 0, 1], [3, 2**1100, 1, 1]):
            cli._as_poly([ok], "p")
        for bad in ([10**400, 10**90, 0, 1], [0, 1, -(10**309), 1], [2**1100, 3, 5, 2**80], 10**309):
            with pytest.raises(ConfigError, match="'p': a coefficient is beyond the float range"):
                cli._as_poly([1, bad], "p")

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
    # keys no mode reads, a config error in every mode
    "count": 1,
    "seed": 0,
    "matrices": [[[1, 0], [0, 1]]],
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

    def test_twenty_pairs_are_read(self):
        assert cli.MODES == ("frenet", "verify-frenet", "toda-solve", "verify-toda")
        assert set(cli._MODE_KEYS) == set(cli.MODES)
        assert all(set(keys) <= set(KEY_VALUES) for keys in cli._MODE_KEYS.values())
        assert sum(len(keys) for keys in cli._MODE_KEYS.values()) == 20

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

    @pytest.mark.parametrize("scale", [1, 10, 30, 100])
    @pytest.mark.parametrize("degree", [3, 4, 5, 6])
    def test_scaled_normal_curve_passes(self, degree, scale):
        # (1, s z, ..., s^d z^d) is the normal curve in the metric
        # diag(s^(2i)), so every identity holds: the frame blocks stay h
        # orthogonal however far apart the scales of the levels are
        curve = [[[0] * m + [scale**m]] for m in range(degree + 1)]
        report = run({"mode": "verify-frenet", "curve": curve, "grid": {"radius": 0.7, "nx": 7, "ny": 7}})
        assert all(p.ok for p in report.points)
        assert report.exit_code() == 0
        assert report.max_residual <= 1e-11

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


def gaussian_integers(rng, bound, shape):
    """Random Gaussian integers with both parts in [-bound, bound]."""
    return rng.integers(-bound, bound + 1, size=shape) + 1j * rng.integers(-bound, bound + 1, size=shape)


def pairs(m):
    """A matrix of Gaussian integers as config [re, im] pairs."""
    return [[[int(v.real), int(v.imag)] for v in row] for row in m]


class TestMetricCovariance:
    """The frame of the curve xi in the metric G^dagger G is G^-1 times the
    frame of G xi in the identity metric, with the same gram blocks: the
    two reports agree, through parse_config's reading of metric_h."""

    def test_metric_equals_moved_curve(self):
        rng = np.random.default_rng(0)
        for job in corpus.make_jobs("exact-corpus", 0):
            xi = job["curve"]
            n, width = len(xi), max(len(entry) for row in xi for entry in row)
            # well conditioned, and G^dagger G is not real, so it differs from its transpose
            g = gaussian_integers(rng, 2, (n, n)) + 6 * np.eye(n)
            coeffs = np.array([[entry + [0] * (width - len(entry)) for entry in row] for row in xi])
            moved = np.einsum("ij,jkl->ikl", g, coeffs)
            with_metric = run(dict(job, metric_h=pairs(g.conj().T @ g)))
            without = run(dict(job, curve=[pairs(row) for row in moved]))
            assert [p.status for p in with_metric.points] == [p.status for p in without.points]
            for p, q in zip(with_metric.points, without.points):
                assert p.values.keys() == q.values.keys()
                for name, v in p.values.items():
                    if name.startswith("g_"):
                        assert abs(v - q.values[name]) <= 1e-11 * abs(q.values[name])
                    else:
                        assert abs(v - q.values[name]) <= 1e-11


class TestTodaModes:
    def test_line_solve_report(self):
        report = run(LINE_TODA)
        assert len(report.points) == 9
        assert report.summary["points_ok"] == 9
        for p in report.points:
            assert p.ok
            assert p.residuals["phi_relation"] < 1e-8
            assert p.residuals["toda_0"] < 1e-12
            assert p.residuals["toda_1"] < 1e-12
            r2 = abs(p.z) ** 2
            assert p.values["g_0"] == pytest.approx((1.0 + r2) ** -2, rel=1e-6)
            assert p.values["ln_det_beta_0"] == pytest.approx(
                np.log(1.0 + r2), abs=1e-8
            )
        assert report.exit_code() == 0

    def test_verify_toda_adds_transport(self):
        # verify-toda reports the columns of toda-solve, with the same
        # values, and the bent-path transport check; nothing else
        cfg = dict(LINE_TODA, grid={"radius": 0.5, "nx": 2, "ny": 1})
        solved = run(dict(cfg, mode="toda-solve"))
        verified = run(dict(cfg, mode="verify-toda"))
        for p, q in zip(solved.points, verified.points):
            assert p.ok and q.ok
            assert set(q.residuals) == set(p.residuals) | {"transport"}
            assert set(p.residuals) == {"phi_relation", "toda_0", "toda_1"}
            assert {k: q.residuals[k] for k in p.residuals} == p.residuals
            assert q.residuals["transport"] < 1e-12

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

            jet, phi = sol.gamma_jet.copy(), sol.phi.copy()
            jet[:, 1] = phi[1] = np.nan
            failures = list(sol.failures)
            failures[1] = "integration: transport diverged"
            return dataclasses.replace(sol, gamma_jet=jet, phi=phi, failures=tuple(failures))

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

    def test_verify_toda_reports_the_transport_column(self):
        # the bent path basepoint -> basepoint + 0.5i radius -> z composes to
        # the straight factor; toda-solve has no such column
        for mode, hermitian in itertools.product(("toda-solve", "verify-toda"), (True, False)):
            cfg = dict(LINE_TODA, mode=mode, hermitian_mode=hermitian)
            if not hermitian:
                cfg["seeds"] = dict(GENERAL_SEEDS, gamma_minus=[[[1, 0.25], [0]], [[0], [1]]])
            report = run(cfg)
            assert report.summary["points_ok"] == 9
            for p in report.points:
                assert ("transport" in p.residuals) == (mode == "verify-toda")
                assert p.residuals.get("transport", 0.0) < 1e-14

    def test_failed_bent_path_fails_its_point(self):
        # gamma_minus vanishes at 1/4 + i/4, on the leg from m = 0.5i to the
        # centre 1/2 alone; that point fails in verify-toda only
        seeds = dict(LINE_TODA["seeds"], gamma_minus=[[[[1, 4, 1, 4], -1], [0]], [[0], [1]]])
        cfg = dict(LINE_TODA, grid={"center": 0.5, "radius": 1.0, "nx": 3, "ny": 1}, seeds=seeds)
        assert run(cfg).summary["points_ok"] == 3
        report = run(dict(cfg, mode="verify-toda"))
        statuses = [p.status for p in report.points]
        assert report.points[1].z == 0.5
        assert statuses[1].startswith("failed: integration: transport diverged")
        assert statuses[0] == statuses[2] == "ok"
        assert report.summary["points_ok"] == 2
        assert report.summary["failure_fraction"] == pytest.approx(1 / 3)
        assert report.exit_code() == 1

    def test_degraded_transport_fails_on_the_transport_column(self, monkeypatch):
        # the rng-77 (1, 2, 1) seeds on a 2 by 2 grid of radius 1.5; with
        # 4 nodes a piece, every leg stays unresolved and fails, and with
        # the resolution test off as well the factors are wrong by 1e-4,
        # which every Toda residual misses and the transport column reads
        rng = np.random.default_rng(77)
        blocks = BlockStructure((1, 2, 1))
        c_minus = subdiagonal_lowering(blocks)
        cfg = dataclasses.replace(
            parse_config({**LINE_TODA, "mode": "verify-toda", "gradation": {"sizes": [1, 2, 1]}}),
            grid=GridSpec(radius=1.5, nx=2, ny=2),
            gamma_minus=random_gamma_seed(rng, blocks),
            c_minus=c_minus,
        )
        assert run(cfg).exit_code() == 0
        monkeypatch.setattr(toda, "NODES", 4)
        toda._rule.cache_clear()
        try:
            unresolved = run(cfg)
            assert all(p.status.startswith("failed: integration: transport diverged") for p in unresolved.points)
            monkeypatch.setattr(toda, "TAIL_TOL", np.inf)
            report = run(cfg)
        finally:
            monkeypatch.undo()
            toda._rule.cache_clear()
        assert report.summary["points_ok"] == 4
        tol = report.summary["residual_tol"]
        for p in report.points:
            assert max(v for k, v in p.residuals.items() if k != "transport") < tol
        assert report.max_residual > tol and report.exit_code() == 1

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
        assert set(centre.residuals) == {"phi_relation", "toda_0", "toda_1"}
        assert max(centre.residuals.values()) < 1e-12
        others = report.points[:4] + report.points[5:]
        assert all(p.status.startswith("failed: integration: transport diverged") for p in others)
        assert report.exit_code() == 1


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
        assert json.loads(emit(report)) == report.to_dict()

    @pytest.mark.parametrize(
        "cfg",
        [
            {"mode": "frenet", "curve": LINE_CURVE, "grid": {"radius": 0.5, "nx": 2, "ny": 2}},
            {"mode": "verify-frenet", "curve": [[[1]], [[0, 1]], [[0, 0, 1]]], "grid": {"nx": 2, "ny": 1}},
            LINE_TODA,
            dict(LINE_TODA, mode="verify-toda", hermitian_mode=False, seeds=GENERAL_SEEDS),
            # two points fail: records with empty dicts
            pytest.param(SINGULAR_SEED_TODA, id="failed-point"),
        ],
        ids=lambda cfg: cfg["mode"],
    )
    def test_json_bytes_are_json_dumps(self, cfg):
        report = run(cfg)
        assert emit(report) == (json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n").encode()

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
        report = Report("1", "toda-solve", "now µ", summary, points)
        assert emit(report) == (json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n").encode()

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

    def test_spec_version_in_json(self):
        data = json.loads(emit(self.make_report()))
        assert data["spec_version"] == "1"

    def test_nan_residual_fails_the_gate(self):
        # max() would skip a NaN that comes after a number and keep one
        # that comes first; either way the report must not pass
        for residuals in ({"a": np.nan}, {"a": np.nan, "b": 1e-9}, {"b": 1e-9, "a": np.nan}):
            point = PointRecord(z=0.0, status="ok", residuals=residuals, values={})
            report = Report("1", "toda-solve", "now", {"residual_tol": 1e-5}, [point])
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
            assert Report("1", "toda-solve", "now", {}, points).max_residual == worst


def _case(number: int, cfg: dict, field: str):
    """A malformed job and the field its error names.  The id carries a
    fixed number, so that deleting a case renames no other case; a new case
    takes a number no case has had."""
    return pytest.param(cfg, field, id=f"cfg{number}-{field}")


class TestMain:
    def write_config(self, tmp_path, cfg) -> str:
        path = tmp_path / "job.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_runs_and_writes_the_report(self, tmp_path, capsys):
        path = self.write_config(tmp_path, {"curve": LINE_CURVE, "grid": {"radius": 0.5, "nx": 2, "ny": 2}})
        out = tmp_path / "report.json"
        assert main(["frenet", "--config", path, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(["frenet", "--config", path]) == 0
        stdout = capsys.readouterr().out.encode()

        def without_timestamp(data: bytes) -> list[bytes]:
            return [line for line in data.splitlines(keepends=True) if not line.startswith(b'  "generated_at": ')]

        assert len(without_timestamp(stdout)) == len(stdout.splitlines()) - 1
        assert without_timestamp(out.read_bytes()) == without_timestamp(stdout)

    def test_format_is_not_an_option(self, tmp_path, capsys):
        cfg = {"curve": LINE_CURVE, "grid": {"radius": 0.5, "nx": 1, "ny": 1}}
        with pytest.raises(SystemExit) as exc:
            main(["frenet", "--config", self.write_config(tmp_path, cfg), "--format", "json"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err

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
        path = self.write_config(tmp_path, {"mode": "toda-solve", "curve": LINE_CURVE})
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
            _case(0, {"tolerances": {"residual_tol": float("nan")}}, "tolerances.residual_tol"),
            _case(1, {"grid": {"radius": float("inf")}}, "grid.radius"),
            _case(2, {"grid": {"radius": 10**400}}, "grid.radius"),
            _case(3, {"grid": {"center": float("nan")}}, "grid.center"),
            _case(4, {"curve": [[[1]], [[0, float("inf")]]]}, "curve[1][0][1]"),
            _case(5, {"curve": [[[1]], [[0, [0.5, float("nan")]]]]}, "curve[1][0][1]"),
            _case(6, {"metric_h": [[1, 0], [0, float("nan")]]}, "metric_h[1][1]"),
            _case(7, dict(LINE_TODA, gradation={"sizes": 3}), "gradation.sizes"),
            _case(8, dict(LINE_TODA, gradation={"sizes": [1, 1], "labels": 1}), "gradation.labels"),
            _case(9, dict(LINE_TODA, gradation={"sizes": [1, 1], "levels": [1]}), "gradation.levels"),
            _case(10, {"max_denominator": 100}, "max_denominator"),
            _case(11, dict(LINE_TODA, metric_h=[[1, 0, 0], [0, 1, 0], [0, 0, 1]]), "metric_h"),
            _case(12, dict(LINE_TODA, mode="verify-toda", metric_h=[[1]]), "metric_h"),
            _case(13, dict(LINE_TODA, seeds=dict(LINE_TODA["seeds"], g0=[[1, 0], [0, 1]])), "seeds.g0"),
            # a key no mode reads
            _case(14, dict(LINE_TODA, seed=-1), "seed"),
            _case(15, {"grid": {"nx": 3, "ny": 0}}, "grid.ny"),
            _case(16, {"curve": [[[1]], [[0, 10**400]]]}, "curve[1][0]"),
            _case(17, {"curve": [[[1]], [[0, [10**400, 1, 0, 1]]]]}, "curve[1][0]"),
            # finite as parsed, but the derivative 2 * 10**308 z is not
            _case(18, {"curve": [[[1]], [[0, 0, 10**308]]]}, "curve"),
            _case(
                19,
                dict(LINE_TODA, seeds=dict(LINE_TODA["seeds"], gamma_minus=[[[1, 0, 10**308], [0]], [[0], [1]]])),
                "seeds",
            ),
            # a malformed Toda input is named by its own field
            # c_minus of degree -2 over labels (1, 1): degree 1 is in the
            # band its gap 2 requires to be trivial
            _case(
                20,
                dict(
                    LINE_TODA,
                    gradation={"sizes": [1, 1, 1], "labels": [1, 1]},
                    seeds=dict(LINE_TODA["seeds"], c_minus=[[[0], [0], [0]], [[0], [0], [0]], [[1], [0], [0]]]),
                ),
                "seeds.c_minus",
            ),
            _case(21, dict(LINE_TODA, seeds=dict(LINE_TODA["seeds"], c_minus=[[[0]]])), "seeds.c_minus"),
            _case(
                22,
                dict(LINE_TODA, hermitian_mode=False, seeds=dict(GENERAL_SEEDS, c_plus=[[[0], [0]], [[1], [0]]])),
                "seeds.c_plus",
            ),
            _case(23, dict(LINE_TODA, seeds=dict(LINE_TODA["seeds"], gamma_minus=[[[1]]])), "seeds.gamma_minus"),
            _case(
                24,
                dict(LINE_TODA, hermitian_mode=False, seeds=dict(GENERAL_SEEDS, gamma_plus=[[[1], [1]], [[0], [1]]])),
                "seeds.gamma_plus",
            ),
            # a metric of the wrong size for the curve is the input's fault
            _case(25, {"metric_h": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}, "metric_h"),
            _case(26, {"grid": {"radius": "1"}}, "grid.radius"),
            _case(27, {"grid": {"nx": 2.0}}, "grid.nx"),
            _case(28, {"grid": {"center": [1, 2, 3]}}, "grid.center"),
            _case(29, {"grid": []}, "grid"),
            # a quadruple of non integers, a coefficient of three numbers, a
            # dict entry in place of a coefficient list
            _case(30, {"curve": [[[1]], [[0, [1, 2, 0, 1.5]]]]}, "curve[1][0][1]"),
            _case(31, {"curve": [[[1]], [[0, [1, 2, 3]]]]}, "curve[1][0][1]"),
            _case(32, {"curve": [[[1]], [{"re": 1}]]}, "curve[1][0]"),
            _case(33, {"curve": [1, 2]}, "curve"),
            _case(34, {"curve": [[[1], [0]], [[1]]]}, "curve"),
            _case(35, {"metric_h": [1]}, "metric_h"),
            _case(36, {"metric_h": [[1, 0], [0]]}, "metric_h"),
            _case(37, {"metric_h": [[1, 1], [0, 1]]}, "metric_h"),
            _case(38, dict(LINE_TODA, gradation={"labels": [1]}), "gradation.sizes"),
            _case(39, dict(LINE_TODA, gradation={"sizes": [1, 1], "labels": [1, 2]}), "gradation"),
            _case(40, {"hermitian_mode": 1}, "hermitian_mode"),
            _case(41, {"gap": 0}, "gap"),
            # a required input left out
            _case(44, {"curve": None}, "curve"),
            _case(45, dict(LINE_TODA, gradation=None), "gradation"),
            _case(46, dict(LINE_TODA, seeds={"gamma_minus": LINE_TODA["seeds"]["gamma_minus"]}), "seeds.c_minus"),
            _case(47, dict(LINE_TODA, gradation=None, seeds=None), "gradation"),
            _case(48, dict(LINE_TODA, gradation=None, hermitian_mode=False), "gradation"),
            _case(
                49,
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
        path = self.write_config(tmp_path, SINGULAR_SEED_TODA)
        out = tmp_path / "r.json"
        assert main(["toda-solve", "--config", path, "--out", str(out)]) == 1
        points = json.loads(out.read_text())["points"]
        assert [p["status"] == "ok" for p in points] == [True] * 3 + [False] * 2 + [True] * 4

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
