"""Every mode of a spectrum read in one stacked call, held to the per-mode path bit for bit.

``Spectrum.eval`` evaluates all modes in (modes, points) tables, and ``spectral.mode_checks``
takes every check per mode from those tables.  The references here are the per-mode loops
they replaced: one ``PiecewiseForm.eval`` per mode, and ``verify`` as a loop over
``residual_report``, ``gram_matrix`` and ``a_form``.
"""

from __future__ import annotations

import argparse
import math
from pathlib import Path

import numpy as np
import pytest

from crackedbeam import (
    BeamProblem,
    Eigenpair,
    PiecewiseForm,
    QuadratureRule,
    Spectrum,
    a_form,
    cli,
    gram_matrix,
    load_problem_file,
    modes,
    normalize_eigenpair,
    residual_report,
    shifrin,
    spectral,
    transition,
)

FIXTURES = sorted((Path(__file__).resolve().parents[1] / "fixtures").glob("*.json"))


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _random_spectrum(rng, cracks: int, count: int) -> Spectrum:
    positions = np.sort(rng.uniform(0.05, math.pi - 0.05, cracks))
    bp = (0.0, *positions.tolist(), math.pi)
    lams = np.sort(rng.uniform(0.5, 80.0, count))
    rows = rng.standard_normal((count, cracks + 1, 4))
    return Spectrum(tuple(Eigenpair(lam, PiecewiseForm(lam, bp, co)) for lam, co in zip(lams, rows)))


class TestStackedEvaluation:
    @pytest.mark.parametrize("block_values", [modes.BLOCK_VALUES, 64, 1])
    @pytest.mark.parametrize("cracks", [1, 2, 7, 30])
    def test_rows_equal_each_mode_bit_for_bit(self, monkeypatch, cracks, block_values):
        # Blocks of every mode, of a few and of one: the blocking never changes a bit.
        monkeypatch.setattr(modes, "BLOCK_VALUES", block_values)
        rng = np.random.default_rng(cracks)
        spectrum = _random_spectrum(rng, cracks, 9)
        bp = spectrum.pairs[0].piecewise.breakpoints
        xs = np.concatenate([bp, rng.uniform(0.0, math.pi, 50), [-0.5, 4.0]])
        for order in range(5):
            for side in "LR":
                table = spectrum.eval(xs, order, side)
                assert table.shape == (9, len(xs))
                for row, pair in zip(table, spectrum.pairs):
                    assert _bits(row) == _bits(pair.eval(xs, order, side))

    def test_reduce_equals_reducing_each_row(self, monkeypatch):
        monkeypatch.setattr(modes, "BLOCK_VALUES", 100)
        spectrum = _random_spectrum(np.random.default_rng(3), 4, 12)
        rule = QuadratureRule.for_problem(BeamProblem(), 80.0)
        got = spectrum.eval(rule.nodes, 2, reduce=lambda v: rule.integrate(v * v))
        want = [rule.integrate(v * v) for v in spectrum.eval(rule.nodes, 2)]
        assert _bits(got) == _bits(want)

    def test_one_mode_at_a_point_is_a_float(self):
        pair = _random_spectrum(np.random.default_rng(5), 2, 1).pairs[0]
        assert type(pair.eval(1.0)) is float
        grid = np.linspace(0.0, math.pi, 12).reshape(3, 4)
        assert pair.eval(grid, 2).shape == (3, 4)
        assert _bits(pair.eval(grid, 2).ravel()) == _bits(pair.eval(grid.ravel(), 2))


def _looped_normalized(lams, rows, breakpoints, rule) -> np.ndarray:
    """Each mode's norm taken alone, then the sign rule of ``modes._normalized``."""
    out = []
    for lam, co in zip(lams.tolist(), rows):
        form = PiecewiseForm(lam, breakpoints, co)
        values = form.eval(rule.nodes)
        norm = np.sqrt(rule.integrate(values * values))
        slope, third = form.eval(0.0, 1, "R"), form.eval(0.0, 3, "R")
        up = (slope if slope != 0.0 else third if third != 0.0 else 1.0) > 0.0
        out.append(co * ((1.0 if up else -1.0) / norm))
    return np.array(out)


class TestStackedNormalization:
    @pytest.mark.parametrize("count", [5, 40, 340])
    @pytest.mark.parametrize("path", FIXTURES[:3], ids=lambda p: p.stem)
    def test_stacked_norms_equal_one_mode_normalization(self, path, count):
        problem = load_problem_file(path)[0]
        roots = np.array(shifrin.find_eigenvalues(problem, count))
        raw = transition._modes_from_roots(problem, roots)
        rule = QuadratureRule.for_problem(problem, roots.max())
        bp = problem.breakpoints
        stacked = modes._normalized(roots, raw, bp, rule)
        one_by_one = [
            normalize_eigenpair(Eigenpair(lam, PiecewiseForm(lam, bp, co)), rule)
            for lam, co in zip(roots.tolist(), raw)
        ]
        assert _bits(stacked) == _bits([p.piecewise.coefficients for p in one_by_one])
        # The loop reads the sign off phi'(0+) times lam, a positive factor: the same signs.
        assert _bits(stacked) == _bits(_looped_normalized(roots, raw, bp, rule))


def _looped_checks(problem, spectrum, oracle) -> dict[str, list[float]]:
    """Every check per mode, one mode at a time: the loop ``verify`` was before it took the
    stacked tables, with each Gram entry charged to the higher of its two modes."""
    pairs = spectrum.pairs
    rule = QuadratureRule.for_problem(problem, lam=spectrum.lambdas.max())
    gram = np.abs(gram_matrix(pairs, rule) - np.eye(len(pairs)))
    norms = np.diag(gram_matrix(pairs, rule)).tolist()
    grid = np.linspace(0.0, math.pi, spectral.CROSS_GRID_POINTS)
    out = {name: [] for name in cli.THRESHOLDS}
    for k, (pair, other, h) in enumerate(zip(pairs, oracle.pairs, norms)):
        report = residual_report(pair, problem)
        for family in spectral.FAMILIES:
            out[family].append(report.worst()[family] / report.scale)
        out["ode_residual"].append(report.ode_residual / report.lam**4)
        out["h_normalization"].append(abs(h - 1.0))
        out["gram_identity"].append(max(gram[k, : k + 1].max(), gram[: k + 1, k].max()))
        rayleigh = a_form(pair, pair, problem, rule) / h
        out["rayleigh"].append(abs(rayleigh - pair.lam**4) / pair.lam**4)
        out["cross_solver_lambda"].append(abs(pair.lam - other.lam))
        out["cross_solver_modes"].append(float(np.max(np.abs(pair.eval(grid) - other.eval(grid)))))
    return out


def _looped_verify(problem, spectrum, oracle) -> dict[str, float]:
    """``verify`` as a loop over residual_report, gram_matrix and a_form, maxing as it did."""
    pairs = spectrum.pairs
    rule = QuadratureRule.for_problem(problem, lam=spectrum.lambdas.max())
    reports = [residual_report(p, problem) for p in pairs]
    worst = {f: max(r.worst()[f] / r.scale for r in reports) for f in spectral.FAMILIES}
    worst["ode_residual"] = max(r.ode_residual / r.lam**4 for r in reports)
    gram = gram_matrix(pairs, rule)
    norms = np.diag(gram).tolist()
    worst["h_normalization"] = max(abs(h - 1.0) for h in norms)
    worst["gram_identity"] = float(np.max(np.abs(gram - np.eye(len(pairs)))))
    worst["rayleigh"] = max(
        abs(a_form(p, p, problem, rule) / h - p.lam**4) / p.lam**4 for p, h in zip(pairs, norms)
    )
    grid = np.linspace(0.0, math.pi, spectral.CROSS_GRID_POINTS)
    worst["cross_solver_lambda"] = float(np.max(np.abs(spectrum.lambdas - oracle.lambdas)))
    worst["cross_solver_modes"] = max(
        float(np.max(np.abs(ps.eval(grid) - pt.eval(grid))))
        for ps, pt in zip(spectrum.pairs, oracle.pairs)
    )
    return worst


def _hex(values: dict) -> dict:
    return {name: [float(v).hex() for v in np.atleast_1d(value)] for name, value in values.items()}


class TestModeChecks:
    @pytest.mark.parametrize("count", [5, 20, 40])
    @pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
    def test_verify_equals_the_per_mode_loop_bit_for_bit(self, path, count):
        problem = load_problem_file(path)[0]
        jump = shifrin.compute_spectrum(problem, count)
        oracle = transition.oracle_eigenpairs(problem, count)
        for spectrum, other in ((jump, oracle), (oracle, jump)):
            got = spectral.verify(problem, spectrum, other)
            assert list(got) == list(cli.THRESHOLDS)
            assert _hex(got) == _hex(_looped_verify(problem, spectrum, other))

    @pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
    def test_per_mode_values_equal_the_loop_and_max_to_verify(self, path):
        problem = load_problem_file(path)[0]
        jump = shifrin.compute_spectrum(problem, 20)
        oracle = transition.oracle_eigenpairs(problem, 20)
        checks = spectral.mode_checks(problem, jump, oracle)
        assert list(checks) == list(cli.THRESHOLDS)
        assert all(values.shape == (20,) for values in checks.values())
        assert _hex(checks) == _hex(_looped_checks(problem, jump, oracle))
        worst = {name: float(np.max(values)) for name, values in checks.items()}
        assert worst == spectral.verify(problem, jump, oracle)

    def test_gram_entries_charge_the_higher_mode_both_ways(self, two_crack_problem):
        spectrum = shifrin.compute_spectrum(two_crack_problem, 6)
        # Mode 6 repeats mode 2: the entries (2, 6) and (6, 2) read 1, charged to mode 6 alone.
        pairs = spectrum.pairs[:5] + spectrum.pairs[1:2]
        checks = spectral.mode_checks(two_crack_problem, Spectrum(pairs), spectrum)
        gram = checks["gram_identity"]
        assert abs(gram[5] - 1.0) < 1e-12 and np.all(gram[:5] < 1e-10)


class TestRowFormatting:
    @staticmethod
    def _cell(value) -> str:
        """The per-cell formatting the row format replaced."""
        return f"{value:.15g}" if isinstance(value, float) else str(value)

    def test_rows_format_as_each_cell_did(self):
        specials = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300, -1e-300, 0.1 + 0.2]
        rows = [[k, x, side, x * 3.0] for k, x in enumerate(specials) for side in ("", "L")]
        rows.append([10**20, -7.0, "R", 1.0])
        args = argparse.Namespace(format="csv")
        text = cli._emit_table(args, ["k", "x", "side", "y"], rows)
        want = "\n".join(["k,x,side,y", *(",".join(map(self._cell, row)) for row in rows)]) + "\n"
        assert text == want
