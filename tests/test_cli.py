"""End-to-end coverage of the command line: output schemas, exit codes."""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from crackedbeam import cli, compute_spectrum, load_problem_file

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
UNIFORM = str(FIXTURES / "uniform.json")
ONE_CRACK = str(FIXTURES / "one_crack.json")
TWO_CRACK = str(FIXTURES / "two_crack.json")
NODE_CRACK = str(FIXTURES / "node_crack.json")
STEEL = str(FIXTURES / "steel_beam.json")
FAULTED = str(FIXTURES / "fault_injected.json")


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestSpectrum:
    def test_uniform_values(self, capsys):
        code, out, _ = run(capsys, "spectrum", UNIFORM, "--modes", "3")
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["k", "lambda", "lambda4"]
        for row, (k, lam, lam4) in zip(rows, [(1, 1, 1), (2, 2, 16), (3, 3, 81)]):
            assert int(row[0]) == k
            assert float(row[1]) == pytest.approx(lam, abs=1e-9)
            assert float(row[2]) == pytest.approx(lam4, rel=1e-9)

    def test_byte_stability(self, capsys):
        _, first, _ = run(capsys, "spectrum", ONE_CRACK, "--modes", "4")
        _, second, _ = run(capsys, "spectrum", ONE_CRACK, "--modes", "4")
        assert first == second

    def test_both_solvers_add_agreement_column(self, capsys):
        code, out, _ = run(capsys, "spectrum", TWO_CRACK, "--modes", "3", "--solver", "both")
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["k", "lambda", "lambda4", "agreement"]
        assert all(float(row[3]) <= 1e-8 for row in rows)

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        _, streamed, _ = run(capsys, "spectrum", UNIFORM)
        target = tmp_path / "spec.csv"
        code, out, _ = run(capsys, "spectrum", UNIFORM, "--output", str(target))
        assert code == 0 and out == ""
        assert target.read_text(encoding="utf-8") == streamed

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "spectrum", UNIFORM, "--modes", "2", "--format", "json")
        assert code == 0
        body = json.loads(out)
        assert body["columns"] == ["k", "lambda", "lambda4"]
        assert len(body["rows"]) == 2
        assert body["rows"][1][1] == pytest.approx(2.0, abs=1e-9)

    def test_csv_floats_reemit_byte_identically(self, capsys):
        _, out, _ = run(capsys, "spectrum", TWO_CRACK, "--modes", "5")
        header, rows = csv_rows(out)
        rebuilt = [",".join(header)]
        for row in rows:
            rebuilt.append(
                ",".join([row[0]] + [f"{float(v):.15g}" for v in row[1:]])
            )
        assert "\n".join(rebuilt) + "\n" == out


class TestModes:
    def test_uniform_midspan_value(self, capsys):
        code, out, _ = run(capsys, "modes", UNIFORM, "--modes", "1", "--samples", "3")
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["k", "x", "side", "phi", "dphi", "d2phi"]
        assert len(rows) == 3
        mid = rows[1]
        assert float(mid[1]) == pytest.approx(math.pi / 2, abs=1e-12)
        assert mid[2] == ""
        assert float(mid[3]) == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-9)
        assert abs(float(mid[4])) <= 1e-9

    def test_crack_rows_satisfy_jump_law(self, capsys):
        code, out, _ = run(capsys, "modes", ONE_CRACK, "--modes", "2", "--samples", "21")
        assert code == 0
        _, rows = csv_rows(out)
        for k in ("1", "2"):
            sided = {row[2]: row for row in rows if row[0] == k and row[2] in ("L", "R")}
            assert set(sided) == {"L", "R"}
            assert float(sided["L"][1]) == float(sided["R"][1]) == 1.0
            jump = float(sided["R"][4]) - float(sided["L"][4])
            assert jump == pytest.approx(0.3 * float(sided["R"][5]), abs=1e-8)
            # Displacement and moment stay continuous across the crack.
            assert float(sided["R"][3]) == pytest.approx(float(sided["L"][3]), abs=1e-10)
            assert float(sided["R"][5]) == pytest.approx(float(sided["L"][5]), abs=1e-8)

    def test_array_sampling_matches_pointwise_values(self):
        problem, _, _ = load_problem_file(TWO_CRACK)
        spectrum = compute_spectrum(problem, 3)
        rows = cli._mode_rows(problem, spectrum, 41)
        assert len(rows) == 3 * (41 + 2 * 2)  # and both sides of each of the two cracks
        looped = [
            [k, x, side, *(float(spectrum.pairs[k - 1].eval(x, o, side or "R")) for o in range(3))]
            for k, x, side, *_ in rows
        ]
        assert rows == looped


class TestFrequencies:
    def unit_beam_doc(self, L: float) -> dict:
        return {
            "beam": {"L": L, "E": 1.0, "rho": 1.0, "A": 1.0, "I": 1.0},
            "cracks": [],
        }

    def test_unit_beam_frequencies(self, capsys, tmp_path):
        path = tmp_path / "unit.json"
        path.write_text(json.dumps(self.unit_beam_doc(math.pi)), encoding="utf-8")
        code, out, _ = run(capsys, "frequencies", str(path), "--modes", "3")
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["k", "lambda", "omega", "f_hz"]
        for row in rows:
            k = int(row[0])
            assert float(row[2]) == pytest.approx(k**2, rel=1e-9)
            assert float(row[3]) == pytest.approx(k**2 / (2 * math.pi), rel=1e-9)

    def test_length_doubling_quarters_frequencies(self, capsys, tmp_path):
        path = tmp_path / "long.json"
        path.write_text(json.dumps(self.unit_beam_doc(2 * math.pi)), encoding="utf-8")
        code, out, _ = run(capsys, "frequencies", str(path), "--modes", "2")
        assert code == 0
        _, rows = csv_rows(out)
        assert float(rows[0][2]) == pytest.approx(0.25, rel=1e-9)
        assert float(rows[1][2]) == pytest.approx(1.0, rel=1e-9)

    def test_nondimensional_input_is_rejected(self, capsys):
        code, _, err = run(capsys, "frequencies", UNIFORM)
        assert code == 2
        body = json.loads(err)
        assert body["error"]["type"] == "validation"

    def test_physical_fixture_runs(self, capsys):
        code, out, _ = run(capsys, "frequencies", STEEL, "--modes", "2")
        assert code == 0
        _, rows = csv_rows(out)
        assert float(rows[0][2]) > 0.0


class TestDetScan:
    def test_uniform_sign_changes_bracket_integers(self, capsys):
        code, out, _ = run(
            capsys, "det-scan", UNIFORM, "--lambda-min", "0.5", "--lambda-max", "3.5"
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["lambda", "det_shifrin", "det_transition", "sign_change"]
        flagged = [float(row[0]) for row in rows if row[3] == "1"]
        assert len(flagged) == 3
        for lam, root in zip(flagged, (1.0, 2.0, 3.0)):
            assert root < lam <= root + 0.01 + 1e-9

    def test_solver_determinants_change_sign_together(self, capsys):
        _, out, _ = run(
            capsys, "det-scan", ONE_CRACK, "--lambda-min", "0.5", "--lambda-max", "4.5"
        )
        _, rows = csv_rows(out)
        values = [(float(r[1]), float(r[2])) for r in rows]
        for (s0, t0), (s1, t1) in zip(values, values[1:]):
            if s0 * s1 < 0:
                assert t0 * t1 < 0

    def test_degenerate_range_yields_single_row(self, capsys):
        code, out, _ = run(
            capsys, "det-scan", UNIFORM, "--lambda-min", "1.5", "--lambda-max", "1.5"
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == 1
        assert rows[0][3] == "0"


class TestValidate:
    @pytest.mark.parametrize(
        "fixture", [UNIFORM, ONE_CRACK, TWO_CRACK, NODE_CRACK, STEEL],
        ids=lambda p: Path(p).stem,
    )
    def test_clean_fixtures_pass(self, capsys, fixture):
        code, out, _ = run(capsys, "validate", fixture)
        assert code == 0
        body = json.loads(out)
        assert body["passed"] is True
        assert body["failed_checks"] == []
        assert {c["name"] for c in body["checks"]} >= {
            "bc_left",
            "bc_right",
            "crack_law",
            "gram_identity",
            "rayleigh",
            "cross_solver_lambda",
        }

    def test_fault_injection_is_caught_and_named(self, capsys):
        code, out, _ = run(capsys, "validate", FAULTED)
        assert code == 4
        body = json.loads(out)
        assert body["passed"] is False
        assert "crack_law" in body["failed_checks"]


class TestSolverChoice:
    @staticmethod
    def values(out: str) -> np.ndarray:
        _, rows = csv_rows(out)
        return np.array([[float(v) for v in row[3:]] for row in rows])

    def test_modes_by_transition_and_both(self, capsys):
        argv = ("modes", TWO_CRACK, "--modes", "3", "--samples", "21")
        code, jump, _ = run(capsys, *argv)
        assert code == 0
        code, oracle, _ = run(capsys, *argv, "--solver", "transition")
        assert code == 0
        assert csv_rows(oracle)[0] == csv_rows(jump)[0]
        assert [row[:3] for row in csv_rows(oracle)[1]] == [row[:3] for row in csv_rows(jump)[1]]
        assert np.allclose(self.values(oracle), self.values(jump), rtol=0.0, atol=1e-7)
        # Both solvers agree here, so 'both' prints the jump-amplitude modes.
        code, both, _ = run(capsys, *argv, "--solver", "both")
        assert code == 0
        assert both == jump

    @pytest.mark.parametrize("solver", ["transition", "both"])
    def test_frequencies_by_solver(self, capsys, solver):
        code, jump, _ = run(capsys, "frequencies", STEEL, "--modes", "3")
        assert code == 0
        code, out, _ = run(capsys, "frequencies", STEEL, "--modes", "3", "--solver", solver)
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["k", "lambda", "omega", "f_hz"]
        _, jump_rows = csv_rows(jump)
        for row, ref in zip(rows, jump_rows):
            assert float(row[1]) == pytest.approx(float(ref[1]), abs=1e-8)
        if solver == "both":
            assert out == jump


class TestVerificationFailure:
    """Exit 4 from the cross-solver checks of the non-validate subcommands."""

    @pytest.fixture
    def shifted_oracle(self, monkeypatch):
        find = cli.transition.find_eigenvalues
        monkeypatch.setattr(
            cli.transition,
            "find_eigenvalues",
            lambda *args, **kwargs: [lam + 1e-6 for lam in find(*args, **kwargs)],
        )

    def test_wavenumber_gap_exits_4(self, capsys, shifted_oracle):
        code, out, err = run(capsys, "frequencies", STEEL, "--modes", "3", "--solver", "both")
        assert code == 4
        assert out == ""
        body = json.loads(err)
        assert body["error"]["type"] == "verification"
        assert body["error"]["check"] == "cross_solver_lambda"
        assert "cross_solver_lambda" in body["error"]["message"]

    def test_spectrum_gap_exits_4(self, capsys, shifted_oracle):
        code, out, err = run(capsys, "spectrum", TWO_CRACK, "--modes", "3", "--solver", "both")
        assert code == 4
        assert out == ""
        body = json.loads(err)
        assert body["error"]["type"] == "verification"
        assert body["error"]["check"] == "cross_solver_lambda"
        message = body["error"]["message"]
        assert message.startswith("verification check cross_solver_lambda failed:")

    def test_mode_gap_exits_4(self, capsys, monkeypatch):
        oracle = cli.transition.oracle_eigenpairs

        def flipped(*args, **kwargs):
            spectrum = oracle(*args, **kwargs)
            negated = (
                replace(p, piecewise=replace(p.piecewise, coefficients=-p.piecewise.coefficients))
                for p in spectrum.pairs
            )
            return replace(spectrum, pairs=tuple(negated))

        monkeypatch.setattr(cli.transition, "oracle_eigenpairs", flipped)
        code, out, err = run(capsys, "modes", ONE_CRACK, "--modes", "2", "--solver", "both")
        assert code == 4
        assert out == ""
        assert json.loads(err)["error"]["check"] == "cross_solver_modes"


class TestErrorPaths:
    def test_root_shortfall_exits_3(self, capsys):
        code, _, err = run(capsys, "spectrum", UNIFORM, "--modes", "5", "--lambda-max", "2.5")
        assert code == 3
        body = json.loads(err)
        assert body["error"]["type"] == "root_shortfall"
        assert body["error"]["found"] == 2
        assert body["error"]["requested"] == 5
        assert body["error"]["message"].endswith("raise the scan ceiling")

    def test_roots_past_332_found_below_the_default_ceiling(self, capsys):
        # Interlacing puts root k of one crack in [k - 1, k], under the default ceiling of
        # 341.  From lam = 332 up, sinh(lam (pi - x_1)) overflows, so a system holding it
        # would lose the last roots; lost roots are covered in test_rootfind.py.
        code, out, err = run(capsys, "spectrum", ONE_CRACK, "--modes", "340")
        assert code == 0
        assert err == ""
        header, rows = csv_rows(out)
        assert [int(row[0]) for row in rows] == list(range(1, 341))
        assert all(k - 1 <= float(row[1]) <= k for k, row in enumerate(rows, start=1))

    def test_flexibility_1e300_reports_a_low_root_or_exits_3(self, capsys, tmp_path):
        # The count puts one root below 0.5, far below what a double resolves; the scan
        # this replaced reported 1.668 as the first root.
        path = tmp_path / "hinge.json"
        doc = {"nondimensional": True, "cracks": [{"x": 1.0, "theta": 1e300}]}
        path.write_text(json.dumps(doc), encoding="utf-8")
        for solver in ("shifrin", "transition"):
            code, out, err = run(capsys, "spectrum", str(path), "--modes", "3", "--solver", solver)
            if code == 0:
                assert float(csv_rows(out)[1][0][1]) < 0.5
            else:
                assert code == 3
                assert json.loads(err)["error"]["type"] == "root_shortfall"

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, "spectrum", str(bad))
        assert code == 2
        assert json.loads(err)["error"]["type"] == "validation"

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "spectrum", str(tmp_path / "absent.json"))
        assert code == 2
        assert json.loads(err)["error"]["type"] == "validation"

    def test_invalid_geometry_exits_2(self, capsys, tmp_path):
        doc = {"nondimensional": True, "cracks": [{"x": 9.0, "theta": 1.0}]}
        path = tmp_path / "outside.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, "spectrum", str(path))
        assert code == 2

    def test_bad_scan_range_exits_2(self, capsys):
        code, _, err = run(
            capsys, "det-scan", UNIFORM, "--lambda-min", "3.0", "--lambda-max", "1.0"
        )
        assert code == 2
        assert "reversed" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize(
        "argv, document, message",
        [
            (("spectrum", ONE_CRACK, "--modes", "0"), None, "need at least one mode"),
            (("modes", ONE_CRACK, "--samples", "1"), None, "need at least two sample points"),
            (
                # Rejected before any row is allocated, like a det-scan past the same cap.
                ("modes", ONE_CRACK, "--samples", str(cli._MAX_SCAN_POINTS + 1)),
                None,
                f"--samples must be at most {cli._MAX_SCAN_POINTS}",
            ),
            (
                # Rows are capped per run as well, before any mode is solved.
                ("modes", ONE_CRACK, "--modes", "11", "--samples", str(cli._MAX_SCAN_POINTS)),
                None,
                f"--modes times --samples must be at most {cli._MAX_MODE_ROWS}",
            ),
            (
                ("det-scan", ONE_CRACK, "--lambda-min", "0"),
                None,
                "scan must start at a positive wavenumber",
            ),
            (("det-scan", ONE_CRACK, "--step", "0"), None, "scan step must be positive"),
            (
                ("spectrum", ONE_CRACK, "--lambda-max", "nan"),
                None,
                "--lambda-max must be a finite number, not nan",
            ),
            (
                ("validate", ONE_CRACK, "--lambda-max", "inf"),
                None,
                "--lambda-max must be a finite number, not inf",
            ),
            (
                ("det-scan", ONE_CRACK, "--lambda-max", "inf"),
                None,
                "--lambda-max must be a finite number, not inf",
            ),
            (
                ("spectrum", ONE_CRACK, "--lambda-max", "1e308"),
                None,
                "--lambda-max: wavenumber must be at most 1e+100",
            ),
            (
                ("modes", ONE_CRACK, "--lambda-max", "1e308"),
                None,
                "--lambda-max: wavenumber must be at most 1e+100",
            ),
            (
                ("frequencies", STEEL, "--lambda-max", "1e308"),
                None,
                "--lambda-max: wavenumber must be at most 1e+100",
            ),
            (
                ("validate", ONE_CRACK, "--lambda-max", "1e308"),
                None,
                "--lambda-max: wavenumber must be at most 1e+100",
            ),
            (
                ("spectrum", ONE_CRACK, "--lambda-max", "0"),
                None,
                "--lambda-max: wavenumber must be positive",
            ),
            (
                ("modes", ONE_CRACK, "--lambda-max", "-1"),
                None,
                "--lambda-max: wavenumber must be positive",
            ),
            (
                ("det-scan", ONE_CRACK, "--lambda-max", "1e308", "--step", "1e-300"),
                None,
                "--lambda-max spans too many scan steps",
            ),
            (
                ("det-scan", ONE_CRACK, "--lambda-max", "1e9"),
                None,
                "--lambda-max spans too many scan steps",
            ),
            (
                ("det-scan", ONE_CRACK, "--lambda-min", "1e103", "--lambda-max", "1e103"),
                None,
                "scan must end at a wavenumber of at most 1e+100",
            ),
            (
                ("det-scan", ONE_CRACK, "--lambda-min", "1e308", "--lambda-max", "1e308",
                 "--step", "1e-300"),
                None,
                "scan must end at a wavenumber of at most 1e+100",
            ),
            (
                # 1.67 steps round to 2: the last point, 1.2e100, lies past --lambda-max.
                ("det-scan", ONE_CRACK, "--lambda-min", "1", "--lambda-max", "1e100",
                 "--step", "6e99"),
                None,
                "scan must end at a wavenumber of at most 1e+100",
            ),
            (
                ("det-scan", ONE_CRACK, "--lambda-min", "nan"),
                None,
                "--lambda-min must be a finite number, not nan",
            ),
            (
                ("det-scan", ONE_CRACK, "--step", "nan"),
                None,
                "--step must be a finite number, not nan",
            ),
            (
                ("det-scan", ONE_CRACK, "--lambda-min", "1e-300", "--lambda-max", "1e-300"),
                None,
                "scan must start at a wavenumber of at least 1e-100",
            ),
            (
                ("det-scan", ONE_CRACK, "--lambda-min", "9.9e-101"),
                None,
                "scan must start at a wavenumber of at least 1e-100",
            ),
            (
                ("validate",),
                {"mode": 1, "offsets": [0.0], "scale": 2.0},
                "debug_perturb_delta needs exactly {mode, offsets}",
            ),
            (
                ("validate",),
                {"mode": 9, "offsets": [0.0]},
                "debug_perturb_delta mode 9 out of range",
            ),
            (
                ("validate",),
                {"mode": 1, "offsets": [0.0, 1.0]},
                "debug_perturb_delta offsets must list one value per crack",
            ),
        ],
        ids=[
            "modes",
            "samples",
            "samples-over-cap",
            "rows-over-cap",
            "lambda-min",
            "step",
            "spectrum-lambda-max-nan",
            "validate-lambda-max-inf",
            "det-scan-lambda-max-inf",
            "spectrum-lambda-max-overflow",
            "modes-lambda-max-overflow",
            "frequencies-lambda-max-overflow",
            "validate-lambda-max-overflow",
            "spectrum-lambda-max-zero",
            "modes-lambda-max-negative",
            "det-scan-lambda-max-overflow",
            "det-scan-too-many-points",
            "det-scan-above-ceiling",
            "det-scan-far-above-ceiling",
            "det-scan-last-point-above-ceiling",
            "det-scan-lambda-min-nan",
            "det-scan-step-nan",
            "det-scan-lambda-min-underflow",
            "det-scan-lambda-min-below-floor",
            "debug-keys",
            "debug-mode",
            "debug-offsets",
        ],
    )
    def test_option_and_fault_injection_checks_exit_2(
        self, capsys, tmp_path, argv, document, message
    ):
        if document is not None:
            doc = {"nondimensional": True, "cracks": [{"x": 1.0, "theta": 0.3}]}
            path = tmp_path / "debug.json"
            path.write_text(json.dumps({**doc, "debug_perturb_delta": document}), encoding="utf-8")
            argv = (*argv, str(path))
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert json.loads(err) == {"error": {"type": "validation", "message": message}}

    def test_scan_at_the_wavenumber_floor_is_finite(self, capsys):
        code, out, _ = run(
            capsys, "det-scan", ONE_CRACK, "--lambda-min", "1e-100", "--lambda-max", "1e-100"
        )
        assert code == 0
        assert out.splitlines()[1] == "1e-100,0,0,0"

    @pytest.mark.parametrize(
        "document",
        [
            '{"cracks": null}',
            '{"nondimensional": "false", "cracks": [{"x": 1.0, "theta": 0.3}]}',
            '{"cracks": [{"x": "abc", "theta": 0.3}]}',
            '{"cracks": [{"x": 1.0, "theta": NaN}]}',
            '{"cracks": [{"x": 1.0, "theta": Infinity}]}',
            '{"cracks": [{"x": 1.0, "theta": true}]}',
            '{"beam": {"L": "x", "E": 2e11, "rho": 7850, "A": 3e-4, "I": 2e-8}, "cracks": []}',
            '{"beam": {"L": Infinity, "E": 2e11, "rho": 7850, "A": 3e-4, "I": 2e-8}, "cracks": []}',
            '{"cracks": [{"x": 1.0, "theta": 0.3}],'
            ' "debug_perturb_delta": {"mode": "a", "offsets": [0]}}',
            '{"cracks": [{"x": 1.0, "theta": 0.3}],'
            ' "debug_perturb_delta": {"mode": 1, "offsets": ["b"]}}',
            '{"cracks": [{"x": 1.0, "theta": 0.3}],'
            ' "debug_perturb_delta": {"mode": 1.5, "offsets": [0]}}',
        ],
    )
    def test_malformed_documents_exit_2(self, capsys, tmp_path, document):
        path = tmp_path / "malformed.json"
        path.write_text(document, encoding="utf-8")
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["type"] == "validation"


class TestParser:
    def test_calls_share_no_state(self, capsys):
        # The parser is built once per process: options, defaults and usage
        # errors of one call must not reach the next.
        _, first, _ = run(capsys, "spectrum", ONE_CRACK, "--modes", "3")
        code, _, _ = run(
            capsys, "spectrum", TWO_CRACK, "--modes", "4", "--solver", "both",
            "--format", "json", "--lambda-max", "20",
        )
        assert code == 0
        with pytest.raises(SystemExit):
            cli.main(["spectrum", ONE_CRACK, "--solver", "neither"])
        capsys.readouterr()
        code, again, _ = run(capsys, "spectrum", ONE_CRACK, "--modes", "3")
        assert code == 0 and again == first
        argv = ["spectrum", ONE_CRACK]
        cached = cli._build_parser().parse_args(argv)
        assert vars(cached) == vars(cli._build_parser.__wrapped__().parse_args(argv))
        assert cli._build_parser() is cli._build_parser()
