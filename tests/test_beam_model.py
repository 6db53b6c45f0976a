"""Problem construction, flexibility laws, and physical-unit mapping."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crackedbeam import (
    BeamProblem,
    CrackSpec,
    PhysicalBeam,
    ValidationError,
    compute_spectrum,
    flexibility_double_sided,
    flexibility_single_sided,
    load_problem,
    natural_frequencies,
    nondimensionalize,
    problem_from_cracks,
)
from crackedbeam.beam_model import THETA_MIN


class TestFlexibilityPolynomials:
    def test_zero_depth_is_exactly_zero(self):
        assert flexibility_double_sided(0.0, 0.5) == 0.0
        assert flexibility_single_sided(0.0, 1.0) == 0.0

    @pytest.mark.parametrize("mu", [0.1, 0.2, 0.3, 0.5])
    def test_double_sided_matches_termwise_sum(self, mu):
        # Independent arithmetic: accumulate the polynomial term by term in
        # increasing order, no Horner, no shared helper.
        poly = (
            0.535
            + -0.929 * mu
            + 3.500 * mu * mu
            + -3.181 * mu * mu * mu
            + 5.793 * mu * mu * mu * mu
        )
        expected = 6.0 * math.pi * 0.25 * mu * mu * poly
        got = flexibility_double_sided(mu, 0.25)
        assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("mu", [0.1, 0.2, 0.3, 0.5])
    def test_single_sided_matches_termwise_sum(self, mu):
        poly = (
            0.6384
            + -1.035 * mu
            + 3.7201 * mu**2
            + -5.1773 * mu**3
            + 7.553 * mu**4
            + -7.332 * mu**5
        )
        expected = 6.0 * math.pi * 0.8 * mu * mu * poly
        got = flexibility_single_sided(mu, 0.8)
        assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("law", [flexibility_double_sided, flexibility_single_sided])
    def test_nondecreasing_in_depth(self, law):
        mus = np.linspace(0.0, 0.6, 121)
        values = [law(mu, 0.4) for mu in mus]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_depth_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            flexibility_double_sided(1.5, 0.5)
        with pytest.raises(ValidationError):
            flexibility_single_sided(-0.1, 0.5)
        with pytest.raises(ValidationError):
            flexibility_double_sided(0.2, 0.0)

    @pytest.mark.parametrize("law", [flexibility_double_sided, flexibility_single_sided])
    @pytest.mark.parametrize("height", [math.nan, math.inf, -math.inf])
    def test_non_finite_height_rejected(self, law, height):
        # A NaN height used to pass the positivity test and return NaN; inf returned inf.
        with pytest.raises(ValidationError, match="must be positive and finite"):
            law(0.2, height)

    @given(mu=st.floats(0.0, 0.99), h=st.floats(1e-3, 10.0))
    def test_double_sided_nonnegative_and_linear_in_height(self, mu, h):
        base = flexibility_double_sided(mu, h)
        assert base >= 0.0
        assert flexibility_double_sided(mu, 2.0 * h) == pytest.approx(2.0 * base, rel=1e-12)


class TestBeamProblem:
    def test_crack_count_and_breakpoints(self):
        problem = BeamProblem(positions=(1.0, 2.0), flexibilities=(0.1, 0.2))
        assert problem.m == 2
        assert problem.breakpoints == (0.0, 1.0, 2.0, math.pi)

    @pytest.mark.parametrize(
        "positions, flexibilities",
        [
            ((0.0,), (0.1,)),
            ((math.pi,), (0.1,)),
            ((-1.0,), (0.1,)),
            ((1.0, 1.0), (0.1, 0.1)),
            ((2.0, 1.0), (0.1, 0.1)),
            ((1.0,), (0.0,)),
            ((1.0,), (-0.5,)),
            ((1.0, 2.0), (0.1,)),
            ((1.0,), (math.inf,)),
            ((1.0,), (math.nan,)),
        ],
    )
    def test_invalid_geometry_rejected(self, positions, flexibilities):
        with pytest.raises(ValidationError):
            BeamProblem(positions=positions, flexibilities=flexibilities)

    @pytest.mark.parametrize("kind", [list, np.array])
    def test_any_sequence_is_kept_as_a_tuple_of_floats(self, kind):
        problem = BeamProblem(kind([1.0, 2.0]), kind([0.3, 0.2]))
        assert problem == BeamProblem((1.0, 2.0), (0.3, 0.2))
        assert all(type(v) is float for v in (*problem.positions, *problem.flexibilities))
        # The solvers cache per problem, so it must hash.
        spectrum = compute_spectrum(BeamProblem(kind([1.0]), kind([0.3])), 2)
        expected = compute_spectrum(BeamProblem((1.0,), (0.3,)), 2)
        assert spectrum.lambdas.tolist() == expected.lambdas.tolist()

    @pytest.mark.parametrize(
        "positions, message",
        [
            ((2.0, 1.0), "x_1 = 2.0 and x_2 = 1.0 are out of order"),
            ((1.0, 1.0), "x_1 = 1.0 and x_2 = 1.0 coincide"),
            ((1.0, 1.0 + 1e-10), "coincide"),
        ],
    )
    def test_positions_out_of_order_or_coincident_are_named(self, positions, message):
        with pytest.raises(ValidationError, match=message):
            BeamProblem(positions, (0.1, 0.1))

    def test_nan_flexibility_is_rejected_not_elided(self):
        with pytest.raises(ValidationError):
            problem_from_cracks([CrackSpec(x=1.0, theta=math.nan)])

    def test_negligible_springs_elided_and_cracks_sorted(self):
        cracks = [
            CrackSpec(x=2.0, theta=0.2),
            CrackSpec(x=1.0, theta=THETA_MIN / 10.0),
            CrackSpec(x=0.5, theta=0.4),
        ]
        problem = problem_from_cracks(cracks)
        assert problem.positions == (0.5, 2.0)
        assert problem.flexibilities == (0.4, 0.2)


class TestPhysicalMapping:
    def test_positions_scale_by_pi_over_length(self):
        beam = PhysicalBeam(length=2.0, young_modulus=1.0, density=1.0, area=1.0, inertia=1.0)
        problem = nondimensionalize(beam, [CrackSpec(xi=0.5, theta=0.1)])
        assert problem.positions[0] == pytest.approx(0.5 * math.pi / 2.0)
        assert problem.flexibilities[0] == pytest.approx(0.1 * math.pi / 2.0)

    def test_frequency_formula_direct_arithmetic(self):
        beam = PhysicalBeam(
            length=1.2, young_modulus=2.1e11, density=7850.0, area=3.0e-4, inertia=2.25e-8
        )
        lam = 1.7
        expected = lam**2 * (math.pi / 1.2) ** 2 * math.sqrt(2.1e11 * 2.25e-8 / (7850.0 * 3.0e-4))
        assert natural_frequencies(beam, [lam])[0] == pytest.approx(expected, rel=1e-14)

    def test_unit_reference_beam_gives_squares(self):
        beam = PhysicalBeam(length=math.pi, young_modulus=1.0, density=1.0, area=1.0, inertia=1.0)
        omegas = natural_frequencies(beam, [1.0, 2.0, 3.0])
        assert np.allclose(omegas, [1.0, 4.0, 9.0], rtol=1e-14)

    def test_doubling_length_quarters_frequencies(self):
        short = PhysicalBeam(length=1.0, young_modulus=5.0, density=2.0, area=0.3, inertia=0.7)
        long = PhysicalBeam(length=2.0, young_modulus=5.0, density=2.0, area=0.3, inertia=0.7)
        ratio = natural_frequencies(long, [2.5])[0] / natural_frequencies(short, [2.5])[0]
        assert ratio == pytest.approx(0.25, rel=1e-14)

    @settings(max_examples=30)
    @given(
        scale=st.floats(0.1, 10.0),
        xi_frac=st.floats(0.05, 0.95),
        theta=st.floats(1e-4, 5.0),
    )
    def test_reference_problem_invariant_under_unit_rescale(self, scale, xi_frac, theta):
        # Measuring the same beam in different length units must produce the
        # same reference problem: positions and flexibilities carry one
        # factor of pi/L each.
        base = PhysicalBeam(length=1.0, young_modulus=1.0, density=1.0, area=1.0, inertia=1.0)
        rescaled = PhysicalBeam(
            length=scale, young_modulus=1.0, density=1.0, area=1.0, inertia=1.0
        )
        p1 = nondimensionalize(base, [CrackSpec(xi=xi_frac, theta=theta)])
        p2 = nondimensionalize(rescaled, [CrackSpec(xi=xi_frac * scale, theta=theta * scale)])
        assert p1.positions[0] == pytest.approx(p2.positions[0], rel=1e-12)
        assert p1.flexibilities[0] == pytest.approx(p2.flexibilities[0], rel=1e-12)

    def test_negative_beam_parameters_rejected(self):
        with pytest.raises(ValidationError):
            PhysicalBeam(length=-1.0, young_modulus=1.0, density=1.0, area=1.0, inertia=1.0)
        with pytest.raises(ValidationError):
            PhysicalBeam(length=1.0, young_modulus=1.0, density=1.0, area=1.0, inertia=0.0)
        with pytest.raises(ValidationError):
            PhysicalBeam(length=math.inf, young_modulus=1.0, density=1.0, area=1.0, inertia=1.0)


class TestCrackSpec:
    def test_exactly_one_position_required(self):
        with pytest.raises(ValidationError):
            CrackSpec(x=1.0, xi=0.5, theta=0.1)
        with pytest.raises(ValidationError):
            CrackSpec(theta=0.1)

    def test_exactly_one_severity_required(self):
        with pytest.raises(ValidationError):
            CrackSpec(x=1.0)
        with pytest.raises(ValidationError):
            CrackSpec(x=1.0, theta=0.1, depth_ratio=0.2, sided="double")

    def test_depth_ratio_needs_section_height(self):
        crack = CrackSpec(xi=0.5, depth_ratio=0.2, sided="double")
        beam = PhysicalBeam(length=2.0, young_modulus=1.0, density=1.0, area=1.0, inertia=1.0)
        with pytest.raises(ValidationError):
            crack.resolve_theta(beam)

    def test_depth_ratio_resolution_uses_the_right_law(self):
        beam = PhysicalBeam(
            length=2.0, young_modulus=1.0, density=1.0, area=1.0, inertia=1.0, height=0.5
        )
        double = CrackSpec(xi=0.5, depth_ratio=0.2, sided="double")
        single = CrackSpec(xi=0.5, depth_ratio=0.2, sided="single")
        assert double.resolve_theta(beam) == pytest.approx(flexibility_double_sided(0.2, 0.25))
        assert single.resolve_theta(beam) == pytest.approx(flexibility_single_sided(0.2, 0.5))

    def test_sided_needs_depth_ratio(self):
        with pytest.raises(ValidationError, match="sided requires depth_ratio"):
            CrackSpec(x=1.0, theta=0.1, sided="single")


PHYSICAL = {"L": 2.0, "E": 1.0, "rho": 1.0, "A": 1.0, "I": 1.0, "H": 0.5}


class TestLoadProblem:
    def test_nondimensional_document(self):
        doc = {"nondimensional": True, "cracks": [{"x": 1.0, "theta": 0.3}]}
        problem, beam = load_problem(doc)
        assert beam is None
        assert problem.positions == (1.0,)

    def test_physical_document_with_nested_theta(self):
        doc = {
            "beam": {"L": 2.0, "E": 1.0, "rho": 1.0, "A": 1.0, "I": 1.0, "H": 0.5},
            "cracks": [{"xi": 1.0, "theta": {"mu": 0.2, "sided": "single"}}],
        }
        problem, beam = load_problem(doc)
        assert beam is not None
        expected = flexibility_single_sided(0.2, 0.5) * math.pi / 2.0
        assert problem.flexibilities[0] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "doc",
        [
            {"nondimensional": True, "cracks": [{"x": 1.0, "theta": 0.3}], "extra": 1},
            {"beam": {"L": 1.0}, "cracks": []},
            {"beam": {"L": 1.0, "E": 1.0, "rho": 1.0, "A": 1.0, "I": 1.0, "Z": 2.0}, "cracks": []},
            {"nondimensional": True, "beam": {"L": 1.0, "E": 1.0, "rho": 1.0, "A": 1.0, "I": 1.0}},
            {"nondimensional": True, "cracks": [{"xi": 0.5, "theta": 0.1}]},
            {"nondimensional": True, "cracks": [{"x": 0.5, "theta": 0.1, "depth": 0.2}]},
            [],
        ],
    )
    def test_malformed_documents_rejected(self, doc):
        with pytest.raises(ValidationError):
            load_problem(doc)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"beam": [1.0], "cracks": []}, "beam block must be an object"),
            ({"beam": {**PHYSICAL, "H": 0.0}, "cracks": []}, "must be positive: height"),
            ({"cracks": [{"x": 1.0, "theta": -0.1}]}, "flexibility -0.1 must be nonnegative"),
            (
                {"beam": PHYSICAL, "cracks": [{"xi": 1.0, "mu": 0.2, "sided": "triple"}]},
                "requires sided = 'single' or 'double'",
            ),
            ({"cracks": [{"x": 1.0, "mu": 0.2}]}, "depth_ratio needs a physical beam section"),
            ({"beam": PHYSICAL, "cracks": [{"x": 1.0, "theta": 0.1}]}, "reference position x"),
            ({"beam": PHYSICAL, "cracks": [{"xi": 2.5, "theta": 0.1}]}, r"outside \(0, 2.0\)"),
            ({"cracks": [1.0]}, "crack 1 must be an object"),
            (
                {"beam": PHYSICAL, "cracks": [{"xi": 1.0, "theta": {"mu": 0.2, "depth": 1}}]},
                "unknown theta keys depth",
            ),
            ({"nondimensional": False, "cracks": []}, "physical problems need a beam block"),
        ],
    )
    def test_each_input_check_names_its_fault(self, doc, message):
        with pytest.raises(ValidationError, match=message):
            load_problem(doc)

    @pytest.mark.parametrize(
        "crack, message",
        [
            # Each of these was read without a word, one of its keys dropped.
            ({"sided": "single", "theta": {"mu": 0.2}}, "inside theta or beside it"),
            ({"mu": 0.5, "theta": {"mu": 0.2, "sided": "single"}}, "inside theta or beside it"),
            ({"theta": 0.3, "sided": "single"}, "sided needs mu"),
            ({"theta": {"sided": "single"}}, "sided needs mu"),
        ],
    )
    def test_depth_keys_at_two_levels_are_rejected(self, crack, message):
        doc = {"beam": PHYSICAL, "cracks": [{"xi": 0.5, "theta": 0.1}, {"xi": 1.0, **crack}]}
        with pytest.raises(ValidationError, match=f"crack 2: .*{message}"):
            load_problem(doc)

    @pytest.mark.parametrize(
        "beam, crack, message",
        [
            (None, {"x": 2.0}, "exactly one of theta or depth_ratio"),
            (None, {"x": 2.0, "xi": 1.0, "theta": 0.2}, r"exactly one of x \(reference\) or xi"),
            (None, {"x": 1.0, "theta": -0.3}, "flexibility -0.3 must be nonnegative"),
            (None, {"x": "1.0", "theta": 0.3}, "x must be a finite number, not '1.0'"),
            ("no H", {"xi": 0.5, "mu": 0.2}, "need a beam with a section height"),
            (PHYSICAL, {"xi": 1.0, "mu": 0.995}, r"depth 0.995 outside \[0, 0.99\]"),
            (PHYSICAL, {"xi": 1.0, "mu": 0.2, "sided": "triple"}, "requires sided = 'single'"),
        ],
    )
    def test_every_crack_error_names_its_crack_once(self, beam, crack, message):
        if beam == "no H":
            beam = {k: v for k, v in PHYSICAL.items() if k != "H"}
        doc = {"cracks": [{"x": 0.5, "theta": 0.1}, crack]}
        if beam is not None:
            doc = {"beam": beam, "cracks": [{"xi": 0.5, "theta": 0.1}, crack]}
        with pytest.raises(ValidationError, match=f"^crack 2: .*{message}") as info:
            load_problem(doc)
        assert str(info.value).count("crack 2:") == 1

    def test_depth_keys_at_either_level_give_one_flexibility(self):
        beside = {"xi": 1.0, "mu": 0.2, "sided": "single"}
        inside = {"xi": 1.0, "theta": {"mu": 0.2, "sided": "single"}}
        problems = [load_problem({"beam": PHYSICAL, "cracks": [c]})[0] for c in (beside, inside)]
        assert problems[0].flexibilities == problems[1].flexibilities
        assert problems[0].flexibilities[0] == flexibility_single_sided(0.2, 0.5) * math.pi / 2.0

    def test_zero_wavenumber_has_no_frequency(self):
        beam = PhysicalBeam(length=2.0, young_modulus=1.0, density=1.0, area=1.0, inertia=1.0)
        with pytest.raises(ValidationError, match="wavenumbers must be positive"):
            natural_frequencies(beam, [0.0])

    @pytest.mark.parametrize(
        "lam, message",
        [(math.nan, "NaN"), (1e-300, "at least 1e-100"), (1e200, "at most 1e\\+100")],
    )
    def test_frequencies_take_the_solvers_wavenumber_range(self, lam, message):
        # These gave nan, 0 and inf (with an overflow warning) before the solvers' range applied.
        beam = PhysicalBeam(length=2.0, young_modulus=1.0, density=1.0, area=1.0, inertia=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=message):
                natural_frequencies(beam, [2.0, lam])
