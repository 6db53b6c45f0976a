"""Problem definitions for hinged beams with open transverse cracks.

A crack is modeled as a massless rotational spring: displacement, bending
moment and shear force stay continuous across it while the slope jumps in
proportion to the local bending moment.  The proportionality constant is the
crack flexibility ``theta``.  This module resolves flexibilities from
relative crack depths, maps physical beams onto the reference interval
``(0, pi)``, and converts computed wavenumbers back to dimensional natural
frequencies.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .rootfind import wavenumbers

# Springs softer than this are indistinguishable from an uncracked section
# at working precision and are dropped from the model.
THETA_MIN = 1e-12

# Two cracks closer than this (on the reference interval) would make the
# junction system numerically singular, as would a crack at a support.
POSITION_TOL = 1e-9

# The depth polynomials are fitted over moderate depths; past 0.99 the local
# flexibility model is meaningless, so reject rather than extrapolate.
MU_MAX = 0.99

# Polynomial factors of the flexibility law theta = 6*pi*H*mu^2 * p(mu),
# lowest order first.  The double-sided law takes H = half the section
# height, the single-sided law takes the full height.
DOUBLE_SIDED_COEFFS = (0.535, -0.929, 3.500, -3.181, 5.793)
SINGLE_SIDED_COEFFS = (0.6384, -1.035, 3.7201, -5.1773, 7.553, -7.332)


class ValidationError(ValueError):
    """Raised when a problem description is inconsistent or out of range."""


def finite_real(value, what: str) -> float:
    """``value`` as a float; ValidationError unless it is a finite real number."""
    try:
        if not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except (TypeError, OverflowError):
        pass
    raise ValidationError(f"{what} must be a finite number, not {value!r}")


def _optional_real(value, what: str) -> float | None:
    return None if value is None else finite_real(value, what)


def _poly_eval(coeffs: tuple[float, ...], mu: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * mu + c
    return acc


def flexibility_double_sided(mu: float, half_height: float) -> float:
    """Rotational-spring flexibility of a crack cut from both faces.

    Parameters
    ----------
    mu : float
        Relative crack depth in [0, 0.99].
    half_height : float
        Half the section height, in the same length unit as the beam.

    Returns
    -------
    float
        Physical flexibility (length units); zero only for ``mu = 0``.
    """
    _check_depth(mu, half_height)
    return 6.0 * math.pi * half_height * mu * mu * _poly_eval(DOUBLE_SIDED_COEFFS, mu)


def flexibility_single_sided(mu: float, height: float) -> float:
    """Rotational-spring flexibility of a crack cut from one face.

    Parameters
    ----------
    mu : float
        Relative crack depth in [0, 0.99].
    height : float
        Full section height, in the same length unit as the beam.

    Returns
    -------
    float
        Physical flexibility (length units); zero only for ``mu = 0``.
    """
    _check_depth(mu, height)
    return 6.0 * math.pi * height * mu * mu * _poly_eval(SINGLE_SIDED_COEFFS, mu)


def _check_depth(mu: float, height: float) -> None:
    if not 0.0 <= mu <= MU_MAX:
        raise ValidationError(f"relative crack depth {mu} outside [0, {MU_MAX}]")
    if not 0.0 < height < math.inf:
        raise ValidationError(f"section height {height} must be positive and finite")


@dataclass(frozen=True)
class PhysicalBeam:
    """Uniform beam data in consistent physical units.

    Attributes
    ----------
    length : float
        Span between the hinged supports.
    young_modulus : float
        Elastic modulus of the material.
    density : float
        Mass density of the material.
    area : float
        Cross-section area.
    inertia : float
        Second moment of area of the cross-section.
    height : float or None
        Section height, needed only to resolve crack depths.
    """

    length: float
    young_modulus: float
    density: float
    area: float
    inertia: float
    height: float | None = None

    def __post_init__(self) -> None:
        named = {
            "length": self.length,
            "young_modulus": self.young_modulus,
            "density": self.density,
            "area": self.area,
            "inertia": self.inertia,
        }
        bad = [name for name, value in named.items() if not 0.0 < value < math.inf]
        if self.height is not None and not 0.0 < self.height < math.inf:
            bad.append("height")
        if bad:
            raise ValidationError(f"beam parameters must be positive: {', '.join(bad)}")

    @property
    def frequency_scale(self) -> float:
        """Angular frequency of the reference time unit, rad/s."""
        stiffness = math.sqrt(self.young_modulus * self.inertia / (self.density * self.area))
        return (math.pi / self.length) ** 2 * stiffness


@dataclass(frozen=True)
class CrackSpec:
    """One crack, located either physically or on the reference interval.

    Exactly one of ``x`` (reference position in ``(0, pi)``) or ``xi``
    (physical position in ``(0, L)``) must be given, and exactly one of
    ``theta`` (direct flexibility) or ``depth_ratio`` with ``sided``.
    """

    x: float | None = None
    xi: float | None = None
    theta: float | None = None
    depth_ratio: float | None = None
    sided: str | None = None

    def __post_init__(self) -> None:
        if (self.x is None) == (self.xi is None):
            raise ValidationError("crack needs exactly one of x (reference) or xi (physical)")
        if (self.theta is None) == (self.depth_ratio is None):
            raise ValidationError("crack needs exactly one of theta or depth_ratio")
        if self.theta is not None and self.theta < 0.0:
            raise ValidationError(f"crack flexibility {self.theta} must be nonnegative")
        if self.depth_ratio is not None and self.sided not in ("single", "double"):
            raise ValidationError("depth_ratio requires sided = 'single' or 'double'")
        if self.depth_ratio is None and self.sided is not None:
            raise ValidationError("sided requires depth_ratio")

    def resolve_theta(self, beam: PhysicalBeam | None) -> float:
        """Physical flexibility of this crack, using the beam section if needed."""
        if self.theta is not None:
            return self.theta
        if beam is None or beam.height is None:
            raise ValidationError("depth_ratio cracks need a beam with a section height")
        if self.sided == "double":
            return flexibility_double_sided(self.depth_ratio, 0.5 * beam.height)
        return flexibility_single_sided(self.depth_ratio, beam.height)


@dataclass(frozen=True)
class BeamProblem:
    """Cracked hinged beam on the reference interval ``(0, pi)``.

    ``positions`` are strictly increasing crack locations in ``(0, pi)`` and
    ``flexibilities`` the matching positive, finite spring flexibilities, each kept as a
    tuple of floats whatever sequence it is given as.  An empty problem is the uniform beam.
    """

    positions: tuple[float, ...] = ()
    flexibilities: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        # Tuples of floats keep the problem hashable: the solvers cache per problem.
        object.__setattr__(self, "positions", tuple(map(float, self.positions)))
        object.__setattr__(self, "flexibilities", tuple(map(float, self.flexibilities)))
        if len(self.positions) != len(self.flexibilities):
            raise ValidationError(
                f"{len(self.positions)} positions but {len(self.flexibilities)} flexibilities"
            )
        bad = []
        for i, x in enumerate(self.positions):
            if not POSITION_TOL < x < math.pi - POSITION_TOL:
                bad.append(f"x_{i + 1} = {x} not interior to (0, pi)")
        for i in range(1, len(self.positions)):
            gap = self.positions[i] - self.positions[i - 1]
            if gap < POSITION_TOL:
                pair = f"x_{i} = {self.positions[i - 1]} and x_{i + 1} = {self.positions[i]}"
                bad.append(f"{pair} {'are out of order' if gap < 0.0 else 'coincide'}")
        for i, theta in enumerate(self.flexibilities):
            if not 0.0 < theta < math.inf:
                bad.append(
                    f"theta_{i + 1} = {theta} must be positive and finite (drop zero cracks)"
                )
        if bad:
            raise ValidationError("; ".join(bad))

    @property
    def m(self) -> int:
        """Number of cracks."""
        return len(self.positions)

    @property
    def breakpoints(self) -> tuple[float, ...]:
        """Partition points 0 = x_0 < x_1 < ... < x_m < x_{m+1} = pi."""
        return (0.0, *self.positions, math.pi)


def _assemble_problem(pairs: list[tuple[float, float]]) -> BeamProblem:
    """Sort, drop negligible springs, and validate a list of (x, theta)."""
    kept = [(x, theta) for x, theta in pairs if not theta < THETA_MIN]  # NaN is kept, and rejected
    kept.sort(key=lambda p: p[0])
    return BeamProblem(
        positions=tuple(x for x, _ in kept),
        flexibilities=tuple(theta for _, theta in kept),
    )


def problem_from_cracks(cracks: list[CrackSpec]) -> BeamProblem:
    """Build a reference-interval problem from already nondimensional cracks."""
    pairs = []
    for i, crack in enumerate(cracks):
        if crack.x is None:
            raise ValidationError(f"crack {i + 1}: physical position xi in a nondimensional problem")
        if crack.theta is None:
            raise ValidationError(f"crack {i + 1}: depth_ratio needs a physical beam section")
        pairs.append((crack.x, crack.theta))
    return _assemble_problem(pairs)


def nondimensionalize(beam: PhysicalBeam, cracks: list[CrackSpec]) -> BeamProblem:
    """Map a physical beam with physically located cracks onto ``(0, pi)``.

    Positions scale by ``pi / L``.  Flexibilities carry units of length and
    scale by the same factor; the deflection scale drops out of the slope
    jump condition, so no other factor appears.
    """
    scale = math.pi / beam.length
    pairs = []
    for i, crack in enumerate(cracks):
        if crack.xi is None:
            raise ValidationError(
                f"crack {i + 1}: reference position x given for a physical beam (use xi)"
            )
        if not 0.0 < crack.xi < beam.length:
            raise ValidationError(f"crack {i + 1}: xi = {crack.xi} outside (0, {beam.length})")
        try:
            theta = crack.resolve_theta(beam)
        except ValidationError as exc:
            raise ValidationError(f"crack {i + 1}: {exc}") from None
        pairs.append((scale * crack.xi, scale * theta))
    return _assemble_problem(pairs)


def natural_frequencies(beam: PhysicalBeam, lambdas) -> np.ndarray:
    """Dimensional angular frequencies (rad/s) for reference wavenumbers.

    The k-th natural frequency is ``lambda_k**2 * (pi/L)**2 * sqrt(EI/(rho A))``.
    """
    try:
        lam = wavenumbers(lambdas)
    except ValueError as exc:
        raise ValidationError(f"wavenumbers must be positive and in range: {exc}") from None
    return lam**2 * beam.frequency_scale


def load_problem(doc: dict) -> tuple[BeamProblem, PhysicalBeam | None]:
    """Parse a problem description (already decoded JSON) into model objects.

    The document holds an optional ``beam`` block (physical data), a
    ``cracks`` list, and a ``nondimensional`` flag.  Nondimensional problems
    locate cracks with ``x`` and require direct ``theta``; physical problems
    locate them with ``xi`` and may use depth ratios instead.
    """
    if not isinstance(doc, dict):
        raise ValidationError("problem document must be a JSON object")
    unknown = set(doc) - {"beam", "cracks", "nondimensional", "debug_perturb_delta"}
    if unknown:
        raise ValidationError(f"unknown top-level keys: {', '.join(sorted(unknown))}")

    beam = None
    if doc.get("beam") is not None:
        raw = doc["beam"]
        if not isinstance(raw, dict):
            raise ValidationError("beam block must be an object")
        key_map = {
            "L": "length",
            "E": "young_modulus",
            "rho": "density",
            "A": "area",
            "I": "inertia",
            "H": "height",
        }
        unknown = set(raw) - set(key_map)
        if unknown:
            raise ValidationError(f"unknown beam keys: {', '.join(sorted(unknown))}")
        missing = [k for k in ("L", "E", "rho", "A", "I") if k not in raw]
        if missing:
            raise ValidationError(f"beam block missing keys: {', '.join(missing)}")
        beam = PhysicalBeam(**{key_map[k]: finite_real(v, f"beam {k}") for k, v in raw.items()})

    nondim = doc.get("nondimensional", beam is None)
    if not isinstance(nondim, bool):
        raise ValidationError(f"nondimensional must be true or false, not {nondim!r}")
    if not isinstance(doc.get("cracks", []), list):
        raise ValidationError("cracks must be a list")
    cracks = []
    for i, raw in enumerate(doc.get("cracks", [])):
        if not isinstance(raw, dict):
            raise ValidationError(f"crack {i + 1} must be an object")
        unknown = set(raw) - {"x", "xi", "theta", "mu", "sided"}
        if unknown:
            raise ValidationError(f"crack {i + 1}: unknown keys {', '.join(sorted(unknown))}")
        theta, law = raw.get("theta"), raw  # law: the object that holds mu and sided
        if isinstance(theta, dict):
            unknown = set(theta) - {"mu", "sided"}
            if unknown:
                raise ValidationError(f"crack {i + 1}: unknown theta keys {', '.join(sorted(unknown))}")
            if {"mu", "sided"} & set(raw):
                raise ValidationError(
                    f"crack {i + 1}: give mu and sided inside theta or beside it, not both"
                )
            theta, law = None, theta
        depth, sided = law.get("mu"), law.get("sided", "double")
        if depth is None and "sided" in law:
            raise ValidationError(f"crack {i + 1}: sided needs mu")
        try:
            cracks.append(
                CrackSpec(
                    x=_optional_real(raw.get("x"), "x"),
                    xi=_optional_real(raw.get("xi"), "xi"),
                    theta=_optional_real(theta, "theta"),
                    depth_ratio=_optional_real(depth, "mu"),
                    sided=None if depth is None else sided,
                )
            )
        except ValidationError as exc:
            raise ValidationError(f"crack {i + 1}: {exc}") from None

    if nondim:
        if beam is not None:
            raise ValidationError("nondimensional problems must not carry a beam block")
        return problem_from_cracks(cracks), None
    if beam is None:
        raise ValidationError("physical problems need a beam block")
    return nondimensionalize(beam, cracks), beam


def load_problem_file(path) -> tuple[BeamProblem, PhysicalBeam | None, dict]:
    """Read a JSON problem file; returns the raw document too."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    problem, beam = load_problem(doc)
    return problem, beam, doc
