"""Natural frequencies and mode shapes of hinged beams with open cracks.

Cracks are massless rotational springs: the slope jumps by the flexibility
times the local bending moment while displacement, moment, and shear stay
continuous.  Two independent solvers are provided, one condensing the
problem into jump amplitudes at the cracks and one carrying the minors of
the hinged-start plane across them, plus the inner products and residual
checks that certify computed modes against every defining condition.
"""

from .beam_model import (
    BeamProblem,
    CrackSpec,
    PhysicalBeam,
    ValidationError,
    flexibility_double_sided,
    flexibility_single_sided,
    load_problem,
    load_problem_file,
    natural_frequencies,
    nondimensionalize,
    problem_from_cracks,
)
from .modes import Eigenpair, PiecewiseForm, Spectrum, normalize_eigenpair
from .paper import basis_eval, jump_basis, kernel_M
from .quadrature import QuadratureRule
from .rootfind import RootCountError
from .shifrin import (
    ShifrinForm,
    assemble_system,
    build_eigenfunction,
    char_det,
    compute_spectrum,
    find_eigenvalues,
    solve_nullspace,
)
from .spectral import (
    FunctionOnPartition,
    ResidualReport,
    Superposition,
    a_form,
    coercivity_probe,
    gram_matrix,
    h_inner,
    residual_report,
    v_inner,
)
from .transition import boundary_det, oracle_eigenpairs, transition_matrix

__version__ = "0.1.0"

__all__ = [
    "BeamProblem",
    "CrackSpec",
    "Eigenpair",
    "FunctionOnPartition",
    "PhysicalBeam",
    "PiecewiseForm",
    "QuadratureRule",
    "ResidualReport",
    "RootCountError",
    "ShifrinForm",
    "Spectrum",
    "Superposition",
    "ValidationError",
    "a_form",
    "assemble_system",
    "basis_eval",
    "boundary_det",
    "build_eigenfunction",
    "char_det",
    "coercivity_probe",
    "compute_spectrum",
    "find_eigenvalues",
    "flexibility_double_sided",
    "flexibility_single_sided",
    "gram_matrix",
    "h_inner",
    "jump_basis",
    "kernel_M",
    "load_problem",
    "load_problem_file",
    "natural_frequencies",
    "nondimensionalize",
    "normalize_eigenpair",
    "oracle_eigenpairs",
    "problem_from_cracks",
    "residual_report",
    "solve_nullspace",
    "transition_matrix",
    "v_inner",
]
