"""Shared problems and precomputed spectra for the test suite.

Spectra are session-scoped: root finding is the expensive step and every
test consumes the same handful of reference problems.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import pytest

from crackedbeam import BeamProblem, compute_spectrum, shifrin


@pytest.fixture(autouse=True)
def fresh_isolation():
    """No test starts with the windows another test's solve isolated: a test that patches the
    count or the stack bound sees its own isolation."""
    shifrin._isolated.cache_clear()


@pytest.fixture(scope="session")
def reference_script():
    """``scripts/reference_roots.py``, the mpmath reference, loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "reference_roots.py"
    spec = importlib.util.spec_from_file_location("reference_roots", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def uniform_problem() -> BeamProblem:
    return BeamProblem()


@pytest.fixture(scope="session")
def one_crack_problem() -> BeamProblem:
    return BeamProblem(positions=(1.0,), flexibilities=(0.3,))


@pytest.fixture(scope="session")
def two_crack_problem() -> BeamProblem:
    return BeamProblem(positions=(1.0, 2.2), flexibilities=(0.3, 0.7))


@pytest.fixture(scope="session")
def node_crack_problem() -> BeamProblem:
    return BeamProblem(positions=(math.pi / 2,), flexibilities=(0.5,))


@pytest.fixture(scope="session")
def thirty_crack_problem() -> BeamProblem:
    positions = tuple(math.pi * (j + 1) / 31 for j in range(30))
    flexibilities = tuple(0.01 * 200.0 ** (j / 29) for j in range(30))
    return BeamProblem(positions=positions, flexibilities=flexibilities)


@pytest.fixture(scope="session")
def uniform_spectrum(uniform_problem):
    return compute_spectrum(uniform_problem, 5)


@pytest.fixture(scope="session")
def one_crack_spectrum(one_crack_problem):
    return compute_spectrum(one_crack_problem, 8)


@pytest.fixture(scope="session")
def two_crack_spectrum(two_crack_problem):
    return compute_spectrum(two_crack_problem, 8)
