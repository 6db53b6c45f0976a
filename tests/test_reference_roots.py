"""Both solvers against roots computed in mpmath from two formulations.

``tests/data/reference_roots.json`` is written by ``scripts/reference_roots.py``: the
first 40 roots of each layout, from the transfer determinant at 120 digits, each
confirmed by a sign change of the bounded jump-amplitude system within 1e-25.
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from crackedbeam import BeamProblem, shifrin, transition

ROOT = Path(__file__).resolve().parents[1]
TABLE = json.loads((ROOT / "tests" / "data" / "reference_roots.json").read_text(encoding="utf-8"))


def test_table_covers_every_layout_of_the_script(reference_script):
    layouts = reference_script.layouts()
    assert sorted(TABLE) == sorted(layouts)
    for name, (positions, thetas) in layouts.items():
        assert TABLE[name]["positions"] == list(positions)
        assert TABLE[name]["flexibilities"] == list(thetas)
        assert len(TABLE[name]["roots"]) == 40


def _worst_relative_error(find_eigenvalues, name: str) -> float:
    entry = TABLE[name]
    problem = BeamProblem(tuple(entry["positions"]), tuple(entry["flexibilities"]))
    expected = np.array([float(r) for r in entry["roots"]])
    roots = np.array(find_eigenvalues(problem, len(expected)))
    return float(np.max(np.abs(roots - expected) / expected))


@pytest.mark.parametrize("name", sorted(TABLE))
def test_jump_amplitude_roots_meet_the_table(name):
    assert _worst_relative_error(shifrin.find_eigenvalues, name) <= 1e-12


@pytest.mark.parametrize("name", sorted(TABLE))
def test_transfer_roots_meet_the_table(name):
    # theta = 1e6 makes both cracks near-hinges, and the first root (lam ~ 0.0327) a near-zero
    # mechanism root: the chain's (w, w'') minor is then of order lam**2 against minors of
    # order 1, so its sign is lost about lam**-2 times sooner.
    tolerance = 1e-10 if name == "theta_1e6" else 1e-12
    assert _worst_relative_error(transition.find_eigenvalues, name) <= tolerance


@pytest.mark.parametrize("name", sorted(TABLE))
def test_count_certifies_the_table(name):
    # N(lam) = k half-way between roots k and k + 1 (and below the first); the count is
    # singular at the integers, so points within 1e-6 of one are skipped.
    entry = TABLE[name]
    problem = BeamProblem(tuple(entry["positions"]), tuple(entry["flexibilities"]))
    roots = np.array([0.0, *(float(r) for r in entry["roots"])])
    mids = 0.5 * (roots[:-1] + roots[1:])
    keep = np.abs(mids - np.round(mids)) > 1e-6
    assert keep.sum() >= 20
    counts = shifrin.root_count(problem, mids[keep])
    assert counts.tolist() == np.flatnonzero(keep).astype(float).tolist()


@pytest.mark.parametrize(
    "name, k", [("one_crack", 40), ("stiff_close", 23), ("cracks_1e-6_from_supports", 11)]
)
def test_table_roots_recompute_live(name, k, reference_script):
    # A bracket of 1e-9 around the table's root holds one root of both formulations;
    # recomputed, it matches all 17 digits the table keeps.
    entry = TABLE[name]
    ref = float(entry["roots"][k - 1])
    bracket = (ref * (1 - 1e-9), ref * (1 + 1e-9))
    root = reference_script.root_near(entry["positions"], entry["flexibilities"], *bracket)
    assert mp.nstr(root, 17, strip_zeros=False) == entry["roots"][k - 1]
