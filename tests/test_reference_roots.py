"""The jump-amplitude solver against roots computed in mpmath from two formulations.

``tests/data/reference_roots.json`` is written by ``scripts/reference_roots.py``: the
first 40 roots of each layout, from the transfer determinant at 120 digits, each
confirmed by a sign change of the bounded jump-amplitude system within 1e-25.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from crackedbeam import BeamProblem, shifrin

ROOT = Path(__file__).resolve().parents[1]
TABLE = json.loads((ROOT / "tests" / "data" / "reference_roots.json").read_text(encoding="utf-8"))


def _script():
    path = ROOT / "scripts" / "reference_roots.py"
    spec = importlib.util.spec_from_file_location("reference_roots", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_table_covers_every_layout_of_the_script():
    layouts = _script().layouts()
    assert sorted(TABLE) == sorted(layouts)
    for name, (positions, thetas) in layouts.items():
        assert TABLE[name]["positions"] == list(positions)
        assert TABLE[name]["flexibilities"] == list(thetas)
        assert len(TABLE[name]["roots"]) == 40


@pytest.mark.parametrize("name", sorted(TABLE))
def test_jump_amplitude_roots_meet_the_table(name):
    entry = TABLE[name]
    problem = BeamProblem(tuple(entry["positions"]), tuple(entry["flexibilities"]))
    expected = np.array([float(r) for r in entry["roots"]])
    roots = np.array(shifrin.find_eigenvalues(problem, len(expected)))
    assert np.max(np.abs(roots - expected) / expected) <= 1e-12


@pytest.mark.parametrize(
    "name, k", [("one_crack", 40), ("stiff_close", 23), ("cracks_1e-6_from_supports", 11)]
)
def test_table_roots_recompute_live(name, k):
    # A bracket of 1e-9 around the table's root holds one root of both formulations;
    # recomputed, it matches all 17 digits the table keeps.
    script = _script()
    entry = TABLE[name]
    ref = float(entry["roots"][k - 1])
    bracket = (ref * (1 - 1e-9), ref * (1 + 1e-9))
    root = script.root_near(entry["positions"], entry["flexibilities"], *bracket)
    assert mp.nstr(root, 17, strip_zeros=False) == entry["roots"][k - 1]
