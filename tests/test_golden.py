"""CLI outputs against the golden files in ``tests/golden``.

Exit codes, JSON keys and their order, CSV headers, regimes, classes and
routes must match exactly.  A float may move by 1e-12 relative to the
largest magnitude in its column (a JSON key, or a CSV column); an
``optimize`` allocation may move by its certified gap times the budget.
"""

import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from golden.regenerate import run_cli

GOLDEN = sorted((Path(__file__).resolve().parent / "golden").glob("*.json"))
RTOL = 1e-12


def _floats(values):
    return [v for v in values if isinstance(v, float) and math.isfinite(v)]


def _scale(*columns) -> float:
    return max((abs(v) for col in columns for v in _floats(col)), default=0.0)


def _assert_close(got, want, atol, where):
    if isinstance(want, float) and isinstance(got, float):
        if math.isnan(want):
            assert math.isnan(got), where
        else:
            assert abs(got - want) <= atol, f"{where}: {got!r} != {want!r} (atol {atol:.3e})"
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def _leaves(value):
    """Scalars of a JSON value in document order."""
    if isinstance(value, dict):
        return [x for v in value.values() for x in _leaves(v)]
    if isinstance(value, list):
        return [x for v in value for x in _leaves(v)]
    return [value]


def _compare_json(got, want, path, atol=None):
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), f"{path}: keys differ"
        for key in want:
            tol = atol
            if tol is None:  # each key of a report is one column
                tol = RTOL * _scale(_leaves(got[key]), _leaves(want[key]))
            _compare_json(got[key], want[key], f"{path}.{key}", tol)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{path}: lengths differ"
        for k, (g, w) in enumerate(zip(got, want)):
            _compare_json(g, w, f"{path}[{k}]", atol)
    else:
        _assert_close(got, want, atol if atol is not None else 0.0, path)


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _compare_csv(got: str, want: str, where: str):
    g_rows = list(csv.reader(io.StringIO(got)))
    w_rows = list(csv.reader(io.StringIO(want)))
    assert len(g_rows) == len(w_rows), f"{where}: row count differs"
    if not w_rows:
        return
    assert g_rows[0] == w_rows[0], f"{where}: header differs"
    g_cols = [[_cell(c) for c in col] for col in zip(*g_rows[1:])]
    w_cols = [[_cell(c) for c in col] for col in zip(*w_rows[1:])]
    assert len(g_cols) == len(w_cols), f"{where}: column count differs"
    for name, g_col, w_col in zip(w_rows[0], g_cols, w_cols):
        atol = RTOL * _scale(g_col, w_col)
        for k, (g, w) in enumerate(zip(g_col, w_col)):
            _assert_close(g, w, atol, f"{where}: {name}[{k}]")


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_cli_matches_golden(path):
    want = json.loads(path.read_text())
    got = run_cli(want["argv"])
    assert got["exit"] == want["exit"]
    assert (got["csv"] is None) == (want["csv"] is None)
    if want["csv"] is not None:
        _compare_csv(got["csv"], want["csv"], "csv")
    if not want["stdout"].startswith("{"):
        _compare_csv(got["stdout"], want["stdout"], "stdout")
        return
    g, w = json.loads(got["stdout"]), json.loads(want["stdout"])
    if "allocation" in w:
        # the optimizer certifies its allocation to within gap * budget
        budget = sum(w["allocation"].values())
        gap = max(g["diagnostics"]["gap"], w["diagnostics"]["gap"])
        alloc_tol = max(gap * budget, RTOL * _scale(_leaves(w["allocation"])))
        _compare_json(g.pop("allocation"), w.pop("allocation"), "allocation", alloc_tol)
    _compare_json(g, w, "stdout")
