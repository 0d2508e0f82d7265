"""CLI outputs against the golden files in ``tests/golden``.

``golden.regenerate.assert_matches`` holds the comparison and its
tolerances; ``regenerate.py`` uses the same function to decide which files
to rewrite.
"""

import csv
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from golden import regenerate
from golden.regenerate import assert_matches, run_cli

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN = sorted(GOLDEN_DIR.glob("*.json"))


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_cli_matches_golden(path):
    want = json.loads(path.read_text())
    assert_matches(run_cli(want["argv"]), want)


def test_regenerate_rewrites_only_failing_files(tmp_path):
    copy = tmp_path / "golden"
    shutil.copytree(GOLDEN_DIR, copy, ignore=shutil.ignore_patterns("*.py", "__pycache__"))
    before = {p.name: p.read_bytes() for p in copy.glob("*.json")}
    regenerate.main(copy)
    assert {p.name: p.read_bytes() for p in copy.glob("*.json")} == before
    # a missing file is written, and so is one whose output no longer matches
    stale = copy / "path4.analyze.json"
    record = json.loads(stale.read_text())
    report = json.loads(record["stdout"])
    report["psi_nir"] *= 1.0 + 1e-9
    record["stdout"] = json.dumps(report, indent=2) + "\n"
    stale.write_text(json.dumps(record, indent=1) + "\n")
    stale_bytes = stale.read_bytes()
    (copy / "star.sweep.json").unlink()
    regenerate.main(copy)
    after = {p.name: p.read_bytes() for p in copy.glob("*.json")}
    assert after.keys() == before.keys() and after[stale.name] != stale_bytes
    for name in (stale.name, "star.sweep.json"):
        assert_matches(json.loads(after.pop(name)), json.loads(before.pop(name)))
    assert after == before


def _lambda2(fixture: Path, allocation: dict) -> float:
    """lam2(diag(allocation) L) from the fixture's lines, through D^1/2 L D^1/2."""
    doc = json.loads(fixture.read_text())
    index = {str(nd["id"]): k for k, nd in enumerate(doc["nodes"])}
    L = np.zeros((len(index), len(index)))
    for e in doc["edges"]:
        a, b = index[str(e["a"])], index[str(e["b"])]
        L[[a, b], [a, b]] += 1.0 / e["length"]
        L[[a, b], [b, a]] -= 1.0 / e["length"]
    d = np.zeros(len(index))
    for node, value in allocation.items():
        d[index[node]] = value
    return float(np.linalg.eigvalsh(np.sqrt(d)[:, None] * L * np.sqrt(d))[1])


OPTIMIZE = [p for p in GOLDEN if ".optimize-" in p.name and json.loads(p.read_text())["exit"] == 0]


@pytest.mark.parametrize("path", OPTIMIZE, ids=lambda p: p.stem)
def test_golden_allocation_is_certified(path):
    # every golden allocation is checked against the fixture, not only replayed
    want = json.loads(path.read_text())
    rep = json.loads(want["stdout"])
    diag = rep["diagnostics"]
    alloc = rep["allocation"]
    budget = float(want["argv"][want["argv"].index("--budget") + 1]) \
        if "--budget" in want["argv"] else diag["budget"]
    fixture = Path(__file__).resolve().parents[1] / want["argv"][1]
    assert _lambda2(fixture, alloc) == pytest.approx(rep["lambda2"], rel=1e-12, abs=0.0)
    assert diag["gap"] <= 1e-9
    if "upper_bound" in diag:
        assert diag["upper_bound"] >= rep["lambda2"] * (1.0 - 4 * np.finfo(float).eps)
    assert min(alloc.values()) >= 0.0
    assert math.fsum(alloc.values()) == pytest.approx(budget, rel=1e-12, abs=0.0)


LANDSCAPE = [p for p in GOLDEN if p.stem.endswith(".landscape")
             and "--sources" not in json.loads(p.read_text())["argv"]]


@pytest.mark.parametrize("path", LANDSCAPE, ids=lambda p: p.stem)
def test_golden_landscape_is_certified(path):
    # every row of an unreduced golden landscape is lam2 at budget * coords
    want = json.loads(path.read_text())
    argv = want["argv"]
    budget = float(argv[argv.index("--budget") + 1])
    fixture = Path(__file__).resolve().parents[1] / argv[1]
    head, *rows = list(csv.reader(io.StringIO(want["stdout"])))
    nodes = [name.removeprefix("coord_") for name in head[:-1]]
    rows = np.array(rows, dtype=float)
    tol = 1e-12 * np.max(np.abs(rows[:, -1]))
    assert tol > 0.0 and np.max(rows[:, -1]) > 0.0
    for row in rows:
        got = _lambda2(fixture, dict(zip(nodes, (budget * row[:-1]).tolist())))
        assert abs(got - row[-1]) <= tol, row
