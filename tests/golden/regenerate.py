"""Write the golden CLI outputs that ``tests/test_golden.py`` compares against.

One JSON file per fixture and command holds the command line, the exit
code, the stdout and, for ``simulate``, the trajectory CSV.  Run from the
root of a checkout:

    PYTHONPATH=src python tests/golden/regenerate.py [OUTPUT_DIR]

OUTPUT_DIR defaults to ``tests/golden``.  A file is rewritten only when it
is missing or the fresh output fails ``assert_matches`` against it, the
comparison ``tests/test_golden.py`` makes; outputs that move only at
round-off leave their files as they are.  Regenerate only when a change is
meant to alter the outputs, and say why in the change's description.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).resolve().parent
CSV = "{csv}"  # stands for a scratch file that receives the CSV
RTOL = 1e-12


def _sources(doc: dict) -> str:
    return ",".join(str(nd["id"]) for nd in sorted(doc["nodes"], key=lambda nd: nd["id"])
                    if nd["role"] == "source")


def _grid_nodes(doc: dict) -> int:
    """Nodes the landscape grid spans: all of them, or the sources of a larger network."""
    n = len(doc["nodes"])
    return n if n <= 6 else sum(nd["role"] == "source" for nd in doc["nodes"])


def _target_theta(doc: dict) -> str:
    line = math.atan(doc["frequency_rad_s"] * doc["line"]["l_per_len"] / doc["line"]["r_per_len"])
    return repr(line + 0.3 * (math.pi / 2 - line))


# label -> command and options, given the parsed fixture
COMMANDS = {
    "analyze": lambda doc: ["analyze"],
    "analyze-lo-ro": lambda doc: ["analyze", "--lo", "2e-3", "--ro", "0.3"],
    "analyze-ro": lambda doc: ["analyze", "--ro", "0.5"],
    "kron": lambda doc: ["kron", "--sources", _sources(doc)],
    "kron-phasor": lambda doc: ["kron", "--phasor"],
    "simulate": lambda doc: ["simulate", "--points", "40", "-o", CSV],
    "simulate-worst-case": lambda doc: ["simulate", "--points", "40", "--worst-case", "-o", CSV],
    "optimize-budget": lambda doc: ["optimize", "--budget", "5e-3"],
    "optimize-target-theta": lambda doc: ["optimize", "--target-theta", _target_theta(doc)],
    # the landscape grid takes at most 6 nodes, so larger fixtures are reduced
    # first; on 6 nodes every resolution-4 point leaves at least two nodes at
    # zero, where lambda2 = 0, so a 6-node grid takes resolution 5
    "landscape": lambda doc: ["landscape", "--budget", "5e-3",
                              "--resolution", "5" if _grid_nodes(doc) == 6 else "4"]
    + ([] if len(doc["nodes"]) <= 6 else ["--sources", _sources(doc)]),
    "sweep": lambda doc: ["sweep", "--lo-min", "1e-4", "--lo-max", "1e-2", "--steps", "5"],
}


def run_cli(argv: list[str]) -> dict:
    """Run the CLI in this process; returns exit code, stdout and CSV text."""
    from netinduct.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "out.csv"
        args = [str(csv_path) if a == CSV else a for a in argv]
        args = [str(ROOT / a) if a.startswith("fixtures/") else a for a in args]
        out = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("ignore")
            code = main(args)
        csv_text = csv_path.read_text() if csv_path.exists() else None
    return {"exit": code, "stdout": out.getvalue(), "csv": csv_text}


# ---------------------------------------------------------------------------
# Comparison of a fresh record with a golden one


def _require(ok: bool, where: str) -> None:
    if not ok:  # not an assert statement, so that ``python -O`` compares too
        raise AssertionError(where)


def _floats(values):
    return [v for v in values if isinstance(v, float) and math.isfinite(v)]


def _scale(*columns) -> float:
    return max((abs(v) for col in columns for v in _floats(col)), default=0.0)


def _assert_close(got, want, atol, where):
    if isinstance(want, float) and isinstance(got, float):
        if math.isnan(want):
            _require(math.isnan(got), where)
        else:
            _require(abs(got - want) <= atol, f"{where}: {got!r} != {want!r} (atol {atol:.3e})")
    else:
        _require(type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}")


def _leaves(value):
    """Scalars of a JSON value in document order."""
    if isinstance(value, dict):
        return [x for v in value.values() for x in _leaves(v)]
    if isinstance(value, list):
        return [x for v in value for x in _leaves(v)]
    return [value]


def _compare_json(got, want, path, atol=None):
    if isinstance(want, dict):
        _require(isinstance(got, dict) and list(got) == list(want), f"{path}: keys differ")
        for key in want:
            tol = atol
            if tol is None:  # each key of a report is one column
                tol = RTOL * _scale(_leaves(got[key]), _leaves(want[key]))
            _compare_json(got[key], want[key], f"{path}.{key}", tol)
    elif isinstance(want, list):
        _require(isinstance(got, list) and len(got) == len(want), f"{path}: lengths differ")
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
    _require(len(g_rows) == len(w_rows), f"{where}: row count differs")
    if not w_rows:
        return
    _require(g_rows[0] == w_rows[0], f"{where}: header differs")
    g_cols = [[_cell(c) for c in col] for col in zip(*g_rows[1:])]
    w_cols = [[_cell(c) for c in col] for col in zip(*w_rows[1:])]
    _require(len(g_cols) == len(w_cols), f"{where}: column count differs")
    for name, g_col, w_col in zip(w_rows[0], g_cols, w_cols):
        atol = RTOL * _scale(g_col, w_col)
        for k, (g, w) in enumerate(zip(g_col, w_col)):
            _assert_close(g, w, atol, f"{where}: {name}[{k}]")


def assert_matches(got: dict, want: dict) -> None:
    """Raise AssertionError unless the CLI record ``got`` matches the golden ``want``.

    Exit codes, JSON keys and their order, CSV headers, regimes, classes and
    routes must match exactly.  A float may move by 1e-12 relative to the
    largest magnitude in its column (a JSON key, or a CSV column); an
    ``optimize`` allocation may move by its certified gap times the budget.
    """
    _require(got["exit"] == want["exit"], f"exit {got['exit']} != {want['exit']}")
    _require((got["csv"] is None) == (want["csv"] is None), "csv present or absent")
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


def _is_current(dest: Path, argv: list[str], got: dict) -> bool:
    """True iff ``dest`` holds a golden record of ``argv`` that ``got`` matches."""
    if not dest.exists():
        return False
    want = json.loads(dest.read_text())
    try:
        assert_matches(got, want)
    except AssertionError:
        return False
    return want["argv"] == argv


def main(out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for fixture in sorted(p.name for p in (ROOT / "fixtures").glob("*.json")):
        doc = json.loads((ROOT / "fixtures" / fixture).read_text())
        for label, command in COMMANDS.items():
            args = command(doc)
            argv = [args[0], f"fixtures/{fixture}"] + args[1:]
            got = run_cli(argv)
            dest = out_dir / f"{Path(fixture).stem}.{label}.json"
            if not _is_current(dest, argv, got):
                dest.write_text(json.dumps({"argv": argv, **got}, indent=1) + "\n")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN)
