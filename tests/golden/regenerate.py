"""Write the golden CLI outputs that ``tests/test_golden.py`` compares against.

One JSON file per fixture and command holds the command line, the exit
code, the stdout and, for ``simulate``, the trajectory CSV.  Run from the
root of a checkout:

    PYTHONPATH=src python tests/golden/regenerate.py [OUTPUT_DIR]

OUTPUT_DIR defaults to ``tests/golden``.  Regenerate only when a change is
meant to alter the outputs, and say why in the change's description.
"""

from __future__ import annotations

import contextlib
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


def _sources(doc: dict) -> str:
    return ",".join(str(nd["id"]) for nd in sorted(doc["nodes"], key=lambda nd: nd["id"])
                    if nd["role"] == "source")


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
    # the landscape grid takes at most 6 nodes, so larger fixtures are reduced first
    "landscape": lambda doc: ["landscape", "--budget", "5e-3", "--resolution", "4"]
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


def main(out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for fixture in sorted(p.name for p in (ROOT / "fixtures").glob("*.json")):
        doc = json.loads((ROOT / "fixtures" / fixture).read_text())
        for label, command in COMMANDS.items():
            args = command(doc)
            argv = [args[0], f"fixtures/{fixture}"] + args[1:]
            record = {"argv": argv, **run_cli(argv)}
            dest = out_dir / f"{Path(fixture).stem}.{label}.json"
            dest.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN)
