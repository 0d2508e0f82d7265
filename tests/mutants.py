"""Mutation checks: does each listed test still catch the fault it was written for?

A mutant replaces one exact piece of text in one file under ``src/`` and
names the tests expected to fail on it.  The runner copies ``src/`` to a
temporary directory, applies one mutant at a time, and runs only that
mutant's tests (with ``-x``) against the copy.  Each mutant is reported as

* ``killed``:   a named test fails, as it should;
* ``survived``: every named test passes, so the tests have a gap to close;
* ``stale``:    its old text is not found exactly once, so the code it
  mutated has changed and the entry must be rewritten with it;
* ``error``:    pytest could not run the named tests (a misnamed test id).

Before any mutant, the named tests run once on the unmutated copy and must
pass.  Run from the root of a checkout:

    python tests/mutants.py [NAME ...]

The exit status is 0 iff every mutant run is killed.  The pytest run of the
test suite does not collect this file: its name does not start with
``test_``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

PROPERTY = "tests/test_network.py::test_columnar_parse_matches_per_edge_reference"
EXPM_PROPERTY = "tests/test_simulate.py::test_cached_modes_match_matrix_exponential"
GOLDEN = "tests/test_golden.py::test_cli_matches_golden"


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the checkout


MUTANTS = (
    Mutant("edge_b_containment", "netinduct/network.py",
           "idset.issuperset(a) and idset.issuperset(b)", "idset.issuperset(a)",
           (PROPERTY,)),
    Mutant("duplicate_edges", "netinduct/network.py",
           "            and len(pairs) == m and pairs.isdisjoint(zip(b, a))\n", "",
           ("tests/test_network.py::test_self_loop_and_duplicate_edge_rejected", PROPERTY)),
    Mutant("length_finiteness", "netinduct/network.py",
           "            and all(map(math.isfinite, length))\n", "",
           (PROPERTY,)),
    Mutant("length_sign", "netinduct/network.py",
           "min(length, default=1.0) > 0.0", "min(length, default=1.0) >= 0.0",
           (PROPERTY,)),
    Mutant("join_countdown", "netinduct/network.py",
           "joins = len(ids) - 1", "joins = len(ids)",
           ("tests/test_network.py::test_connectivity_check_stops_once_spanned",)),
    Mutant("json_allows_nan", "netinduct/cli.py",
           "allow_nan=False", "allow_nan=True",
           ("tests/test_cli.py::test_infinite_resistivity_ratio_is_numerical_error",
            "tests/test_cli.py::test_infinite_allocation_is_numerical_error")),
    Mutant("id_range_bound", "netinduct/network.py",
           "i < 2**63", "i <= 2**63",
           ("tests/test_network.py::test_node_ids_must_fit_int64",)),
    Mutant("lift_ground_row", "netinduct/network.py",
           "np.vstack((-C.sum(axis=0), C))", "np.vstack((np.zeros(C.shape[1]), C))",
           (f"{GOLDEN}[path4.simulate]",
            "tests/test_network.py::test_lift_factors_the_laplacian")),
    Mutant("alpha_without_l_hat", "netinduct/measures.py",
           "S @ G, G.T @ l_hat)", "S @ G, G.T)",
           (f"{GOLDEN}[ieee13_50hz.simulate]", EXPM_PROPERTY)),
    Mutant("worst_case_argmax", "netinduct/cli.py",
           "np.argmin(np.abs(dec.vals - 1.0 / rep.psi_nir))",
           "np.argmax(np.abs(dec.vals - 1.0 / rep.psi_nir))",
           (f"{GOLDEN}[ring5_lout.simulate-worst-case]",
            f"{GOLDEN}[feeder6_partial_lout.simulate-worst-case]")),
    Mutant("all_sources_id_order", "netinduct/kron.py",
           "        L_red = L[np.ix_(s_idx, s_idx)]\n", "        L_red, src = L.copy(), ids\n",
           ("tests/test_kron.py::test_all_sources_is_identity_reduction",
            "tests/test_cli.py::test_optimize_labels_reordered_sources",
            "tests/test_cli.py::test_kron_keeps_reordered_sources",
            "tests/test_cli.py::test_landscape_labels_reordered_sources")),
    Mutant("reduced_matrix_writable", "netinduct/kron.py",
           "    L_red.flags.writeable = False\n", "",
           ("tests/test_network.py::test_laplacian_record_is_shared_and_read_only",)),
    Mutant("phasor_guard_threshold", "netinduct/kron.py",
           "np.max(sv) > 1e14 * np.min(sv)", "np.max(sv) > 1e13 * np.min(sv)",
           ("tests/test_kron.py::test_singularity_guard_matches_condition_number",)),
    Mutant("edge_eps_scale", "netinduct/kron.py",
           "EDGE_EPS_SCALE = 1e-9", "EDGE_EPS_SCALE = 1e-8",
           ("tests/test_kron.py::test_absent_below_1e9_of_largest_entry",)),
    Mutant("load_block_singular_unmapped", "netinduct/kron.py",
           "        except np.linalg.LinAlgError:", "        except ZeroDivisionError:",
           ("tests/test_kron.py::test_disconnected_load_island_raises",)),
    Mutant("bare_matrix_symmetry", "netinduct/allocate.py",
           "    if np.max(np.abs(L - L.T)) > 1e-12 * scale:\n"
           "        raise ValidationError(\"laplacian: matrix is not symmetric\")\n", "",
           ("tests/test_allocate.py::test_non_symmetric_bare_matrix_rejected",)),
    Mutant("bare_matrix_row_sums", "netinduct/allocate.py",
           "    if np.max(np.abs(L.sum(axis=1))) > 1e-9 * scale:\n"
           "        raise ValidationError(\"laplacian: row sums are not zero\")\n", "",
           ("tests/test_allocate.py::test_bare_matrix_with_nonzero_row_sums_rejected",)),
    Mutant("bare_matrix_lambda2", "netinduct/allocate.py",
           "    if not lam[1] > 1e-12 * lam[-1]:\n"
           "        raise ValidationError(\"laplacian: lambda2 is zero, the network is "
           "disconnected\")\n", "",
           ("tests/test_allocate.py::test_disconnected_laplacian_rejected",)),
    Mutant("uniform_rtol", "netinduct/network.py",
           "UNIFORM_RTOL = 1e-12", "UNIFORM_RTOL = 1e-6",
           ("tests/test_measures.py::test_uniformity_threshold_is_1e12_relative",)),
    Mutant("gap_target", "netinduct/allocate.py",
           "_GAP_TARGET = 1e-9", "_GAP_TARGET = 1e-7",
           ("tests/test_cli.py::test_linalg_calls_per_newton_step",
            f"{GOLDEN}[path4.optimize-budget]")),
    Mutant("envelope_slack", "netinduct/simulate.py",
           "ENVELOPE_SLACK = 1e-9", "ENVELOPE_SLACK = 0",
           ("tests/test_cli.py::test_simulate_worst_case",
            f"{GOLDEN}[complete4.simulate-worst-case]")),
)


def _pytest(src: Path, tests) -> int:
    """Run ``tests`` from the checkout with the package imported from ``src``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "-o", f"pythonpath={src}", *tests]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def run_mutant(mutant: Mutant, copy: Path) -> str:
    """Apply ``mutant`` to the copy, run its tests, restore the copy; returns the verdict."""
    target = copy / mutant.file
    text = target.read_text()
    if text.count(mutant.old) != 1:
        return "stale"
    target.write_text(text.replace(mutant.old, mutant.new))
    try:
        code = _pytest(copy, mutant.tests)
    finally:
        target.write_text(text)
    return {0: "survived", 1: "killed"}.get(code, "error")


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
        tests = list(dict.fromkeys(t for m in chosen for t in m.tests))
        if _pytest(copy, tests) != 0:
            print("the named tests fail on the unmutated source", file=sys.stderr)
            return 1
        verdicts = []
        for mutant in chosen:
            start = time.perf_counter()
            verdicts.append(run_mutant(mutant, copy))
            print(f"{verdicts[-1]:8s} {mutant.name} ({time.perf_counter() - start:.1f} s)",
                  flush=True)
    return 0 if all(v == "killed" for v in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
