import csv
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from golden.regenerate import COMMANDS, CSV
from netinduct import NetinductError, cli, network_to_dict
from netinduct.cli import main
from conftest import FIXTURES, LINALG_CALLS, make_network, wide_spread_tree_edges


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


def test_analyze_complete4(capsys):
    code, out, err = run(capsys, "analyze", FIXTURES / "complete4.json")
    assert code == 0 and err == ""
    rep = json.loads(out)
    assert rep["psi_nir"] == pytest.approx(0.009 / 0.7, rel=1e-12)
    assert rep["regime"] == "lambda2"
    assert rep["lambda_used"] == pytest.approx(4.0)
    assert rep["assumption1_ok"] is True


def test_analyze_with_overrides(capsys):
    code, out, _ = run(capsys, "analyze", FIXTURES / "bare.json",
                       "--lo", "2e-3", "--ro", "0")
    assert code == 0
    rep = json.loads(out)
    lam2 = 1.0  # path of two unit lines
    net_r, net_l = 0.7, 0.001  # line parameters of the fixture
    assert rep["psi_nir"] == pytest.approx((2e-3 * lam2 + net_l) / net_r, rel=1e-9)


def test_missing_file_is_input_error(capsys):
    code, out, err = run(capsys, "analyze", "no-such-network.json")
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


@pytest.mark.parametrize("content", [None, b"\xff\xfe{}"], ids=["directory", "not-utf8"])
def test_unreadable_network_is_input_error(capsys, tmp_path, content):
    path = tmp_path / "net.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    code, out, err = run(capsys, "analyze", path)
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_malformed_json_is_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _, err = run(capsys, "analyze", bad)
    assert code == 2 and "error:" in err


def test_kron_reduction(capsys):
    code, out, _ = run(capsys, "kron", FIXTURES / "ieee13_50hz.json",
                       "--sources", "1,3,7")
    assert code == 0
    rep = json.loads(out)
    assert rep["node_ids"] == [1, 3, 7]
    assert rep["lambda2"] == pytest.approx(2.64, abs=1e-9)
    assert np.allclose(np.array(rep["laplacian"]).sum(axis=1), 0.0, atol=1e-12)


def test_kron_all_sources_warns(capsys):
    with pytest.warns(RuntimeWarning, match="nothing to eliminate"):
        code, out, _ = run(capsys, "kron", FIXTURES / "bare.json")
    assert code == 0
    assert json.loads(out)["node_ids"] == [1, 2, 3]


def test_kron_phasor_table(capsys):
    code, out, _ = run(capsys, "kron", FIXTURES / "path4.json",
                       "--phasor", "--lo", "1e-3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "i,j,class,R_branch,X_branch,theta_rad"
    rows = [ln.split(",") for ln in lines[1:]]
    classes = {(r[0], r[1]): r[2] for r in rows}
    assert classes[("1", "2")] == "physical"
    assert classes[("1", "3")] == "virtual"


def test_kron_phasor_rejects_output_resistance(capsys):
    # the phasor model has no output resistance: --ro used to be ignored
    code, out, err = run(capsys, "kron", FIXTURES / "path4.json",
                         "--phasor", "--lo", "1e-3", "--ro", "0.5")
    assert code == 2
    assert out == ""
    assert err.startswith("error: r_out:")


@pytest.mark.parametrize("command", [
    ("optimize", "--budget", "5e-3"),
    ("landscape", "--budget", "5e-3", "--resolution", "2"),
    ("kron",),
], ids=["optimize", "landscape", "kron"])
def test_repeated_sources_are_dropped(capsys, command):
    net = FIXTURES / "ieee13_50hz.json"
    code, want, _ = run(capsys, command[0], net, *command[1:], "--sources", "1,3,7")
    assert code == 0
    code, got, _ = run(capsys, command[0], net, *command[1:], "--sources", "1,1,3,7,3")
    assert code == 0
    assert got == want


# sources that name every node, listed in reverse: nothing is eliminated, and
# each output must still be labelled by the order requested
FEEDER6 = FIXTURES / "feeder6_partial_lout.json"
SORTED6, REVERSED6 = "1,2,3,4,5,6", "6,5,4,3,2,1"


@pytest.mark.filterwarnings("ignore:all nodes are sources")
@pytest.mark.parametrize("option", [("--budget", "5e-3"), ("--target-theta", "1.2")],
                         ids=["budget", "target-theta"])
def test_optimize_labels_reordered_sources(capsys, option):
    reps = []
    for sources in (SORTED6, REVERSED6):
        code, out, _ = run(capsys, "optimize", FEEDER6, *option, "--sources", sources)
        assert code == 0
        reps.append(json.loads(out))
    assert list(reps[1]["allocation"]) == REVERSED6.split(",")
    # lambda2 is certified to a gap of 1e-9; the allocation is not unique to
    # that accuracy, and with the rows reordered it moves by about 1e-6
    assert reps[1]["allocation"] == pytest.approx(reps[0]["allocation"], rel=1e-4)
    assert reps[1]["lambda2"] == pytest.approx(reps[0]["lambda2"], rel=1e-12)


@pytest.mark.filterwarnings("ignore:all nodes are sources")
def test_landscape_labels_reordered_sources(capsys):
    # the star's leaves have distinct lengths, so a swapped column moves lambda2;
    # at resolution 3 some points put budget on 3 of its 4 nodes, and lambda2 > 0
    grids = []
    for sources in ("1,2,3,4", "4,3,2,1"):
        code, out, _ = run(capsys, "landscape", FIXTURES / "star.json", "--budget", "5e-3",
                           "--resolution", "3", "--sources", sources)
        assert code == 0
        header, *rows = list(csv.reader(io.StringIO(out)))
        assert header == [f"coord_{i}" for i in sources.split(",")] + ["lambda2"]
        ids = [int(i) for i in sources.split(",")]
        grids.append({tuple(sorted(zip(ids, map(float, row[:-1])))): float(row[-1])
                      for row in rows})
    assert grids[1].keys() == grids[0].keys()
    scale = max(grids[0].values())
    for coords, lam2 in grids[0].items():
        assert grids[1][coords] == pytest.approx(lam2, rel=1e-9, abs=1e-12 * scale)


def test_kron_keeps_reordered_sources(capsys):
    reps = []
    for sources in (SORTED6, REVERSED6):
        with pytest.warns(RuntimeWarning, match="nothing to eliminate"):
            code, out, _ = run(capsys, "kron", FEEDER6, "--sources", sources)
        assert code == 0
        reps.append(json.loads(out))
    assert reps[1]["node_ids"] == [6, 5, 4, 3, 2, 1]
    assert np.array_equal(reps[1]["laplacian"], np.array(reps[0]["laplacian"])[::-1, ::-1])
    assert reps[1]["lambda2"] == pytest.approx(reps[0]["lambda2"], rel=1e-12)


def test_simulate_worst_case(capsys):
    code, out, _ = run(capsys, "simulate", FIXTURES / "complete4.json",
                       "--worst-case")
    assert code == 0
    rep = json.loads(out)
    assert rep["lower_envelope_ok"] and rep["upper_envelope_ok"]
    assert rep["min_lower_slack"] <= 1e-6  # worst mode rides the bound


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.json")))
def test_simulate_reports_route(capsys, name):
    code, out, _ = run(capsys, "simulate", FIXTURES / name, "--points", "20")
    assert code == 0
    assert json.loads(out)["route"] == "modes"


# numpy.linalg calls and Laplacian assemblies per golden command on complete4;
# a change that moves a count says why.  One Laplacian record per network
# serves every command: its eigvalsh is shared by the measures, the phasor
# guard and every step of a sweep, and no command runs eigh on a Laplacian.
# simulate adds the pencil: the lift's Cholesky, the Cholesky of L^, the
# inverse of its factor and one eigh, then one triangular solve per
# trajectory; --worst-case reuses the modes.  Every command validates the
# topology once: the copies that overrides and sweep steps make validate
# their outputs only.  optimize reads the lift (one Cholesky) and lam2 of the
# record, which scales the solver; complete4 is optimal at the uniform
# split, so it takes no Newton step here, and one eigvalsh of the lifted
# form gives the reported lam2.  The landscape reads the lift only and
# solves its whole grid in one stacked eigvalsh.
LINALG_COUNTS = {
    "analyze": {"laplacian": 1, "eigvalsh": 1},
    "analyze-lo-ro": {"laplacian": 1, "eigvalsh": 1},
    "analyze-ro": {"laplacian": 1, "eigvalsh": 1},
    "kron": {"laplacian": 1, "eigvalsh": 1},
    "kron-phasor": {"laplacian": 1, "eigvalsh": 1, "solve": 1},
    "simulate": {"laplacian": 1, "eigvalsh": 1, "eigh": 1, "cholesky": 2, "inv": 1,
                 "solve": 1},
    "simulate-worst-case": {"laplacian": 1, "eigvalsh": 1, "eigh": 1, "cholesky": 2,
                            "inv": 1, "solve": 1},
    "optimize-budget": {"laplacian": 1, "eigh": 1, "eigvalsh": 2, "cholesky": 1},
    "optimize-target-theta": {"laplacian": 1, "eigh": 1, "eigvalsh": 2, "cholesky": 1},
    "landscape": {"laplacian": 1, "eigvalsh": 1, "cholesky": 1},
    "sweep": {"laplacian": 1, "eigvalsh": 1, "solve": 5},
}


@pytest.mark.filterwarnings("ignore:all nodes are sources")
@pytest.mark.parametrize("label", sorted(COMMANDS))
def test_linalg_calls_per_command(capsys, tmp_path, count_linalg, label):
    fixture = FIXTURES / "complete4.json"
    argv = [str(tmp_path / "out.csv") if a == CSV else a
            for a in COMMANDS[label](json.loads(fixture.read_text()))]
    code, _, _ = run(capsys, argv[0], fixture, *argv[1:])
    assert code == 0
    want = dict.fromkeys(LINALG_CALLS + ("laplacian",), 0) | {"topology": 1} | LINALG_COUNTS[label]
    assert {name: count_linalg[name] for name in want} == want


# path4 reduced onto its end nodes eliminates two: one reduction (one solve
# of the load block, with no condition number) and one eigvalsh of the
# reduced record; the allocation reads its lift (one Cholesky), on two nodes
# the solver stops after its first stacked eigh, and one eigvalsh gives lambda2
ELIMINATING_COUNTS = {
    "kron": (("kron",), {"solve": 1, "eigvalsh": 1}),
    "optimize-budget": (("optimize", "--budget", "5e-3"),
                        {"solve": 1, "eigh": 1, "eigvalsh": 2, "cholesky": 1}),
    "optimize-target-theta": (("optimize", "--target-theta", "1.2"),
                              {"solve": 1, "eigh": 1, "eigvalsh": 2, "cholesky": 1}),
}


@pytest.mark.parametrize("label", sorted(ELIMINATING_COUNTS))
def test_linalg_calls_with_eliminated_nodes(capsys, count_linalg, label):
    command, counts = ELIMINATING_COUNTS[label]
    code, _, _ = run(capsys, command[0], FIXTURES / "path4.json", *command[1:],
                     "--sources", "1,4")
    assert code == 0
    want = dict.fromkeys(LINALG_CALLS, 0) | {"laplacian": 1, "topology": 1} | counts
    assert {name: count_linalg[name] for name in want} == want


def test_linalg_calls_per_newton_step(capsys, count_linalg):
    # each step of the allocation solver factors once: one stacked eigh of
    # (Z, W), one stacked eigvalsh and one solve each for predictor and
    # corrector; plus the lift's Cholesky, the record's eigvalsh, the last
    # iterate's eigh and lam2
    code, out, _ = run(capsys, "optimize", FIXTURES / "path4.json", "--budget", "5e-3")
    assert code == 0
    passes = json.loads(out)["diagnostics"]["passes"]
    assert passes == 8
    want = dict.fromkeys(LINALG_CALLS, 0) | {"laplacian": 1, "topology": 1, "eigh": passes + 1,
                                             "eigvalsh": 2 * passes + 2, "solve": 2 * passes,
                                             "cholesky": 1}
    assert {name: count_linalg[name] for name in want} == want


# exponents of (length, time, impedance) in the unit of each fixture field
# and output key; an inductance is an impedance times a time
_FIELD_UNITS = {"length": (1, 0, 0), "r_per_len": (-1, 0, 1), "l_per_len": (-1, 1, 1),
                "r_out": (0, 0, 1), "l_out": (0, 1, 1), "frequency_rad_s": (0, -1, 0)}
_KEY_UNITS = {"allocation": (0, 1, 1), "budget": (0, 1, 1), "lambda2": (-1, 1, 1),
              "upper_bound": (-1, 1, 1), "psi_nir": (0, 1, 0), "theta_nir": (0, 0, 0),
              "gap": (0, 0, 0), "passes": (0, 0, 0), "starts": (0, 0, 0)}


def _rescaled(doc: dict, unit: int, k: int) -> dict:
    """``doc`` in a unit 4**k times larger, field by field: exact in binary."""
    def scale(value, field):
        return value * 4.0 ** (k * _FIELD_UNITS[field][unit])
    out = json.loads(json.dumps(doc))
    out["frequency_rad_s"] = scale(doc["frequency_rad_s"], "frequency_rad_s")
    for field in ("r_per_len", "l_per_len"):
        out["line"][field] = scale(doc["line"][field], field)
    for node in out["nodes"]:
        node["r_out"], node["l_out"] = scale(node["r_out"], "r_out"), scale(node["l_out"], "l_out")
    for edge in out["edges"]:
        edge["length"] = scale(edge["length"], "length")
    return out


@pytest.mark.parametrize("unit", [0, 1, 2], ids=["length", "time", "impedance"])
@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.json")))
def test_optimize_and_landscape_are_exactly_unit_equivariant(capsys, tmp_path, name, unit):
    # a change of unit by a power of four is exact in binary floating point,
    # and so is its square root: every output key moves by the exact power
    # of its unit, with no tolerance
    doc = json.loads((FIXTURES / name).read_text())
    for label in ("optimize-budget", "optimize-target-theta", "landscape"):
        argv = COMMANDS[label](doc)
        code, want, err = run(capsys, argv[0], FIXTURES / name, *argv[1:])
        assert code == 0, err
        for k in (5, -7, -8, 30):
            factor = {key: 4.0 ** (k * e[unit]) for key, e in _KEY_UNITS.items()}
            path = tmp_path / f"{k}.json"
            path.write_text(json.dumps(_rescaled(doc, unit, k)))
            scaled = list(argv)
            if "--budget" in argv:
                at = argv.index("--budget") + 1
                scaled[at] = repr(float(argv[at]) * factor["budget"])
            code, got, err = run(capsys, scaled[0], path, *scaled[1:])
            assert code == 0, err
            if label == "landscape":
                head, *rows = list(csv.reader(io.StringIO(want)))
                rows = [[*map(float, row[:-1]), float(row[-1]) * factor["lambda2"]]
                        for row in rows]
                assert list(csv.reader(io.StringIO(got))) == [head] + [
                    [repr(x) for x in row] for row in rows], (label, k)
                continue
            rep = json.loads(want)
            rep["allocation"] = {i: x * factor["allocation"] for i, x in rep["allocation"].items()}
            for key in ("lambda2", "psi_nir", "theta_nir"):
                rep[key] *= factor[key]
            for key in rep["diagnostics"]:
                rep["diagnostics"][key] *= factor[key]
            assert json.loads(got) == rep, (label, k)


def test_every_command_runs_without_scipy(tmp_path):
    # scipy is needed by the tests only: with its import blocked, each golden
    # command line runs on complete4 and exits 0
    fixture = FIXTURES / "complete4.json"
    doc = json.loads(fixture.read_text())
    argvs = []
    for label, command in COMMANDS.items():
        args = [str(tmp_path / f"{label}.csv") if a == CSV else a for a in command(doc)]
        argvs.append([args[0], str(fixture), *args[1:]])
    assert {argv[0] for argv in argvs} == {"analyze", "kron", "simulate", "optimize",
                                           "landscape", "sweep"}
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import contextlib, io, json, sys, warnings\n"
            "sys.modules['scipy'] = None\n"
            f"sys.path.insert(0, {src!r})\n"
            "from netinduct.cli import main\n"
            "warnings.simplefilter('ignore')\n"
            "codes = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        codes.append(main(argv))\n"
            "print(json.dumps(codes))\n")
    out = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == [0] * len(argvs)


def test_simulate_zero_default_horizon_is_numerical_error(capsys):
    # r_o = 1e308 makes psi_nir 0.0, so the default horizon 8 * psi_nir is 0
    code, out, err = run(capsys, "simulate", FIXTURES / "complete4.json", "--ro", "1e308")
    assert code == 3 and out == ""
    assert err.startswith("error: psi_nir: ")


def test_simulate_large_uniform_output_keeps_envelopes(capsys):
    # on a uniform complete graph every zero-sum mode decays at 1/psi_nir, so
    # the trajectory is e^{-t/psi} I0 and rides both envelopes
    code, out, _ = run(capsys, "simulate", FIXTURES / "complete4.json", "--lo", "1e6")
    assert code == 0
    rep = json.loads(out)
    assert rep["lower_envelope_ok"] and rep["upper_envelope_ok"]


def test_node_id_beyond_int64_is_input_error(capsys, tmp_path):
    big = 2**63 + 5
    path = tmp_path / "path4.json"
    path.write_text((FIXTURES / "path4.json").read_text()
                    .replace('"id": 4', f'"id": {big}').replace('"b": 4', f'"b": {big}'))
    assert str(big) in path.read_text()
    code, out, err = run(capsys, "kron", path, "--phasor", "--lo", "1e-3")
    assert code == 2 and out == ""
    assert err.startswith("error: nodes: id 9223372036854775813 ")


def test_simulate_csv_output(capsys, tmp_path):
    dest = tmp_path / "traj.csv"
    code, out, _ = run(capsys, "simulate", FIXTURES / "complete4.json",
                       "--points", "50", "-o", dest)
    assert code == 0
    assert json.loads(out)["lower_envelope_ok"]
    lines = dest.read_text().strip().splitlines()
    assert lines[0] == "t,I_1,I_2,I_3,I_4,norm"
    assert len(lines) == 51


def _no_constants(name):
    raise ValueError(f"non-JSON constant {name}")


def test_simulate_past_underflow_keeps_envelopes(capsys):
    # ||I(t)|| and the bounds fall below the normal doubles long before t = 10 s
    code, out, _ = run(capsys, "simulate", FIXTURES / "complete4.json", "--tmax", "10")
    assert code == 0
    rep = json.loads(out, parse_constant=_no_constants)
    assert rep["lower_envelope_ok"] and rep["upper_envelope_ok"]


@pytest.mark.parametrize("grid", [("--tmax", "-1"), ("--tmax", "0"), ("--points", "0")],
                         ids=["tmax=-1", "tmax=0", "points=0"])
def test_simulate_bad_grid_is_input_error(capsys, grid):
    code, out, err = run(capsys, "simulate", FIXTURES / "complete4.json", *grid)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {grid[0]}:")


@pytest.mark.parametrize("argv,name", [
    (("sweep", "--lo-min", "0", "--lo-max", "1e-3"), "--lo-min"),
    (("sweep", "--lo-min", "1e-4", "--lo-max", "inf"), "--lo-max"),
    (("sweep", "--lo-min", "1e-4", "--lo-max", "1e-3", "--steps", "0"), "--steps"),
    (("sweep", "--lo-min", "1e-4", "--lo-max", "1e-3", "--steps", "-3"), "--steps"),
    (("sweep", "--lo-min", "1e-4", "--lo-max", "1e-3", "--lo", "5"), "--lo"),
    (("sweep", "--lo-min", "1e-4", "--lo-max", "1e-3", "--ro", "0.5"), "--ro"),
    (("kron", "--sources", "1"), "sources"),
], ids=["lo-min=0", "lo-max=inf", "steps=0", "steps=-3", "lo", "ro=0.5", "one-source"])
def test_bad_sweep_or_sources_is_input_error(capsys, argv, name):
    code, out, err = run(capsys, argv[0], FIXTURES / "path4.json", *argv[1:])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {name}:")


# the overrides each golden command would ignore: each is an input error
UNREAD_OVERRIDES = {
    "analyze": (),
    "kron": ("lo", "omega", "ro"),
    "kron-phasor": (),
    "landscape": ("lo", "omega", "ro"),
    "optimize-budget": ("lo", "ro"),
    "optimize-target-theta": ("lo", "ro"),
    "simulate": ("omega",),
    "simulate-worst-case": ("omega",),
    "sweep": ("lo", "ro"),
}
OVERRIDES = {"lo": "5e-3", "omega": "100.0", "ro": "0.3"}


@pytest.mark.filterwarnings("ignore:all nodes are sources")
@pytest.mark.parametrize("flag", sorted(OVERRIDES))
@pytest.mark.parametrize("label", sorted(UNREAD_OVERRIDES))
def test_override_is_read_or_rejected(capsys, tmp_path, label, flag):
    fixture = FIXTURES / "complete4.json"
    argv = [str(tmp_path / "out.csv") if a == CSV else a
            for a in COMMANDS[label](json.loads(fixture.read_text()))]
    code, want, _ = run(capsys, argv[0], fixture, *argv[1:])
    assert code == 0
    code, got, err = run(capsys, argv[0], fixture, *argv[1:], f"--{flag}", OVERRIDES[flag])
    if flag in UNREAD_OVERRIDES[label]:
        assert (code, got) == (2, "")
        assert err.startswith(f"error: --{flag}:")
    elif (label, flag) == ("kron-phasor", "ro"):  # read, and rejected by the phasor model
        assert (code, got) == (2, "")
        assert err.startswith("error: r_out:")
    else:
        assert code == 0
        assert got != want


def test_sweep_accepts_zero_output_resistance(capsys):
    argv = ("sweep", FIXTURES / "path4.json", "--lo-min", "1e-3", "--lo-max", "1e-2", "--steps", "2")
    code, want, _ = run(capsys, *argv)
    assert code == 0
    assert run(capsys, *argv, "--ro", "0") == (0, want, "")


def test_optimize_budget(capsys):
    code, out, _ = run(capsys, "optimize", FIXTURES / "star.json",
                       "--budget", "5e-3")
    assert code == 0
    rep = json.loads(out)
    expect = 5e-3 * np.array([5.0, 7.0, 9.0, 0.0]) / 21.0
    got = np.array([rep["allocation"][k] for k in ("1", "2", "3", "4")])
    assert np.allclose(got, expect, atol=1e-8 * 5e-3)
    assert rep["lambda2"] == pytest.approx(5e-3 / 21.0, rel=1e-8)


def test_optimize_target_theta(capsys):
    target = 1.1 * math.atan(1.2 / 0.7)
    code, out, _ = run(capsys, "optimize", FIXTURES / "ieee13_50hz.json",
                       "--target-theta", repr(target), "--sources", "1,3,7")
    assert code == 0
    rep = json.loads(out)
    assert set(rep["allocation"]) == {"1", "3", "7"}
    assert rep["theta_nir"] == pytest.approx(target, rel=1e-9)


@pytest.mark.parametrize("command", [("optimize",), ("landscape", "--resolution", "3")],
                         ids=["optimize", "landscape"])
@pytest.mark.parametrize("budget", ["nan", "inf"])
def test_non_finite_budget_is_input_error(capsys, command, budget):
    code, out, err = run(capsys, command[0], FIXTURES / "star.json", *command[1:],
                         "--budget", budget)
    assert code == 2 and out == ""
    assert err.startswith("error: budget:")


def test_optimize_warns_when_its_gap_misses_the_target(capsys, tmp_path):
    # a 16-node tree with lengths over 12 decades stalls short of the target
    # (it did so before the per-step rewrite too): the command still exits 0
    # with the same document, and says so in one stderr line
    rng = np.random.default_rng(1)
    edges = wide_spread_tree_edges(rng, 16)
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(network_to_dict(make_network(edges))))
    dest = tmp_path / "out.json"
    code, out, err = run(capsys, "optimize", path, "--budget", "5e-3", "-o", dest)
    assert code == 0 and out == ""
    code, out, err_stdout = run(capsys, "optimize", path, "--budget", "5e-3")
    assert code == 0 and out == dest.read_text()
    gap = json.loads(out)["diagnostics"]["gap"]
    assert gap > 1e-9
    assert err == err_stdout == f"warning: certified gap {gap!r} misses the target 1e-09\n"
    # path4 certifies a gap just below the target (golden file): no warning
    code, out, err = run(capsys, "optimize", FIXTURES / "path4.json", "--budget", "5e-3")
    assert code == 0 and 0.5e-9 < json.loads(out)["diagnostics"]["gap"] <= 1e-9 and err == ""


def test_optimize_requires_budget_or_target(capsys):
    code, _, err = run(capsys, "optimize", FIXTURES / "star.json")
    assert code == 2 and "error:" in err


def test_landscape(capsys):
    code, out, _ = run(capsys, "landscape", FIXTURES / "twonode.json",
                       "--budget", "2e-3", "--resolution", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "coord_1,coord_2,lambda2"
    assert len(lines) == 6
    lam2 = [float(ln.split(",")[-1]) for ln in lines[1:]]
    assert np.allclose(lam2, 2e-3 / 2.0, rtol=1e-12)  # edge length 2


def test_sweep(capsys):
    code, out, _ = run(capsys, "sweep", FIXTURES / "twonode.json",
                       "--lo-min", "1e-4", "--lo-max", "1e-2", "--steps", "4")
    assert code == 0
    lines = out.strip().splitlines()
    head = lines[0].split(",")
    assert head[:2] == ["l_out", "theta_nir"]
    assert "theta_1_2" in head and "class_1_2" in head
    assert len(lines) == 5
    thetas = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert all(b > a for a, b in zip(thetas, thetas[1:]))


def test_byte_identical_reruns(capsys):
    args = ("optimize", FIXTURES / "star.json", "--budget", "5e-3")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_output_file_analyze(capsys, tmp_path):
    dest = tmp_path / "report.json"
    code, out, _ = run(capsys, "analyze", FIXTURES / "complete4.json", "-o", dest)
    assert code == 0 and out == ""
    assert json.loads(dest.read_text())["regime"] == "lambda2"


def test_optimize_more_than_six_nodes(capsys):
    code, out, err = run(capsys, "optimize", FIXTURES / "ieee13_50hz.json",
                         "--budget", "5e-3")
    assert code == 0 and err == ""
    rep = json.loads(out)
    assert len(rep["allocation"]) == 13
    assert sum(rep["allocation"].values()) == pytest.approx(5e-3, rel=1e-12)
    assert rep["diagnostics"]["starts"] == 1
    assert rep["diagnostics"]["gap"] <= 1e-9


def test_non_finite_input_is_input_error(capsys, tmp_path):
    bad = tmp_path / "nan.json"
    bad.write_text((FIXTURES / "twonode.json").read_text()
                   .replace('"r_per_len": 0.7', '"r_per_len": NaN'))
    code, out, err = run(capsys, "analyze", bad)
    assert code == 2 and out == ""
    assert "line.r_per_len" in err


def test_non_finite_override_is_input_error(capsys):
    code, out, err = run(capsys, "analyze", FIXTURES / "star.json", "--lo", "nan")
    assert code == 2 and out == ""
    assert "l_out" in err


def test_infinite_resistivity_ratio_is_numerical_error(capsys, tmp_path):
    # r_o = 1e308 drives the slowest rate to inf; "psi_nrr": Infinity is not JSON
    dest = tmp_path / "report.json"
    code, out, err = run(capsys, "analyze", FIXTURES / "complete4.json", "--ro", "1e308",
                         "-o", dest)
    assert code == 3 and out == "" and not dest.exists()
    assert err == "error: psi_nrr: result is not a finite number, got inf\n"


def test_infinite_allocation_is_numerical_error(capsys):
    # at omega = 5e-324 the target angle needs infinite inductors
    code, out, err = run(capsys, "optimize", FIXTURES / "complete4.json",
                         "--target-theta", "1.4", "--omega", "5e-324")
    assert code == 3 and out == ""
    assert err == "error: allocation.1: result is not a finite number, got inf\n"


def test_non_finite_result_names_its_key():
    with pytest.raises(NetinductError, match=r"^laplacian\[1\]\[0\]: .* got nan$"):
        cli._json({"node_ids": [1, 2], "laplacian": [[1.0, -1.0], [math.nan, 1.0]]})
    with pytest.raises(NetinductError, match=r"^diagnostics\.gap: .* got -inf$"):
        cli._json({"lambda2": 1.0, "diagnostics": {"passes": 3, "gap": -math.inf}})
    assert cli._json({"x": [1.0e308, 5e-324]}) == '{\n  "x": [\n    1e+308,\n    5e-324\n  ]\n}\n'


@settings(max_examples=20, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1))
def test_wide_spread_tree_is_never_called_invalid(capsys, tmp_path, seed):
    # a valid 40-node tree with lengths over 12 decades: the reduction onto 4
    # sources may lose its row sums to round-off (exit 3, naming the reduced
    # Laplacian) but never calls the network invalid (exit 2)
    rng = np.random.default_rng(seed)
    edges = wide_spread_tree_edges(rng, 40)
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(network_to_dict(make_network(edges))))
    sources = ",".join(map(str, rng.choice(np.arange(1, 41), size=4, replace=False)))
    code, out, err = run(capsys, "kron", path, "--sources", sources)
    assert code in (0, 3), err
    if code == 3:
        assert out == "" and err.startswith("error: reduced Laplacian: ")
    code, out, err = run(capsys, "optimize", path, "--sources", sources, "--budget", "5e-3")
    assert code in (0, 3), err
    if code == 3:
        assert out == ""


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1))
def test_valid_tree_at_any_length_scale_is_never_called_disconnected(capsys, tmp_path, seed):
    # topology validation has proved the tree connected, so however far its
    # lengths spread (here 12 decades over 16 nodes), the allocation may at
    # worst lose lambda2 to round-off (exit 3), but never rejects the input
    rng = np.random.default_rng(seed)
    edges = wide_spread_tree_edges(rng, 16)
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(network_to_dict(make_network(edges))))
    code, out, err = run(capsys, "optimize", path, "--budget", "5e-3")
    assert code in (0, 3), err
    if code == 3:
        assert out == ""


def test_sweep_leaves_absent_angle_cells_empty(capsys, tmp_path):
    # far pairs of a long path at a tiny output inductance are absent: sweep
    # leaves their angle cells empty, as kron --phasor does, and prints no nan
    path = tmp_path / "path10.json"
    path.write_text(json.dumps(network_to_dict(
        make_network([(k, k + 1, 1.0) for k in range(1, 10)]))))
    code, out, _ = run(capsys, "sweep", path, "--lo-min", "1e-6", "--lo-max", "1e-6",
                       "--steps", "1")
    assert code == 0 and "nan" not in out
    head, row = csv.reader(io.StringIO(out))
    cells = dict(zip(head, row))
    code, table, _ = run(capsys, "kron", path, "--phasor", "--lo", "1e-6")
    assert code == 0
    absent = [(i, j) for i, j, klass, *_ in list(csv.reader(io.StringIO(table)))[1:]
              if klass == "absent"]
    assert len(absent) == 21
    for i, j in absent:
        assert cells[f"class_{i}_{j}"] == "absent" and cells[f"theta_{i}_{j}"] == ""
    assert sum(cell == "" for cell in row) == len(absent)
