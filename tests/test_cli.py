import json
import math

import numpy as np
import pytest

from golden.regenerate import COMMANDS, CSV
from netinduct.cli import main
from conftest import FIXTURES, LINALG_CALLS


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
# serves every command: its eigh is shared by the measures, the phasor
# guard and every step of a sweep, and simulate --worst-case reuses the
# trajectory's eig.  Every command validates the topology once: the copies
# that overrides and sweep steps make validate their outputs only.  complete4
# is optimal at the uniform split, so optimize takes no Newton step here; the
# landscape solves its whole grid in one stacked eigvalsh.
LINALG_COUNTS = {
    "analyze": {"laplacian": 1, "eigh": 1},
    "analyze-lo-ro": {"laplacian": 1, "eigh": 1},
    "analyze-ro": {"laplacian": 1, "eigh": 1},
    "kron": {"laplacian": 1, "eigh": 1},
    "kron-phasor": {"laplacian": 1, "eigh": 1, "solve": 1},
    "simulate": {"laplacian": 1, "eigh": 1, "eig": 1, "cond": 2, "solve": 2},
    "simulate-worst-case": {"laplacian": 1, "eigh": 1, "eig": 1, "cond": 2, "solve": 2},
    "optimize-budget": {"laplacian": 1, "eigh": 2, "eigvalsh": 1},
    "optimize-target-theta": {"laplacian": 1, "eigh": 2, "eigvalsh": 1},
    "landscape": {"laplacian": 1, "eigh": 1, "eigvalsh": 1},
    "sweep": {"laplacian": 1, "eigh": 1, "solve": 5},
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


def test_linalg_calls_per_newton_step(capsys, count_linalg):
    # each step of the allocation solver factors once: one stacked eigh of
    # (Z, W), one stacked eigvalsh and one solve each for predictor and
    # corrector; plus the lift's eigh, the last iterate's eigh and lam2
    code, out, _ = run(capsys, "optimize", FIXTURES / "path4.json", "--budget", "5e-3")
    assert code == 0
    passes = json.loads(out)["diagnostics"]["passes"]
    assert passes == 8
    want = dict.fromkeys(LINALG_CALLS, 0) | {"laplacian": 1, "topology": 1, "eigh": passes + 2,
                                             "eigvalsh": 2 * passes + 1, "solve": 2 * passes}
    assert {name: count_linalg[name] for name in want} == want


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
