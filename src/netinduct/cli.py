"""Command-line front end.

Commands: analyze, kron, simulate, optimize, landscape, sweep.
Exit codes: 0 success, 2 input error, 3 numerical error.  An override
(--lo, --ro, --omega) that a command would not read is an input error.  All
numeric JSON output uses Python's round-trip float representation; a NaN or
infinite result is not JSON, so it is a numerical error naming its key.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import allocate, kron, measures, simulate
from .errors import NetinductError, ParseError, ValidationError
from .network import PowerNetwork, build_laplacian, load_network


def _reject_unread(args, why: str, *flags: str) -> None:
    """Exit 2, naming the flag, on an override the command would ignore."""
    for flag in flags:
        if getattr(args, flag) is not None:
            raise ValidationError(f"--{flag}: {why}, got {getattr(args, flag)!r}")


def _load(args) -> PowerNetwork:
    net = load_network(args.network)
    if args.omega is not None or args.lo is not None or args.ro is not None:
        net = net.with_outputs(r_out=args.ro, l_out=args.lo, omega=args.omega)
    return net


def _emit(text: str, args) -> None:
    if args.output:
        with open(args.output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(doc: dict) -> str:
    """``doc`` as indented JSON text; every JSON document the CLI prints is made here."""
    try:
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    except ValueError:  # a NaN or infinity, which JSON cannot hold
        where, value = next((where, value) for where, value in _leaves(doc)
                            if isinstance(value, float) and not math.isfinite(value))
        raise NetinductError(f"{where}: result is not a finite number, got {value!r}") from None


def _leaves(value, where: str = ""):
    """(key path, value) of every scalar in a JSON value, in document order."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{where}.{key}" if where else str(key))
    elif isinstance(value, list):
        for k, item in enumerate(value):
            yield from _leaves(item, f"{where}[{k}]")
    else:
        yield where, value


def _report_dict(rep: measures.MeasureReport) -> dict:
    return {
        "psi_nir": rep.psi_nir,
        "psi_nrr": rep.psi_nrr,
        "theta_nir": rep.theta_nir,
        "regime": rep.regime,
        "lambda_used": rep.lambda_used,
        "mu": rep.mu,
        "assumption1_ok": True,  # holds for every valid network: proof in the measures docstring
    }


def cmd_analyze(args) -> int:
    net = _load(args)
    rep = measures.measure_report(net)
    _emit(_json(_report_dict(rep)), args)
    return 0


def _parse_sources(spec: str, net: PowerNetwork) -> list[int]:
    """Node ids in first-seen order; a repeated id is dropped, as the reduction drops it."""
    if spec == "all":
        return list(net.node_ids())
    try:
        return list(dict.fromkeys(int(s) for s in spec.split(",") if s))
    except ValueError as exc:
        raise ValidationError(f"sources: {exc}") from exc


def cmd_kron(args) -> int:
    if not args.phasor:
        _reject_unread(args, "the real Kron reduction reads only the lines", "lo", "ro", "omega")
    net = _load(args)
    if args.phasor:
        red = kron.phasor_reduce(net)
        buf = io.StringIO()
        kron.angle_table_csv(kron.line_angles(red, net), buf)
        _emit(buf.getvalue(), args)
        return 0
    lap = build_laplacian(net)
    red = kron.kron_reduce_real(lap, _parse_sources(args.sources, net))
    _emit(_json({
        "node_ids": list(red.node_ids()),
        "laplacian": red.matrix.tolist(),
        "lambda2": float(red.eigenvalues[1]),
    }), args)
    return 0


def _worst_case_i0(dyn: measures.AugmentedDynamics,
                   rep: measures.MeasureReport) -> np.ndarray:
    """The mode (a column of S G, so in 1-perp) whose rate is closest to 1/psi.

    Taken from the decomposition the trajectory reuses.
    """
    dec = dyn.decomposition
    v = dec.vecs[:, int(np.argmin(np.abs(dec.vals - 1.0 / rep.psi_nir)))]
    return v / np.linalg.norm(v)


def cmd_simulate(args) -> int:
    _reject_unread(args, "trajectories do not depend on the frequency", "omega")
    net = _load(args)
    if args.tmax is not None and not 0.0 < args.tmax < math.inf:
        raise ValidationError(f"--tmax: must be a finite number > 0, got {args.tmax!r}")
    if args.points < 2:
        raise ValidationError(f"--points: must be >= 2, got {args.points}")
    rep = measures.measure_report(net)
    tmax = 8.0 * rep.psi_nir if args.tmax is None else args.tmax
    if not 0.0 < tmax < math.inf:  # only the default horizon can fail here
        raise NetinductError(f"psi_nir: the default horizon 8 * psi_nir must be a finite "
                             f"number > 0, got {tmax!r}; pass --tmax")
    dyn = measures.assemble_dynamics(net)
    if args.worst_case:
        i0 = _worst_case_i0(dyn, rep)
    else:
        i0 = np.zeros(net.n)
        i0[0], i0[-1] = 1.0, -1.0
    grid = np.linspace(0.0, tmax, args.points)
    traj = simulate.homogeneous_solution(dyn, i0, grid)
    verdict = simulate.verify_envelopes(traj, rep)
    if args.output:
        with open(args.output, "w", newline="") as fh:
            simulate.trajectory_csv(traj, fh)
    report = {
        "psi_nir": rep.psi_nir,
        "psi_nrr": rep.psi_nrr,
        "mu": rep.mu,
        "lower_envelope_ok": verdict.lower_ok,
        "upper_envelope_ok": verdict.upper_ok,
        "min_lower_slack": float(np.min(verdict.lower_slack)),
        "min_upper_slack": float(np.min(verdict.upper_slack)),
        "route": "modes",  # the only route; the key stays so that stdout keeps its keys
    }
    sys.stdout.write(_json(report))
    return 0


def _problem(args, net: PowerNetwork, sources: list[int] | None) -> allocate.AllocationProblem:
    return allocate.AllocationProblem(allocate._laplacian(net, sources), args.budget,
                                      r_per_len=net.r_per_len,
                                      l_per_len=net.l_per_len,
                                      omega=net.omega)


def cmd_optimize(args) -> int:
    _reject_unread(args, "optimize chooses the output inductances and models no output "
                         "resistance", "lo", "ro")
    net = _load(args)
    sources = _parse_sources(args.sources, net) if args.sources else None
    if args.target_theta is not None:
        res = allocate.design_nonuniform(net, args.target_theta, sources=sources)
    else:
        if args.budget is None:
            raise ValidationError("optimize: --budget or --target-theta is required")
        res = allocate.optimize_allocation(_problem(args, net, sources))
    ids = list(net.node_ids()) if sources is None else sources
    _emit(_json({
        "allocation": {str(i): v for i, v in zip(ids, res.allocation.tolist())},
        "lambda2": res.lam2,
        "psi_nir": res.psi_nir,
        "theta_nir": res.theta_nir,
        "diagnostics": res.diagnostics,
    }), args)
    return 0


def cmd_landscape(args) -> int:
    _reject_unread(args, "the landscape reads only the lines", "lo", "ro", "omega")
    net = _load(args)
    sources = _parse_sources(args.sources, net) if args.sources else None
    grid = allocate.allocation_landscape(_problem(args, net, sources), args.resolution)
    ids = list(net.node_ids()) if sources is None else sources
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow([f"coord_{i}" for i in ids] + ["lambda2"])
    for row in grid:
        w.writerow([repr(float(x)) for x in row])
    _emit(buf.getvalue(), args)
    return 0


def cmd_sweep(args) -> int:
    # every step sets r_out = 0 and its own l_out, so an override would be ignored
    _reject_unread(args, "sweep sets l_out at each step", "lo")
    if args.ro is not None and args.ro != 0.0:
        raise ValidationError(f"--ro: sweep models inductive outputs only (r_out = 0), "
                              f"got {args.ro!r}")
    net = _load(args)
    for flag, value in (("--lo-min", args.lo_min), ("--lo-max", args.lo_max)):
        if not 0.0 < value < math.inf:
            raise ValidationError(f"{flag}: must be a finite number > 0, got {value!r}")
    if args.steps < 1:
        raise ValidationError(f"--steps: must be >= 1, got {args.steps}")
    if args.spacing == "log":
        values = np.geomspace(args.lo_min, args.lo_max, args.steps)
    else:
        values = np.linspace(args.lo_min, args.lo_max, args.steps)
    buf = io.StringIO()
    w = csv.writer(buf)
    for step, lo in enumerate(values):
        # every copy shares the network's topology and Laplacian record:
        # one validation and one eigvalsh per sweep
        swept = net.with_outputs(r_out=0.0, l_out=float(lo))
        rep = measures.psi_nir_uniform(swept)
        table = kron.line_angles(kron.phasor_reduce(swept), swept)
        if step == 0:
            pairs = list(zip(table.i.tolist(), table.j.tolist()))
            w.writerow(["l_out", "theta_nir"]
                       + [f"theta_{i}_{j}" for i, j in pairs]
                       + [f"class_{i}_{j}" for i, j in pairs])
        klass = table.klass.tolist()
        # an absent pair's angle cell is empty, as in the kron --phasor table
        w.writerow([repr(float(lo)), repr(rep.theta_nir)]
                   + ["" if k == "absent" else repr(x)
                      for x, k in zip(table.theta_principal_rad.tolist(), klass)]
                   + klass)
    _emit(buf.getvalue(), args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="netinduct",
                                description="Inductivity analysis of lossy RL power networks")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("network", help="network JSON file")
        sp.add_argument("--omega", type=float, help="override frequency (rad/s)")
        sp.add_argument("--lo", type=float, help="uniform output inductance override (H)")
        sp.add_argument("--ro", type=float, help="uniform output resistance override (ohm)")
        sp.add_argument("-o", "--output", help="write result to file instead of stdout")

    sp = sub.add_parser("analyze", help="inductivity/resistivity report")
    common(sp)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("kron", help="real or phasor Kron reduction")
    common(sp)
    sp.add_argument("--sources", default="all", help="comma-separated node ids or 'all'")
    sp.add_argument("--phasor", action="store_true", help="emit the phasor angle table (CSV)")
    sp.set_defaults(func=cmd_kron)

    sp = sub.add_parser("simulate", help="homogeneous trajectory and envelope check")
    common(sp)
    sp.add_argument("--worst-case", action="store_true",
                    help="use the slowest-envelope eigenvector as initial condition")
    sp.add_argument("--tmax", type=float, help="simulation horizon (s)")
    sp.add_argument("--points", type=int, default=400)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("optimize", help="output-inductor allocation")
    common(sp)
    sp.add_argument("--budget", type=float, help="total inductance budget (H)")
    sp.add_argument("--target-theta", type=float,
                    help="reach this angle with minimal budget instead")
    sp.add_argument("--sources", help="Kron-reduce to these nodes first")
    sp.set_defaults(func=cmd_optimize)

    sp = sub.add_parser("landscape", help="lambda2 over the budget simplex (CSV)")
    common(sp)
    sp.add_argument("--budget", type=float, required=True)
    sp.add_argument("--resolution", type=int, required=True)
    sp.add_argument("--sources", help="Kron-reduce to these nodes first")
    sp.set_defaults(func=cmd_landscape)

    sp = sub.add_parser("sweep", help="uniform l_out sweep: theta_nir and line angles (CSV)")
    common(sp)
    sp.add_argument("--lo-min", type=float, required=True)
    sp.add_argument("--lo-max", type=float, required=True)
    sp.add_argument("--steps", type=int, default=20)
    sp.add_argument("--spacing", choices=("log", "linear"), default="log")
    sp.set_defaults(func=cmd_sweep)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NetinductError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
