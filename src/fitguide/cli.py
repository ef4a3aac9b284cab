"""Command-line interface for reproducible guidance runs.

Subcommands
    gen-data   costate-grid sweep -> dataset CSV
    train      dataset CSV -> model file (+ JSON training report)
    solve      one fixed-impact-time problem -> trajectory CSV + effort
    guide      one-shot command evaluation (prints turn rate and accel)
    simulate   closed-loop scenario -> trajectory CSV + summary line
    salvo      multi-interceptor scenario -> per-interceptor summaries
    verify     acceptance checks -> pass/fail table

Scenario/config files are JSON (see the schemas printed by --help of
each subcommand).  Exit codes: 0 success, 1 runtime failure, 2 bad
arguments.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
from dataclasses import asdict

from . import __version__
from .datagen import DatagenConfig, generate_dataset, read_dataset, write_dataset
from .guidance import GuidanceError, GuidanceQuery, command_nn, command_oracle
from .kinematics import CartesianState
from .mlp import TrainConfig, load_model, save_model, train
from .sim import Scenario, SimResult, export_trajectory, salvo, salvo_summary, simulate, solve_ocp

SCENARIO_KEYS = {
    "x0": float, "y0": float, "theta0": float, "speed": float, "t_f": float,
    "guidance": str, "dt": float,
}


def _scenario_from_dict(cfg: dict, where: str = "scenario") -> Scenario:
    if not isinstance(cfg, dict):
        raise ValueError(f"{where}: must be an object")
    unknown = set(cfg) - set(SCENARIO_KEYS)
    if unknown:
        raise ValueError(f"{where}: unknown keys {sorted(unknown)}")
    for key in ("x0", "y0", "theta0", "speed", "t_f"):
        if key not in cfg:
            raise ValueError(f"{where}: missing required key {key!r}")
    for key, value in cfg.items():
        want = SCENARIO_KEYS[key]
        if want is float and (isinstance(value, bool) or not isinstance(value, (int, float))):
            raise ValueError(f"{where}: key {key!r} must be a number")
        if want is str and not isinstance(value, str):
            raise ValueError(f"{where}: key {key!r} must be a string")
    return Scenario(
        initial=CartesianState(cfg["x0"], cfg["y0"], cfg["theta0"]),
        speed=cfg["speed"],
        t_f=cfg["t_f"],
        **{key: cfg[key] for key in ("guidance", "dt") if key in cfg},  # else Scenario's defaults
    )


def _load_json(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def _cmd_gen_data(args) -> int:
    config = DatagenConfig(
        alpha_bar=args.alpha_bar, n_i=args.ni, n_j=args.nj,
        t_bar=args.t_bar, h=args.step,
    )
    data = generate_dataset(config)
    write_dataset(data, args.out)
    print(f"gen-data: wrote {len(data)} samples to {args.out}")
    return 0


def _cmd_train(args) -> int:
    data = read_dataset(args.data)
    config = TrainConfig(
        target_mse=args.target_mse, max_epochs=args.epochs, batch_size=args.batch,
        learning_rate=args.lr, validation_fraction=args.val_fraction, seed=args.seed,
    )
    model, report = train(data, config)
    save_model(model, args.out)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as f:
            json.dump(asdict(report), f, indent=2)
    print(f"train: {len(data)} samples, {report.epochs_run} epochs, "
          f"train MSE {report.final_train_mse:.3e}, val MSE {report.final_val_mse:.3e} "
          f"(normalized); model -> {args.out}")
    return 0


def _cmd_solve(args) -> int:
    sol = solve_ocp(CartesianState(args.x0, args.y0, args.theta0), args.speed, args.tf, dt=args.dt)
    if args.out:
        export_trajectory(sol, args.out)
    print(f"solve: J={sol.effort:.6g} m^2/s^3  miss={sol.miss:.4g} m  impact={sol.impact_time:.4f} s  "
          f"(alpha={sol.oracle.params.alpha:.8g}, beta={sol.oracle.params.beta:.8g})")
    return 0


def _cmd_guide(args) -> int:
    query = GuidanceQuery(r=args.r, sigma=args.sigma, t_go=args.tgo, speed=args.speed)
    if args.law == "nn":
        if not args.model:
            raise ValueError("guide --law nn requires --model")
        u = command_nn(load_model(args.model), query)
    else:
        u = command_oracle(query).command
    print(f"guide: u={u:.8g} rad/s  a={args.speed * u:.8g} m/s^2")
    return 0


def _cmd_simulate(args) -> int:
    cfg = _load_json(args.config)
    scenario = _scenario_from_dict(cfg)
    model = load_model(args.model) if args.model else None
    result = simulate(scenario, model=model)
    if args.out:
        export_trajectory(result, args.out)
    print(f"simulate[{scenario.guidance}]: J={result.effort:.6g} m^2/s^3  miss={result.miss:.4g} m  "
          f"impact={result.impact_time:.4f} s")
    return 0


def _cmd_salvo(args) -> int:
    cfg = _load_json(args.config)
    if not isinstance(cfg, dict) or "interceptors" not in cfg or not isinstance(cfg["interceptors"], list):
        raise ValueError("salvo config must be an object with an 'interceptors' list")
    shared = {k: v for k, v in cfg.items() if k != "interceptors"}
    scenarios = []
    for i, entry in enumerate(cfg["interceptors"]):
        where = f"interceptors[{i}]"
        if not isinstance(entry, dict):
            raise ValueError(f"{where}: must be an object")
        scenarios.append(_scenario_from_dict({**shared, **entry}, where=where))
    model = load_model(args.model) if args.model else None
    results = salvo(scenarios, model=model)
    summary = salvo_summary(results)
    for i, res in enumerate(results, 1):
        if isinstance(res, SimResult):
            print(f"salvo #{i}: J={res.effort:.6g}  impact={res.impact_time:.4f} s  miss={res.miss:.4g} m")
            if args.out:
                export_trajectory(res, f"{args.out}.{i}.csv")
        else:
            print(f"salvo #{i}: FAILED: {res}")
    spread = summary["impact_spread"]
    print(f"salvo: impact spread = {spread:.4f} s" if not math.isnan(spread) else "salvo: no successful runs")
    return 0 if not summary["failures"] else 1


def _cmd_verify(args) -> int:
    from .verification import run_acceptance

    model = load_model(args.model) if args.model else None
    results = run_acceptance(model=model, full_grid=not args.no_full_grid)
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fitguide",
        description="Fixed-impact-time optimal interception guidance toolkit.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    gen, fit = DatagenConfig(), TrainConfig()  # the defaults

    g = sub.add_parser("gen-data", help="generate the optimal-command dataset CSV")
    g.add_argument("--out", required=True)
    g.add_argument("--alpha-bar", type=float, default=gen.alpha_bar)
    g.add_argument("--ni", type=int, default=gen.n_i)
    g.add_argument("--nj", type=int, default=gen.n_j)
    g.add_argument("--t-bar", type=float, default=gen.t_bar)
    g.add_argument("--step", type=float, default=gen.h, help="sampling step")
    g.set_defaults(func=_cmd_gen_data)

    t = sub.add_parser("train", help="train the command network on a dataset CSV")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--report", help="optional JSON training-report path")
    t.add_argument("--target-mse", type=float, default=fit.target_mse)
    t.add_argument("--epochs", type=int, default=fit.max_epochs)
    t.add_argument("--batch", type=int, default=fit.batch_size,
                   help="rows per batch")
    t.add_argument("--lr", type=float, default=fit.learning_rate)
    t.add_argument("--val-fraction", type=float, default=fit.validation_fraction)
    t.add_argument("--seed", type=int, default=fit.seed)
    t.set_defaults(func=_cmd_train)

    s = sub.add_parser("solve", help="solve one fixed-impact-time interception")
    s.add_argument("--x0", type=float, required=True, help="initial x, target frame (m)")
    s.add_argument("--y0", type=float, required=True)
    s.add_argument("--theta0", type=float, required=True, help="initial heading (rad)")
    s.add_argument("--speed", type=float, required=True, help="m/s")
    s.add_argument("--tf", type=float, required=True, help="prescribed impact time (s)")
    s.add_argument("--dt", type=float, default=inspect.signature(solve_ocp).parameters["dt"].default)
    s.add_argument("--out", help="trajectory CSV path")
    s.set_defaults(func=_cmd_solve)

    u = sub.add_parser("guide", help="evaluate one guidance command")
    u.add_argument("--r", type=float, required=True, help="range (m)")
    u.add_argument("--sigma", type=float, required=True, help="look angle (rad)")
    u.add_argument("--tgo", type=float, required=True, help="time-to-go (s)")
    u.add_argument("--speed", type=float, required=True, help="m/s")
    u.add_argument("--law", choices=("oracle", "nn"), default="oracle")
    u.add_argument("--model", help="model file (required for --law nn)")
    u.set_defaults(func=_cmd_guide)

    m = sub.add_parser("simulate", help="run one closed-loop scenario from a JSON config")
    m.add_argument("--config", required=True)
    m.add_argument("--model", help="model file (required for nn guidance)")
    m.add_argument("--out", help="trajectory CSV path")
    m.set_defaults(func=_cmd_simulate)

    v = sub.add_parser("salvo", help="run a multi-interceptor scenario from a JSON config")
    v.add_argument("--config", required=True)
    v.add_argument("--model")
    v.add_argument("--out", help="per-interceptor CSV prefix")
    v.set_defaults(func=_cmd_salvo)

    a = sub.add_parser("verify", help="run the acceptance checks")
    a.add_argument("--model", help="model file for criteria 2 and 6 (default: the one criterion 7 always trains, 200 epochs: 44-64 s on a 2-core Intel Xeon)")
    a.add_argument("--no-full-grid", action="store_true",
                   help="skip the full-grid dataset-size check (saves about a minute)")
    a.set_defaults(func=_cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GuidanceError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
