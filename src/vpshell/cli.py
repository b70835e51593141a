"""Batch driver: runs, analytic tables, classification and sweeps.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 classification input error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import os
import sys

import numpy as np

from . import kurth as kurth_mod
from .classify import classify as _classify
from .config import (
    _DEFAULTS,
    _SCHEMA,
    RunConfig,
    _parse_float,
    _parse_int,
    _validated,
    load_config,
)
from .csvio import (
    _fmt,
    _write_json,
    normalised,
    read_diagnostics,
    records_table,
    write_diagnostics,
    write_manifest,
    write_snapshot,
)
from .dynamics import IntegratorConfig, _record_times, run
from .errors import ClassifyInputError, ConfigError, DomainError, NumericalError
from .scenarios import (
    CoreSpec,
    ShellSpec,
    build_circular_core,
    build_shell,
    build_shell_plus_core,
)

__all__ = ["main", "cmd_run", "cmd_kurth", "cmd_classify", "cmd_sweep"]


def _cast(name, caster, value):
    """`caster(value)`, with a malformed value reported as a ConfigError."""
    try:
        return caster(value)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"bad value for {name!r}: {exc}") from None


def _build_scenario(config: RunConfig, seed):
    def shell(seed):
        return ShellSpec(
            mass=config["shell.mass"], r_inner=config["shell.r_inner"],
            r_outer=config["shell.r_outer"], w_min=config["shell.w_min"],
            w_max=config["shell.w_max"], ell_min=config["shell.ell_min"],
            ell_max=config["shell.ell_max"], n=config["shell.n"], seed=seed,
        )

    def core(seed):
        return CoreSpec(mass=config["core.mass"], radius=config["core.radius"],
                        n=config["core.n"], seed=seed)

    scenario = config.scenario
    if scenario == "shell":
        ensemble, report = build_shell(shell(seed))
        return ensemble, {
            "escape_threshold": report.escape_threshold,
            "escape_margin_sq": report.margin_sq,
            "escape_condition_satisfied": report.satisfied,
        }
    if scenario == "core":
        return build_circular_core(core(seed)), {}
    if scenario == "shell_plus_core":
        ensemble, report = build_shell_plus_core(core(seed), shell(seed + 1))
        return ensemble, {
            "escape_threshold": report.escape_threshold,
            "total_energy": report.total_energy,
            "core_energy": report.core_energy,
            "shell_mass_max": report.shell_mass_max,
            "momentum_window": list(report.momentum_window),
            "double_inequality_ok": report.double_inequality_ok,
            "escape_condition_satisfied": report.escape_satisfied,
        }
    raise ConfigError(f"scenario {scenario!r} is not a simulator scenario")


def cmd_run(config: RunConfig, out_dir, seed=None):
    """Execute one configured run; writes diagnostics.csv, snapshots and
    manifest.json into `out_dir`.  Returns the diagnostics path.

    A single run is sequential, so `run --threads` has no effect on it.
    """
    return _run(config, out_dir, seed)[0]


def _run(config, out_dir, seed=None):
    """`cmd_run`; returns the diagnostics path and the table written
    there."""
    os.makedirs(out_dir, exist_ok=True)
    seed = config["seed"] if seed is None else int(seed)
    r_grid = config["r_grid"]
    q_list = config["q_list"]
    csv_path = os.path.join(out_dir, "diagnostics.csv")

    if config.scenario == "kurth":
        # the simulator's record times, so a table and a run share their rows
        times = np.array(_record_times(0.0, config["t_end"], config["output_cadence"]))
        phi, phi_dot = kurth_mod.phi_closed_form(times, config["kurth.k"])
        table = kurth_mod.kurth_diagnostics(times, phi, phi_dot, q_list, r_grid)
        command, snapshots, extra = "kurth", (), None
    else:
        ensemble, scenario_report = _build_scenario(config, seed)
        integrator = IntegratorConfig(
            t_end=config["t_end"], output_cadence=config["output_cadence"],
            dt_initial=config["dt_initial"], dt_safety=config["dt_safety"],
            reflection_enabled=config["reflection"],
        )
        sink = run(ensemble, integrator, r_grid=r_grid, q_list=q_list,
                   n_bins=config["n_bins"] or None,
                   snapshot_times=config["snapshot_times"])
        table = records_table(sink.records, r_grid, q_list)
        command, snapshots = "run", sink.snapshots
        extra = {"scenario_report": scenario_report} if scenario_report else None
    write_diagnostics(csv_path, table, r_grid, q_list)
    for snap in snapshots:
        name = f"snapshot_t{repr(float(snap.time))}.csv"
        write_snapshot(os.path.join(out_dir, name), snap)
    write_manifest(
        os.path.join(out_dir, "manifest.json"), command, config.values, seed, extra=extra
    )
    return csv_path, table


def cmd_kurth(k, t_end, cadence, q_list, out_dir, r_grid=(1.0, 2.0, 4.0)):
    """Analytic trajectory table for one family member.

    Numbers may be given as floats or strings; each must be finite and
    pass the same checks as a config file, else ConfigError.
    """
    values = {
        "scenario": "kurth",
        "kurth.k": _cast("k", _parse_float, k),
        "t_end": _cast("t_end", _parse_float, t_end),
        "output_cadence": _cast("cadence", _parse_float, cadence),
        "q_list": tuple(_cast("q_list", _parse_float, q) for q in q_list),
        "r_grid": tuple(_cast("r_grid", _parse_float, r) for r in r_grid),
        "seed": 0,
    }
    _validated({**_DEFAULTS, **values})
    return cmd_run(RunConfig("kurth", values), out_dir)


def cmd_classify(csv_path, energy=None, momentum=0.0, mass=None, out_path=None):
    """Classify a diagnostics file; writes a JSON report when asked.

    `energy` and `mass` default to the first-row values of the file.
    Returns the ClassificationReport.
    """
    return _report(read_diagnostics(csv_path), energy, momentum, mass, out_path)


def _report(parsed, energy=None, momentum=0.0, mass=None, out_path=None):
    """`cmd_classify` of a normalised table."""
    if energy is None:
        energy = float(parsed.energy[0])
    if mass is None:
        mass = float(parsed.mass[0])
    report = _classify(parsed, energy, momentum, mass)
    if out_path is not None:
        _write_json(out_path, report.to_dict())
    return report


def _sweep_one(args):
    base_values, param, value, run_dir = args
    values = dict(base_values)
    values[param] = value
    config = RunConfig(values["scenario"], values)
    # the table equals a read of the file bit for bit (repr round-trips)
    _, table = _run(config, run_dir)
    report = _report(normalised(table), out_path=os.path.join(run_dir, "report.json"))
    return {
        "value": value,
        "E": report.threshold.energy,
        "Q2_over_2M": report.threshold.q_sq_over_2m,
        "label": report.label,
        "exponent": None if report.growth is None else report.growth.exponent,
        "M_infinity": report.m_infinity,
    }


def _failed(job, exc):
    """Summary row of a member that raised `exc`; its type and message
    go to the member's error.json."""
    _, _, value, run_dir = job
    os.makedirs(run_dir, exist_ok=True)
    _write_json(os.path.join(run_dir, "error.json"),
                {"type": type(exc).__name__, "message": str(exc)})
    return {"value": value, "label": "failed"}


def cmd_sweep(config: RunConfig, param, values, out_dir, threads=1):
    """One run per value of `param`, classified, plus summary.csv.

    A failed run is recorded with label `failed` and its run_NNN/
    error.json; the sweep continues.
    The summary preserves the input value order regardless of the
    execution order.  Values may be numbers or strings; a value that is
    not a finite number, or not integral for an integer parameter,
    raises ConfigError before any run starts.
    """
    caster = _SCHEMA.get(param)
    if caster is None:
        raise ConfigError(f"unknown sweep parameter {param!r}")
    if caster not in (_parse_int, _parse_float):
        raise ConfigError(f"sweep parameter {param!r} is not scalar")
    jobs = []
    for i, value in enumerate(values):
        run_dir = os.path.join(out_dir, f"run_{i:03d}")
        value = _cast(param, caster, value)
        if param == "seed" and value < 0:
            raise ConfigError("seed: must be >= 0")
        jobs.append((dict(config.values), param, value, run_dir))
    os.makedirs(out_dir, exist_ok=True)

    if threads > 1 and len(jobs) > 1:
        # leaving the pool waits for every member; a worker that died
        # leaves its future holding BrokenProcessPool
        with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool:
            calls = [pool.submit(_sweep_one, job).result for job in jobs]
    else:
        calls = [functools.partial(_sweep_one, job) for job in jobs]
    results = []
    for job, call in zip(jobs, calls):
        try:
            results.append(call())
        except Exception as exc:
            results.append(_failed(job, exc))

    columns = ("value", "E", "Q2_over_2M", "label", "exponent", "M_infinity")
    lines = [",".join(columns)]
    for outcome in results:
        lines.append(",".join(
            outcome["label"] if key == "label" else _fmt(outcome.get(key))
            for key in columns
        ))
    summary_path = os.path.join(out_dir, "summary.csv")
    with open(summary_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
    return summary_path


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="vpshell",
        description="Spherical shell-particle runs, analytic tables, "
        "classification and parameter sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configured run")
    p_run.add_argument("--config", required=True, help="path to a key = value file")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override config seed")
    p_run.add_argument("--threads", type=int, default=1,
                       help="ignored: a single run is sequential (sweep uses it)")

    p_kurth = sub.add_parser("kurth", help="analytic uniform-ball trajectory table")
    p_kurth.add_argument("--k", required=True, help="initial dilation rate")
    p_kurth.add_argument("--t-end", required=True)
    p_kurth.add_argument("--cadence", required=True)
    p_kurth.add_argument("--q-list", default="1.6666666666666667",
                         help="comma separated density-norm exponents")
    p_kurth.add_argument("--r-grid", default="1.0,2.0,4.0",
                         help="comma separated ball radii")
    p_kurth.add_argument("--out", default="out")

    p_cls = sub.add_parser("classify", help="label a diagnostics file")
    p_cls.add_argument("csv", help="diagnostics.csv to classify")
    p_cls.add_argument("--energy", type=float, default=None)
    p_cls.add_argument("--momentum", type=float, default=0.0, help="|Q|")
    p_cls.add_argument("--mass", type=float, default=None)
    p_cls.add_argument("--out", default=None, help="report path (JSON)")

    p_sweep = sub.add_parser("sweep", help="run one config across parameter values")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--param", required=True, help="config key to vary")
    p_sweep.add_argument("--values", required=True, help="comma separated values")
    p_sweep.add_argument("--out", default="sweep")
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--threads", type=int, default=1)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in ("run", "sweep"):
            config = load_config(args.config)
            if args.seed is not None:
                config = _validated(config.replace(seed=args.seed).values)
        if args.command == "run":
            cmd_run(config, args.out)
        elif args.command == "kurth":
            cmd_kurth(args.k, args.t_end, args.cadence, args.q_list.split(","),
                      args.out, args.r_grid.split(","))
        elif args.command == "classify":
            report = cmd_classify(
                args.csv, args.energy, args.momentum, args.mass, args.out
            )
            print(report.label)
        elif args.command == "sweep":
            values = args.values.split(",") if args.values else []
            cmd_sweep(config, args.param, values, args.out, threads=args.threads)
    except (ConfigError, DomainError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ClassifyInputError as exc:
        print(f"classification input error: {exc}", file=sys.stderr)
        return 4
    return 0
