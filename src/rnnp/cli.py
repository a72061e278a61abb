"""Command-line entry point: every workflow as a subcommand.

Configuration is a JSON file with optional sections; unknown keys and
values of the wrong JSON type are rejected (``KNOWN_KEYS``).  All
randomness flows from one root seed, so identical configuration and seed
reproduce identical primary outputs (wall-clock columns aside).

Exit codes: 0 ok, 2 configuration error, 3 data validation error
(including a missing or unreadable file), 4 numeric failure,
5 acceptance/verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields
from datetime import datetime

from .base import (
    NUMBER,
    ConfigError,
    DataValidationError,
    NumericError,
    atomic_write,
    check_kind,
)
from .bench import emit_csv, gain_factors, sweep_neurons, sweep_tau
from .engines import BPTT_GUARD, macronode_count
from .gradcheck import run_gradient_check, write_report
from .linalg import Rng
from .model import RnnSpec
from .pbonacci import (
    build_table,
    check_bounds,
    fibonacci_sum_identity,
    monotone_doubling_check,
)
from .pipeline import (
    LoadForecastPipeline,
    read_forecast_csv,
    score_forecasts,
    write_forecast_csv,
)
from .series import ingest_csv, read_holidays, write_csv
from .synth import SynthConfig, synth_generate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_ACCEPTANCE = 5

# The bench keys each --mode reads.
BENCH_KEYS = {
    "tau": {"tau_min": int, "tau_max": int, "engines": [str]},
    "neurons": {"lag_sets": [[int]], "hidden_dims": [int]},
}

# The JSON kind of every config entry (see ``base.check_kind``).
KNOWN_KEYS = {
    "seed": int,
    "paths": dict.fromkeys(("data", "holidays", "checkpoint", "history"), str),
    "model": {"lags": [int], "hidden_dim": int, "loss": str, "tau": int},
    "train": {
        "engine": str,
        "learning_rate": NUMBER,
        **dict.fromkeys(("batch_size", "max_epochs", "patience", "stride"), int),
        **dict.fromkeys(("train_start", "train_end", "val_start", "val_end"), str),
    },
    # Every SynthConfig field but the holiday set, which JSON cannot spell.
    "synth": {
        f.name: int if isinstance(f.default, int) else NUMBER
        for f in fields(SynthConfig)
        if f.name != "holidays"
    },
    "bench": {**BENCH_KEYS["tau"], **BENCH_KEYS["neurons"]},
}


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            config = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    check_kind(config, KNOWN_KEYS, "", ConfigError, "config")
    return config


def _parse_ts(text: str, what: str) -> datetime:
    try:
        return datetime.fromisoformat(text)
    except ValueError:
        raise ConfigError(f"{what} is not an ISO timestamp: {text!r}") from None


def _check_out_dirs(*paths) -> None:
    """Reject an output path whose directory does not exist.

    Every subcommand calls this before it reads or computes anything, so a
    mistyped ``--out`` costs no work; unset (None) paths are skipped.
    """
    for out in paths:
        if out and not os.path.isdir(os.path.dirname(out) or "."):
            raise ConfigError(f"the directory of output path {out} does not exist")


def cmd_synth(args: argparse.Namespace) -> int:
    _check_out_dirs(args.out, args.truth_out)
    config = load_config(args.config)
    section = dict(config.get("synth", {}))
    if args.years is not None:
        section["years"] = args.years
    if args.start_year is not None:
        section["start_year"] = args.start_year
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    series, truth = synth_generate(SynthConfig(**section), Rng(seed))
    write_csv(series, args.out)
    if args.truth_out:
        with atomic_write(args.truth_out) as f:
            json.dump(
                {
                    "log_det": truth.log_det,
                    "noise": truth.noise,
                    "config": {
                        k: (sorted(d.isoformat() for d in v) if k == "holidays" else v)
                        for k, v in asdict(truth.config).items()
                    },
                },
                f,
            )
    print(f"wrote {len(series)} hours to {args.out}")
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    paths = config.get("paths", {})
    model_cfg = config.get("model", {})
    train_cfg = config.get("train", {})
    data_path = args.data or paths.get("data")
    if not data_path:
        raise ConfigError("no data path (use --data or paths.data)")
    checkpoint = args.out or paths.get("checkpoint")
    if not checkpoint:
        raise ConfigError("no checkpoint path (use --out or paths.checkpoint)")
    history_path = args.history or paths.get("history")
    _check_out_dirs(checkpoint, history_path)
    series = ingest_csv(data_path)
    # Configured pipeline parameters; the rest keep the constructor defaults.
    params = dict(model_cfg)
    params.update(
        (k, v) for k, v in train_cfg.items() if not k.endswith(("_start", "_end"))
    )
    if "stride" in params:
        params["train_stride"] = params.pop("stride")
    if "lags" in params:
        params["lags"] = tuple(params["lags"])
    if "seed" in config:
        params["seed"] = config["seed"]
    holiday_path = args.holidays or paths.get("holidays")
    if holiday_path:
        params["holidays"] = read_holidays(holiday_path)

    def when(key: str, default: datetime | None = None) -> datetime | None:
        text = train_cfg.get(key)
        return default if text is None else _parse_ts(text, key)

    pipe = LoadForecastPipeline(**params)
    try:
        pipe.fit(
            series,
            when("train_start", series.start),
            when("train_end", series.end),
            when("val_start"),
            when("val_end"),
        )
    except ValueError as exc:  # a configured lag set, size or length fit rejects
        raise ConfigError(str(exc)) from None
    pipe.save(checkpoint)
    if history_path:
        with atomic_write(history_path) as f:
            f.write("epoch,train_loss,val_loss,seconds\n")
            for h in pipe.forecaster_.history_:
                val = "" if h.val_loss is None else repr(h.val_loss)
                f.write(f"{h.epoch},{h.train_loss!r},{val},{h.seconds!r}\n")
    epochs = len(pipe.forecaster_.history_)
    print(f"trained {epochs} epochs; checkpoint -> {checkpoint}")
    return EXIT_OK


def cmd_forecast(args: argparse.Namespace) -> int:
    _check_out_dirs(args.out)
    series = ingest_csv(args.data)
    pipe = LoadForecastPipeline.load(args.checkpoint)
    start = _parse_ts(args.start, "--start")
    end = _parse_ts(args.end, "--end")
    forecasts = pipe.forecast_range(series, start, end)
    write_forecast_csv(forecasts, args.out)
    print(f"wrote {len(forecasts)} forecasts to {args.out}")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    _check_out_dirs(args.out)
    series = ingest_csv(args.data)
    report = score_forecasts(read_forecast_csv(args.forecasts), series)
    print(report.render_text())
    if args.out:
        with atomic_write(args.out) as f:
            f.write(report.to_json())
    return EXIT_OK


def cmd_gradcheck(args: argparse.Namespace) -> int:
    _check_out_dirs(args.out)
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
    rows, ok = run_gradient_check(n_seeds=args.seeds, base_seed=args.base_seed)
    if args.out:
        write_report(rows, args.out)
    failures = [r for r in rows if not r.ok]
    print(
        f"gradcheck: {len(rows)} comparisons over {args.seeds} seeds, "
        f"{len(failures)} failures"
    )
    for r in failures[:10]:
        print(
            f"  FAIL {r.engine} seed={r.seed} tau={r.tau} "
            f"lags={r.lag_set} rel={r.max_rel_err:.3e} abs={r.max_abs_err:.3e}"
        )
    return EXIT_OK if ok else EXIT_ACCEPTANCE


def _bench_records(mode: str, section: dict, config: dict) -> list:
    """The records of one bench sweep under the configured settings."""
    if mode == "tau":
        spec = RnnSpec(lag_set=(1, 2), x_dim=13, hidden_dim=15, y_dim=1)
        tau_min, tau_max = section.get("tau_min", 3), section.get("tau_max", 48)
        plan = []  # (engine, its taus), all checked before any sweep runs
        for engine in section.get("engines", ["trrl", "rtrl", "bptt"]):
            top = min(tau_max, BPTT_GUARD) if engine == "bptt" else tau_max
            if tau_min > top:
                guard = (
                    f" at or below the guard {BPTT_GUARD}" if engine == "bptt" else ""
                )
                raise ConfigError(
                    f"bench engine {engine!r} has no tau in "
                    f"[{tau_min}, {tau_max}]{guard} to run"
                )
            plan.append((engine, range(tau_min, top + 1)))
        if not plan:
            raise ConfigError("bench.engines is empty: the sweep would run nothing")
        records = []
        for engine, taus in plan:
            records.extend(sweep_tau(engine, spec, taus, seed=config.get("seed", 0)))
        return records
    for key in ("lag_sets", "hidden_dims"):
        if section.get(key) == []:
            raise ConfigError(f"bench.{key} is empty: the sweep would run nothing")
    # Configured lag_sets and hidden_dims; the rest keep sweep_neurons' defaults.
    return sweep_neurons(**section, seed=config.get("seed", 0))


def cmd_bench(args: argparse.Namespace) -> int:
    _check_out_dirs(args.out)
    config = load_config(args.config)
    section = config.get("bench", {})
    unread = set(section) - set(BENCH_KEYS[args.mode])
    if unread:
        raise ConfigError(f"bench --mode {args.mode} does not read {sorted(unread)}")
    try:
        records = _bench_records(args.mode, section, config)
    except ValueError as exc:  # a configured engine, lag set or size the sweep rejects
        raise ConfigError(str(exc)) from None
    emit_csv(records, args.out)
    if args.mode == "tau":
        print(f"wrote {len(records)} tau-sweep records to {args.out}")
    else:
        print(f"wrote {len(records)} records to {args.out}")
        print(f"{'lags':>12} {'hidden':>6} {'gain':>8} {'theory':>7}")
        for row in gain_factors(records):
            lag_text = "{" + ",".join(str(l) for l in row.lag_set) + "}"
            print(
                f"{lag_text:>12} {row.hidden_dim:>6} "
                f"{row.gain_factor:>8.2f} {row.theoretical:>7}"
            )
    return EXIT_OK


def cmd_pbonacci(args: argparse.Namespace) -> int:
    try:
        table = build_table(args.p, args.n)
    except ValueError as exc:  # an order below 2 or an empty table
        raise ConfigError(str(exc)) from None
    bounds = check_bounds(table)
    doubling = monotone_doubling_check(table) if args.n >= 2 else []
    if args.format == "csv":
        print("n,x_n,s_n,lower_ok,upper_ok,doubling_ok")
        for i in range(table.n):
            d_ok = doubling[i - 1].ok if i >= 1 else True
            print(
                f"{i + 1},{table.values[i]},{table.sums[i]},"
                f"{int(bounds[i].lower_ok)},{int(bounds[i].upper_ok)},{int(d_ok)}"
            )
    else:
        print(f"p-bonacci table, p={table.p}")
        print(f"{'n':>4} {'X_n':>24} {'S_n':>24} {'bounds':>7} {'doubling':>9}")
        for i in range(table.n):
            d_text = "-" if i == 0 else ("ok" if doubling[i - 1].ok else "FAIL")
            b_text = "ok" if bounds[i].ok else "FAIL"
            print(
                f"{i + 1:>4} {table.values[i]:>24} {table.sums[i]:>24} "
                f"{b_text:>7} {d_text:>9}"
            )
        if args.p == 2:
            lhs, rhs = fibonacci_sum_identity(args.n)
            print(f"sum identity: S_{args.n} = {lhs}, F_{args.n + 2} - 1 = {rhs}")
        macro = macronode_count(args.n, tuple(range(1, args.p + 1)))
        print(f"macronodes at tau={args.n} for lags 1..{args.p}: {macro}")
    all_ok = all(b.ok for b in bounds) and all(d.ok for d in doubling)
    return EXIT_OK if all_ok else EXIT_ACCEPTANCE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rnnp",
        description=(
            "Multi-lag recurrent forecasting: train and run the hourly "
            "load pipeline, verify gradient engines, benchmark their cost, "
            "and inspect the sequence arithmetic behind the tree counts."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic hourly series CSV")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--truth-out")
    p.add_argument("--years", type=int)
    p.add_argument("--start-year", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="fit seasonal model + recurrent network")
    p.add_argument("--config")
    p.add_argument("--data")
    p.add_argument("--holidays")
    p.add_argument("--out")
    p.add_argument("--history")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("forecast", help="produce forecasts from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--start", required=True)
    p.add_argument("--end", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("evaluate", help="score forecasts against realized data")
    p.add_argument("--forecasts", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gradcheck", help="cross-engine gradient verification")
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--base-seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("bench", help="complexity sweeps with operation counters")
    p.add_argument("--mode", choices=["tau", "neurons"], default="tau")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("pbonacci", help="sequence tables, bounds, identities")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.set_defaults(func=cmd_pbonacci)

    return parser


def main(argv: list | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataValidationError, OSError) as exc:  # OSError names its file
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericError, OverflowError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
