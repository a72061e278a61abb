"""Complexity measurement harness over the gradient engines.

Records deterministic multiply-accumulate counts and peak gradient-state
floats per engine call next to wall-clock time.  The counters carry the
complexity claims (linear growth for the forward/backward recombined
sweeps, exponential for the unrolled tree, Jacobian storage for the
forward propagation); seconds are reported for orientation only and never
asserted, since they depend on the host.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass

from .base import atomic_write
from .engines import ENGINES, check_engine
from .linalg import Rng
from .model import RnnSpec, init_params
from .training import LossHead

# The neuron sweep runs trrl and rtrl at the pipeline's shape: 13 encoded
# inputs, the Gaussian head's two outputs and 49-hour windows.
SWEEP_X_DIM = 13
SWEEP_Y_DIM = 2
SWEEP_TAU = 49

CSV_HEADER = [
    "engine",
    "lag_set",
    "hidden_dim",
    "y_dim",
    "tau",
    "mac_count",
    "peak_floats",
    "wall_seconds",
    "macronodes",
]


@dataclass
class BenchRecord:
    engine: str
    lag_set: tuple
    hidden_dim: int
    y_dim: int
    tau: int
    mac_count: int
    peak_floats: int
    wall_seconds: float
    macronodes: int | None = None


def _seeded_case(spec: RnnSpec, tau: int, seed: int) -> tuple:
    """(params, xs, head) for one engine run: parameters from
    ``Rng(seed).spawn(1)``, tau inputs in [-1, 1) from ``.spawn(2)`` (child
    streams depend only on the seed) and the head that fits ``spec.y_dim``."""
    rng = Rng(seed)
    params = init_params(spec, rng.spawn(1))
    xin = rng.spawn(2)
    xs = [xin.uniform(-1.0, 1.0, spec.x_dim) for _ in range(tau)]
    return params, xs, LossHead(kind="mse" if spec.y_dim == 1 else "gaussian_nll")


def _run_once(engine: str, spec: RnnSpec, tau: int, seed: int) -> BenchRecord:
    check_engine(engine)
    params, xs, head = _seeded_case(spec, tau, seed)
    t0 = time.perf_counter()
    _, counter, *macronodes = ENGINES[engine](params, spec, xs, head.bind(0.3))
    elapsed = time.perf_counter() - t0
    return BenchRecord(
        engine=engine,
        lag_set=spec.lag_set,
        hidden_dim=spec.hidden_dim,
        y_dim=spec.y_dim,
        tau=tau,
        mac_count=counter.mac_count,
        peak_floats=counter.peak_floats,
        wall_seconds=elapsed,
        macronodes=macronodes[0] if macronodes else None,
    )


def sweep_tau(
    engine: str, spec: RnnSpec, taus: list, seed: int = 0
) -> list:
    """One gradient evaluation per sequence length on a fixed seeded model."""
    return [_run_once(engine, spec, tau, seed) for tau in taus]


def sweep_neurons(
    lag_sets: tuple = ((1,), (1, 2), (1, 2, 24)),
    hidden_dims: tuple = (5, 10, 15),
    seed: int = 0,
) -> list:
    """trrl and rtrl runs across lag sets and hidden sizes at the sweep's
    fixed shape."""
    records = []
    for lag_set in lag_sets:
        for h in hidden_dims:
            spec = RnnSpec(
                lag_set=tuple(lag_set),
                x_dim=SWEEP_X_DIM,
                hidden_dim=h,
                y_dim=SWEEP_Y_DIM,
            )
            for engine in ("trrl", "rtrl"):
                records.append(_run_once(engine, spec, SWEEP_TAU, seed))
    return records


@dataclass
class GainRow:
    lag_set: tuple
    hidden_dim: int
    rtrl_macs: int
    trrl_macs: int
    gain_factor: float
    theoretical: int  # p * y^2
    wall_ratio: float  # rtrl wall seconds over trrl's; reported, never asserted


def gain_factors(records: list) -> list:
    """RTRL-over-recombined-sweep cost ratio per (lag set, hidden size), in
    MACs (``gain_factor``) and in measured wall time (``wall_ratio``)."""
    by_key: dict = {}
    for r in records:
        by_key.setdefault((r.lag_set, r.hidden_dim, r.y_dim), {})[r.engine] = r
    rows = []
    for (lag_set, h, y), engines in sorted(by_key.items()):
        if "rtrl" in engines and "trrl" in engines:
            rtrl_macs = engines["rtrl"].mac_count
            trrl_macs = engines["trrl"].mac_count
            rows.append(
                GainRow(
                    lag_set=lag_set,
                    hidden_dim=h,
                    rtrl_macs=rtrl_macs,
                    trrl_macs=trrl_macs,
                    gain_factor=rtrl_macs / trrl_macs,
                    theoretical=len(lag_set) * y * y,
                    wall_ratio=engines["rtrl"].wall_seconds / engines["trrl"].wall_seconds,
                )
            )
    return rows


def emit_csv(records: list, path: str) -> None:
    """Write records with a stable column order; overwrites on re-run."""
    with atomic_write(path) as f:
        writer = csv.writer(f)
        writer.writerow(CSV_HEADER)
        for r in records:
            writer.writerow(
                [
                    r.engine,
                    ";".join(str(l) for l in r.lag_set),
                    r.hidden_dim,
                    r.y_dim,
                    r.tau,
                    r.mac_count,
                    r.peak_floats,
                    repr(r.wall_seconds),
                    "" if r.macronodes is None else r.macronodes,
                ]
            )
