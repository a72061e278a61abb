"""Cross-engine and finite-difference gradient verification suite.

Runs seeded random model/sequence instances through all three engines,
compares them pairwise and against central finite differences, and emits
one row per comparison.  This is the same evidence the test suite relies
on, packaged for the command line so a build can be checked in the field.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import combinations

from .base import atomic_write
from .bench import _seeded_case
from .engines import ENGINES, finite_difference_gradients, max_abs_diff, max_rel_diff
from .linalg import Rng
from .model import RnnSpec

CSV_HEADER = ["engine", "seed", "tau", "lagset", "max_rel_err", "max_abs_err", "ok"]

PAIRWISE_TOL = 1e-10
FD_REL_TOL = 1e-5
FD_ABS_TOL = 1e-7

LAG_SETS = ((1,), (1, 2), (1, 3), (1, 2, 5))


@dataclass
class GradCheckRow:
    engine: str
    seed: int
    tau: int
    lag_set: tuple
    max_rel_err: float
    max_abs_err: float
    ok: bool


def _random_instance(seed: int) -> tuple:
    rng = Rng(seed)
    spec = RnnSpec(
        lag_set=LAG_SETS[seed % len(LAG_SETS)],
        x_dim=rng.randint(1, 5),
        hidden_dim=rng.randint(2, 8),
        y_dim=1 + seed % 2,
    )
    tau = rng.randint(max(1, spec.max_lag), 12)
    params, xs, head = _seeded_case(spec, tau, seed)
    target = rng.uniform(-1.0, 1.0, 1)[0]
    return spec, params, xs, head.bind(target)


def _flat(pair) -> list:
    return pair.d_theta + pair.d_phi


def run_gradient_check(n_seeds: int = 20, base_seed: int = 0) -> tuple:
    """Returns (rows, all_ok) over ``n_seeds`` random instances.

    Each instance gives one row per engine against central finite
    differences, then one per engine pair.  Against the oracle a coordinate
    fails when its error exceeds both FD_ABS_TOL and FD_REL_TOL relative to
    its magnitude, which is a relative error above FD_REL_TOL with the
    magnitude floored at FD_ABS_TOL / FD_REL_TOL.  A pair fails when an
    absolute error exceeds PAIRWISE_TOL times one plus the second engine's
    largest magnitude.

    ``n_seeds`` below 1 raises ``ValueError``: a check of no instance
    verifies nothing, so it is not a pass.
    """
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    rows: list = []
    for seed in range(base_seed, base_seed + n_seeds):
        spec, params, xs, loss = _random_instance(seed)
        # tau <= 12 here, well inside bptt's guard.
        grads = {name: _flat(run(params, spec, xs, loss)[0]) for name, run in ENGINES.items()}
        fd = _flat(finite_difference_gradients(params, spec, xs, loss))
        comparisons = [
            (name, g, fd, max_rel_diff(g, fd, floor=FD_ABS_TOL / FD_REL_TOL) <= FD_REL_TOL)
            for name, g in grads.items()
        ]
        for one, other in combinations(sorted(grads), 2):
            scale = 1.0 + max(abs(v) for v in grads[other])
            ok = max_abs_diff(grads[one], grads[other]) <= PAIRWISE_TOL * scale
            comparisons.append((f"{one}-vs-{other}", grads[one], grads[other], ok))
        rows.extend(
            GradCheckRow(
                engine=name,
                seed=seed,
                tau=len(xs),
                lag_set=spec.lag_set,
                max_rel_err=max_rel_diff(a, b),
                max_abs_err=max_abs_diff(a, b),
                ok=ok,
            )
            for name, a, b, ok in comparisons
        )
    return rows, all(r.ok for r in rows)


def write_report(rows: list, path: str) -> None:
    with atomic_write(path) as f:
        writer = csv.writer(f)
        writer.writerow(CSV_HEADER)
        for r in rows:
            writer.writerow(
                [
                    r.engine,
                    r.seed,
                    r.tau,
                    ";".join(str(l) for l in r.lag_set),
                    repr(r.max_rel_err),
                    repr(r.max_abs_err),
                    int(r.ok),
                ]
            )
