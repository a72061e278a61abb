"""Seeded mutation runs of the input readers, in process through ``cli.main``.

Mutated checkpoints go through ``rnnp forecast``, and mutated forecast and
series CSVs through ``rnnp evaluate``.  Every run must end in exit 0, 3
(data error) or 4 (numeric error), a failed run must print one line and
leave no output file, and a checkpoint without a key that ``save`` always
writes must not forecast.  These parts read one saved 1-year pipeline and
a data CSV cut to the hours the forecast reads, so each run takes
milliseconds.  Mutated configs go through ``rnnp train --config`` on that
data CSV: each must exit 2 with one line, or pass every check and reach
the deseasonalizer fit, where a spy stops it; neither writes a checkpoint.
"""

import copy
import csv
import io
import json
import random
from datetime import date, datetime

import pytest

from rnnp.cli import main
from rnnp.linalg import Rng
from rnnp.pipeline import LoadForecastPipeline
from rnnp.seasonal import HourlyDeseasonalizer
from rnnp.series import write_csv
from rnnp.synth import SynthConfig, synth_generate

SEED = 28
CHECKPOINT_RUNS = 200
CSV_RUNS = 300
SERIES_RUNS = 300
CONFIG_RUNS = 300
TAU = 12
START, END = "2007-06-01T00:00:00", "2007-06-01T06:00:00"
HOLIDAYS = frozenset({date(2007, 5, 28), date(2007, 7, 4)})

# Values a mutation writes in place of another: huge integers, the float
# extremes and subnormals, then one value of every JSON kind.
SPECIAL = [10**400, 2**63, 1e308, -0.0, 5e-324, 1e-310, float("nan"), float("inf")]
PLAIN = [None, True, False, 0, -1, 1, 0.5, "", "x", "2007-01-01", [], [1], {}, {"x": 1}]
# Cell texts a forecast CSV mutation writes.
CELLS = [
    "", "x", "nan", "inf", "-inf", "1e308", "-0.0", "5e-324", "1" + "0" * 400,
    str(2**63), "0", "-1", "True", "2007-06-01T00:00:00", "2007-06-01T00:00:00+00:00",
    "2007-13-01T00:00:00", " 1.0", "1,0",
]
# A config that passes every check on the saved data CSV, which holds the
# hours from 2007-05-31T13:00 up to END; its dates lie in that range.
CONFIG = {
    "seed": 5,
    "model": {"lags": [1, 2], "hidden_dim": 3, "loss": "gaussian_nll", "tau": 4},
    "train": {
        "engine": "trrl",
        "learning_rate": 0.001,
        "batch_size": 8,
        "max_epochs": 1,
        "patience": 1,
        "stride": 1,
        "train_start": "2007-05-31T13:00:00",
        "train_end": "2007-06-01T00:00:00",
        "val_start": "2007-06-01T00:00:00",
        "val_end": END,
    },
}
# PLAIN with its date inside the data CSV: a config date outside the data
# is a data error, and a config mutation must exit 0 or 2.
CONFIG_PLAIN = [v if v != "2007-01-01" else "2007-06-01T02:00:00" for v in PLAIN]


class Accepted(Exception):
    """What the deseasonalizer fit spy raises: the config passed every check."""


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """(folder, data CSV, checkpoint record, forecast CSV text) of one
    fitted pipeline and its forecast over [START, END)."""
    folder = tmp_path_factory.mktemp("mutation")
    series, _ = synth_generate(SynthConfig(years=1, holidays=HOLIDAYS), Rng(61))
    pipe = LoadForecastPipeline(
        lags=(1, 2), hidden_dim=3, max_epochs=1, tau=TAU, train_stride=97, holidays=HOLIDAYS
    )
    pipe.fit(series, series.start, series.end)
    checkpoint, full, data = folder / "model.json", folder / "full.csv", folder / "data.csv"
    pipe.save(str(checkpoint))
    write_csv(series, str(full))
    # The header and the hours from TAU - 1 before START up to END.
    i0, i1 = series.index_range(datetime.fromisoformat(START), datetime.fromisoformat(END))
    lines = full.read_text(encoding="utf-8").splitlines(keepends=True)
    data.write_text("".join([lines[0], *lines[1 + i0 - TAU + 1 : 1 + i1]]), encoding="utf-8")
    forecasts = folder / "forecast.csv"
    assert forecast(str(checkpoint), str(data), forecasts) == 0
    return folder, str(data), json.loads(checkpoint.read_text()), forecasts.read_text()


def forecast(checkpoint: str, data: str, out) -> int:
    argv = ["forecast", "--checkpoint", checkpoint, "--data", data]
    return main(argv + ["--start", START, "--end", END, "--out", str(out)])


def evaluate(forecasts: str, data: str, out) -> int:
    return main(["evaluate", "--forecasts", forecasts, "--data", data, "--out", str(out)])


def outcome(run, out, capsys) -> str | None:
    """None when the run ends as the readers promise, else what went wrong."""
    if out.exists():
        out.unlink()
    try:
        code = run()
    except Exception as exc:  # a reader gap: the test reports it, not pytest
        return f"raised {type(exc).__name__}: {exc}"
    err = capsys.readouterr().err
    if code == 0:
        return None if out.exists() else "exit 0 but no output file"
    if code not in (3, 4):
        return f"exit {code}: {err!r}"
    if len(err.strip().splitlines()) != 1:
        return f"exit {code} without a one-line message: {err!r}"
    if out.exists():
        return f"exit {code} but the output file was written"
    return None


def entries(node, path=()):
    """The path of every object entry under ``node``, depth first."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield path + (key,)
            yield from entries(value, path + (key,))


def random_path(rng: random.Random, record) -> list:
    """Keys and indices from the record down to a random entry: any object
    entry, then as often as not an element of the list it holds."""
    path = list(rng.choice(list(entries(record))))
    node = record
    for key in path:
        node = node[key]
    while isinstance(node, list) and node and rng.random() < 0.5:
        path.append(rng.randrange(len(node)))
        node = node[path[-1]]
    return path


def swapped(value):
    """``value`` as another JSON kind."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, str):
        return [value]
    if isinstance(value, list):
        return {str(i): v for i, v in enumerate(value)}
    if isinstance(value, dict):
        return list(value.values())
    return 0


def mutated_record(rng: random.Random, record, plain=PLAIN) -> tuple:
    """(description, mutated record, whether a dict key was dropped) of a
    JSON record; a replaced value is one of SPECIAL or of ``plain``."""
    record = copy.deepcopy(record)
    path = random_path(rng, record)
    parent = record
    for key in path[:-1]:
        parent = parent[key]
    key, kind = path[-1], rng.choice(("replace", "special", "drop", "swap"))
    if kind == "drop":
        del parent[key]
        return f"drop {path}", record, isinstance(parent, dict)
    if kind == "swap":
        parent[key] = swapped(parent[key])
    else:
        parent[key] = rng.choice(SPECIAL if kind == "special" else plain)
    return f"{kind} {path} -> {json.dumps(parent[key])[:40]}", record, False


def mutated_csv(rng: random.Random, text: str) -> tuple:
    """(description, mutated text) of a forecast CSV."""
    rows = list(csv.reader(io.StringIO(text)))
    r = rng.randrange(len(rows))
    c = rng.randrange(len(rows[r]))
    kind = rng.choice(("cut_row", "cut_cell", "cut_file", "duplicate", "reorder", "retype"))
    if kind == "cut_row":
        rows[r] = rows[r][: rng.randrange(len(rows[r]))]
    elif kind == "cut_cell":
        rows[r][c] = rows[r][c][: rng.randrange(len(rows[r][c]) + 1)]
    elif kind == "duplicate":
        if rng.random() < 0.5:
            rows.insert(r, list(rows[r]))
        else:
            rows[r].insert(c, rows[r][c])
    elif kind == "reorder":
        s = rng.randrange(len(rows))
        if rng.random() < 0.5:
            rows[r], rows[s] = rows[s], rows[r]
        else:
            d = rng.randrange(len(rows[r]))
            rows[r][c], rows[r][d] = rows[r][d], rows[r][c]
    elif kind == "retype":
        rows[r][c] = rng.choice(CELLS)
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    text = out.getvalue()
    if kind == "cut_file":
        text = text[: rng.randrange(len(text))]
    return f"{kind} row {r} cell {c}", text


def mutated_series(rng: random.Random, text: str) -> tuple:
    """(description, mutated text) of a series CSV: a blank row or a row
    cut short inserted, or else a forecast CSV mutation."""
    if rng.random() < 0.2:
        lines = text.splitlines()
        cells = lines[rng.randrange(1, len(lines))].split(",")
        row = ",".join(cells[: rng.randrange(len(cells))])
        r = rng.randrange(1, len(lines) + 1)
        lines.insert(r, row)
        return f"insert line {r + 1}: {row!r}", "\n".join(lines) + "\n"
    return mutated_csv(rng, text)


def test_mutated_checkpoints_forecast_or_fail_cleanly(saved, capsys):
    folder, data, record, _ = saved
    rng = random.Random(SEED)
    checkpoint, out = folder / "mutated.json", folder / "mutated-forecast.csv"
    failures = []
    for _ in range(CHECKPOINT_RUNS):
        what, mutated, dropped_key = mutated_record(rng, record)
        checkpoint.write_text(json.dumps(mutated))
        problem = outcome(lambda: forecast(str(checkpoint), data, out), out, capsys)
        if problem is None and dropped_key and out.exists():
            problem = "exit 0 without a key save writes"
        if problem:
            failures.append(f"{what}: {problem}")
    assert failures == []


def test_mutated_forecast_csvs_score_or_fail_cleanly(saved, capsys):
    folder, data, _, text = saved
    rng = random.Random(SEED)
    forecasts, out = folder / "mutated.csv", folder / "report.json"
    failures = []
    for _ in range(CSV_RUNS):
        what, mutated = mutated_csv(rng, text)
        forecasts.write_text(mutated)
        problem = outcome(lambda: evaluate(str(forecasts), data, out), out, capsys)
        if problem:
            failures.append(f"{what}: {problem}")
    assert failures == []


def test_mutated_series_csvs_score_or_fail_cleanly(saved, capsys):
    folder, data, _, _ = saved
    rng = random.Random(SEED)
    forecasts, series, out = folder / "forecast.csv", folder / "series.csv", folder / "report.json"
    with open(data, encoding="utf-8") as f:
        original = f.read()
    failures = []
    for _ in range(SERIES_RUNS):
        what, mutated = mutated_series(rng, original)
        series.write_text(mutated, encoding="utf-8")
        problem = outcome(lambda: evaluate(str(forecasts), str(series), out), out, capsys)
        if problem:
            failures.append(f"{what}: {problem}")
    assert failures == []


def test_mutated_configs_reach_the_fit_or_fail_cleanly(saved, capsys, monkeypatch):
    folder, data, _, _ = saved

    def accept(*args, **kwargs):
        raise Accepted

    monkeypatch.setattr(HourlyDeseasonalizer, "_fit", accept)
    config, checkpoint = folder / "config.json", folder / "trained.json"
    argv = ["train", "--config", str(config), "--data", data, "--out", str(checkpoint)]
    config.write_text(json.dumps(CONFIG))
    with pytest.raises(Accepted):
        main(argv)
    rng = random.Random(SEED)
    failures = []
    for _ in range(CONFIG_RUNS):
        what, mutated, _ = mutated_record(rng, CONFIG, CONFIG_PLAIN)
        config.write_text(json.dumps(mutated))
        try:
            code = main(argv)
        except Accepted:
            code = 0
        except Exception as exc:  # a reader gap: the test reports it, not pytest
            failures.append(f"{what}: raised {type(exc).__name__}: {exc}")
            continue
        err = capsys.readouterr().err
        if code == 2 and len(err.strip().splitlines()) != 1:
            failures.append(f"{what}: exit 2 without a one-line message: {err!r}")
        elif code not in (0, 2):
            failures.append(f"{what}: exit {code}: {err!r}")
        if checkpoint.exists():
            failures.append(f"{what}: exit {code} but the checkpoint was written")
            checkpoint.unlink()
    assert failures == []
