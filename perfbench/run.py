"""rnnp benchmark: seeded workloads through the public API, timed from outside.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 1 --seconds 25 --trace 0

``--workload`` is one of train, forecast, walk_forward, verify, or ``all``
(each workload in turn, in its own process).  ``--trace 0`` measures the
end-to-end metrics for about ``--seconds`` seconds after set-up.
``--trace 1`` runs a fixed unit of work three times (warm-up, traced,
untraced) and reports the per-layer metrics plus the tracing overhead.
Its spans are written to ``.perfbench/trace/<workload>.spans.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give run metadata, every metric by name and unit, exact counts, digests
and the result of each output check.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAMES = ("train", "forecast", "walk_forward", "verify")
SETUP_REPEATS = 5


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(wl, outcome, seconds: float) -> dict:
    """Untraced pass: repeated set-up, then rounds until the time is used."""
    from workloads import clock, median

    setup_iv = []
    wl.speed.start()
    try:
        for _ in range(SETUP_REPEATS):
            t0 = clock()
            digest = wl.setup()
            setup_iv.append((t0, clock()))
            wl._record_digest("input_csv_sha256", digest)
        wl.notes["startup_to_first_call_s"] = clock() - PROCESS_START

        t0 = clock()
        rounds: list = []
        while len(rounds) < wl.min_rounds or clock() - t0 + median(rounds) <= seconds:
            t1 = clock()
            try:
                wl.round()
                outcome.op(True)
            except Exception:  # a failed operation is counted, not fatal
                outcome.op(False)
                outcome.errors.append("round: " + traceback.format_exc())
                if clock() - t0 > seconds:
                    break
            rounds.append(clock() - t1)
        wl.notes["measured_s"] = clock() - t0
    finally:
        wl.speed.stop()
    wl.notes["speedometer_ticks"] = wl.speed.ticks()

    metrics = wl.metrics()
    metrics["setup_s"] = (median(wl.seconds(setup_iv)), "s")
    wl.notes["wall.setup_s"] = median(t1 - t0 for t0, t1 in setup_iv)
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return metrics


def trace(wl, outcome) -> dict:
    """Traced pass: set-up and one unit traced, the same unit untraced.

    The unit runs three times: a warm-up, traced, then untraced.  The
    overhead compares the two units in reference seconds.
    """
    from tracing import Tracer
    from workloads import clock

    tracer = Tracer()
    tracer.install()
    try:
        wl._record_digest("input_csv_sha256", wl.setup())
    finally:
        tracer.remove()

    wl.trace_unit()  # warm-up, so that both timed units run warm
    wl.speed.start()
    try:
        tracer.install()
        try:
            t0 = clock()
            wl.trace_unit()
            t1 = clock()
        finally:
            tracer.remove()
        wl.trace_unit()
        t2 = clock()
    finally:
        wl.speed.stop()
    traced, plain = wl.seconds([(t0, t1), (t1, t2)])
    outcome.op(True)
    wl.notes["unit_untraced_s"] = plain
    wl.notes["unit_traced_s"] = traced
    wl.notes["spans"] = len(tracer.spans)
    tracer.write_spans(os.path.join(ROOT, ".perfbench", "trace", f"{wl.name}.spans.jsonl"))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        wanted = [(m["name"], m["unit"]) for m in json.load(f)["per_layer"]]
    return {
        name: (m["value"], m["unit"])
        for name, m in tracer.layer_metrics(traced / plain - 1.0, wanted).items()
    }


def report(wl, outcome, metrics: dict) -> None:
    tag = f"[{wl.name} seed={wl.seed}]"
    for name, (passed, total) in sorted(outcome.checks.items()):
        verdict = "ok" if passed == total else "FAILED"
        print(f"{tag} check {name}: {passed}/{total} {verdict}")
    for err in outcome.errors:
        print(f"{tag} error {err}")
    for name, value in sorted(wl.notes.items()):
        print(f"{tag} note {name} = {value}")
    for name, value in sorted(wl.counts.items()):
        print(f"{tag} count {name} = {value}")
    for name, value in sorted(wl.digests.items()):
        print(f"{tag} digest {name} = {value}")
    frac = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"{tag} ops_failed_frac = {frac} ({outcome.failed}/{outcome.attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{tag} metric {name} = {value} {unit}")


def run_one(args) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from speedometer import Speedometer
    from workloads import WORKLOADS, Outcome

    print(json.dumps({"meta": metadata(args)}), flush=True)
    workdir = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    outcome = Outcome()
    wl = WORKLOADS[args.workload](args.seed, workdir, outcome, Speedometer())
    try:
        if args.trace:
            metrics = trace(wl, outcome)
        else:
            metrics = measure(wl, outcome, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(wl, outcome, metrics)
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    worst = 0
    for name in NAMES:
        cmd = [
            sys.executable, os.path.abspath(__file__),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        worst = max(worst, subprocess.run(cmd, cwd=ROOT, check=False).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "rnnp", "__init__.py")):
        print(f"rnnp sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
