"""Check the result lines of one or more perfbench runs.

    python .github/scripts/check_results.py RUN.txt [RUN.txt ...]

Each file is the printed output of ``perfbench/run.py --workload all``.
``run.py`` exits 0 even when an output check fails, so its result lines
(one JSON object per workload, the ones with a ``correct`` key) decide.
The script exits 1 unless every file has 4 result lines, each with
``correct: true`` and ``failed: 0``.  Given several files (runs of the same
seed on several Pythons), it also exits 1 unless each has digest and count
lines and they are the same lines, in the same order, in every file.
"""

import json
import re
import sys

EXACT = re.compile(r"\] (digest|count) ")
WORKLOADS = 4


def check(paths: list) -> bool:
    ok = True
    exact = {}
    for path in paths:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        objects = [json.loads(line) for line in lines if line.startswith("{")]
        results = [o for o in objects if "correct" in o]
        bad = [r for r in results if r["correct"] is not True or r["failed"] != 0]
        print(f"{path}: {len(results)} result lines, {len(bad)} bad")
        ok = ok and len(results) == WORKLOADS and not bad
        exact[path] = [line for line in lines if EXACT.search(line)]
    if len(paths) > 1:
        first = paths[0]
        for path, got in exact.items():
            differ = sorted(set(got) ^ set(exact[first]))
            print(f"{path}: {len(got)} digest/count lines, {len(differ)} differ from {first}")
            for line in differ:
                print(f"  {line}")
            ok = ok and bool(got) and got == exact[first]
    return ok


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    sys.exit(0 if check(sys.argv[1:]) else 1)
