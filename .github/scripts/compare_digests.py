"""Compare the digest lines of two perfbench runs.

    python .github/scripts/compare_digests.py BASE.txt CHANGE.txt

Each file is the printed output of ``perfbench/run.py`` with the same
``--workload`` and ``--seed``.  The script exits 1 when either run has no
digest line, or when a digest of one run is missing from the other or has
another value.  Count lines are not compared: a change may move a count on
purpose and state the new figure.
"""

import re
import sys

DIGEST = re.compile(r"^\[(\S+) seed=\d+\] digest (\S+) = (\S+)$")


def digests(path: str) -> dict:
    """``{(workload, name): value}`` of the digest lines in ``path``."""
    with open(path, encoding="utf-8") as f:
        matches = (DIGEST.match(line) for line in f.read().splitlines())
        return {(m[1], m[2]): m[3] for m in matches if m}


def main(base_path: str, change_path: str) -> int:
    base, change = digests(base_path), digests(change_path)
    keys = base.keys() | change.keys()
    differ = sorted(k for k in keys if base.get(k) != change.get(k))
    print(f"{len(base)} base digests, {len(change)} change digests, {len(differ)} differ")
    for workload, name in differ:
        print(
            f"  [{workload}] {name}: base {base.get((workload, name))}, "
            f"change {change.get((workload, name))}"
        )
    return 1 if differ or not base or not change else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
