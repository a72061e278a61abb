"""Compare the digest and count lines of two perfbench runs.

    python .github/scripts/compare_digests.py BASE.txt CHANGE.txt

Each file is the printed output of ``perfbench/run.py`` with the same
``--workload`` and ``--seed``.  The script exits 1 when either run has no
digest line, or when a digest or count line of one run is missing from the
other or has another value.  Counts are exact (MACs per call, peak floats,
windows), so a change that moves one states it and skips this check.
"""

import re
import sys

LINE = re.compile(r"^\[(\S+) seed=\d+\] (digest|count) (\S+) = (\S+)$")
KINDS = ("digest", "count")


def exact_lines(path: str) -> dict:
    """``{kind: {(workload, name): value}}`` of the digest and count lines
    in ``path``."""
    found = {kind: {} for kind in KINDS}
    with open(path, encoding="utf-8") as f:
        for m in map(LINE.match, f.read().splitlines()):
            if m:
                found[m[2]][(m[1], m[3])] = m[4]
    return found


def main(base_path: str, change_path: str) -> int:
    base, change = exact_lines(base_path), exact_lines(change_path)
    ok = bool(base["digest"]) and bool(change["digest"])
    for kind in KINDS:
        b, c = base[kind], change[kind]
        differ = sorted(k for k in b.keys() | c.keys() if b.get(k) != c.get(k))
        print(f"{len(b)} base {kind}s, {len(c)} change {kind}s, {len(differ)} differ")
        for workload, name in differ:
            print(
                f"  [{workload}] {name}: base {b.get((workload, name))}, "
                f"change {c.get((workload, name))}"
            )
        ok = ok and not differ
    return 0 if ok else 1


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
