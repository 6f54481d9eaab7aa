"""Compare two sets of run records written by `run.py --record`.

    python3 bench/compare.py BEFORE.jsonl AFTER.jsonl

Records are paired by (workload, trace mode, seed).  If any pair was
made under different metadata (machine, BLAS, thread pins, versions,
seed) the comparison is refused with exit code 2: numbers from two
configurations are not comparable.  Otherwise prints, per workload and
metric, the median over the paired records of each side and their ratio.
"""

from __future__ import annotations

import json
import statistics
import sys


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return {(r["workload"], r["trace"], r["seed"]): r for r in records}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = load(argv[0]), load(argv[1])
    pairs = sorted(before.keys() & after.keys())
    if not pairs:
        print("refused: no records share workload, trace mode and seed", file=sys.stderr)
        return 2
    for key in pairs:
        a, b = before[key]["metadata"], after[key]["metadata"]
        differ = sorted(f for f in a.keys() | b.keys() if a.get(f) != b.get(f))
        if differ:
            print(f"refused: metadata differs for {key}: {', '.join(differ)}", file=sys.stderr)
            return 2

    groups: dict[tuple, list] = {}
    for key in pairs:
        groups.setdefault(key[:2], []).append(key)
    for (workload, trace), keys in groups.items():
        print(f"{workload} (trace {trace}, {len(keys)} paired seeds)")
        section = "per_layer" if trace else "end_to_end"
        for name in before[keys[0]][section]:
            vals = [(before[k][section][name], after[k][section][name]) for k in keys]
            if any(isinstance(v, str) for pair in vals for v in pair):
                print(f"  {name:36s} absent on one side")
                continue
            x = statistics.median(v[0] for v in vals)
            y = statistics.median(v[1] for v in vals)
            ratio = f"{y / x:.3f}" if x else "n/a"
            print(f"  {name:36s} {x:14.6g} {y:14.6g}  after/before {ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
