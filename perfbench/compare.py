"""Summarise or compare result sets written by `run.py --save DIR`.

    python3 perfbench/compare.py DIR            # per workload: median and spread
    python3 perfbench/compare.py BASE NEW       # NEW against BASE, per metric

The spread is the interquartile distance of one metric over the result
sets of a workload (statistics.quantiles, n=4) as a share of the median.
A comparison flags a metric whose NEW median is worse than the BASE median
by more than the BENCHMARK.json bound, and refuses to compare at all when
the environment blocks of the result sets differ.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict:
    """{(workload, trace): [result set, ...]} for every result set in DIR."""
    sets = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        data = json.loads(path.read_text())
        sets[(data["workload"], data["trace"])].append(data)
    if not sets:
        raise SystemExit(f"no result sets in {directory}")
    return sets


def environments(sets: dict) -> set:
    return {json.dumps(s["env"], sort_keys=True) for group in sets.values() for s in group}


def summary(group: list) -> dict:
    """{metric: (median, spread, unit)} over the result sets of one group."""
    out = {}
    for name, first in group[0]["metrics"].items():
        values = [s["metrics"][name]["value"] for s in group]
        median = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(median) if median else float("inf")
        else:
            spread = float("nan")
        out[name] = (median, spread, first["unit"])
    return out


def main(argv) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in declared["end_to_end"]}
    if len(argv) == 1:
        sets = load(Path(argv[0]))
        if len(environments(sets)) != 1:
            print("warning: result sets in this directory come from different environments")
        for (workload, trace), group in sorted(sets.items()):
            fails = sum(s["failed"] for s in group)
            print(f"{workload} trace={trace}: {len(group)} result sets, {fails} failed runs")
            for name, (median, spread, unit) in summary(group).items():
                bound = bounds.get(name, {}).get("bound")
                note = "" if bound is None else f" (bound {bound}, {spread / bound:.2f} of it)"
                print(f"  {name}: median {median:.6g} {unit}, spread {spread:.4f}{note}")
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(Path(argv[0])), load(Path(argv[1]))
    envs = environments(base) | environments(new)
    if len(envs) != 1:
        print("refusing to compare: environment blocks differ:", file=sys.stderr)
        for env in sorted(envs):
            print(f"  {env}", file=sys.stderr)
        return 3
    worse = 0
    for key in sorted(set(base) & set(new)):
        b, n = summary(base[key]), summary(new[key])
        print(f"{key[0]} trace={key[1]}:")
        for name in b:
            if name not in n:
                continue
            (bm, bs, unit), (nm, ns, _) = b[name], n[name]
            change = (nm - bm) / abs(bm) if bm else float("inf")
            line = (f"  {name}: {bm:.6g} -> {nm:.6g} {unit} ({change:+.2%}; "
                    f"spreads {bs:.3f} / {ns:.3f})")
            if name in bounds:
                better = bounds[name]["better"]
                regress = change if better == "lower" else -change
                if regress > bounds[name]["bound"]:
                    line += f"  WORSE than bound {bounds[name]['bound']}"
                    worse += 1
            print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
