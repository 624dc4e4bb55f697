"""Side-by-side view of two benchmark result files.

    python3 bench/run_bench.py --workload macro-search --seed 1 --out base.jsonl
    python3 bench/run_bench.py --workload macro-search --seed 1 --out change.jsonl
    python3 bench/compare.py base.jsonl change.jsonl

A result file holds one JSON report per line, as `run_bench.py --out`
appends them. Reports of the same workload and trace flag are pooled: each
row shows the median of the per-report values on each side, how many
reports it rests on, and the ratio change / base with the base it divides
by. Rows appear per workload and metric; a metric that reads 0 on both
sides (a layer the workload never calls) is left out.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def load(path: str) -> dict[tuple[str, int], dict[str, tuple[list[float], str]]]:
    """(workload, trace) -> metric -> (values over reports, unit)."""
    pooled: dict = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        report = json.loads(line)
        metrics = pooled.setdefault((report["workload"], report["trace"]), {})
        for name, metric in report["metrics"].items():
            metrics.setdefault(name, ([], metric["unit"]))[0].append(metric["value"])
    return pooled


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    base, change = load(args.base), load(args.change)
    print(f"{'workload':<20s} {'metric':<54s} {'unit':<10s} {'base':>12s} {'n':>3s} "
          f"{'change':>12s} {'n':>3s} {'change/base':>12s}")
    for key in sorted(base.keys() & change.keys()):
        for name, (base_values, unit) in base[key].items():
            if name not in change[key]:
                continue
            change_values = change[key][name][0]
            b, c = statistics.median(base_values), statistics.median(change_values)
            if b == 0 and c == 0:  # the layer does not run on this workload
                continue
            ratio = f"{c / b:12.4f}" if b else f"{'n/a (base 0)':>12s}"
            print(f"{key[0]:<20s} {name:<54s} {unit:<10s} {b:12.6g} {len(base_values):3d} "
                  f"{c:12.6g} {len(change_values):3d} {ratio}")
    missing = sorted(base.keys() ^ change.keys())
    if missing:
        print(f"only in one file: {missing}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
