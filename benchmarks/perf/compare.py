"""Before/after table from two ledgers: ``compare.py A.json B.json``.

A is the base (the parent commit), B the change. Both are ledgers written by
``run.py --workload all`` with the same seed and settings. For every
workload x end-to-end metric the table gives both values (timings: the best
observation) with the quartiles of the repetitions, the ratio B/A with its
base, the metric's bound from ``BENCHMARK.json`` and
a verdict:

* ``worse``  - B is worse than A by more than the bound;
* ``better`` - B is better than A by more than the bound;
* ``same``   - the change is within the bound;
* ``unresolved`` - either side's own spread (quartile distance over median)
  is wider than the bound, so "same" cannot be told from "moved".

Below it, the per-layer metrics that differ, timings first and sorted by
absolute change of self time, so the layer that moved is on top. One pair of
ledgers is one pair of runs: a claimed gain still needs the ten alternating
pairs of the choosing-metrics guide.
"""

from __future__ import annotations

import json
import os
import sys
from typing import List

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def spread(entry: dict) -> float:
    return (entry["q3"] - entry["q1"]) / entry["value"] if entry["value"] else 0.0


def verdict(a: dict, b: dict, meta: dict) -> str:
    worse = (b["value"] - a["value"]) / a["value"]
    if meta["better"] == "higher":
        worse = -worse
    # Counts and the error side repeat exactly, so their spread is 0.
    if max(spread(a), spread(b)) > meta["bound"]:
        return "unresolved"
    if worse > meta["bound"]:
        return "worse"
    if worse < -meta["bound"]:
        return "better"
    return "same"


def end_to_end_rows(a: dict, b: dict, bounds: dict) -> List[str]:
    rows = [f"{'workload':9s} {'metric':14s} {'A best [q1..q3]':>32s} "
            f"{'B best [q1..q3]':>32s} {'B/A':>7s} {'bound':>6s}  verdict"]
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            continue
        for metric, meta in bounds.items():
            ea, eb = wa["end_to_end"][metric], wb["end_to_end"][metric]

            def cell(e: dict) -> str:
                return f"{e['value']:.4g} [{e['q1']:.4g}..{e['q3']:.4g}] {e['unit']}"

            rows.append(
                f"{name:9s} {metric:14s} {cell(ea):>32s} {cell(eb):>32s} "
                f"{eb['value'] / ea['value']:7.3f} {meta['bound']:6.0%}  {verdict(ea, eb, meta)}"
            )
        rows.append(f"{name:9s} {'failed/attempted':14s} "
                    f"{wa['failed']}/{wa['attempted']:<28d} {wb['failed']}/{wb['attempted']}")
    return rows


def per_layer_rows(a: dict, b: dict) -> List[str]:
    changed = []
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name, {})
        for metric, ea in wa.get("per_layer", {}).items():
            eb = wb.get("per_layer", {}).get(metric)
            if eb is None or ea["value"] == eb["value"]:
                continue
            delta = eb["value"] - ea["value"]
            changed.append((ea["unit"] != "s", -abs(delta), name, metric, ea, eb, delta))
    rows = [f"{'workload':9s} {'layer metric':30s} {'A':>12s} {'B':>12s} {'B-A':>12s} {'B/A':>7s}"]
    for _, _, name, metric, ea, eb, delta in sorted(changed, key=lambda row: row[:4]):
        ratio = f"{eb['value'] / ea['value']:7.3f}" if ea["value"] else "      -"
        rows.append(f"{name:9s} {metric:30s} {ea['value']:12.5g} {eb['value']:12.5g} "
                    f"{delta:+12.5g} {ratio} {ea['unit']}")
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a, b = load(argv[0]), load(argv[1])
    for key in ("seed", "seconds", "smoke", "degree"):
        if a["meta"][key] != b["meta"][key]:
            print(f"warning: ledgers differ in {key}: {a['meta'][key]} vs {b['meta'][key]}")
    bounds = {m["name"]: m for m in load(os.path.join(ROOT, "BENCHMARK.json"))["end_to_end"]}
    print(f"A = {argv[0]}\nB = {argv[1]}\n")
    print("\n".join(end_to_end_rows(a, b, bounds)))
    print("\nper-layer metrics that differ (timings first, largest change first)\n")
    print("\n".join(per_layer_rows(a, b)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
