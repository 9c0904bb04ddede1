"""Compare two sets of benchmark results, workload by workload.

Usage, from the root of the repository::

    python3 perfbench/compare.py BASE NEW

BASE and NEW are each a result file written by run.py or a directory of
them (``perfbench/out`` by default holds one file per workload, seed and
trace flag).  For each workload the median over the files is compared.
End-to-end metrics are shown with their bound from BENCHMARK.json and a
verdict; per-layer metrics from traced runs are shown beside them, so a
moved end-to-end number can be traced to the layer that moved it.
Host-speed probes are printed first: read a delta only when the hosts
ran at the same speed.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))


def load_results(path: str) -> List[dict]:
    paths = sorted(glob.glob(os.path.join(path, "*.json"))) \
        if os.path.isdir(path) else [path]
    results = []
    for name in paths:
        with open(name) as handle:
            data = json.load(handle)
        if isinstance(data, dict) and "header" in data and "result" in data:
            results.append(data)
    return results


def medians(results: List[dict]) -> Dict[str, Dict[str, float]]:
    """workload -> metric -> median value over every run of it."""
    values: Dict[str, Dict[str, List[float]]] = {}
    for data in results:
        workload = data["header"]["workload"]
        for name, metric in data["result"]["metrics"].items():
            values.setdefault(workload, {}).setdefault(name, []).append(
                metric["value"])
    return {w: {n: statistics.median(v) for n, v in metrics.items()}
            for w, metrics in values.items()}


def host_speed(results: List[dict]) -> float:
    probes = [p for data in results
              for p in (data["host"]["probe_before_s"],
                        data["host"]["probe_after_s"])]
    return statistics.median(probes)


def verdict(base: float, new: float, better: str,
            bound: float) -> Tuple[float, str]:
    """Relative change and a verdict against the metric's bound."""
    if base == 0:
        return 0.0, "same" if new == 0 else "n/a"
    change = (new - base) / abs(base)
    worse = change if better == "lower" else -change
    if worse > bound:
        return change, "REGRESSED"
    if worse < -bound:
        return change, "improved"
    return change, "within bound"


def compare(base: List[dict], new: List[dict], spec: dict) -> str:
    lines = [f"host probe median: base {host_speed(base):.4f} s, "
             f"new {host_speed(new):.4f} s (lower is a faster host)"]
    base_m, new_m = medians(base), medians(new)
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    for workload in sorted(set(base_m) | set(new_m)):
        lines.append("")
        lines.append(f"== {workload}")
        old, cur = base_m.get(workload, {}), new_m.get(workload, {})
        for section, table in (("end to end", end_to_end),
                               ("per layer", per_layer)):
            names = [n for n in table if n in old and n in cur]
            if not names:
                continue
            lines.append(f"  -- {section}")
            for name in names:
                metric = table[name]
                bound = metric.get("bound")
                change, judged = verdict(old[name], cur[name],
                                         metric["better"],
                                         bound if bound is not None
                                         else float("inf"))
                if bound is None:
                    judged = ""
                    bound_text = ""
                else:
                    bound_text = f"bound {bound * 100:g}%"
                lines.append(
                    f"  {name:40s} {old[name]:12.4f} -> {cur[name]:12.4f} "
                    f"{metric['unit']:6s} {change:+8.1%}  {bound_text:10s} "
                    f"{judged}")
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    base, new = load_results(argv[0]), load_results(argv[1])
    if not base or not new:
        print("no result files found", file=sys.stderr)
        return 2
    print(compare(base, new, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
