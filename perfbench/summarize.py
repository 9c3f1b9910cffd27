"""Summarize benchmark runs into one trajectory point.

    python3 perfbench/summarize.py LABEL [RESULT_DIR]

Reads every ``result.json`` that run.py left under RESULT_DIR (default
``perfbench/out``) and prints one JSON object: the run header, and for each
workload the median, quartiles and spread (quartile distance over median, as
``statistics.quantiles(values, n=4)`` gives them) of every end-to-end metric
over the untraced runs, and the median of every per-layer metric over the
traced runs.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def summarize(label: str, result_dir: Path) -> dict:
    untraced: dict = defaultdict(lambda: defaultdict(list))
    traced: dict = defaultdict(lambda: defaultdict(list))
    seeds: dict = defaultdict(list)
    header = None
    for path in sorted(result_dir.glob("*/result.json")):
        run = json.loads(path.read_text())
        head = run["header"]
        header = header or {k: v for k, v in head.items()
                            if k not in ("workload", "seed", "seed_used", "trace", "seconds")}
        if not run["summary"]["correct"]:
            raise SystemExit(f"{path}: run was not correct")
        into = traced if head["trace"] else untraced
        if not head["trace"]:
            seeds[head["workload"]].append(head["seed"])
        for name, metric in run["summary"]["metrics"].items():
            into[head["workload"]][name].append(metric["value"])
    point = {"label": label, "machine": header, "workloads": {}}
    for workload in sorted(set(untraced) | set(traced)):
        entry: dict = {"seeds": sorted(seeds[workload]), "end_to_end": {}, "per_layer": {}}
        for name, values in untraced[workload].items():
            median = statistics.median(values)
            q = statistics.quantiles(values, n=4) if len(values) > 1 else [median] * 3
            entry["end_to_end"][name] = {"runs": len(values), "median": median,
                                         "q1": q[0], "q3": q[2],
                                         "spread": (q[2] - q[0]) / median}
        for name, values in traced[workload].items():
            entry["per_layer"][name] = statistics.median(values)
        point["workloads"][workload] = entry
    return point


if __name__ == "__main__":
    here = Path(__file__).resolve().parent
    result_dir = Path(sys.argv[2]) if len(sys.argv) > 2 else here / "out"
    print(json.dumps(summarize(sys.argv[1], result_dir), indent=1))
