"""Summarise result files from ``fdmbench/out/`` across seeds.

    python3 fdmbench/summarize.py [--trace 0|1] [--json FILE] [result.json ...]

For each workload and metric: the number of runs, the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median.  With ``--json``
the summary and the environment of the runs are written to FILE.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from run import REPORT_UNITS

OUT = Path(__file__).resolve().parent / "out"


def summarize(paths: list[Path], trace: int) -> tuple[dict, list]:
    values: dict = defaultdict(lambda: defaultdict(list))
    units: dict = {}
    envs = []
    for path in paths:
        doc = json.loads(path.read_text())
        if doc["trace"] != trace:
            continue
        envs.append(doc["env"])
        metrics = {k: (m["value"], m["unit"]) for k, m in doc["result"]["metrics"].items()}
        for k, v in doc.get("report", {}).items():
            metrics[k] = (v, REPORT_UNITS[k])
        for k, (v, unit) in metrics.items():
            values[doc["workload"]][k].append(v)
            units.setdefault(k, unit)
    summary = {}
    for workload, metrics in sorted(values.items()):
        summary[workload] = {}
        for k, vs in metrics.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
            summary[workload][k] = {
                "n": len(vs), "unit": units[k], "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else None,
            }
    return summary, envs


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", type=Path)
    ap.add_argument("files", nargs="*", type=Path)
    args = ap.parse_args()
    paths = args.files or sorted(p for p in OUT.glob("*.json") if not p.name.endswith("-spans.json"))
    summary, envs = summarize(paths, args.trace)
    for workload, metrics in summary.items():
        for k, s in metrics.items():
            spread = "-" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"{workload:<13} {k:<34} n={s['n']:<3} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {spread} {s['unit']}")
    if args.json:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps({"env": envs[0] if envs else None, "runs": len(envs),
                                         "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
