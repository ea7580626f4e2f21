"""Write ``golden.json``: digests of the default seed's golden ops per workload.

    python3 fdmbench/record_golden.py

Re-record only when a change is meant to alter the program's outputs, and
say so in the change; a speed-only change must pass against the old file.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from tracer import NullTracer  # noqa: E402
from workloads import DEFAULT_SEED, DEMO_SCENARIO, WORKLOADS, metrics_digest  # noqa: E402


def main() -> None:
    from fdmlink.simulate import load_scenario

    golden = {}
    for name, cls in WORKLOADS.items():
        wl = cls()
        records = []
        for i in range(wl.golden_ops):
            inp = wl.make(DEFAULT_SEED, i)
            out = wl.run(inp, NullTracer())
            if not wl.check(inp, out):
                raise SystemExit(f"{name} op {i} fails its own check; not recording")
            records.append(wl.digest(inp, out))
        golden[name] = records
    metrics, _ = load_scenario(DEMO_SCENARIO).run()
    golden["demo_metrics"] = metrics_digest(metrics.to_dict())
    (BENCH / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    main()
