"""Noiseless demo run time as the bus grows.

The packaged demo (a master and eight register-file slaves) is extended
with copies of its first slave's filters that carry no register file, so
they load the line and demodulate it but never answer.  Each size runs the
demo script at zero noise once untimed, so that one-time start-up cost
stays out of the first size's figure, and then reports the best wall time
of a few runs next to the simulated samples and completed transactions::

    PYTHONPATH=src python benchmarks/bench_scaling.py [--nodes 9 33 129] [--repeat 3]
"""

from __future__ import annotations

import argparse
import dataclasses
import time
from importlib.resources import files

from fdmlink.simulate import BusTopology, load_scenario


def grown(topology: BusTopology, n_nodes: int) -> BusTopology:
    """``topology`` padded to ``n_nodes`` with filter-only copies of its first slave."""
    template = next(n for n in topology.nodes if n.role == "slave")
    extra = tuple(
        dataclasses.replace(template, name=f"pad{k}", slave=None)
        for k in range(n_nodes - len(topology.nodes))
    )
    return dataclasses.replace(topology, nodes=topology.nodes + extra)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--nodes", type=int, nargs="+", default=[9, 33, 129])
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    scenario = load_scenario(str(files("fdmlink").joinpath("data/demo_scenario.yaml")))
    base = len(scenario.topology.nodes)
    print(f"{'nodes':>6} {'best_s':>8} {'samples':>8} {'completed':>9}")
    for n in args.nodes:
        if n < base:
            raise SystemExit(f"--nodes {n}: the demo already has {base} nodes")
        sc = dataclasses.replace(scenario, topology=grown(scenario.topology, n))
        sc.run(noise_rms=0.0)  # warm-up
        best = float("inf")
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            metrics, _ = sc.run(noise_rms=0.0)
            best = min(best, time.perf_counter() - t0)
        done = f"{metrics.transactions_completed}/{metrics.transactions_attempted}"
        print(f"{n:>6} {best:>8.4f} {metrics.n_samples:>8} {done:>9}")


if __name__ == "__main__":
    main()
