"""fdmlink benchmark: one seeded workload per run, results as one JSON line.

    python3 fdmbench/run.py --workload link_quiet --seed 3 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  Workloads (see ``workloads.py`` for why each exists):
``link_quiet``, ``link_noisy``, ``design_batch``.

``--trace 0`` measures the end-to-end metrics with tracing off, times
calibrated for the host's speed (``calibrate.py``).  The process runs
single-threaded and starts no pool; set-up is measured in fresh child
processes, one after another.  ``--trace 1`` is the separate traced run:
each op untraced and then traced (their difference is the tracing
overhead), then per-layer probes (``layers.py``).  Spans and counts are
written to ``fdmbench/out/`` at the end.

Every operation's output is checked; a failed check or an exception counts
as a failed operation.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
report every metric by name with its unit, plus the environment.
"""

import os

# single-threaded numerics: set before numpy is imported anywhere
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

from calibrate import SETUP_REF_S, Calibrator  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 15
P90_MIN_OPS = 100  # p90 needs ten samples beyond it

END_TO_END_UNITS = {"setup_s": "s", "op_ms.p50": "ms", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "cli.design_cold_s": "s",
    "cli.demo_cold_s": "s",
    "import.fdmlink_s": "s",
    "import.scipy_s": "s",
    "synthesis.synthesize_us": "us",
    "synthesis.default_xm_ms": "ms",
    "synthesis.verify_lossless_ms": "ms",
    "synthesis.verify_lossy_ms": "ms",
    "elements.poles_zeros_lossless_ms": "ms",
    "elements.poles_zeros_lossy_ms": "ms",
    "elements.zin_us": "us",
    "analysis.sweep_ms": "ms",
    "simulate.load_ms": "ms",
    "simulate.bus_amplitude_ms": "ms",
    "simulate.amp_states": "count",
    "simulate.amp_table_s": "s",
    "simulate.amp_table_frac": "ratio",
    "simulate.samples": "count",
    "simulate.node_line_steps": "count",
    "simulate.slicer_events": "count",
    "simulate.event_frac": "ratio",
    "simulate.run_s": "s",
    "simulate.loop_s": "s",
    "simulate.loop_nls_per_s": "1/s",
    "simulate.trace_capture_s": "s",
    "modem.slice_msps": "Msample/s",
    "modem.demod_msps": "Msample/s",
    "protocol.ideal_txn_per_s": "1/s",
    "protocol.quarters": "count",
    "trace.op_ms_off": "ms",
    "trace.op_ms_on": "ms",
    "trace.overhead_frac": "ratio",
}
# Reported on the lines before the result, where they apply: they are not
# defined on every workload, or are zero or seed-dependent by design.
REPORT_UNITS = {
    "wall.setup_s": "s",
    "calibration.setup_ref_s": "s",
    "wall.op_ms.p50": "ms",
    "wall.ops_per_s": "1/s",
    "calibration.kernel_ms": "ms",
    "op_ms.p90": "ms",
    "link.nls_per_s": "1/s",
    "fail_frac": "ratio",
    "link.ber": "ratio",
    "link.txn_ok_frac": "ratio",
    "ops": "count",
}


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy

    from fdmlink.kernels import backend_name

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "machine": f"{platform.machine()} {cpu}",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "kernel_backend": backend_name(),
        "commit": git_commit(),
    }


class Tally:
    """Attempted and failed op runs, and what the timed ops measured."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wall: list[float] = []  # seconds per timed op
        self.cal: list[float] = []  # the same, calibrated (calibrate.py)
        self.work = 0
        self.kernel_ms = 0.0
        self.timeline: dict = {}
        self.digests: dict[int, object] = {}
        self.stats: dict[str, float] = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        print(message, file=sys.stderr)


def do_op(wl, seed: int, i: int, tracer, tally: Tally):
    """Run and check op ``i``; returns (ok, start, end, input, output)."""
    inp = wl.make(seed, i)
    tracer.op = i
    out = None
    t0 = time.perf_counter()
    try:
        with tracer.span("op"):
            out = wl.run(inp, tracer)
    except Exception:  # an op that raises is a failed op; the run goes on
        traceback.print_exc(file=sys.stderr)
    t1 = time.perf_counter()
    ok = False
    if out is not None:
        try:
            ok = wl.check(inp, out)
        except Exception:
            traceback.print_exc(file=sys.stderr)
    tally.attempted += 1
    if not ok:
        tally.fail(f"failed op: {wl.name} seed {seed} op {i}")
    return ok, t0, t1, inp, out


def record_op(wl, seed: int, i: int, tracer, tally: Tally):
    """Run op ``i`` and keep its digest and window statistics; returns its timing or None."""
    ok, t0, t1, inp, out = do_op(wl, seed, i, tracer, tally)
    if not ok:
        return None
    tally.digests[i] = wl.digest(inp, out)
    if i < wl.stats_ops:
        for k, v in wl.stats(inp, out).items():
            tally.stats[k] = tally.stats.get(k, 0) + v
    return t0, t1, wl.work(out)


def timed_ops(wl, seed: int, seconds: float, tracer, tally: Tally) -> int:
    """Run ops 0, 1, ... for ``seconds`` (at least one); returns how many ran.

    The calibration kernel is sampled every ``calibrate.INTERVAL_S``
    throughout, also inside long ops; its own time is taken out of the op it
    interrupted.  Checks run outside the timed region.
    """
    cal = Calibrator()
    cal.sample()
    timings = []
    n = 0
    deadline = time.perf_counter() + seconds
    with cal.ticking():
        while n == 0 or time.perf_counter() < deadline:
            timings.append(record_op(wl, seed, n, tracer, tally))
            n += 1
    cal.sample()
    for t in filter(None, timings):
        t0, t1, work = t
        wall = (t1 - t0) - cal.busy(t0, t1)
        tally.wall.append(wall)
        tally.cal.append(wall * cal.factor(t0, t1))
        tally.work += work
    tally.kernel_ms = cal.kernel_ms()
    tally.timeline = {"ops": [t[:2] for t in timings if t], "kernel": cal.samples}
    return n


def timed_setup(kind: str) -> dict[str, list[float]]:
    """Set-up times of fresh processes: wall, calibrated, and the reference each was calibrated by."""
    import layers

    times = {"wall": [], "calibrated": [], "reference": []}
    for _ in range(SETUP_REPEATS):
        ref = layers.setup_probe("reference")["setup_s"]
        s = layers.setup_probe(kind)["setup_s"]
        times["wall"].append(s)
        times["calibrated"].append(s * SETUP_REF_S / ref)
        times["reference"].append(ref)
    return times


def finish_windows(wl, seed: int, n_timed: int, tally: Tally) -> None:
    """Complete the fixed statistics window and check the golden ops.

    Statistics cover ops 0..stats_ops-1 whatever the speed, so they are
    deterministic per seed.  The golden ops of the default seed run in every
    run and must match the digests kept in ``golden.json``.
    """
    from tracer import NullTracer
    from workloads import DEFAULT_SEED, same

    for i in range(n_timed, wl.stats_ops):
        record_op(wl, seed, i, NullTracer(), tally)
    ref = tally if seed == DEFAULT_SEED else Tally()
    for i in range(wl.golden_ops):
        if i not in ref.digests:
            record_op(wl, DEFAULT_SEED, i, NullTracer(), ref)
    if ref is not tally:
        tally.attempted += ref.attempted
        tally.failed += ref.failed
    golden = json.loads((BENCH / "golden.json").read_text())[wl.name]
    for i, want in enumerate(golden):
        if i in ref.digests and not same(ref.digests[i], want):
            tally.fail(f"golden mismatch: {wl.name} op {i}")


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(wl, tally: Tally, setup: dict[str, list[float]],
               rss_mb: float) -> tuple[dict, dict]:
    """The bounded metrics, and the report-only metrics."""
    n = len(tally.cal)
    metrics = {
        "setup_s": statistics.median(setup["calibrated"]),
        "op_ms.p50": 1e3 * statistics.median(tally.cal),
        "ops_per_s": n / sum(tally.cal),
        "peak_rss_mb": rss_mb,
    }
    report = {
        "ops": n,
        "fail_frac": tally.failed / tally.attempted,
        "wall.setup_s": statistics.median(setup["wall"]),
        "calibration.setup_ref_s": statistics.median(setup["reference"]),
        "wall.op_ms.p50": 1e3 * statistics.median(tally.wall),
        "wall.ops_per_s": n / sum(tally.wall),
        "calibration.kernel_ms": tally.kernel_ms,
    }
    if n >= P90_MIN_OPS:
        report["op_ms.p90"] = 1e3 * p90(tally.cal)
    if wl.name.startswith("link"):
        s = tally.stats
        report["link.nls_per_s"] = tally.work / sum(tally.cal)
        report["link.ber"] = s["bit_errors"] / s["bits_checked"]
        report["link.txn_ok_frac"] = s["txn_ok"] / s["txns"]
    return metrics, report


def traced(wl, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict, dict]:
    import layers
    from tracer import NullTracer, Tracer
    from workloads import DesignBatch, LinkInput, LinkWorkload

    # each op runs untraced, then traced: both runs of a pair see the same host state
    op_tracer = Tracer()
    cal = Calibrator()
    cal.sample()
    off, on = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        for tr, times in ((NullTracer(), off), (op_tracer, on)):
            ok, t0, t1, _, _ = do_op(wl, seed, i, tr, tally)
            times.append(t1 - t0 if ok else None)
        i += 1
    cal.sample()
    pairs = [(a, b) for a, b in zip(off, on) if a is not None and b is not None]
    metrics = {
        "trace.op_ms_off": 1e3 * statistics.median(a for a, _ in pairs),
        "trace.op_ms_on": 1e3 * statistics.median(b for _, b in pairs),
        "trace.overhead_frac": statistics.median((b - a) / a for a, b in pairs),
    }
    # the host's speed, not a layer's: reported next to the metrics
    report = {"calibration.kernel_ms": cal.kernel_ms()}

    probe = Tracer()
    design = wl if isinstance(wl, DesignBatch) else DesignBatch()
    specs = [design.make(seed, i) for i in range(10)]
    with probe.span("probe.design"):
        metrics.update(layers.probe_design(specs, design.lossy, probe))

    link = wl if isinstance(wl, LinkWorkload) else LinkWorkload()
    if wl.name == "link_quiet":
        inputs = [wl.make(seed, 0)]
    elif wl.name == "link_noisy":
        inputs = [wl.make(seed, i) for i in range(5)]
    else:  # the packaged demo script, as `fdmlink demo` runs it
        sc = link.scenario
        inputs = [LinkInput(sc.topology, sc.transactions, 0.0, sc.seed)]
    with probe.span("probe.link"):
        metrics.update(layers.probe_link(inputs, link.scenario.clock_hz, link.scenario.sim_rate, probe))

    with probe.span("probe.modem"):
        m, failed = layers.probe_modem(seed, probe)
    metrics.update(m)
    tally.attempted += 1
    tally.failed += failed > 0

    golden = json.loads((BENCH / "golden.json").read_text())
    with probe.span("probe.cli"):
        m, failed = layers.probe_cli(OUT, golden["demo_metrics"], probe)
    metrics.update(m)
    tally.attempted += 2 * layers.CLI_REPEATS
    tally.failed += failed

    spans = {"ops": op_tracer, "probes": probe}
    return metrics, report, spans


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("link_quiet", "link_noisy", "design_batch"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src" / "fdmlink"
    if not (src / "__init__.py").is_file():
        print(f"error: no fdmlink sources at {src}; run inside a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import fdmlink

    if Path(fdmlink.__file__).resolve().parent != src.resolve():
        print(f"error: imported fdmlink from {fdmlink.__file__}, not {src}", file=sys.stderr)
        return 2

    import tracer
    from workloads import WORKLOADS

    env = environment()
    if not args.trace:
        setup = timed_setup("design" if args.workload == "design_batch" else "link")

    wl = WORKLOADS[args.workload]()
    wl.warm_up()
    tally = Tally()
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": env}
    if args.trace:
        metrics, report, spans = traced(wl, args.seed, args.seconds, tally)
        units = PER_LAYER_UNITS
    else:
        n_timed = timed_ops(wl, args.seed, args.seconds, tracer.NullTracer(), tally)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        finish_windows(wl, args.seed, n_timed, tally)
        metrics, report = end_to_end(wl, tally, setup, rss_mb)
        units = END_TO_END_UNITS

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    doc = dict(meta, result=result, report=report, timeline=tally.timeline)
    (OUT / f"{stem}.json").write_text(json.dumps(doc, indent=1) + "\n")
    if args.trace:
        tracer.dump(OUT / f"{stem}-spans.json", meta, spans)

    print(f"# {args.workload} seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("# env " + json.dumps(env))
    for k, u in units.items():
        print(f"{args.workload:<13} {k:<34} {metrics[k]:>14.6g} {u}")
    for k, v in report.items():
        print(f"{args.workload:<13} {k:<34} {v:>14.6g} {REPORT_UNITS[k]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
