"""Per-layer probes for the traced run.

Each probe calls the public functions of one layer directly, under a span,
so that cost nested inside a workload operation (``find_poles_zeros`` inside
``verify_design``, ``bus_amplitude`` inside ``run_scenario``) gets its own
number.  The program itself is not instrumented.

Which end-to-end metric each per-layer metric should move, and where:

================================  ======================  =====================
metric                            moves                   on
================================  ======================  =====================
cli.design_cold_s / demo_cold_s   setup_s                 design_batch / link_*
import.fdmlink_s / scipy_s        setup_s                 design_batch
synthesis.synthesize_us           ops_per_s, op_ms.p50    design_batch
synthesis.default_xm_ms           ops_per_s (p90)         design_batch
synthesis.verify_*_ms             ops_per_s, op_ms.p50    design_batch
elements.poles_zeros_*_ms         ops_per_s               design_batch
elements.zin_us                   ops_per_s               link_noisy, design_batch
analysis.sweep_ms                 ops_per_s               design_batch
simulate.load_ms                  setup_s                 link_*
simulate.amp_table_s              op_ms.p50               link_noisy (link_quiet little)
simulate.loop_s                   op_ms.p50               link_quiet, link_noisy
simulate.event_frac               caps what event-driven stepping saves on link_quiet
simulate.trace_capture_s          nothing: end-to-end runs keep traces off
modem.*_msps                      nothing today: run_scenario does not call the kernels
protocol.ideal_txn_per_s          the floor of op_ms.p50 once per-sample work is gone
================================  ======================  =====================
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from workloads import DEMO_SCENARIO, LINES, ROOT, LinkInput, metrics_digest

SPEC_A = ROOT / "src" / "fdmlink" / "data" / "filter_a.yaml"
MODEM_SAMPLES = 200_000
MODEM_RATE = 6.4e6
CLI_REPEATS = 3
ZIN_REPEATS = 5


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args: list[str], timeout: float = 150.0) -> subprocess.CompletedProcess:
    """Run one child to completion in the checkout; the call waits for it to exit."""
    return subprocess.run(
        args, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout
    )


def setup_probe(mode: str) -> dict:
    proc = run_child([sys.executable, str(Path(__file__).with_name("setup_probe.py")), mode])
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe {mode!r} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- design layers: synthesis, elements, analysis ---------------------------


def probe_design(specs, lossy, tracer) -> dict:
    from fdmlink.analysis import sweep
    from fdmlink.elements import find_poles_zeros, input_impedance
    from fdmlink.loss import LOSSLESS
    from fdmlink.synthesis import default_xm_inductance, synthesize, verify_design

    for spec in specs:
        if spec.xm_inductance is None and spec.xm_capacitance is None:
            with tracer.span("synthesis.default_xm_inductance"):
                l_m = default_xm_inductance(spec.f_mod, spec.f_stop, spec.c_total)
            spec = dataclasses.replace(spec, xm_inductance=l_m)
        with tracer.span("synthesis.synthesize"):
            d = synthesize(spec)
        with tracer.span("synthesis.verify_design.lossless"):
            verify_design(d, loss=LOSSLESS, which="exact")
        with tracer.span("synthesis.verify_design.lossy"):
            verify_design(d, loss=lossy, which="snapped")
        # the scan verify_design runs on the high-state input impedance
        f_lo, f_hi = 0.5 * min(d.f_mod, d.f_stop), 2.0 * max(d.f_mod, d.f_stop)
        for loss, which, label in ((LOSSLESS, "exact", "lossless"), (lossy, "snapped", "lossy")):
            tp = d.two_port(which, loss)
            h_load = loss.load(d.c_total, "H")
            with tracer.span(f"elements.find_poles_zeros.{label}"):
                find_poles_zeros(
                    lambda fa: input_impedance(tp, h_load.impedance(fa), fa),
                    f_lo, f_hi, grid=4001, lossless=loss.lossless,
                )
        for _ in range(ZIN_REPEATS):
            with tracer.span("elements.input_impedance"):
                d.input_impedance(d.f_mod, "H", which="snapped", loss=lossy)
        with tracer.span("analysis.sweep"):
            sweep(d, lossy, f_lo, f_hi, points=501, which="snapped")
    ms = lambda name: 1e3 * tracer.median(name)  # noqa: E731
    return {
        "synthesis.synthesize_us": 1e3 * ms("synthesis.synthesize"),
        "synthesis.default_xm_ms": ms("synthesis.default_xm_inductance"),
        "synthesis.verify_lossless_ms": ms("synthesis.verify_design.lossless"),
        "synthesis.verify_lossy_ms": ms("synthesis.verify_design.lossy"),
        "elements.poles_zeros_lossless_ms": ms("elements.find_poles_zeros.lossless"),
        "elements.poles_zeros_lossy_ms": ms("elements.find_poles_zeros.lossy"),
        "elements.zin_us": 1e3 * ms("elements.input_impedance"),
        "analysis.sweep_ms": ms("analysis.sweep"),
    }


# -- link layers: protocol, simulate ----------------------------------------


def replay_drive_states(topology, transactions, clock_hz):
    """Distinct (scl, sda) drive tuples ``run_scenario`` will look up, and quarters.

    Replays the script on the public protocol engines over the ideal bus.
    Within a quarter the sampled link first sees the master's new intent with
    the slaves' old drives, then the slaves' reaction, so both are recorded.
    """
    from fdmlink.modem import H, L
    from fdmlink.protocol import MasterEngine, SlaveEngine

    nodes = topology.nodes
    mi = topology.master_index
    engines = [SlaveEngine(copy.deepcopy(n.slave)) if n.slave is not None else None for n in nodes]
    slaves = [e for e in engines if e is not None]

    def drives(scl_i, sda_i):
        scl = tuple(i == mi and scl_i == L for i in range(len(nodes)))
        sda = tuple(
            (sda_i == L) if i == mi else (e.sda_drive if e is not None else False)
            for i, e in enumerate(engines)
        )
        return scl, sda

    states = set()
    quarters = 0
    gen = MasterEngine(transactions, clock_hz).generator()
    scl_prev, sda_prev = H, H
    intents = next(gen)
    while True:
        scl_i, sda_i = intents
        states.add(drives(scl_i, sda_i))
        scl = L if scl_i == L else H
        sda = L if sda_i == L or any(s.sda_drive for s in slaves) else H
        if scl == H and scl_prev == H and sda != sda_prev:
            for s in slaves:
                s.on_sda_edge(sda, scl)
        elif scl != scl_prev:
            for s in slaves:
                if scl == H:
                    s.on_scl_rise(sda)
                else:
                    s.on_scl_fall()
        states.add(drives(scl_i, sda_i))
        quarters += 1
        scl_prev, sda_prev = scl, sda
        try:
            intents = gen.send((scl, sda))
        except StopIteration:
            return states, quarters


def slicer_events(sink: dict) -> int:
    """Slicer output changes in a ``trace_sink`` capture; outputs start high."""
    n = 0
    for key, levels in sink.items():
        if key.startswith("out_"):
            n += int(np.count_nonzero(np.diff(np.concatenate(([1], levels)))))
    return n


def probe_link(inputs: list[LinkInput], clock_hz: float, sim_rate: float, tracer) -> dict:
    from fdmlink.protocol import MasterEngine, SlaveEngine, run_ideal_bus
    from fdmlink.simulate import bus_amplitude, load_scenario, run_scenario

    for _ in range(3):
        with tracer.span("simulate.load_scenario"):
            load_scenario(DEMO_SCENARIO)

    c = {k: 0.0 for k in ("amp_states", "quarters", "txns", "ideal_s", "amp_s", "run_s",
                          "traced_s", "samples", "steps", "events")}
    for inp in inputs:
        topo, txns = inp.topology, inp.transactions
        states, quarters = replay_drive_states(topo, txns, clock_hz)
        slaves = [SlaveEngine(copy.deepcopy(n.slave)) for n in topo.nodes if n.slave is not None]
        with tracer.span("protocol.run_ideal_bus") as sp:
            run_ideal_bus(MasterEngine(txns, clock_hz), slaves)
        c["ideal_s"] += sp.seconds
        with tracer.span("simulate.amp_table") as table:
            for scl, sda in sorted(states):
                pins = {"scl": tuple("L" if d else "H" for d in scl),
                        "sda": tuple("L" if d else "H" for d in sda)}
                for j in range(len(topo.carriers)):
                    with tracer.span("simulate.bus_amplitude"):
                        bus_amplitude(topo, pins, j)
        c["amp_s"] += table.seconds
        kwargs = dict(sim_rate=sim_rate, noise_rms=inp.noise_rms, seed=inp.noise_seed)
        with tracer.span("simulate.run_scenario") as sp:
            metrics, _ = run_scenario(topo, txns, clock_hz, **kwargs)
        c["run_s"] += sp.seconds
        sink: dict = {}
        with tracer.span("simulate.run_scenario.trace_sink") as sp:
            run_scenario(topo, txns, clock_hz, trace_sink=sink, **kwargs)
        c["traced_s"] += sp.seconds
        c["amp_states"] += len(states)
        c["quarters"] += quarters
        c["txns"] += len(txns)
        c["samples"] += metrics.n_samples
        c["steps"] += metrics.n_samples * len(topo.nodes) * len(LINES)
        c["events"] += slicer_events(sink)
    for k, v in c.items():
        tracer.count(f"link.{k}", v)

    n = len(inputs)
    loop_s = (c["run_s"] - c["amp_s"]) / n
    return {
        "simulate.load_ms": 1e3 * tracer.median("simulate.load_scenario"),
        "simulate.bus_amplitude_ms": 1e3 * tracer.median("simulate.bus_amplitude"),
        "simulate.amp_states": c["amp_states"] / n,
        "simulate.amp_table_s": c["amp_s"] / n,
        "simulate.amp_table_frac": c["amp_s"] / c["run_s"],
        "simulate.samples": c["samples"] / n,
        "simulate.node_line_steps": c["steps"] / n,
        "simulate.slicer_events": c["events"] / n,
        "simulate.event_frac": c["events"] / c["steps"],
        "simulate.run_s": c["run_s"] / n,
        "simulate.loop_s": loop_s,
        "simulate.loop_nls_per_s": c["steps"] / n / loop_s,
        "simulate.trace_capture_s": (c["traced_s"] - c["run_s"]) / n,
        "protocol.ideal_txn_per_s": c["txns"] / c["ideal_s"],
        "protocol.quarters": c["quarters"] / n,
    }


# -- modem and kernels --------------------------------------------------------


def modem_inputs(seed: int, n: int):
    """Keyed envelope of random bits, 64 samples per bit, and its detector trace."""
    rng = np.random.default_rng([seed, 0x6D6F64])
    spb = 64
    bits = rng.integers(0, 2, n // spb + 1)
    env = np.where(np.repeat(bits, spb)[:n], 0.020, 0.002) + rng.normal(0.0, 2e-4, n)
    env = np.clip(env, 1e-5, None)
    det = 1.0 + 20.0 * 0.044 * np.log10(env / 0.010)
    return env, det


def probe_modem(seed: int, tracer) -> tuple[dict, int]:
    """Kernel throughput plus the sample-exact check between backends.

    Returns the metrics and the number of failed checks.
    """
    from fdmlink import _kernels_py
    from fdmlink.modem import (
        ClipParams, Demodulator, DetectorParams, EnvelopeTrace, SlicerParams, VoltageTrace,
        slice_levels,
    )

    env, det = modem_inputs(seed, MODEM_SAMPLES)
    slicer = SlicerParams(lpf_time_constant=2000.0 / MODEM_RATE)
    demod = Demodulator(
        detector=DetectorParams(), slicer=slicer,
        clip=ClipParams(v_f=0.3, spike_amplitude=0.3, spike_decay=2e-6),
    )
    for _ in range(3):
        with tracer.span("modem.slice_levels"):
            levels = slice_levels(VoltageTrace(MODEM_RATE, det), slicer)
        with tracer.span("modem.Demodulator.run"):
            d_levels, d_det, d_ref = demod.run(EnvelopeTrace(MODEM_RATE, env))

    alpha = slicer.alpha(MODEM_RATE)
    slicer_args = (det, alpha, slicer.hysteresis, float(det[0]), 1)
    p = demod.detector
    x0 = max(float(env[0]), p.floor_volts)
    demod_args = (
        env, p.ref_in, p.ref_out, p.slope, p.floor_volts, alpha, slicer.hysteresis,
        p.ref_out + p.slope * 20.0 * math.log10(x0 / p.ref_in), 1,
        demod.clip.effective_amplitude(True), demod.clip.decay_mult(MODEM_RATE),
        demod.clip.v_f, True,
    )
    failed = 0
    ref_levels, _ = _kernels_py.slicer_loop(*slicer_args)
    failed += not np.array_equal(levels.levels, ref_levels)
    ref = _kernels_py.demod_loop(*demod_args)
    for a, b in zip((d_levels.levels, d_det.samples, d_ref.samples), ref):
        failed += not np.array_equal(a, b)
    try:
        from fdmlink import _ckernels
    except ImportError:
        _ckernels = None
    if _ckernels is not None:
        for name, args in (("slicer_loop", slicer_args), ("demod_loop", demod_args)):
            got_py = getattr(_kernels_py, name)(*args)
            got_c = getattr(_ckernels, name)(*args)
            failed += not all(np.array_equal(np.asarray(a), np.asarray(b))
                              for a, b in zip(got_py, got_c))
    metrics = {
        "modem.slice_msps": MODEM_SAMPLES / tracer.median("modem.slice_levels") / 1e6,
        "modem.demod_msps": MODEM_SAMPLES / tracer.median("modem.Demodulator.run") / 1e6,
    }
    return metrics, failed


# -- cold starts --------------------------------------------------------------


def probe_cli(out_dir: Path, demo_digest: str, tracer) -> tuple[dict, int]:
    """Cold ``python -m fdmlink.cli`` runs; the demo's metrics must match the golden digest."""
    failed = 0
    cli = [sys.executable, "-m", "fdmlink.cli"]
    for _ in range(CLI_REPEATS):
        with tracer.span("cli.design"):
            proc = run_child(cli + ["design", str(SPEC_A), "--format", "json"])
        doc = json.loads(proc.stdout) if proc.returncode == 0 else {}
        l_1 = doc.get("design", {}).get("exact", {}).get("l_1", 0.0)
        failed += abs(l_1 - 1.33e-6) > 0.01 * 1.33e-6
    out_dir.mkdir(parents=True, exist_ok=True)
    demo_json = out_dir / f"demo-metrics-{os.getpid()}.json"
    try:
        for _ in range(CLI_REPEATS):
            with tracer.span("cli.demo"):
                proc = run_child(cli + ["demo", "--out", str(demo_json)])
            ok = proc.returncode == 0 and metrics_digest(json.loads(demo_json.read_text())) == demo_digest
            failed += not ok
            demo_json.unlink(missing_ok=True)
    finally:
        demo_json.unlink(missing_ok=True)
    imports = []
    for _ in range(CLI_REPEATS):
        with tracer.span("import"):
            imports.append(setup_probe("imports"))
    metrics = {
        "cli.design_cold_s": tracer.median("cli.design"),
        "cli.demo_cold_s": tracer.median("cli.demo"),
        "import.fdmlink_s": statistics.median(r["fdmlink_s"] for r in imports),
        "import.scipy_s": statistics.median(r["scipy_s"] for r in imports),
    }
    return metrics, failed
