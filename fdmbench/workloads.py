"""Seeded inputs, operations and output checks for the benchmark workloads.

Every operation's input is drawn from ``numpy.random.default_rng([seed, i])``,
so op ``i`` of a seed is the same input whatever ran before it and however
fast the program is.  The program under test sees only these inputs.

Why each workload exists (the same text is in ``BENCHMARK.json``):

``link_quiet``
    The packaged 9-node demo topology at zero noise; one op is one
    ``run_scenario`` of a ~100-transaction script.  Only about 2% of
    node-line steps change a slicer output and one long run amortises the
    bus-amplitude table, so this is where event-driven stepping shows and
    where the protocol engines become the floor.
``link_noisy``
    The same topology as a Monte-Carlo BER sweep; one op is one sensor poll
    (pointer write + 2-byte read) with its own noise seed at 10 uV RMS.  The
    input changes every sample, so nothing can be skipped, and
    ``run_scenario`` rebuilds the amplitude table on every call.  10 uV sits
    in the threshold region, where some polls complete and some abort.
``design_batch``
    Seeded random feasible filter specs, both frequency orders, every fifth
    one without ``x_m``; one op is synthesize, lossless exact verify, lossy
    snapped verify and a 501-point lossy sweep.  All work is in
    ``synthesis``/``elements``/``analysis`` plus the scipy import; it touches
    no ``modem``, ``protocol`` or ``simulate`` code, so a simulator change
    must leave it unchanged.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from tracer import NullTracer

ROOT = Path(__file__).resolve().parent.parent
DEMO_SCENARIO = ROOT / "src" / "fdmlink" / "data" / "demo_scenario.yaml"

DEFAULT_SEED = 0
LINES = ("scl", "sda")
TWO_PI = 2.0 * math.pi


def op_rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i])


def _with_registers(topology, rng: np.random.Generator):
    """The demo topology with every slave's 8 registers drawn from ``rng``."""
    from fdmlink.protocol import SlaveModel
    from fdmlink.simulate import BusTopology

    nodes = []
    for node in topology.nodes:
        if node.slave is not None:
            regs = {k: int(v) for k, v in enumerate(rng.integers(0, 1 << 16, 8))}
            node = dataclasses.replace(node, slave=SlaveModel(node.slave.address, regs))
        nodes.append(node)
    return BusTopology(
        carriers=topology.carriers,
        nodes=tuple(nodes),
        dc_feed=topology.dc_feed,
        attenuation_db=topology.attenuation_db,
        pole_cap=topology.pole_cap,
    )


def ideal_decode(topology, transactions, clock_hz):
    """Decoded transactions of the same script on the ideal wired-AND bus."""
    from fdmlink.protocol import MasterEngine, SlaveEngine, run_ideal_bus

    master = MasterEngine(transactions, clock_hz)
    slaves = [SlaveEngine(copy.deepcopy(n.slave)) for n in topology.nodes if n.slave is not None]
    run_ideal_bus(master, slaves)
    return master.results


# Schema-1 fields of the metrics JSON that a speed-only change must leave
# byte-identical; fields a later schema adds do not enter the digest.
DIGEST_KEYS = (
    "n_samples", "bit_errors", "bits_checked", "eye_margin_v", "depth_db",
    "transactions_attempted", "transactions_completed", "transactions",
)


def metrics_digest(metrics: dict) -> str:
    """sha256 of the schema-1 link metrics, floats at full repr precision."""
    doc = json.dumps({k: metrics[k] for k in DIGEST_KEYS}, sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


def _txn_key(t) -> tuple:
    return (t.address, t.direction, bytes(t.payload), tuple(t.acks), bool(t.completed))


@dataclasses.dataclass
class LinkInput:
    topology: object
    transactions: tuple
    noise_rms: float
    noise_seed: int


class LinkWorkload:
    """One ``run_scenario`` call per op on the packaged demo topology."""

    def __init__(self):
        from fdmlink.simulate import load_scenario

        self.scenario = load_scenario(DEMO_SCENARIO)
        self.addresses = [n.slave.address for n in self.scenario.topology.nodes if n.slave]

    def run(self, inp: LinkInput, tracer):
        from fdmlink.simulate import run_scenario

        with tracer.span("simulate.run_scenario"):
            return run_scenario(
                inp.topology,
                inp.transactions,
                self.scenario.clock_hz,
                sim_rate=self.scenario.sim_rate,
                noise_rms=inp.noise_rms,
                seed=inp.noise_seed,
            )

    def warm_up(self) -> None:
        """First-call work outside the timed window: a one-transaction run."""
        from fdmlink.protocol import Transaction

        txn = Transaction.write(self.addresses[0], b"\x05")
        self.run(LinkInput(self.scenario.topology, (txn,), 0.0, 0), NullTracer())

    def work(self, out) -> int:
        """Node-line samples simulated by one op."""
        return out[0].n_samples * len(self.scenario.topology.nodes) * len(LINES)

    def stats(self, inp: LinkInput, out) -> dict:
        metrics, _ = out
        return {
            "bit_errors": sum(metrics.bit_errors.values()),
            "bits_checked": sum(metrics.bits_checked.values()),
            "txn_ok": self.txn_ok(inp, out),
            "txns": len(inp.transactions),
        }

    def structure_ok(self, inp: LinkInput, out) -> bool:
        """Invariants of a link result that hold at any noise level."""
        metrics, results = out
        if len(results) != len(inp.transactions) or metrics.n_samples <= 0:
            return False
        for line in LINES:
            if not 0 <= metrics.bit_errors[line] <= metrics.bits_checked[line]:
                return False
            if metrics.bits_checked[line] <= 0 or not math.isfinite(metrics.eye_margin_v[line]):
                return False
        for t, r in zip(inp.transactions, results):
            if (r.address, r.direction) != (t.address, t.direction):
                return False
            if r.completed:
                want = t.read_length if t.direction == "read" else len(t.payload)
                if len(r.payload) != want or not all(r.acks):
                    return False
        return True

    def txn_ok(self, inp: LinkInput, out) -> int:
        """Transactions decoded exactly as on the ideal bus."""
        ideal = ideal_decode(inp.topology, inp.transactions, self.scenario.clock_hz)
        return sum(_txn_key(a) == _txn_key(b) for a, b in zip(out[1], ideal))

    def digest(self, inp: LinkInput, out) -> str:
        return metrics_digest(out[0].to_dict())


class LinkQuiet(LinkWorkload):
    name = "link_quiet"
    stats_ops = 1
    golden_ops = 1

    # Fixed mix per op, so every seed simulates the same number of quarters:
    # writes of 1-3 bytes (pointer first), reads of 1-4 bytes, 5 to an
    # absent address so the NACK path runs.  Order and values are seeded.
    WRITES = (1,) * 16 + (2,) * 16 + (3,) * 16
    READS = (1,) * 12 + (2,) * 12 + (3,) * 12 + (4,) * 11
    ABSENT = (("write", 1), ("write", 2), ("write", 3), ("read", 1), ("read", 2))
    ABSENT_ADDRESSES = range(0x40, 0x48)

    def make(self, seed: int, i: int) -> LinkInput:
        from fdmlink.protocol import Transaction

        rng = op_rng(seed, i)
        topology = _with_registers(self.scenario.topology, rng)
        kinds = [("write", n, False) for n in self.WRITES]
        kinds += [("read", n, False) for n in self.READS]
        kinds += [(d, n, True) for d, n in self.ABSENT]
        txns = []
        for k in rng.permutation(len(kinds)):
            direction, n, absent = kinds[k]
            pool = self.ABSENT_ADDRESSES if absent else self.addresses
            addr = int(pool[int(rng.integers(len(pool)))])
            if direction == "write":
                data = [int(rng.integers(8))] + [int(b) for b in rng.integers(0, 256, n - 1)]
                txns.append(Transaction.write(addr, bytes(data)))
            else:
                txns.append(Transaction.read(addr, n))
        return LinkInput(topology, tuple(txns), 0.0, 0)

    def check(self, inp: LinkInput, out) -> bool:
        """The zero-noise decode equals the ideal bus on the same script."""
        return self.structure_ok(inp, out) and self.txn_ok(inp, out) == len(inp.transactions)


class LinkNoisy(LinkWorkload):
    name = "link_noisy"
    stats_ops = 40
    golden_ops = 5
    NOISE_RMS = 10e-6

    def make(self, seed: int, i: int) -> LinkInput:
        from fdmlink.protocol import Transaction

        rng = op_rng(seed, i)
        topology = _with_registers(self.scenario.topology, rng)
        addr = self.addresses[int(rng.integers(len(self.addresses)))]
        pointer = int(rng.integers(8))
        txns = (Transaction.write(addr, bytes([pointer])), Transaction.read(addr, 2))
        return LinkInput(topology, txns, self.NOISE_RMS, int(rng.integers(1 << 31)))

    def check(self, inp: LinkInput, out) -> bool:
        return self.structure_ok(inp, out)


class DesignBatch:
    name = "design_batch"
    stats_ops = 10
    golden_ops = 10
    XM_OMIT_EVERY = 5  # op i with i % 5 == 4 leaves x_m to default_xm_inductance
    SWEEP_POINTS = 501

    def __init__(self):
        from fdmlink.loss import LossModel

        self.lossy = LossModel()

    def make(self, seed: int, i: int):
        """A feasible spec clear of the x_m = X_IO_H boundary."""
        from fdmlink.synthesis import FilterSpec

        rng = op_rng(seed, i)
        f_mod = float(rng.uniform(1e6, 80e6))
        ratio = float(rng.uniform(1.3, 6.0))
        c_io = float(rng.uniform(2e-12, 30e-12))
        factor = float(rng.uniform(0.1, 8.0))
        stop_above = bool(rng.random() < 0.5)
        f_stop = f_mod * ratio if stop_above else f_mod / ratio
        if i % self.XM_OMIT_EVERY == self.XM_OMIT_EVERY - 1:
            return FilterSpec(f_mod, f_stop, c_io)
        x = 1.0 / (TWO_PI * f_mod * c_io)
        xm = x * (1.05 + factor) if stop_above else x * min(0.95, 0.1 + factor / 10.0)
        return FilterSpec(f_mod, f_stop, c_io, xm_inductance=xm / (TWO_PI * f_mod))

    def warm_up(self) -> None:
        self.run(self.make(DEFAULT_SEED, 0), NullTracer())

    def work(self, out) -> int:
        return 1

    def stats(self, spec, out) -> dict:
        return {}

    def band(self, spec) -> tuple[float, float]:
        return 0.5 * min(spec.f_mod, spec.f_stop), 2.0 * max(spec.f_mod, spec.f_stop)

    def run(self, spec, tracer):
        from fdmlink.analysis import sweep
        from fdmlink.loss import LOSSLESS
        from fdmlink.synthesis import synthesize, verify_design

        with tracer.span("synthesis.synthesize"):
            d = synthesize(spec)
        with tracer.span("synthesis.verify_design.lossless"):
            exact = verify_design(d, loss=LOSSLESS, which="exact")
        with tracer.span("synthesis.verify_design.lossy"):
            snapped = verify_design(d, loss=self.lossy, which="snapped")
        f_lo, f_hi = self.band(spec)
        with tracer.span("analysis.sweep"):
            sw = sweep(d, self.lossy, f_lo, f_hi, points=self.SWEEP_POINTS, which="snapped")
        return d, exact, snapped, sw

    def check(self, spec, out) -> bool:
        """Ideal open/short pattern at both carriers, Foster alternation, finite results."""
        from fdmlink.elements import is_pole

        d, exact, snapped, sw = out
        f_mod, f_stop = d.spec.f_mod, d.spec.f_stop
        if not (
            abs(d.input_impedance(f_mod, "L")) <= 1e-6
            and is_pole(d.input_impedance(f_mod, "H"))
            and is_pole(d.input_impedance(f_stop, "H"))
            and is_pole(d.input_impedance(f_stop, "L"))
        ):
            return False
        if len(exact.h_poles) != 2:
            return False
        p_lo, p_hi = sorted(exact.h_poles)
        if len([z for z in exact.h_zeros if p_lo < z < p_hi]) != 1:
            return False
        # snapping can detune a random spec below ratio 1, so only sanity here
        if not (math.isfinite(snapped.ratio_fmod) and snapped.ratio_fmod > 0.0):
            return False
        mags = np.abs(np.concatenate([sw.z_h, sw.z_l]))
        return len(sw.frequencies) == self.SWEEP_POINTS and bool(np.all(np.isfinite(mags)))

    def digest(self, spec, out) -> dict:
        """Golden record; floats are compared with a relative tolerance."""
        d, exact, snapped, sw = out
        return {
            "config": d.config.value,
            "exact": dict(sorted(d.exact.items())),
            "snapped": dict(sorted(d.snapped.items())),
            "h_poles": list(exact.h_poles),
            "h_zeros": list(exact.h_zeros),
            "passed_lossless": exact.passed,
            "ratio_snapped": snapped.ratio_fmod,
            "passed_lossy": snapped.passed,
            "sweep_zh_max": float(np.max(np.abs(sw.z_h))),
            "sweep_zl_min": float(np.min(np.abs(sw.z_l))),
        }


WORKLOADS = {w.name: w for w in (LinkQuiet, LinkNoisy, DesignBatch)}


def same(a, b, rel: float = 1e-6) -> bool:
    """Golden comparison: floats to ``rel``, everything else exactly."""
    if isinstance(a, float) or isinstance(b, float):
        return isinstance(a, (int, float)) and isinstance(b, (int, float)) and (
            a == b or abs(a - b) <= rel * max(abs(a), abs(b))
        )
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k], rel) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same(x, y, rel) for x, y in zip(a, b))
    return a == b
