"""Acceptance gate: one printed verdict line per criterion.

Each criterion computes its verdict, prints a PASS/FAIL line straight to
the terminal (bypassing capture so the line shows up even for passing
tests), and then asserts.  Tolerances are pinned here and nowhere else.
"""

import functools
import json
import time
from importlib.resources import files

import numpy as np
import pytest
from click.testing import CliRunner

from fdmlink.analysis import multinode_approx, multinode_ratio
from fdmlink.cli import main as cli_main
from fdmlink.elements import capacitor, inductor, input_impedance, is_pole, t_network
from fdmlink.loss import LOSSLESS, LossModel
from fdmlink.modem import ClipParams, Demodulator, LogicTimeline, SlicerParams, modulate
from fdmlink.protocol import (
    MasterEngine,
    SlaveEngine,
    SlaveModel,
    Transaction,
    run_ideal_bus,
)
from fdmlink.simulate import load_scenario
from fdmlink.synthesis import FilterSpec, synthesize, verify_design

from . import oracles

TWO_PI = 2.0 * np.pi

SPEC_A = str(files("fdmlink").joinpath("data/filter_a.yaml"))
SPEC_B = str(files("fdmlink").joinpath("data/filter_b.yaml"))
DEMO = str(files("fdmlink").joinpath("data/demo_scenario.yaml"))


@pytest.fixture()
def report(capfd):
    # print the verdict on the real terminal even while pytest captures fds
    def _report(num: int, name: str, ok: bool, extra: tuple[str, ...] = ()) -> bool:
        with capfd.disabled():
            for line in extra:
                print(line, flush=True)
            print(f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}", flush=True)
        return ok

    return _report


def _cli_design(spec_path: str) -> dict:
    r = CliRunner().invoke(cli_main, ["design", spec_path, "--format", "json"])
    assert r.exit_code == 0, r.output
    return json.loads(r.output)


@functools.lru_cache(maxsize=1)
def _random_designs():
    # 1000 feasible specs spanning both frequency orders and both coupling
    # sides, clear of the degenerate x_m = X boundary
    rng = np.random.default_rng(20260814)
    out = []
    for _ in range(1000):
        f_mod = rng.uniform(1e6, 80e6)
        ratio = rng.uniform(1.3, 6.0)
        c_io = rng.uniform(2e-12, 30e-12)
        factor = rng.uniform(0.1, 8.0)
        stop_above = bool(rng.random() < 0.5)
        f_stop = f_mod * ratio if stop_above else f_mod / ratio
        x = 1.0 / (TWO_PI * f_mod * c_io)
        xm = x * (1.05 + factor) if stop_above else x * min(0.95, 0.1 + factor / 10.0)
        spec = FilterSpec(f_mod, f_stop, c_io, xm_inductance=xm / (TWO_PI * f_mod))
        out.append(synthesize(spec))
    return out


def test_criterion_01_table_reproduction(report):
    # time two calls of our own: a result cached by another test times nothing
    t0 = time.perf_counter()
    a = _cli_design(SPEC_A)
    b = _cli_design(SPEC_B)
    elapsed = time.perf_counter() - t0
    published = [
        (a["design"]["exact"]["l_1"], 1.33e-6),
        (a["design"]["exact"]["c_1"], 7.64e-12),
        (a["design"]["exact"]["c_2"], 53.6e-12),
        (b["design"]["exact"]["l_1"], 1.10e-6),
        (b["design"]["exact"]["c_1"], 57.3e-12),
        (b["design"]["exact"]["l_2"], 0.267e-6),
    ]
    ok = all(abs(got - want) <= 0.01 * want for got, want in published)
    ok = ok and elapsed < 1.0
    assert report(1, "table reproduction, 1%", ok)


def test_criterion_02_eseries_reproduction(report):
    a, b = _cli_design(SPEC_A), _cli_design(SPEC_B)
    want_a = {"l_m": 4.7e-6, "l_1": 1.2e-6, "c_1": 8e-12, "c_2": 56e-12}
    want_b = {"l_m": 1.0e-6, "l_1": 1.0e-6, "c_1": 56e-12, "l_2": 0.22e-6}
    ok = True
    for got, want in ((a["design"]["snapped"], want_a), (b["design"]["snapped"], want_b)):
        ok = ok and set(got) == set(want)
        ok = ok and all(got[k] == pytest.approx(want[k], rel=1e-9) for k in want)
    assert report(2, "E12 column exact", ok)


def _lossless_pattern_holds(d) -> bool:
    f_mod, f_stop = d.spec.f_mod, d.spec.f_stop
    return (
        abs(d.input_impedance(f_mod, "L")) <= 1e-6
        and is_pole(d.input_impedance(f_mod, "H"))
        and is_pole(d.input_impedance(f_stop, "H"))
        and is_pole(d.input_impedance(f_stop, "L"))
    )


def test_criterion_03_ideal_filter_behavior(report):
    designs = list(_random_designs())
    for path in (SPEC_A, SPEC_B):
        import yaml

        from fdmlink.synthesis import spec_from_dict

        raw = yaml.safe_load(open(path).read())
        designs.append(synthesize(spec_from_dict(raw, raw.get("eseries", "E12"))))
    ok = all(_lossless_pattern_holds(d) for d in designs)
    assert report(3, "ideal open/short at both carriers, 1000 specs", ok)


def test_criterion_04_lossy_ratio(report):
    ok = True
    table = []
    for path in (SPEC_A, SPEC_B):
        doc = _cli_design(path)
        ratio = doc["verification"]["ratio_at_f_mod"]
        ok = ok and ratio is not None and ratio >= 100.0
    qs = (20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0)
    for path, label in ((SPEC_A, "a"), (SPEC_B, "b")):
        import yaml

        from fdmlink.synthesis import spec_from_dict

        raw = yaml.safe_load(open(path).read())
        d = synthesize(spec_from_dict(raw, raw.get("eseries", "E12")))
        row = []
        for q in qs:
            r = verify_design(d, loss=LossModel(inductor_q=q), which="snapped")
            row.append(r.ratio_fmod)
            ok = ok and 10.0 < r.ratio_fmod < 1000.0
        table.append((label, row))
    extra = tuple(
        "  ratio sensitivity ({}): {}".format(
            label, "  ".join(f"Q{int(q)}={v:7.1f}" for q, v in zip(qs, row))
        )
        for label, row in table
    )
    assert report(4, "lossy ratio >= 100, bracket (10, 1000) over Q 20..80", ok, extra)


def test_criterion_05_multinode_bound(report):
    ok = True
    for r in (10, 44, 87, 200):
        at_round = multinode_ratio(float(r), 1.0, r)
        ok = ok and 1.9 <= at_round <= 2.1
        for n in range(10, 201, 10):
            ex = multinode_ratio(float(r), 1.0, n)
            ap = multinode_approx(float(r), 1.0, n)
            ok = ok and abs(ex - ap) / ap <= 0.05 + 1e-12
    assert report(5, "n = round(r) gives ratio in [1.9, 2.1], approx err <= 5%", ok)


def test_criterion_06_foster_invariant(report):
    ok = True
    for d in _random_designs():
        rep = verify_design(d, loss=LOSSLESS, which="exact")
        if len(rep.h_poles) != 2:
            ok = False
            break
        p_lo, p_hi = sorted(rep.h_poles)
        inner = [z for z in rep.h_zeros if p_lo < z < p_hi]
        if len(inner) != 1:
            ok = False
            break
    assert report(6, "exactly one H-state zero strictly between the poles", ok)


def test_criterion_07_protocol_loopback(report):
    rng = np.random.default_rng(1007)
    addrs = list(range(0x18, 0x20))
    regs = {a: {k: int(rng.integers(0, 1 << 16)) for k in range(8)} for a in addrs}
    slaves = [SlaveEngine(SlaveModel(address=a, registers=dict(regs[a]))) for a in addrs]
    absent = 0x40

    txs = []
    for _ in range(10_000):
        a = int(rng.choice(addrs))
        if rng.random() < 0.03:
            a = absent
        if rng.random() < 0.5:
            n = int(rng.integers(1, 4))
            txs.append(Transaction.write(a, bytes(rng.integers(0, 256, n).tolist())))
        else:
            txs.append(Transaction.read(a, int(rng.integers(1, 5))))

    t0 = time.perf_counter()
    master = MasterEngine(txs, 400e3)
    run_ideal_bus(master, slaves)
    elapsed = time.perf_counter() - t0

    pointers = {a: 0 for a in addrs}
    shadow = {a: dict(regs[a]) for a in addrs}
    ok = len(master.results) == len(txs) and elapsed < 30.0
    for t, r in zip(txs, master.results):
        if not ok:
            break
        if t.address == absent:
            ok = r.acks == (False,) and not r.completed
            continue
        if t.direction == "write":
            data = list(t.payload)
            pointers[t.address] = data[0]
            if len(data) >= 3:
                shadow[t.address][data[0]] = ((data[1] << 8) | data[2]) & 0xFFFF
            ok = r.completed and r.acks == (True,) * (1 + len(data))
        else:
            val = shadow[t.address].get(pointers[t.address], 0)
            stream = [(val >> (8 * (1 - (k % 2)))) & 0xFF for k in range(t.read_length)]
            ok = r.completed and list(r.payload) == stream
    assert report(7, "10^4 transactions byte-exact under 30 s", ok)


def test_criterion_08_end_to_end_demo(report):
    sc = load_scenario(DEMO)
    m1, _ = sc.run()
    m2, _ = sc.run()
    ok = (
        m1.error_free
        and all(v == 0 for v in m1.bit_errors.values())
        and m1.transactions_completed == m1.transactions_attempted == 16
        and m1.to_json() == m2.to_json()
    )
    assert report(8, "demo scenario zero bit errors, deterministic", ok)


def test_criterion_09_latchup_reproduction(report):
    bits = [1, 0, 1, 0, 0, 1, 0, 1, 1, 0]
    spb, rate = 64, 6.4e6
    tl = LogicTimeline.from_bits(bits, spb, rate)
    mids = lambda levels: [int(levels[i * spb + spb // 2]) for i in range(len(bits))]
    clip = ClipParams(v_f=0.3, spike_amplitude=1.5, spike_decay=2e-6)

    # clip disabled: 1.5 V spike exceeds the 1.24 V detector swing and the
    # output never leaves H
    dem_off = Demodulator(
        slicer=SlicerParams.for_bit_rate(100e3), clip=clip, clip_enabled=False
    )
    out_off, _, _ = dem_off.run(modulate(0.334, 0.0131, tl))
    latched = bool(out_off.levels.all()) and mids(out_off.levels) != bits

    # clip enabled with the carrier below the diode drop: error free
    dem_on = Demodulator(
        slicer=SlicerParams.for_bit_rate(100e3), clip=clip, clip_enabled=True
    )
    out_on, _, _ = dem_on.run(modulate(0.020, 0.000786, tl))
    recovered = mids(out_on.levels) == bits

    assert report(9, "unclipped spike latches, clip under V_F recovers", latched and recovered)


def test_criterion_10_oracle_equivalence(report):
    rng = np.random.default_rng(1010)

    def branch(x, f):
        w = TWO_PI * f
        return inductor(x / w) if x > 0 else capacitor(-1.0 / (w * x))

    ok = True
    for _ in range(1000):
        f = float(rng.uniform(1e5, 1e8))
        x1, x2, xm = (
            float(rng.uniform(1.0, 1e4)) * (1 if rng.random() < 0.5 else -1)
            for _ in range(3)
        )
        z_load = complex(rng.uniform(1.0, 1e4), rng.uniform(-1e4, 1e4))
        tp = t_network(branch(x1, f), branch(x2, f), branch(xm, f))
        mine = input_impedance(tp, z_load, f)
        ref = oracles.t_network_zin_nodal(1j * x1, 1j * x2, 1j * xm, z_load)
        if is_pole(ref) or is_pole(mine):
            ok = ok and abs(mine) > 1e9 and abs(ref) > 1e9
            continue
        ok = ok and abs(mine - ref) <= 1e-9 * max(abs(ref), 1.0)
    assert report(10, "closed form vs nodal analysis, 1e-9 relative", ok)
