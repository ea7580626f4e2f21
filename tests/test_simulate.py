import contextlib
import copy
import dataclasses
import gc
import json
import math
import re
import warnings
import weakref
from importlib.resources import files
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdmlink import kernels
from fdmlink.analysis import modulation_ratio
from fdmlink.elements import DEFAULT_POLE_CAP, POLE, inductor, resistor
from fdmlink.loss import LOSSLESS
from fdmlink.protocol import (
    QUARTERS_PER_BIT,
    MasterEngine,
    ProtocolError,
    SlaveEngine,
    SlaveGroup,
    SlaveModel,
    Transaction,
    run_ideal_bus,
)
from fdmlink.simulate import (
    LINES,
    BusTopology,
    CarrierSpec,
    HarmonicOverlapWarning,
    NodeSpec,
    Scenario,
    TopologyError,
    _AmplitudeTable,
    bus_amplitude,
    load_scenario,
    run_scenario,
    sweep_node_count,
)
from fdmlink.units import UnitError

from . import oracles

DEMO = str(files("fdmlink").joinpath("data/demo_scenario.yaml"))


@dataclasses.dataclass(frozen=True)
class _FixedZ:
    """A stand-in filter design: one input impedance per pin state, at every frequency."""

    zh: complex
    zl: complex

    def input_impedance(self, f, state, which="exact", loss=None):
        return self.zh if state == "H" else self.zl


def _fixed_node(name, role, zh, zl):
    """A node that loads only SCL, at ``zh`` released and ``zl`` pulled."""
    return NodeSpec(name=name, role=role, filters={"scl": _FixedZ(zh, zl)})


def _resistive_topology(n_slaves, zh=9000 + 0j, zl=30 + 0j, zp_ohm=2000.0):
    carrier = CarrierSpec("scl", 20e6, 1.0, resistor(zp_ohm))
    nodes = [_fixed_node("m", "master", zh, zl)]
    nodes += [_fixed_node(f"s{k}", "slave", zh, zl) for k in range(n_slaves)]
    return BusTopology(carriers=(carrier,), nodes=tuple(nodes))


def test_single_node_amplitude_ratio_matches_formula():
    topo = _resistive_topology(0)
    vh = bus_amplitude(topo, {"scl": ("H",)}, 0)
    vl = bus_amplitude(topo, {"scl": ("L",)}, 0)
    want = modulation_ratio(9000 + 0j, 30 + 0j, 2000 + 0j)
    assert vh / vl == pytest.approx(want, rel=1e-9)


def test_bus_amplitude_is_parallel_divider():
    # three nodes high, one low: hand-computed parallel combination
    topo = _resistive_topology(3)
    states = {"scl": ("H", "H", "H", "L")}
    y = 3 / 9000 + 1 / 30
    z = 1 / y
    want = 1.0 * abs(z / (2000 + z))
    assert bus_amplitude(topo, states, 0) == pytest.approx(want, rel=1e-12)


def test_pole_override_loads_nothing():
    carrier = CarrierSpec("scl", 20e6, 1.0, resistor(2000.0))
    base = BusTopology(carriers=(carrier,), nodes=(_fixed_node("m", "master", 9000 + 0j, 30 + 0j),))
    with_pole = BusTopology(
        carriers=(carrier,),
        nodes=(
            _fixed_node("m", "master", 9000 + 0j, 30 + 0j),
            _fixed_node("s", "slave", POLE, POLE),
        ),
    )
    a = bus_amplitude(base, {"scl": ("H",)}, 0)
    b = bus_amplitude(with_pole, {"scl": ("H", "H")}, 0)
    assert a == pytest.approx(b, rel=1e-12)


@pytest.mark.parametrize(
    "states,bad",
    [
        ({"scl": ("H",)}, "scl"),
        ({"scl": ("H",) * 9, "sda": ("H",) * 10}, "sda"),
        ({"scl": ("H",) * 8 + ("X",)}, "scl"),
        ({"scl": ("H",) * 8 + ("h",)}, "scl"),
    ],
    ids=["short", "long", "unknown_state", "lowercase_state"],
)
def test_bus_amplitude_needs_one_pin_state_per_node(demo, states, bad):
    with pytest.raises(TopologyError, match=rf"states\['{bad}'\].*9 in all"):
        bus_amplitude(demo.topology, states, 0)


def test_bus_amplitude_releases_a_line_left_out(demo):
    # the demo's sda filters load the scl carrier too: without them it would read 6.06 mV
    topo = demo.topology
    released = ("H",) * len(topo.nodes)
    for j in range(len(topo.carriers)):
        both = bus_amplitude(topo, {"scl": released, "sda": released}, j)
        assert bus_amplitude(topo, {"scl": released}, j) == both
        assert bus_amplitude(topo, {}, j) == both
    assert bus_amplitude(topo, {"scl": released}, 0) == pytest.approx(1.27e-3, rel=1e-2)


def test_attenuation_scales_amplitude():
    topo = _resistive_topology(0)
    att = BusTopology(carriers=topo.carriers, nodes=topo.nodes, attenuation_db=6.0)
    a = bus_amplitude(topo, {"scl": ("H",)}, 0)
    b = bus_amplitude(att, {"scl": ("H",)}, 0)
    assert b == pytest.approx(a * 10 ** (-6 / 20), rel=1e-12)


# -- topology validation --


def test_exactly_one_master():
    carrier = CarrierSpec("scl", 20e6, 1.0, resistor(2000.0))
    with pytest.raises(TopologyError, match="master"):
        BusTopology(carriers=(carrier,), nodes=(_fixed_node("a", "slave", 1, 1),))
    with pytest.raises(TopologyError, match="master"):
        BusTopology(
            carriers=(carrier,),
            nodes=(
                _fixed_node("a", "master", 1, 1),
                _fixed_node("b", "master", 1, 1),
            ),
        )


def test_node_names_and_slave_addresses_are_unique():
    carrier = CarrierSpec("scl", 20e6, 1.0, resistor(2000.0))
    master = _fixed_node("m", "master", 1, 1)

    def slave(name, address):
        return dataclasses.replace(_fixed_node(name, "slave", 1, 1), slave=SlaveModel(address))

    with pytest.raises(TopologyError, match=r"^nodes\[1\] 'a' and nodes\[3\] 'a' share the name 'a'$"):
        BusTopology(carriers=(carrier,), nodes=(master, slave("a", 0x18), slave("b", 0x19), slave("a", 0x1A)))
    with pytest.raises(TopologyError, match=r"^nodes\[1\] 'a' and nodes\[3\] 'c' share the slave address 0x18$"):
        BusTopology(carriers=(carrier,), nodes=(master, slave("a", 0x18), slave("b", 0x19), slave("c", 0x18)))
    # a slave model on the master is never heard, so its address is free
    heard_never = dataclasses.replace(master, slave=SlaveModel(0x18))
    BusTopology(carriers=(carrier,), nodes=(heard_never, slave("a", 0x18)))


def test_one_carrier_per_line():
    c1 = CarrierSpec("scl", 20e6, 1.0, resistor(2000.0))
    c2 = CarrierSpec("scl", 50e6, 1.0, resistor(2000.0))
    with pytest.raises(TopologyError, match="one carrier per line"):
        BusTopology(carriers=(c1, c2), nodes=(_fixed_node("m", "master", 1, 1),))


@pytest.mark.parametrize("cap", [0.0, -1.0, math.inf, math.nan])
def test_pole_cap_must_be_finite_and_positive(cap):
    carrier = CarrierSpec("scl", 20e6, 1.0, resistor(2000.0))
    with pytest.raises(TopologyError, match=f"^pole_cap must be finite and > 0, got {cap!r}$"):
        BusTopology(carriers=(carrier,), nodes=(_fixed_node("m", "master", 1, 1),), pole_cap=cap)


def test_carrier_validation():
    with pytest.raises(TopologyError):
        CarrierSpec("clk", 20e6, 1.0, resistor(2000.0))
    with pytest.raises(TopologyError):
        CarrierSpec("scl", -20e6, 1.0, resistor(2000.0))


@pytest.mark.parametrize("frequency,amplitude", [(math.nan, 1.0), (20e6, math.nan)],
                         ids=["nan_frequency", "nan_amplitude"])
def test_carrier_rejects_nan(frequency, amplitude):
    with pytest.raises(TopologyError):
        CarrierSpec("scl", frequency, amplitude, resistor(2000.0))


def test_harmonic_overlap_warning():
    c1 = CarrierSpec("scl", 20e6, 1.0, resistor(2000.0))
    c2 = CarrierSpec("sda", 40e6, 1.0, resistor(2000.0))
    with pytest.warns(HarmonicOverlapWarning):
        BusTopology(carriers=(c1, c2), nodes=(_fixed_node("m", "master", 1, 1),))
    c3 = CarrierSpec("sda", 20e6 * 2**20, 1.0, resistor(2000.0))
    with pytest.warns(HarmonicOverlapWarning, match="harmonic 1048576 of"):
        BusTopology(carriers=(c1, c3), nodes=(_fixed_node("m", "master", 1, 1),))
    # 20/50 MHz is a 2.5 ratio: fine.  Past order 2**20 a float ratio near an
    # integer says nothing (above 2**53 every float is one): no warning for 1e300 Hz
    for f in (50e6, 20e6 * (2**20 + 1), 20e6 * 2.0**40, 1e300):
        c4 = CarrierSpec("sda", f, 1.0, resistor(2000.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            BusTopology(carriers=(c1, c4), nodes=(_fixed_node("m", "master", 1, 1),))


# -- the packaged reference scenario --


@pytest.fixture(scope="module")
def demo():
    return load_scenario(DEMO)


def test_demo_loads(demo):
    assert isinstance(demo, Scenario)
    assert demo.clock_hz == pytest.approx(100e3)
    assert demo.sim_rate == pytest.approx(6.4e6)
    assert demo.sim_rate >= 50 * demo.clock_hz
    assert len(demo.topology.nodes) == 9
    assert len(demo.transactions) == 16
    lines = {c.line: c.frequency for c in demo.topology.carriers}
    assert lines == {"scl": pytest.approx(20e6), "sda": pytest.approx(50e6)}


def test_demo_runs_error_free(demo):
    metrics, decoded = demo.run()
    assert metrics.error_free
    assert metrics.bit_errors == {"scl": 0, "sda": 0}
    assert metrics.transactions_completed == 16
    for k in range(8):
        readback = decoded[2 * k + 1]
        assert readback.direction == "read" and readback.completed
        hi, lo = readback.payload
        assert (hi << 8) | lo == 0x0190 + 4 * k
    assert metrics.depth_db["scl"] > 6.0 and metrics.depth_db["sda"] > 6.0
    assert metrics.ber("scl") == 0.0


def test_demo_is_deterministic(demo):
    m1, d1 = demo.run()
    m2, d2 = demo.run()
    assert m1.to_json() == m2.to_json()  # byte identical
    assert [t.to_dict() for t in d1] == [t.to_dict() for t in d2]


def test_demo_seed_irrelevant_without_noise(demo):
    m1, _ = demo.run(seed=0)
    m2, _ = demo.run(seed=999)
    assert m1.bit_errors == m2.bit_errors
    assert m1.eye_margin_v == m2.eye_margin_v


def test_noise_degrades_monotonically(demo):
    totals = []
    for rms in (0.0, 0.0005, 0.02):
        m, _ = demo.run(seed=7, noise_rms=rms)
        totals.append(sum(m.bit_errors.values()))
    assert totals[0] == 0
    assert totals[0] <= totals[1] <= totals[2]
    assert totals[2] > 0


def test_noise_is_seed_reproducible(demo):
    m1, _ = demo.run(seed=11, noise_rms=0.001)
    m2, _ = demo.run(seed=11, noise_rms=0.001)
    m3, _ = demo.run(seed=12, noise_rms=0.001)
    assert m1.to_json() == m2.to_json()
    assert m1.bit_errors != m3.bit_errors or m1.eye_margin_v != m3.eye_margin_v


def test_metrics_dict_schema(demo):
    m, _ = demo.run()
    d = m.to_dict()
    assert d["schema_version"] == 1
    for key in (
        "clock_hz",
        "sim_rate_hz",
        "seed",
        "noise_rms_v",
        "n_samples",
        "bit_errors",
        "bits_checked",
        "ber",
        "eye_margin_v",
        "depth_db",
        "transactions_attempted",
        "transactions_completed",
        "error_free",
        "transactions",
    ):
        assert key in d
    json.dumps(d)  # serializable as-is


def test_trace_sink_collects_samples(demo):
    sink: dict = {}
    m, _ = demo.run(trace_sink=sink)
    assert len(sink["time_s"]) == m.n_samples
    assert set(sink) >= {"time_s", "wire_scl", "wire_sda"}
    det_keys = [k for k in sink if k.startswith("det_")]
    assert len(det_keys) == 2 * len(demo.topology.nodes)
    for k in det_keys:
        assert len(sink[k]) == m.n_samples


def test_run_scenario_direct_call(demo):
    metrics, decoded = run_scenario(
        demo.topology,
        [Transaction.write(0x18, [0x05]), Transaction.read(0x18, 2)],
        100e3,
    )
    assert metrics.error_free
    assert list(decoded[1].payload) == [0x01, 0x90]


def test_run_leaves_topology_slave_models_unchanged(demo):
    slaves = [n.slave for n in demo.topology.nodes if n.slave is not None]
    before = [(dict(m.registers), m.pointer, dict(m.widths)) for m in slaves]
    addr = slaves[0].address
    metrics, decoded = run_scenario(
        demo.topology,
        [Transaction.write(addr, [0x06, 0xAB, 0xCD]), Transaction.read(addr, 2)],
        100e3,
    )
    assert metrics.error_free
    assert list(decoded[1].payload) == [0xAB, 0xCD]  # the run's copy took the write
    assert [(m.registers, m.pointer, m.widths) for m in slaves] == before


@pytest.mark.parametrize("seed,noise_rms", [(0, 0.0), (1, 200e-6)])
def test_warm_designs_give_the_same_metrics_as_fresh_ones(seed, noise_rms):
    """A run on the kept table reproduces the metrics JSON of a fresh scenario byte for byte."""
    warm = load_scenario(DEMO)
    warm.run(seed=seed, noise_rms=noise_rms)
    fresh, _ = load_scenario(DEMO).run(seed=seed, noise_rms=noise_rms)
    again, _ = warm.run(seed=seed, noise_rms=noise_rms)
    assert again.to_json() == fresh.to_json()


def test_evaluating_a_design_leaves_it_unchanged():
    """A design keeps no evaluation state: its fields are as before a scalar evaluation and a run."""
    sc = load_scenario(DEMO)
    designs = list({id(d): d for n in sc.topology.nodes for d in n.filters.values()}.values())
    before = [copy.deepcopy(vars(d)) for d in designs]
    designs[0].input_impedance(designs[0].f_mod, "H")
    sc.run()
    assert [vars(d) for d in designs] == before


def _count_tables(monkeypatch) -> list:
    """Record the topology of every ``_AmplitudeTable`` built from here on."""
    built = []
    init = _AmplitudeTable.__init__

    def counted(self, topology):
        built.append(topology)
        init(self, topology)

    monkeypatch.setattr(_AmplitudeTable, "__init__", counted)
    return built


def test_bus_amplitude_after_a_run_builds_no_table(monkeypatch):
    """The run's kept table serves ``bus_amplitude`` on the same topology, with a fresh table's values."""
    sc = load_scenario(DEMO)
    topo = sc.topology
    sc.run()
    n = len(topo.nodes)
    pulled = {"scl": ("H",) * (n - 1) + ("L",), "sda": ("L",) + ("H",) * (n - 1)}
    built = _count_tables(monkeypatch)
    got = [bus_amplitude(topo, states, np.int64(j)) for states in ({}, pulled) for j in range(len(topo.carriers))]
    assert built == []
    fresh = _AmplitudeTable(topo)
    want = [fresh((False,) * n, (False,) * n), fresh(*(tuple(p == "L" for p in pulled[line]) for line in LINES))]
    assert got == [a for amps in want for a in amps]


@pytest.mark.parametrize(
    "carrier_index", [-1, True, 2, 1.0, np.bool_(False)], ids=["negative", "bool", "past_end", "float", "numpy_bool"]
)
def test_bus_amplitude_refuses_a_bad_carrier_index(demo, carrier_index):
    with pytest.raises(TopologyError, match=rf"carrier_index .* range\(2\), got {re.escape(repr(carrier_index))}$"):
        bus_amplitude(demo.topology, {}, carrier_index)


def test_sim_rate_floor_enforced(demo):
    with pytest.raises(ValueError, match="sim_rate"):
        run_scenario(demo.topology, demo.transactions, 100e3, sim_rate=1e6)


# -- node-count sweep --


def test_sweep_node_count_rows(demo):
    rows = sweep_node_count(demo.topology, [1, 2, 4, 8, 16])
    assert [r["n"] for r in rows] == [1, 2, 4, 8, 16]
    for line in ("scl", "sda"):
        depths = [r[f"depth_db_{line}"] for r in rows]
        assert all(a >= b - 1e-9 for a, b in zip(depths, depths[1:]))  # depth shrinks
    assert rows[0]["ok"]  # one slave certainly clears 6 dB
    assert all(set(r) == {"n", "depth_db_scl", "depth_db_sda", "ok"} for r in rows)


def test_sweep_node_count_needs_a_slave():
    topo = _resistive_topology(0)
    with pytest.raises(TopologyError):
        sweep_node_count(topo, [1, 2])


@pytest.mark.parametrize("n_range", [[0], [-3], [1, 2, 0]])
def test_sweep_node_count_refuses_fewer_than_one_slave(demo, n_range):
    # n = 0 would report the master's own keying depth as a row
    with pytest.raises(TopologyError, match="at least 1"):
        sweep_node_count(demo.topology, n_range)


@pytest.mark.parametrize(
    "n_range,bad",
    [([True], "True"), ([2.5], "2.5"), ([4, False], "False"), ([1, 2.0], "2.0")],
    ids=["true", "fraction", "false_after_a_count", "integral_float"],
)
def test_sweep_node_count_refuses_a_count_that_is_not_an_integer(demo, n_range, bad):
    with pytest.raises(TopologyError, match=rf"integers of at least 1, got {bad}$"):
        sweep_node_count(demo.topology, n_range)


@pytest.mark.parametrize("floor", [math.nan, -6.0, 0.0], ids=["nan", "negative", "zero"])
def test_sweep_node_count_refuses_a_depth_floor_that_is_not_positive(demo, floor):
    # a NaN floor failed every comparison, so every row read ok: False
    with pytest.raises(TopologyError, match="min_depth_db must be positive"):
        sweep_node_count(demo.topology, [1, 8], min_depth_db=floor)


def test_sweep_node_count_builds_one_table(demo, monkeypatch):
    """One table of the master and max(n_range) slaves serves every count, in any order and repeated."""
    ns = [16, 1, 16, 3]
    built = _count_tables(monkeypatch)
    rows = sweep_node_count(demo.topology, np.array(ns))
    assert [len(topo.nodes) for topo in built] == [17]
    assert rows == oracles.sweep_node_count(demo.topology, ns)


# -- loader error paths --


def _write_scenario(tmp_path, text):
    p = tmp_path / "scen.yaml"
    p.write_text(text)
    return p


# exact values keep each design's stop resonance exactly on the other
# carrier; snapped values detune it and on a two-node bus the resulting
# cross-keying exceeds the slicer hysteresis (the nine-node demo dilutes
# the same effect across the bus)
MINIMAL = """
which: exact
clock: 100kHz
carriers:
  - {{line: scl, frequency: {freq}, amplitude: 20mV, pullup: [2kohm]}}
  - {{line: sda, frequency: 50MHz, amplitude: 20mV, pullup: [2kohm]}}
filter_defaults:
  scl: {{f_mod: 20MHz, f_stop: 50MHz, c_io: 8pF, shunt_c: 10pF, xm: 4.7uH}}
  sda: {{f_mod: 50MHz, f_stop: 20MHz, c_io: 8pF, xm: 1.0uH}}
nodes:
  - {{name: m, role: master}}
  - {{name: s, address: 0x18, registers: {{5: 0x0190}}}}
script:
  - W 0x18 0x05
  - R 0x18 2
"""


def test_minimal_inline_scenario(tmp_path):
    p = _write_scenario(tmp_path, MINIMAL.format(freq="20MHz"))
    sc = load_scenario(p)
    m, decoded = sc.run()
    assert m.error_free
    assert list(decoded[1].payload) == [0x01, 0x90]


def test_bare_number_rejected(tmp_path):
    p = _write_scenario(tmp_path, MINIMAL.format(freq="20000000"))
    with pytest.raises(UnitError):
        load_scenario(p)


def test_unknown_schema_version(tmp_path):
    p = _write_scenario(tmp_path, "schema_version: 99\n" + MINIMAL.format(freq="20MHz"))
    with pytest.raises(TopologyError, match="schema_version"):
        load_scenario(p)


def test_missing_pullup_rejected(tmp_path):
    text = MINIMAL.format(freq="20MHz").replace(", pullup: [2kohm]", "")
    p = _write_scenario(tmp_path, text)
    with pytest.raises(TopologyError, match="pull-up"):
        load_scenario(p)


# -- run-setting validation: each probe used to crash or run silently wrong --


@pytest.mark.parametrize(
    "edit,match",
    [
        (("clock: 100kHz", "clock: 0Hz"), "clock"),
        (("clock: 100kHz", "clock: 100kHz\nseed: -1"), "seed"),
        (("clock: 100kHz", "clock: 100kHz\nnoise_rms: -1mV"), "noise_rms"),
        (("clock: 100kHz", "clock: 100kHz\nattenuation_db: .nan"), "attenuation_db"),
    ],
    ids=["zero_clock", "negative_seed", "negative_noise", "nan_attenuation"],
)
def test_load_scenario_rejects_bad_run_settings(tmp_path, edit, match):
    p = _write_scenario(tmp_path, MINIMAL.format(freq="20MHz").replace(*edit))
    with pytest.raises(TopologyError, match=match):
        load_scenario(p)


@pytest.mark.parametrize(
    "kwargs,match",
    [
        ({"clock_hz": 0.0}, "clock"),
        ({"clock_hz": math.nan}, "clock"),
        ({"sim_rate": -6.4e6}, "sim_rate"),
        ({"seed": -1}, "seed"),
        ({"seed": 1.5}, "seed"),
        ({"noise_rms": -1e-3}, "noise_rms"),
        ({"noise_rms": math.nan}, "noise_rms"),
    ],
    ids=["zero_clock", "nan_clock", "negative_sim_rate", "negative_seed", "float_seed",
         "negative_noise", "nan_noise"],
)
def test_run_scenario_rejects_bad_run_settings(demo, kwargs, match):
    args = {"clock_hz": demo.clock_hz, **kwargs}
    with pytest.raises(TopologyError, match=match):
        run_scenario(demo.topology, demo.transactions[:1], **args)


@pytest.mark.parametrize("clock_hz,sim_rate", [(100e3, 1e300), (1e-300, 6.4e6), (1e-300, 1e300)],
                         ids=["sim_rate", "clock", "infinite_ratio"])
def test_run_scenario_rejects_sample_counts_beyond_int64(demo, clock_hz, sim_rate):
    with pytest.raises(TopologyError, match="sim_rate .* Hz clock asks for"):
        run_scenario(demo.topology, demo.transactions[:1], clock_hz, sim_rate=sim_rate)


def test_run_scenario_takes_at_most_max_run_samples(demo, monkeypatch):
    from fdmlink import simulate

    txns = demo.transactions[:1]
    budget = MasterEngine(txns, demo.clock_hz).quarters_upper_bound() * 16  # the demo's 6.4 MHz
    monkeypatch.setattr(simulate, "MAX_RUN_SAMPLES", budget)
    assert run_scenario(demo.topology, txns, demo.clock_hz, sim_rate=demo.sim_rate)[0].error_free
    monkeypatch.setattr(simulate, "MAX_RUN_SAMPLES", budget - 1)
    with pytest.raises(TopologyError, match=f"sim_rate .* Hz clock asks for more than {budget - 1} samples"):
        run_scenario(demo.topology, txns, demo.clock_hz, sim_rate=demo.sim_rate)


@pytest.mark.parametrize("value", [math.nan, math.inf, -3.0])
def test_topology_rejects_bad_attenuation(value):
    topo = _resistive_topology(0)
    with pytest.raises(TopologyError, match="attenuation_db"):
        BusTopology(carriers=topo.carriers, nodes=topo.nodes, attenuation_db=value)


# -- shared demodulator streams and the amplitude table --


def _node_columns(sink, node, prefix):
    return [sink[f"{prefix}_{node.name}_{line}"] for line in ("scl", "sda")]


def test_noiseless_nodes_see_the_master_trace_exactly(demo):
    sink: dict = {}
    demo.run(trace_sink=sink)
    master = demo.topology.nodes[demo.topology.master_index]
    for node in demo.topology.nodes:
        for prefix in ("det", "ref", "out"):
            for got, want in zip(_node_columns(sink, node, prefix), _node_columns(sink, master, prefix)):
                assert np.array_equal(got, want)


def test_noisy_nodes_have_their_own_traces(demo):
    sink: dict = {}
    demo.run(seed=1, noise_rms=200e-6, trace_sink=sink)
    master = demo.topology.nodes[demo.topology.master_index]
    differs = [
        not np.array_equal(got, want)
        for node in demo.topology.nodes
        if node is not master
        for got, want in zip(_node_columns(sink, node, "det"), _node_columns(sink, master, "det"))
    ]
    assert any(differs)


def test_noisy_traces_match_across_steppers_and_start_each_reference_at_its_detector(demo, monkeypatch):
    """Seed 1 at 200 uV: both steppers trace the same bytes, and sample 0 of every ref column is its det."""
    from .conftest import load_stepper

    sinks = {}
    for backend in ("c", "python"):
        fn = load_stepper(backend)
        monkeypatch.setattr(kernels, "block_stepper", lambda fn=fn: fn)
        sinks[backend] = {}
        demo.run(seed=1, noise_rms=200e-6, trace_sink=sinks[backend])
    c, py = sinks["c"], sinks["python"]
    assert c.keys() == py.keys()
    for name in c:
        assert (c[name].dtype, c[name].tobytes()) == (py[name].dtype, py[name].tobytes()), name
    refs = [name for name in c if name.startswith("ref_")]
    assert len(refs) == 2 * len(demo.topology.nodes)
    for name in refs:
        assert c[name][0] == c["det_" + name[len("ref_"):]][0], name


def _drive_states(n_nodes, mi):
    """All released, each node pulling each line alone, the master pulling both."""
    none = (False,) * n_nodes
    one = [tuple(i == k for i in range(n_nodes)) for k in range(n_nodes)]
    states = [(none, none)]
    states += [(d, none) for d in one] + [(none, d) for d in one]
    states.append((one[mi], one[mi]))
    return states


def _assert_table_matches_oracle(topo):
    """The table and ``bus_amplitude`` both equal the earlier sum, for both lines' pin states."""
    table = _AmplitudeTable(topo)
    for scl, sda in _drive_states(len(topo.nodes), topo.master_index):
        pins = {
            "scl": tuple("L" if d else "H" for d in scl),
            "sda": tuple("L" if d else "H" for d in sda),
        }
        want = tuple(oracles.bus_amplitude(topo, pins, j) for j in range(len(topo.carriers)))
        assert table(scl, sda) == want
        assert tuple(bus_amplitude(topo, pins, j) for j in range(len(topo.carriers))) == want


def test_amplitude_table_equals_bus_amplitude(demo):
    _assert_table_matches_oracle(demo.topology)


def test_amplitude_table_equals_bus_amplitude_with_overrides():
    # fixed-impedance nodes load scl only, so their sda entries are skipped
    topo = _resistive_topology(3)
    sda = CarrierSpec("sda", 50e6, 1.0, resistor(2000.0))
    _assert_table_matches_oracle(
        BusTopology(carriers=topo.carriers + (sda,), nodes=topo.nodes, dc_feed=inductor(47e-6))
    )


def test_sweep_node_count_equals_oracle(demo):
    ns = range(1, 130)
    assert sweep_node_count(demo.topology, ns) == oracles.sweep_node_count(demo.topology, ns)


# the admittance rule's edges (a short, a pole, exactly and just below the cap) and passive loads
_NODE_Z = st.one_of(
    st.sampled_from([
        0j, POLE, complex(DEFAULT_POLE_CAP), complex(0.0, -DEFAULT_POLE_CAP),
        complex(np.nextafter(DEFAULT_POLE_CAP, 0.0)),
    ]),
    st.builds(complex, st.floats(0.0, 1e5), st.floats(-1e5, 1e5)).filter(lambda z: abs(z) >= 1e-3),
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_amplitude_table_equals_bus_amplitude_on_fixed_loads(data):
    lines = data.draw(st.sampled_from([("scl",), ("sda",), LINES]))
    carriers = tuple(CarrierSpec(line, f, 1.0, resistor(2000.0)) for line, f in zip(lines, (20e6, 50e6)))
    n = data.draw(st.integers(1, 12))
    mi = data.draw(st.integers(0, n - 1))
    nodes = []
    for k in range(n):
        # a node without a filter on a line does not load it
        filters = {line: _FixedZ(data.draw(_NODE_Z), data.draw(_NODE_Z)) for line in lines if data.draw(st.booleans())}
        nodes.append(NodeSpec(name=f"n{k}", role="master" if k == mi else "slave", filters=filters))
    dc_feed = data.draw(st.sampled_from([None, inductor(47e-6)]))
    topo = BusTopology(carriers=carriers, nodes=tuple(nodes), dc_feed=dc_feed)
    drives = [tuple(data.draw(st.lists(st.booleans(), min_size=n, max_size=n))) for _ in LINES]
    # bus_amplitude takes the pin states of the carried lines only
    pins = {line: tuple("L" if d else "H" for d in dr) for line, dr in zip(LINES, drives) if line in lines}
    want = tuple(oracles.bus_amplitude(topo, pins, j) for j in range(len(carriers)))
    assert _AmplitudeTable(topo)(*drives) == want
    assert tuple(bus_amplitude(topo, pins, j) for j in range(len(carriers))) == want


# -- one table per electrical topology --


def _one_change(topo, change):
    """``topo`` with one carrier's amplitude, one slave's ``which`` or loss, or the dc feed changed."""
    if change == "carrier_amplitude":
        c0 = dataclasses.replace(topo.carriers[0], amplitude=1.5 * topo.carriers[0].amplitude)
        return dataclasses.replace(topo, carriers=(c0,) + topo.carriers[1:])
    if change == "dc_feed":
        return dataclasses.replace(topo, dc_feed=inductor(22e-6))
    k = next(i for i, n in enumerate(topo.nodes) if n.role == "slave")
    node = topo.nodes[k]
    node = dataclasses.replace(node, **({"which": "exact"} if change == "which" else {"loss": LOSSLESS}))
    assert node != topo.nodes[k]
    return dataclasses.replace(topo, nodes=topo.nodes[:k] + (node,) + topo.nodes[k + 1:])


def _cold_table(topo) -> _AmplitudeTable:
    _AmplitudeTable._last = None
    return _AmplitudeTable.for_topology(topo)


@pytest.mark.parametrize("change", ["carrier_amplitude", "which", "loss", "dc_feed"])
def test_a_topology_one_electrical_field_away_gets_its_own_amplitudes(demo, change):
    """The kept table of the demo is not handed to a topology that differs from it in one field."""
    base, other = demo.topology, _one_change(demo.topology, change)
    states = _drive_states(len(base.nodes), base.master_index)
    want = [_cold_table(other)(*st) for st in states]
    assert want != [_cold_table(base)(*st) for st in states]
    assert [_AmplitudeTable.for_topology(other)(*st) for st in states] == want


def test_a_new_topology_with_the_same_electrical_parts_shares_the_table(demo):
    """As a benchmark op builds it: new slave models and nodes, the same carriers and designs."""
    topo = demo.topology
    table = _AmplitudeTable.for_topology(topo)
    nodes = tuple(
        dataclasses.replace(n, slave=None if n.slave is None else SlaveModel(n.slave.address, {0: 1}))
        for n in topo.nodes
    )
    same = BusTopology(carriers=topo.carriers, nodes=nodes, dc_feed=topo.dc_feed)
    assert _AmplitudeTable.for_topology(same) is table
    assert _AmplitudeTable.for_topology(dataclasses.replace(topo, attenuation_db=1.0)) is not table


@pytest.mark.parametrize("stepper", ["c", "python"], indirect=True)
@pytest.mark.parametrize("noise_rms", [0.0, 200e-6])
def test_runs_on_alternating_topologies_match_cold_runs(demo, stepper, noise_rms):
    """Topologies A, B, A in a row give the metrics JSON of each run with no table kept."""
    a, b = demo.topology, _one_change(demo.topology, "which")

    def run(topo):
        metrics, _ = run_scenario(
            topo, demo.transactions, demo.clock_hz, sim_rate=demo.sim_rate, noise_rms=noise_rms, seed=1
        )
        return metrics.to_json()

    cold = []
    for topo in (a, b):
        _AmplitudeTable._last = None
        cold.append(run(topo))
    assert cold[0] != cold[1]
    assert [run(a), run(b), run(a)] == [cold[0], cold[1], cold[0]]


def test_runs_on_many_topologies_keep_only_the_last_table(demo):
    """After runs on 20 topologies, the first topology and the carrier its key held are freed."""
    c0, rest = demo.topology.carriers[0], demo.topology.carriers[1:]
    carriers = [(dataclasses.replace(c0, amplitude=c0.amplitude * (1.0 + k / 100)),) + rest for k in range(20)]
    topos = [dataclasses.replace(demo.topology, carriers=c) for c in carriers]
    del carriers
    first, first_carrier = weakref.ref(topos[0]), weakref.ref(topos[0].carriers[0])
    for topo in topos:
        run_scenario(topo, demo.transactions[:1], demo.clock_hz, sim_rate=demo.sim_rate)
    del topos, topo
    gc.collect()
    assert first() is None and first_carrier() is None


# -- block stepping --


def _stop_samples(sink, node) -> set[int]:
    """Samples where ``node``'s SCL output falls, or its SDA output changes under a steady high SCL."""
    scl, sda = (sink[f"out_{node.name}_{line}"] for line in ("scl", "sda"))
    prev_scl, prev_sda = (np.concatenate([[1], x[:-1]]) for x in (scl, sda))
    fall = (prev_scl == 1) & (scl == 0)
    start_stop = (prev_scl == 1) & (scl == 1) & (sda != prev_sda)
    return set(np.flatnonzero(fall | start_stop).tolist())


def test_block_calls_scale_with_events_not_samples(demo, monkeypatch):
    """One kernel call per master segment or per SCL fall or START/STOP that reaches a slave group."""
    from fdmlink.kernels import EDGE_RISE

    from .conftest import load_stepper

    segments = []
    program = MasterEngine.segments

    def counted(self):
        gen = program(self)
        seg = next(gen)
        while True:
            segments.append(len(seg))
            try:
                seg = gen.send((yield seg))
            except StopIteration:
                return

    spq = round(demo.sim_rate / (QUARTERS_PER_BIT * demo.clock_hz))
    current = []
    stops: set[int] = set()  # samples whose fall or START/STOP some slave group was handed
    edge = SlaveGroup.edge

    def delivered(self, code):
        if code >> 1 != EDGE_RISE:
            ctx = current[-1]
            stops.add(ctx.quarter * spq + ctx.pos - 1)  # the call ended just after that sample
        return edge(self, code)

    monkeypatch.setattr(MasterEngine, "segments", counted)
    monkeypatch.setattr(SlaveGroup, "edge", delivered)
    counts, stop_counts = {}, {}
    for backend in ("c", "python"):
        fn = load_stepper(backend)
        current.clear()
        stops.clear()

        def counting(ctx, fn=fn):
            current.append(ctx)
            return fn(ctx)

        monkeypatch.setattr(kernels, "block_stepper", lambda counting=counting: counting)
        segments.clear()
        sink: dict = {}
        m, _ = demo.run(trace_sink=sink)
        counts[backend], stop_counts[backend] = len(current), len(stops)
    assert m.n_samples == 26_496 == sum(segments) * spq
    # 1,001 when every slicer output change ended a call
    assert counts["c"] == counts["python"] == 433
    assert stop_counts["c"] == stop_counts["python"]
    assert counts["c"] <= len(segments) + len(stops)
    assert stops <= _stop_samples(sink, demo.topology.nodes[demo.topology.master_index])
    assert len(segments) == 25


@pytest.mark.parametrize("stepper", ["c", "python"], indirect=True)
def test_noisy_kernel_returns_only_on_edges_a_listening_slave_takes(demo, monkeypatch, stepper):
    """With noise every node is a group: each logged edge goes to a one-slave group, clock edges to a listening one."""
    from fdmlink.kernels import EDGE_DATA, EDGE_RISE

    step = kernels.block_stepper()
    logs = []  # per call: whether it ran to the segment end, the edge kinds it logged, the group edges after it

    def logged(ctx):
        n = step(ctx)
        at_end = (ctx.quarter, ctx.pos) == (ctx.q_end, 0)
        logs.append((at_end, (ctx.events[:ctx.n_events] >> 1 & 3).tolist(), []))
        return n

    edge = SlaveGroup.edge

    def delivered(self, code):
        logs[-1][2].append((code >> 1, len(self.engines), bool(self.listening)))
        return edge(self, code)

    monkeypatch.setattr(SlaveGroup, "edge", delivered)
    monkeypatch.setattr(kernels, "block_stepper", lambda: logged)
    sink: dict = {}
    demo.run(seed=1, noise_rms=10e-6, trace_sink=sink)
    for at_end, kinds, calls in logs:
        assert sorted(kinds) == sorted(kind for kind, _, _ in calls)
        assert all(n_engines == 1 for _, n_engines, _ in calls)
        assert all(listening for kind, _, listening in calls if kind != EDGE_DATA)
        # a call stops early only on a fall or a data edge
        assert at_end or any(kind != EDGE_RISE for kind in kinds)
    # ending a call on every sample where some slicer output changes takes over twice as many
    outs = np.array([v for k, v in sink.items() if k.startswith("out_")])
    assert len(logs) < np.count_nonzero((np.diff(outs, axis=1) != 0).any(axis=0)) / 2


@pytest.mark.parametrize("stepper", ["c", "python"], indirect=True)
def test_clock_edges_reach_only_listening_slaves(demo, monkeypatch, stepper):
    """Noiseless demo: slave callbacks go only where they can act.

    7,808 when every slave got every edge, 2,904 when each slave shifted the address bits itself.
    """
    calls = []

    def counted(name):
        edge = getattr(SlaveEngine, name)

        def call(self, *args):
            calls.append((name, self.listening))
            return edge(self, *args)

        return call

    for name in ("on_scl_rise", "on_scl_fall", "on_sda_edge", "on_address"):
        monkeypatch.setattr(SlaveEngine, name, counted(name))
    m, _ = demo.run()
    assert m.error_free
    assert len(calls) == 744
    assert all(listening for name, listening in calls if name != "on_sda_edge")


_ABSENT = range(0x40, 0x48)
_demo_scripts = st.lists(
    st.tuples(
        st.sampled_from(["write", "read"]),
        st.one_of(st.integers(0x18, 0x1F), st.sampled_from(_ABSENT)),
        st.lists(st.integers(0, 0xFF), min_size=1, max_size=3),
        st.integers(1, 4),
        st.booleans(),
    ),
    min_size=1,
    max_size=5,
)


@settings(max_examples=40, deadline=None)
@given(script=_demo_scripts, regs=st.lists(st.integers(0, 0xFFFF), min_size=8, max_size=8))
def test_zero_noise_link_decodes_what_the_ideal_bus_decodes(demo, script, regs):
    """Writes, reads, NACKed addresses and repeated STARTs, on both block steppers.

    Each engine also gets the same callbacks, in the same order, as on the ideal bus.
    """
    from .conftest import load_stepper

    txns = [
        Transaction.write(addr, data, stop_after=stop)
        if kind == "write"
        else Transaction.read(addr, n, stop_after=stop)
        for kind, addr, data, n, stop in script
    ]
    nodes = tuple(
        n if n.slave is None
        else dataclasses.replace(n, slave=dataclasses.replace(n.slave, registers={r: regs[(i + r) % 8] for r in range(8)}))
        for i, n in enumerate(demo.topology.nodes)
    )
    topo = dataclasses.replace(demo.topology, nodes=nodes)
    calls: dict[int, list] = {}  # per slave address, the engine's callbacks in order

    def recorded(name):
        edge = getattr(SlaveEngine, name)

        def call(self, *args):
            calls.setdefault(self.model.address, []).append((name, args))
            return edge(self, *args)

        return call

    with contextlib.ExitStack() as patches:
        for name in ("on_scl_rise", "on_scl_fall", "on_sda_edge", "on_address"):
            patches.enter_context(mock.patch.object(SlaveEngine, name, recorded(name)))
        ideal = MasterEngine(txns, demo.clock_hz)
        run_ideal_bus(ideal, [SlaveEngine(copy.deepcopy(n.slave)) for n in nodes if n.slave is not None])
        ideal_calls = dict(calls)
        for backend in ("c", "python"):
            fn = load_stepper(backend)
            calls.clear()
            with mock.patch.object(kernels, "block_stepper", lambda: fn):
                metrics, decoded = run_scenario(topo, txns, demo.clock_hz, sim_rate=demo.sim_rate)
            assert decoded == ideal.results, backend
            assert metrics.bit_errors == {"scl": 0, "sda": 0}
            assert calls == ideal_calls, backend


@pytest.mark.parametrize("stepper", ["c", "python"], indirect=True)
def test_undercounted_sample_budget_raises_protocol_error(demo, monkeypatch, stepper):
    # the noise and trace buffers hold quarters_upper_bound() quarters; a run
    # that outgrows them stops with a message instead of reading past the end
    monkeypatch.setattr(MasterEngine, "quarters_upper_bound", lambda self: 40)
    with pytest.raises(ProtocolError, match="sample budget"):
        demo.run(seed=1, noise_rms=10e-6, trace_sink={})
