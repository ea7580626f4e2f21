"""End-to-end link simulation: carriers, pull-up networks, filters, bus nodes.

The physical picture: one shared two-conductor line carries DC power plus
two ASK carriers, one per I2C line.  Each carrier source drives the line
through its pull-up network; every node hangs both of its filter ports on
the line and keys its own carrier by switching the filter's secondary port
between the released (high-impedance) and pulled (low-impedance) state.
The line voltage at carrier j is the source amplitude times the divider
between the pull-up and the total node/feed loading, so any node pulling
low collapses that carrier for everyone - a wired-AND in amplitude.

Demodulation is a log detector, an IIR reference and a slicer with
hysteresis (same math as the modem kernels), the same for every run: the
default ``DetectorParams()`` and ``SlicerParams.for_bit_rate(clock)``.
Nodes only reflect the carriers, so every node sees the same line
amplitude: without noise all detectors on a line get identical input, and
one demodulator stream per line serves every node.  With noise each
node-line is its own stream.  The master's program comes in segments of
quarter bits whose intents do not depend on each other's observations, and
the amplitude of each quarter follows from its intents and the slave
drives, so ``kernels.block_stepper()`` (compiled C, or the same arithmetic
in Python) advances the streams through a segment up to its end or the
first bus edge a slave must act on (an SCL fall, a START or a STOP, the
eighth fall of a byte the slaves only listen to, which the kernel clocks
in itself, or the fall that ends the ACK slot of a read-data byte, which
it clocks out itself); slave reactions, which close the loop, run between
calls.  Bit errors are
counted at quarter-bit midpoints against the ideal wired-AND level of the
same run.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
import yaml

from .elements import DEFAULT_POLE_CAP, Network, capacitor, inductor, is_open, resistor, series
from .eseries import ESERIES
from .loss import DEFAULT_Q, DEFAULT_Q_REF_HZ, LOSSLESS, LossModel
from .modem import (
    H,
    L,
    DetectorParams,
    SlicerParams,
    check_carrier_separation,
    initial_reference,
)
from .protocol import (
    EDGE_BYTE,
    QUARTERS_PER_BIT,
    RESERVED_ADDRESSES,
    SAMPLES_PER_BIT,
    MasterEngine,
    ProtocolError,
    SlaveEngine,
    SlaveGroup,
    SlaveModel,
    Transaction,
    parse_script,
)
from .synthesis import FilterDesign, spec_from_dict, synthesize
from .units import ConfigError, KeyReader, UnitError, parse_quantity, read_config

__all__ = [
    "LINES",
    "MAX_RUN_SAMPLES",
    "MIN_SAMPLES_PER_QUARTER",
    "TopologyError",
    "HarmonicOverlapWarning",
    "CarrierSpec",
    "NodeSpec",
    "BusTopology",
    "bus_amplitude",
    "LinkMetrics",
    "run_scenario",
    "sweep_node_count",
    "Scenario",
    "load_scenario",
]

LINES = ("scl", "sda")
MIN_SAMPLES_PER_QUARTER = 13
# the most samples a run may ask for (quarters_upper_bound * samples per quarter):
# 2**24 is over 600 times the demo's, and a noisy demo run of it takes seconds
MAX_RUN_SAMPLES = 2**24
# every node's detector
_DETECTOR = DetectorParams()
# The highest harmonic order the overlap check warns about.  A float ratio
# near n is only good to about n * 2**-52, so from about 2**33 on only an
# exact integer is within the check's 1e-6, and from 2**53 on every ratio is
# an integer; 2**20 keeps the check resolvable with a wide margin.
_MAX_HARMONIC = 2**20


class TopologyError(ConfigError):
    """Topology cannot carry the link (missing lines, roles, carriers)."""


class HarmonicOverlapWarning(UserWarning):
    """One carrier sits on an integer harmonic of the other."""


@dataclass(frozen=True)
class CarrierSpec:
    """One ASK carrier: source amplitude behind a pull-up network."""

    line: str
    frequency: float
    amplitude: float
    pullup: Network

    def __post_init__(self) -> None:
        if self.line not in LINES:
            raise TopologyError(f"carrier line must be one of {LINES}, got {self.line!r}")
        if not (self.frequency > 0 and self.amplitude > 0):  # NaN fails too
            raise TopologyError("carrier frequency and amplitude must be positive")

    def pullup_z(self, f: float) -> complex:
        return complex(self.pullup.impedance(f))


@dataclass(frozen=True)
class NodeSpec:
    """One bus node: a filter per line plus an optional slave register file.

    A node loads the bus at ``filters[line].input_impedance(f, state,
    which=, loss=)``; lines without a filter do not load it.  Exactly one
    node carries role ``master``.
    """

    name: str
    role: str = "slave"
    filters: Mapping[str, FilterDesign] = field(default_factory=dict)
    loss: LossModel = LOSSLESS
    which: str = "exact"
    slave: SlaveModel | None = None

    def __post_init__(self) -> None:
        if self.role not in ("master", "slave"):
            raise TopologyError(f"node role must be 'master' or 'slave', got {self.role!r}")

    def input_impedance(self, f: float, line: str, state: str) -> complex | None:
        """Node loading on the bus at f, or None if this line is unfiltered."""
        design = self.filters.get(line)
        if design is None:
            return None
        return design.input_impedance(f, state, which=self.which, loss=self.loss)


@dataclass(frozen=True)
class BusTopology:
    """Everything hanging on the shared line.

    Node names are unique, since they name the trace columns, and so are the
    addresses of the slave models that answer (those not on the master).
    Those addresses are also outside ``RESERVED_ADDRESSES``, which the master
    never sends.  The line is one lumped node: the sheet must be small
    against a twentieth of the wavelength at the highest carrier, which
    nothing here checks.
    """

    carriers: tuple[CarrierSpec, ...]
    nodes: tuple[NodeSpec, ...]
    dc_feed: Network | None = None
    attenuation_db: float = 0.0
    pole_cap: float = DEFAULT_POLE_CAP

    def __post_init__(self) -> None:
        if not self.carriers:
            raise TopologyError("at least one carrier is required")
        lines = [c.line for c in self.carriers]
        if len(set(lines)) != len(lines):
            raise TopologyError("one carrier per line")
        masters = [n for n in self.nodes if n.role == "master"]
        if len(masters) != 1:
            raise TopologyError(f"exactly one node with role 'master' required, found {len(masters)}")
        first: dict[tuple[str, str], int] = {}
        for i, node in enumerate(self.nodes):
            keys = [("the name", repr(node.name))]
            if node.slave is not None and node.role != "master":
                if node.slave.address in RESERVED_ADDRESSES:
                    raise TopologyError(
                        f"nodes[{i}] {node.name!r} has the reserved slave address {node.slave.address:#04x}, "
                        "which the master never sends"
                    )
                keys.append(("the slave address", f"{node.slave.address:#04x}"))
            for key in keys:
                j = first.setdefault(key, i)
                if j != i:
                    raise TopologyError(
                        f"nodes[{j}] {self.nodes[j].name!r} and nodes[{i}] {node.name!r} share {key[0]} {key[1]}"
                    )
        if not (math.isfinite(self.attenuation_db) and self.attenuation_db >= 0):
            raise TopologyError(f"attenuation_db must be finite and >= 0, got {self.attenuation_db!r}")
        if not (math.isfinite(self.pole_cap) and self.pole_cap > 0):
            raise TopologyError(f"pole_cap must be finite and > 0, got {self.pole_cap!r}")
        self._check_harmonics()

    def _check_harmonics(self) -> None:
        freqs = sorted(c.frequency for c in self.carriers)
        for i in range(len(freqs)):
            for j in range(i + 1, len(freqs)):
                ratio = freqs[j] / freqs[i]
                n = round(ratio)
                if 2 <= n <= _MAX_HARMONIC and abs(ratio - n) < 1e-6:
                    warnings.warn(
                        f"carrier {freqs[j]:.4g} Hz is harmonic {n} of "
                        f"{freqs[i]:.4g} Hz; keying sidebands can alias between lines",
                        HarmonicOverlapWarning,
                        stacklevel=3,
                    )

    @property
    def master_index(self) -> int:
        return next(i for i, n in enumerate(self.nodes) if n.role == "master")

    def line_carrier(self, line: str) -> CarrierSpec:
        for c in self.carriers:
            if c.line == line:
                return c
        raise TopologyError(f"no carrier drives line {line!r}")


def bus_amplitude(
    topology: BusTopology,
    states: Mapping[str, Sequence[str]],
    carrier_index: int,
) -> float:
    """Carrier amplitude on the line for a given set of node pin states.

    ``states`` maps each line name to one 'H'/'L' pin state per node; a line
    left out is released at every node.  ``carrier_index`` is an integer
    (not a bool) in ``range(len(topology.carriers))``.  Every filter on the
    bus loads every carrier (off-line filters sit in their stopband and
    contribute next to nothing).  The loads are summed by the table
    ``_AmplitudeTable.for_topology`` keeps, so repeated calls, and calls
    after a run on the same electrical topology, build no bus model.
    """
    nc = len(topology.carriers)
    if isinstance(carrier_index, bool) or not (isinstance(carrier_index, numbers.Integral) and 0 <= carrier_index < nc):
        raise TopologyError(f"carrier_index must be an integer in range({nc}), got {carrier_index!r}")
    n = len(topology.nodes)
    drives = dict.fromkeys(LINES, (False,) * n)
    for line, pins in states.items():
        topology.line_carrier(line)  # validates the line name
        pins = tuple(pins)
        if len(pins) != n or not set(pins) <= {"H", "L"}:
            raise TopologyError(f"states[{line!r}] needs one 'H' or 'L' per node, {n} in all, got {pins!r}")
        drives[line] = tuple(pin == "L" for pin in pins)
    return _AmplitudeTable.for_topology(topology)(*drives.values())[carrier_index]


class _AmplitudeTable:
    """Carrier amplitudes per drive state: the one place bus loads are summed.

    The line at each carrier is one divider: the source behind its pull-up
    against, in parallel, every node's filter in the pin state its drive
    gives, the dc feed and the other carriers' pull-ups.  Node admittances
    are computed once per (node, line, state, carrier), and once for all
    nodes that share a filter design, loss model and ``which``.  A load open
    by ``elements.is_open`` at the topology's ``pole_cap`` adds zero
    admittance, and a short adds ``pole_cap``.  A call adds them line by
    line in node order, then the dc feed and the other pull-ups, and the
    table remembers the amplitudes of every drive state it was called with.
    A drive tuple shorter than the node list sums that prefix of the nodes
    in node order, exactly as a table of those nodes alone; only
    ``sweep_node_count``, which builds one table per call, relies on that.
    This is the one cache of filter impedances and bus amplitudes:
    ``run_scenario`` and ``bus_amplitude`` share the table ``for_topology`` keeps.
    """

    # the table ``for_topology`` built last
    _last: _AmplitudeTable | None = None

    @staticmethod
    def electrical(topology: BusTopology) -> tuple:
        """The key of ``topology``'s table: everything ``__init__`` reads from it.

        Each carrier (line, frequency, amplitude, pull-up), the dc feed, the
        attenuation and the pole cap, by value; and per node, in order, the
        identity of its filter design on each line, with its loss model and
        ``which`` by value.  Designs go by identity because ``FilterDesign``
        is unhashable (its element values are dicts); the table keeps them, so
        no id in its key is reused while it lives.
        """
        return (
            topology.carriers,
            topology.dc_feed,
            topology.attenuation_db,
            topology.pole_cap,
            tuple((tuple([id(n.filters.get(line)) for line in LINES]), n.loss, n.which) for n in topology.nodes),
        )

    @classmethod
    def for_topology(cls, topology: BusTopology) -> _AmplitudeTable:
        """The table this built last, if its key is ``topology``'s, else a new one.

        Only that one table is kept.  Runs and ``bus_amplitude`` calls on one
        electrical topology, even through new ``BusTopology`` objects, share
        its admittances and remembered amplitudes.  Threads that race to
        replace it still each get a table of their own topology.
        """
        table = cls._last
        if table is None or table.key != cls.electrical(topology):
            table = cls._last = cls(topology)
        return table

    def __init__(self, topology: BusTopology):
        # read what ``electrical`` reads, and nothing else
        self.key = self.electrical(topology)
        self._designs = [n.filters.get(line) for n in topology.nodes for line in LINES]  # the key holds their ids
        cap = self._cap = topology.pole_cap

        def admittance(z: complex) -> complex:
            return 0j if is_open(z, cap) else complex(cap, 0.0) if z == 0 else 1.0 / z

        self._scale = 10.0 ** (-topology.attenuation_db / 20.0)
        self._amps: dict[tuple[tuple[bool, ...], tuple[bool, ...]], tuple[float, ...]] = {}
        # per carrier: (source amplitude, pull-up impedance, [line][node][pulled] -> admittance, fixed loads)
        self._carriers = []
        for c in topology.carriers:
            f = c.frequency
            shared: dict[tuple, tuple[complex | None, complex | None]] = {}
            loads = []
            for line in LINES:
                row = []
                for node in topology.nodes:
                    key = (line, id(node.filters.get(line)), node.loss, node.which)
                    if key not in shared:
                        shared[key] = tuple(
                            None if z is None else admittance(z)
                            for z in (node.input_impedance(f, line, st) for st in ("H", "L"))
                        )
                    row.append(shared[key])
                loads.append(row)
            fixed = [] if topology.dc_feed is None else [complex(topology.dc_feed.impedance(f))]
            fixed += [other.pullup_z(f) for other in topology.carriers if other is not c]
            self._carriers.append((c.amplitude, c.pullup_z(f), loads, [admittance(z) for z in fixed]))

    def __call__(self, scl_drives: tuple[bool, ...], sda_drives: tuple[bool, ...]) -> tuple[float, ...]:
        drives = (scl_drives, sda_drives)
        amps = self._amps.get(drives)
        if amps is None:
            amps = self._amps[drives] = tuple(self._amplitude(drives, j) for j in range(len(self._carriers)))
        return amps

    def _amplitude(self, drives: tuple[tuple[bool, ...], ...], j: int) -> float:
        amplitude, z_p, loads, fixed = self._carriers[j]
        y = 0j
        for row, line_drives in zip(loads, drives):
            for adm, pulled in zip(row, line_drives):
                a = adm[pulled]
                if a is not None:
                    y += a
        for a in fixed:
            y += a
        z_total = 1.0 / y if y != 0 else complex(self._cap, 0.0)
        return amplitude * abs(z_total / (z_p + z_total)) * self._scale


@dataclass(frozen=True)
class LinkMetrics:
    """Outcome of one scenario run."""

    bit_errors: dict[str, int]
    bits_checked: dict[str, int]
    eye_margin_v: dict[str, float]
    depth_db: dict[str, float]
    transactions_attempted: int
    transactions_completed: int
    results: tuple[Transaction, ...]
    clock_hz: float
    sim_rate: float
    seed: int
    noise_rms: float
    n_samples: int

    @property
    def error_free(self) -> bool:
        return (
            sum(self.bit_errors.values()) == 0
            and self.transactions_completed == self.transactions_attempted
        )

    def ber(self, line: str) -> float:
        n = self.bits_checked.get(line, 0)
        return self.bit_errors.get(line, 0) / n if n else 0.0

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "clock_hz": self.clock_hz,
            "sim_rate_hz": self.sim_rate,
            "seed": self.seed,
            "noise_rms_v": self.noise_rms,
            "n_samples": self.n_samples,
            "bit_errors": dict(self.bit_errors),
            "bits_checked": dict(self.bits_checked),
            "ber": {line: self.ber(line) for line in sorted(self.bits_checked)},
            "eye_margin_v": {k: self.eye_margin_v[k] for k in sorted(self.eye_margin_v)},
            "depth_db": {k: self.depth_db[k] for k in sorted(self.depth_db)},
            "transactions_attempted": self.transactions_attempted,
            "transactions_completed": self.transactions_completed,
            "error_free": self.error_free,
            "transactions": [t.to_dict() for t in self.results],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False) + "\n"


def _check_run_settings(clock_hz: float, sim_rate: float | None, noise_rms: float, seed: int) -> None:
    """Reject run settings that would crash the run or silently change it."""
    if not (math.isfinite(clock_hz) and clock_hz > 0):
        raise TopologyError(f"clock must be a finite frequency > 0 Hz, got {clock_hz!r}")
    if sim_rate is not None and not (math.isfinite(sim_rate) and sim_rate > 0):
        raise TopologyError(f"sim_rate must be a finite frequency > 0 Hz, got {sim_rate!r}")
    if not (math.isfinite(noise_rms) and noise_rms >= 0):
        raise TopologyError(f"noise_rms must be a finite voltage >= 0 V, got {noise_rms!r}")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise TopologyError(f"seed must be an integer >= 0, got {seed!r}")


def run_scenario(
    topology: BusTopology,
    transactions: Sequence[Transaction],
    clock_hz: float,
    sim_rate: float | None = None,
    noise_rms: float = 0.0,
    seed: int = 0,
    trace_sink: dict | None = None,
) -> tuple[LinkMetrics, list[Transaction]]:
    """Run an I2C script over the analog link, one master segment at a time.

    Slaves demodulate their line voltages and react through the same
    engines as the ideal bus; the master samples its demodulated lines at
    quarter-bit midpoints.  Every node sees the same carrier amplitude, so
    each distinct demodulator input is one stream: without noise one
    stream per line fans out to every node, and its bit counts are scaled
    by the node count; with noise each node-line is its own stream.  Every
    stream is the same demodulator: the default ``DetectorParams()`` and
    ``SlicerParams.for_bit_rate(clock_hz)``, whose reference is a one-pole
    LPF of ``modem.SLICER_TAU_BITS`` bit periods with the default 10 mV
    hysteresis, started at ``modem.initial_reference`` of the first sample.

    ``MasterEngine.segments()`` yields the master's quarters a segment at
    a time, as ``bytes`` of the kernel's intent codes ``2 * scl + sda``,
    which are copied into the kernel context as they are; only the ACK
    sample of a byte the master sends ends a segment early.
    ``kernels.block_stepper()`` runs every stream across the segment's
    quarters, returning at the segment end or at a bus edge that some
    group's slaves must act on (``_kernels_py.step_block`` states the
    contract).  Each stream group's slaves form one ``protocol.SlaveGroup``,
    which delivers the bus edges by its rule; after every return each
    logged edge goes, in order, to its group, a received byte through
    ``SlaveGroup.byte`` and a sent byte's ACK through ``SlaveGroup.sent``.
    The group's ``hears`` mode in the context follows its ``listening``
    list, and is ``kernels.HEAR_BYTE`` with the group's shift state zeroed
    while the group is ``receiving``, so the kernel clocks in address and
    write-data bytes and returns only on their eighth fall.  While a group
    is ``sending`` and no other group holds the context's one sender slot,
    it is ``kernels.SEND_BYTE``: the kernel clocks out the group's
    ``tx_byte``, switching between the group's two drive states itself, and
    returns only at the end of the byte's ACK slot.  After every return
    while a group sends, its drive is read back from which of the two the
    context's ``drive`` names, and whenever another group's drive changes
    both send states are looked up again from the other groups' drives.  A
    second group sending at the same time, which only a mis-decoded address
    can cause, takes each clock edge and keys its own bits through the
    group.  The amplitudes come from ``_AmplitudeTable.for_topology``, which
    keeps the last table built and hands it to the next run on the same
    electrical topology, so repeated runs build no bus model and recompute
    no drive state.  A drive state, the ``pulling`` engines of every group,
    is added to the context's table on its first visit
    (``BlockContext.add_drive``): an amplitude row per intent code, without
    noise the detector value of each amplitude, whether a slave pulls SDA,
    and ``used`` flags.  When some group's ``pulling``
    engines change, the context's ``drive`` is set to the new state's index
    and nothing is copied.  At the segment end the master's observed codes
    go back to the master program as ``bytes``.  The sample budget is
    checked once per segment, before it runs, and its noise rows are drawn
    then, straight into the context's buffer, the same values as one
    ``rng.normal(0, noise_rms)`` draw up front.  A run may ask for at most
    ``MAX_RUN_SAMPLES`` samples (``quarters_upper_bound`` times the samples
    per quarter); more raise ``TopologyError`` before anything is
    allocated.  The keying depth is taken over the amplitudes some sample
    ran under, read from the table's ``used`` flags once the run ends.
    Deterministic for a fixed seed, and the same on both kernel backends.
    Returns the metrics and the decoded transactions; pass a dict as
    ``trace_sink`` to capture per-sample detector/reference traces for
    every node.
    """
    from . import kernels  # on use, so loading a scenario does not import the kernel modules

    _check_run_settings(clock_hz, sim_rate, noise_rms, seed)
    if sim_rate is None:
        sim_rate = SAMPLES_PER_BIT * clock_hz
    master = MasterEngine(transactions, clock_hz)
    n_quarters = master.quarters_upper_bound()
    per_quarter = sim_rate / (QUARTERS_PER_BIT * clock_hz)
    # the first test keeps an infinite ratio away from round()
    if per_quarter > MAX_RUN_SAMPLES or n_quarters * round(per_quarter) > MAX_RUN_SAMPLES:
        raise TopologyError(
            f"sim_rate {sim_rate:.4g} Hz at a {clock_hz:.4g} Hz clock asks for more than "
            f"{MAX_RUN_SAMPLES} samples ({n_quarters} quarter bits of {per_quarter:.4g} samples)"
        )
    spq = round(per_quarter)
    if spq < MIN_SAMPLES_PER_QUARTER:
        raise ProtocolError(
            f"sim_rate {sim_rate:.4g} Hz gives {spq} samples per quarter bit at "
            f"{clock_hz:.4g} Hz clock; need >= {MIN_SAMPLES_PER_QUARTER}"
        )
    sim_rate = QUARTERS_PER_BIT * clock_hz * spq
    for line in LINES:
        check_carrier_separation(clock_hz, topology.line_carrier(line).frequency)

    n_alloc = n_quarters * spq
    nodes = topology.nodes
    n_nodes = len(nodes)
    mi = topology.master_index
    # the master node drives SDA from its intents, so a slave model on it is never heard
    engines: list[SlaveEngine | None] = [
        None if n.slave is None or ni == mi else SlaveEngine(dataclasses.replace(
            n.slave, registers=dict(n.slave.registers), widths=dict(n.slave.widths)
        ))
        for ni, n in enumerate(nodes)
    ]

    rng = np.random.default_rng(seed)
    noisy = noise_rms > 0

    # Same input, same state, same floats: without noise one group of streams
    # serves every node, with noise each node reads its own noise column.
    # Stream li * n_groups + g is line li of group g, so a noise row
    # (line, node) flattens onto the streams.
    members_of = [(ni,) for ni in range(n_nodes)] if noisy else [range(n_nodes)]
    groups = [SlaveGroup(engines[ni] for ni in members if engines[ni] is not None) for members in members_of]
    n_groups = len(groups)
    node_of = {e: ni for ni, e in enumerate(engines) if e is not None}
    scl_drives = {H: (False,) * n_nodes, L: tuple([i == mi for i in range(n_nodes)])}
    tracing = trace_sink is not None
    slicer = SlicerParams.for_bit_rate(clock_hz)
    ctx = kernels.BlockContext(
        n_groups,
        floor=_DETECTOR.floor_volts,
        ref_in=_DETECTOR.ref_in,
        ref_out=_DETECTOR.ref_out,
        k=20.0 * _DETECTOR.slope,
        alpha=slicer.alpha(sim_rate),
        hysteresis=slicer.hysteresis,
        samples_per_quarter=spq,
        quarters=n_quarters,
        master=mi if noisy else 0,
        # rows are drawn a segment at a time, just before it runs
        noise=np.empty((n_alloc, 2 * n_nodes)) if noisy else None,
        traces=tracing,
    )
    step = kernels.block_stepper()
    hears, events, rx_shift, rx_bits = ctx.hears, ctx.events, ctx.rx_shift, ctx.rx_bits
    byte_code, hear_data, hear_all = 2 * EDGE_BYTE, kernels.HEAR_DATA, kernels.HEAR_ALL
    hear_byte, send_byte = kernels.HEAR_BYTE, kernels.SEND_BYTE
    hears[:] = [hear_all if group.listening else hear_data if group.engines else kernels.HEAR_NONE
                for group in groups]

    table = _AmplitudeTable.for_topology(topology)
    carrier_line_index = {c.line: j for j, c in enumerate(topology.carriers)}
    jscl, jsda = carrier_line_index["scl"], carrier_line_index["sda"]
    # the context's index of the drive state of each group's ``pulling`` engines
    states: dict[tuple[tuple[SlaveEngine, ...], ...], int] = {}

    def drive_state(pulled: tuple[tuple[SlaveEngine, ...], ...]) -> int:
        drive = states.get(pulled)
        if drive is None:
            sda = [False] * n_nodes
            for pulling in pulled:
                for e in pulling:
                    sda[node_of[e]] = True
            rows = []
            for code in range(4):
                sda[mi] = (code & 1) == L
                # tuple(list), not tuple(genexpr): the latter shrinks an oversized
                # tuple and strands the freed ones on CPython's free list (~0.2 MB)
                a = table(scl_drives[code >> 1], tuple(sda))
                rows.append([a[jscl]] * n_groups + [a[jsda]] * n_groups)
            drive = states[pulled] = ctx.add_drive(rows, any(pulled))
        return drive

    sender = -1  # the group whose byte the kernel clocks out, or -1
    tx_pulls: tuple[tuple[SlaveEngine, ...], ...] = ((), ())  # its pulling engines: SDA released, pulled
    tx_key = None  # the other groups' drives and the sender behind the context's two send states

    def set_drives(pulled: list[tuple[SlaveEngine, ...]]) -> None:
        """Set the context's drive state to that of ``pulled``, and the sender's two send states."""
        nonlocal tx_key
        ctx.drive = drive_state(tuple(pulled))
        if sender < 0:
            return
        own = pulled[sender]
        pulled[sender] = ()
        key = (tuple(pulled), tx_pulls[1])
        if key != tx_key:
            tx_key = key
            released = drive_state(key[0])
            pulled[sender] = tx_pulls[1]
            ctx.tx_drive[:] = released, drive_state(tuple(pulled))
        pulled[sender] = own

    pulling = [group.pulling for group in groups]  # each group's, refreshed after its falls and data edges
    set_drives(pulling)
    program = master.segments()
    seg = next(program)
    while True:
        q0, q_end = ctx.quarter, ctx.quarter + len(seg)
        if q_end > n_quarters:  # every quarter of the segment must fit the buffers
            raise ProtocolError(
                f"run outgrew its {n_alloc}-sample budget at sample {q0 * spq}: "
                "MasterEngine.quarters_upper_bound undercounts the script"
            )
        ctx.code[q0:q_end] = np.frombuffer(seg, dtype=np.uint8)
        ctx.q_end = q_end
        if noisy:
            # the same values as one up-front draw of every row: a Generator's stream is
            # sequential.  normal(0, noise_rms) would give 0.0 + noise_rms * z of the same z,
            # which differs only in the sign of a zero, and a row only enters amp + noise
            rows = ctx.noise[q0 * spq:q_end * spq]
            rng.standard_normal(out=rows)
            with np.errstate(over="ignore"):  # as normal() at a noise_rms near the float limit
                rows *= noise_rms
        if q0 == 0:
            first = ctx.amps[ctx.drive, ctx.code[0]] + ctx.noise[0] if noisy else ctx.amps[ctx.drive, ctx.code[0]]
            ctx.ref[:] = initial_reference(_DETECTOR, first.tolist())
        while True:
            step(ctx)
            if sender >= 0:  # the kernel keys the sender's SDA
                pulling[sender] = tx_pulls[ctx.drive == ctx.tx_drive[1]]
            moved = False  # some group's pulling engines changed, or the sender did
            for e in events[:ctx.n_events].tolist():
                g = e >> 3
                group = groups[g]
                if e & 6 == byte_code:
                    if g == sender:
                        group.sent(not e & 1)
                    else:
                        group.byte(int(rx_shift[g]))
                elif not group.edge(e & 7):
                    continue
                # the group's lists may have moved
                if group.sending and sender in (-1, g):  # the kernel clocks its byte out
                    if sender != g:
                        sender, tx_pulls = g, ((), tuple(group.listening))
                        moved = True
                    hears[g] = send_byte
                    rx_shift[g], rx_bits[g] = 0, group.bits
                    ctx.tx_byte = group.tx_byte
                else:
                    if g == sender:
                        sender = -1
                    if group.receiving:  # it opened a byte: the kernel clocks it in
                        hears[g] = hear_byte
                        rx_shift[g] = rx_bits[g] = 0
                    else:
                        hears[g] = hear_all if group.listening else hear_data
                if group.pulling != pulling[g]:
                    pulling[g] = group.pulling
                    moved = True
            if moved:
                set_drives(pulling)
            if ctx.quarter == q_end:
                break
        try:
            seg = program.send(ctx.obs[q0:q_end].tobytes())
        except StopIteration:
            break
    # the amplitudes some sample ran under, drive state by drive state
    ran = ctx.used[:ctx.n_drives].astype(bool)
    isample = ctx.quarter * spq

    depth = {}
    for line, stream in (("scl", 0), ("sda", n_groups)):
        vals = ctx.amps[:ctx.n_drives, :, stream][ran].tolist()
        hi, lo = max(vals), min(vals)
        depth[line] = 20.0 * math.log10(hi / lo) if lo > 0 else math.inf

    if tracing:
        trace: dict[str, np.ndarray] = {
            "time_s": np.arange(isample, dtype=np.float64) / sim_rate,
            "wire_scl": ctx.trace_wire[:isample, 0].astype(np.int64),
            "wire_sda": ctx.trace_wire[:isample, 1].astype(np.int64),
        }
        columns = (
            ("det", ctx.trace_det, np.float64),
            ("ref", ctx.trace_ref, np.float64),
            ("out", ctx.trace_out, np.int64),
        )
        for ni, node in enumerate(nodes):
            g = ni if noisy else 0
            for li, line in enumerate(LINES):
                for prefix, arr, dtype in columns:
                    trace[f"{prefix}_{node.name}_{line}"] = arr[:isample, li * n_groups + g].astype(dtype)
        trace_sink.update(trace)

    results = master.results
    nodes_per_stream = n_nodes // n_groups
    metrics = LinkMetrics(
        bit_errors=dict(zip(LINES, (ctx.bit_errors * nodes_per_stream).tolist())),
        bits_checked=dict(zip(LINES, (ctx.bits_checked * nodes_per_stream).tolist())),
        eye_margin_v={line: (v if math.isfinite(v) else 0.0) for line, v in zip(LINES, ctx.eye.tolist())},
        depth_db=depth,
        transactions_attempted=len(transactions),
        transactions_completed=sum(1 for t in results if t.completed),
        results=tuple(results),
        clock_hz=clock_hz,
        sim_rate=sim_rate,
        seed=seed,
        noise_rms=noise_rms,
        n_samples=isample,
    )
    return metrics, results


def sweep_node_count(
    topology: BusTopology,
    n_range: Sequence[int],
    min_depth_db: float = 6.0,
) -> list[dict]:
    """Replicate the first slave node to n slaves and report keying depth.

    Depth per line is the all-released amplitude over the amplitude with
    one node pulling that line low, in dB.  One ``_AmplitudeTable`` of the
    master and ``max(n_range)`` copies of the slave serves every count: n
    reads the first n + 1 nodes, the same sum an n-slave table makes.  A
    row passes when every line clears ``min_depth_db``, which is positive.
    Each count is an integer (not a bool) of at least 1.
    """
    template = next((n for n in topology.nodes if n.role == "slave"), None)
    if template is None:
        raise TopologyError("need a slave node to replicate")
    for n in n_range:
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise TopologyError(f"node counts must be integers of at least 1, got {n!r}")
    if not min_depth_db > 0.0:  # NaN fails too
        raise TopologyError(f"min_depth_db must be positive, got {min_depth_db!r}")
    master = topology.nodes[topology.master_index]
    n_max = max(n_range, default=0)
    nodes = (master,) + tuple(
        dataclasses.replace(template, name=f"{template.name}_{k}", slave=None) for k in range(n_max)
    )
    table = _AmplitudeTable(dataclasses.replace(topology, nodes=nodes))
    rows = []
    for n in n_range:
        released = (False,) * (n + 1)
        last_pulls = released[:-1] + (True,)
        high = table(released, released)
        row: dict = {"n": n}
        ok = True
        for j, c in enumerate(topology.carriers):
            vl = table(*(last_pulls if line == c.line else released for line in LINES))[j]
            d = 20.0 * math.log10(high[j] / vl) if vl > 0 else math.inf
            row[f"depth_db_{c.line}"] = d
            ok = ok and d >= min_depth_db
        row["ok"] = ok
        rows.append(row)
    return rows


# -- scenario files ---------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """A loaded scenario file, ready to run."""

    topology: BusTopology
    transactions: tuple[Transaction, ...]
    clock_hz: float
    sim_rate: float
    seed: int
    noise_rms: float

    def run(
        self,
        seed: int | None = None,
        noise_rms: float | None = None,
        trace_sink: dict | None = None,
    ) -> tuple[LinkMetrics, list[Transaction]]:
        return run_scenario(
            self.topology,
            self.transactions,
            self.clock_hz,
            sim_rate=self.sim_rate,
            noise_rms=self.noise_rms if noise_rms is None else noise_rms,
            seed=self.seed if seed is None else seed,
            trace_sink=trace_sink,
        )


def _element_from_text(text: object) -> Network:
    for unit, make in (("H", inductor), ("F", capacitor), ("ohm", resistor)):
        try:
            return make(parse_quantity(text, unit))
        except UnitError:
            continue
    raise UnitError(f"cannot read element {text!r}: expected an H, F, or ohm quantity")


def _network_from_list(items: object) -> Network:
    if not (isinstance(items, list) and items):
        raise UnitError(f"expected a non-empty list of elements, got {items!r}")
    return series(*map(_element_from_text, items))


def _script(value: object, base: Path) -> list[Transaction]:
    """A script path relative to ``base``, or a list of script lines."""
    if isinstance(value, list):
        return parse_script("\n".join(str(s) for s in value))
    if isinstance(value, str):
        return read_config(base / value, str, parse_script)
    raise ConfigError(f"must be a script path or a list of script lines, got {value!r}")


def load_scenario(path: str | Path) -> Scenario:
    """Load a YAML scenario: carriers, pull-ups, nodes, script, run settings.

    All physical values carry unit suffixes (``20MHz``, ``4.7uH``,
    ``2kohm``); the script is a path relative to the scenario file or an
    inline list of script lines.  Every key is checked where it is read and
    a key the scenario does not have is an error: each problem raises a
    ``ConfigError`` that names the file and the key path.
    """
    path = Path(path)
    return read_config(path, yaml.safe_load, lambda raw: _read_scenario(raw, path.parent), (yaml.YAMLError,))


def _read_scenario(raw: object, base: Path) -> Scenario:
    r = KeyReader(raw, error=TopologyError)
    r.choice("schema_version", (1,), 1)
    clock = r.quantity("clock", "Hz")
    sim_rate = r.quantity("sim_rate", "Hz", SAMPLES_PER_BIT * clock)
    seed = r.integer("seed", 0)
    noise_rms = r.quantity("noise_rms", "V", 0.0, zero_ok=True)
    attenuation_db = r.quantity("attenuation_db", "", 0.0, zero_ok=True)
    lr = r.child("loss", {})
    # inductor_q: null is the lossless model
    q = None if lr.get("inductor_q", default=DEFAULT_Q) is None else lr.quantity("inductor_q", "", DEFAULT_Q)
    loss = lr.build(LossModel, inductor_q=q, q_ref_hz=lr.quantity("q_ref", "Hz", DEFAULT_Q_REF_HZ))
    lr.done()
    which = r.choice("which", ("exact", "snapped"), "snapped")
    eseries = r.choice("eseries", tuple(ESERIES), "E12")

    pr = r.child("pullups", {})
    pullups = {line: pr.get(line, _network_from_list, None) for line in LINES}
    pr.done()
    carriers = []
    for cr in r.children("carriers"):
        line = cr.choice("line", LINES)
        pullup = cr.get("pullup", _network_from_list, pullups[line])
        if pullup is None:
            raise cr.error(f"{cr.where('pullup')}: no pull-up network for {line} here or in pullups.{line}")
        frequency, amplitude = cr.quantity("frequency", "Hz"), cr.quantity("amplitude", "V")
        carriers.append(cr.build(CarrierSpec, line=line, frequency=frequency, amplitude=amplitude,
                                 pullup=pullup))
        cr.done()
    dc_feed = r.get("dc_feed", _network_from_list, None)

    design_for = functools.cache(synthesize)  # nodes with one spec share its design

    def line_filters(fr: KeyReader) -> dict[str, FilterDesign]:
        readers = {line: fr.child(line) for line in LINES if line in fr.data}
        fr.done()
        return {line: lr.build(design_for, spec=spec_from_dict(lr, eseries)) for line, lr in readers.items()}

    defaults = line_filters(r.child("filter_defaults", {}))
    nodes = []
    for nr in r.children("nodes"):
        role = nr.choice("role", ("master", "slave"), "slave")
        name = nr.get("name", str, f"node{len(nodes)}")
        filters = {**defaults, **line_filters(nr.child("filters", {}))}
        address = nr.integer("address", None, high=0x7F)
        registers = _registers(nr.child("registers", {}), low=0)
        widths = _registers(nr.child("widths", {}), low=1)
        nr.done()
        slave = (nr.build(SlaveModel, address=address, registers=registers, widths=widths)
                 if role == "slave" and address is not None else None)
        nodes.append(nr.build(NodeSpec, name=name, role=role, filters=filters, loss=loss, which=which,
                              slave=slave))

    topo = r.build(BusTopology, carriers=tuple(carriers), nodes=tuple(nodes), dc_feed=dc_feed,
                   attenuation_db=attenuation_db)
    txns = tuple(r.get("script", lambda value: _script(value, base)))
    r.done()
    return Scenario(topo, txns, clock_hz=clock, sim_rate=sim_rate, seed=seed, noise_rms=noise_rms)


def _registers(r: KeyReader, low: int) -> dict[int, int]:
    """Register numbers (a key that is not an integer is unknown) to integers of at least ``low``."""
    registers = {key: r.integer(key, low=low) for key in r.data if type(key) is int}
    r.done()
    return registers
