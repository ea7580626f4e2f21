import copy
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdmlink.protocol import (
    CHECKPOINT,
    EDGE_DATA,
    EDGE_FALL,
    EDGE_RISE,
    HEAR_ALL,
    HEAR_BYTE,
    HEAR_DATA,
    HEAR_NONE,
    MAX_CLOCK_HZ,
    SEND_BYTE,
    RESERVED_ADDRESSES,
    MasterEngine,
    ProtocolError,
    SlaveEngine,
    SlaveGroup,
    SlaveModel,
    Transaction,
    master_run,
    parse_script,
    run_ideal_bus,
    script_line,
)


def test_reserved_addresses():
    assert 0x00 in RESERVED_ADDRESSES and 0x07 in RESERVED_ADDRESSES
    assert 0x78 in RESERVED_ADDRESSES and 0x7F in RESERVED_ADDRESSES
    assert 0x08 not in RESERVED_ADDRESSES and 0x77 not in RESERVED_ADDRESSES
    assert len(RESERVED_ADDRESSES) == 16


def test_transaction_validation():
    with pytest.raises(ProtocolError):
        Transaction.write(0x80, [0x00])
    with pytest.raises(ProtocolError):
        Transaction.read(-1, 1)
    t = Transaction.write(0x18, [0x05, 0xFF])
    assert t.direction == "write" and t.payload == b"\x05\xff"
    assert t.to_dict()["address"] == 0x18


@pytest.mark.parametrize("make,field", [
    (lambda: Transaction.read(0x20, 2.5), "read_length"),
    (lambda: Transaction.read(0x20, True), "read_length"),
    (lambda: Transaction.write(32.5, b"\x01"), "address"),
    (lambda: Transaction.write(True, b"\x01"), "address"),
    (lambda: Transaction("32", "write", b"\x01"), "address"),
    (lambda: Transaction.write(0x20, [0x01, 256]), "payload"),
    (lambda: Transaction.write(0x20, [-1]), "payload"),
    (lambda: Transaction.write(0x20, [1.0]), "payload"),
    (lambda: Transaction(0x20, "write", 3), "payload"),  # bytes(3) would be three zero bytes
], ids=["read_length_float", "read_length_bool", "address_float", "address_bool", "address_str",
        "payload_256", "payload_negative", "payload_float", "payload_int"])
def test_transaction_rejects_field_values_that_are_not_integers_in_range(make, field):
    with pytest.raises(ProtocolError, match=field):
        make()


def test_transaction_takes_numpy_integers_as_ints():
    t = Transaction.read(np.int64(0x20), np.uint8(2))
    assert type(t.address) is int and type(t.read_length) is int
    assert t == Transaction.read(0x20, 2)
    # one byte per value, not the array's raw int64 memory
    assert Transaction.write(0x20, np.array([1, 2])).payload == b"\x01\x02"


def test_master_runs_its_program_once():
    """A second program on one engine raises instead of appending a second set of results."""
    master = MasterEngine(Transaction.write(0x18, [0x05]), 100e3)
    run_ideal_bus(master, [SlaveEngine(_temp_slave())])
    assert len(master.results) == 1
    for again in (lambda: run_ideal_bus(master, [SlaveEngine(_temp_slave())]), master.segments, master.generator):
        with pytest.raises(ProtocolError, match="has run its program"):
            again()
    assert len(master.results) == 1


def test_master_rejects_reserved_and_bad_clock():
    with pytest.raises(ProtocolError, match="reserved"):
        MasterEngine(Transaction.write(0x03, [0]), 100e3)
    with pytest.raises(ProtocolError, match="clock"):
        MasterEngine(Transaction.write(0x18, [0]), MAX_CLOCK_HZ * 2)
    with pytest.raises(ProtocolError):
        MasterEngine([], 100e3)


def test_nan_clock_is_refused():
    with pytest.raises(ProtocolError, match="clock"):
        MasterEngine(Transaction.write(0x18, [0]), math.nan)
    with pytest.raises(ProtocolError, match="clock"):
        master_run(Transaction.write(0x18, [0]), math.nan, [_temp_slave()])


def _temp_slave(addr=0x18, value=0x0190):
    return SlaveModel(address=addr, registers={0x05: value}, widths={0x05: 2})


@pytest.mark.parametrize("width", [0, -2])
def test_slave_model_refuses_a_register_under_one_byte(width):
    """A width below 1 is refused where the model is built, naming the register, not in a read."""
    with pytest.raises(ProtocolError, match="register 5 of slave 0x18"):
        SlaveModel(0x18, registers={5: 7}, widths={5: width})


@pytest.mark.parametrize(
    "args,kwargs,field",
    [
        ((True,), {}, "slave address"),
        ((24.0,), {}, "slave address"),
        (("24",), {}, "slave address"),
        ((0x18, {0: 7}), {"widths": {0: 1.5}}, "width of register 0 of slave 0x18"),
        ((0x18, {0: 7.0}), {}, "register 0 of slave 0x18"),
        ((0x18, {0: False}), {}, "register 0 of slave 0x18"),
        ((0x18, {"0": 7}), {}, "register number in registers of slave 0x18"),
        ((0x18, {}), {"widths": {1.0: 2}}, "register number in widths of slave 0x18"),
        ((0x18,), {"pointer": 0.5}, "pointer of slave 0x18"),
        ((0x18, [7]), {}, "registers of slave 0x18 must be a dict"),
    ],
)
def test_slave_model_refuses_fields_that_are_not_integers(args, kwargs, field):
    """Each bad field is named where the model is built, not mid-run in a read."""
    with pytest.raises(ProtocolError, match=re.escape(field)):
        SlaveModel(*args, **kwargs)


@pytest.mark.parametrize(
    "registers,widths,pointer,field",
    [
        ({1: 0x123456}, {}, 0, "register 1 of slave 0x18 holds 0x123456"),
        ({0: -1}, {}, 0, "register 0 of slave 0x18 holds -0x1"),
        ({5: 0x100}, {5: 1}, 0, "register 5 of slave 0x18 holds 0x100"),
        ({5: 256**3}, {5: 3}, 0, "register 5 of slave 0x18 holds 0x1000000"),
        ({}, {}, 256, "pointer of slave 0x18 is 256"),
        ({}, {}, -1, "pointer of slave 0x18 is -1"),
    ],
    ids=["three_bytes_in_two", "negative", "two_bytes_in_one", "four_bytes_in_three", "pointer_256",
         "pointer_negative"],
)
def test_slave_model_refuses_values_wider_than_their_register(registers, widths, pointer, field):
    """A value must fit its register's bytes, and the pointer one byte; before, reads truncated them."""
    with pytest.raises(ProtocolError, match=re.escape(field)):
        SlaveModel(0x18, registers, pointer=pointer, widths=widths)


def test_slave_model_takes_values_that_fill_their_register():
    m = SlaveModel(0x18, {0: 0xFFFF, 5: 0xFF, 6: 256**3 - 1}, pointer=255, widths={5: 1, 6: 3})
    assert master_run(Transaction.read(0x18, 2), 100e3, [m])[2][0].payload == b"\x00\x00"
    m.pointer = 6
    assert master_run(Transaction.read(0x18, 3), 100e3, [m])[2][0].payload == b"\xff\xff\xff"


def test_slave_model_takes_numpy_integers_as_ints():
    m = SlaveModel(np.int64(0x18), {np.int32(5): np.uint16(0x1234)}, pointer=np.int8(5),
                   widths={np.int64(5): np.int64(2)})
    assert m == SlaveModel(0x18, {5: 0x1234}, pointer=5, widths={5: 2})
    assert {type(v) for v in (m.address, m.pointer, *m.registers, *m.registers.values(), *m.widths,
                              *m.widths.values())} == {int}
    assert master_run(Transaction.read(0x18, 3), 100e3, [m])[2][0].payload == bytes([0x12, 0x34, 0x12])


def test_slave_group_refuses_a_shared_address():
    """Two slaves at one address would both answer it; one address receiver per group tells only one."""
    with pytest.raises(ProtocolError, match="share the address 0x18"):
        SlaveGroup([SlaveEngine(_temp_slave(0x18)), SlaveEngine(_temp_slave(0x19)), SlaveEngine(_temp_slave(0x18))])
    with pytest.raises(ProtocolError, match="share the address 0x18"):
        master_run(Transaction.read(0x18, 2), 100e3, [_temp_slave(), _temp_slave()])


def test_group_mode_follows_the_transfer_on_the_ideal_bus(monkeypatch):
    """``mode`` through a write and a read to 0x18, a bystander at 0x19 on the bus, at each edge where it moves.

    Idle, the group hears only STARTs and STOPs; a START opens the address
    byte; the addressed engine's ACK slots hear every edge; a write-data
    byte is clocked in and a read-data byte clocked out; the NACK of the
    last read byte and a STOP leave it idle.
    """
    from fdmlink import protocol

    assert SlaveGroup([]).mode == HEAR_NONE
    moves = []

    class Recording(SlaveGroup):
        def __init__(self, engines):
            super().__init__(engines)
            moves.append((None, self.mode))

        def edge(self, code):
            moved = super().edge(code)
            if self.mode != moves[-1][1]:
                kind = code >> 1
                moves.append(("start" if code == 2 * EDGE_DATA else "stop" if kind == EDGE_DATA
                              else "rise" if kind == EDGE_RISE else "fall", self.mode))
            return moved

    monkeypatch.setattr(protocol, "SlaveGroup", Recording)
    slaves = [SlaveEngine(_temp_slave(0x18)), SlaveEngine(_temp_slave(0x19))]
    master = MasterEngine([Transaction.write(0x18, [0x05]), Transaction.read(0x18, 1)], 100e3)
    run_ideal_bus(master, slaves)
    assert all(t.completed for t in master.results)
    assert moves == [
        (None, HEAR_DATA),
        ("start", HEAR_BYTE), ("fall", HEAR_ALL),  # the address byte, then its ACK slot
        ("fall", HEAR_BYTE), ("fall", HEAR_ALL), ("fall", HEAR_BYTE),  # the data byte, its ACK slot, the next
        ("stop", HEAR_DATA),
        ("start", HEAR_BYTE), ("fall", HEAR_ALL),
        ("fall", SEND_BYTE), ("fall", HEAR_DATA),  # the read-data byte, up to the fall after its NACK
    ]


def test_write_then_read_round_trip():
    slave = _temp_slave()
    txs = [
        Transaction.write(0x18, [0x05]),
        Transaction.read(0x18, 2),
    ]
    _, _, res = master_run(txs, 100e3, [slave])
    assert res[0].completed and res[0].acks == (True, True)
    assert res[1].completed and list(res[1].payload) == [0x01, 0x90]


def test_absent_slave_nacks_and_aborts():
    _, _, res = master_run([Transaction.write(0x20, [0x00, 0x01])], 100e3, [_temp_slave()])
    assert not res[0].completed
    assert res[0].acks == (False,)  # address byte only; no data clocked out
    assert list(res[0].payload) == [0x00, 0x01]  # program text is preserved


def test_register_write_commits_full_word():
    slave = _temp_slave()
    txs = [
        Transaction.write(0x18, [0x06, 0xAB, 0xCD]),
        Transaction.write(0x18, [0x06]),
        Transaction.read(0x18, 2),
    ]
    _, _, res = master_run(txs, 100e3, [slave])
    assert slave.registers[0x06] == 0xABCD
    assert list(res[2].payload) == [0xAB, 0xCD]


def test_long_read_wraps_register():
    slave = _temp_slave(value=0x1234)
    txs = [Transaction.write(0x18, [0x05]), Transaction.read(0x18, 5)]
    _, _, res = master_run(txs, 100e3, [slave])
    assert list(res[1].payload) == [0x12, 0x34, 0x12, 0x34, 0x12]


def test_repeated_start_keeps_pointer():
    slave = _temp_slave()
    txs = [Transaction.write(0x18, [0x05], stop_after=False), Transaction.read(0x18, 2)]
    _, _, res = master_run(txs, 400e3, [slave])
    assert all(t.completed for t in res)
    assert list(res[1].payload) == [0x01, 0x90]


def test_eight_slaves_share_the_bus():
    slaves = [SlaveModel(address=0x18 + k, registers={0x05: 0x0190 + 4 * k}, widths={0x05: 2}) for k in range(8)]
    txs = []
    for k in range(8):
        txs += [Transaction.write(0x18 + k, [0x05]), Transaction.read(0x18 + k, 2)]
    _, _, res = master_run(txs, 100e3, slaves)
    for k in range(8):
        hi, lo = res[2 * k + 1].payload
        assert (hi << 8) | lo == 0x0190 + 4 * k


def test_partial_write_discarded_on_stop():
    # a 16-bit register needs two data bytes; one byte then STOP must not
    # corrupt the register
    slave = _temp_slave(value=0x0190)
    master_run([Transaction.write(0x18, [0x05, 0xAB])], 100e3, [slave])
    assert slave.registers[0x05] == 0x0190


def test_timeline_shape_and_rates():
    scl, sda, _ = master_run([Transaction.write(0x18, [0x05])], 100e3, [_temp_slave()])
    assert scl.sample_rate == sda.sample_rate
    assert scl.sample_rate >= 50 * 100e3
    assert len(scl.levels) == len(sda.levels)
    assert scl.levels[0] == 1 and sda.levels[0] == 1  # lead-in idles high
    assert scl.levels[-1] == 1 and sda.levels[-1] == 1  # released after STOP


def test_quarters_upper_bound_is_a_bound():
    txs = [
        Transaction.write(0x18, [0x05, 0x01, 0x02]),
        Transaction.read(0x18, 3),
        Transaction.write(0x20, [0x00]),  # NACK -> early abort
    ]
    master = MasterEngine(txs, 100e3)
    quarters = run_ideal_bus(master, [SlaveEngine(_temp_slave())], collect=True)
    assert len(quarters) <= master.quarters_upper_bound()


def test_bus_idles_between_transactions():
    master = MasterEngine([Transaction.write(0x18, [0x05]), Transaction.read(0x18, 1)], 100e3)
    quarters = run_ideal_bus(master, [SlaveEngine(_temp_slave())], collect=True)
    arr = np.asarray(quarters)
    assert arr.min() in (0, 1) and arr.max() == 1
    # both lines end released
    assert tuple(arr[-1]) == (1, 1)


# -- scripts --


def test_parse_script_round_trip():
    text = "# demo\nW 0x18 0x05\nR 0x18 2\nW 24 5 255\n"
    txs = parse_script(text)
    assert [t.direction for t in txs] == ["write", "read", "write"]
    assert txs[2].address == 24 and list(txs[2].payload) == [5, 255]
    assert script_line(txs[0]) == "W 0x18 0x05"
    assert script_line(txs[1]) == "R 0x18 2"
    assert parse_script("\n".join(script_line(t) for t in txs)) == txs


@pytest.mark.parametrize(
    "bad",
    ["X 0x18 1", "R 0x18", "R 0x18 zero", "W 0x18 0x100", "R 0x18 0"],
)
def test_parse_script_rejects(bad):
    with pytest.raises(ProtocolError, match="script line 1"):
        parse_script(bad)


def test_parse_script_reports_line_number():
    with pytest.raises(ProtocolError, match="script line 3"):
        parse_script("W 0x18 0x05\n\nR 0x18 junk\n")


# -- randomized program equivalence --

_addr = st.integers(min_value=0x08, max_value=0x77)
_byte = st.integers(min_value=0, max_value=0xFF)


_programs = st.lists(
    st.one_of(
        st.tuples(st.just("write"), _addr, st.lists(_byte, min_size=1, max_size=4)),
        st.tuples(st.just("read"), _addr, st.integers(min_value=1, max_value=4)),
    ),
    min_size=1,
    max_size=6,
)


def _slaves_and_transactions(program, regs):
    """One slave per address the program names, and the program's transactions."""
    slaves = {}
    for _, addr, _ in program:
        if addr not in slaves:
            slaves[addr] = SlaveModel(address=addr, registers=dict(regs))
    txs = []
    for kind, addr, arg in program:
        if kind == "write":
            txs.append(Transaction.write(addr, arg))
        else:
            txs.append(Transaction.read(addr, arg))
    return slaves, txs


@settings(max_examples=60, deadline=None)
@given(_programs, st.integers(min_value=0, max_value=2**31 - 1))
def test_random_programs_decode_byte_exact(program, seed):
    rng = np.random.default_rng(seed)
    regs = {k: int(rng.integers(0, 1 << 16)) for k in range(4)}
    slaves, txs = _slaves_and_transactions(program, regs)
    master = MasterEngine(txs, 400e3)
    run_ideal_bus(master, [SlaveEngine(s) for s in slaves.values()])
    assert len(master.results) == len(txs)
    # replay the register semantics independently
    pointers = {a: 0 for a in slaves}
    shadow = {a: dict(regs) for a in slaves}
    for t, r in zip(txs, master.results):
        assert r.completed
        a = t.address
        if t.direction == "write":
            data = list(t.payload)
            pointers[a] = data[0]
            if len(data) >= 3:
                shadow[a][pointers[a]] = ((data[1] << 8) | data[2]) & 0xFFFF
            expected_acks = (True,) * (1 + len(data))
            assert r.acks == expected_acks
        else:
            w = 2
            val = shadow[a].get(pointers[a], 0)
            stream = [(val >> (8 * (w - 1 - (k % w)))) & 0xFF for k in range(t.read_length)]
            assert list(r.payload) == stream


class _RiseRecorder(SlaveEngine):
    """A slave engine that records ``sda_drive`` before and after each ``on_scl_rise``."""

    def __init__(self, model):
        super().__init__(model)
        self.rises = []

    def on_scl_rise(self, sda):
        before = self.sda_drive
        super().on_scl_rise(sda)
        self.rises.append((before, self.sda_drive))


@settings(max_examples=60, deadline=None)
@given(_programs, st.integers(min_value=0, max_value=2**31 - 1))
def test_scl_rise_never_moves_sda_drive(program, seed):
    """The contract ``run_scenario`` relies on to keep its drives after a rising clock."""
    rng = np.random.default_rng(seed)
    regs = {k: int(rng.integers(0, 1 << 16)) for k in range(4)}
    slaves, txs = _slaves_and_transactions(program, regs)
    # a slave nobody addresses still sees every clock edge
    decoy = next(a for a in range(0x08, 0x78) if a not in slaves)
    slaves[decoy] = SlaveModel(address=decoy)
    engines = [_RiseRecorder(m) for m in slaves.values()]
    run_ideal_bus(MasterEngine(txs, 400e3), engines)
    rises = [r for e in engines for r in e.rises]
    assert all(before == after for before, after in rises)
    # every addressed slave ACKs its address with SCL high, so some rises see it driving
    assert any(before for before, _ in rises)


# -- the segment program against the per-quarter views --

_scripts = st.lists(
    st.tuples(
        st.sampled_from(["write", "read"]),
        _addr,
        st.lists(_byte, min_size=1, max_size=4),
        st.integers(min_value=1, max_value=4),
        st.booleans(),
    ),
    min_size=1,
    max_size=6,
)


def _script_transactions(script):
    return [
        Transaction.write(addr, data, stop_after=stop)
        if kind == "write"
        else Transaction.read(addr, n, stop_after=stop)
        for kind, addr, data, n, stop in script
    ]


def _drive(gen, feedback):
    """Run a per-quarter program, answering quarter i with ``feedback[i]``; return its intents."""
    quarters = [next(gen)]
    try:
        while True:
            quarters.append(gen.send(feedback[len(quarters) - 1]))
    except StopIteration:
        return quarters


class _EdgeChecker(SlaveEngine):
    """A slave engine that checks the ``listening`` invariants on every edge it gets."""

    def __init__(self, model):
        super().__init__(model)
        self.ignored = 0  # clock edges that reached it while it was not listening

    def _edge(self, edge, *args, starts=False):
        was = self.listening
        before = copy.deepcopy(vars(self))
        edge(*args)
        if not was:
            assert not before["sda_drive"] and not self.sda_drive
            if edge.__name__ != "on_sda_edge":
                assert vars(self) == before
                self.ignored += 1
        assert was or not self.listening or starts

    def on_scl_rise(self, sda):
        self._edge(super().on_scl_rise, sda)

    def on_scl_fall(self):
        self._edge(super().on_scl_fall)

    def on_sda_edge(self, sda, scl):
        self._edge(super().on_sda_edge, sda, scl, starts=scl == 1)


@settings(max_examples=60, deadline=None)
@given(_scripts, st.integers(min_value=0, max_value=2**31 - 1))
def test_slaves_that_are_not_listening_ignore_the_clock(script, seed):
    """The invariants that let both buses skip slaves that are not ``listening``."""
    from .oracles import deliver_to_all_bus

    rng = np.random.default_rng(seed)
    regs = {k: int(rng.integers(0, 1 << 16)) for k in range(4)}
    txs = _script_transactions(script)
    addrs = list(dict.fromkeys(t.address for t in txs))
    # a slave nobody addresses, and one of the addresses unanswered so its transfers NACK
    addrs.append(next(a for a in range(0x08, 0x78) if a not in addrs))
    models = [SlaveModel(address=a, registers=dict(regs)) for a in addrs[1:]]

    checkers = [_EdgeChecker(copy.deepcopy(m)) for m in models]
    everyone = MasterEngine(txs, 400e3)
    quarters = deliver_to_all_bus(everyone, checkers)
    assert sum(e.ignored for e in checkers) > 0

    listened = MasterEngine(txs, 400e3)
    engines = [SlaveEngine(copy.deepcopy(m)) for m in models]
    assert run_ideal_bus(listened, engines, collect=True) == quarters
    assert listened.results == everyone.results
    assert [e.model for e in engines] == [e.model for e in checkers]


_regs = st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_group_bus_matches_every_slave_taking_every_edge(data):
    """1-20 slaves at distinct addresses, repeated STARTs and absent addresses: the group's bus equals the oracle's."""
    from .oracles import deliver_to_all_bus

    addrs = data.draw(st.lists(_addr, min_size=1, max_size=20, unique=True), label="addresses")
    script = data.draw(st.lists(
        st.tuples(
            st.sampled_from(["write", "read"]),
            st.one_of(st.sampled_from(addrs), _addr),  # the second mostly names no slave
            st.lists(_byte, min_size=1, max_size=4),
            st.integers(min_value=1, max_value=4),
            st.booleans(),  # False chains a repeated START
        ),
        min_size=1,
        max_size=6,
    ), label="script")
    models = [SlaveModel(address=a, registers=dict(enumerate(data.draw(_regs)))) for a in addrs]
    txs = _script_transactions(script)

    everyone = MasterEngine(txs, 400e3)
    oracle = [SlaveEngine(copy.deepcopy(m)) for m in models]
    quarters = deliver_to_all_bus(everyone, oracle)
    grouped = MasterEngine(txs, 400e3)
    engines = [SlaveEngine(copy.deepcopy(m)) for m in models]
    assert run_ideal_bus(grouped, engines, collect=True) == quarters
    assert grouped.results == everyone.results
    assert [e.model for e in engines] == [e.model for e in oracle]


def _edge_ops(addrs):
    """Bus moves of the master: STARTs, STOPs, address and data bytes, writes, reads, cut bytes and single line changes."""
    address = st.tuples(st.one_of(st.sampled_from(addrs), st.integers(0, 0x7F)),
                        st.integers(0, 1)).map(lambda a: (a[0] << 1) | a[1])
    return st.lists(
        st.one_of(
            st.tuples(st.just("start")),
            # START, a slave's write address and data bytes (a STOP, START or lone edge may follow)
            st.tuples(st.just("write"), st.sampled_from(addrs), st.lists(_byte, max_size=3)),
            # START, a slave's read address, and the bytes it sends, each ACKed (True) or not
            st.tuples(st.just("read"), st.sampled_from(addrs), st.lists(st.booleans(), max_size=3)),
            # START, the first 0-9 bits of an address byte (the ninth is its ACK slot), then a STOP
            st.tuples(st.just("cut"), address, st.integers(0, 9)),
            st.tuples(st.just("stop")),
            st.tuples(st.just("byte"), address),
            st.tuples(st.just("byte"), _byte),
            st.tuples(st.just("scl")),  # a lone clock edge
            st.tuples(st.just("sda"), st.integers(0, 1)),  # under a high SCL, a START or STOP anywhere
        ),
        max_size=30,
    )


def _group_against_every_edge(data, to_group, pulled=lambda group: group.pulling):
    """Drive a group by ``to_group(group, code)`` and every-edge slaves alike; drives and models must agree.

    ``pulled(group)`` is the group's drive: its ``pulling``, unless
    something outside the group clocks out a byte it sends.  An engine whose
    byte its group sends keeps bit 7 in ``sda_drive`` until the ACK slot
    ends, so it is held to the oracle through that drive alone.
    """
    from .oracles import deliver_to_each

    addrs = data.draw(st.lists(st.integers(0, 0x7F), min_size=1, max_size=20, unique=True), label="addresses")
    models = [SlaveModel(address=a, registers=dict(enumerate(data.draw(_regs)))) for a in addrs]
    group = SlaveGroup(SlaveEngine(copy.deepcopy(m)) for m in models)
    oracle = [SlaveEngine(copy.deepcopy(m)) for m in models]
    scl, master_sda = 1, 1

    def bus_sda():
        return 0 if master_sda == 0 or any(e.sda_drive for e in oracle) else 1

    def deliver(code):
        to_group(group, code)
        deliver_to_each(oracle, code)
        drives = [e.sda_drive for e in oracle]
        sender = group.listening[0] if group.mode == SEND_BYTE else None
        assert [e.sda_drive for e in group.engines if e is not sender] == [
            d for e, d in zip(group.engines, drives) if e is not sender]
        assert pulled(group) == tuple(e for e, d in zip(group.engines, drives) if d)

    def clock():
        nonlocal scl
        scl ^= 1
        deliver(2 * (EDGE_RISE if scl else EDGE_FALL) + bus_sda())

    def set_sda(v):
        nonlocal master_sda
        before = bus_sda()
        master_sda = v
        if scl and bus_sda() != before:
            deliver(2 * EDGE_DATA + bus_sda())

    def bit(v):
        if scl:
            clock()
        set_sda(v)
        clock()

    def start():
        bit(1)
        set_sda(0)

    def stop():
        bit(0)
        set_sda(1)

    def byte(value, bits=9):
        for i in range(7, 7 - min(bits, 8), -1):
            bit((value >> i) & 1)
        if bits == 9:
            bit(1)  # the ACK slot, released by the master

    for op in data.draw(_edge_ops(addrs), label="ops"):
        if op[0] == "start":
            start()
        elif op[0] == "write":
            start()
            for value in [op[1] << 1, *op[2]]:
                byte(value)
        elif op[0] == "read":
            start()
            byte(op[1] << 1 | 1)
            for acked in op[2]:
                for _ in range(8):
                    bit(1)  # released: the slave sends
                bit(0 if acked else 1)
        elif op[0] == "cut":
            start()
            byte(op[1], op[2])
            stop()
        elif op[0] == "stop":
            stop()
        elif op[0] == "byte":
            byte(op[1])
        elif op[0] == "scl":
            clock()
        else:
            set_sda(op[1])
    assert [e.model for e in group.engines] == [e.model for e in oracle]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_group_edges_match_every_slave_taking_every_edge(data):
    """Edge by edge: the group's own byte receiver and sender drive SDA as every slave taking each bit would."""
    _group_against_every_edge(data, SlaveGroup.edge)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_stops_reach_only_listening_engines(data):
    """A STOP changes no engine outside the group's ``listening``, and the group still drives SDA as every-edge delivery does.

    The ops cut address bytes with a STOP after 0 to 9 bits, so engines
    left in the address state by another slave's address, and engines
    backing off, meet STOPs.
    """
    def to_group(group, code):
        if code != 2 * EDGE_DATA + 1:
            group.edge(code)
            return
        outside = [(e, copy.deepcopy(vars(e))) for e in group.engines if e not in group.listening]
        group.edge(code)
        assert all(vars(e) == before for e, before in outside)

    _group_against_every_edge(data, to_group)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_group_bytes_match_every_slave_taking_every_edge(data):
    """Bytes clocked in and out outside the group, as the link's block kernel does, drive SDA as every-edge delivery would.

    While the group receives or sends (``HEAR_BYTE`` or ``SEND_BYTE``), its
    rises and falls go to a shift register outside it, which its next START, STOP or opened
    byte resets.  While receiving, the first fall after the eighth rise
    hands the byte to ``byte``.  While sending, the falls before the ninth
    rise key the sent byte's bits and then release SDA outside the group,
    and the fall after it hands the ACK the ninth rise sampled to ``sent``.
    """
    rx = [0, 0]  # the SDA levels the open byte's rises sampled, and their count
    tx = [False]  # the drive of the byte being sent: pulling SDA low

    def to_group(group, code):
        kind = code >> 1
        if kind == EDGE_RISE and group.mode >= HEAR_BYTE:
            rx[:] = [(rx[0] << 1 | code & 1) & 0xFF, rx[1] + 1]
            return
        if kind == EDGE_FALL and group.mode == HEAR_BYTE:
            if rx[1] < 8:
                return
            group.byte(rx[0])
        elif kind == EDGE_FALL and group.mode == SEND_BYTE:
            if rx[1] < 9:
                tx[0] = rx[1] < 8 and not group.tx_byte >> (7 - rx[1]) & 1
                return
            group.sent(not rx[0] & 1)
        elif not group.edge(code):
            return
        if group.mode >= HEAR_BYTE:
            rx[:] = [0, 0]
            tx[0] = bool(group.pulling)

    def pulled(group):
        if group.mode == SEND_BYTE:
            return tuple(group.listening) if tx[0] else ()
        return group.pulling

    _group_against_every_edge(data, to_group, pulled)


@settings(max_examples=150, deadline=None)
@given(_scripts, st.integers(min_value=0, max_value=2**31 - 1), st.floats(0.0, 1.0))
def test_segments_flatten_to_the_per_quarter_program(script, seed, p_low):
    """Random ACK/NACK and read bits anywhere: segments, ``generator()`` and the old program agree.

    Each plan gets back the observations of its quarters up to its first
    NACKed checkpoint, as the block kernels stop there, and every plan but
    the last ran only up to one.
    """
    from .oracles import master_quarters

    txs = _script_transactions(script)
    rng = np.random.default_rng(seed)
    bound = MasterEngine(txs, 400e3).quarters_upper_bound()
    feedback = [tuple(int(v) for v in row) for row in (rng.random((bound, 2)) >= p_low)]
    codes = bytes(2 * scl + sda for scl, sda in feedback)

    seg_master = MasterEngine(txs, 400e3)
    program = seg_master.segments()
    segs = [next(program)]
    ran = []  # the quarters of each plan that ran
    flat = b""
    try:
        while True:
            seg = segs[-1]
            nacked = [i for i, c in enumerate(seg) if c & CHECKPOINT and codes[len(flat) + i] & 1]
            ran.append(seg[:nacked[0] + 1] if nacked else seg)
            obs = codes[len(flat):len(flat) + len(ran[-1])]
            flat += ran[-1]
            segs.append(program.send(obs))
    except StopIteration:
        pass
    assert all(type(s) is bytes for s in segs)
    assert set(flat) <= {0, 1, 2, 3, 3 | CHECKPOINT}
    intents = _decode(flat)

    gen_master = MasterEngine(txs, 400e3)
    ref_results: list = []
    assert _drive(gen_master.generator(), feedback) == intents
    assert _drive(master_quarters(gen_master, ref_results), feedback) == intents
    assert seg_master.results == gen_master.results == ref_results
    assert len(seg_master.results) == len(txs)
    assert len(flat) <= seg_master.quarters_upper_bound()
    # every plan but the last ran up to a NACKed checkpoint: the ACK sample of a byte the master sends
    for part, obs_end in zip(ran[:-1], itertools.accumulate(map(len, ran))):
        assert part[-1] == 3 | CHECKPOINT and _decode(part[-3:-1]) == [(0, 1), (1, 1)]
        assert codes[obs_end - 1] & 1
    assert ran[-1] == segs[-1]
    assert len(ran) == 1 + sum(not t.completed for t in seg_master.results)


def _decode(codes: bytes) -> list[tuple[int, int]]:
    """Quarter codes ``2 * scl + sda``, checkpoint flags dropped, as (scl, sda) pairs."""
    return [(c >> 1 & 1, c & 1) for c in codes]
