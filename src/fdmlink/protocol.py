"""Bit-accurate I2C master and slave engines over an abstract open-drain bus.

Both lines are wired-AND: any driver pulling low wins, releases float high
through the pull-ups.  The master is the only clock source (no stretching,
no arbitration); slaves are purely edge-reactive, so the same engines run
against the ideal bus (fast, quarter-bit event stepping) and against the
sampled analog link in the end-to-end simulator.  On both, a
:class:`SlaveGroup` hands the bus edges to the slaves; its docstring states
the delivery rule.

Each bit period is four quarters: data set while SCL is low (q0), SCL high
(q1, q2 - slaves sample on the rising edge, the master samples mid-high),
SCL low again (q3).  START and STOP are SDA edges during an SCL-high
quarter.  A transaction with ``stop_after=False`` chains into the next one
with a repeated START instead of STOP+START.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Generator, Iterable, Sequence

import numpy as np

from .modem import H, L, LogicTimeline
from .units import ConfigError

__all__ = [
    "RESERVED_ADDRESSES",
    "MAX_CLOCK_HZ",
    "QUARTERS_PER_BIT",
    "SAMPLES_PER_BIT",
    "ProtocolError",
    "Transaction",
    "SlaveModel",
    "SlaveEngine",
    "SlaveGroup",
    "MasterEngine",
    "run_ideal_bus",
    "master_run",
    "parse_script",
    "script_line",
]

# 0000xxx and 1111xxx are special-purpose in the addressing scheme
RESERVED_ADDRESSES = frozenset(range(0x00, 0x08)) | frozenset(range(0x78, 0x80))
MAX_CLOCK_HZ = 400_000
QUARTERS_PER_BIT = 4
# the samples per bit of master_run's timelines, and of a link run unless its sim_rate says otherwise
SAMPLES_PER_BIT = 64
# register bytes of a slave register that SlaveModel.widths does not name
DEFAULT_REGISTER_WIDTH = 2
# idle bits the master program starts with, and after each STOP
LEAD_IN_BITS = 8
GAP_BITS = 1
# the kinds of bus edge a SlaveGroup delivers, with the codes the block kernels log them by
# (``_kernels_py`` imports these; the enum in ``_blockkernel.c`` repeats them).  An
# ``EDGE_BYTE`` is the eighth fall of a byte the kernel clocked in whole, which the group takes
# through ``SlaveGroup.byte``, or the fall that ends the ACK slot of a byte it clocked out, which
# the group takes through ``SlaveGroup.sent``
EDGE_RISE, EDGE_FALL, EDGE_DATA, EDGE_BYTE = range(4)
# the flag bit of a master quarter that samples the ACK of a byte the master sends: a run stops
# after such a quarter when the master sees SDA high there, a NACK (``_kernels_py.step_block``
# states the rule; ``_kernels_py`` imports this, and the enum in ``_blockkernel.c`` repeats it)
CHECKPOINT = 4
# the modes of ``SlaveGroup.mode``, which says which of a group's edges the block kernels log
# (``SlaveGroup`` states them; ``_kernels_py`` imports these, and the enum in ``_blockkernel.c``
# repeats them)
HEAR_NONE, HEAR_DATA, HEAR_ALL, HEAR_BYTE, SEND_BYTE = range(5)


class ProtocolError(ConfigError):
    """Invalid transaction, address, or clock for the bus."""


def _integer(name: str, value: object) -> int:
    """``value`` as an ``int``; a bool or a non-integer raises ``ProtocolError`` naming ``name``."""
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ProtocolError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    return value


@dataclass(frozen=True)
class Transaction:
    """One addressed transfer; also the decoded result record.

    For writes ``payload`` is the data to send; for reads it is empty on
    input and carries the received bytes on the result.  ``acks`` records
    the observed acknowledge bits (address first).  ``stop_after=False``
    chains the next transaction with a repeated START.
    """

    address: int
    direction: str  # "write" | "read"
    payload: bytes = b""
    read_length: int = 0
    stop_after: bool = True
    acks: tuple[bool, ...] = ()
    completed: bool = False

    def __post_init__(self) -> None:
        for name in ("address", "read_length"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if not 0 <= self.address <= 0x7F:
            raise ProtocolError(f"address {self.address:#x} is not 7-bit")
        if self.direction not in ("write", "read"):
            raise ProtocolError(f"direction must be 'write' or 'read', got {self.direction!r}")
        if self.direction == "read" and self.read_length < 1 and not self.completed:
            raise ProtocolError("read transactions need read_length >= 1")
        try:
            # item by item: bytes() of an integer is that many zero bytes, and of a buffer of
            # wider items (a numpy int64 array) its raw memory
            payload = self.payload if type(self.payload) is bytes else bytes(list(self.payload))
        except (TypeError, ValueError):
            raise ProtocolError(f"payload must be bytes or integers in 0..255, got {self.payload!r}") from None
        object.__setattr__(self, "payload", payload)

    @staticmethod
    def write(address: int, payload: bytes, stop_after: bool = True) -> "Transaction":
        return Transaction(address, "write", payload, stop_after=stop_after)

    @staticmethod
    def read(address: int, length: int, stop_after: bool = True) -> "Transaction":
        return Transaction(address, "read", read_length=length, stop_after=stop_after)

    def to_dict(self) -> dict:
        return {
            "address": self.address,
            "direction": self.direction,
            "payload": list(self.payload),
            "read_length": self.read_length,
            "acks": list(self.acks),
            "completed": self.completed,
        }


@dataclass
class SlaveModel:
    """Register-file slave in the style of a pointer-addressed sensor.

    A write sets the pointer register with its first byte; following bytes
    fill the addressed register MSB-first.  Reads stream the register at
    the current pointer MSB-first, wrapping within the register so long
    reads repeat it.  A register is ``DEFAULT_REGISTER_WIDTH`` bytes (16 bits)
    wide unless ``widths`` names it.  The address, the pointer and every
    register number, value and width must be integers (not bools); numpy
    integers become ``int``.  The pointer is one byte, 0..255, and a value
    must fit its register: 0 <= value < 256 ** width.
    """

    address: int
    registers: dict[int, int] = field(default_factory=dict)
    pointer: int = 0
    widths: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.address = _integer("slave address", self.address)
        if not 0 <= self.address <= 0x7F:
            raise ProtocolError(f"slave address {self.address:#x} is not 7-bit")
        where = f"slave {self.address:#04x}"
        self.pointer = _integer(f"pointer of {where}", self.pointer)
        for name, entry in (("registers", "register {!r}"), ("widths", "width of register {!r}")):
            table = getattr(self, name)
            if not isinstance(table, dict):
                raise ProtocolError(f"{name} of {where} must be a dict, got {table!r}")
            # run_scenario copies every model per run, so the common all-int case stays one pass
            if not all(type(k) is int and type(v) is int for k, v in table.items()):
                setattr(self, name, {
                    _integer(f"register number in {name} of {where}", k):
                    _integer(f"{entry.format(k)} of {where}", v)
                    for k, v in table.items()
                })
        if not 0 <= self.pointer <= 0xFF:
            raise ProtocolError(f"pointer of {where} is {self.pointer}, outside 0..255")
        for reg, width in self.widths.items():
            if width < 1:
                raise ProtocolError(f"register {reg} of {where} is {width} bytes wide, need >= 1")
        for reg, value in self.registers.items():
            width = self.width(reg)
            if value < 0 or value >> 8 * width:
                raise ProtocolError(
                    f"register {reg} of {where} holds {value:#x}, which a {width}-byte register cannot hold"
                )

    def width(self, reg: int) -> int:
        return self.widths.get(reg, DEFAULT_REGISTER_WIDTH)

    def read_stream_byte(self, k: int) -> int:
        w = self.width(self.pointer)
        value = self.registers.get(self.pointer, 0)
        shift = 8 * (w - 1 - (k % w))
        return (value >> shift) & 0xFF

    def commit_write(self, data: Sequence[int]) -> None:
        """Apply a full register word written MSB-first."""
        w = self.width(self.pointer)
        value = 0
        for b in data[:w]:
            value = (value << 8) | (b & 0xFF)
        self.registers[self.pointer] = value & ((1 << (8 * w)) - 1)


class SlaveEngine:
    """Edge-driven protocol front end around a :class:`SlaveModel`.

    Call ``on_scl_rise(sda)`` / ``on_scl_fall()`` on clock edges and
    ``on_sda_edge(sda, scl)`` on data-line edges; read back ``sda_drive``
    (True = pulling low).  A START inside a byte resets the engine to
    address hunting, a STOP returns it to idle.

    Only ``on_scl_fall`` and ``on_sda_edge`` move ``sda_drive``;
    ``on_scl_rise`` samples SDA and leaves it alone, since I2C data changes
    only while SCL is low.

    ``on_address(byte)``, ``on_byte(byte)`` and ``on_sent(acked)`` take a
    whole byte at once: the address byte, a write-data byte once
    ``awaits_byte`` holds, and the master's ACK of the read-data byte
    ``tx_byte`` that the engine started sending when ``sends_byte`` held.
    The address and write-data states' falls call the first two once eight
    bits are in, and the fall that ends a read-data byte's ACK slot calls
    ``on_sent``; a :class:`SlaveGroup` calls them in place of the byte's
    clock edges.

    An engine is ``listening`` unless it is idle: before its first START,
    after a STOP, and once it backs off from a transfer addressed to
    another slave (or one the master NACKed), which stops it as a STOP
    does.  These invariants hold, and :class:`SlaveGroup`'s delivery rule
    rests on them:

    - an engine that is not listening leaves its whole state unchanged on
      ``on_scl_rise`` and ``on_scl_fall``, and its ``sda_drive`` is False;
    - it starts listening again only through ``on_sda_edge`` with SCL high
      (a START);
    - a START resets the whole address state, which drives nothing, and
      the next START or STOP resets it again.  So after ``on_address`` an
      engine differs from one that shifted the byte in only in its spent
      address register, which nothing reads, and an engine left in the
      address state until the next START or STOP acts as one that backed
      off;
    - in the write-data state a rise only shifts a bit in, and a fall
      changes nothing until eight bits are in; ``sda_drive`` is False
      throughout.  The fall that ends the byte's ACK and a START reset the
      shift register, and a STOP leaves the engine idle.  So after
      ``on_byte`` an engine differs from one that shifted the byte in only
      in its spent shift register, and a START or STOP inside the byte acts
      the same on both;
    - in the read-data state a rise only counts a bit, and the ACK slot's
      rise only samples the master's ACK.  The falls set ``sda_drive`` to
      ``tx_byte``'s bits, MSB first, then release SDA, and change nothing
      else until the ACK slot's fall calls ``on_sent``.  So after
      ``on_sent`` an engine differs from one clocked edge by edge only in
      its spent bit count and ACK flag, which the next byte or START
      resets.  While its group clocks the byte out for it, ``sda_drive``
      still holds bit 7 and the group's ``pulling`` (or the block kernel)
      is its drive; a START or STOP inside the byte releases SDA on both;
    - an engine outside its group's ``listening`` (idle, or left in the
      address state by another slave's address byte) acts as
      idle until the next START, which resets every engine: a STOP moves
      it to idle at most, and a START leaves the same state whether or not
      a STOP came first.  So a STOP need only reach the listening engines.
    """

    _IDLE, _ADDR, _ACK_ADDR, _WDATA, _ACK_WDATA, _RDATA, _ACK_RDATA = range(7)

    def __init__(self, model: SlaveModel):
        self.model = model
        self.sda_drive = False
        # whether clock edges can change the engine (it is not idle), kept with _state
        self.listening = False
        self._state = self._IDLE
        self._shift = 0
        self._nbits = 0
        self._rw = 0
        self._rk = 0
        self._wcount = 0
        self._wbuf: list[int] = []
        self._master_acked = False
        # the read-data byte being sent
        self.tx_byte = 0

    # -- line events ------------------------------------------------------

    def on_sda_edge(self, sda: int, scl: int) -> None:
        if scl != H:
            return
        if sda == L:
            self._start()
        else:
            self._stop()

    def on_scl_rise(self, sda: int) -> None:
        s = self._state
        if s in (self._ADDR, self._WDATA):
            self._shift = ((self._shift << 1) | (1 if sda else 0)) & 0xFF
            self._nbits += 1
        elif s == self._RDATA:
            self._nbits += 1
        elif s == self._ACK_RDATA:
            self._master_acked = sda == L

    def on_address(self, byte: int) -> None:
        """Take the address byte (address and R/W bit) clocked in since the START, on its eighth fall.

        The engine acknowledges an address of its own and stops at any other.
        """
        if (byte >> 1) == self.model.address:
            self._rw = byte & 1
            self._state = self._ACK_ADDR
            self.sda_drive = True
            self._rk = 0
            self._wcount = 0
            self._wbuf = []
        else:
            self._stop()

    def on_byte(self, byte: int) -> None:
        """Take a write-data byte clocked in since ``awaits_byte`` held, on its eighth fall, and acknowledge it."""
        if self._wcount == 0:
            self.model.pointer = byte
        else:
            self._wbuf.append(byte)
            if len(self._wbuf) == self.model.width(self.model.pointer):
                self.model.commit_write(self._wbuf)
                self._wbuf = []
        self._wcount += 1
        self._state = self._ACK_WDATA
        self.sda_drive = True

    @property
    def awaits_byte(self) -> bool:
        """At the start of a write-data byte: no bit of it is in yet."""
        return self._state == self._WDATA and self._nbits == 0

    @property
    def sends_byte(self) -> bool:
        """At the start of a read-data byte: ``tx_byte``'s bit 7 is driven and no rise is counted."""
        return self._state == self._RDATA and self._nbits == 0

    def on_sent(self, acked: bool) -> None:
        """Take the master's ACK of ``tx_byte``, on the fall that ends its ACK slot: send the next byte, or stop."""
        if acked:
            self._enter_rdata()
        else:
            self._stop()

    def on_scl_fall(self) -> None:
        s = self._state
        if s == self._ADDR:
            if self._nbits == 8:
                self.on_address(self._shift)
        elif s == self._ACK_ADDR:
            self.sda_drive = False
            if self._rw:
                self._enter_rdata()
            else:
                self._state = self._WDATA
                self._shift = 0
                self._nbits = 0
        elif s == self._WDATA:
            if self._nbits == 8:
                self.on_byte(self._shift)
        elif s == self._ACK_WDATA:
            self.sda_drive = False
            self._state = self._WDATA
            self._shift = 0
            self._nbits = 0
        elif s == self._RDATA:
            if self._nbits < 8:
                self.sda_drive = ((self.tx_byte >> (7 - self._nbits)) & 1) == 0
            else:
                self.sda_drive = False
                self._state = self._ACK_RDATA
        elif s == self._ACK_RDATA:
            self.on_sent(self._master_acked)

    # -- internals --------------------------------------------------------

    def _start(self) -> None:
        self._flush_write()
        self._state = self._ADDR
        self.listening = True
        self._shift = 0
        self._nbits = 0
        self.sda_drive = False

    def _stop(self) -> None:
        self._flush_write()
        self._state = self._IDLE
        self.listening = False
        self.sda_drive = False

    def _enter_rdata(self) -> None:
        self.tx_byte = self.model.read_stream_byte(self._rk)
        self._rk += 1
        self._state = self._RDATA
        self._nbits = 0
        self.sda_drive = ((self.tx_byte >> 7) & 1) == 0

    def _flush_write(self) -> None:
        # a partial register word at STOP/START is discarded
        self._wbuf = []
        self._wcount = 0


class SlaveGroup:
    """The slave engines that hear one bus, and the one rule that hands them its edges.

    A bus edge is the code ``2 * kind + sda``: an SCL rise (``EDGE_RISE``),
    an SCL fall (``EDGE_FALL``) or an SDA change under a steady high SCL, a
    START or a STOP (``EDGE_DATA``), with the SDA level the slaves see.  An
    SDA change while SCL is low is no edge and reaches no slave.  As on a
    real bus, a slave that has not matched the address ignores the clock
    until the next START, a slave receiving a byte acts only on its eighth
    fall, and a slave sending one acts on nothing but its ACK;
    :class:`SlaveEngine`'s invariants let the group skip the rest.  So, in
    engine order:

    - a START goes to every engine, a STOP only to the ``listening`` ones;
    - the group receives (``mode`` is ``HEAR_BYTE``) while a byte is open
      that its engines only listen to: the address byte after a START,
      which has reset every engine to the same empty address state, and a
      write-data byte that every listening engine ``awaits_byte``.  No rise
      or fall of the byte reaches an engine.  ``edge`` shifts the bits in
      on the rises, and the first fall after the eighth rise hands the byte
      to ``byte``.  There only the engine with that address gets
      ``on_address``, and every other one drops out until the next START,
      as it would back off alone; or each listening engine gets
      ``on_byte``;
    - the group sends (``mode`` is ``SEND_BYTE``) while its only listening
      engine clocks out a read-data byte, from the fall where it
      ``sends_byte``; the group holds that byte, ``tx_byte``.  No rise or
      fall of the byte or its ACK slot reaches the engine.  ``edge`` counts
      the rises, sets ``pulling`` to each bit on the falls before the ninth
      rise (the last one releases SDA), samples the ACK on the ninth rise,
      and the fall after it hands the ACK to ``sent``, which calls
      ``on_sent``;
    - other clock edges go only to the engines in ``listening``;
    - ``listening``, ``pulling`` and ``mode`` are re-read from the engines
      that were told after a fall that reaches an engine (an engine may
      stop, or start a byte), after a byte, a sent byte's ACK and a data
      edge (an engine may start or stop), never after a rise or a fall
      inside a byte.

    On the analog link the block kernel clocks the received and sent bytes
    itself, with the same rules, and ``simulate.run_scenario`` calls
    ``byte`` and ``sent``, so the engines get the same callbacks on both
    buses.  ``bits`` counts the rises of the open byte that ``edge`` was
    given: a second group sending at the same time goes edge by edge, and
    the kernel can take its byte over from there.

    During the address byte ``listening`` holds every engine.  Addresses
    are distinct, else the engines of one address would all answer it.
    ``pulling`` holds the engines that pull SDA low, in engine order.  It
    is re-read with ``listening``, since only a fall, a byte or a data edge
    moves a drive and an engine that is not listening pulls nothing; while
    the group sends, ``edge`` sets it on each fall (on the link the kernel
    keys SDA, and ``pulling`` keeps the drive of the byte's start).  The
    ideal bus (:func:`run_ideal_bus`) runs one group; the analog link
    (``simulate.run_scenario``) runs one per stream group.

    ``mode`` is one of ``protocol``'s hear modes, which on the link also
    say which of the group's edges the block kernel logs for it
    (``_kernels_py.step_block`` states how): ``HEAR_NONE`` for a group
    without engines, so no edge; ``HEAR_BYTE`` and ``SEND_BYTE`` while it
    receives or sends (the kernel clocks the byte from ``bits`` rises on,
    and logs only the fall that ends the byte or its ACK slot); else
    ``HEAR_ALL`` (every edge) while an engine is ``listening``, and
    ``HEAR_DATA`` (only STARTs and STOPs) otherwise.
    """

    def __init__(self, engines: Iterable[SlaveEngine]):
        self.engines = list(engines)
        self._by_address: dict[int, SlaveEngine] = {}
        for e in self.engines:
            if self._by_address.setdefault(e.model.address, e) is not e:
                raise ProtocolError(f"two slave engines share the address {e.model.address:#04x}")
        self.listening = [e for e in self.engines if e.listening]
        self.pulling = tuple([e for e in self.listening if e.sda_drive])
        self.mode = HEAR_ALL if self.listening else HEAR_DATA if self.engines else HEAR_NONE
        self.tx_byte = 0
        # the SCL rises of the open byte so far, and the SDA levels they sampled
        self.bits = 0
        self._shift = 0
        # whether the open byte is an address byte
        self._address = False

    def edge(self, code: int) -> bool:
        """Deliver the bus edge ``code``; returns whether ``listening``, ``pulling`` or ``mode`` may have moved."""
        kind, sda = code >> 1, code & 1
        if kind == EDGE_RISE:
            if self.mode >= HEAR_BYTE:
                self._shift = (self._shift << 1) | sda
                self.bits += 1
            else:
                for e in self.listening:
                    e.on_scl_rise(sda)
            return False
        if kind == EDGE_DATA:
            start = sda == L
            heard = self.engines if start else self.listening
            for e in heard:
                e.on_sda_edge(sda, H)
            self._reread(heard, start)  # a START opens an address byte
        elif self.mode == HEAR_BYTE:
            if self.bits < 8:
                return False
            self.byte(self._shift)
        elif self.mode == SEND_BYTE:
            n = self.bits
            if n > 8:
                self.sent(not self._shift & 1)
            elif n < 8 and not self.tx_byte >> (7 - n) & 1:
                self.pulling = tuple(self.listening)
            else:
                self.pulling = ()
        else:
            heard = self.listening
            for e in heard:
                e.on_scl_fall()
            self._reread(heard, False)
        return True

    def byte(self, value: int) -> None:
        """Hand over the open byte, ``value``, clocked in whole by its eighth fall; re-reads the lists."""
        if self._address:
            matched = self._by_address.get(value >> 1)
            heard = [] if matched is None else [matched]
            for e in heard:
                e.on_address(value)
        else:
            heard = self.listening
            for e in heard:
                e.on_byte(value)
        self._reread(heard, False)

    def sent(self, acked: bool) -> None:
        """Hand the master's ACK of the sent byte to its sender, on the fall that ends the ACK slot; re-reads the lists."""
        heard = self.listening
        for e in heard:
            e.on_sent(acked)
        self._reread(heard, False)

    def _reread(self, heard: list[SlaveEngine], start: bool) -> None:
        """Re-read the lists from the engines in ``heard``; a ``start`` opens an address byte."""
        self.listening = listening = [e for e in heard if e.listening]
        self.pulling = tuple([e for e in listening if e.sda_drive])
        if not listening:
            mode = HEAR_DATA if self.engines else HEAR_NONE
        elif start:
            mode = HEAR_BYTE
        elif len(listening) == 1 and listening[0].sends_byte:
            mode = SEND_BYTE
            self.tx_byte = listening[0].tx_byte
        else:  # a write-data byte opens once every listening engine awaits it
            mode = HEAR_BYTE
            for e in listening:
                if not e.awaits_byte:
                    mode = HEAR_ALL
                    break
        self.mode = mode
        if mode >= HEAR_BYTE:
            self._address = start
            self._shift = self.bits = 0


# The master's quarters as the block kernels' codes, 2 * scl_intent + sda_intent: (H, H) is 3,
# (H, L) 2, (L, H) 1 and (L, L) 0, and ``| CHECKPOINT`` on a quarter that samples an ACK of the
# master's.  The fixed sequences:
_IDLE_BIT = bytes((3, 3, 3, 3))
_START = bytes((3, 2, 0))  # SDA falls while SCL high
_RESTART = bytes((1, 3, 2, 0))
_STOP = bytes((0, 2, 3, 3))  # SDA rises while SCL high
_ACK_TAIL = bytes((1,))  # the quarter that closes an ACK slot after it is sampled
_TX_BIT = (bytes((0, 2, 2, 0)), bytes((1, 3, 3, 1)))  # indexed by the bit sent
_TX_NIBBLE = tuple([b"".join(_TX_BIT[(n >> bit) & 1] for bit in (3, 2, 1, 0)) for n in range(16)])
_ACK_SLOT = bytes((1, 3, 3 | CHECKPOINT))  # SDA released up to the quarter that samples the ACK
# a byte clocked in with SDA released (each bit sampled in its third quarter), then the ACK
# slot: ACKed, or NACKed as the last byte of a read
_RX_ACKED = _TX_BIT[1] * 8 + _TX_BIT[0]
_RX_LAST = _TX_BIT[1] * 9
_QUARTERS_PER_BYTE = 9 * QUARTERS_PER_BIT


def _tx_quarters(byte: int) -> bytes:
    """Clock out ``byte`` MSB first, then release SDA up to the quarter that samples the ACK."""
    return _TX_NIBBLE[byte >> 4] + _TX_NIBBLE[byte & 15] + _ACK_SLOT


class MasterEngine:
    """Clock-owning side: compiles transactions into quarter-bit intents.

    ``segments()`` is the master program.  It yields plans, each a
    ``bytes`` of intent codes ``2 * scl_intent + sda_intent``, one per
    quarter bit, where every quarter that samples the ACK of a byte the
    master sends is a checkpoint, flagged ``| CHECKPOINT``.  A plan is the
    rest of the script as if every such ACK holds.  The program receives
    back a ``bytes`` of the codes ``2 * scl + sda`` of the resolved lines
    the master observed at the midpoint of each quarter that ran, which
    the checkpoint rule of ``_kernels_py.step_block`` ends at the first
    NACK.  After a NACK the next plan goes on from there: the ACK slot's
    tail, STOP, the gap and the remaining transactions.  ``generator()``
    is the same program one quarter at a time, under the same rule: it
    yields each intent as an (scl, sda) pair and receives that quarter's
    (scl, sda), for callers that step the bus by hand.  Completed
    transactions (with observed ACKs and read data) accumulate in
    ``results`` once the observations of their quarters come back.  The
    program opens with ``LEAD_IN_BITS`` idle bits and idles ``GAP_BITS``
    after each STOP; addresses in ``RESERVED_ADDRESSES`` are refused.  One
    engine instance runs one program, once: a second ``segments()`` or
    ``generator()`` raises ``ProtocolError``.
    """

    def __init__(self, transactions: Transaction | Sequence[Transaction], clock_hz: float):
        if isinstance(transactions, Transaction):
            transactions = [transactions]
        if not transactions:
            raise ProtocolError("no transactions to run")
        if not 0 < clock_hz <= MAX_CLOCK_HZ:  # NaN fails too
            raise ProtocolError(
                f"clock {clock_hz:.4g} Hz outside (0, {MAX_CLOCK_HZ}] (fast mode ceiling)"
            )
        for t in transactions:
            if t.address in RESERVED_ADDRESSES:
                raise ProtocolError(f"address {t.address:#04x} is reserved")
        self.transactions = list(transactions)
        self.clock_hz = float(clock_hz)
        self.results: list[Transaction] = []
        self._started = False

    def quarters_upper_bound(self) -> int:
        """Static bound on program length; aborts only shorten a run."""
        total = (LEAD_IN_BITS + 2) * QUARTERS_PER_BIT
        for t in self.transactions:
            nbytes = len(t.payload) if t.direction == "write" else t.read_length
            total += 4  # START or repeated START
            total += (1 + nbytes) * 9 * QUARTERS_PER_BIT
            total += 4 + GAP_BITS * QUARTERS_PER_BIT  # STOP + gap
        return total

    def _record(self, t: Transaction, acks: list[bool], completed: bool, data: bytes = b"") -> None:
        payload = data if t.direction == "read" else t.payload
        self.results.append(
            Transaction(t.address, t.direction, payload, t.read_length, t.stop_after, tuple(acks), completed)
        )

    def segments(self) -> Generator[bytes, bytes, None]:
        """The master program: yields plans of intent codes, receives the observed codes of the quarters that ran.

        The quarters that ran end at the plan's first NACKed checkpoint, by
        the checkpoint rule of ``_kernels_py.step_block``.
        """
        if self._started:
            raise ProtocolError("this MasterEngine has run its program; make a new one")
        self._started = True
        return self._program()

    def _program(self) -> Generator[bytes, bytes, None]:
        todo = [(t, *self._body(t)) for t in self.transactions]
        parts = [_IDLE_BIT * LEAD_IN_BITS]
        while True:
            starts = []  # the quarter each transaction's body starts at
            n = len(parts[0])
            stopped = True
            for t, body, _, _ in todo:
                sync = _START if stopped else _RESTART
                starts.append(n + len(sync))
                n += len(sync) + len(body)
                parts += sync, body
                stopped = t.stop_after
            parts.append(_IDLE_BIT * 2)
            obs = yield b"".join(parts)
            for k, ((t, _, checks, first), base) in enumerate(zip(todo, starts)):
                acks = []
                for q in checks:
                    acks.append(not obs[base + q] & 1)
                    if not acks[-1]:
                        break
                completed = acks[-1]
                data = self._read_data(t, obs, base + first) if completed and t.direction == "read" else b""
                self._record(t, acks, completed, data)
                if not completed:  # the run stopped at this NACK: plan the rest again
                    parts = [_ACK_TAIL + _STOP + _IDLE_BIT * GAP_BITS]
                    todo = todo[k + 1:]
                    break
            else:
                return

    @staticmethod
    def _body(t: Transaction) -> tuple[bytes, list[int], int]:
        """``t``'s quarters after its START as if every ACK holds, with its checkpoints and first data bit.

        The quarters run from the address byte to the STOP and gap, or to
        the last bit before a repeated START; the checkpoints and the data
        bits' start are offsets into them.
        """
        body = bytearray(_tx_quarters((t.address << 1) | (t.direction == "read")))
        checks = [len(body) - 1]
        body += _ACK_TAIL
        if t.direction == "write":
            for b in t.payload:
                body += _tx_quarters(b)
                checks.append(len(body) - 1)
                body += _ACK_TAIL
        first = len(body)
        if t.direction == "read":
            body += _RX_ACKED * (t.read_length - 1) + _RX_LAST
        if t.stop_after:
            body += _STOP + _IDLE_BIT * GAP_BITS
        return bytes(body), checks, first

    @staticmethod
    def _read_data(t: Transaction, obs: bytes, first: int) -> bytes:
        """The bytes of read ``t`` from its data bits' observations, which start at quarter ``first``."""
        data = bytearray()
        for k in range(t.read_length):
            base = first + k * _QUARTERS_PER_BYTE + 2
            value = 0
            for i in range(8):
                value = (value << 1) | (obs[base + i * QUARTERS_PER_BIT] & 1)
            data.append(value)
        return bytes(data)

    def generator(self) -> Generator[tuple[int, int], tuple[int, int], None]:
        """``segments()`` one quarter at a time: yields each intent, receives its (scl, sda).

        A plan ends early after a checkpoint that receives SDA high, by the
        checkpoint rule of ``_kernels_py.step_block``.
        """
        return self._quarters(self.segments())

    @staticmethod
    def _quarters(program: Generator[bytes, bytes, None]) -> Generator[tuple[int, int], tuple[int, int], None]:
        seg = next(program)
        while True:
            obs = bytearray()
            for code in seg:
                scl, sda = yield code >> 1 & 1, code & 1
                obs.append(2 * scl + sda)
                if code & CHECKPOINT and sda:
                    break
            try:
                seg = program.send(bytes(obs))
            except StopIteration:
                return


def run_ideal_bus(
    master: MasterEngine,
    slaves: Sequence[SlaveEngine] = (),
    collect: bool = False,
) -> list[tuple[int, int]] | None:
    """Step master and slaves quarter by quarter over an ideal wired-AND bus.

    The master's ``segments()`` program runs a plan at a time, up to its
    end or its first NACKed checkpoint (the rule of
    ``_kernels_py.step_block``), and one :class:`SlaveGroup` hands the bus
    edges to the slaves.  Returns the resolved (scl, sda) per quarter when
    ``collect`` is set.
    """
    group = SlaveGroup(slaves)
    quarters: list[tuple[int, int]] = []
    prev = 2 * H + H
    program = master.segments()
    seg = next(program)
    while True:
        obs = bytearray()
        for intent in seg:
            code = intent & 3
            if group.pulling:
                code &= 2  # a slave holds SDA low
            scl = code >> 1
            if scl != prev >> 1:
                group.edge(2 * (EDGE_RISE if scl == H else EDGE_FALL) + (code & 1))
            elif scl == H and code != prev:
                group.edge(2 * EDGE_DATA + (code & 1))
            obs.append(code)
            prev = code
            if intent & CHECKPOINT and code & 1:
                break
        if collect:
            quarters += [(code >> 1, code & 1) for code in obs]
        try:
            seg = program.send(bytes(obs))
        except StopIteration:
            return quarters if collect else None


def master_run(
    transactions: Transaction | Sequence[Transaction],
    clock_hz: float,
    slaves: Sequence[SlaveModel] = (),
) -> tuple[LogicTimeline, LogicTimeline, list[Transaction]]:
    """Run transactions over the ideal bus and expand sampled timelines.

    The timelines have ``SAMPLES_PER_BIT`` samples per bit, a whole number
    per quarter bit.
    """
    master = MasterEngine(transactions, clock_hz)
    engines = [SlaveEngine(m) for m in slaves]
    quarters = run_ideal_bus(master, engines, collect=True)
    assert quarters is not None
    spq = SAMPLES_PER_BIT // QUARTERS_PER_BIT
    rate_eff = QUARTERS_PER_BIT * clock_hz * spq
    arr = np.asarray(quarters, dtype=np.uint8)
    scl = LogicTimeline(rate_eff, np.repeat(arr[:, 0], spq))
    sda = LogicTimeline(rate_eff, np.repeat(arr[:, 1], spq))
    return scl, sda, master.results


def script_line(t: Transaction) -> str:
    if t.direction == "write":
        return f"W 0x{t.address:02x} " + " ".join(f"0x{b:02x}" for b in t.payload)
    return f"R 0x{t.address:02x} {t.read_length}"


def parse_script(text: str) -> list[Transaction]:
    """Parse a transaction script: ``W <addr> <bytes...>`` / ``R <addr> <count>``.

    Numbers accept 0x-prefixed hex or decimal; ``#`` starts a comment.
    Errors carry the 1-based line number.
    """
    out: list[Transaction] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        op = toks[0].upper()
        try:
            if op == "W":
                if len(toks) < 2:
                    raise ValueError("W needs an address")
                addr = int(toks[1], 0)
                data = bytes(int(x, 0) for x in toks[2:])
                out.append(Transaction.write(addr, data))
            elif op == "R":
                if len(toks) != 3:
                    raise ValueError("R needs an address and a count")
                out.append(Transaction.read(int(toks[1], 0), int(toks[2], 0)))
            else:
                raise ValueError(f"unknown op {toks[0]!r}")
        except (ValueError, ProtocolError) as exc:
            raise ProtocolError(f"script line {lineno}: {exc}") from None
    return out
