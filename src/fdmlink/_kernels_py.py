"""Pure-Python implementations of the per-sample modem loops.

These are the hot kernels of the physical layer: stateful sample-by-sample
recurrences that cannot be vectorized (each output feeds the next state).
``slicer_loop`` and ``demod_loop`` run whole traces; ``modem`` imports them
from here, and ``Demodulator.run`` always starts ``demod_loop`` high
(``out0 = H``) with ``feedback`` on exactly when a spike model is set.
``step_block`` advances the demodulator streams of ``run_scenario``
through a master plan; ``BlockContext`` and ``step_block`` state the
block kernels' contract, the checkpoint rule included, which
``step_block`` in ``_blockkernel.c`` keeps statement for statement but
for its quiet run (see ``step_block``), which gives the same doubles.
``detector`` is their log detector on plain floats, with the fixed curve
of ``modem.DetectorParams``.  ``fdmlink.kernels`` picks the block stepper's
backend.
"""

from __future__ import annotations

import ctypes
import math

import numpy as np

from .modem import DetectorParams, SlicerParams

# the kinds of bus edge ``step_block`` logs (an event is 8 * group + 2 * kind + SDA output), and
# the ``hears`` modes of ``protocol.SlaveGroup.mode``
from .protocol import (
    CHECKPOINT, EDGE_BYTE, EDGE_DATA, EDGE_FALL, EDGE_RISE, HEAR_ALL, HEAR_BYTE, HEAR_NONE, SEND_BYTE,
)

# every run's detector curve and slicer hysteresis, as ``BlockContext`` stores them
FLOOR = DetectorParams.floor_volts
REF_IN = DetectorParams.ref_in
REF_OUT = DetectorParams.ref_out
K = 20.0 * DetectorParams.slope
HALF_H = 0.5 * SlicerParams.hysteresis


def slicer_loop(
    det: np.ndarray,
    alpha: float,
    hysteresis: float,
    ref0: float,
    out0: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Adaptive-reference comparator over a detector-voltage trace.

    The reference is a one-pole lowpass of the input (coefficient ``alpha``
    per sample); the output goes high above reference + hysteresis/2, low
    below reference - hysteresis/2, and holds in between.  Returns (levels,
    reference trace).
    """
    det = np.ascontiguousarray(det, dtype=np.float64)
    n = det.shape[0]
    levels = np.empty(n, dtype=np.uint8)
    refs = np.empty(n, dtype=np.float64)
    r = float(ref0)
    out = 1 if out0 else 0
    h2 = 0.5 * hysteresis
    for i in range(n):
        d = det[i]
        r += alpha * (d - r)
        if d > r + h2:
            out = 1
        elif d < r - h2:
            out = 0
        levels[i] = out
        refs[i] = r
    return levels, refs


def demod_loop(
    env: np.ndarray,
    ref_in: float,
    ref_out: float,
    slope: float,
    floor_v: float,
    alpha: float,
    hysteresis: float,
    ref0: float,
    out0: int,
    spike_amp: float,
    spike_decay_mult: float,
    spike_cap: float,
    feedback: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-loop log detector plus slicer with transition-spike feedback.

    Every output transition stimulates the detector: a decaying excursion
    of ``spike_amp`` volts (per-sample decay ``spike_decay_mult``) rides on
    the detector output, and the running excursion never exceeds
    ``spike_cap`` (the diode clamp; pass inf when unclipped).  With
    ``feedback`` enabled the spike lands within the same sample: the
    comparator is re-evaluated, and if the spike pushes the decision back
    to the previous level the output never visibly toggles - this is the
    latch-up mechanism.  Returns (levels, detector trace, reference trace).
    """
    env = np.ascontiguousarray(env, dtype=np.float64)
    n = env.shape[0]
    levels = np.empty(n, dtype=np.uint8)
    det = np.empty(n, dtype=np.float64)
    refs = np.empty(n, dtype=np.float64)
    k = 20.0 * slope
    r = float(ref0)
    out = 1 if out0 else 0
    s = 0.0
    h2 = 0.5 * hysteresis
    log10 = math.log10
    for i in range(n):
        s *= spike_decay_mult
        x = env[i]
        if x < floor_v:
            x = floor_v
        d = ref_out + k * log10(x / ref_in) + s
        rr = r + alpha * (d - r)
        if d > rr + h2:
            o = 1
        elif d < rr - h2:
            o = 0
        else:
            o = out
        if feedback and o != out:
            d -= s
            s += spike_amp
            if s > spike_cap:
                s = spike_cap
            d += s
            rr = r + alpha * (d - r)
            if d > rr + h2:
                o = 1
            elif d < rr - h2:
                o = 0
            else:
                o = out
        r = rr
        out = o
        levels[i] = out
        det[i] = d
        refs[i] = rr
    return levels, det, refs


def detector(xs: list[float]) -> list[float]:
    """REF_OUT + K * log10(max(x, FLOOR) / REF_IN) of each x: the block kernels' log detector.

    ``math.log10`` is the C library's log10, so each value is the double
    that ``_blockkernel.c`` computes for the same x.
    """
    log10, floor, ref_in, ref_out, k = math.log10, FLOOR, REF_IN, REF_OUT, K
    return [ref_out + k * log10((floor if x < floor else x) / ref_in) for x in xs]


class BlockContext(ctypes.Structure):
    """State, buffers and position of the demodulator streams of one run.

    The fields mirror the C struct in ``_blockkernel.c``: scalars, then
    pointers into the numpy arrays this object keeps as attributes of the
    same name without the ``_p`` suffix.  There are ``2 * groups`` streams,
    the SCL stream of each group and then the SDA ones; every stream starts
    with its output high.  The run is ``quarters`` quarter bits long, so
    ``code`` and ``obs`` hold one code per quarter, and ``noise`` and the
    ``trace_*`` arrays (or None) a row per sample.

    The slaves' drives select a drive state, a numbered row of one table:
    ``amps``, (drives, 4, 2 * groups) float64, has an amplitude row per
    intent code, ``dets``, shaped like ``amps``, the ``detector`` value of
    each amplitude (None with noise, where every sample takes its own),
    ``pulled``, (drives,) uint8, says a node other than the master pulls
    SDA, and ``used``, (drives, 4) uint8, flags the codes some sample ran
    under.  ``add_drive`` appends a state and returns its index; the rows
    of ``amps``, ``dets`` and ``pulled`` change only through it.  ``drive``
    names the state the run is in; a row not yet added has zero amplitudes
    and ``detector(0.0)`` detector values, so a fresh context's drive 0
    reads as a zero row.

    The caller owns ``code``, the table's rows, ``drive`` and ``hears``,
    and sets each stream's initial slicer reference in ``ref`` before the
    first call (``run_scenario`` takes ``modem.initial_reference`` of the
    first sample's input).  For each master plan it writes the plan's
    intent codes (2 * scl + sda, ``| CHECKPOINT`` on a checkpoint, see
    ``step_block``) into ``code`` from quarter ``quarter`` on and sets
    ``q_end`` past them or past a part of them, keeping ``q_end`` at most
    ``quarters`` (the C kernel does not check); the kernels move ``q_end``
    back only at a NACKed checkpoint.
    Whenever the drives change, the caller stores the new state's index in
    ``drive``; nothing is copied, and a state the run comes back to keeps
    its flags.  ``hears`` holds a mode per group, at first ``HEAR_ALL``
    (``protocol.SlaveGroup.mode`` states the modes, ``step_block`` how the
    kernels act on them).  ``rx_shift``
    (uint8) and ``rx_bits`` (int64), one per group, hold the SDA outputs at
    an open byte's rises so far and their count: the caller zeroes a
    group's pair when it opens a byte, and the kernels shift into it.

    At most one group is in send mode, ``hears[g] == SEND_BYTE``: the
    kernels clock out ``tx_byte`` for it, from ``rx_bits[g]`` rises on.
    ``tx_drive`` holds the indexes of its two drive states, SDA released
    and pulled low, with the other groups' drives as they are in both; its
    drive is whichever of them ``drive`` equals.  When that drive changes,
    the kernels store the other index in ``drive``, so on every return the
    caller learns the sender's drive from ``drive``; when another group's
    drive changes, it sets ``tx_drive`` and ``drive`` anew.  One sender
    slot is enough: a second group whose slave sends at the same time,
    which only a mis-decoded address can cause, gets each clock edge
    (``HEAR_ALL``) and its drive is switched by the caller between calls.
    The kernels own the rest: the position, the stream state (``ref``,
    ``det``, ``out``) from then on, ``obs`` (the master's outputs
    2 * scl + sda at each quarter's midpoint), the flags in ``used`` of the
    codes that ran, ``seen_low``, the bit and eye counters
    (``bits_checked`` and ``bit_errors`` count streams, not nodes, and
    ``eye``), the edge log (``events``, of which a call fills the first
    ``n_events``) and the traces.
    """

    DRIVES = 4  # rows of the drive-state table before it first grows

    _fields_ = [
        ("n_streams", ctypes.c_int64),
        ("spq", ctypes.c_int64),
        ("master", ctypes.c_int64),
        ("quarter", ctypes.c_int64),
        ("pos", ctypes.c_int64),
        ("q_end", ctypes.c_int64),
        ("drive", ctypes.c_int64),
        ("n_events", ctypes.c_int64),
        ("tx_byte", ctypes.c_int64),
        ("tx_drive", ctypes.c_int64 * 2),
        ("floor", ctypes.c_double),
        ("ref_in", ctypes.c_double),
        ("ref_out", ctypes.c_double),
        ("k", ctypes.c_double),
        ("alpha", ctypes.c_double),
        ("half_h", ctypes.c_double),
        ("code_p", ctypes.c_void_p),
        ("amps_p", ctypes.c_void_p),
        ("dets_p", ctypes.c_void_p),
        ("pulled_p", ctypes.c_void_p),
        ("used_p", ctypes.c_void_p),
        ("noise_p", ctypes.c_void_p),
        ("hears_p", ctypes.c_void_p),
        ("rx_shift_p", ctypes.c_void_p),
        ("rx_bits_p", ctypes.c_void_p),
        ("ref_p", ctypes.c_void_p),
        ("det_p", ctypes.c_void_p),
        ("out_p", ctypes.c_void_p),
        ("events_p", ctypes.c_void_p),
        ("obs_p", ctypes.c_void_p),
        ("seen_low_p", ctypes.c_void_p),
        ("bits_checked_p", ctypes.c_void_p),
        ("bit_errors_p", ctypes.c_void_p),
        ("eye_p", ctypes.c_void_p),
        ("trace_det_p", ctypes.c_void_p),
        ("trace_ref_p", ctypes.c_void_p),
        ("trace_out_p", ctypes.c_void_p),
        ("trace_wire_p", ctypes.c_void_p),
    ]

    def __init__(
        self,
        groups: int,
        *,
        alpha: float,
        samples_per_quarter: int,
        quarters: int,
        master: int = 0,
        noise: np.ndarray | None = None,
        traces: bool = False,
    ):
        """``noise`` is (quarters * samples_per_quarter, 2 * groups); ``traces`` records them.

        ``floor``, ``ref_in``, ``ref_out``, ``k`` and ``half_h`` are the
        module's ``FLOOR``, ``REF_IN``, ``REF_OUT``, ``K`` and ``HALF_H``,
        so the detector is ``detector``; ``alpha`` is the slicer reference's
        coefficient per sample.  Quarters are ``samples_per_quarter`` long,
        with the midpoint at half of that, and ``master`` is the group whose
        outputs the master observes.
        """
        if groups < 1:
            raise ValueError(f"need at least one group, got {groups}")
        if not 0 <= master < groups:
            raise ValueError(f"master group {master} outside [0, {groups})")
        if samples_per_quarter < 1 or quarters < 1:
            raise ValueError("samples_per_quarter and quarters must be >= 1")
        # ctypes stores the int64 fields modulo 2**64 without a word
        if samples_per_quarter * quarters > 2**63 - 1:
            raise ValueError(f"{quarters} quarters of {samples_per_quarter} samples overflow int64")
        n_streams = 2 * groups
        n_samples = quarters * samples_per_quarter
        super().__init__(
            n_streams=n_streams,
            spq=samples_per_quarter,
            master=master,
            floor=FLOOR,
            ref_in=REF_IN,
            ref_out=REF_OUT,
            k=K,
            alpha=alpha,
            half_h=HALF_H,
        )
        if noise is not None:
            noise = np.ascontiguousarray(noise, dtype=np.float64)
            if noise.shape != (n_samples, n_streams):
                raise ValueError(f"noise must be ({n_samples}, {n_streams}), got {noise.shape}")
        self.noise = noise
        self.code = np.zeros(quarters, dtype=np.uint8)
        for name, arr in self._unset_drives(self.DRIVES).items():
            setattr(self, name, arr)
        self.n_drives = 0
        self.ref = np.zeros(n_streams)
        self.det = np.zeros(n_streams)
        self.out = np.ones(n_streams, dtype=np.uint8)
        self.hears = np.full(groups, HEAR_ALL, dtype=np.uint8)
        self.rx_shift = np.zeros(groups, dtype=np.uint8)
        self.rx_bits = np.zeros(groups, dtype=np.int64)
        self.events = np.zeros(n_streams, dtype=np.int64)
        self.obs = np.full(quarters, 3, dtype=np.uint8)
        self.seen_low = np.zeros(2, dtype=np.uint8)
        self.bits_checked = np.zeros(2, dtype=np.int64)
        self.bit_errors = np.zeros(2, dtype=np.int64)
        self.eye = np.full(2, math.inf)
        if traces:
            self.trace_det = np.zeros((n_samples, n_streams))
            self.trace_ref = np.zeros((n_samples, n_streams))
            self.trace_out = np.zeros((n_samples, n_streams), dtype=np.uint8)
            self.trace_wire = np.zeros((n_samples, 2), dtype=np.uint8)
        else:
            self.trace_det = self.trace_ref = self.trace_out = self.trace_wire = None
        for name in ("code", "amps", "dets", "pulled", "used", "noise", "hears", "rx_shift", "rx_bits", "ref", "det",
                     "out", "events", "obs", "seen_low", "bits_checked", "bit_errors", "eye", "trace_det",
                     "trace_ref", "trace_out", "trace_wire"):
            arr = getattr(self, name)
            setattr(self, name + "_p", None if arr is None else arr.ctypes.data)

    def _unset_drives(self, drives: int) -> dict[str, np.ndarray | None]:
        """``drives`` rows of each drive-state table that no ``add_drive`` has set."""
        n_streams = self.n_streams
        if self.noise is None:
            det0, = detector([0.0])
            dets = np.full((drives, 4, n_streams), det0)
        else:
            dets = None
        return {
            "amps": np.zeros((drives, 4, n_streams)),
            "dets": dets,
            "pulled": np.zeros(drives, dtype=np.uint8),
            "used": np.zeros((drives, 4), dtype=np.uint8),
        }

    def add_drive(self, rows, pulled) -> int:
        """Append a drive state, ``amps`` rows (4, 2 * groups) and ``pulled``; return its index, 0, 1, ...

        Without noise the state's ``dets`` rows are ``detector`` of its
        amplitudes.  A full table doubles, keeping its rows, and the fields
        point at the new arrays.  The new state's ``used`` flags start clear.
        """
        i = self.n_drives
        if i == len(self.pulled):
            for name, new in self._unset_drives(i).items():
                if new is not None:
                    arr = np.concatenate([getattr(self, name), new])
                    setattr(self, name, arr)
                    setattr(self, name + "_p", arr.ctypes.data)
        self.amps[i] = rows
        if self.dets is not None:
            self.dets[i].flat = detector(self.amps[i].ravel().tolist())
        self.pulled[i] = pulled
        self.used[i] = 0
        self.n_drives = i + 1
        return i


def step_block(ctx: BlockContext) -> int:
    """Advance every stream through the plan from (``quarter``, ``pos``) up to ``q_end``; return the count.

    Quarter q runs under intent code c = ``code[q] & 3`` and drive state
    i = ``drive``: stream s sees x = amps[i, c, s] (+ noise[q * spq + pos, s])
    and steps the log detector d = ``detector(x)``, the one-pole reference
    r += alpha * (d - r) and the hysteresis slicer of ``demod_loop`` (no
    spikes).  The wired-AND levels of the quarter are SCL = c >> 1 and
    SDA = c & 1 unless ``pulled[i]``; a line's ``seen_low`` is set once its
    level is low, and ``used[i, c]`` once a sample runs under i and c.  At
    each quarter midpoint (pos = spq // 2) the master's outputs go to
    ``obs[q]`` as 2 * scl + sda, and for each line with ``seen_low`` set,
    ``bits_checked`` grows by the line's stream count, ``bit_errors`` by
    one per stream whose output differs from the line's level, and ``eye``
    takes the least |det - ref|.

    The checkpoint rule: a quarter whose code has the ``CHECKPOINT`` bit
    set is a checkpoint, where the master samples the ACK of a byte it
    sent.  If the master's SDA output is 1 at its midpoint, a NACK, the
    kernels set ``q_end`` to q + 1, so the call runs the rest of that
    quarter and the run stops at its end: ``obs`` then holds every quarter
    up to and including the first NACKed checkpoint and none after it.
    The master plans its program as if every ACK holds and plans again
    only after a NACK (``protocol.MasterEngine``), and every bus that runs
    it keeps this rule: ``run_scenario`` through the kernels,
    ``protocol.run_ideal_bus`` and ``MasterEngine.generator()``.

    A sample steps each group's SCL stream, then its SDA stream, and then
    logs the group's edge in ``events`` if a slave acts on it, as
    8 * g + 2 * kind + the group's SDA output.  An SCL change is an
    ``EDGE_RISE`` or ``EDGE_FALL`` and is logged if ``hears[g]`` is
    ``HEAR_ALL``; an SDA change with SCL high and unchanged (START or STOP)
    is an ``EDGE_DATA`` and is logged unless ``hears[g]`` is ``HEAR_NONE``.
    An SDA change while SCL is low, or an edge that reaches nobody, is not
    logged.  While ``hears[g]`` is ``HEAR_BYTE`` the group receives a byte:
    a rise shifts the group's SDA output into ``rx_shift[g]`` (as
    ``(rx_shift << 1 | sda) & 0xFF``) and counts in ``rx_bits[g]``, and
    logs nothing; a fall is logged only once ``rx_bits[g]`` is at least 8,
    as one ``EDGE_BYTE`` that leaves the byte in ``rx_shift[g]``.  A START
    or STOP inside the byte is logged as an ``EDGE_DATA``.  While
    ``hears[g]`` is ``SEND_BYTE`` the group sends ``tx_byte``, keeping
    ``SlaveEngine``'s read-data rules: a rise shifts and counts as in
    receive mode and logs nothing; with r = ``rx_bits[g]`` rises in, a fall
    drives bit 7 - r (SDA pulled low for a 0) while r < 8 and releases SDA
    at r = 8, and the first fall after the ninth rise is logged as one
    ``EDGE_BYTE`` whose SDA bit is the output the last rise shifted in:
    the master's ACK (0) or NACK.  A fall that drives p (1 while SDA is
    pulled) stores ``tx_drive[p]`` in ``drive`` after its sample if they
    differ, and the call takes the quarter again under that state, as a new
    call would: the same samples, detector values, wire levels and ``used``
    flags as when the call ended on that fall and the caller switched
    states.  A START or STOP inside a sent byte is logged as an
    ``EDGE_DATA`` too.  A rise moves nothing the kernels read (a slave only
    samples SDA there), so the call goes on; it ends after the first sample
    that logs a fall, a data edge or a byte, or when ``quarter`` reaches
    ``q_end``, and ``n_events`` counts what it logged: the call stopped on
    an edge exactly when that log holds one that is not a rise.  After a
    logged rise the group's next SCL change is a fall, so the log holds at
    most two edges per group.  The call takes the next quarter's code only
    when it goes on into that quarter.  With traces on it writes every
    sample's det/ref/out and wire levels.

    This is ``step_block`` of ``_blockkernel.c`` statement for statement, so
    every double matches; like it, when there is no noise it takes each
    stream's detector value from the ``dets`` row of the drive state and
    code once per quarter and on entry, and a call at ``q_end`` changes
    nothing but ``n_events``.  A call changes no scalar field but the
    position, ``q_end``, ``n_events`` and ``drive``.  The one difference is
    the C stepper's quiet run: in a context of one group without noise or
    traces it steps the samples before the next one that changes an output,
    is a midpoint or ends the quarter with both references in registers, by
    the same operations in the same order, so the doubles are the same;
    this loop takes those samples one by one, and stays the reference the C
    stepper is tested against.
    """
    q, q_end, pos = ctx.quarter, ctx.q_end, ctx.pos
    ctx.n_events = 0
    if q >= q_end:
        return 0
    spq, ng = ctx.spq, ctx.n_streams // 2
    mid = spq // 2
    mscl, msda = ctx.master, ng + ctx.master
    alpha, h2 = ctx.alpha, ctx.half_h
    ref = ctx.ref.tolist()
    out = ctx.out.tolist()
    hears = ctx.hears.tolist()
    rx_shift, rx_bits = ctx.rx_shift.tolist(), ctx.rx_bits.tolist()
    tx_byte, tx_drive, drive = ctx.tx_byte, ctx.tx_drive[:], ctx.drive
    events: list[int] = []
    # per group: (bit, stream) of its SCL and then its SDA stream
    pairs = [((1, g), (2, ng + g)) for g in range(ng)]
    seen_low = ctx.seen_low.tolist()
    bits_checked, bit_errors, eye = ctx.bits_checked.tolist(), ctx.bit_errors.tolist(), ctx.eye.tolist()
    tracing = ctx.trace_det is not None
    n = 0
    stop = False
    while not stop and q < q_end:  # the rest of one quarter, or up to a drive change, per pass
        reenter = False
        code = int(ctx.code[q])
        check, code = code & CHECKPOINT, code & 3
        amp = ctx.amps[drive, code]
        wire = (code >> 1, 1 if code & 1 and not ctx.pulled[drive] else 0)
        for li in (0, 1):
            if not wire[li]:
                seen_low[li] = 1
        ctx.used[drive, code] = 1
        isample = q * spq + pos
        if ctx.noise is None:
            rows = [ctx.dets[drive, code].tolist()] * (spq - pos)
        else:
            xs = (amp + ctx.noise[isample:isample + spq - pos]).tolist()
            rows = (detector(x) for x in xs)
        trace_det: list[float] = []
        trace_ref: list[float] = []
        trace_out: list[int] = []
        for det in rows:
            for g, pair in enumerate(pairs):
                moved = 0
                for bit, s in pair:
                    d = det[s]
                    r = ref[s]
                    r += alpha * (d - r)
                    ref[s] = r
                    if out[s]:
                        if d < r - h2:
                            out[s] = 0
                            moved |= bit
                    elif d > r + h2:
                        out[s] = 1
                        moved |= bit
                if moved:
                    sda = out[ng + g]
                    if moved & 1:
                        if hears[g] >= HEAR_BYTE:
                            rises = rx_bits[g]
                            if out[g]:
                                rx_shift[g] = (rx_shift[g] << 1 | sda) & 0xFF
                                rx_bits[g] += 1
                                continue
                            if hears[g] == SEND_BYTE:
                                if rises < 9:
                                    pull = rises < 8 and not tx_byte >> (7 - rises) & 1
                                    if tx_drive[pull] != drive:  # switch drive states after this sample
                                        drive = tx_drive[pull]
                                        reenter = True
                                    continue
                                sda = rx_shift[g] & 1
                            elif rises < 8:
                                continue
                            kind = EDGE_BYTE
                        elif hears[g] == HEAR_ALL:
                            kind = EDGE_RISE if out[g] else EDGE_FALL
                        else:
                            continue
                    elif out[g] and hears[g] != HEAR_NONE:
                        kind = EDGE_DATA
                    else:
                        continue
                    events.append(8 * g + 2 * kind + sda)
                    stop = stop or kind != EDGE_RISE
            if tracing:
                trace_det += det
                trace_ref += ref
                trace_out += out
            n += 1
            if pos == mid:
                ctx.obs[q] = 2 * out[mscl] + out[msda]
                if check and out[msda]:  # a NACK: the run stops after this quarter
                    q_end = q + 1
                for li in (0, 1):
                    if not seen_low[li]:
                        continue
                    bits_checked[li] += ng
                    for s in range(li * ng, (li + 1) * ng):
                        m = abs(det[s] - ref[s])
                        if out[s] != wire[li]:
                            bit_errors[li] += 1
                        if m < eye[li]:
                            eye[li] = m
            pos += 1
            if stop or reenter:
                break
        if tracing:
            block = slice(isample, q * spq + pos)
            ctx.trace_det[block].flat = trace_det
            ctx.trace_ref[block].flat = trace_ref
            ctx.trace_out[block].flat = trace_out
            ctx.trace_wire[block] = wire
        if pos == spq:
            pos = 0
            q += 1
    ctx.ref[:] = ref
    ctx.det[:] = det
    ctx.out[:] = out
    ctx.rx_shift[:] = rx_shift
    ctx.rx_bits[:] = rx_bits
    ctx.events[:len(events)] = events
    ctx.n_events = len(events)
    ctx.seen_low[:] = seen_low
    ctx.bits_checked[:] = bits_checked
    ctx.bit_errors[:] = bit_errors
    ctx.eye[:] = eye
    ctx.quarter, ctx.pos, ctx.q_end, ctx.drive = q, pos, q_end, drive
    return n
