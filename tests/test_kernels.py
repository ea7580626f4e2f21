import ctypes
import math
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fdmlink
from fdmlink import _kernels_py, kernels, protocol
from fdmlink.modem import DetectorParams, SlicerParams
from fdmlink.protocol import (
    CHECKPOINT, EDGE_BYTE, EDGE_DATA, EDGE_FALL, EDGE_RISE, HEAR_ALL, HEAR_BYTE, HEAR_DATA, HEAR_NONE, SEND_BYTE,
)

from .conftest import load_stepper

PACKAGE = Path(fdmlink.__file__).resolve().parent


def test_backend_name():
    assert kernels.backend_name() == ("python" if shutil.which("cc") is None else "c")
    assert kernels.backend_detail()


# -- behavioral checks --


def test_slicer_tracks_and_holds():
    det = np.concatenate([np.full(50, 1.0), np.full(50, 2.0)])
    levels, refs = _kernels_py.slicer_loop(det, 0.05, 0.2, 1.0, 0)
    assert levels[0] == 0
    assert levels[-1] == 1  # rose through ref + h/2 at the step
    assert refs[-1] == pytest.approx(2.0, abs=0.1)  # reference converges


def test_slicer_holds_inside_hysteresis_band():
    det = np.full(100, 1.0)
    lv_h, _ = _kernels_py.slicer_loop(det, 0.01, 0.5, 1.0, 1)
    lv_l, _ = _kernels_py.slicer_loop(det, 0.01, 0.5, 1.0, 0)
    assert lv_h.all() and not lv_l.any()  # no drive, no change


def test_demod_spike_cap_bounds_excursion():
    # alternate envelope levels so every bit toggles; with feedback on and a
    # huge spike the cap is the most the detector can be displaced
    env = np.tile(np.repeat([0.02, 0.002], 8), 40)
    base = _kernels_py.demod_loop(env, 0.01, 1.0, 0.044, 1e-6, 0.01, 0.01, 1.0, 1, 0.0, 0.9, math.inf, False)
    spiked = _kernels_py.demod_loop(env, 0.01, 1.0, 0.044, 1e-6, 0.01, 0.01, 1.0, 1, 5.0, 0.9, 0.3, True)
    lift = spiked[1] - base[1]
    assert np.max(np.abs(lift)) <= 0.3 + 1e-12


def test_demod_no_spike_reduces_to_detect_plus_slicer():
    env = np.abs(np.sin(np.linspace(0, 20, 500))) * 0.05 + 1e-4
    lv_d, det_d, rf_d = _kernels_py.demod_loop(
        env, 0.01, 1.0, 0.044, 1e-6, 0.02, 0.01, 1.0, 1, 0.0, 0.9, math.inf, True
    )
    det_direct = 1.0 + 20 * 0.044 * np.log10(np.maximum(env, 1e-6) / 0.01)
    assert det_d == pytest.approx(det_direct, rel=1e-12)
    lv_s, rf_s = _kernels_py.slicer_loop(det_direct, 0.02, 0.01, 1.0, 1)
    assert np.array_equal(lv_d, lv_s)
    assert rf_d == pytest.approx(rf_s, rel=1e-12)


# -- the block stepper: C against the Python reference --

# below the floor, zero, subnormal, huge, and ordinary levels
AMPLITUDES = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, 5e-324, 1e-310, 1e300]),
    st.floats(1e-9, 10.0),
)
# one drive state: per intent code, the levels the streams take in turn, or "keyed": a 20 dB
# drop on each line its intent pulls low; a slave pulls SDA
DRIVES = st.tuples(st.one_of(st.lists(st.lists(AMPLITUDES, min_size=1, max_size=3), min_size=4, max_size=4),
                             st.just("keyed")),
                   st.booleans())


def _bits(*bits):
    """Intent codes of whole bits: SDA set while SCL is low, SCL high for two quarters, low again."""
    return [q for b in bits for q in (b, 2 + b, 2 + b, b)]


# the quarters of a byte the master sends and of its ACK slot, up to the checkpoint that samples the ACK
def _sent(*bits):
    return _bits(*bits) + [1, 3, 3 | CHECKPOINT]


# a segment: random intent codes, checkpoints among them, or whole bits, so bytes get clocked in,
# or bytes the master sends, each with its ACK checkpoint; a NACK at one ends the segment there
SEGMENT = st.one_of(
    st.lists(st.integers(0, 3 | CHECKPOINT), min_size=1, max_size=6),
    st.lists(st.integers(0, 1), min_size=1, max_size=24).map(lambda bits: _bits(*bits)),
    st.lists(st.lists(st.integers(0, 1), min_size=8, max_size=8), min_size=1, max_size=3).map(
        lambda data: [q for bits in data for q in _sent(*bits) + [1]]),
)
STATE = ("ref", "det", "out", "rx_shift", "rx_bits", "obs", "used", "seen_low", "bits_checked", "bit_errors",
         "eye")
POSITION = ("quarter", "pos", "q_end", "n_events", "drive")


def _stopped(ctx):
    """Whether the last call ended on an edge: it logged a fall, a data edge or a byte."""
    kinds = ctx.events[:ctx.n_events] >> 1 & 3
    return bool((kinds != EDGE_RISE).any())


def _seed(ctx, first):
    """Start every reference at the detector value of ``first``, as ``run_scenario`` does."""
    ctx.ref[:] = _kernels_py.detector(first.tolist())


def _keyed(groups, pulled=False):
    """Amplitude rows with a 20 dB drop on each line its intent pulls low, and on SDA if a slave pulls it."""
    return [[0.3 if c >> 1 else 0.03] * groups + [0.3 if c & 1 and not pulled else 0.03] * groups for c in range(4)]


def _hears(rng, groups, hear_p, byte_p):
    """A ``hears`` mode per group, as ``run_scenario`` sets them.

    A group has a slave with ``hear_p``; that slave listens to the clock
    with ``hear_p`` again, and a listening group receives a byte with
    ``byte_p``.
    """
    has_slave = rng.random(groups) < hear_p
    listens = has_slave & (rng.random(groups) < hear_p)
    receives = listens & (rng.random(groups) < byte_p)
    return has_slave.astype(np.uint8) + listens + receives  # HEAR_NONE up to HEAR_BYTE


def _drive(ctxs, states, i, drives):
    """The table index of drawn drive state ``i``: added to every context on its first visit."""
    if i not in states:
        rows, pulled = drives[i]
        n_streams = ctxs[0].n_streams
        if rows == "keyed":
            rows = _keyed(n_streams // 2, pulled)
        else:
            rows = [[levels[s % len(levels)] for s in range(n_streams)] for levels in rows]
        index, = {ctx.add_drive(rows, pulled) for ctx in ctxs}
        states[i] = index
    return states[i]


def _set_drives(ctxs, states, i, drives, hears, opened, send=None):
    """Set each context's drive state to drawn state ``i``, as ``run_scenario`` does.

    ``states`` maps a drawn drive state to its table index, the same in
    every context.  Each group of ``opened`` starts its byte afresh: its
    ``rx_shift`` and ``rx_bits`` are reset.  ``send`` is None, or the
    sender's ``tx_byte`` and the drawn states of its released and pulling
    drives; state ``i`` is then one of the two.
    """
    drive = _drive(ctxs, states, i, drives)
    for ctx in ctxs:
        ctx.drive = drive
        ctx.hears[:] = hears
        ctx.rx_shift[opened] = ctx.rx_bits[opened] = 0
    if send is not None:
        byte, pair = send
        tx_drive = [_drive(ctxs, states, j, drives) for j in pair]
        for ctx in ctxs:
            ctx.tx_byte = byte
            ctx.tx_drive[:] = tx_drive


def _caller(rng, ctx, n_drives, changes, hear_p, byte_p, send_p, sender):
    """What the caller sets before a call: a drawn drive state, ``hears``, the groups it opens bytes for, and ``send``.

    With probability ``send_p`` a group is in send mode, and returned as
    the sender, with two distinct drawn send states, as ``run_scenario``
    makes them.  In one draw of two that is ``sender``, the last call's,
    going on with its byte, rises and drive (read back from which send
    state ``drive`` names) under the new send states, as when another
    group's drive moved mid-byte.  Else it is a drawn group with a drawn
    byte and drive, which starts its byte afresh, goes on with the rises it
    has (a byte another group's edge interrupted), or takes a drawn count
    of 0 to 11 rises.
    """
    groups = ctx.n_streams // 2
    i = changes % n_drives
    hears = _hears(rng, groups, hear_p, byte_p)
    opened = (hears == HEAR_BYTE) & (rng.random(groups) < 0.5)
    send = g = None
    if rng.random() < send_p:
        pair = rng.choice(n_drives, size=2, replace=False).tolist()
        if sender is not None and rng.random() < 0.5:
            g, byte, pull = sender, ctx.tx_byte, int(ctx.drive == ctx.tx_drive[1])
            opened[g] = False
        else:
            g, byte, pull = int(rng.integers(groups)), int(rng.integers(256)), int(rng.integers(2))
            how = rng.integers(3)
            opened[g] = how == 0
            if how == 2:
                ctx.rx_bits[g] = rng.integers(12)
        hears[g] = SEND_BYTE
        send, i = (byte, pair), pair[pull]
    return i, hears, opened, send, g


@settings(max_examples=200, deadline=None)
@given(
    # one group in half the draws: without noise or traces, the shape of the C stepper's quiet run
    groups=st.one_of(st.just(1), st.integers(1, 20)),
    # short quarters in half the draws, so a call that stops on a quarter's first samples often
    # resumes at its midpoint
    spq=st.one_of(st.integers(3, 6), st.integers(1, 64)),
    ref0=st.one_of(st.none(), st.lists(st.floats(), min_size=1, max_size=3)),
    master=st.integers(0, 19),
    noisy=st.booleans(),
    noise_rms=st.sampled_from([1e-6, 1e-3, 0.3]),
    traced=st.booleans(),
    alpha=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**32 - 1),
    segments=st.lists(SEGMENT, min_size=1, max_size=5),
    # up to more drive states than the table holds before it grows
    drives=st.lists(DRIVES, min_size=2, max_size=3 * kernels.BlockContext.DRIVES),
    hear_p=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    byte_p=st.sampled_from([0.0, 0.5, 1.0]),
    send_p=st.sampled_from([0.0, 0.5, 1.0]),
)
@example(
    groups=1, spq=16, ref0=None, master=0, noisy=False, noise_rms=1e-6, traced=True, alpha=0.0156, seed=0,
    segments=[[3, 3, 2, 0, 1, 3], [1, 0, 2, 3]],
    drives=[([[0.3], [0.3], [0.3], [0.03]], False), ([[0.03, 0.3]] * 4, True)], hear_p=1.0, byte_p=0.0,
    send_p=0.0,
)
@example(  # the demo's shape: its slicer, untraced and noiseless, whole bytes received and sent
    groups=1, spq=16, ref0=None, master=0, noisy=False, noise_rms=1e-6, traced=False,
    alpha=7.80944903676084e-4, seed=4,
    segments=[[3, 2, 0] + _bits(0, 0, 1, 1, 0, 0, 0, 0, 0) + _bits(0, 1, 0, 1, 1, 0, 1, 0, 1),
              _bits(1, 1, 1, 1, 0, 0, 0, 0, 1) + [1, 3, 2, 0], _bits(*(1,) * 9) + [1, 3]],
    drives=[("keyed", False), ("keyed", True), ("keyed", False), ("keyed", True)], hear_p=1.0, byte_p=1.0,
    send_p=0.5,
)
@example(  # references that are NaN or infinite from the start
    groups=1, spq=20, ref0=[math.nan, math.inf, -math.inf], master=0, noisy=False, noise_rms=1e-6, traced=False,
    alpha=0.03, seed=5,
    segments=[[3, 2, 0] + _bits(1, 0, 1, 1, 0, 1, 0, 0, 1) + [1, 3]],
    drives=[("keyed", False), ("keyed", True)], hear_p=1.0, byte_p=0.5, send_p=0.0,
)
@example(  # two groups receiving bytes, one cut by a START
    groups=2, spq=8, ref0=None, master=0, noisy=False, noise_rms=1e-6, traced=True, alpha=0.03, seed=1,
    segments=[[3, 2, 0] + _bits(1, 0, 1, 1, 0, 1, 0, 0, 1, 1) + [1, 3, 2, 0], _bits(*(0, 1) * 9)],
    drives=[("keyed", False), ("keyed", True)], hear_p=1.0, byte_p=1.0, send_p=0.0,
)
@example(  # one group sends while the other's clock edges end calls and its drive moves mid-byte
    groups=2, spq=8, ref0=None, master=0, noisy=False, noise_rms=1e-6, traced=True, alpha=0.03, seed=2,
    segments=[[3, 2, 0] + _bits(1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 1), _bits(*(1,) * 9) + [1, 3, 2, 0]],
    drives=[("keyed", False), ("keyed", True), ("keyed", False), ("keyed", True)], hear_p=0.7, byte_p=0.0,
    send_p=1.0,
)
@example(  # every clock edge ends a call, so the table grows twice while the run goes on
    groups=3, spq=4, ref0=None, master=1, noisy=True, noise_rms=1e-6, traced=True, alpha=0.03, seed=3,
    segments=[[3, 2, 0] + _bits(*(0, 1) * 8), _bits(*(1, 0) * 6) + [1, 3]],
    drives=[("keyed", i % 2 == 1) for i in range(2 * kernels.BlockContext.DRIVES + 1)], hear_p=1.0, byte_p=0.0,
    send_p=0.5,
)
# calls that resume at a quarter's midpoint, after an SCL fall on its first sample, and an ACKed and a
# NACKed checkpoint
@example(
    groups=1, spq=3, ref0=None, master=0, noisy=False, noise_rms=1e-6, traced=False, alpha=0.03, seed=6,
    segments=[[3, 3, 1, 3, 2 | CHECKPOINT, 0, 1, 3, 1], [3, 1, 3 | CHECKPOINT, 1, 3, 1], [1, 3, 1, 3]],
    drives=[("keyed", False), ("keyed", False)], hear_p=1.0, byte_p=0.0, send_p=0.0,
)
def test_c_step_block_matches_python_bit_for_bit(
    groups, spq, ref0, master, noisy, noise_rms, traced, alpha, seed, segments, drives, hear_p, byte_p, send_p,
):
    """Same returns, position, state, counters, edge logs and traces, compared as bytes.

    The references start at the detector value of the first input
    (``ref0`` None, as in ``run_scenario``) or at drawn values, NaN and
    infinities included, that the streams take in turn.  The segments hold
    random intent codes, so STARTs and STOPs fall anywhere, inside received
    bytes too, and checkpoints: a segment runs to its end or to its first
    checkpoint whose midpoint saw the master's SDA output high, a NACK,
    where ``q_end`` must have moved to.  After every return on a logged
    fall, data edge or byte the caller moves to the next drawn drive
    state, adding it to both tables on its first visit (so a table grows
    between calls once more states are drawn than it first holds) and
    storing its index in ``drive``, and draws a new ``hears`` mode per
    group (``_hears``), as ``run_scenario`` does after slave callbacks, so
    the kernels resume mid-segment on new amplitude rows.  A group that receives a byte starts it afresh in one
    of two draws and goes on with the bits it has in the other, as a group
    does whose byte another group's edge interrupted.  With probability
    ``send_p`` a group is in send mode (``_caller``): the last sender going
    on with its byte under new send states, as when another group's drive
    moves mid-byte, or a drawn group with a drawn byte, send states, drive
    and a fresh, kept or drawn rise count, so sent bytes run past their ACK
    slot and meet STARTs and STOPs.  After every call both contexts must
    hold the same ``drive``, ``tx_drive`` and whole ``used`` table.  Drive
    states repeat, so a state's ``used`` flags carry over from its last
    visit.  A call at the segment end must return 0 and log nothing.  A
    call that logged only rises ran to the segment end.
    """
    c_step = load_stepper("c")
    rng = np.random.default_rng(seed)
    quarters = sum(map(len, segments))
    noise = rng.normal(0.0, noise_rms, size=(quarters * spq, 2 * groups)) if noisy else None
    params = dict(alpha=alpha, samples_per_quarter=spq, quarters=quarters, master=master % groups, noise=noise,
                  traces=traced)
    ctxs = c_ctx, py_ctx = [kernels.BlockContext(groups, **params) for _ in range(2)]
    states = {}
    i, hears, _, send, sender = _caller(rng, c_ctx, len(drives), 0, hear_p, byte_p, send_p, None)
    py_ctx.rx_bits[:] = c_ctx.rx_bits
    _set_drives(ctxs, states, i, drives, hears, slice(None), send)
    first = c_ctx.amps[c_ctx.drive, segments[0][0] & 3]
    first = first + noise[0] if noisy else first
    for ctx in ctxs:
        if ref0 is None:
            _seed(ctx, first)
        else:
            ctx.ref[:] = [ref0[s % len(ref0)] for s in range(ctx.n_streams)]
    changes = 0
    for seg in segments:
        q0 = c_ctx.quarter
        q_end = q0 + len(seg)
        for ctx in ctxs:
            ctx.code[q0:q_end] = seg
            ctx.q_end = q_end
        while True:
            n = c_step(c_ctx)
            assert n == _kernels_py.step_block(py_ctx)
            for name in STATE:
                assert getattr(c_ctx, name).tobytes() == getattr(py_ctx, name).tobytes(), name
            for name in POSITION:
                assert getattr(c_ctx, name) == getattr(py_ctx, name), name
            assert c_ctx.tx_drive[:] == py_ctx.tx_drive[:]
            assert c_ctx.events[:c_ctx.n_events].tobytes() == py_ctx.events[:py_ctx.n_events].tobytes()
            if not _stopped(c_ctx):
                assert c_ctx.quarter == c_ctx.q_end and c_ctx.pos == 0
                break
            assert n >= 1
            changes += 1
            i, hears, opened, send, sender = _caller(rng, c_ctx, len(drives), changes, hear_p, byte_p, send_p,
                                                     sender)
            py_ctx.rx_bits[:] = c_ctx.rx_bits
            _set_drives(ctxs, states, i, drives, hears, opened, send)
        nacked = [q for q in range(q0, c_ctx.quarter) if c_ctx.code[q] & CHECKPOINT and c_ctx.obs[q] & 1]
        assert nacked in ([], [c_ctx.quarter - 1])
        assert c_ctx.quarter == q_end or nacked
    if traced:
        for name in ("trace_det", "trace_ref", "trace_out", "trace_wire"):
            assert getattr(c_ctx, name).tobytes() == getattr(py_ctx, name).tobytes(), name


def _context(groups=2, quarters=4, **kwargs):
    params = dict(alpha=0.01, samples_per_quarter=16, quarters=quarters)
    return kernels.BlockContext(groups, **{**params, **kwargs})


@pytest.mark.parametrize("backend", ["c", "python"])
@pytest.mark.parametrize("start,change", [(0, 0), (5, 5), (0, 5), (0, 8), (8, 11), (0, 15)],
                         ids=["first_sample", "first_sample_mid_quarter", "mid_quarter", "at_midpoint",
                              "from_midpoint", "at_last_sample"])
def test_quiet_run_stops_where_the_per_sample_body_must_act(backend, start, change):
    """A call from ``pos = start`` whose SCL output falls at sample ``change`` of the quarter stops right after it.

    One group, no noise, no traces: the shape in which the C stepper steps
    quiet samples in registers.  With alpha = -1 the SCL reference runs
    away from its detector value, doubling its gap every sample, so under
    the fixed hysteresis the starting gap places the fall: the gap first
    exceeds half the hysteresis at sample ``change``.  SDA's reference runs
    the other way and its output never moves.  Quarters are 16 samples, so
    the midpoint is sample 8, where the master's observation and bit counts
    must come out as the per-sample body makes them.  Every state array
    must match the Python stepper's byte for byte.
    """
    # the n samples up to change leave a gap of gap * 2**n = 4/3 * half_h, one sample fewer 2/3 * half_h
    gap, mid = _kernels_py.HALF_H / 0.75 / 2.0 ** (change - start + 1), 8

    def context():
        ctx = _context(groups=1, quarters=2, alpha=-1.0)
        # a different detector value per code, so reading another code's row shows
        ctx.drive = ctx.add_drive([[0.3 - 0.01 * code] * 2 for code in range(4)], 0)
        ctx.code[:] = [1, 3]  # SCL's level is low in quarter 0: its midpoint counts SCL's bits
        ctx.q_end = 2
        ctx.pos = start
        det = ctx.dets[0, 1]
        ctx.ref[:] = [det[0] + gap, det[1] - gap]
        return ctx

    ctx, want = context(), context()
    n = load_stepper(backend)(ctx)
    assert n == _kernels_py.step_block(want)
    for name in STATE:
        assert getattr(ctx, name).tobytes() == getattr(want, name).tobytes(), name
    for name in POSITION:
        assert getattr(ctx, name) == getattr(want, name), name
    assert n == change - start + 1
    assert (ctx.quarter, ctx.pos) == divmod(change + 1, 16)
    assert ctx.out.tolist() == [0, 1]
    assert ctx.events[:ctx.n_events].tolist() == [2 * EDGE_FALL + 1]
    at_mid = start <= mid <= change
    assert ctx.obs[0] == (1 if change == mid else 3)
    assert ctx.bits_checked.tolist() == [int(at_mid), 0]
    assert ctx.bit_errors.tolist() == [int(at_mid and change > mid), 0]


def test_step_block_ends_at_the_first_output_change():
    """Runs across quarters to the first output change, counting bits per stream at the midpoints."""
    step = _kernels_py.step_block
    ctx = _context(groups=2, master=1)
    rows = np.full((4, 4), 0.3)
    rows[1, :2] = 0.03  # code 1 = (L, H): the master pulls SCL, a 20 dB drop
    ctx.drive = ctx.add_drive(rows, 0)
    ctx.code[:2] = [3, 1]
    ctx.q_end = 2
    _seed(ctx, rows[3])
    # quarter 0 settles high; the drop flips both SCL streams on quarter 1's first sample
    assert step(ctx) == 17
    assert (ctx.quarter, ctx.pos) == (1, 1)
    assert ctx.out.tolist() == [0, 0, 1, 1]
    # a fall in each group, logged with the group's SDA output
    fall = 2 * EDGE_FALL + 1
    assert ctx.events[:ctx.n_events].tolist() == [fall, 8 + fall]
    assert ctx.obs[0] == 3  # the master's outputs as 2 * scl + sda
    assert ctx.seen_low.tolist() == [1, 0]
    assert ctx.bits_checked.tolist() == [0, 0]  # quarter 0's midpoint came before SCL was low
    assert ctx.used[0].tolist() == [0, 1, 0, 1]
    # on to the segment end: quarter 1's midpoint sees SCL low on both groups' streams
    assert step(ctx) == 15
    assert (ctx.n_events, ctx.quarter, ctx.pos) == (0, 2, 0)
    assert ctx.obs[1] == 1
    assert ctx.bits_checked.tolist() == [2, 0]
    assert ctx.bit_errors.tolist() == [0, 0]
    assert 0 < ctx.eye[0] < math.inf and ctx.eye[1] == math.inf
    # a slave pulling SDA makes SDA's level low while the amplitudes keep both SDA streams high
    ctx.drive = ctx.add_drive(rows, 1)
    ctx.code[2] = 1
    ctx.q_end = 3
    assert step(ctx) == 16
    assert ctx.seen_low.tolist() == [1, 1]
    assert ctx.bits_checked.tolist() == [4, 2] and ctx.bit_errors.tolist() == [0, 2]
    assert ctx.used[:2].tolist() == [[0, 1, 0, 1], [0, 1, 0, 0]]


@pytest.mark.parametrize("backend", ["c", "python"])
def test_step_block_stops_only_on_edges_a_slave_acts_on(backend):
    """Falls and START/STOPs that reach a group end a call; rises are logged on the way."""
    step = load_stepper(backend)
    ctx = _context(groups=2, quarters=5)
    ctx.drive = ctx.add_drive(_keyed(2), 0)
    ctx.hears[:] = [HEAR_ALL, HEAR_DATA]  # clock edges reach group 0 only, data edges both
    ctx.code[:] = [3, 1, 0, 2, 3]  # idle, SCL falls, SDA falls under SCL low, SCL rises, STOP
    ctx.q_end = 5
    _seed(ctx, ctx.amps[0, 3])
    rise, fall, data = (2 * kind for kind in (EDGE_RISE, EDGE_FALL, EDGE_DATA))
    assert step(ctx) == 17
    assert (ctx.quarter, ctx.pos) == (1, 1)
    assert ctx.events[:ctx.n_events].tolist() == [fall + 1]
    # on through the SDA fall (SCL low: nobody acts) and the rise, to the STOP both groups hear
    assert step(ctx) == 48
    assert (ctx.quarter, ctx.pos) == (4, 1)
    assert ctx.events[:ctx.n_events].tolist() == [rise + 0, data + 1, 8 + data + 1]
    assert step(ctx) == 15
    assert (ctx.n_events, ctx.quarter) == (0, 5)


@pytest.mark.parametrize("backend", ["c", "python"])
def test_step_block_clocks_in_a_byte(backend):
    """In receive mode a group logs one byte on the fall after its eighth rise, or a START inside the byte."""
    step = load_stepper(backend)
    byte = 0xA5
    codes = [3, 2, 0] + _bits(*((byte >> i) & 1 for i in range(7, -1, -1))) + _bits(1, 0, 1) + [1, 3, 2]
    ctx = _context(groups=2, quarters=len(codes))
    ctx.drive = ctx.add_drive(_keyed(2), 0)
    ctx.hears[:] = [HEAR_BYTE, HEAR_ALL]  # group 0 receives; group 1 hears every edge
    ctx.code[:] = codes
    ctx.q_end = len(codes)
    _seed(ctx, ctx.amps[0, 3])
    fall, data, whole = (2 * k for k in (EDGE_FALL, EDGE_DATA, EDGE_BYTE))
    # the START in both groups, then group 1's fall after it; group 0 logs nothing on that fall
    assert step(ctx) == 16 + 1
    assert ctx.events[:ctx.n_events].tolist() == [data + 0, 8 + data + 0]
    assert step(ctx) == 16
    assert ctx.events[:ctx.n_events].tolist() == [8 + fall + 0]
    assert (ctx.rx_shift[0], ctx.rx_bits[0]) == (0, 0)
    ctx.hears[1] = HEAR_NONE
    # eight bits: group 0 shifts on each rise and logs the byte on the eighth bit's fall
    assert step(ctx) == 8 * 4 * 16
    assert (ctx.quarter, ctx.pos) == (2 + 8 * 4, 1)
    assert ctx.events[:ctx.n_events].tolist() == [whole + (byte & 1)]
    assert (ctx.rx_shift[0], ctx.rx_bits[0]) == (byte, 8)
    # a new byte, cut by a START after four rises
    ctx.rx_shift[0] = ctx.rx_bits[0] = 0
    assert step(ctx) == 15 + 3 * 4 * 16 + 2 * 16 + 1
    assert ctx.events[:ctx.n_events].tolist() == [data + 0]
    assert (ctx.rx_shift[0], ctx.rx_bits[0]) == (0b1011, 4)


@pytest.mark.parametrize("backend", ["c", "python"])
def test_step_block_clocks_out_a_byte(backend):
    """In send mode a group keys its byte on the falls, releases SDA, and logs the ACK its ninth rise sampled.

    The master releases SDA through the bits, so it reads the sent byte
    from the line; it ACKs the first byte, NACKs the second, and cuts the
    third with a START.  Each ACK slot's SDA changes together with its
    fall, so the ACK must be the level at the rise.
    """
    step = load_stepper(backend)
    first = 0x5A  # ends in a 0, so SDA released one fall early shows
    codes = [3] + _bits(*[1] * 8) + [0, 2, 2, 1] + _bits(*[1] * 8) + [3, 3, 3, 0] + _bits(1, 1) + [1, 3, 2, 0]
    ctx = _context(groups=2, quarters=len(codes))
    # SDA released (state 0) and pulled low by the sender (state 1)
    ctx.tx_drive[:] = [ctx.add_drive(_keyed(2, pulled), pulled) for pulled in (0, 1)]
    ctx.drive = 0  # released: the byte opens on the first fall, which keys bit 7
    ctx.tx_byte = first
    ctx.hears[:] = [SEND_BYTE, HEAR_NONE]  # group 0 sends; group 1 has no slave
    ctx.code[:] = codes
    ctx.q_end = len(codes)
    _seed(ctx, ctx.amps[0, 3])
    data, whole = (2 * k for k in (EDGE_DATA, EDGE_BYTE))

    def read(q0):  # the byte the master reads at the third quarter of each of 8 bits from quarter q0
        return sum((ctx.obs[q0 + 4 * i + 2] & 1) << (7 - i) for i in range(8))

    # one call: eight bits keyed, then the ACK slot, to its fall, where SDA rises too
    assert step(ctx) == 16 * (1 + 8 * 4 + 3) + 1
    assert ctx.events[:ctx.n_events].tolist() == [whole + 0]  # the ninth rise sampled the ACK
    assert read(1) == first
    assert (ctx.rx_bits[0], ctx.drive) == (9, 0)
    # pulled, SDA ran low only under the master's released intents (codes 1 and 3)
    assert ctx.used[:2].tolist() == [[1, 1, 1, 1], [0, 1, 0, 1]]
    # the next byte, 0xFF: SDA stays released, and the master NACKs it
    ctx.tx_byte, ctx.rx_shift[0], ctx.rx_bits[0] = 0xFF, 0, 0
    assert step(ctx) == 16 * 8 * 4 + 16 * 4
    assert ctx.events[:ctx.n_events].tolist() == [whole + 1]
    assert read(37) == 0xFF
    # a third byte, cut by a START after two bits and a rise
    ctx.rx_shift[0] = ctx.rx_bits[0] = 0
    assert step(ctx) == 15 + 16 * 4 * 2 + 16 * 2 + 1
    assert ctx.events[:ctx.n_events].tolist() == [data + 0]
    assert (ctx.rx_bits[0], ctx.quarter, ctx.drive) == (3, len(codes) - 2, 0)


@pytest.mark.parametrize("backend", ["c", "python"])
@pytest.mark.parametrize("noisy", [False, True], ids=["constant", "noisy"])
def test_empty_block_changes_nothing(backend, noisy):
    """A call with ``quarter == q_end`` returns 0, clears ``n_events`` and leaves every array as it was."""
    step = load_stepper(backend)
    noise = np.full((32, 6), 1e-3) if noisy else None
    ctx = _context(groups=3, quarters=2, noise=noise)
    ctx.drive = ctx.add_drive(np.full((4, 6), 0.3), 0)
    ctx.code[0] = 3
    ctx.q_end = 1
    _seed(ctx, ctx.amps[0, 3] + noise[0] if noisy else ctx.amps[0, 3])
    assert step(ctx) == 16
    before = {name: getattr(ctx, name).tobytes() for name in STATE}
    ctx.drive = ctx.add_drive(np.full((4, 6), 0.03), 0)  # a new level that a non-empty call would act on
    ctx.n_events = 1
    assert step(ctx) == 0
    assert {name: getattr(ctx, name).tobytes() for name in STATE} == before
    assert (ctx.n_events, ctx.quarter, ctx.pos) == (0, 1, 0)


@pytest.mark.parametrize("backend", ["c", "python"])
def test_add_drive_numbers_states_in_call_order(backend):
    """Indexes 0, 1, ... in call order; earlier rows and flags survive growth, and the kernels read the new table.

    Each added state's ``dets`` rows are ``detector`` of its amplitudes bit
    for bit, and a row not yet added reads ``detector(0.0)``.
    """
    step = load_stepper(backend)
    ctx = _context(groups=1, quarters=2)

    def check_table():
        for name in ("amps", "dets", "pulled", "used"):
            assert getattr(ctx, name + "_p") == getattr(ctx, name).ctypes.data, name
        assert ctx.dets.shape == ctx.amps.shape
        assert [_kernels_py.detector(row) for row in ctx.amps[:ctx.n_drives].reshape(-1, 2).tolist()] == \
            ctx.dets[:ctx.n_drives].reshape(-1, 2).tolist()
        assert (ctx.dets[ctx.n_drives:] == _kernels_py.detector([0.0])[0]).all()

    # a fresh context's drive 0 is an all-zero row inside the table
    assert ctx.drive == 0 and ctx.n_drives == 0 and len(ctx.pulled) >= 1
    assert not ctx.amps[0].any() and ctx.pulled[0] == 0 and not ctx.used[0].any()
    check_table()
    ctx.code[0] = 3
    ctx.q_end = 1
    _seed(ctx, ctx.amps[0, 3])
    assert step(ctx) == 16
    assert ctx.used[0].tolist() == [0, 0, 0, 1]
    n = 2 * kernels.BlockContext.DRIVES + 1  # grows twice
    assert [ctx.add_drive(np.full((4, 2), 0.1 * (i + 1)), i % 2) for i in range(n)] == list(range(n))
    assert ctx.n_drives == n and len(ctx.pulled) > n
    assert ctx.amps[:n, :, 0].tolist() == [[0.1 * (i + 1)] * 4 for i in range(n)]
    assert ctx.pulled[:n].tolist() == [i % 2 for i in range(n)]
    check_table()
    assert not ctx.used.any()  # the first add_drive took row 0 as a new state
    # the kernels step on the grown table: a late state's row, its SDA pulled, and its flags
    ctx.drive = last = n - 2
    ctx.code[1] = 1
    ctx.q_end = 2
    assert step(ctx) == 16
    assert ctx.used[last].tolist() == [0, 1, 0, 0] and ctx.used.sum() == 1
    assert ctx.det.tolist() == _kernels_py.detector([0.1 * (last + 1)] * 2)
    assert ctx.seen_low.tolist() == [1, 1]  # SDA's level is low: that state's slave pulls it
    # a third growth keeps the flags too
    rows = len(ctx.pulled)
    while ctx.n_drives <= rows:
        ctx.add_drive(np.zeros((4, 2)), 0)
    assert len(ctx.pulled) > rows and ctx.used[last].tolist() == [0, 1, 0, 0]
    check_table()
    # with noise every sample takes its own detector value: there is no table of them
    assert _context(groups=1, quarters=2, noise=np.zeros((32, 2))).dets is None


# the codes the C enums repeat from ``protocol``
C_CODES = ("EDGE_RISE", "EDGE_FALL", "EDGE_DATA", "EDGE_BYTE", "CHECKPOINT", "HEAR_NONE", "HEAR_DATA", "HEAR_ALL",
           "HEAR_BYTE", "SEND_BYTE")


@pytest.mark.builds_kernel
def test_block_context_layout_matches_the_c_struct(tmp_path):
    """Each ``block_ctx`` member sits at the offset of its ``BlockContext`` field; the C codes are ``protocol``'s.

    A ``_p`` field is the member without that suffix.  ``load_c`` checks
    only the size, which two same-size fields swapped in one language keep.
    The enums of ``_blockkernel.c`` are the one copy of the edge kinds, the
    checkpoint flag and the ``hears`` modes outside ``protocol``.
    """
    if shutil.which("cc") is None:
        pytest.skip("no C compiler (cc) on PATH")
    fields = [name for name, _ in kernels.BlockContext._fields_]
    members = [name.removesuffix("_p") for name in fields]
    prints = "".join(f'    printf("%zu\\n", offsetof(block_ctx, {m}));\n' for m in members)
    prints += '    printf("%zu\\n", sizeof(block_ctx));\n'
    prints += "".join(f'    printf("%d\\n", (int){name});\n' for name in C_CODES)
    program = tmp_path / "layout.c"
    program.write_text('#include <stddef.h>\n#include <stdio.h>\n#include "_blockkernel.c"\n\n'
                       f"int main(void)\n{{\n{prints}    return 0;\n}}\n")
    exe = tmp_path / "layout"
    r = subprocess.run(["cc", "-I", str(kernels.SOURCE.parent), "-o", str(exe), str(program), "-lm"],
                       capture_output=True, text=True, timeout=kernels.BUILD_TIMEOUT_S)
    assert r.returncode == 0, r.stderr
    values = [int(v) for v in subprocess.run([str(exe)], capture_output=True, text=True, check=True,
                                             timeout=60).stdout.split()]
    offsets, size, codes = values[:len(members)], values[len(members)], values[len(members) + 1:]
    want = [getattr(kernels.BlockContext, name).offset for name in fields]
    assert dict(zip(members, offsets)) == dict(zip(members, want))
    assert size == ctypes.sizeof(kernels.BlockContext)
    assert dict(zip(C_CODES, codes)) == {name: getattr(protocol, name) for name in C_CODES}


@pytest.mark.builds_kernel
def test_block_kernel_compiles_without_warnings(tmp_path):
    """``_blockkernel.c`` builds under -Wall -Wextra -Werror with the loader's flags."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler (cc) on PATH")
    r = subprocess.run(
        ["cc", "-Wall", "-Wextra", "-Werror", *kernels.CFLAGS,
         "-o", str(tmp_path / "blockkernel.so"), str(kernels.SOURCE), "-lm"],
        capture_output=True, text=True, timeout=kernels.BUILD_TIMEOUT_S,
    )
    assert r.returncode == 0, r.stderr


@pytest.mark.parametrize("field,value", [
    ("floor", DetectorParams.floor_volts), ("ref_in", DetectorParams.ref_in), ("ref_out", DetectorParams.ref_out),
    ("k", 20.0 * DetectorParams.slope), ("half_h", 0.5 * SlicerParams.hysteresis),
])
def test_block_context_takes_the_detector_and_slicer_of_modem(field, value):
    """Every context holds the one detector curve and hysteresis of ``modem``, as the C struct reads them."""
    assert getattr(_context(), field) == value


@pytest.mark.parametrize(
    "kwargs",
    [dict(master=2), dict(quarters=0)],
    ids=["master_outside_groups", "no_quarters"],
)
def test_block_context_rejects_params_the_kernels_would_disagree_on(kwargs):
    with pytest.raises(ValueError):
        _context(**kwargs)


@pytest.mark.parametrize("spq,quarters", [(2**63, 1), (1, 2**63), (2**32, 2**32)],
                         ids=["samples_per_quarter", "quarters", "product"])
def test_block_context_rejects_sizes_beyond_int64(spq, quarters):
    # ctypes would store them modulo 2**64: a spq of 2**64 reads 0 and the kernels never end
    with pytest.raises(ValueError, match="int64"):
        _context(samples_per_quarter=spq, quarters=quarters)


def test_block_context_rejects_misshapen_noise():
    # a row per sample of every quarter, a column per stream
    with pytest.raises(ValueError, match="noise"):
        _context(groups=2, quarters=4, noise=np.zeros((63, 4)))
    with pytest.raises(ValueError, match="noise"):
        _context(groups=2, quarters=4, noise=np.zeros((64, 2)))


# -- building and loading the C kernel --


def _copy_package(tmp_path: Path) -> Path:
    """A copy of the package with an empty kernel cache; returns its source root."""
    root = tmp_path / "src"
    shutil.copytree(PACKAGE, root / "fdmlink", ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    return root


def _run(code: str, root: Path, tmp_path: Path, **env) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(root), XDG_CACHE_HOME=str(tmp_path / "cache"), **env)
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=120)


def _kernel_files(root: Path, tmp_path: Path) -> list[Path]:
    dirs = (root / "fdmlink" / "__pycache__", tmp_path / "cache" / "fdmlink")
    return [p for d in dirs if d.is_dir() for p in d.iterdir() if p.name.startswith("_blockkernel")]


@pytest.mark.builds_kernel
def test_design_and_import_neither_build_nor_load_the_kernel(tmp_path):
    # neither `fdmlink design` nor importing the simulator compiles, so
    # criterion 01's cold-start gate never pays for a build
    root = _copy_package(tmp_path)
    spec = root / "fdmlink" / "data" / "filter_a.yaml"
    r = _run(f"""
        import json
        from fdmlink.cli import main
        main(["design", {str(spec)!r}, "--format", "json"], standalone_mode=False)
        import fdmlink.simulate
        from fdmlink import kernels
        print(json.dumps(kernels._stepper is None))
    """, root, tmp_path)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "true"
    assert _kernel_files(root, tmp_path) == []


@pytest.mark.builds_kernel
def test_first_run_builds_the_kernel_into_the_package_cache(tmp_path):
    load_stepper("c")  # skips without cc
    root = _copy_package(tmp_path)
    r = _run("""
        from fdmlink import kernels
        from fdmlink.simulate import load_scenario
        from importlib.resources import files
        metrics, _ = load_scenario(str(files("fdmlink") / "data" / "demo_scenario.yaml")).run()
        print(kernels.backend_name(), metrics.transactions_completed)
    """, root, tmp_path)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["c", "16"]
    built = _kernel_files(root, tmp_path)
    assert [p.parent for p in built] == [root / "fdmlink" / "__pycache__"]
    assert built[0].suffix == ".so"  # no temporary file left behind


@pytest.mark.builds_kernel
def test_world_writable_cache_is_skipped(tmp_path):
    load_stepper("c")
    root = _copy_package(tmp_path)
    pycache = root / "fdmlink" / "__pycache__"
    pycache.mkdir()
    pycache.chmod(0o777)
    r = _run("from fdmlink import kernels; print(kernels.backend_name())", root, tmp_path,
             PYTHONDONTWRITEBYTECODE="1")
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["c"]
    assert [p.parent for p in _kernel_files(root, tmp_path)] == [tmp_path / "cache" / "fdmlink"]


@pytest.mark.builds_kernel
def test_without_a_compiler_the_python_stepper_runs(tmp_path):
    root = _copy_package(tmp_path)
    empty = tmp_path / "no_tools"
    empty.mkdir()
    r = _run("""
        from fdmlink import kernels
        from fdmlink.simulate import load_scenario
        from importlib.resources import files
        metrics, _ = load_scenario(str(files("fdmlink") / "data" / "demo_scenario.yaml")).run()
        print(kernels.backend_name(), metrics.transactions_completed)
        print(kernels.backend_detail())
    """, root, tmp_path, PATH=str(empty))
    assert r.returncode == 0, r.stderr
    first, detail = r.stdout.splitlines()
    assert first.split() == ["python", "16"]
    assert "cc" in detail
    assert _kernel_files(root, tmp_path) == []
