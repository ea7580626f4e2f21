"""Pure-Python implementations of the per-sample modem loops.

These are the hot kernels of the physical layer: stateful sample-by-sample
recurrences that cannot be vectorized (each output feeds the next state).
``slicer_loop`` and ``demod_loop`` run whole traces for the modem.
``step_block`` advances the demodulator streams of ``run_scenario`` one
block at a time; it is the reference for the C copy in ``_blockkernel.c``
and the fallback where that cannot be built.  `fdmlink.kernels` picks the
backend.
"""

from __future__ import annotations

import ctypes
import math

import numpy as np


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


class BlockContext(ctypes.Structure):
    """State, buffers and position of the demodulator streams of one run.

    The fields mirror the C struct in ``_blockkernel.c``: scalars, then
    pointers into the numpy arrays this object keeps as attributes of the
    same name without the ``_p`` suffix (``amp``, ``ref``, ``det``, ``out``,
    ``mid_out``, ``mid_margin``, and ``noise`` and the ``trace_*`` arrays or
    None).  Every stream starts with its output high.  Before each
    ``step_block`` call the caller writes ``amp`` in place and sets
    ``isample`` and ``start``, keeping the block inside the noise and trace
    rows (``isample + end - start`` at most their count: the C kernel does
    not check); the kernels own the rest.
    """

    _fields_ = [
        ("n_streams", ctypes.c_int64),
        ("isample", ctypes.c_int64),
        ("start", ctypes.c_int64),
        ("end", ctypes.c_int64),
        ("mid", ctypes.c_int64),
        ("started", ctypes.c_int64),
        ("floor", ctypes.c_double),
        ("ref_in", ctypes.c_double),
        ("ref_out", ctypes.c_double),
        ("k", ctypes.c_double),
        ("alpha", ctypes.c_double),
        ("half_h", ctypes.c_double),
        ("amp_p", ctypes.c_void_p),
        ("noise_p", ctypes.c_void_p),
        ("ref_p", ctypes.c_void_p),
        ("det_p", ctypes.c_void_p),
        ("out_p", ctypes.c_void_p),
        ("mid_out_p", ctypes.c_void_p),
        ("mid_margin_p", ctypes.c_void_p),
        ("trace_det_p", ctypes.c_void_p),
        ("trace_ref_p", ctypes.c_void_p),
        ("trace_out_p", ctypes.c_void_p),
    ]

    def __init__(
        self,
        n_streams: int,
        *,
        floor: float,
        ref_in: float,
        ref_out: float,
        k: float,
        alpha: float,
        hysteresis: float,
        samples_per_quarter: int,
        noise: np.ndarray | None = None,
        trace_samples: int = 0,
    ):
        """``noise`` is (samples, n_streams); ``trace_samples`` > 0 records traces.

        Detector: d = ref_out + k*log10(max(x, floor)/ref_in); the
        reference starts at the first d.  Quarters are
        ``samples_per_quarter`` long, with the midpoint at half of that.
        """
        if n_streams < 1:
            raise ValueError(f"need at least one stream, got {n_streams}")
        # floor/ref_in > 0 keeps every log10 argument positive (or NaN)
        if not (ref_in > 0 and floor / ref_in > 0):
            raise ValueError(f"need ref_in > 0 and floor/ref_in > 0, got {floor!r}/{ref_in!r}")
        if not hysteresis >= 0:
            raise ValueError(f"hysteresis must be >= 0, got {hysteresis!r}")
        super().__init__(
            n_streams=n_streams,
            end=samples_per_quarter,
            mid=samples_per_quarter // 2,
            floor=floor,
            ref_in=ref_in,
            ref_out=ref_out,
            k=k,
            alpha=alpha,
            half_h=0.5 * hysteresis,
        )
        self.amp = np.zeros(n_streams)
        self.ref = np.zeros(n_streams)
        self.det = np.zeros(n_streams)
        self.out = np.ones(n_streams, dtype=np.uint8)
        self.mid_out = np.ones(n_streams, dtype=np.uint8)
        self.mid_margin = np.zeros(n_streams)
        if noise is not None:
            noise = np.ascontiguousarray(noise, dtype=np.float64)
            if noise.ndim != 2 or noise.shape[1] != n_streams:
                raise ValueError(f"noise must be (samples, {n_streams}), got {noise.shape}")
        self.noise = noise
        if trace_samples > 0:
            self.trace_det = np.zeros((trace_samples, n_streams))
            self.trace_ref = np.zeros((trace_samples, n_streams))
            self.trace_out = np.zeros((trace_samples, n_streams), dtype=np.uint8)
        else:
            self.trace_det = self.trace_ref = self.trace_out = None
        for name in ("amp", "noise", "ref", "det", "out", "mid_out", "mid_margin",
                     "trace_det", "trace_ref", "trace_out"):
            arr = getattr(self, name)
            setattr(self, name + "_p", None if arr is None else arr.ctypes.data)


def step_block(ctx: BlockContext) -> int:
    """Advance every stream from sample ``start`` of the quarter; return the count.

    Each stream s sees x = amp[s] (+ noise[isample + j - start, s]) at
    quarter sample j, and steps the log detector, the one-pole reference
    and the hysteresis slicer with the recurrence of ``demod_loop`` (no spikes).
    The block ends after the first sample where any output changes, or at
    the end of the quarter.  At the quarter midpoint it stores each
    stream's output and |det - ref| in ``mid_out``/``mid_margin``, and with
    traces on it writes every sample's det/ref/out at row isample + j - start.

    The per-sample arithmetic is the C kernel's.  Python runs it in the
    order that is cheapest for the input: stream by stream when the input
    is constant, sample by sample when it is noisy.
    """
    if ctx.end <= ctx.start:
        return 0
    return _step_constant(ctx) if ctx.noise is None else _step_noisy(ctx)


def _step_constant(ctx: BlockContext) -> int:
    """Constant input: one detector value per stream, streams one at a time.

    A stream stops at its first output change and later streams stop there
    too, so the block is as long as its earliest change; each stream keeps
    its references per sample to read back its state at the last sample.
    """
    start, isample, alpha, h2 = ctx.start, ctx.isample, ctx.alpha, ctx.half_h
    n = ctx.end - start
    floor, ref_in, ref_out, k = ctx.floor, ctx.ref_in, ctx.ref_out, ctx.k
    dets = [ref_out + k * math.log10((floor if x < floor else x) / ref_in) for x in ctx.amp.tolist()]
    started = ctx.started
    outs = ctx.out.tolist()
    refs = []
    flips: list[int] = []  # streams whose output changes at the block's last sample
    for s, (d, r) in enumerate(zip(dets, ctx.ref.tolist() if started else dets)):
        rs = []
        refs.append(rs)
        # one loop per output level, so each sample makes one comparison
        if outs[s]:
            for _ in range(n):
                r += alpha * (d - r)
                rs.append(r)
                if d < r - h2:
                    break
            else:
                continue
        else:
            for _ in range(n):
                r += alpha * (d - r)
                rs.append(r)
                if d > r + h2:
                    break
            else:
                continue
        if len(rs) < n:
            n = len(rs)
            flips = []
        flips.append(s)
    last = n - 1
    m = ctx.mid - start
    if 0 <= m < n:
        ctx.mid_out[:] = outs if m < last or not flips else [o ^ (s in flips) for s, o in enumerate(outs)]
        ctx.mid_margin[:] = [abs(d - rs[m]) for d, rs in zip(dets, refs)]
    if ctx.trace_det is not None:
        rows = slice(isample, isample + n)
        ctx.trace_det[rows] = dets
        ctx.trace_ref[rows] = np.array([rs[:n] for rs in refs]).T
        ctx.trace_out[rows] = outs
    for s in flips:
        outs[s] ^= 1
        if ctx.trace_out is not None:
            ctx.trace_out[isample + last, s] = outs[s]
    ctx.ref[:] = [rs[last] for rs in refs]
    ctx.det[:] = dets
    if flips:
        ctx.out[:] = outs
    if not started:
        ctx.started = 1
    return n


def _detector_rows(ctx: BlockContext, i0: int, i1: int) -> list[list[float]]:
    """Detector values of every stream for noise rows i0..i1-1, one list per row.

    ``np.maximum`` with floor > 0 clamps as the C comparison does (NaN
    stays NaN); ``math.log10`` is the C library's log10, and the other
    operations are elementwise IEEE arithmetic, so every double matches.
    """
    y = np.maximum(ctx.amp + ctx.noise[i0:i1], ctx.floor) / ctx.ref_in
    logs = np.fromiter(map(math.log10, y.ravel().tolist()), float, y.size)
    return (ctx.ref_out + ctx.k * logs).reshape(y.shape).tolist()


def _step_noisy(ctx: BlockContext) -> int:
    """Noisy input: sample by sample, every stream at once."""
    start, isample, alpha, h2 = ctx.start, ctx.isample, ctx.alpha, ctx.half_h
    n = ctx.end - start

    def rows():
        # a new amplitude flips outputs at the block's first sample, if at
        # all, so that sample's detector values come first, the rest lazily
        yield from _detector_rows(ctx, isample, isample + 1)
        yield from _detector_rows(ctx, isample + 1, isample + n)

    ref = ctx.ref.tolist() if ctx.started else None
    out = ctx.out.tolist()
    m = ctx.mid - start
    tracing = ctx.trace_det is not None
    trace: list[tuple[list, list, list]] = []
    j = 0
    for ds in rows():
        if ref is None:  # the run's first sample starts every reference at its input
            ref = ds[:]
        changed = False
        for s, d in enumerate(ds):
            r = ref[s]
            r += alpha * (d - r)
            ref[s] = r
            if out[s]:
                if d < r - h2:
                    out[s] = 0
                    changed = True
            elif d > r + h2:
                out[s] = 1
                changed = True
        if tracing:
            trace.append((ds, ref[:], out[:]))
        if j == m:
            ctx.mid_out[:] = out
            ctx.mid_margin[:] = [abs(d - r) for d, r in zip(ds, ref)]
        j += 1
        if changed:
            break
    if tracing:
        rows_ = slice(isample, isample + j)
        for col, arr in enumerate((ctx.trace_det, ctx.trace_ref, ctx.trace_out)):
            arr[rows_] = [t[col] for t in trace]
    ctx.ref[:] = ref
    ctx.det[:] = ds
    if changed:
        ctx.out[:] = out
    ctx.started = 1
    return j
