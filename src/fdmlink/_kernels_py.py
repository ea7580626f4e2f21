"""Pure-Python implementations of the per-sample modem loops.

These are the hot kernels of the physical layer: stateful sample-by-sample
recurrences that cannot be vectorized (each output feeds the next state).
``slicer_loop`` and ``demod_loop`` run whole traces for the modem.
``step_block`` advances the demodulator streams of ``run_scenario`` one
block at a time.  It is the loop of ``step_block`` in ``_blockkernel.c``
written in Python, statement for statement: the reference the tests hold
the C kernel to, and the fallback where that cannot be built.
`fdmlink.kernels` picks the backend.
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

    This is ``step_block`` of ``_blockkernel.c`` statement for statement, so
    every double matches (``math.log10`` is the C library's log10); like it,
    it computes the detector once per block when there is no noise, and an
    empty block changes nothing.
    """
    start, isample, n = ctx.start, ctx.isample, ctx.end - ctx.start
    if n <= 0:
        return 0
    alpha, h2 = ctx.alpha, ctx.half_h
    floor, ref_in, ref_out, k = ctx.floor, ctx.ref_in, ctx.ref_out, ctx.k
    log10 = math.log10

    def detector(xs: list[float]) -> list[float]:
        return [ref_out + k * log10((floor if x < floor else x) / ref_in) for x in xs]

    if ctx.noise is None:
        rows = [detector(ctx.amp.tolist())] * n
    else:
        rows = map(detector, (ctx.amp + ctx.noise[isample:isample + n]).tolist())
    ref = ctx.ref.tolist() if ctx.started else None
    out = ctx.out.tolist()
    m = ctx.mid - start
    tracing = ctx.trace_det is not None
    trace_det: list[float] = []
    trace_ref: list[float] = []
    trace_out: list[int] = []
    for j, det in enumerate(rows):
        if ref is None:  # the run's first sample starts every reference at its input
            ref = det[:]
        changed = False
        for s, d in enumerate(det):
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
            trace_det += det
            trace_ref += ref
            trace_out += out
        if j == m:
            ctx.mid_out[:] = out
            ctx.mid_margin[:] = [abs(d - r) for d, r in zip(det, ref)]
        if changed:
            break
    n = j + 1
    if tracing:
        block = slice(isample, isample + n)
        ctx.trace_det[block].flat = trace_det
        ctx.trace_ref[block].flat = trace_ref
        ctx.trace_out[block].flat = trace_out
    ctx.ref[:] = ref
    ctx.det[:] = det
    ctx.out[:] = out
    ctx.started = 1
    return n
