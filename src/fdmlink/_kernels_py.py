"""Pure-Python implementations of the per-sample modem loops.

These are the hot kernels of the physical layer: stateful sample-by-sample
recurrences that cannot be vectorized (each output feeds the next state).
They are the only implementation; `fdmlink.kernels` re-exports them.
"""

from __future__ import annotations

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
