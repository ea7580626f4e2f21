"""The one-pole recurrences of `modulate` and `inject_latchup_spike`.

These tests hold both to their ``scipy.signal.lfilter`` formulas and check
that the modem path runs without scipy installed.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fdmlink
from fdmlink.modem import (
    ClipParams,
    DetectorParams,
    EnvelopeTrace,
    LogicTimeline,
    detect,
    inject_latchup_spike,
    modulate,
)

RATE = 1e6
TOL = 1e-12  # of the amplitude scale


def _timeline(segments, first_level):
    # alternating runs of the given lengths: one segment has no transitions
    levels = np.concatenate(
        [np.full(n, (first_level + i) % 2, dtype=np.uint8) for i, n in enumerate(segments)]
    )
    return LogicTimeline(RATE, levels)


def _lfilter_modulate(amp_h, amp_l, logic, rise_time):
    from scipy.signal import lfilter

    target = np.where(logic.levels, amp_h, amp_l).astype(np.float64)
    tau = rise_time / math.log(9.0)
    a = 1.0 - math.exp(-1.0 / (logic.sample_rate * tau))
    y, _ = lfilter([a], [1.0, a - 1.0], target, zi=[(1.0 - a) * target[0]])
    return y


def _lfilter_spike(env, logic, clip, clip_enabled, detector=DetectorParams()):
    from scipy.signal import lfilter

    amp = clip.effective_amplitude(clip_enabled)
    idx = logic.transitions()
    if idx.size == 0 or amp == 0.0:
        return env.samples
    impulses = np.zeros(len(env))
    impulses[idx] = amp
    spike_v, _ = lfilter([1.0], [1.0, -clip.decay_mult(env.sample_rate)], impulses, zi=[0.0])
    if clip_enabled:
        spike_v = np.minimum(spike_v, clip.v_f)
    factor = 10.0 ** (spike_v / (20.0 * detector.slope))
    base = np.where(factor > 1.0, np.maximum(env.samples, detector.floor_volts), env.samples)
    return base * factor


segments = st.lists(st.integers(min_value=1, max_value=3000), min_size=1, max_size=12)
# time constants in samples, from far below one sample (the decay underflows
# within a few samples) to a few hundred
in_samples = st.floats(min_value=-3.0, max_value=2.7).map(lambda e: 10.0**e / RATE)


@settings(max_examples=150, deadline=None)
@given(
    segments,
    st.integers(min_value=0, max_value=1),
    st.floats(min_value=1e-4, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    in_samples,
)
@example([400], 1, 0.02, 0.1, 1e-6)  # no transitions
@example([300, 1], 0, 0.5, 0.0, 3e-6)  # one-sample tail
@example([3000, 3000, 3000], 1, 1.0, 0.0, 1e-9)  # the lag underflows to zero
def test_modulate_matches_the_lfilter_formula(segs, first, amp_h, low_frac, rise_time):
    logic = _timeline(segs, first)
    amp_l = amp_h * low_frac
    got = modulate(amp_h, amp_l, logic, rise_time=rise_time).samples
    want = _lfilter_modulate(amp_h, amp_l, logic, rise_time)
    assert np.max(np.abs(got - want)) <= TOL * amp_h


@settings(max_examples=150, deadline=None)
@given(
    segments,
    st.integers(min_value=0, max_value=1),
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=0.05, max_value=1.0),
    in_samples,
    st.booleans(),
)
@example([400], 1, 1.0, 0.3, 2e-6, True)  # no transitions
@example([300, 1], 0, 1.5, 0.3, 2e-6, False)  # one-sample tail
@example([3000, 3000, 3000], 1, 2.0, 0.3, 1e-9, True)  # the spike underflows to zero
@example([3000, 3000, 3000], 0, 2.0, 0.3, 1e-9, False)
def test_spike_matches_the_lfilter_formula(segs, first, amp, v_f, decay, clip_enabled):
    logic = _timeline(segs, first)
    env = modulate(0.02, 0.002, logic)
    clip = ClipParams(v_f=v_f, spike_amplitude=amp, spike_decay=decay)
    got = inject_latchup_spike(env, logic, clip, clip_enabled=clip_enabled)
    want = _lfilter_spike(env, logic, clip, clip_enabled)
    # compare the spike in detector volts, where it is additive; the detector
    # output sits near 1 V, so its own rounding is of that scale even for a
    # small spike
    lift = detect(got).samples - detect(EnvelopeTrace(RATE, want)).samples
    assert np.max(np.abs(lift)) <= TOL * max(amp, 1.0)


def test_modem_runs_without_scipy():
    probe = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from fdmlink.modem import ClipParams, Demodulator, LogicTimeline, SlicerParams,"
        " inject_latchup_spike, modulate\n"
        "tl = LogicTimeline.from_bits([1, 0, 1, 1, 0, 1], 64, 6.4e6)\n"
        "env = modulate(0.02, 0.002, tl, rise_time=1e-7)\n"
        "env = inject_latchup_spike(env, tl, ClipParams(spike_amplitude=1.0))\n"
        "dem = Demodulator(slicer=SlicerParams.for_bit_rate(100e3), clip=ClipParams())\n"
        "out, _, _ = dem.run(env)\n"
        "print(''.join(str(int(out.levels[i * 64 + 32])) for i in range(6)))\n"
    )
    src = str(Path(fdmlink.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    r = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "101101"
