import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdmlink import _kernels_py
from fdmlink.modem import (
    CarrierSeparationWarning,
    ClipParams,
    Demodulator,
    DetectorParams,
    EnvelopeTrace,
    LogicTimeline,
    SlicerParams,
    VoltageTrace,
    check_carrier_separation,
    initial_reference,
    modulate,
    slice_levels,
)

SPB = 64  # samples per bit used throughout
RATE = 100e3 * SPB


def _timeline(bits):
    return LogicTimeline.from_bits(bits, SPB, RATE)


def _mid_bits(levels, n_bits):
    return [int(levels[i * SPB + SPB // 2]) for i in range(n_bits)]


def _detector_trace(env):
    _, det, _ = Demodulator(clip=None).run(env)
    return det


# -- detector transfer curve --


def test_detector_anchor_and_slope():
    env = EnvelopeTrace(RATE, np.array([0.010, 0.010 * 10 ** (6 / 20), 0.040]))
    det = _detector_trace(env)
    assert det.samples[0] == pytest.approx(1.0, abs=1e-12)  # anchor: 10 mV -> 1 V
    assert det.samples[1] - det.samples[0] == pytest.approx(6 * 0.044, rel=1e-12)
    # +12 dB above the anchor
    assert det.samples[2] == pytest.approx(1.0 + 12.0412 * 0.044, abs=1e-4)


def test_detector_floor_clamps():
    p = DetectorParams()
    env = EnvelopeTrace(RATE, np.array([0.0, 1e-9, p.floor_volts]))
    det = _detector_trace(env)
    floor_out = 1.0 + 0.044 * 20 * math.log10(p.floor_volts / 0.010)
    assert det.samples == pytest.approx([floor_out] * 3, rel=1e-12)
    assert np.all(np.isfinite(det.samples))
    assert initial_reference(env.samples.tolist()) == det.samples.tolist()


def test_detector_default_floor_is_60db_down():
    p = DetectorParams()
    assert p.floor_volts == pytest.approx(1e-5, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.one_of(
            # below and at the floor, near the anchor, and large
            st.sampled_from([0.0, 5e-324, 1e-9, 1e-5, 0.010, 1.0, 1e6, 1e300]),
            st.floats(min_value=0.0, max_value=1e300),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_demodulator_detector_trace_is_the_kernel_detector(xs):
    # with no spike model the whole-trace modem adds nothing to the detector,
    # so its trace is the block kernels' detector bit for bit
    det = _detector_trace(EnvelopeTrace(RATE, np.array(xs)))
    want = _kernels_py.detector(xs)
    assert det.samples.tobytes() == np.array(want).tobytes()
    assert initial_reference(xs) == want


# -- modulator --


def test_modulate_ideal_levels():
    tl = _timeline([1, 0, 1])
    env = modulate(0.02, 0.002, tl)
    assert env.samples[: SPB].max() == env.samples[: SPB].min() == 0.02
    assert env.samples[SPB : 2 * SPB].max() == 0.002


def test_modulate_rise_time_is_10_90():
    tl = LogicTimeline(1e8, np.concatenate([np.zeros(100, np.uint8), np.ones(4000, np.uint8)]))
    rise = 2e-6
    env = modulate(1.0, 0.0, tl, rise_time=rise)
    t = np.arange(len(tl)) / 1e8
    t0 = 100 / 1e8
    t10 = t[np.searchsorted(env.samples, 0.1)] - t0
    t90 = t[np.searchsorted(env.samples, 0.9)] - t0
    assert t90 - t10 == pytest.approx(rise, rel=0.05)


def test_modulate_rejects_bad_amplitudes():
    tl = _timeline([1, 0])
    with pytest.raises(ValueError):
        modulate(0.002, 0.02, tl)
    with pytest.raises(ValueError):
        modulate(0.02, -0.001, tl)


def test_carrier_separation_warning():
    with pytest.warns(CarrierSeparationWarning):
        check_carrier_separation(100e3, 5e6)  # 50x is too close
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check_carrier_separation(100e3, 20e6)  # 200x is fine


def test_from_bits_enforces_sampling_floor():
    with pytest.raises(ValueError):
        LogicTimeline.from_bits([1, 0], 32, RATE)


def test_transitions_indices():
    tl = LogicTimeline(RATE, np.array([1, 1, 0, 0, 1, 0], dtype=np.uint8))
    assert tl.transitions().tolist() == [2, 4, 5]


# -- demodulation round trip, no spike model --


def test_round_trip_simple_pattern():
    bits = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0]
    tl = _timeline(bits)
    env = modulate(0.02, 0.002, tl, rise_time=0.01 / 100e3)
    out, _, _ = Demodulator(slicer=SlicerParams.for_bit_rate(100e3)).run(env)
    assert _mid_bits(out.levels, len(bits)) == bits


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=1), min_size=2, max_size=40),
    st.floats(min_value=0.005, max_value=0.2),
    st.floats(min_value=6.5, max_value=40.0),
    st.floats(min_value=0.0, max_value=0.03),
)
def test_round_trip_random(bits, amp_h, depth_db, rise_frac):
    bits = [1] + bits  # the line idles high before data
    amp_l = amp_h * 10 ** (-depth_db / 20)
    tl = _timeline(bits)
    env = modulate(amp_h, amp_l, tl, rise_time=rise_frac / 100e3)
    out, _, _ = Demodulator(slicer=SlicerParams.for_bit_rate(100e3)).run(env)
    assert _mid_bits(out.levels, len(bits)) == bits


def test_closed_loop_matches_open_loop_without_spikes():
    bits = [1, 0, 0, 1, 0, 1, 1, 0]
    tl = _timeline(bits)
    env = modulate(0.02, 0.002, tl)
    sl = SlicerParams.for_bit_rate(100e3)
    dem = Demodulator(slicer=sl, clip=None)
    closed_out, det, _ = dem.run(env)
    open_out = slice_levels(det, sl)
    assert np.array_equal(open_out.levels, closed_out.levels)


# -- latch-up fault and recovery (closed loop) --

FAULT_AMP_H = 0.334
FAULT_AMP_L = 0.0131  # 28.1 dB depth -> 1.238 V slicer swing


def _fault_env(bits):
    return modulate(FAULT_AMP_H, FAULT_AMP_L, _timeline(bits))


def test_unclipped_spike_latches_high():
    # spike (1.5 V) exceeds the detector swing (1.24 V): the first falling
    # decision re-arms itself and the output never leaves H
    bits = [1, 0, 1, 0, 0, 1, 0, 1, 1, 0]
    dem = Demodulator(
        slicer=SlicerParams.for_bit_rate(100e3),
        clip=ClipParams(v_f=0.3, spike_amplitude=1.5, spike_decay=2e-6),
        clip_enabled=False,
    )
    out, _, _ = dem.run(_fault_env(bits))
    assert out.levels.all()
    assert _mid_bits(out.levels, len(bits)) != bits


def test_clip_restores_decoding_when_carrier_below_vf():
    # carrier amplitudes below the diode drop leave the keyed waveform
    # untouched while the clip caps the spike under the half-swing
    bits = [1, 0, 1, 0, 0, 1, 0, 1, 1, 0]
    amp_h, amp_l = 0.020, 0.000786
    assert amp_h < 0.3
    env = modulate(amp_h, amp_l, _timeline(bits))
    dem = Demodulator(
        slicer=SlicerParams.for_bit_rate(100e3),
        clip=ClipParams(v_f=0.3, spike_amplitude=1.5, spike_decay=2e-6),
        clip_enabled=True,
    )
    out, _, _ = dem.run(env)
    assert _mid_bits(out.levels, len(bits)) == bits


def test_clip_alone_insufficient_for_large_carrier():
    # same clip, but the carrier swing is small enough that v_f still
    # covers more than half of it: latch-up persists, matching the fault
    bits = [1, 0, 1, 0, 1]
    amp_h = 0.012
    amp_l = amp_h * 10 ** (-6.5 / 20)  # 6.5 dB -> 0.286 V swing < v_f
    dem = Demodulator(
        slicer=SlicerParams.for_bit_rate(100e3),
        clip=ClipParams(v_f=0.3, spike_amplitude=1.5, spike_decay=2e-6),
        clip_enabled=True,
    )
    out, _, _ = dem.run(modulate(amp_h, amp_l, _timeline(bits)))
    assert out.levels.all()


@pytest.mark.parametrize(
    "make",
    [
        lambda: SlicerParams(lpf_time_constant=math.nan),
        lambda: ClipParams(v_f=math.nan),
        lambda: ClipParams(spike_amplitude=math.nan),
        lambda: ClipParams(spike_decay=math.nan),
    ],
    ids=["slicer_lpf", "clip_v_f", "clip_spike_amplitude", "clip_spike_decay"],
)
def test_nan_parameters_are_rejected(make):
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize("make", [LogicTimeline, EnvelopeTrace, VoltageTrace])
@pytest.mark.parametrize(
    "rate,samples",
    [
        (math.nan, [1, 1]),
        (math.inf, [1, 1]),
        (-math.inf, [1, 1]),
        (0.0, [1, 1]),
        (-RATE, [1, 1]),
        (RATE, []),
        (RATE, [[1, 1], [1, 1]]),
    ],
    ids=["nan_rate", "inf_rate", "neg_inf_rate", "zero_rate", "negative_rate", "empty", "two_d"],
)
def test_traces_share_one_rate_and_shape_check(make, rate, samples):
    # else slice_levels and Demodulator.run divide by the rate or read sample 0
    with pytest.raises(ValueError, match="sample_rate must be finite|nonempty 1-D"):
        make(rate, np.array(samples))


def test_validation_errors():
    with pytest.raises(ValueError):
        SlicerParams(lpf_time_constant=0.0)
    with pytest.raises(ValueError):
        ClipParams(v_f=0.0)
    with pytest.raises(ValueError):
        EnvelopeTrace(RATE, np.array([0.1, -0.1]))
    with pytest.raises(ValueError):
        LogicTimeline(RATE, np.array([0, 2]))
