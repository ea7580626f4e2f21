import math

import numpy as np
import pytest

from fdmlink import _kernels_py, kernels


def test_backend_name():
    assert kernels.backend_name() == "python"
    assert kernels.slicer_loop is _kernels_py.slicer_loop
    assert kernels.demod_loop is _kernels_py.demod_loop


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
