import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdmlink.analysis import (
    budget,
    modulation_ratio,
    multinode_approx,
    multinode_ratio,
    n_max,
    sweep,
)
from fdmlink.elements import POLE
from fdmlink.loss import LOSSLESS, LossModel

from . import oracles


def test_ratio_is_exactly_one_with_zero_pullup():
    assert modulation_ratio(8897.0, 27.1, 0.0) == 1.0


def test_ratio_frozen_value():
    assert modulation_ratio(8897.0, 27.1, 2000.0 + 52.97j) == pytest.approx(
        61.09217885667004, rel=1e-12
    )


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=1e2, max_value=1e6),
    st.floats(min_value=1e-1, max_value=1e2),
    st.floats(min_value=1.0, max_value=1e5),
    st.floats(min_value=-1e4, max_value=1e4),
)
def test_ratio_matches_divider_oracle(zh, zl, rp, xp):
    zp = complex(rp, xp)
    mine = modulation_ratio(zh, zl, zp)
    ref = oracles.envelope_ratio(zh, zl, zp)
    assert mine == pytest.approx(ref, rel=1e-12)


def test_ratio_approaches_impedance_ratio_for_large_pullup():
    # with an infinite pull-up the divider degenerates to |z_h|/|z_l|
    r = modulation_ratio(9000.0, 30.0, 1e9)
    assert r == pytest.approx(300.0, rel=1e-3)


def test_pole_input_is_capped_not_infinite():
    # a pole-flagged z_h acts as a huge finite impedance; the divider then
    # saturates at |(z_p + z_l)/z_l| rather than blowing up
    r = modulation_ratio(POLE, 30.0, 2e3)
    assert math.isfinite(r)
    assert r == pytest.approx(2030.0 / 30.0, rel=1e-5)  # cap at 1e9 ohm, not inf


@pytest.mark.parametrize("z_l", [30.0, 30.0 - 4j])
def test_finite_load_above_the_cap_reads_as_a_pole(z_l):
    """A released 5e11 ohm, above DEFAULT_POLE_CAP but below POLE_CLAMP, is an open just as POLE is."""
    assert modulation_ratio(5e11, z_l, 2e3 + 50j) == modulation_ratio(POLE, z_l, 2e3 + 50j)
    for n in (1, 2, 8, 64):
        assert multinode_ratio(5e11, z_l, n) == multinode_ratio(POLE, z_l, n)
        assert multinode_approx(5e11, z_l, n) == multinode_approx(POLE, z_l, n)
    for z_p in (None, 2e3 + 50j):
        finite, pole = budget(5e11, z_l, z_p).to_dict(), budget(POLE, z_l, z_p).to_dict()
        assert finite.pop("z_h_ohm") == [5e11, 0.0] and pole.pop("z_h_ohm") == [math.inf, 0.0]
        assert finite == pole


# -- multi-node scaling --


def test_multinode_resistive_closed_form():
    # with r = z_h/z_l the worst-case ratio is 1 + (r - 1)/n
    for r in (10.0, 44.0, 87.0, 200.0):
        for n in (1, 2, 5, 10, 50):
            got = multinode_ratio(r, 1.0, n)
            assert got == pytest.approx(1.0 + (r - 1.0) / n, rel=1e-12)


def test_multinode_n1_equals_impedance_ratio():
    assert multinode_ratio(10.0, 1.0, 1) == pytest.approx(10.0, rel=1e-12)


def test_multinode_at_n_equals_r():
    # the depth bottoms out near 2 when as many nodes share the bus as the
    # impedance ratio supports
    for r in (10, 44, 87, 200):
        got = multinode_ratio(float(r), 1.0, r)
        assert 1.9 - 1e-9 <= got <= 2.1 + 1e-9


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=5.0, max_value=500.0),
    st.integers(min_value=1, max_value=64),
)
def test_multinode_nonincreasing_in_n(r, n):
    a = multinode_ratio(r, 1.0, n)
    b = multinode_ratio(r, 1.0, n + 1)
    assert b <= a + 1e-12


def test_approx_error_frozen():
    # |exact - approx| / approx for r = 10
    expected = {1: 9.0909, 5: 6.6667, 10: 5.0000, 44: 1.8519, 200: 0.4762}
    for n, want in expected.items():
        ex = multinode_ratio(10.0, 1.0, n)
        ap = multinode_approx(10.0, 1.0, n)
        err = abs(ex - ap) / ap * 100.0
        assert err == pytest.approx(want, abs=5e-4)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=10.0, max_value=1000.0),
    st.integers(min_value=10, max_value=1000),
)
def test_approx_error_bounded_for_ten_or_more_nodes(r, n):
    # resistive error is 1/(n + r), at most 5% once both reach 10
    ex = multinode_ratio(r, 1.0, n)
    ap = multinode_approx(r, 1.0, n)
    assert abs(ex - ap) / ap <= 0.05 + 1e-12


def test_n_max_frozen():
    assert n_max(44.0, 1.0, 6.0) == 43
    assert n_max(87.0, 1.0, 6.0) == 86
    assert n_max(10.0, 1.0, 6.0) == 9
    # a single node already below the floor
    assert n_max(1.5, 1.0, 6.0) == 0


def test_n_max_is_the_boundary():
    for r in (44.0, 87.0):
        n = n_max(r, 1.0, 6.0)
        assert 20 * math.log10(multinode_ratio(r, 1.0, n)) >= 6.0
        assert 20 * math.log10(multinode_ratio(r, 1.0, n + 1)) < 6.0


def test_n_max_rejects_nonpositive_floor():
    with pytest.raises(ValueError):
        n_max(44.0, 1.0, 0.0)


# -- budget report --


def test_budget_dict_schema():
    b = budget(8897.0, 27.1, 2000.0 + 52.97j)
    d = b.to_dict()
    assert d["schema_version"] == 1
    assert sorted(d) == [
        "approx_n",
        "depth_single_db",
        "min_depth_db",
        "n",
        "n_max",
        "ratio_n",
        "ratio_n_db",
        "ratio_single",
        "schema_version",
        "z_h_ohm",
        "z_l_ohm",
        "z_p_ohm",
    ]
    assert d["n"] == [1, 2, 4, 8, 16, 32, 64]
    assert len(d["ratio_n"]) == 7
    assert d["ratio_single"] == pytest.approx(61.09217885667004, rel=1e-9)
    assert d["depth_single_db"] == pytest.approx(20 * math.log10(61.09217885667004), rel=1e-9)


def test_budget_without_pullup_uses_impedance_ratio():
    b = budget(9000.0, 30.0, None)
    assert b.to_dict()["z_p_ohm"] is None
    assert b.ratio_single == pytest.approx(300.0, rel=1e-12)


def test_budget_with_shorted_pulled_state():
    # a lossless design reports z_l = 0 at f_mod; the approximation diverges
    # there, while the exact ratios stay finite behind their 1e-30 floor
    b = budget(100.0, 0.0)
    assert all(a == math.inf for a in b.approx_n)
    assert all(math.isfinite(r) for r in b.ratio_n)
    assert multinode_approx(100.0, 0.0, 1) == math.inf


# -- frequency sweep --


def test_sweep_csv_schema(design_a):
    res = sweep(design_a, loss=LossModel(), points=101, which="snapped")
    text = res.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "# schema_version: 1"
    assert lines[1] == "f_hz,zh_abs,zh_arg,zl_abs,zl_arg,marker"
    assert len(lines) == 103
    for row in lines[2:]:
        assert len(row.split(",")) == 6


def test_sweep_lossless_marks_poles(design_a):
    res = sweep(design_a, loss=LOSSLESS, points=201, which="exact")
    text = res.to_csv()
    assert "pole_h" in text
    # sentinel magnitude appears on the marked rows
    marked = [r for r in text.strip().split("\n")[2:] if r.endswith("pole_h")]
    assert marked and all(f"{1e12:.10g}" in r for r in marked)


def test_sweep_ratio_at_matches_verify(design_a, q40):
    res = sweep(design_a, loss=q40, points=2001, which="snapped")
    # dense grid lands close to the exact carrier evaluation
    assert res.ratio_at(20e6) == pytest.approx(328.36427340626994, rel=2e-2)


def test_sweep_covers_requested_band(design_b, q40):
    res = sweep(design_b, loss=q40, f_lo=2e6, f_hi=80e6, points=64)
    assert res.frequencies[0] == pytest.approx(2e6)
    assert res.frequencies[-1] == pytest.approx(80e6)
    assert res.z_h.shape == res.z_l.shape == res.frequencies.shape
