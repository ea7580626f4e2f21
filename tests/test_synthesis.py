import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdmlink.elements import is_pole
from fdmlink.loss import LOSSLESS, LossModel
from fdmlink.synthesis import (
    ConfigKind,
    FilterSpec,
    InfeasibleConfigError,
    SynthesisError,
    classify,
    default_xm_inductance,
    design_from_dict,
    design_to_dict,
    synthesize,
    verify_design,
)
from fdmlink.units import ConfigError

TWO_PI = 2.0 * math.pi


# -- frozen reference designs --


def test_design_a_reactances(design_a):
    d = design_a
    assert d.config is ConfigKind.A
    assert d.alpha == pytest.approx(0.4, rel=1e-12)
    assert d.x_io_h == pytest.approx(442.09706414415376, rel=1e-12)
    assert d.x_m == pytest.approx(590.6194188748811, rel=1e-12)
    assert d.x1 == pytest.approx(198.41838807685096, rel=1e-12)
    assert d.x2 == pytest.approx(-148.5223547307274, rel=1e-12)


def test_design_a_exact_elements(design_a):
    v = design_a.exact
    assert set(v) == {"l_m", "c_2", "l_1", "c_1"}
    assert v["l_m"] == pytest.approx(4.7e-6, rel=1e-12)
    assert v["c_2"] == pytest.approx(5.357945724077865e-11, rel=1e-9)
    assert v["l_1"] == pytest.approx(1.3263292250357864e-6, rel=1e-9)
    assert v["c_1"] == pytest.approx(7.63921820689761e-12, rel=1e-9)


def test_design_a_snapped_elements(design_a):
    v = design_a.snapped
    assert v["l_m"] == pytest.approx(4.7e-6, rel=1e-12)
    assert v["c_2"] == pytest.approx(56e-12, rel=1e-9)
    assert v["l_1"] == pytest.approx(1.2e-6, rel=1e-9)  # floor, not nearest
    assert v["c_1"] == pytest.approx(8e-12, rel=1e-9)  # integer-pF grid
    assert design_a.dcb == ("shunt",)


def test_design_b_reactances(design_b):
    d = design_b
    assert d.config is ConfigKind.B
    assert d.alpha == pytest.approx(2.5, rel=1e-12)
    assert d.x_io_h == pytest.approx(397.8873577297384, rel=1e-12)
    assert d.x_m == pytest.approx(314.15926535897927, rel=1e-12)
    assert d.x1 == pytest.approx(-66.10905191658085, rel=1e-12)
    assert d.x2 == pytest.approx(83.72809237075916, rel=1e-12)


def test_design_b_exact_elements(design_b):
    v = design_b.exact
    assert set(v) == {"l_m", "l_2", "l_1", "c_1"}
    assert v["l_m"] == pytest.approx(1.0e-6, rel=1e-12)
    assert v["l_2"] == pytest.approx(2.6651479552922264e-7, rel=1e-9)
    assert v["l_1"] == pytest.approx(1.104766151542471e-6, rel=1e-9)
    assert v["c_1"] == pytest.approx(5.732049238478742e-11, rel=1e-9)


def test_design_b_snapped_elements(design_b):
    v = design_b.snapped
    assert v["l_m"] == pytest.approx(1.0e-6, rel=1e-12)
    assert v["l_2"] == pytest.approx(0.22e-6, rel=1e-9)  # floor skips 0.27
    assert v["l_1"] == pytest.approx(1.0e-6, rel=1e-9)
    assert v["c_1"] == pytest.approx(56e-12, rel=1e-9)
    assert design_b.dcb == ("shunt", "port2")


# -- design equations as invariants --


@pytest.fixture(params=["a", "b"])
def any_design(request, design_a, design_b):
    return design_a if request.param == "a" else design_b


def test_t_identity(any_design):
    # (x1 + xm)(x2 + xm) = xm^2 makes the high state an exact open at f_mod
    d = any_design
    lhs = (d.x1 + d.x_m) * (d.x2 + d.x_m)
    assert lhs == pytest.approx(d.x_m**2, rel=1e-9)


def test_arm1_resonates_at_f_stop(any_design):
    d = any_design
    w_stop = TWO_PI * d.f_stop
    assert d.exact["l_1"] * d.exact["c_1"] == pytest.approx(1.0 / w_stop**2, rel=1e-9)


def test_x2_is_leftover_reactance(any_design):
    d = any_design
    assert d.x2 == pytest.approx(d.x_io_h - d.x_m, rel=1e-9)
    assert d.x1 == pytest.approx(-(d.x_m / d.x_io_h) * d.x2, rel=1e-9)


def test_lossless_pattern_exact(any_design):
    r = verify_design(any_design, loss=LOSSLESS, which="exact")
    assert r.passed
    assert abs(r.zin_l_fmod) <= 1e-6
    assert is_pole(r.zin_h_fmod)
    assert is_pole(r.zin_h_fstop) and is_pole(r.zin_l_fstop)
    assert len(r.h_zeros) == 1
    p_lo, p_hi = sorted(r.h_poles)[:2]
    assert p_lo < r.h_zeros[0] < p_hi


def test_verification_frozen_lossy(design_a, design_b, q40):
    ra = verify_design(design_a, loss=q40, which="snapped")
    assert ra.ratio_fmod == pytest.approx(328.36427340626994, rel=1e-9)
    assert abs(ra.zin_h_fmod) == pytest.approx(8897.176589335852, rel=1e-9)
    assert abs(ra.zin_l_fmod) == pytest.approx(27.095446459632914, rel=1e-9)
    assert not ra.cancellation_risk and ra.passed

    rb = verify_design(design_b, loss=q40, which="exact")
    assert rb.ratio_fmod == pytest.approx(657.7688994954946, rel=1e-9)
    rb_snap = verify_design(design_b, loss=q40, which="snapped")
    assert rb_snap.ratio_fmod == pytest.approx(279.4475836272243, rel=1e-9)


def test_lossless_zero_between_poles_frozen(design_a, design_b):
    ra = verify_design(design_a, loss=LOSSLESS, which="exact")
    assert ra.h_zeros[0] == pytest.approx(34056440.17, rel=1e-4)
    rb = verify_design(design_b, loss=LOSSLESS, which="exact")
    assert rb.h_zeros[0] == pytest.approx(27072020.73, rel=1e-4)
    for r in (ra, rb):
        assert min(r.h_poles) == pytest.approx(20e6, rel=1e-3)
        assert max(r.h_poles) == pytest.approx(50e6, rel=1e-3)


# -- classification --


def _spec(f_mod, f_stop, xm_l=None, xm_c=None, c_io=8e-12):
    return FilterSpec(f_mod, f_stop, c_io, xm_inductance=xm_l, xm_capacitance=xm_c)


def test_classify_cases():
    # X_IO_H at 20 MHz / 8 pF is 994.7 ohm -> boundary inductance 7.91 uH
    assert classify(_spec(20e6, 50e6, xm_l=10e-6)) is ConfigKind.A
    assert classify(_spec(50e6, 20e6, xm_l=0.5e-6)) is ConfigKind.B
    assert classify(_spec(20e6, 50e6, xm_c=100e-12)) is ConfigKind.C
    x = 1.0 / (TWO_PI * 20e6 * 8e-12)
    l_d = x / (TWO_PI * 20e6)
    assert classify(_spec(20e6, 50e6, xm_l=l_d)) is ConfigKind.D1
    x50 = 1.0 / (TWO_PI * 50e6 * 8e-12)
    l_d50 = x50 / (TWO_PI * 50e6)
    assert classify(_spec(50e6, 20e6, xm_l=l_d50)) is ConfigKind.D2


def test_classify_rejections():
    with pytest.raises(InfeasibleConfigError, match=r"configuration \(e\)"):
        classify(_spec(20e6, 50e6, xm_l=0.0))
    with pytest.raises(InfeasibleConfigError, match=r"configuration \(a\)"):
        classify(_spec(50e6, 20e6, xm_l=100e-6))  # xm > X needs f_stop > f_mod
    with pytest.raises(InfeasibleConfigError, match=r"configuration \(b\)"):
        classify(_spec(20e6, 50e6, xm_l=1e-7))  # xm < X needs f_stop < f_mod
    with pytest.raises(InfeasibleConfigError, match=r"configuration \(c\)"):
        classify(_spec(50e6, 20e6, xm_c=100e-12))


def test_degenerate_configs_synthesize():
    x = 1.0 / (TWO_PI * 20e6 * 8e-12)
    d1 = synthesize(_spec(20e6, 50e6, xm_l=x / (TWO_PI * 20e6)))
    assert d1.config is ConfigKind.D1 and "c_ser" in d1.exact
    assert d1.x1 == 0.0 and d1.x2 == 0.0
    r1 = verify_design(d1, loss=LOSSLESS, which="exact")
    assert abs(r1.zin_l_fmod) <= 1e-6 and is_pole(r1.zin_h_fmod)

    x50 = 1.0 / (TWO_PI * 50e6 * 8e-12)
    d2 = synthesize(_spec(50e6, 20e6, xm_l=x50 / (TWO_PI * 50e6)))
    assert d2.config is ConfigKind.D2 and "l_ser" in d2.exact
    r2 = verify_design(d2, loss=LOSSLESS, which="exact")
    assert abs(r2.zin_l_fmod) <= 1e-6 and is_pole(r2.zin_h_fmod)


def test_experimental_flag_for_capacitive_shunt():
    d = synthesize(_spec(20e6, 50e6, xm_c=100e-12))
    assert d.config is ConfigKind.C
    r = verify_design(d, loss=LOSSLESS, which="exact")
    assert r.experimental
    assert abs(r.zin_l_fmod) <= 1e-6 and is_pole(r.zin_h_fmod)


def test_default_xm_targets_geometric_mean():
    l_m = default_xm_inductance(20e6, 50e6, 18e-12)
    d = synthesize(FilterSpec(20e6, 50e6, 18e-12, xm_inductance=l_m))
    r = verify_design(d, loss=LOSSLESS, which="exact")
    target = math.sqrt(20e6 * 50e6)
    assert r.h_zeros[0] == pytest.approx(target, rel=1e-3)


@pytest.mark.parametrize(
    "f_mod,f_stop,c_total",
    [(20e6, 50e6, 18e-12), (50e6, 20e6, 8e-12), (3e6, 17e6, 2e-12), (70e6, 12e6, 30e-12)],
)
def test_default_xm_zero_is_exact(f_mod, f_stop, c_total):
    # the closed form puts the lossless high-state zero on the target itself
    target = math.sqrt(f_mod * f_stop)
    l_m = default_xm_inductance(f_mod, f_stop, c_total)
    d = synthesize(FilterSpec(f_mod, f_stop, c_total, xm_inductance=l_m))
    r = verify_design(d, loss=LOSSLESS, which="exact")
    nearest = min(r.h_zeros, key=lambda z: abs(z - target))
    assert nearest == pytest.approx(target, rel=1e-9)


def test_default_xm_rejects_zero_at_f_stop():
    # x1 is itself a pole at f_stop, so no x_m can put a zero there
    with pytest.raises(SynthesisError):
        default_xm_inductance(20e6, 50e6, 18e-12, zero_target=50e6)
    with pytest.raises(SynthesisError):
        default_xm_inductance(50e6, 20e6, 8e-12, zero_target=20e6)


# -- randomized lossless synthesis across the configuration space --

_fmod = st.floats(min_value=1e6, max_value=80e6)
_ratio = st.floats(min_value=1.3, max_value=6.0)
_cio = st.floats(min_value=2e-12, max_value=30e-12)
_factor = st.floats(min_value=0.1, max_value=8.0)


@settings(max_examples=150, deadline=None)
@given(_fmod, _ratio, _cio, _factor, st.booleans())
def test_random_specs_meet_lossless_pattern(f_mod, ratio, c_io, factor, stop_above):
    f_stop = f_mod * ratio if stop_above else f_mod / ratio
    w_mod = TWO_PI * f_mod
    x = 1.0 / (w_mod * c_io)
    # keep clear of the D boundary; pick the side the frequency order allows
    if stop_above:
        xm = x * (1.05 + factor)
    else:
        xm = x * min(0.95, 0.1 + factor / 10.0)
    spec = FilterSpec(f_mod, f_stop, c_io, xm_inductance=xm / w_mod)
    d = synthesize(spec)
    zl = d.input_impedance(f_mod, "L")
    zh = d.input_impedance(f_mod, "H")
    assert abs(zl) <= 1e-6
    assert is_pole(zh)
    assert is_pole(d.input_impedance(f_stop, "H"))
    assert is_pole(d.input_impedance(f_stop, "L"))
    # realized arm 1 resonates at f_stop
    w_stop = TWO_PI * f_stop
    assert d.exact["l_1"] * d.exact["c_1"] == pytest.approx(1.0 / w_stop**2, rel=1e-9)
    assert (d.x1 + d.x_m) * (d.x2 + d.x_m) == pytest.approx(d.x_m**2, rel=1e-9)


# -- serialization --


def test_design_round_trip(design_a):
    rec = design_to_dict(design_a)
    back = design_from_dict(rec)
    assert back.config is design_a.config
    assert back.exact == pytest.approx(design_a.exact)
    assert back.snapped == pytest.approx(design_a.snapped)
    assert back.dcb == design_a.dcb


def test_spec_validation():
    with pytest.raises(ValueError):
        FilterSpec(0.0, 50e6, 8e-12)
    with pytest.raises(ValueError):
        FilterSpec(20e6, 20e6, 8e-12)
    with pytest.raises(ValueError):
        FilterSpec(20e6, 50e6, -1e-12)
    with pytest.raises(ValueError):
        FilterSpec(20e6, 50e6, 8e-12, xm_inductance=1e-6, xm_capacitance=1e-12)
    with pytest.raises(ValueError):
        FilterSpec(20e6, 50e6, 8e-12, eseries="E13")


@pytest.mark.parametrize(
    "kwargs",
    [
        {"f_mod": math.nan},
        {"f_stop": math.nan},
        {"c_io": math.nan},
        {"shunt_c": math.nan},
        {"xm_inductance": -4.7e-6},
        {"xm_inductance": math.nan},
        {"xm_inductance": math.inf},
        {"eseries": ["E12"]},
    ],
    ids=["nan_f_mod", "nan_f_stop", "nan_c_io", "nan_shunt_c", "negative_xm_inductance",
         "nan_xm_inductance", "inf_xm_inductance", "eseries_not_a_name"],
)
def test_spec_rejects_negative_and_non_finite_values(kwargs):
    args = {"f_mod": 20e6, "f_stop": 50e6, "c_io": 8e-12, **kwargs}
    with pytest.raises(ValueError):
        FilterSpec(**args)


@pytest.mark.parametrize("field", ["inductor_q", "q_ref_hz"])
def test_loss_model_rejects_nan(field):
    with pytest.raises(ValueError):
        LossModel(**{field: math.nan})


def test_input_impedance_names_a_bad_pin_state(design_a):
    with pytest.raises(ValueError, match="state must be 'H' or 'L', got 'X'"):
        synthesize(design_a.spec).input_impedance(20e6, "X")


def test_specs_across_the_float_range_end_in_a_design_or_a_config_error():
    """3,000 seeded specs, f_mod 1e-300..1e300 Hz and c_io 1e-300..1e10 F.

    ``synthesize``, lossless ``verify_design`` and lossy ``verify_design``
    either return or raise a ``ConfigError``, with no warning.  f_stop is a
    factor 1e-2..1e2 from f_mod in half the specs and anywhere in the range
    in the other half; x_m is an inductance, a capacitance or the default.
    """
    rng = np.random.default_rng(20261019)
    lossy = LossModel()
    verified = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(3000):
            f_mod = 10.0 ** rng.uniform(-300, 300)
            near = rng.random() < 0.5
            f_stop = f_mod * 10.0 ** rng.uniform(-2, 2) if near else 10.0 ** rng.uniform(-300, 300)
            kwargs = {}
            pick = rng.random()
            if pick < 0.4:
                kwargs["xm_inductance"] = 10.0 ** rng.uniform(-300, 300)
            elif pick < 0.6:
                kwargs["xm_capacitance"] = 10.0 ** rng.uniform(-300, 300)
            if rng.random() < 0.3:
                kwargs["shunt_c"] = 10.0 ** rng.uniform(-300, 10)
            try:
                d = synthesize(FilterSpec(f_mod, f_stop, 10.0 ** rng.uniform(-300, 10), **kwargs))
                verify_design(d, loss=LOSSLESS, which="exact")
                verify_design(d, loss=lossy, which="snapped")
            except ConfigError:
                continue
            verified += 1
    assert verified >= 200  # 240 reach both verify_design paths
