import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fdmlink.eseries import ESERIES, snap_eseries, snap_floor


def test_series_tables_are_sane():
    for name, vals in ESERIES.items():
        assert len(vals) == int(name[1:])
        assert all(1.0 <= v < 10.0 for v in vals)
        assert list(vals) == sorted(vals)


@pytest.mark.parametrize(
    "value,series,snapped",
    [
        (53.58e-12, "E12", 56e-12),
        (4.7e-6, "E12", 4.7e-6),
        (1.3263e-6, "E12", 1.2e-6),  # 1.2 is nearer than 1.5 in log space
        (2.6651e-7, "E12", 2.7e-7),
        (5.732e-11, "E12", 5.6e-11),
        (9.9e-6, "E12", 10e-6),  # decade rollover
        (1.04e-6, "E12", 1.0e-6),
    ],
)
def test_snap_spot_values(value, series, snapped):
    assert snap_eseries(value, series) == pytest.approx(snapped, rel=1e-9)


positive = st.floats(min_value=1e-13, max_value=1e3, allow_nan=False, allow_infinity=False)


@given(positive, st.sampled_from(["E6", "E12", "E24"]))
def test_snap_idempotent(value, series):
    once = snap_eseries(value, series)
    assert snap_eseries(once, series) == pytest.approx(once, rel=1e-12)


@given(positive, st.sampled_from(["E6", "E12", "E24"]))
def test_snap_within_half_step(value, series):
    # nearest-by-geometric-ratio: the snapped point is within half a series
    # step of the input, measured as a ratio
    n = len(ESERIES[series])
    step = 10.0 ** (1.0 / n)
    out = snap_eseries(value, series)
    ratio = out / value
    assert step**-0.75 < ratio < step**0.75  # slack for the uneven E12 grid


def _snap_ceil(value, series):
    # smallest series member not below value, from the decades snap_eseries draws on
    exp = math.floor(math.log10(value))
    members = [m * 10.0**d for d in (exp - 1, exp, exp + 1) for m in ESERIES[series]]
    return min(c for c in members if c >= value * (1 - 1e-12))


@given(positive, st.sampled_from(["E6", "E12", "E24"]))
def test_floor_and_ceil_bracket(value, series):
    lo = snap_floor(value, series)
    hi = _snap_ceil(value, series)
    assert lo <= value * (1 + 1e-12)
    assert hi >= value * (1 - 1e-12)
    assert snap_eseries(value, series) in (lo, hi)


def test_rejects_nonpositive():
    with pytest.raises(ValueError):
        snap_eseries(0.0)
    with pytest.raises(ValueError):
        snap_eseries(-1e-6)
    with pytest.raises(ValueError):
        snap_eseries(1e-6, "E13")
