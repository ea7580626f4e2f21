"""Closed-form synthesis of the passive-modulation T-filter.

A node modulates one carrier (f_mod) by switching its open-drain pin between
a high-impedance and a low-impedance state, while leaving the other carrier
(f_stop) untouched in both states.  The filter is a T of reactances: series
x1, shunt x_m, series x2.  Requiring an ideal open in the high state and an
ideal short in the low state at f_mod, plus an open at f_stop in both
states, fixes everything except the shunt reactance x_m, which is the one
free design choice:

    x2 = X_IO_H - x_m
    x1 = -(x_m / X_IO_H) * x2

where X_IO_H = 1/(w_mod * C_H) is the pin's capacitive reactance magnitude
in the high state.  The x1 branch is realized as an L1 || C1 resonator whose
pole sits at f_stop, with the element values fixed by the required x1 at
f_mod (alpha = w_mod/w_stop picks the inductive or capacitive side).
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Mapping

from . import eseries
from .eseries import ESERIES
from .elements import (
    DEFAULT_POLE_CAP,
    Network,
    TwoPortZ,
    capacitor,
    find_poles_zeros,
    inductor,
    input_impedance,
    is_open,
    is_pole,
    lossless_poles_zeros,
    short_circuit,
    t_network,
)
from .loss import LOSSLESS, LossModel
from .units import ConfigError, KeyReader, UnitError

__all__ = [
    "ConfigKind",
    "FilterSpec",
    "FilterDesign",
    "VerificationReport",
    "InfeasibleConfigError",
    "ReactanceRangeError",
    "SpecError",
    "SynthesisError",
    "classify",
    "synthesize",
    "verify_design",
    "default_xm_inductance",
    "design_to_dict",
    "design_from_dict",
    "spec_from_dict",
]

# the least |Z_H|/|Z_L| at f_mod that a lossy design must reach to verify
MIN_RATIO = 100.0

# the reactances a design may have, at f_mod and across verify_design's band:
# their squares are normal floats, as the input impedance's zm^2 must be
_X_MIN = math.sqrt(sys.float_info.min)
_X_MAX = math.sqrt(sys.float_info.max)
# the range of w*v for an element value v: the reactance wL of an inductor, or
# the reciprocal wC of a capacitor's
_WV_RANGE = {"l": (_X_MIN, _X_MAX), "c": (1.0 / _X_MAX, 1.0 / _X_MIN)}

# relative tolerance for "x_m equals X_IO_H" (the D boundary)
_D_TOL = 1e-9

# a capacitor below this is snapped to the integer-picofarad grid instead of
# the E-series: small ceramic values are sold on that grid
_SMALL_CAP_F = 10e-12


class InfeasibleConfigError(ConfigError):
    """The x_m choice and frequency order do not form a usable configuration."""


class SynthesisError(ConfigError):
    """Synthesis produced an unrealizable element value."""


class SpecError(ConfigError):
    """A spec file, scenario filter or saved design holds values ``FilterSpec`` rejects."""


class ReactanceRangeError(SynthesisError):
    """A reactance of the design would not square to a normal float, so it cannot be evaluated."""


class ConfigKind(enum.Enum):
    """Minimal filter configurations by the sign and size of x_m.

    A: inductive x_m > X_IO_H (needs f_stop > f_mod)
    B: inductive 0 < x_m < X_IO_H (needs f_stop < f_mod)
    C: capacitive x_m (needs f_stop > f_mod); same equations, unexercised by
       the reference design, marked experimental in reports
    D1/D2: x_m = X_IO_H exactly, x2 degenerates to a short; the x1 branch
       gets an extra series element cancelling its reactance at f_mod
    (x_m = 0 would couple no signal at all - that is configuration (e),
    which is rejected, not represented.)
    """

    A = "A"
    B = "B"
    C = "C"
    D1 = "D1"
    D2 = "D2"


@dataclass(frozen=True)
class FilterSpec:
    """Design inputs: the two carriers, the pin capacitance, and the x_m choice.

    Exactly one of ``xm_inductance`` / ``xm_capacitance`` may be given; with
    neither, synthesis picks an inductance that puts the high-state zero at
    the geometric mean of the two carriers.  ``shunt_c`` is an external
    capacitor added at the pin (raising C_H lowers the required shunt
    inductance into the commercially available range).
    """

    f_mod: float
    f_stop: float
    c_io: float
    shunt_c: float = 0.0
    xm_inductance: float | None = None
    xm_capacitance: float | None = None
    eseries: str = "E12"

    def __post_init__(self) -> None:
        # written so that NaN fails every check
        if not (0.0 < self.f_mod < math.inf and 0.0 < self.f_stop < math.inf):
            raise SpecError("f_mod and f_stop must be finite and positive")
        if self.f_mod == self.f_stop:
            raise SpecError("f_mod and f_stop must differ")
        if not 0.0 < self.c_io < math.inf:
            raise SpecError("c_io must be finite and positive")
        if not 0.0 <= self.shunt_c < math.inf:
            raise SpecError("shunt_c must be finite and >= 0")
        wc = 2.0 * math.pi * self.f_mod * self.c_total  # x_io_h is 1 / wc
        if not (wc > 0.0 and _X_MIN <= 1.0 / wc <= _X_MAX):
            raise ReactanceRangeError(
                f"the pin reactance 1/(2*pi*f_mod*c_total) at f_mod {self.f_mod:.4g} Hz and "
                f"c_total {self.c_total:.4g} F is outside [{_X_MIN:.2g}, {_X_MAX:.2g}] ohm"
            )
        if self.xm_inductance is not None and self.xm_capacitance is not None:
            raise SpecError("give x_m as an inductance or a capacitance, not both")
        # 0 stays: classify() rejects it as configuration (e)
        if self.xm_inductance is not None and not 0.0 <= self.xm_inductance < math.inf:
            raise SpecError("xm_inductance must be finite and >= 0")
        if self.xm_capacitance is not None and not 0.0 < self.xm_capacitance < math.inf:
            raise SpecError("xm_capacitance must be positive")
        if not (isinstance(self.eseries, str) and self.eseries in eseries.ESERIES):
            raise SpecError(f"unknown E-series {self.eseries!r}")

    @property
    def c_total(self) -> float:
        return self.c_io + self.shunt_c

    @property
    def x_io_h(self) -> float:
        """Magnitude of the pin reactance at f_mod in the high state."""
        return 1.0 / (2.0 * math.pi * self.f_mod * self.c_total)

    @property
    def alpha(self) -> float:
        return self.f_mod / self.f_stop

    def xm_value(self) -> float:
        """Signed shunt reactance at f_mod implied by the x_m choice."""
        w = 2.0 * math.pi * self.f_mod
        if self.xm_inductance is not None:
            return w * self.xm_inductance
        if self.xm_capacitance is not None:
            return -1.0 / (w * self.xm_capacitance)
        return w * default_xm_inductance(self.f_mod, self.f_stop, self.c_total)


def classify(spec: FilterSpec) -> ConfigKind:
    """Pick the configuration implied by the x_m choice, or reject it."""
    x = spec.x_io_h
    xm = spec.xm_value()
    if xm == 0.0:
        raise InfeasibleConfigError(
            "x_m = 0 collapses the shunt branch and couples no signal to the "
            "secondary port; configuration (e) is rejected"
        )
    if abs(xm - x) <= _D_TOL * x:
        return ConfigKind.D1 if spec.f_stop > spec.f_mod else ConfigKind.D2
    if xm > x:
        if spec.f_stop <= spec.f_mod:
            raise InfeasibleConfigError(
                f"inductive x_m={xm:.4g} ohm > X_IO_H={x:.4g} ohm selects "
                f"configuration (a), which requires f_stop > f_mod"
            )
        return ConfigKind.A
    if xm > 0.0:
        if spec.f_stop >= spec.f_mod:
            raise InfeasibleConfigError(
                f"inductive x_m={xm:.4g} ohm < X_IO_H={x:.4g} ohm selects "
                f"configuration (b), which requires f_stop < f_mod"
            )
        return ConfigKind.B
    # capacitive shunt
    if spec.f_stop <= spec.f_mod:
        raise InfeasibleConfigError(
            f"capacitive x_m={xm:.4g} ohm selects configuration (c), "
            f"which requires f_stop > f_mod"
        )
    return ConfigKind.C


def _snap_policy(name: str, value: float, series: str) -> float:
    """Component sourcing policy for realized values.

    Inductors round down to the E-series (rounding up would push the
    stopband resonator into the passband); capacitors snap to the nearest
    member, except sub-10 pF parts which go to the integer-picofarad grid.
    """
    if name.startswith("l"):
        return eseries.snap_floor(value, series)
    if value < _SMALL_CAP_F:
        return max(1.0, round(value * 1e12)) * 1e-12
    return eseries.snap_eseries(value, series)


@dataclass(frozen=True)
class FilterDesign:
    """A realized T-filter: exact element values plus E-series snapped ones.

    Element keys: ``l_m``/``c_m`` (shunt), ``l_1``+``c_1`` (parallel
    resonator, series arm 1), ``c_2``/``l_2`` (series arm 2; absent for D),
    ``c_ser``/``l_ser`` (extra series element in arm 1, D only).  ``dcb``
    lists the branches that need a DC-block capacitor for the three ports to
    be DC-isolated; DCBs are chosen large enough to be transparent at the
    carriers and are excluded from impedance evaluation.

    A design remembers nothing it evaluates: every ``input_impedance`` call
    evaluates, and the simulator keeps carrier impedances in its bus model
    (``simulate._AmplitudeTable``).
    """

    spec: FilterSpec
    config: ConfigKind
    alpha: float
    x_io_h: float
    x_m: float
    x1: float
    x2: float
    exact: dict[str, float]
    snapped: dict[str, float]
    dcb: tuple[str, ...]

    @property
    def f_mod(self) -> float:
        return self.spec.f_mod

    @property
    def f_stop(self) -> float:
        return self.spec.f_stop

    @property
    def c_total(self) -> float:
        return self.spec.c_total

    def values(self, which: str = "exact") -> dict[str, float]:
        if which == "exact":
            return dict(self.exact)
        if which == "snapped":
            return dict(self.snapped)
        raise SpecError(f"which must be 'exact' or 'snapped', got {which!r}")

    def branch_networks(
        self, which: str = "exact", loss: LossModel = LOSSLESS
    ) -> tuple[Network, Network, Network]:
        """(x1, x2, xm) one-ports with the chosen values and loss model."""
        v = self.values(which)
        mk_l = loss.make_inductor

        x1 = mk_l(v["l_1"]) | capacitor(v["c_1"])
        if "c_ser" in v:
            x1 = x1 + capacitor(v["c_ser"])
        elif "l_ser" in v:
            x1 = x1 + mk_l(v["l_ser"])

        if "c_2" in v:
            x2: Network = capacitor(v["c_2"])
        elif "l_2" in v:
            x2 = mk_l(v["l_2"])
        else:
            x2 = short_circuit()

        xm = mk_l(v["l_m"]) if "l_m" in v else capacitor(v["c_m"])
        return x1, x2, xm

    def two_port(self, which: str = "exact", loss: LossModel = LOSSLESS) -> TwoPortZ:
        x1, x2, xm = self.branch_networks(which, loss)
        return t_network(x1, x2, xm)

    def input_impedance(
        self,
        f,
        state: str,
        which: str = "exact",
        loss: LossModel = LOSSLESS,
    ):
        """Bus-side input impedance with the pin in logic state 'H' or 'L', at scalar or array ``f``."""
        if state not in ("H", "L"):
            raise ValueError(f"state must be 'H' or 'L', got {state!r}")
        zin_h, zin_l = self.zin_functions(which, loss)
        return (zin_h if state == "H" else zin_l)(f)

    def _loaded_two_port(self, which: str, loss: LossModel) -> tuple[TwoPortZ, Network, Network]:
        """The two-port with the pin load high and low: the one place they are put together."""
        return self.two_port(which, loss), loss.load(self.c_total, "H"), loss.load(self.c_total, "L")

    def zin_functions(self, which: str = "exact", loss: LossModel = LOSSLESS) -> tuple[Callable, Callable]:
        """The bus-side input impedance ``f -> Zin`` with the pin high, and with it low.

        The two-port and both loads are built once, by the one helper that
        also builds :meth:`h_state_network`, and each function evaluates
        them at scalar or array ``f``.
        """
        tp, load_h, load_l = self._loaded_two_port(which, loss)

        def zin(load: Network) -> Callable:
            return lambda f: input_impedance(tp, load.impedance(f), f)

        return zin(load_h), zin(load_l)

    def h_state_network(self, which: str = "exact", loss: LossModel = LOSSLESS) -> Network:
        """The bus-side one-port with the pin high: x1 + (xm | (x2 + load)).

        Algebraically the same impedance as ``input_impedance``'s
        z11 - zm^2/(z_load + z22); as a ``Network`` it has a rational form
        (:meth:`Network.rational`).
        """
        tp, load_h, _ = self._loaded_two_port(which, loss)
        return tp.x1 + (tp.xm | (tp.x2 + load_h))


def _realize(
    spec: FilterSpec, config: ConfigKind, x: float, xm: float, x1: float, x2: float
) -> dict[str, float]:
    """Element values for the reactances x = X_IO_H, x_m, x1 and x2 at f_mod."""
    w_mod = 2.0 * math.pi * spec.f_mod
    w_stop = 2.0 * math.pi * spec.f_stop
    alpha = spec.alpha

    v: dict[str, float] = {}
    # shunt branch
    if xm > 0.0:
        v["l_m"] = spec.xm_inductance if spec.xm_inductance is not None else xm / w_mod
    else:
        v["c_m"] = (
            spec.xm_capacitance
            if spec.xm_capacitance is not None
            else 1.0 / (w_mod * -xm)
        )

    # series arm 2
    if config not in (ConfigKind.D1, ConfigKind.D2):
        if x2 > 0.0:
            v["l_2"] = x2 / w_mod
        else:
            v["c_2"] = 1.0 / (w_mod * -x2)

    # series arm 1: parallel resonator at f_stop presenting x1 at f_mod; for
    # D the required x1 is 0, so the resonator keeps the design's natural
    # reactance scale X_IO_H and a series element cancels it at f_mod
    x1_scale = x1 if config not in (ConfigKind.D1, ConfigKind.D2) else (
        x if config is ConfigKind.D1 else -x
    )
    if alpha < 1.0:
        if x1_scale <= 0.0:
            raise SynthesisError(
                f"x1={x1_scale:.4g} ohm must be inductive when f_stop > f_mod"
            )
        l_1 = x1_scale * (1.0 - alpha**2) / (alpha * w_stop)
        c_1 = 1.0 / (w_stop**2 * l_1)
    else:
        if x1_scale >= 0.0:
            raise SynthesisError(
                f"x1={x1_scale:.4g} ohm must be capacitive when f_stop < f_mod"
            )
        c_1 = alpha / ((alpha**2 - 1.0) * w_stop * abs(x1_scale))
        l_1 = 1.0 / (w_stop**2 * c_1)
    v["l_1"] = l_1
    v["c_1"] = c_1

    if config is ConfigKind.D1:
        v["c_ser"] = 1.0 / (w_mod * x)
    elif config is ConfigKind.D2:
        v["l_ser"] = x / w_mod

    for name, val in v.items():
        if not (val > 0.0 and math.isfinite(val)):
            raise SynthesisError(f"derived {name} = {val:.4g} is not realizable")
    return v


def _check_reactances(spec: FilterSpec, *value_sets: dict[str, float]) -> None:
    """``ReactanceRangeError`` unless each element's reactance squares to a normal float across the band.

    The band is ``verify_design``'s, half the lower carrier to twice the
    higher; the elements are the pin capacitance and each value set's
    inductors (``l_*``) and capacitors (``c_*``).  A reactance is monotonic
    in frequency, so the band edges bound it.
    """
    w_lo = math.pi * min(spec.f_mod, spec.f_stop)  # 2*pi times half the lower carrier
    w_hi = 4.0 * math.pi * max(spec.f_mod, spec.f_stop)  # and times twice the higher
    for values in ({"c_total": spec.c_total}, *value_sets):
        for name, v in values.items():
            lo, hi = _WV_RANGE[name[0]]
            if not (lo <= w_lo * v and w_hi * v <= hi):
                raise ReactanceRangeError(
                    f"{name} = {v:.4g} has a reactance outside [{_X_MIN:.2g}, {_X_MAX:.2g}] ohm "
                    f"between {w_lo / (2.0 * math.pi):.4g} and {w_hi / (2.0 * math.pi):.4g} Hz"
                )


def _dcb_branches(exact: dict[str, float]) -> tuple[str, ...]:
    """Branches needing a DC block so all three ports are DC-isolated."""
    x1_conducts = "c_ser" not in exact  # the L1 path conducts unless capped
    x2_conducts = "l_2" in exact or ("c_2" not in exact)  # short or inductor
    xm_conducts = "l_m" in exact

    dcb: list[str] = []
    port1_return = x1_conducts and xm_conducts
    port2_return = x2_conducts and xm_conducts
    if port1_return or port2_return:
        dcb.append("shunt")
        xm_conducts = False
    if x1_conducts and x2_conducts:
        dcb.append("port2")  # block the secondary series arm by convention
    return tuple(dcb)


def synthesize(spec: FilterSpec) -> FilterDesign:
    """Solve the design equations and realize both branches.

    Returns exact element values and the E-series snapped set side by side;
    snapped designs must be re-verified, never assumed ideal.  Carriers so far
    apart that a term of the design equations overflows or underflows, and
    element values whose reactances ``verify_design`` could not evaluate
    (``ReactanceRangeError``), raise ``SynthesisError``.
    """
    try:
        if spec.xm_inductance is None and spec.xm_capacitance is None:
            import dataclasses

            l_m = default_xm_inductance(spec.f_mod, spec.f_stop, spec.c_total)
            spec = dataclasses.replace(spec, xm_inductance=l_m)
        config = classify(spec)
        x = spec.x_io_h
        xm = spec.xm_value()
        if config in (ConfigKind.D1, ConfigKind.D2):
            x1 = x2 = 0.0
        else:
            x2 = x - xm
            x1 = -(xm / x) * x2
        exact = _realize(spec, config, x, xm, x1, x2)
        snapped = {k: _snap_policy(k, val, spec.eseries) for k, val in exact.items()}
        _check_reactances(spec, exact, snapped)
    except OverflowError:
        raise SynthesisError(
            f"f_mod {spec.f_mod:.4g} Hz and f_stop {spec.f_stop:.4g} Hz overflow the design equations"
        ) from None
    except ZeroDivisionError:  # every divisor is a product of positive values: it underflowed
        raise SynthesisError(
            f"f_mod {spec.f_mod:.4g} Hz and f_stop {spec.f_stop:.4g} Hz underflow the design equations"
        ) from None
    return FilterDesign(
        spec=spec,
        config=config,
        alpha=spec.alpha,
        x_io_h=x,
        x_m=xm,
        x1=x1,
        x2=x2,
        exact=exact,
        snapped=snapped,
        dcb=_dcb_branches(exact),
    )


def default_xm_inductance(
    f_mod: float, f_stop: float, c_total: float, zero_target: float | None = None
) -> float:
    """Shunt inductance placing the lossless high-state zero at ``zero_target``.

    Default target is the geometric mean of the carriers, keeping the zero
    separated from both poles so neither is cancelled.  Solved in closed
    form.  Let a be x_m at f_mod, X = X_IO_H, r = f0/f_mod with f0 the
    target and alpha = f_mod/f_stop.  At f0 the branches of the T are

        x_m(f0) = a*r
        x2(f0)  = (X - a)*k2,   k2 = 1/r for a capacitive x2 (f_stop > f_mod),
                                k2 = r for an inductive x2 (f_stop < f_mod)
        x1(f0)  = h*a*(a - X)/X,   h = r*(1 - alpha^2)/(1 - (f0/f_stop)^2)
        load    = -X/r            (the pin capacitance)

    (h is the L1 || C1 resonator's reactance at f0 over that at f_mod), and
    the input reactance x1 + x_m - x_m^2/(x_m + x2 + load) vanishes where

        (h*(a - X)/X + r) * (-X/r + k2*X + a*(r - k2)) - a*r^2 = 0,

    a quadratic in a (after dividing out the root a = 0; linear when
    f_stop < f_mod, where x2 and x_m are both inductors).  The result is the
    smallest real root with x_m on the configuration's side of X: from
    X*(1 + 1e-6) to 50*X for f_stop > f_mod (configuration A), from X/1000 to
    X*(1 - 1e-6) below (configuration B).  ``SynthesisError`` when there is
    none, as at ``zero_target`` = f_stop, where x1 itself is a pole.
    """
    if zero_target is None:
        zero_target = math.sqrt(f_mod * f_stop)
    w_mod = 2.0 * math.pi * f_mod
    x = 1.0 / (w_mod * c_total)
    above = f_stop > f_mod
    r = zero_target / f_mod
    k2 = 1.0 / r if above else r
    resonator = 1.0 - (zero_target / f_stop) ** 2
    roots: list[float] = []
    if resonator != 0.0:
        h = r * (1.0 - (f_mod / f_stop) ** 2) / resonator
        # the quadratic in u = a/X: (h*(u - 1) + r)*(k2 - 1/r + u*(r - k2)) - u*r^2
        p1, p0 = h, r - h
        q1, q0 = r - k2, k2 - 1.0 / r
        c2, c1, c0 = p1 * q1, p1 * q0 + p0 * q1 - r * r, p0 * q0
        if c2 == 0.0:
            roots = [-c0 / c1] if c1 != 0.0 else []
        elif (disc := c1 * c1 - 4.0 * c2 * c0) >= 0.0:
            q = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1))
            roots = [q / c2] + ([c0 / q] if q != 0.0 else [])
    lo, hi = (1.0 + 1e-6, 50.0) if above else (1e-3, 1.0 - 1e-6)
    inside = sorted(u for u in roots if lo <= u <= hi)
    if not inside:
        raise SynthesisError(
            "no shunt inductance in the scanned range places the high-state zero "
            f"at {zero_target:.4g} Hz; give x_m explicitly"
        )
    return inside[0] * x / w_mod


@dataclass(frozen=True)
class VerificationReport:
    """Point checks of a realized design against its own requirements."""

    which: str
    lossless: bool
    zin_h_fmod: complex
    zin_l_fmod: complex
    zin_h_fstop: complex
    zin_l_fstop: complex
    ratio_fmod: float
    h_poles: tuple[float, ...]
    h_zeros: tuple[float, ...]
    zero_pole_separation: float | None
    cancellation_risk: bool
    checks: dict[str, bool] = field(default_factory=dict)
    experimental: bool = False

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def verify_design(
    d: FilterDesign,
    loss: LossModel = LOSSLESS,
    which: str = "exact",
) -> VerificationReport:
    """Evaluate the realized design at both carriers and both pin states.

    Lossless checks demand the ideal open/short pattern; lossy checks demand
    the high/low impedance ratio at f_mod to clear ``MIN_RATIO`` (100), with
    an open (``elements.is_open``) read as exactly ``DEFAULT_POLE_CAP``.  The
    high-state poles and zeros between half the lower carrier and twice the
    higher one are, when lossless, the exact roots of the rational impedance
    of ``FilterDesign.h_state_network`` (:func:`lossless_poles_zeros`), and
    when lossy the prominent extrema of |Z| on a 4001-point grid
    (:func:`find_poles_zeros`).  The design is flagged if a zero lies within
    5% of any pole (a close zero cancels the pole it was meant to separate
    from).  The carrier impedances come from ``FilterDesign.zin_functions``.
    No scipy module is imported.
    """
    zin_h, zin_l = d.zin_functions(which, loss)
    zh_fmod = zin_h(d.f_mod)
    zl_fmod = zin_l(d.f_mod)
    zh_fstop = zin_h(d.f_stop)
    zl_fstop = zin_l(d.f_stop)
    zh_mag, zl_mag = (DEFAULT_POLE_CAP if is_open(z) else abs(z) for z in (zh_fmod, zl_fmod))
    ratio = zh_mag / max(zl_mag, 1e-30)

    f_lo = 0.5 * min(d.f_mod, d.f_stop)
    f_hi = 2.0 * max(d.f_mod, d.f_stop)
    if loss.lossless:
        pz = lossless_poles_zeros(d.h_state_network(which, loss), f_lo, f_hi)
    else:
        pz = find_poles_zeros(zin_h, f_lo, f_hi, grid=4001, lossless=False)
    poles = tuple(f for f, kind in pz if kind == "pole")
    zeros = tuple(f for f, kind in pz if kind == "zero")

    separation: float | None = None
    risk = False
    if poles and zeros:
        separation = min(abs(z - p) / p for z in zeros for p in poles)
        risk = separation < 0.05

    checks: dict[str, bool] = {}
    if loss.lossless:
        checks["l_state_short_at_f_mod"] = abs(zl_fmod) <= 1e-6
        checks["h_state_open_at_f_mod"] = bool(is_pole(zh_fmod))
        checks["open_at_f_stop_h"] = bool(is_pole(zh_fstop))
        checks["open_at_f_stop_l"] = bool(is_pole(zl_fstop))
    else:
        checks["modulation_ratio_at_f_mod"] = ratio >= MIN_RATIO
    checks["zero_separated_from_poles"] = not risk

    return VerificationReport(
        which=which,
        lossless=loss.lossless,
        zin_h_fmod=zh_fmod,
        zin_l_fmod=zl_fmod,
        zin_h_fstop=zh_fstop,
        zin_l_fstop=zl_fstop,
        ratio_fmod=ratio,
        h_poles=poles,
        h_zeros=zeros,
        zero_pole_separation=separation,
        cancellation_risk=risk,
        checks=checks,
        experimental=d.config is ConfigKind.C,
    )


def design_to_dict(d: FilterDesign) -> dict:
    """JSON-compatible record, SI units, exact and snapped side by side."""
    return {
        "schema_version": 1,
        "config": d.config.value,
        "alpha": d.alpha,
        "f_mod_hz": d.f_mod,
        "f_stop_hz": d.f_stop,
        "c_io_f": d.spec.c_io,
        "shunt_c_f": d.spec.shunt_c,
        "c_total_f": d.c_total,
        "x_io_h_ohm": d.x_io_h,
        "x_m_ohm": d.x_m,
        "x1_ohm": d.x1,
        "x2_ohm": d.x2,
        "eseries": d.spec.eseries,
        "exact": dict(d.exact),
        "snapped": dict(d.snapped),
        "dcb": list(d.dcb),
    }


def spec_from_dict(d: Mapping | KeyReader, eseries: str) -> FilterSpec:
    """A ``FilterSpec`` from a spec-file or scenario mapping of unit-suffixed values.

    ``eseries`` applies when the mapping names none; ``xm`` is read as an
    inductance when it parses as henries, else as a capacitance.  Each key is
    checked where it is read, and a key the spec does not have is an error
    (``SpecError``, or the error class of a given ``KeyReader``).
    """
    r = d if isinstance(d, KeyReader) else KeyReader(d, error=SpecError)
    try:  # 0 H stays: classify() rejects it as configuration (e)
        xm = {"xm_inductance": r.quantity("xm", "H", None, zero_ok=True)}
    except UnitError:
        xm = {"xm_capacitance": r.quantity("xm", "F")}
    spec = r.build(
        FilterSpec,
        f_mod=r.quantity("f_mod", "Hz"),
        f_stop=r.quantity("f_stop", "Hz"),
        c_io=r.quantity("c_io", "F"),
        shunt_c=r.quantity("shunt_c", "F", 0.0, zero_ok=True),
        eseries=r.choice("eseries", tuple(ESERIES), eseries),
        **xm,
    )
    r.done()
    return spec


def design_from_dict(rec: Mapping) -> FilterDesign:
    """Re-synthesize a design saved by ``design_to_dict``; bad values raise a ``ConfigError``.

    ``rec`` is the record, or holds it under ``design`` as the output of
    ``fdmlink design`` does.  Every field it needs is checked where it is
    read; the derived fields, which synthesis recomputes, are not read.
    """
    r = KeyReader(rec, error=SpecError)
    if "schema_version" not in rec:
        r = r.child("design")
    r.choice("schema_version", (1,))
    exact = r.child("exact")
    spec = r.build(
        FilterSpec,
        f_mod=r.quantity("f_mod_hz", ""),
        f_stop=r.quantity("f_stop_hz", ""),
        c_io=r.quantity("c_io_f", ""),
        shunt_c=r.quantity("shunt_c_f", "", 0.0, zero_ok=True),
        xm_inductance=exact.quantity("l_m", "", None, zero_ok=True),
        xm_capacitance=exact.quantity("c_m", "", None),
        eseries=r.choice("eseries", tuple(ESERIES), "E12"),
    )
    return r.build(synthesize, spec=spec)
