"""Complex-impedance algebra for one-port networks and T-type two-ports.

Frequencies are plain Hz at every interface; angular frequency is internal.
Poles (ideal opens, resonance singularities) are ordinary values, not
exceptions: evaluation returns complex infinity and :func:`is_pole` also
treats any magnitude at or above ``POLE_CLAMP`` as a pole.  Every ratio and
bus sum reads opens by one rule, :func:`is_open`: pole-flagged, or |z| at or
above a cap (``DEFAULT_POLE_CAP`` unless a bus sets its own).  A ratio puts
magnitude cap in an open's place; a bus sum adds zero admittance for it.

Each public evaluation (:meth:`Network.impedance`,
:func:`element_impedance`, :func:`input_impedance`) checks its frequencies
and forms w = 2*pi*f and its least value once, then walks the tree in one
pass.  A series node adds its children; a parallel node adds their
admittances and inverts.  Only when a sum shows an open (a non-finite child)
or a short (a zero child, or a zero total admittance) does the node redo the
same arithmetic with masks, so the masks cost nothing on ordinary values and
the result is the same float either way.  A capacitor whose w*C underflows
to 0 is indeterminate: its evaluation raises ``DegenerateNetworkError``
before it divides, for a scalar frequency and an array alike.

A network is also a rational function N(s)/D(s) (:meth:`Network.rational`),
and a lossless one has its poles and zeros on the jw axis, where
:func:`lossless_poles_zeros` takes them from polynomial roots instead of a
frequency grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal, Sequence

import numpy as np

from .units import ConfigError

__all__ = [
    "POLE",
    "POLE_CLAMP",
    "EPS_POLE",
    "DegenerateNetworkError",
    "DEFAULT_POLE_CAP",
    "is_pole",
    "is_open",
    "ReactiveElement",
    "Network",
    "resistor",
    "inductor",
    "capacitor",
    "open_circuit",
    "short_circuit",
    "series",
    "parallel",
    "element_impedance",
    "TwoPortZ",
    "input_impedance",
    "check_band",
    "lossless_poles_zeros",
    "find_poles_zeros",
]

POLE_CLAMP = 1e12  # ohms; |Z| at or above this is reported as a pole
EPS_POLE = 1e-12  # relative threshold for the input-impedance denominator
POLE = complex(np.inf, 0.0)
DEFAULT_POLE_CAP = 1e9  # ohms; |Z| at or above this counts as open (see is_open)

# cap on the lossless pole/zero refinement's iterations; brackets of random
# designs converge in eight or fewer, so the cap only guards against a stall
_REFINE_MAX_ITER = 60

# relative spread, in (f/f_ref)^2, within which a computed root counts as real
# and a root of N meets a root of D.  A k-fold root splits by about
# eps**(1/k) (1.5e-8 for two, 6e-6 for three).  verify_design's band spans a
# factor of at least 4, so a 4001-point scan cell there is at least 7e-4 wide
# in f^2: a pole and a zero this close share a cell, and a scan sees neither
_ROOT_RTOL = 1e-5


class DegenerateNetworkError(ArithmeticError):
    """Evaluation produced an indeterminate (0/0 or inf-inf) form."""


def is_pole(z) -> bool | np.ndarray:
    """True where an impedance value is pole-flagged."""
    arr = np.asarray(z)
    out = ~np.isfinite(arr) | (np.abs(arr) >= POLE_CLAMP)
    return out if out.ndim else bool(out)


def is_open(z: complex, cap: float = DEFAULT_POLE_CAP) -> bool:
    """True when a scalar impedance counts as an open: pole-flagged, or |z| >= ``cap``."""
    return is_pole(z) or abs(z) >= cap


def _omega(f) -> tuple[np.ndarray, float]:
    """w = 2*pi*f and its least value; ``ValueError`` unless every f is in (0, inf) Hz."""
    arr = np.asarray(f, dtype=float)
    lo, hi = arr.min(initial=math.inf), arr.max(initial=-math.inf)
    # a NaN comes out of both and fails both comparisons
    if not (0.0 < lo and hi < math.inf):
        raise ValueError("frequency must be positive and finite (Hz)")
    return 2.0 * math.pi * arr, 2.0 * math.pi * float(lo)


Kind = Literal["resistor", "inductor", "capacitor", "open", "short"]


@dataclass(frozen=True)
class ReactiveElement:
    """A single R, L, C, open or short.

    ``loss`` is a series resistance for inductors and a parallel resistance
    for capacitors and opens (0 means ideal); a resistor or a short takes none.
    """

    kind: Kind
    value: float = 0.0
    loss: float = 0.0

    def __post_init__(self) -> None:
        if self.kind in ("resistor", "inductor", "capacitor"):
            if not (self.value > 0.0 and math.isfinite(self.value)):
                raise ConfigError(f"{self.kind} value must be positive, got {self.value}")
        elif self.value:
            raise ValueError(f"{self.kind} carries no value")
        if self.loss < 0.0:
            raise ValueError("loss resistance must be >= 0")
        if self.loss and self.kind in ("resistor", "short"):
            raise ValueError(f"a {self.kind} takes no loss resistance, got {self.loss!r}")

    def impedance(self, f) -> complex | np.ndarray:
        return element_impedance(self, f)


def element_impedance(e: ReactiveElement, f) -> complex | np.ndarray:
    """Impedance of one element at frequency ``f`` (Hz, scalar or array)."""
    z = _element_z(e, *_omega(f))
    return z if np.ndim(f) else complex(z[()])


def _element_z(e: ReactiveElement, w: np.ndarray, w_lo: float) -> np.ndarray:
    """Impedance of one element at the angular frequencies ``w``, least ``w_lo``."""
    if e.kind == "resistor":
        z = np.broadcast_to(complex(e.value, 0.0), w.shape).copy()
    elif e.kind == "inductor":
        z = e.loss + 1j * w * e.value
    elif e.kind == "capacitor":
        if not w_lo * e.value:  # rounding is monotonic: the least w*C is 0 when any is
            raise DegenerateNetworkError(
                "capacitor impedance is indeterminate: w*C underflows to 0"
            )
        z = -1j / (w * e.value)
        if e.loss > 0.0:
            z = z * e.loss / (z + e.loss)
    elif e.kind == "short":
        z = np.broadcast_to(0.0 + 0.0j, w.shape).copy()
    elif e.kind == "open":
        if e.loss > 0.0:
            z = np.broadcast_to(complex(e.loss, 0.0), w.shape).copy()
        else:
            z = np.broadcast_to(POLE, w.shape).copy()
    else:  # pragma: no cover - kinds are closed
        raise ValueError(f"unknown element kind {e.kind!r}")
    return np.asarray(z)


def _element_rational(e: ReactiveElement, w0: float) -> tuple[list[float], list[float]]:
    """(N, D) of one element in powers of u = s/w0, lowest power first."""
    r = float(e.loss)
    if e.kind == "resistor":
        return [float(e.value)], [1.0]
    if e.kind == "inductor":
        return [r, w0 * e.value], [1.0]
    if e.kind == "capacitor":
        return ([r], [1.0, w0 * e.value * r]) if r > 0.0 else ([1.0], [0.0, w0 * e.value])
    if e.kind == "short":
        return [0.0], [1.0]
    if e.kind == "open":
        return ([r], [1.0]) if r > 0.0 else ([1.0], [0.0])
    raise ValueError(f"unknown element kind {e.kind!r}")  # pragma: no cover - kinds are closed


def _padd(a: list[float], b: list[float]) -> list[float]:
    """Sum of two polynomials, lowest power first."""
    if len(a) < len(b):
        a, b = b, a
    return [x + y for x, y in zip(a, b)] + a[len(b) :]


def _pmul(a: list[float], b: list[float]) -> list[float]:
    """Product of two polynomials, lowest power first."""
    out = [0.0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _series_z(zs: list, shape: tuple) -> np.ndarray:
    """Series rule: impedances add, and an open (non-finite) child opens the sum."""
    total = np.zeros(shape, dtype=complex)
    for z in zs:
        total = total + z
    # any non-finite child makes the sum non-finite, so a finite sum has no
    # open to mask and equals the masked sum below
    if np.isfinite(total).all():
        return total
    total = np.zeros(shape, dtype=complex)
    open_mask = np.zeros(shape, dtype=bool)
    for z in zs:
        pm = ~np.isfinite(z)
        open_mask |= pm
        total = total + np.where(pm, 0.0, z)
    return np.where(open_mask, POLE, total)


def _parallel_z(zs: list, shape: tuple) -> np.ndarray:
    """Parallel rule in admittance: a short child wins, an open child adds nothing.

    Without masks a short child makes the admittance sum non-finite and an
    open child adds a signed zero, which leaves the sum unchanged because it
    starts at +0.  So a finite, non-zero sum needs no mask and equals the
    masked sum below.
    """
    y = np.zeros(shape, dtype=complex)
    with np.errstate(all="ignore"):
        for z in zs:
            y = y + 1.0 / z
    if np.isfinite(y).all() and y.all():
        return 1.0 / y
    short_mask = np.zeros(shape, dtype=bool)
    y = np.zeros(shape, dtype=complex)
    for z in zs:
        zero = z == 0.0
        short_mask |= zero
        safe = np.where(zero | ~np.isfinite(z), 1.0, z)
        y = y + np.where(~np.isfinite(z), 0.0, 1.0 / safe) * np.where(zero, 0.0, 1.0)
    y_zero = y == 0.0
    safe_y = np.where(y_zero, 1.0, y)
    out = np.where(y_zero, POLE, 1.0 / safe_y)
    return np.where(short_mask, 0.0 + 0.0j, out)


@dataclass(frozen=True)
class Network:
    """A one-port built from elements composed in series and parallel.

    Compose with ``a + b`` (series) and ``a | b`` (parallel), or the
    :func:`series` / :func:`parallel` helpers.
    """

    op: Literal["leaf", "series", "parallel"]
    element: ReactiveElement | None = None
    children: tuple["Network", ...] = ()

    @staticmethod
    def of(element: ReactiveElement) -> "Network":
        return Network("leaf", element=element)

    def __add__(self, other: "Network") -> "Network":
        return series(self, other)

    def __or__(self, other: "Network") -> "Network":
        return parallel(self, other)

    def impedance(self, f) -> complex | np.ndarray:
        """Evaluate the network at ``f`` (Hz, scalar or array); pole flags propagate as values."""
        z = self._eval(*_omega(f))
        if np.isnan(z).any():
            raise DegenerateNetworkError("network evaluates to an indeterminate form")
        return z if np.ndim(f) else complex(z[()])

    def _eval(self, w: np.ndarray, w_lo: float) -> np.ndarray:
        """Impedance at the angular frequencies ``w`` from :func:`_omega`, NaN not checked."""
        if self.op == "leaf":
            assert self.element is not None
            return _element_z(self.element, w, w_lo)
        zs = [c._eval(w, w_lo) for c in self.children]
        if self.op == "series":
            return _series_z(zs, w.shape)
        return _parallel_z(zs, w.shape)

    def rational(self, f_ref: float) -> tuple[list[float], list[float]]:
        """Z = N(u)/D(u) with u = s/(2*pi*f_ref): (N, D) as float lists, lowest power first.

        Leaves are the element impedances: R; r + u*wL for an inductor with
        ESR r; 1/(u*wC) for a capacitor, R/(1 + u*wCR) with parallel loss R;
        0 for a short; 1/0 for an ideal open and R/1 for a lossy one (w =
        2*pi*f_ref).  Series nodes add N1/D1 + N2/D2 and parallel nodes
        combine N1*N2/(N1*D2 + N2*D1), each by polynomial sums and products,
        so a factor shared by N and D is kept, not cancelled.  After each
        node N and D are divided by the power of two that brings their
        largest coefficient into [0.5, 1), which rounds nothing.
        """
        if self.op == "leaf":
            assert self.element is not None
            return _element_rational(self.element, 2.0 * math.pi * f_ref)
        kids = [c.rational(f_ref) for c in self.children]
        # as in evaluation, an open child opens a series node and a short
        # child shorts a parallel one; the products would give 0/0
        if self.op == "series" and not all(any(d) for _, d in kids):
            return [1.0], [0.0]
        if self.op == "parallel" and not all(any(n) for n, _ in kids):
            return [0.0], [1.0]
        num, den = kids[0]
        for n2, d2 in kids[1:]:
            cross = _padd(_pmul(num, d2), _pmul(n2, den))
            if self.op == "series":
                num, den = cross, _pmul(den, d2)
            else:
                num, den = _pmul(num, n2), cross
            # a common power of two leaves N/D, and every root, unchanged and
            # keeps products of many element values in range
            e = math.frexp(max(map(abs, num + den)))[1]
            num, den = [math.ldexp(v, -e) for v in num], [math.ldexp(v, -e) for v in den]
        return num, den


def resistor(ohms: float) -> Network:
    return Network.of(ReactiveElement("resistor", ohms))


def inductor(henries: float, loss: float = 0.0) -> Network:
    return Network.of(ReactiveElement("inductor", henries, loss))


def capacitor(farads: float, loss: float = 0.0) -> Network:
    return Network.of(ReactiveElement("capacitor", farads, loss))


def open_circuit() -> Network:
    return Network.of(ReactiveElement("open"))


def short_circuit() -> Network:
    return Network.of(ReactiveElement("short"))


def _flatten(op: str, nets: Sequence[Network]) -> tuple[Network, ...]:
    out: list[Network] = []
    for n in nets:
        if n.op == op:
            out.extend(n.children)
        else:
            out.append(n)
    return tuple(out)


def series(*nets: Network) -> Network:
    if not nets:
        raise ValueError("series() needs at least one network")
    if len(nets) == 1:
        return nets[0]
    return Network("series", children=_flatten("series", nets))


def parallel(*nets: Network) -> Network:
    if not nets:
        raise ValueError("parallel() needs at least one network")
    if len(nets) == 1:
        return nets[0]
    return Network("parallel", children=_flatten("parallel", nets))


@dataclass(frozen=True)
class TwoPortZ:
    """Reciprocal two-port of a T: series branch ``x1``, shunt ``xm``, series ``x2``.

    Only the three branch one-ports are kept.  Its impedance matrix is
    z11 = Z(x1) + Z(xm), zm = Z(xm), z22 = Z(x2) + Z(xm); reciprocity is
    structural (a single mutual term), and loss resistances in the branches
    carry through as real parts.  :func:`input_impedance` evaluates each
    branch once per call and forms z11 and z22 from those values by the
    series rule, adding the same terms in the same order as
    ``series(x1, xm)`` and ``series(x2, xm)``.
    """

    x1: Network
    x2: Network
    xm: Network


def _series_kids(net: Network) -> tuple[Network, ...]:
    """The one-ports :func:`series` flattens ``net`` into."""
    return net.children if net.op == "series" else (net,)


def input_impedance(z: TwoPortZ, z_load, f) -> complex | np.ndarray:
    """Impedance into port 1 with ``z_load`` across port 2.

    Zin = z11 - zm^2/(z_load + z22).  When the denominator vanishes
    (relative to |zm|^2) the result is the intended ideal open and comes
    back pole-flagged rather than raising.  ``DegenerateNetworkError`` when
    a branch or the result is indeterminate (NaN), for a scalar ``f`` and
    an array alike; z11 and z22 are never NaN, since the series rule makes
    a NaN term an open (a capacitor raises before it gives one).
    """
    w, w_lo = _omega(f)
    # z11 adds the terms of series(x1, xm): a series branch contributes its
    # children, so the sums run in the same order as that flattened network;
    # the branches are evaluated x1, xm, x2, so the first error is the same
    k1, km, k2 = _series_kids(z.x1), _series_kids(z.xm), _series_kids(z.x2)
    t1 = [k._eval(w, w_lo) for k in k1]
    tm = [k._eval(w, w_lo) for k in km]
    # an array even for scalar f: numpy's scalar complex multiply can round
    # zm * zm differently from its array multiply
    zm = np.asarray(tm[0] if len(tm) == 1 else _series_z(tm, w.shape), dtype=complex)
    if np.isnan(zm).any():
        raise DegenerateNetworkError("network evaluates to an indeterminate form")
    z11 = _series_z(t1 + tm, w.shape)
    z22 = _series_z([k._eval(w, w_lo) for k in k2] + tm, w.shape)
    zl = np.asarray(z_load, dtype=complex)
    den = zl + z22

    with np.errstate(all="ignore"):
        out = z11 - zm * zm / den
    # an open-ish denominator decouples port 2 entirely
    den_open = ~np.isfinite(den) | (np.abs(den) >= POLE_CLAMP)
    out = np.where(den_open, z11, out)
    # zm (no NaN) is pole-flagged where |zm| >= POLE_CLAMP: clamped, |zm|^2 cannot
    # overflow, and EPS_POLE * POLE_CLAMP**2 >= POLE_CLAMP > |den| still gives POLE
    zm2 = np.minimum(np.abs(zm), POLE_CLAMP) ** 2
    out = np.where(~den_open & (np.abs(den) < EPS_POLE * zm2), POLE, out)
    out = np.where(~np.isfinite(z11), POLE, out)
    if np.isnan(out).any():
        raise DegenerateNetworkError("input impedance is indeterminate (0/0)")
    return out if np.ndim(f) else complex(out[()])


def _poly_roots(p: list[float]) -> list[complex]:
    """Roots of sum(p[i] * x**i), with p[0] and p[-1] non-zero.

    Up to a quadratic by the closed forms; above that by ``np.roots``
    (companion-matrix eigenvalues), whose first call faults in about 1 MB of
    LAPACK code.  The pin-state network of every T-filter configuration is
    at most quadratic in x, in N and in D.
    """
    if len(p) <= 2:
        return [complex(-p[0] / p[1])] if len(p) == 2 else []
    if len(p) == 3:
        c, b, a = p
        disc = b * b - 4.0 * a * c
        if disc < 0.0:
            re, im = -b / (2.0 * a), math.sqrt(-disc) / (2.0 * a)
            return [complex(re, im), complex(re, -im)]
        q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
        return [complex(q / a), complex(c / q)]
    return list(np.roots(p[::-1]))


def _parity_roots(c: list[float]) -> tuple[int | None, list[float]]:
    """(k, roots): ``c`` in u is u^k * P(u^2), and its roots x > 0 with u^2 = -x.

    k is 0 or 1 (None for the zero polynomial, which has no roots).  The
    roots of ``c`` on the imaginary u axis are the positive real roots of
    the polynomial P(-x) (:func:`_poly_roots`), and each is polished by up to
    two Newton steps on P(-x), evaluated by Horner's rule.  A step longer
    than ``_ROOT_RTOL`` relative is not taken: the root is already closer
    than that, and such a step is Newton on rounding noise at a multiple
    root.  ``ValueError`` when ``c`` has both even and odd powers.
    """
    nz = [i for i, v in enumerate(c) if v]
    if not nz:
        return None, []
    k = nz[0] % 2
    if any(i % 2 != k for i in nz):
        raise ValueError("network is not lossless: its impedance is neither odd nor even in s")
    # from the lowest non-zero power: roots at x = 0 are below every band
    p = [v if i % 2 == 0 else -v for i, v in enumerate(c[nz[0] : nz[-1] + 1 : 2])]
    out = []
    for r in _poly_roots(p):
        x = float(r.real)
        if not (x > 0.0 and abs(r.imag) <= _ROOT_RTOL * x):
            continue
        for _ in range(2):
            v = dv = 0.0
            for a in reversed(p):
                dv = dv * x + v
                v = v * x + a
            if not abs(v) < _ROOT_RTOL * x * abs(dv):
                break
            x -= v / dv
        out.append(x)
    return k, out


def check_band(f_lo: float, f_hi: float) -> None:
    """``ValueError`` unless 0 < f_lo < f_hi < inf; NaN fails too."""
    if not (0.0 < f_lo < f_hi < math.inf):
        raise ValueError("need 0 < f_lo < f_hi < inf")


def lossless_poles_zeros(net: Network, f_lo: float, f_hi: float) -> list[tuple[float, str]]:
    """Poles and zeros of a lossless one-port on [f_lo, f_hi], from its rational form.

    Same result form as :func:`find_poles_zeros`: ``[(frequency,
    "pole"|"zero"), ...]`` sorted by frequency.  By Foster's reactance
    theorem the impedance of an LC one-port is odd in s, so of N/D (from
    :meth:`Network.rational`, with f_ref the band's geometric centre) one is
    even and the other odd, and every pole and zero is a root on the jw
    axis: a positive real root of a real polynomial in x = (f/f_ref)^2 (see
    :func:`_parity_roots`).  A root of N within ``_ROOT_RTOL`` of a root of D
    is a factor they share; the two cancel and neither is reported, as the
    grid scan sees no sign change there.  ``ValueError`` when the network
    has a resistive part.
    """
    check_band(f_lo, f_hi)
    f_ref = math.sqrt(f_lo) * math.sqrt(f_hi)
    num, den = net.rational(f_ref)
    k_num, zeros = _parity_roots(num)
    k_den, poles = _parity_roots(den)
    if k_num == k_den:
        raise ValueError("network is not lossless: its impedance is not odd in s")
    for x in list(zeros):
        p = next((p for p in poles if abs(x - p) <= _ROOT_RTOL * p), None)
        if p is not None:
            zeros.remove(x)
            poles.remove(p)
    x_lo, x_hi = (f_lo / f_ref) ** 2, (f_hi / f_ref) ** 2
    found = [(f_ref * math.sqrt(x), "zero") for x in zeros if x_lo <= x <= x_hi]
    found += [(f_ref * math.sqrt(x), "pole") for x in poles if x_lo <= x <= x_hi]
    found.sort(key=lambda t: t[0])
    return found


def _reactance_root_fn(z: np.ndarray, pole: np.ndarray) -> np.ndarray:
    """X for zero brackets, -1/X for pole brackets; a pole-flagged value is 0.

    Both rise through zero inside their bracket, and -1/X passes smoothly
    through the pole where X itself jumps.
    """
    x = z.imag
    with np.errstate(divide="ignore"):
        g = np.where(pole, -1.0 / x, x)
    return np.where(is_pole(z), 0.0, g)


def _refine_reactance_roots(
    net_fn: Callable,
    a: np.ndarray,
    b: np.ndarray,
    ga: np.ndarray,
    gb: np.ndarray,
    pole: np.ndarray,
) -> np.ndarray:
    """Roots of :func:`_reactance_root_fn` in every bracket [a, b] at once.

    ``ga < 0 < gb`` are the function's values at the ends; ``a``, ``b``,
    ``ga`` and ``gb`` are updated in place.

    Illinois (modified regula falsi): each iteration evaluates ``net_fn`` once
    on the array of all unconverged brackets, keeps the sub-bracket whose
    ends differ in sign, and halves the retained end's value when the same
    end survives twice, so both ends close in superlinearly.  A bracket is
    done when the value at the new point is zero (a pole-flagged value counts
    as zero) or when the interpolated point rounds onto an end: the root is
    then that end, the one with the smaller value.  An interpolation made
    undefined by an infinite end value falls back to the midpoint.
    """
    fn = lambda f, p: _reactance_root_fn(np.asarray(net_fn(f), dtype=complex), p)  # noqa: E731
    root = np.empty_like(a)
    side = np.zeros(a.size, dtype=np.int8)  # +1: b moved last, -1: a moved last
    live = np.arange(a.size)
    for _ in range(_REFINE_MAX_ITER):
        al, bl, gal, gbl = a[live], b[live], ga[live], gb[live]
        with np.errstate(invalid="ignore"):
            c = (al * gbl - bl * gal) / (gbl - gal)
        at_end = np.isfinite(c) & ~((c > al) & (c < bl))
        root[live[at_end]] = np.where(np.abs(gal) <= np.abs(gbl), al, bl)[at_end]
        inside = ~at_end
        live, al, bl, gal, gbl, c = (v[inside] for v in (live, al, bl, gal, gbl, c))
        if not live.size:
            break
        c = np.where(np.isfinite(c), c, 0.5 * (al + bl))
        gc = fn(c, pole[live])
        root[live] = c
        move_b = gc > 0.0
        move_a = gc < 0.0
        sl = side[live]
        a[live] = np.where(move_a, c, al)
        b[live] = np.where(move_b, c, bl)
        ga[live] = np.where(move_a, gc, np.where(move_b & (sl == 1), 0.5 * gal, gal))
        gb[live] = np.where(move_b, gc, np.where(move_a & (sl == -1), 0.5 * gbl, gbl))
        side[live] = np.where(move_b, 1, -1)
        live = live[move_a | move_b]
    return root


def _prominent_peaks(x: np.ndarray, min_prominence: float) -> np.ndarray:
    """Indices of the local maxima of ``x`` with at least ``min_prominence``.

    Same result as ``scipy.signal.find_peaks(x, prominence=min_prominence)``
    on finite input: a peak needs a strict rise on its left and a strict fall
    on its right; a flat top reports its midpoint and is no peak when it
    touches either end.  Prominence is the peak height minus the higher of
    the two side minima, each side searched up to the first higher sample.
    """
    n = x.size
    step = np.flatnonzero(np.diff(x))
    starts = np.concatenate(([0], step + 1))
    ends = np.concatenate((step, [n - 1]))
    rise = np.diff(x[starts]) > 0.0
    top = np.flatnonzero(rise[:-1] & ~rise[1:]) + 1
    mids = (starts[top] + ends[top]) // 2
    keep = []
    for p in mids:
        h = x[p]
        left = np.flatnonzero(x[:p] > h)
        right = np.flatnonzero(x[p + 1 :] > h)
        lo = left[-1] + 1 if left.size else 0
        hi = p + 1 + right[0] if right.size else n
        if h - max(x[lo : p + 1].min(), x[p:hi].min()) >= min_prominence:
            keep.append(p)
    return np.asarray(keep, dtype=np.intp)


def find_poles_zeros(
    net_fn: Callable,
    f_lo: float,
    f_hi: float,
    grid: int = 2001,
    *,
    lossless: bool,
) -> list[tuple[float, str]]:
    """Locate impedance poles and zeros of ``net_fn`` on [f_lo, f_hi] by a grid scan.

    ``net_fn`` maps an array of frequencies (Hz) to impedances, so any
    callable can be scanned.  ``verify_design`` scans lossy designs here; it
    takes lossless roots exactly from :func:`lossless_poles_zeros`, and the
    lossless scan below is the reference the tests hold that to.  The scan
    grid is log-spaced.  The caller says whether the network is lossless
    (purely reactive), as ``LossModel.lossless`` does; nothing is guessed
    from the values.  For lossless one-ports the classification is exact.
    By Foster's reactance theorem X rises between poles, so every zero and
    pole lies in a grid cell where X changes sign: upward (a zero) or
    downward (a pole, where X jumps).  Grid points that are pole-flagged or
    exactly zero are reported as they are, and their cells are not refined.
    All other sign-change cells are refined together by one vectorised
    Illinois solve: X = 0 for zeros, -1/X = 0 for poles, one ``net_fn`` call
    per iteration on the array of unconverged cells.  A pole-flagged value
    met on the way counts as the root, so a pole is located to within the
    band where :func:`is_pole` flags it; every other root is refined until
    its bracket closes to rounding.  Lossy networks fall back to the local
    extrema of log10|Z| on the grid, with ``scipy.signal.find_peaks``
    semantics: a maximum is a pole and a minimum a zero when its prominence
    is at least one decade.  A maximum's prominence is its height minus the
    higher of its two side minima, each side searched up to the first higher
    sample (mirrored for minima).  A flat extremum reports its midpoint; one
    that runs to either end of the grid is not reported.  Returns
    ``[(frequency, "pole"|"zero"), ...]`` sorted by frequency; no crossings
    means an empty list.  ``ValueError`` unless 0 < f_lo < f_hi < inf.
    """
    check_band(f_lo, f_hi)
    if grid < 100:
        raise ValueError("grid must be at least 100 points")
    fs = np.geomspace(f_lo, f_hi, grid)
    z = np.asarray(net_fn(fs), dtype=complex)
    pole_grid = is_pole(z)

    found: list[tuple[float, str]] = []
    if lossless:
        x = z.imag
        exact_zero = (~pole_grid) & (x == 0.0)
        found.extend((float(f), "pole") for f in fs[pole_grid])
        found.extend((float(f), "zero") for f in fs[exact_zero])
        skip = pole_grid | exact_zero
        usable = ~(skip[:-1] | skip[1:])
        rise = usable & (x[:-1] < 0.0) & (x[1:] > 0.0)
        fall = usable & (x[:-1] > 0.0) & (x[1:] < 0.0)
        cells = np.flatnonzero(rise | fall)
        if cells.size:
            pole = fall[cells]
            ga = _reactance_root_fn(z[cells], pole)
            gb = _reactance_root_fn(z[cells + 1], pole)
            roots = _refine_reactance_roots(net_fn, fs[cells], fs[cells + 1], ga, gb, pole)
            found.extend((float(f), "pole" if p else "zero") for f, p in zip(roots, pole))
    else:
        mag = np.abs(z)
        mag = np.clip(mag, 1e-30, POLE_CLAMP)
        logm = np.log10(mag)
        peaks = _prominent_peaks(logm, 1.0)
        dips = _prominent_peaks(-logm, 1.0)
        found.extend((float(fs[i]), "pole") for i in peaks)
        found.extend((float(fs[i]), "zero") for i in dips)

    found.sort(key=lambda t: t[0])
    return found
