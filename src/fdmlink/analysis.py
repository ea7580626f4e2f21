"""Frequency sweeps and modulation-depth budgets.

The bus carrier divides between the pull-up impedance Z_P and the joint
input impedance of everything hanging on the line, so the amplitude seen at
the line is V0 * |Z / (Z_P + Z)|.  A node modulates by toggling its own
input impedance between z_h and z_l; the usable depth shrinks as more
high-state nodes load the line in parallel.
"""

from __future__ import annotations

import io
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .elements import DEFAULT_POLE_CAP, POLE_CLAMP, check_band, is_open, is_pole
from .loss import LOSSLESS, LossModel
from .synthesis import FilterDesign

__all__ = [
    "SweepResult",
    "BudgetResult",
    "sweep",
    "modulation_ratio",
    "multinode_ratio",
    "multinode_approx",
    "n_max",
    "budget",
]

# the largest node count n_max reports
N_LIMIT = 100_000


def _finite(z) -> complex:
    """``z``, or for an open (``elements.is_open``) magnitude ``DEFAULT_POLE_CAP`` with z's phase."""
    z = complex(z)
    if is_open(z):
        mag = abs(z)
        return z * (DEFAULT_POLE_CAP / mag) if math.isfinite(mag) else complex(DEFAULT_POLE_CAP, 0.0)
    return z


def _check_node_count(n) -> None:
    """``ValueError`` unless ``n`` is an integer (not a bool) of at least 1."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"n must be an integer of at least 1, got {n!r}")


@dataclass(frozen=True)
class SweepResult:
    """Zin versus frequency for both pin states; ``to_csv`` marks pole-flagged rows."""

    frequencies: np.ndarray
    z_h: np.ndarray
    z_l: np.ndarray

    def ratio_at(self, f: float) -> float:
        """|z_h|/|z_l| at the grid point nearest ``f``, an open (``elements.is_open``) at ``DEFAULT_POLE_CAP``."""
        i = int(np.argmin(np.abs(self.frequencies - f)))
        return multinode_ratio(self.z_h[i], self.z_l[i], 1)

    def to_csv(self) -> str:
        """CSV with header; pole rows carry the sentinel magnitude and marker."""
        out = io.StringIO()
        out.write("# schema_version: 1\n")
        out.write("f_hz,zh_abs,zh_arg,zl_abs,zl_arg,marker\n")
        for f, zh, zl in zip(self.frequencies, self.z_h, self.z_l):
            zh = complex(zh)
            zl = complex(zl)
            marks = []
            if is_pole(zh):
                marks.append("pole_h")
                zh = complex(POLE_CLAMP, 0.0)
            if is_pole(zl):
                marks.append("pole_l")
                zl = complex(POLE_CLAMP, 0.0)
            out.write(
                f"{f:.10g},{abs(zh):.10g},{np.angle(zh):.10g},"
                f"{abs(zl):.10g},{np.angle(zl):.10g},{'+'.join(marks)}\n"
            )
        return out.getvalue()


def sweep(
    d: FilterDesign,
    loss: LossModel = LOSSLESS,
    f_lo: float = 1e6,
    f_hi: float = 100e6,
    points: int = 501,
    which: str = "exact",
) -> SweepResult:
    """Input impedance of a design at ``points`` log-spaced frequencies, both pin states.

    Both come from ``FilterDesign.zin_functions``; the carriers are pulled
    onto the grid.  Poles and zeros are not located here:
    ``synthesis.verify_design`` reports the high-state ones.  ``ValueError``
    unless 0 < f_lo < f_hi < inf.
    """
    check_band(f_lo, f_hi)
    if points < 2:
        raise ValueError("points must be >= 2")
    fs = np.geomspace(f_lo, f_hi, points)

    # pull the nearest interior grid points onto the carriers so the exact
    # resonance values (including pole flags) land in the output; the row
    # count stays exactly as requested
    taken: set[int] = set()
    for f_c in (d.f_mod, d.f_stop):
        if not (f_lo < f_c < f_hi):
            continue
        order = np.argsort(np.abs(np.log(fs / f_c)))
        for i in map(int, order):
            if 0 < i < points - 1 and i not in taken:
                fs[i] = f_c
                taken.add(i)
                break
    fs = np.sort(fs)

    zin_h, zin_l = d.zin_functions(which, loss)
    return SweepResult(fs, np.asarray(zin_h(fs)), np.asarray(zin_l(fs)))


def modulation_ratio(z_h: complex, z_l: complex, z_p: complex) -> float:
    """Single-node amplitude ratio between pin states behind pull-up ``z_p``.

    |z_h/(z_p+z_h)| / |z_l/(z_p+z_l)|; as |z_p| grows this tends to
    |z_h|/|z_l|.  ``z_p = 0`` clamps the line to the source, ratio 1.
    """
    if z_p == 0:
        return 1.0
    zh, zl = _finite(z_h), _finite(z_l)
    num = abs(zh / (z_p + zh))
    den = abs(zl / (z_p + zl))
    if den == 0.0:
        return math.inf
    return num / den


def multinode_ratio(z_h: complex, z_l: complex, n: int) -> float:
    """Worst-case depth with ``n`` nodes: one pulls low, n-1 idle high.

    The idle nodes load the line with z_h/ (n-1) in parallel with the one
    modulating node, so the ratio is |z_h/n| / |z_l || z_h/(n-1)|.
    """
    _check_node_count(n)
    zh, zl = _finite(z_h), _finite(z_l)
    if n == 1:
        return abs(zh) / max(abs(zl), 1e-30)
    z_high_all = zh / n
    z_rest = zh / (n - 1)
    z_low = zl * z_rest / (zl + z_rest)
    return abs(z_high_all) / max(abs(z_low), 1e-30)


def multinode_approx(z_h: complex, z_l: complex, n: int) -> float:
    """Large-|z_p| approximation |1 + z_h/(n z_l)| of the n-node ratio.

    A shorted pulled state (``z_l == 0``) makes the approximation diverge:
    the result is ``math.inf``.
    """
    _check_node_count(n)
    zh, zl = _finite(z_h), _finite(z_l)
    if zl == 0:
        return math.inf
    return abs(1.0 + zh / (n * zl))


def n_max(z_h: complex, z_l: complex, min_depth_db: float) -> int:
    """Largest node count up to ``N_LIMIT`` keeping 20*log10(multinode_ratio) >= the floor."""
    if not min_depth_db > 0.0:  # NaN fails too
        raise ValueError(f"min_depth_db must be positive, got {min_depth_db!r}")
    if 20.0 * math.log10(max(multinode_ratio(z_h, z_l, 1), 1e-30)) < min_depth_db:
        return 0
    lo, hi = 1, 1
    while hi < N_LIMIT:
        hi = min(hi * 2, N_LIMIT)
        if 20.0 * math.log10(max(multinode_ratio(z_h, z_l, hi), 1e-30)) < min_depth_db:
            break
    else:
        return N_LIMIT
    # ratio is non-increasing in n: bisect the crossing
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if 20.0 * math.log10(max(multinode_ratio(z_h, z_l, mid), 1e-30)) >= min_depth_db:
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class BudgetResult:
    """Single-node and n-node modulation depth summary."""

    z_h: complex
    z_l: complex
    z_p: complex | None
    ratio_single: float
    n_values: tuple[int, ...]
    ratio_n: tuple[float, ...]
    approx_n: tuple[float, ...]
    min_depth_db: float
    n_max: int

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "z_h_ohm": [self.z_h.real, self.z_h.imag],
            "z_l_ohm": [self.z_l.real, self.z_l.imag],
            "z_p_ohm": None if self.z_p is None else [self.z_p.real, self.z_p.imag],
            "ratio_single": self.ratio_single,
            "depth_single_db": 20.0 * math.log10(max(self.ratio_single, 1e-30)),
            "n": list(self.n_values),
            "ratio_n": list(self.ratio_n),
            "ratio_n_db": [20.0 * math.log10(max(r, 1e-30)) for r in self.ratio_n],
            "approx_n": list(self.approx_n),
            "min_depth_db": self.min_depth_db,
            "n_max": self.n_max,
        }


def budget(
    z_h: complex,
    z_l: complex,
    z_p: complex | None = None,
    n_values: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64),
    min_depth_db: float = 6.0,
) -> BudgetResult:
    """Assemble the full modulation budget for a node impedance pair.

    Each of ``n_values`` is an integer (not a bool) of at least 1, and
    ``min_depth_db`` is positive; ``ValueError`` otherwise.
    """
    if z_p is not None:
        single = modulation_ratio(z_h, z_l, z_p)
    else:
        single = multinode_ratio(z_h, z_l, 1)
    return BudgetResult(
        z_h=complex(z_h),
        z_l=complex(z_l),
        z_p=None if z_p is None else complex(z_p),
        ratio_single=single,
        n_values=tuple(int(n) for n in n_values),
        ratio_n=tuple(multinode_ratio(z_h, z_l, n) for n in n_values),
        approx_n=tuple(multinode_approx(z_h, z_l, n) for n in n_values),
        min_depth_db=min_depth_db,
        n_max=n_max(z_h, z_l, min_depth_db),
    )
