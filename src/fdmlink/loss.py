"""Loss models for I/O pins and inductors.

The logical-high pin is a small capacitance shunted by a fixed large
parallel resistance, ``DEFAULT_R_H``; the logical-low pin is the turned-on
open-drain transistor, a fixed small series resistance, ``DEFAULT_R_L``,
with no parasitic inductance.  Inductor loss is a constant series
resistance derived from a quality factor at a stated reference frequency;
capacitors are treated as ideal, their loss being negligible against the
inductors at the frequencies of interest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .elements import Network, capacitor, inductor, resistor, short_circuit
from .units import ConfigError

__all__ = ["DEFAULT_Q", "DEFAULT_R_H", "DEFAULT_R_L", "LossModel", "LOSSLESS"]

DEFAULT_R_H = 10e3
DEFAULT_R_L = 10.0
DEFAULT_Q = 40.0
DEFAULT_Q_REF_HZ = 25e6


@dataclass(frozen=True)
class LossModel:
    """Inductor quality factor, with the fixed pin parasitics.

    The pins are ``DEFAULT_R_H`` across ``c_io`` (high) and ``DEFAULT_R_L``
    (low).  ``inductor_q = None`` is the lossless sentinel: pins become an
    ideal capacitance (high) and an ideal short (low), and inductors are
    ideal.
    """

    inductor_q: float | None = DEFAULT_Q
    q_ref_hz: float = DEFAULT_Q_REF_HZ

    def __post_init__(self) -> None:
        # written so that NaN fails every check
        if self.inductor_q is not None and not self.inductor_q > 0.0:
            raise ConfigError("inductor_q must be positive (or None for lossless)")
        if not self.q_ref_hz > 0.0:
            raise ConfigError("q_ref_hz must be positive")

    @property
    def lossless(self) -> bool:
        return self.inductor_q is None

    def inductor_esr(self, henries: float) -> float:
        """Series resistance of an inductor under this model."""
        if self.inductor_q is None:
            return 0.0
        return 2.0 * math.pi * self.q_ref_hz * henries / self.inductor_q

    def make_inductor(self, henries: float) -> Network:
        return inductor(henries, loss=self.inductor_esr(henries))

    def load(self, c_io: float, state: str) -> Network:
        """The pin in logic state ``"H"`` (transistor off) or ``"L"`` (transistor on)."""
        if state == "H":
            if c_io <= 0.0:
                raise ValueError("c_io must be positive")
            c = capacitor(c_io)
            return c if self.lossless else c | resistor(DEFAULT_R_H)
        if state == "L":
            return short_circuit() if self.lossless else resistor(DEFAULT_R_L)
        raise ValueError(f"state must be 'H' or 'L', got {state!r}")


LOSSLESS = LossModel(inductor_q=None)
