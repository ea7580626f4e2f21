"""Envelope-domain ASK physical layer: modulation, detection, slicing.

Carriers sit two to three orders of magnitude above the bit rate, so the
simulation works on carrier-amplitude envelopes rather than RF waveforms:
an open-drain pin toggling its filter between high and low input impedance
shifts the carrier amplitude on the line (ASK), a logarithmic detector maps
the envelope to a voltage, and a data slicer with a self-tuning reference
recovers logic levels.  The latch-up fault of a spiking detector input and
its diode-clip mitigation are modeled explicitly, by one closed-loop spike
model in ``Demodulator``.

Logic levels are integers: H = 1, L = 0.  Decoding is defined relative to
the bus idle-high initial condition (slicer output starts high).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

__all__ = [
    "H",
    "L",
    "CarrierSeparationWarning",
    "LogicTimeline",
    "EnvelopeTrace",
    "VoltageTrace",
    "DetectorParams",
    "SlicerParams",
    "ClipParams",
    "Demodulator",
    "modulate",
    "initial_reference",
    "slice_levels",
    "check_carrier_separation",
]

H = 1
L = 0

MIN_SAMPLES_PER_BIT = 50
MIN_CARRIER_CLOCK_RATIO = 100.0
# the slicer reference's LPF time constant, in bit periods
SLICER_TAU_BITS = 20.0


class CarrierSeparationWarning(UserWarning):
    """The baseband clock is too close to a carrier for clean envelopes."""


def check_carrier_separation(clock_hz: float, carrier_hz: float) -> None:
    """Warn when a carrier is within 100x of the data clock."""
    if carrier_hz < MIN_CARRIER_CLOCK_RATIO * clock_hz:
        warnings.warn(
            f"carrier {carrier_hz:.4g} Hz is within {MIN_CARRIER_CLOCK_RATIO:.0f}x "
            f"of the {clock_hz:.4g} Hz clock; envelope separation degrades",
            CarrierSeparationWarning,
            stacklevel=2,
        )


def _trace_samples(sample_rate: float, samples, dtype: type, what: str) -> np.ndarray:
    """A trace's samples as a contiguous array of ``dtype``, after the checks every trace shares.

    The sample rate is finite and positive, and the samples form a
    nonempty 1-D array.
    """
    if not 0.0 < sample_rate < math.inf:  # NaN fails too
        raise ValueError(f"sample_rate must be finite and positive, got {sample_rate!r}")
    arr = np.ascontiguousarray(samples, dtype=dtype)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{what} must be a nonempty 1-D sequence")
    return arr


@dataclass(frozen=True)
class LogicTimeline:
    """Sampled digital waveform (values in {0, 1})."""

    sample_rate: float
    levels: np.ndarray

    def __post_init__(self) -> None:
        arr = _trace_samples(self.sample_rate, self.levels, np.uint8, "levels")
        if np.any(arr > 1):
            raise ValueError("levels must be 0 (L) or 1 (H)")
        object.__setattr__(self, "levels", arr)

    @staticmethod
    def from_bits(
        bits, samples_per_bit: int, sample_rate: float
    ) -> "LogicTimeline":
        """Expand a bit sequence; enforces >= 50 samples per bit."""
        if samples_per_bit < MIN_SAMPLES_PER_BIT:
            raise ValueError(
                f"samples_per_bit must be >= {MIN_SAMPLES_PER_BIT} "
                f"(got {samples_per_bit}); the envelope model needs headroom"
            )
        arr = np.repeat(np.asarray(list(bits), dtype=np.uint8), samples_per_bit)
        return LogicTimeline(sample_rate, arr)

    def __len__(self) -> int:
        return int(self.levels.size)

    def transitions(self) -> np.ndarray:
        """Indices where the level changes from the previous sample."""
        return np.nonzero(np.diff(self.levels.astype(np.int8)) != 0)[0] + 1


@dataclass(frozen=True)
class EnvelopeTrace:
    """Carrier-amplitude samples in volts (nonnegative)."""

    sample_rate: float
    samples: np.ndarray

    def __post_init__(self) -> None:
        arr = _trace_samples(self.sample_rate, self.samples, np.float64, "samples")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
            raise ValueError("envelope samples must be finite and >= 0")
        object.__setattr__(self, "samples", arr)

    def __len__(self) -> int:
        return int(self.samples.size)


@dataclass(frozen=True)
class VoltageTrace:
    """Generic sampled voltage (may be negative, unlike an envelope)."""

    sample_rate: float
    samples: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", _trace_samples(self.sample_rate, self.samples, np.float64, "samples"))

    def __len__(self) -> int:
        return int(self.samples.size)


@dataclass(frozen=True)
class DetectorParams:
    """Logarithmic RF detector transfer curve, the same for every run.

    Output volts per input dB with a fixed anchor point:
    out = ref_out + slope * 20*log10(env / ref_in), clamped at
    ``floor_volts`` of input (60 dB below the anchor).  The detector is
    treated as high-impedance: it does not load the bus.
    """

    slope: ClassVar[float] = 0.044
    ref_in: ClassVar[float] = 0.010
    ref_out: ClassVar[float] = 1.0
    floor_volts: ClassVar[float] = ref_in * 1e-3


@dataclass(frozen=True)
class SlicerParams:
    """Self-tuning comparator: reference = one-pole LPF of the input, ``hysteresis`` volts wide."""

    lpf_time_constant: float
    hysteresis: ClassVar[float] = 0.010

    def __post_init__(self) -> None:
        # written so that NaN fails the check
        if not self.lpf_time_constant > 0.0:
            raise ValueError("lpf_time_constant must be positive")

    @staticmethod
    def for_bit_rate(bit_rate: float) -> "SlicerParams":
        """Default tuning: LPF constant of ``SLICER_TAU_BITS`` bit periods."""
        return SlicerParams(lpf_time_constant=SLICER_TAU_BITS / bit_rate)

    def alpha(self, sample_rate: float) -> float:
        return 1.0 - math.exp(-1.0 / (sample_rate * self.lpf_time_constant))


@dataclass(frozen=True)
class ClipParams:
    """Transition-spike model and the anti-parallel diode clip level.

    Pin toggles stimulate the RF detector; what matters downstream is the
    induced excursion on the detector output, so ``spike_amplitude`` and
    ``v_f`` are both volts in that domain.  The input diode pair bounds the
    excursion at the diode drop ``v_f``; it leaves the keyed carrier alone
    as long as the carrier amplitude stays below ``v_f``.
    """

    v_f: float = 0.3
    spike_amplitude: float = 1.0
    spike_decay: float = 1e-6

    def __post_init__(self) -> None:
        # written so that NaN fails every check
        if not self.v_f > 0.0:
            raise ValueError("v_f must be positive")
        if not (self.spike_amplitude >= 0.0 and self.spike_decay > 0.0):
            raise ValueError("spike_amplitude >= 0 and spike_decay > 0 required")

    def effective_amplitude(self, clip_enabled: bool = True) -> float:
        return min(self.spike_amplitude, self.v_f) if clip_enabled else self.spike_amplitude

    def decay_mult(self, sample_rate: float) -> float:
        return math.exp(-1.0 / (sample_rate * self.spike_decay))


def modulate(
    bus_amp_h: float,
    bus_amp_l: float,
    logic: LogicTimeline,
    rise_time: float = 0.0,
) -> EnvelopeTrace:
    """Map logic levels to carrier amplitude with a one-pole transition.

    ``rise_time`` is 10-90%; zero means ideal instant switching.  A useful
    default for a bit stream is 1% of the bit period.  The output follows
    ``y[k] = a * target[k] + (1 - a) * y[k-1]`` from ``y[0] = target[0]``,
    so ``y - target`` is zero until the first transition, jumps by
    ``-(1 - a) * (target[k] - target[k-1])`` at each transition and decays
    by ``1 - a`` per sample in between.  The loop runs once per transition,
    filling the samples up to the next one with powers of ``1 - a``, so its
    cost in Python steps does not grow with the number of samples.
    """
    if not bus_amp_h >= bus_amp_l >= 0.0:
        raise ValueError("need bus_amp_h >= bus_amp_l >= 0")
    target = np.where(logic.levels, bus_amp_h, bus_amp_l).astype(np.float64)
    if rise_time <= 0.0:
        return EnvelopeTrace(logic.sample_rate, target)
    tau = rise_time / math.log(9.0)  # 10-90% of a one-pole step
    a = 1.0 - math.exp(-1.0 / (logic.sample_rate * tau))
    idx = logic.transitions()
    lag = np.zeros(len(target), dtype=np.float64)
    if idx.size:
        jumps = -(1.0 - a) * (target[idx] - target[idx - 1])
        lengths = np.diff(idx, append=len(target))
        powers = (1.0 - a) ** np.arange(int(lengths.max()) + 1, dtype=np.float64)
        value = 0.0
        prev_len = 0
        for start, length, jump in zip(idx.tolist(), lengths.tolist(), jumps.tolist()):
            value = value * powers[prev_len] + jump
            lag[start : start + length] = value * powers[:length]
            prev_len = length
    return EnvelopeTrace(logic.sample_rate, target + lag)


def initial_reference(p: DetectorParams, first: list[float]) -> list[float]:
    """Each slicer's reference before its first sample: the detector value of that sample's envelope.

    The one rule for ``Demodulator.run`` and every stream of
    ``run_scenario``, computed by the block kernels' scalar detector.
    """
    from . import _kernels_py  # on use, so loading a scenario does not import the kernels

    return _kernels_py.detector(first, p.floor_volts, p.ref_in, p.ref_out, 20.0 * p.slope)


def slice_levels(det: VoltageTrace, p: SlicerParams) -> LogicTimeline:
    """Binarize a detector trace; output starts high (bus idle), the reference at ``det[0]``."""
    from . import _kernels_py  # on use, so loading a scenario does not import the kernels

    levels, _ = _kernels_py.slicer_loop(
        det.samples, p.alpha(det.sample_rate), p.hysteresis, float(det.samples[0]), H
    )
    return LogicTimeline(det.sample_rate, levels)


@dataclass(frozen=True)
class Demodulator:
    """Detector + slicer chain, with closed-loop spike feedback when ``clip`` is set.

    With a spike model present, each output transition couples a spike back
    into the detector input within the same sample; a large unclipped spike
    then holds the output at its previous level indefinitely (latch-up).
    The output starts high (``H``, the idle bus) and the reference at
    ``initial_reference`` of the first envelope sample.  With ``clip`` None
    the detector trace is exactly the block kernels' detector of each
    envelope sample.
    """

    detector: DetectorParams = DetectorParams()
    slicer: SlicerParams = SlicerParams(lpf_time_constant=2e-3)
    clip: ClipParams | None = None
    clip_enabled: bool = True

    def run(self, env: EnvelopeTrace) -> tuple[LogicTimeline, VoltageTrace, VoltageTrace]:
        """Demodulate an envelope; returns (levels, detector, reference)."""
        from . import _kernels_py  # on use, so loading a scenario does not import the kernels

        p = self.detector
        rate = env.sample_rate
        spike_amp = 0.0
        decay_mult = 0.0
        spike_cap = math.inf
        if self.clip is not None:
            spike_amp = self.clip.effective_amplitude(self.clip_enabled)
            decay_mult = self.clip.decay_mult(rate)
            if self.clip_enabled:
                spike_cap = self.clip.v_f
        (ref0,) = initial_reference(p, [float(env.samples[0])])
        levels, det, refs = _kernels_py.demod_loop(
            env.samples,
            p.ref_in,
            p.ref_out,
            p.slope,
            p.floor_volts,
            self.slicer.alpha(rate),
            self.slicer.hysteresis,
            ref0,
            H,
            spike_amp,
            decay_mult,
            spike_cap,
            self.clip is not None,
        )
        return (
            LogicTimeline(rate, levels),
            VoltageTrace(rate, det),
            VoltageTrace(rate, refs),
        )
