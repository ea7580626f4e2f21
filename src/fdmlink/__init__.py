"""Carrier-keyed I2C over a shared DC power line: design and simulation.

Submodules load on first attribute access so the command line front end
starts fast; ``import fdmlink`` alone pulls in nothing heavy.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "units": ["ConfigError", "UnitError", "parse_quantity", "format_quantity"],
    "elements": [
        "DEFAULT_POLE_CAP",
        "DegenerateNetworkError",
        "Network",
        "POLE",
        "POLE_CLAMP",
        "ReactiveElement",
        "TwoPortZ",
        "capacitor",
        "find_poles_zeros",
        "inductor",
        "input_impedance",
        "is_pole",
        "open_circuit",
        "parallel",
        "resistor",
        "series",
        "short_circuit",
        "t_network",
    ],
    "eseries": ["ESERIES", "snap_ceil", "snap_eseries", "snap_floor"],
    "loss": ["DEFAULT_Q", "DEFAULT_R_H", "DEFAULT_R_L", "LOSSLESS", "LossModel"],
    "synthesis": [
        "ConfigKind",
        "FilterDesign",
        "FilterSpec",
        "InfeasibleConfigError",
        "ReactanceRangeError",
        "SpecError",
        "SynthesisError",
        "VerificationReport",
        "classify",
        "default_xm_inductance",
        "design_from_dict",
        "design_to_dict",
        "spec_from_dict",
        "synthesize",
        "verify_design",
    ],
    "analysis": [
        "BudgetResult",
        "SweepResult",
        "budget",
        "modulation_ratio",
        "multinode_approx",
        "multinode_ratio",
        "n_max",
        "sweep",
    ],
    "modem": [
        "CarrierSeparationWarning",
        "ClipParams",
        "Demodulator",
        "DetectorParams",
        "EnvelopeTrace",
        "H",
        "L",
        "LogicTimeline",
        "SlicerParams",
        "VoltageTrace",
        "check_carrier_separation",
        "detect",
        "inject_latchup_spike",
        "modulate",
        "slice_levels",
    ],
    "protocol": [
        "MAX_CLOCK_HZ",
        "MasterEngine",
        "ProtocolError",
        "RESERVED_ADDRESSES",
        "SlaveEngine",
        "SlaveGroup",
        "SlaveModel",
        "Transaction",
        "master_run",
        "parse_script",
        "run_ideal_bus",
    ],
    "simulate": [
        "BusTopology",
        "CarrierSpec",
        "LinkMetrics",
        "NodeSpec",
        "Scenario",
        "TopologyError",
        "bus_amplitude",
        "load_scenario",
        "run_scenario",
        "sweep_node_count",
    ],
    "kernels": ["backend_name"],
}

_ATTR_TO_MODULE = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ATTR_TO_MODULE) + sorted(_EXPORTS)


def __getattr__(name: str):
    mod = _ATTR_TO_MODULE.get(name)
    if mod is not None:
        module = importlib.import_module(f".{mod}", __name__)
        value = getattr(module, name)
        globals()[name] = value
        return value
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
