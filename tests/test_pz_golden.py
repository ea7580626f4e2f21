"""Golden gate on the lossless pole/zero scan and the default shunt inductance.

``tests/data/lossless_pz.json`` holds, for seeded designs across the A, B, C
and D configurations plus both shipped specs, the high-state poles and zeros
that the lossless exact ``verify_design`` reports, and ``default_xm_inductance``
for seeded (f_mod, f_stop, c_total) triples on both sides of f_mod.  It was
written by the grid scan with scalar refinement and the scanned x_m search
that came before the vectorised refinement and the closed-form x_m; the
spec inputs are stored with the results, so the file does not depend on the
random generator.  Re-record it only when the results are meant to change::

    PYTHONPATH=src python -m tests.test_pz_golden
"""

import json
import math
from importlib.resources import files
from pathlib import Path

import numpy as np

from fdmlink.cli import _spec_from_file
from fdmlink.elements import is_pole
from fdmlink.loss import LOSSLESS
from fdmlink.synthesis import FilterSpec, default_xm_inductance, synthesize, verify_design

GOLDEN = Path(__file__).resolve().parent / "data" / "lossless_pz.json"
SHIPPED = ("filter_a.yaml", "filter_b.yaml")
FREQ_REL = 1e-6
LM_REL = 1e-9
TWO_PI = 2.0 * math.pi


def _close(a: float, b: float, rel: float) -> bool:
    return a == b or abs(a - b) <= rel * max(abs(a), abs(b))


def _random_specs(n: int = 200) -> list[dict]:
    """Spec inputs: 1 in 5 leaves x_m to the default, 1 in 10 is capacitive."""
    rng = np.random.default_rng(20261018)
    out = []
    for i in range(n):
        f_mod = float(rng.uniform(1e6, 80e6))
        ratio = float(rng.uniform(1.3, 6.0))
        c_io = float(rng.uniform(2e-12, 30e-12))
        factor = float(rng.uniform(0.1, 8.0))
        stop_above = bool(rng.random() < 0.5)
        f_stop = f_mod * ratio if stop_above else f_mod / ratio
        x = 1.0 / (TWO_PI * f_mod * c_io)
        spec = {"f_mod": f_mod, "f_stop": f_stop, "c_io": c_io}
        if i % 10 == 7:
            # capacitive shunt (configuration C) needs f_stop above f_mod
            spec["f_stop"] = f_mod * ratio
            spec["xm_capacitance"] = 1.0 / (TWO_PI * f_mod * x * factor)
        elif i % 5 != 4:
            xm = x * (1.05 + factor) if stop_above else x * min(0.95, 0.1 + factor / 10.0)
            spec["xm_inductance"] = xm / (TWO_PI * f_mod)
        out.append(spec)
    # x_m = X_IO_H exactly: configurations D1 and D2
    for f_stop in (50e6, 8e6):
        out.append({"f_mod": 20e6, "f_stop": f_stop, "c_io": 10e-12,
                    "xm_inductance": 1.0 / ((TWO_PI * 20e6) ** 2 * 10e-12)})
    return out


def _shipped_specs() -> list[dict]:
    out = []
    for name in SHIPPED:
        s = _spec_from_file(str(files("fdmlink").joinpath("data", name)))
        out.append({"f_mod": s.f_mod, "f_stop": s.f_stop, "c_io": s.c_io,
                    "shunt_c": s.shunt_c, "xm_inductance": s.xm_inductance,
                    "xm_capacitance": s.xm_capacitance, "eseries": s.eseries})
    return out


def _xm_triples(n: int = 100) -> list[dict]:
    """Half with f_stop above f_mod (even index), half below."""
    rng = np.random.default_rng(20261019)
    out = []
    for i in range(n):
        f_mod = float(rng.uniform(1e6, 80e6))
        ratio = float(rng.uniform(1.3, 6.0))
        c_total = float(rng.uniform(2e-12, 40e-12))
        f_stop = f_mod * ratio if i % 2 == 0 else f_mod / ratio
        out.append({"f_mod": f_mod, "f_stop": f_stop, "c_total": c_total})
    return out


def _pz_record(spec: dict) -> dict:
    d = synthesize(FilterSpec(**spec))
    rep = verify_design(d, loss=LOSSLESS, which="exact")
    return {"config": d.config.value, "h_poles": list(rep.h_poles), "h_zeros": list(rep.h_zeros)}


def _xm_record(t: dict) -> float:
    return default_xm_inductance(t["f_mod"], t["f_stop"], t["c_total"])


def test_lossless_poles_zeros_match_golden():
    doc = json.loads(GOLDEN.read_text())
    assert len(doc["designs"]) == 204
    assert {r["config"] for r in doc["designs"]} == {"A", "B", "C", "D1", "D2"}
    bad = []
    for rec in doc["designs"]:
        got = _pz_record(rec["spec"])
        ok = got["config"] == rec["config"]
        for kind in ("h_poles", "h_zeros"):
            ok = ok and len(got[kind]) == len(rec[kind]) and all(
                _close(a, b, FREQ_REL) for a, b in zip(got[kind], rec[kind])
            )
        if not ok:
            bad.append((rec["spec"], rec, got))
    assert not bad, bad[:3]


def test_lossless_roots_are_poles_and_zeros_of_the_input_impedance():
    """At each reported lossless root the evaluated Zin is pole-flagged, or within 1e-6 ohm of zero."""
    doc = json.loads(GOLDEN.read_text())
    bad = []
    for rec in doc["designs"]:
        d = synthesize(FilterSpec(**rec["spec"]))
        rep = verify_design(d, loss=LOSSLESS, which="exact")
        bad += [(rec["spec"], f) for f in rep.h_poles if not is_pole(d.input_impedance(f, "H"))]
        bad += [(rec["spec"], f) for f in rep.h_zeros if not abs(d.input_impedance(f, "H")) <= 1e-6]
    assert not bad, bad[:3]


def test_default_xm_inductance_matches_golden():
    doc = json.loads(GOLDEN.read_text())
    assert len(doc["default_xm"]) == 100
    above = sum(t["f_stop"] > t["f_mod"] for t in doc["default_xm"])
    assert above == 50
    bad = [
        (t, l_m)
        for t in doc["default_xm"]
        if not _close(l_m := _xm_record(t), t["l_m"], LM_REL)
    ]
    assert not bad, bad[:3]


if __name__ == "__main__":
    designs = [{"spec": s, **_pz_record(s)} for s in _random_specs() + _shipped_specs()]
    triples = [{**t, "l_m": _xm_record(t)} for t in _xm_triples()]
    GOLDEN.write_text(json.dumps({"designs": designs, "default_xm": triples}, indent=1) + "\n")
    print(f"recorded {len(designs)} designs and {len(triples)} x_m triples in {GOLDEN}")
