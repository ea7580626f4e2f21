"""Set-up cost in a fresh process; prints one JSON object.

    python3 fdmbench/setup_probe.py link      # imports + load_scenario of the demo
    python3 fdmbench/setup_probe.py design    # imports + loading filter_a.yaml + first op on it (imports scipy)
    python3 fdmbench/setup_probe.py imports   # fdmlink's modules, then scipy on top
    python3 fdmbench/setup_probe.py reference # fixed standard-library imports (calibrate.py)

The clock starts before any import other than ``time``, so interpreter
start-up is excluded and every import the workload needs is included.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def link() -> dict:
    from fdmlink.simulate import load_scenario

    load_scenario(ROOT / "src" / "fdmlink" / "data" / "demo_scenario.yaml")
    return {"setup_s": time.perf_counter() - T0}


def design() -> dict:
    from fdmlink.analysis import sweep
    from fdmlink.cli import _spec_from_file
    from fdmlink.loss import LOSSLESS, LossModel
    from fdmlink.synthesis import synthesize, verify_design

    # the packaged filter_a spec, read as `fdmlink design` reads it
    d = synthesize(_spec_from_file(str(ROOT / "src" / "fdmlink" / "data" / "filter_a.yaml")))
    verify_design(d, loss=LOSSLESS, which="exact")
    verify_design(d, loss=LossModel(), which="snapped")
    sweep(d, LossModel(), 10e6, 100e6, points=501, which="snapped")
    return {"setup_s": time.perf_counter() - T0}


def imports() -> dict:
    import fdmlink.analysis  # noqa: F401
    import fdmlink.cli  # noqa: F401
    import fdmlink.elements  # noqa: F401
    import fdmlink.kernels  # noqa: F401
    import fdmlink.modem  # noqa: F401
    import fdmlink.protocol  # noqa: F401
    import fdmlink.simulate  # noqa: F401
    import fdmlink.synthesis  # noqa: F401

    t1 = time.perf_counter()
    import scipy.optimize  # noqa: F401
    import scipy.signal  # noqa: F401

    return {"fdmlink_s": t1 - T0, "scipy_s": time.perf_counter() - t1}


def reference() -> dict:
    """Host-speed reference for set-up times; touches nothing in fdmlink."""
    import argparse  # noqa: F401
    import asyncio  # noqa: F401
    import decimal  # noqa: F401
    import email.mime.multipart  # noqa: F401
    import http.client  # noqa: F401
    import logging  # noqa: F401
    import unittest  # noqa: F401
    import xml.etree.ElementTree  # noqa: F401

    return {"setup_s": time.perf_counter() - T0}


if __name__ == "__main__":
    modes = {"link": link, "design": design, "imports": imports, "reference": reference}
    print(json.dumps(modes[sys.argv[1]]()))
