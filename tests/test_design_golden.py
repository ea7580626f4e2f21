"""Byte-for-byte gate on the design path: ``fdmlink design`` JSON and ``fdmlink sweep`` CSV.

The files under ``tests/data/`` were written before impedance evaluation
was restructured; a change that is meant only to make evaluation faster must
reproduce them exactly.  Each shipped filter spec is designed with the
default loss model, ``--lossless`` and ``--q 5``; each default design JSON is
then swept with the defaults, ``--lossless`` and ``--which snapped``.
Re-record them only when the design outputs are meant to change::

    PYTHONPATH=src python -m tests.test_design_golden
"""

from importlib.resources import files
from pathlib import Path

import pytest
from click.testing import CliRunner

from fdmlink.cli import main

DATA = Path(__file__).resolve().parent / "data"
SPECS = {name: str(files("fdmlink").joinpath(f"data/filter_{name}.yaml")) for name in "ab"}

# (flag label, extra arguments)
DESIGN_FLAGS = (("default", []), ("lossless", ["--lossless"]), ("q5", ["--q", "5"]))
SWEEP_FLAGS = (("default", []), ("lossless", ["--lossless"]), ("snapped", ["--which", "snapped"]))

DESIGNS = [(f"design_{n}_{label}.json", n, args) for n in SPECS for label, args in DESIGN_FLAGS]
SWEEPS = [(f"sweep_{n}_{label}.csv", n, args) for n in SPECS for label, args in SWEEP_FLAGS]


def _design_json(name: str, args: list[str]) -> str:
    r = CliRunner().invoke(main, ["design", SPECS[name], "--format", "json", *args])
    assert r.exit_code == 0, r.output
    return r.stdout


def _sweep_csv(name: str, args: list[str], tmp_dir: Path) -> str:
    """``fdmlink sweep`` of the recorded default design JSON of filter ``name``."""
    out = tmp_dir / "sweep.csv"
    design = DATA / f"design_{name}_default.json"
    r = CliRunner().invoke(main, ["sweep", str(design), "--out", str(out), *args])
    assert r.exit_code == 0, r.output
    return out.read_text()


@pytest.mark.parametrize("golden,name,args", DESIGNS, ids=[d[0] for d in DESIGNS])
def test_design_json_matches_golden(golden, name, args):
    assert _design_json(name, args) == (DATA / golden).read_text()


@pytest.mark.parametrize("golden,name,args", SWEEPS, ids=[s[0] for s in SWEEPS])
def test_sweep_csv_matches_golden(golden, name, args, tmp_path):
    assert _sweep_csv(name, args, tmp_path) == (DATA / golden).read_text()


if __name__ == "__main__":
    import tempfile

    DATA.mkdir(exist_ok=True)
    for golden, name, args in DESIGNS:
        (DATA / golden).write_text(_design_json(name, args))
    with tempfile.TemporaryDirectory() as tmp:
        for golden, name, args in SWEEPS:
            (DATA / golden).write_text(_sweep_csv(name, args, Path(tmp)))
    print(f"recorded {len(DESIGNS)} design files and {len(SWEEPS)} sweep files in {DATA}")
