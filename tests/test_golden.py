"""Byte-for-byte gate on the demo link: metrics JSON and the trace CSV.

The files under ``tests/data/`` were written by the simulator before its
sample loop was restructured; a change that is meant only to make the loop
faster must reproduce them exactly, on the C block stepper and on the
Python one.  Re-record them only when the link's outputs are meant to
change::

    PYTHONPATH=src python -m tests.test_golden
"""

import hashlib
import warnings
from importlib.resources import files
from pathlib import Path

import pytest
from click.testing import CliRunner

from fdmlink.cli import main
from fdmlink.simulate import load_scenario

DEMO = str(files("fdmlink").joinpath("data/demo_scenario.yaml"))
DATA = Path(__file__).resolve().parent / "data"
TRACE_DIGEST = DATA / "demo_traces.sha256"

# (golden file name, seed, noise_rms in volts)
RUNS = (
    ("demo_seed0.json", 0, 0.0),
    ("demo_seed1_noise200uV.json", 1, 200e-6),
    ("demo_seed2_noise200uV.json", 2, 200e-6),
    ("demo_seed3_noise200uV.json", 3, 200e-6),
)


def _metrics_json(seed: int, noise_rms: float) -> str:
    metrics, _ = load_scenario(DEMO).run(seed=seed, noise_rms=noise_rms)
    return metrics.to_json()


def _trace_csv_sha256(tmp_dir: Path) -> str:
    """sha256 of the ``fdmlink simulate --traces`` CSV of the demo."""
    path = tmp_dir / "traces.csv"
    r = CliRunner().invoke(
        main, ["simulate", DEMO, "--out", str(tmp_dir / "metrics.json"), "--traces", str(path)]
    )
    assert r.exit_code == 0, r.output
    return hashlib.sha256(path.read_bytes()).hexdigest()


# the C cases keep the plain run names as ids, so existing test ids stay stable
CASES = [(*run, "c") for run in RUNS] + [(*run, "python") for run in RUNS]
CASE_IDS = [name for name, *_ in RUNS] + [f"{name}-python" for name, *_ in RUNS]


@pytest.mark.parametrize("name,seed,noise_rms,stepper", CASES, ids=CASE_IDS, indirect=["stepper"])
def test_demo_metrics_match_golden(name, seed, noise_rms, stepper):
    assert _metrics_json(seed, noise_rms) == (DATA / name).read_text()


@pytest.mark.parametrize("stepper", ["c", "python"], indirect=True)
def test_demo_trace_csv_matches_golden(tmp_path, stepper):
    assert _trace_csv_sha256(tmp_path) == TRACE_DIGEST.read_text().strip()


# the demo at noise near the float limit, recorded with the earlier ``rng.normal``
# draw, which prints no overflow warning: seed 4 at 1e308 V and, in-process, at 5e-324 V
HUGE_NOISE_RUN = ("demo_seed4_noise1e308V.json", 4, 1e308)


@pytest.mark.parametrize("stepper", ["c", "python"], indirect=True)
def test_noise_at_the_float_limits_matches_the_normal_draw_and_warns_nothing(stepper):
    """1e308 V gives the recorded metrics; 5e-324 V moves no sample, so only ``noise_rms_v`` differs from 0 V."""
    name, seed, _ = HUGE_NOISE_RUN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _metrics_json(seed, 1e308) == (DATA / name).read_text()
        tiny, _ = load_scenario(DEMO).run(seed=seed, noise_rms=5e-324)
        quiet, _ = load_scenario(DEMO).run(seed=seed)
    assert {**tiny.to_dict(), "noise_rms_v": 0.0} == quiet.to_dict()
    assert tiny.to_dict()["noise_rms_v"] == 5e-324


if __name__ == "__main__":
    import tempfile

    DATA.mkdir(exist_ok=True)
    for name, seed, noise_rms in RUNS + (HUGE_NOISE_RUN,):
        (DATA / name).write_text(_metrics_json(seed, noise_rms))
    with tempfile.TemporaryDirectory() as tmp:
        TRACE_DIGEST.write_text(_trace_csv_sha256(Path(tmp)) + "\n")
    print(f"recorded {len(RUNS) + 1} metrics files and the trace digest in {DATA}")
