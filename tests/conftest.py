import shutil

import numpy as np
import pytest

from fdmlink import _kernels_py, kernels
from fdmlink.loss import LossModel
from fdmlink.synthesis import FilterSpec, synthesize


def pytest_report_header(config):
    """Name the block stepper the simulator tests run on by default."""
    name = kernels.backend_name()
    detail = kernels.backend_detail().splitlines()
    return f"fdmlink block stepper: {name} ({detail[0] if detail else ''})"


def load_stepper(backend: str):
    """The ``step_block`` of ``backend``; skips "c" only when no ``cc`` is on PATH.

    A C build that fails with ``cc`` present raises, so the test fails.
    """
    if backend == "python":
        return _kernels_py.step_block
    if shutil.which("cc") is None:
        pytest.skip("no C compiler (cc) on PATH")
    return kernels.load_c()[0]


@pytest.fixture
def stepper(request, monkeypatch):
    """Run the test with ``run_scenario`` on one block stepper: "c" or "python"."""
    fn = load_stepper(request.param)
    monkeypatch.setattr(kernels, "block_stepper", lambda: fn)
    return request.param


@pytest.fixture(scope="session")
def design_a():
    """20 MHz pass / 50 MHz stop, 8 pF pin + 10 pF shunt, 4.7 uH coupling."""
    return synthesize(
        FilterSpec(f_mod=20e6, f_stop=50e6, c_io=8e-12, shunt_c=10e-12, xm_inductance=4.7e-6)
    )


@pytest.fixture(scope="session")
def design_b():
    """50 MHz pass / 20 MHz stop, 8 pF pin, 1.0 uH coupling."""
    return synthesize(FilterSpec(f_mod=50e6, f_stop=20e6, c_io=8e-12, xm_inductance=1.0e-6))


@pytest.fixture(scope="session")
def q40():
    return LossModel()


@pytest.fixture()
def rng():
    return np.random.default_rng(20260814)
