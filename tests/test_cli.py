"""Command-line interface: exit codes, output formats, emitted files."""

import json
import os
import shutil
import signal
import subprocess
import sys
import warnings
from importlib.resources import files
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

import fdmlink
from fdmlink.cli import main

from .test_simulate import MINIMAL

SPEC_A = str(files("fdmlink").joinpath("data/filter_a.yaml"))
DEMO = str(files("fdmlink").joinpath("data/demo_scenario.yaml"))
DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture()
def runner():
    return CliRunner()


def _alltext(result):
    # click may route diagnostics to stderr; fold both streams together
    text = result.output
    try:
        text += result.stderr
    except (ValueError, AttributeError):
        pass
    return text


def test_help_lists_commands(runner):
    r = runner.invoke(main, ["--help"])
    assert r.exit_code == 0
    for cmd in ("design", "sweep", "budget", "simulate", "demo"):
        assert cmd in r.output


def test_design_text_output(runner):
    r = runner.invoke(main, ["design", SPEC_A])
    assert r.exit_code == 0
    assert "configuration: A" in r.output
    assert "4.7uH" in r.output
    assert "dc blockers: shunt" in r.output
    assert "keying impedance ratio at f_mod: 328.4" in r.output
    assert "FAIL" not in r.output
    assert "PASS" in r.output


def test_design_json_output(runner):
    r = runner.invoke(main, ["design", SPEC_A, "--format", "json"])
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc["design"]["schema_version"] == 1
    assert doc["design"]["config"] == "A"
    assert doc["design"]["f_mod_hz"] == pytest.approx(20e6)
    assert doc["verification"]["passed"] is True
    assert doc["verification"]["ratio_at_f_mod"] == pytest.approx(
        328.36427340626994, rel=1e-9
    )


def _run_fresh(args: list[str], probe: str) -> subprocess.CompletedProcess:
    """Run ``fdmlink args`` in a new interpreter; its last stderr line is ``probe`` at exit."""
    code = (
        "import atexit, sys\n"
        f"atexit.register(lambda: print({probe}, file=sys.stderr))\n"
        "from fdmlink.cli import main\n"
        "main()\n"
    )
    src = str(Path(fdmlink.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


@pytest.mark.parametrize(
    "case", ["design", "design_lossless", "design_default_xm", "sweep_lossless", "demo"]
)
def test_design_does_not_import_scipy(case, tmp_path):
    # importing scipy costs about a second cold; the design path (synthesis,
    # both verifications, the default x_m and the sweep) and the demo link
    # run must not pay it, whatever an earlier test in this process has imported
    if case == "demo":
        args = ["demo"]
    elif case == "design_default_xm":
        spec = tmp_path / "spec_no_xm.yaml"
        spec.write_text("f_mod: 20MHz\nf_stop: 50MHz\nc_io: 8pF\nshunt_c: 10pF\n")
        args = ["design", str(spec), "--format", "json"]
    elif case == "sweep_lossless":
        saved = tmp_path / "design_a.json"
        assert CliRunner().invoke(main, ["design", SPEC_A, "--out", str(saved)]).exit_code == 0
        args = ["sweep", str(saved), "--lossless"]
    else:
        args = ["design", SPEC_A, "--format", "json"]
        args += ["--lossless"] if case == "design_lossless" else []
    r = _run_fresh(args, "'scipy' in sys.modules")
    assert r.returncode == 0, r.stderr
    if case == "design":
        assert json.loads(r.stdout)["verification"]["passed"] is True
    elif args[0] == "design":
        assert json.loads(r.stdout)["design"]["config"] == "A"
    elif case == "demo":
        assert "transactions: 16/16 completed" in r.stdout
    else:
        assert r.stdout.startswith("# schema_version: 1\nf_hz,")
    assert r.stderr.strip().splitlines()[-1] == "False"


def test_lossless_design_imports_neither_numpy_polynomial_nor_scipy():
    # the lossless roots come from np.roots on plain float lists: numpy.polynomial
    # would add about 4 ms to every cold start
    probe = "[m for m in ('numpy.polynomial', 'scipy') if m in sys.modules]"
    r = _run_fresh(["design", SPEC_A, "--lossless", "--format", "json"], probe)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["verification"]["h_state_poles_hz"]
    assert r.stderr.strip().splitlines()[-1] == "[]"


def test_design_imports_no_simulator_module():
    # spec files are read by synthesis.spec_from_dict, so `fdmlink design`
    # loads neither the simulator nor the modules only it needs
    r = _run_fresh(["design", SPEC_A, "--format", "json"],
                   "sorted(m for m in sys.modules if m.startswith('fdmlink'))")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["verification"]["passed"] is True
    loaded = r.stderr.strip().splitlines()[-1]
    for name in ("simulate", "modem", "protocol", "analysis", "kernels"):
        assert f"'fdmlink.{name}'" not in loaded, loaded


def test_loading_a_scenario_imports_no_kernel_module(tmp_path):
    # the kernels load on a scenario's first run, not with the simulator
    path = tmp_path / "one_line.yaml"
    path.write_text("clock: 100kHz\n")
    r = _run_fresh(["simulate", str(path)], "sorted(m for m in sys.modules if m.startswith('fdmlink'))")
    assert r.returncode == 2, r.stderr
    loaded = r.stderr.strip().splitlines()[-1]
    assert "'fdmlink.simulate'" in loaded, loaded
    for name in ("kernels", "_kernels_py"):
        assert f"'fdmlink.{name}'" not in loaded, loaded


@pytest.mark.parametrize(
    "command,spec,message",
    [
        ("design", "f_mod: 20MHz\nf_stop: 20MHz\nc_io: 8pF\n", "f_mod and f_stop must differ"),
        ("design", "f_mod: 20MHz\nf_stop: 50MHz\nc_io: 8pF\nxm: -1pF\n",
         "xm: must be finite and above 0, got '-1pF'"),
        ("design", "f_mod: 20MHz\nf_stop: 50MHz\nc_io: 8pF\neseries: E7\n",
         "eseries: must be one of E6, E12, E24, got 'E7'"),
        ("design", "f_mod: 20MHz\nf_stop: 50MHz\nc_io: 8pF\nxm: -4.7uH\n",
         "xm: must be finite and >= 0, got '-4.7uH'"),
        ("design", "f_mod: 20MHz\nf_stop: 50MHz\nc_io: 8pF\neseries: [E12]\n",
         "eseries: must be one of E6, E12, E24, got ['E12']"),
        ("sweep", '{"schema_version": 1, "f_mod_hz": 2e7, "f_stop_hz": 2e7, "c_io_f": 8e-12, '
                  '"exact": {"l_m": 4.7e-6}}', "f_mod and f_stop must differ"),
        ("sweep", '{"schema_version": 2}', "schema_version: must be one of 1, got 2"),
        ("design", "f_stop: 50MHz\nc_io: 8pF\n", "f_mod: required key is missing"),
        ("design", "f_mod: 20MHz\nf_stop: 50MHz\nc_io: 1e400F\n", "c_io: '1e400F' is not a finite value"),
        ("design", "f_mod: 20MHz\nf_stop: 50MHz\nc_io: 8pF\nshunt_c: 1e400F\n",
         "shunt_c: '1e400F' is not a finite value"),
        ("design", "f_mod: 20MHz\nf_stop: 50MHz\nc_io: 8pF\nxm: 4.7uH\nf_mood: 1MHz\n", "f_mood: unknown key"),
        ("design", "f_mod: 20MHz\nf_stop: 50MHz\nc_io: 8pF\nxm: true\n",
         "xm: expected a quantity in F, got True"),
        ("design", "f_mod: 20MHz\nf_stop: 1e300Hz\nc_io: 8pF\nshunt_c: 10pF\nxm: 4.7uH\n",
         "f_mod 2e+07 Hz and f_stop 1e+300 Hz overflow the design equations"),
    ],
    ids=["design_equal_carriers", "design_negative_xm", "design_unknown_eseries",
         "design_negative_xm_inductance", "design_eseries_list",
         "sweep_equal_carriers", "sweep_schema_version", "design_no_f_mod",
         "design_infinite_c_io", "design_infinite_shunt_c", "design_unknown_key", "design_bool_xm",
         "design_overflowing_f_stop"],
)
def test_spec_that_filter_spec_rejects_exits_2(tmp_path, command, spec, message):
    """One line on stderr, exit 2, and no simulator module loaded to report it."""
    path = tmp_path / ("spec.yaml" if command == "design" else "design.json")
    path.write_text(spec)
    r = _run_fresh([command, str(path)], "sorted(m for m in sys.modules if m.startswith('fdmlink'))")
    assert r.returncode == 2, r.stderr
    lines = r.stderr.strip().splitlines()
    assert lines[:-1] == [f"error: {path}: {message}"]
    for name in ("simulate", "modem", "protocol", "kernels"):
        assert f"'fdmlink.{name}'" not in lines[-1], lines[-1]


def test_spec_at_the_float_limits_exits_2_without_a_traceback(tmp_path):
    """At f_mod 1e-262 Hz and c_io 1e-230 F, w*C underflows to 0 and the pin reactance has no value: one error line."""
    path = tmp_path / "spec.yaml"
    path.write_text("f_mod: 1e-262Hz\nf_stop: 5e-263Hz\nc_io: 1e-230F\n")
    r = _run_fresh(["design", str(path)], "'exiting'")
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 2 and lines[-1] == "exiting", r.stderr
    assert lines[0].startswith(f"error: {path}: the pin reactance 1/(2*pi*f_mod*c_total) at f_mod 1e-262 Hz")


_SAVED = '"schema_version": 1, "f_stop_hz": 5e7, "c_io_f": 8e-12'


@pytest.mark.parametrize(
    "doc,message",
    [
        ('{%s, "f_mod_hz": "20MHz", "exact": {"l_m": 4.7e-6}}' % _SAVED,
         "f_mod_hz: expected a dimensionless number, got '20MHz'"),
        ('{%s, "f_mod_hz": 2e7, "exact": 5}' % _SAVED, "exact: must be a mapping, got 5"),
        ('{%s, "f_mod_hz": 2e7, "exact": {"l_m": "4.7uH"}}' % _SAVED,
         "exact.l_m: expected a dimensionless number, got '4.7uH'"),
        ('[{%s, "f_mod_hz": 2e7, "exact": {"l_m": 4.7e-6}}]' % _SAVED,
         "must be a mapping, got [{'schema_version': 1, 'f_stop_hz': 50000000.0, 'c_io_f': 8e-12, "
         "'f_mod_hz': 20000000.0, 'exact': {'l_m': 4.7e-06}}]"),
        ('{%s, "f_mod_hz": 2e7}' % _SAVED, "exact: required key is missing"),
        ('{"schema_version": 1, "f_stop_hz": 5e7, "c_io_f": Infinity, "f_mod_hz": 2e7, "exact": {"l_m": 4.7e-6}}',
         "c_io_f: must be finite and above 0, got inf"),
        ('{"schema_version": 1, "f_stop_hz": 1e300, "c_io_f": 8e-12, "shunt_c_f": 1e-11, "f_mod_hz": 2e7, '
         '"exact": {"l_m": 4.7e-6}}', "f_mod 2e+07 Hz and f_stop 1e+300 Hz overflow the design equations"),
        ('{%s, "f_mod_hz": 2e7, "exact": {"l_m": true}}' % _SAVED,
         "exact.l_m: expected a number, got True"),
    ],
    ids=["string_f_mod", "exact_not_a_mapping", "string_l_m", "top_level_list", "no_exact",
         "infinite_c_io", "overflowing_f_stop", "bool_l_m"],
)
def test_malformed_saved_design_exits_2(runner, tmp_path, doc, message):
    path = tmp_path / "design.json"
    path.write_text(doc)
    r = runner.invoke(main, ["sweep", str(path)])
    assert r.exit_code == 2, r.exception
    assert r.output.splitlines() == [f"error: {path}: {message}"]  # stdout and stderr together


def test_design_writes_json_file(runner, tmp_path):
    out = tmp_path / "design_a.json"
    r = runner.invoke(main, ["design", SPEC_A, "--out", str(out)])
    assert r.exit_code == 0
    assert f"wrote {out}" in r.output
    doc = json.loads(out.read_text())
    assert set(doc) == {"design", "verification"}


def test_design_lossless_flag(runner):
    r = runner.invoke(main, ["design", SPEC_A, "--format", "json", "--lossless"])
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc["verification"]["lossless"] is True
    # snapped values detune the ideal short, so the ratio is finite but huge
    assert doc["verification"]["ratio_at_f_mod"] > 1000


def test_design_lossless_and_q_conflict(runner):
    r = runner.invoke(main, ["design", SPEC_A, "--lossless", "--q", "40"])
    assert r.exit_code == 2
    assert "mutually exclusive" in _alltext(r)


def test_design_zero_coupling_rejected(runner, tmp_path):
    spec = tmp_path / "spec_e.yaml"
    spec.write_text("f_mod: 20MHz\nf_stop: 50MHz\nc_io: 8pF\nxm: 0uH\n")
    r = runner.invoke(main, ["design", str(spec)])
    assert r.exit_code == 2
    assert "configuration (e) is rejected" in _alltext(r)


def test_design_missing_file(runner):
    r = runner.invoke(main, ["design", "/no/such/spec.yaml"])
    assert r.exit_code == 2


@pytest.fixture()
def design_json(runner, tmp_path):
    out = tmp_path / "design_a.json"
    r = runner.invoke(main, ["design", SPEC_A, "--out", str(out)])
    assert r.exit_code == 0
    return out


def test_sweep_writes_csv(runner, design_json, tmp_path):
    out = tmp_path / "sweep.csv"
    r = runner.invoke(
        main, ["sweep", str(design_json), "--points", "11", "--out", str(out)]
    )
    assert r.exit_code == 0
    assert f"wrote {out} (11 points)" in r.output
    assert "keying impedance ratio at 2e+07 Hz:" in _alltext(r)
    lines = out.read_text().splitlines()
    assert lines[0] == "# schema_version: 1"
    assert lines[1].startswith("f_hz,")
    assert len(lines) == 2 + 11


def test_sweep_stdout(runner, design_json):
    r = runner.invoke(main, ["sweep", str(design_json), "--points", "5"])
    assert r.exit_code == 0
    csv_lines = [l for l in r.output.splitlines() if l and "ratio at" not in l]
    assert csv_lines[0] == "# schema_version: 1"
    assert len(csv_lines) == 2 + 5


def test_sweep_rejects_single_point(runner, design_json):
    r = runner.invoke(main, ["sweep", str(design_json), "--points", "1"])
    assert r.exit_code == 2


def test_budget_json(runner):
    r = runner.invoke(
        main,
        [
            "budget", "--zh", "8897ohm", "--zl", "27.1ohm", "--zp", "2kohm",
            "--n", "9", "--min-depth-db", "6",
        ],
    )
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc["schema_version"] == 1
    assert doc["z_p_ohm"] == [2000.0, 0.0]
    assert doc["n"] == [9]
    assert doc["n_max"] == 328
    assert doc["ratio_n"][0] == pytest.approx(37.36695366953669, rel=1e-9)


def test_budget_bad_impedance(runner):
    r = runner.invoke(main, ["budget", "--zh", "nonsense", "--zl", "30"])
    assert r.exit_code == 2
    assert "cannot read impedance 'nonsense'" in _alltext(r)


@pytest.mark.parametrize(
    "args,message",
    [
        (["design", SPEC_A, "--q", "nan"], "--q must be positive, got nan"),
        (["sweep", "{design}", "--q", "nan"], "--q must be positive, got nan"),
        (["sweep", "{design}", "--flo", "0Hz"], "--flo must be above 0 Hz, got '0Hz'"),
        (
            ["sweep", "{design}", "--flo", "2MHz", "--fhi", "1MHz"],
            "--fhi must be a finite frequency above --flo, got '1MHz'",
        ),
        (["budget", "--zh", "100", "--zl", "1", "--n", "0"], "0 is not in the range x>=1"),
        (["budget", "--zh", "100", "--zl", "1", "--n", "-3"], "-3 is not in the range x>=1"),
        (["budget", "--zh", "0", "--zl", "0"], "--zl must be non-zero"),
        (["budget", "--zh", "nan", "--zl", "1"], "impedance 'nan' must be finite"),
        (
            ["budget", "--zh", "100", "--zl", "1", "--min-depth-db", "nan"],
            "--min-depth-db must be finite and above 0, got nan",
        ),
    ],
    ids=[
        "design_q_nan", "sweep_q_nan", "sweep_flo_zero", "sweep_band_reversed",
        "budget_n_zero", "budget_n_negative", "budget_zero_impedances",
        "budget_zh_nan", "budget_min_depth_nan",
    ],
)
def test_bad_values_exit_2(runner, design_json, args, message):
    r = runner.invoke(main, [a.format(design=design_json) for a in args])
    assert r.exit_code == 2
    assert isinstance(r.exception, SystemExit)
    assert message in _alltext(r)


@pytest.fixture()
def minimal_scenario(tmp_path):
    p = tmp_path / "minimal.yaml"
    p.write_text(MINIMAL.format(freq="20MHz"))
    return p


def test_simulate_minimal(runner, minimal_scenario, tmp_path):
    out = tmp_path / "metrics.json"
    args = ["simulate", str(minimal_scenario), "--out", str(out), "--seed", "3"]
    r = runner.invoke(main, args)
    assert r.exit_code == 0
    assert "transactions: 2/2 completed" in _alltext(r)
    first = out.read_text()
    doc = json.loads(first)
    assert doc["bit_errors"] == {"scl": 0, "sda": 0}
    # byte-identical rerun at the same seed
    r = runner.invoke(main, args)
    assert r.exit_code == 0
    assert out.read_text() == first


def test_simulate_traces_file(runner, minimal_scenario, tmp_path):
    out = tmp_path / "metrics.json"
    traces = tmp_path / "traces.csv"
    r = runner.invoke(
        main,
        ["simulate", str(minimal_scenario), "--out", str(out), "--traces", str(traces)],
    )
    assert r.exit_code == 0
    lines = traces.read_text().splitlines()
    assert lines[0] == "# schema_version: 1"
    header = lines[1].split(",")
    assert header[0] == "time_s"
    assert sum(1 for h in header if h.startswith("det_")) == 4
    n_samples = json.loads(out.read_text())["n_samples"]
    assert len(lines) == 2 + n_samples


def test_simulate_strict_escalates_warnings(runner, tmp_path):
    # 20 MHz carrier over a 250 kHz clock is only 80x separation
    p = tmp_path / "tight.yaml"
    p.write_text(MINIMAL.format(freq="20MHz").replace("clock: 100kHz", "clock: 250kHz"))
    r = runner.invoke(main, ["simulate", str(p), "--strict"])
    assert r.exit_code == 1
    assert "strict:" in _alltext(r)


def test_simulate_bad_scenario(runner, tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("schema_version: 99\n" + MINIMAL.format(freq="20MHz"))
    r = runner.invoke(main, ["simulate", str(p)])
    assert r.exit_code == 2
    assert "error:" in _alltext(r)


@pytest.mark.parametrize(
    "edit,message",
    [
        (("clock: 100kHz", "clock: 0Hz"), "clock: must be finite and above 0, got '0Hz'"),
        (("clock: 100kHz", "clock: 100kHz\nseed: -1"), "seed: must be an integer >= 0, got -1"),
        (("clock: 100kHz", "clock: 100kHz\nnoise_rms: -1mV"), "noise_rms: must be finite and >= 0, got '-1mV'"),
        (("clock: 100kHz", "clock: 100kHz\nattenuation_db: .nan"), "attenuation_db: must be finite and >= 0, got nan"),
    ],
    ids=["zero_clock", "negative_seed", "negative_noise", "nan_attenuation"],
)
def test_simulate_rejects_bad_run_settings(runner, tmp_path, edit, message):
    p = tmp_path / "probe.yaml"
    p.write_text(MINIMAL.format(freq="20MHz").replace(*edit))
    r = runner.invoke(main, ["simulate", str(p)])
    assert r.exit_code == 2
    assert "error:" in _alltext(r) and message in _alltext(r)
    assert isinstance(r.exception, SystemExit)


@pytest.mark.parametrize(
    "edit,message",
    [
        (("loss", [1]), "loss: must be a mapping, got [1]"),
        (("clock", None), "clock: required key is missing"),
        (("carriers", None), "carriers: required key is missing"),
        (("nodes", None), "nodes: required key is missing"),
        (("script", None), "script: required key is missing"),
        (("script", "."), "script: {dir}: Is a directory"),
        (("noise_rm", "1mV"), "noise_rm: unknown key"),
        (("filter_defaults", {"sdaa": {}}), "filter_defaults.sdaa: unknown key"),
        (("which", "abc"), "which: must be one of exact, snapped, got 'abc'"),
        (("pullups", "abc"), "pullups: must be a mapping, got 'abc'"),
        (("nodes", [{"name": "m", "role": "master"}, {"address": ".inf"}]),
         "nodes[1].address: must be an integer from 0 to 127, got '.inf'"),
        (("nodes", [{"name": "m", "role": "master"}, {"address": 24, "registers": {5: "abc"}}]),
         "nodes[1].registers.5: must be an integer >= 0, got 'abc'"),
        (("nodes", [{"name": "m", "role": "master"}, {"address": 24, "registers": {5: 0x12345}}]),
         "nodes[1]: register 5 of slave 0x18 holds 0x12345, which a 2-byte register cannot hold"),
        (("nodes", [{"name": "m", "role": "master"}, {"address": 24, "registers": {5: 0x1234}, "widths": {5: 1}}]),
         "nodes[1]: register 5 of slave 0x18 holds 0x1234, which a 1-byte register cannot hold"),
        (("nodes", [{"name": "m", "role": "master"}, {"name": "a", "address": 24}, {"name": "b", "address": 24}]),
         "nodes[1] 'a' and nodes[2] 'b' share the slave address 0x18"),
        (("nodes", [{"name": "m", "role": "master"}, {"name": "s", "address": 24}, {"name": "s", "address": 25}]),
         "nodes[1] 's' and nodes[2] 's' share the name 's'"),
        (("nodes", [{"name": "m", "role": "master"}, {"name": "a", "address": 24}, {"name": "b", "address": 0x78}]),
         "nodes[2] 'b' has the reserved slave address 0x78, which the master never sends"),
    ],
    ids=["loss_list", "no_clock", "no_carriers", "no_nodes", "no_script", "script_directory",
         "unknown_key", "unknown_line", "which_abc", "pullups_string", "address_inf", "register_abc",
         "register_too_wide", "register_wider_than_its_width", "duplicate_address", "duplicate_name", "reserved_address"],
)
def test_simulate_rejects_malformed_scenario(runner, tmp_path, edit, message):
    doc = yaml.safe_load(MINIMAL.format(freq="20MHz"))
    key, value = edit
    if value is None:
        del doc[key]
    else:
        doc[key] = value
    p = tmp_path / "probe.yaml"
    p.write_text(yaml.safe_dump(doc))
    r = runner.invoke(main, ["simulate", str(p)])
    assert r.exit_code == 2
    message = message.format(dir=tmp_path)
    assert r.output.splitlines() == [f"error: {p}: {message}"]  # stdout and stderr together


@pytest.mark.parametrize("command", ["simulate", "demo"])
def test_negative_seed_flag_rejected(runner, minimal_scenario, command):
    args = [command, str(minimal_scenario)] if command == "simulate" else [command]
    r = runner.invoke(main, args + ["--seed", "-1"])
    assert r.exit_code == 2
    assert "error: seed must be an integer >= 0, got -1" in _alltext(r)


def test_simulate_refuses_a_runaway_sample_count(runner, tmp_path):
    """The demo at 1e12 Hz asks for about 4e9 samples: exit 2 at once, not a run that never ends."""
    for name in ("demo_scenario.yaml", "demo_script.i2c"):
        shutil.copy(files("fdmlink").joinpath("data", name), tmp_path / name)
    p = tmp_path / "demo_scenario.yaml"
    p.write_text(p.read_text().replace("sim_rate: 6.4MHz", "sim_rate: 1e12Hz"))

    def too_long(signum, frame):
        raise TimeoutError("fdmlink simulate still running after 20 s")

    previous = signal.signal(signal.SIGALRM, too_long)
    signal.alarm(20)
    try:
        r = runner.invoke(main, ["simulate", str(p)])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert r.exit_code == 2, r.exception
    lines = r.output.splitlines()  # stdout and stderr together
    assert len(lines) == 1 and lines[0].startswith("error: sim_rate 1e+12 Hz at a 1e+05 Hz clock")


@pytest.mark.parametrize("stepper", ["c", "python"], indirect=True)
def test_simulate_at_a_1e300hz_carrier_warns_nothing(runner, tmp_path, stepper):
    """The demo with its SCL carrier at 1e300 Hz fails the link with no numpy overflow warning.

    ``simulate`` turns any warning it catches into exit 1 and no metrics, so
    the run goes with every warning an error and must still write the
    metrics recorded before the shunt-arm square stopped overflowing.
    """
    for name in ("demo_scenario.yaml", "demo_script.i2c"):
        shutil.copy(files("fdmlink").joinpath("data", name), tmp_path / name)
    p = tmp_path / "demo_scenario.yaml"
    p.write_text(p.read_text().replace("frequency: 20MHz", "frequency: 1e300Hz", 1))
    out = tmp_path / "metrics.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = runner.invoke(main, ["simulate", str(p), "--out", str(out)])
    assert r.exit_code == 1, r.output
    assert r.stdout.splitlines()[-1] == "transactions: 0/16 completed"
    assert out.read_text() == (DATA / "demo_scl_1e300hz.json").read_text()


def test_simulate_missing_file(runner):
    r = runner.invoke(main, ["simulate", "/no/such/scenario.yaml"])
    assert r.exit_code == 2


def test_demo_emit_configs_only(runner, tmp_path):
    dest = tmp_path / "configs"
    r = runner.invoke(main, ["demo", "--emit-configs", str(dest)])
    assert r.exit_code == 0
    assert f"wrote configs to {dest}" in r.output
    for name in ("filter_a.yaml", "filter_b.yaml", "demo_scenario.yaml", "demo_script.i2c"):
        assert (dest / name).is_file()
    # config emission alone must not run the simulation
    assert "transactions:" not in r.output


def test_simulate_and_demo_print_the_same_summary(runner, tmp_path):
    # with --out, simulate prints its summary on stdout as demo does
    sim = runner.invoke(main, ["simulate", DEMO, "--out", str(tmp_path / "m.json")])
    demo = runner.invoke(main, ["demo"])
    assert sim.exit_code == demo.exit_code == 0
    assert sim.stdout == demo.stdout
    assert sim.stdout.splitlines()[-1] == "transactions: 16/16 completed"


def test_demo_runs_clean(runner, tmp_path):
    out = tmp_path / "demo_metrics.json"
    r = runner.invoke(main, ["demo", "--out", str(out)])
    assert r.exit_code == 0
    assert "transactions: 16/16 completed" in r.output
    assert "0 bit errors" in r.output
    doc = json.loads(out.read_text())
    assert doc["transactions_completed"] == 16


@pytest.mark.parametrize(
    "command,option",
    [("design", "--out"), ("sweep", "--out"), ("simulate", "--out"), ("simulate", "--traces"),
     ("demo", "--out"), ("demo", "--emit-configs")],
)
def test_unwritable_output_exits_2_before_any_run(runner, tmp_path, design_json, minimal_scenario, command, option):
    """An output path that cannot be written is bad input: one ``error:`` line naming it, exit 2, no run."""
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    path = blocker / "sub" / "out.txt"  # a regular file stands where a directory must be
    args = {
        "design": ["design", SPEC_A],
        "sweep": ["sweep", str(design_json), "--points", "11"],
        "simulate": ["simulate", str(minimal_scenario)],
        "demo": ["demo"],
    }[command]
    r = runner.invoke(main, [*args, option, str(path)])
    assert r.exit_code == 2, r.exception
    assert isinstance(r.exception, SystemExit)
    errors = [line for line in r.output.splitlines() if line.startswith("error:")]  # stdout and stderr
    assert len(errors) == 1 and errors[0].startswith(f"error: cannot write {path}"), errors
    assert "transactions:" not in _alltext(r)
