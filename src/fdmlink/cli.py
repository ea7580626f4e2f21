"""Command line front end.

Exit codes: 0 on success, 1 when a run fails (failed transactions, failed
verification under --strict, warnings under --strict), 2 for bad input
(malformed config, infeasible spec, usage errors).

Heavy imports happen inside the commands so startup stays fast.
"""

from __future__ import annotations

import cmath
import json
import math
import sys
from pathlib import Path

import click

from .units import ConfigError, UnitError, format_quantity, parse_quantity, read_config


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _cannot_write(path: object, exc: OSError) -> ConfigError:
    return ConfigError(f"cannot write {path}: {exc.strerror or exc}")


def _check_output(path: str | None) -> None:
    """Refuse, before a run, an output path whose directory does not exist."""
    if path is not None and not Path(path).parent.is_dir():
        raise ConfigError(f"cannot write {path}: {Path(path).parent} is not a directory")


def _write_text(path: str, text: str) -> None:
    """Write an output file; a path that cannot be written is bad input, as a bad config is."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise _cannot_write(path, exc) from None


class _Main(click.Group):
    """Every command's bad input, a ``ConfigError``, exits 2 with one ``error:`` line."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except ConfigError as exc:
            _fail(2, str(exc))


def _loss_from_flags(lossless: bool, q: float | None):
    from .loss import LOSSLESS, LossModel

    if lossless and q is not None:
        raise click.UsageError("--lossless and --q are mutually exclusive")
    if lossless:
        return LOSSLESS
    if q is not None:
        if not q > 0:
            raise click.UsageError(f"--q must be positive, got {q}")
        return LossModel(inductor_q=q)
    return LossModel()


def _complex_dict(z: complex) -> dict:
    from .elements import is_pole

    if is_pole(z):
        return {"pole": True}
    return {"abs": abs(z), "arg_deg": cmath.phase(z) * 180.0 / 3.141592653589793}


def _report_dict(r) -> dict:
    return {
        "which": r.which,
        "lossless": r.lossless,
        "experimental": r.experimental,
        "zin_h_at_f_mod": _complex_dict(r.zin_h_fmod),
        "zin_l_at_f_mod": _complex_dict(r.zin_l_fmod),
        "zin_h_at_f_stop": _complex_dict(r.zin_h_fstop),
        "zin_l_at_f_stop": _complex_dict(r.zin_l_fstop),
        "ratio_at_f_mod": float(r.ratio_fmod),
        "h_state_poles_hz": list(r.h_poles),
        "h_state_zeros_hz": list(r.h_zeros),
        "zero_pole_separation": r.zero_pole_separation,
        "cancellation_risk": r.cancellation_risk,
        "checks": dict(r.checks),
        "passed": r.passed,
    }


def _spec_from_file(path: str):
    import yaml

    from .synthesis import spec_from_dict

    return read_config(path, yaml.safe_load, lambda raw: spec_from_dict(raw, "E12"), (yaml.YAMLError,))


@click.group(cls=_Main)
def main() -> None:
    """Design and simulate carrier-keyed I2C links over a shared DC line."""


@main.command()
@click.argument("specfile", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write design JSON here.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@click.option("--lossless", is_flag=True, help="Verify with ideal elements.")
@click.option("--q", type=float, default=None, help="Inductor Q for verification (default 40).")
@click.option("--strict", is_flag=True, help="Exit 1 when verification fails.")
def design(specfile: str, out: str | None, fmt: str, lossless: bool, q: float | None, strict: bool) -> None:
    """Synthesize a filter from SPECFILE (YAML) and verify it."""
    spec = _spec_from_file(specfile)
    from .synthesis import design_to_dict, synthesize, verify_design

    try:
        d = synthesize(spec)
    except ConfigError as exc:  # the design equations reject the file's values together
        raise type(exc)(f"{specfile}: {exc}") from None
    loss = _loss_from_flags(lossless, q)
    report = verify_design(d, loss=loss, which="snapped")
    doc = {
        "design": design_to_dict(d),
        "verification": _report_dict(report),
    }
    payload = json.dumps(doc, indent=2) + "\n"
    if out:
        _write_text(out, payload)
    if fmt == "json":
        click.echo(payload, nl=False)
    else:
        click.echo(f"configuration: {d.config.value}")
        click.echo(f"alpha (f_mod/f_stop): {d.alpha:.6g}")
        unit_for = lambda name: "H" if name.startswith("l") else "F"
        click.echo("elements (exact):")
        for name, value in d.values("exact").items():
            click.echo(f"  {name:6s} {format_quantity(value, unit_for(name))}")
        click.echo(f"elements ({spec.eseries}):")
        for name, value in d.values("snapped").items():
            click.echo(f"  {name:6s} {format_quantity(value, unit_for(name))}")
        click.echo(f"dc blockers: {', '.join(d.dcb) if d.dcb else 'none'}")
        click.echo(f"keying impedance ratio at f_mod: {report.ratio_fmod:.4g}")
        click.echo("checks:")
        for name, ok in report.checks.items():
            click.echo(f"  {name:32s} {'PASS' if ok else 'FAIL'}")
        if report.experimental:
            click.echo("note: negative-coupling configuration, treat as experimental")
        if out:
            click.echo(f"wrote {out}")
    if strict and not report.passed:
        sys.exit(1)


@main.command()
@click.argument("designfile", type=click.Path(exists=True, dir_okay=False))
@click.option("--flo", default="1MHz", help="Sweep start (frequency quantity).")
@click.option("--fhi", default="100MHz", help="Sweep stop (frequency quantity).")
@click.option("--points", type=int, default=501, show_default=True)
@click.option("--lossless", is_flag=True)
@click.option("--q", type=float, default=None, help="Inductor Q (default 40).")
@click.option("--which", type=click.Choice(["exact", "snapped"]), default="exact")
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="CSV output path.")
def sweep(designfile: str, flo: str, fhi: str, points: int, lossless: bool, q: float | None, which: str, out: str | None) -> None:
    """Sweep both keying states of a saved design over frequency."""
    from .analysis import sweep as run_sweep
    from .synthesis import design_from_dict

    d = read_config(designfile, json.loads, design_from_dict)
    loss = _loss_from_flags(lossless, q)
    f_lo = parse_quantity(flo, "Hz")
    f_hi = parse_quantity(fhi, "Hz")
    if not f_lo > 0.0:
        raise click.UsageError(f"--flo must be above 0 Hz, got {flo!r}")
    if not f_lo < f_hi < math.inf:
        raise click.UsageError(f"--fhi must be a finite frequency above --flo, got {fhi!r}")
    if points < 2:
        raise click.UsageError("--points must be at least 2")
    result = run_sweep(d, loss=loss, f_lo=f_lo, f_hi=f_hi, points=points, which=which)
    csv_text = result.to_csv()
    if out:
        _write_text(out, csv_text)
        click.echo(f"wrote {out} ({points} points)")
    else:
        click.echo(csv_text, nl=False)
    ratio = result.ratio_at(d.spec.f_mod)
    click.echo(f"keying impedance ratio at {d.spec.f_mod:.6g} Hz: {ratio:.4g}", err=out is None)


def _parse_impedance(text: str) -> complex:
    try:
        z = complex(parse_quantity(text, "ohm"))
    except UnitError:
        try:
            z = complex(text.replace(" ", ""))
        except ValueError:
            raise click.UsageError(f"cannot read impedance {text!r}: use '8897', '1+2j', or '2kohm'")
    if not cmath.isfinite(z):
        raise click.UsageError(f"impedance {text!r} must be finite")
    return z


@main.command()
@click.option("--zh", required=True, help="Released-state node impedance (ohm, complex ok).")
@click.option("--zl", required=True, help="Pulled-state node impedance.")
@click.option("--zp", default=None, help="Pull-up impedance (omit for ratio-only form).")
@click.option("--n", "n_values", type=click.IntRange(min=1), multiple=True, help="Node counts to tabulate.")
@click.option("--min-depth-db", type=float, default=6.0, show_default=True)
def budget(zh: str, zl: str, zp: str | None, n_values: tuple[int, ...], min_depth_db: float) -> None:
    """Modulation-depth budget for one carrier as nodes are added."""
    from .analysis import budget as run_budget

    z_h = _parse_impedance(zh)
    z_l = _parse_impedance(zl)
    z_p = _parse_impedance(zp) if zp is not None else None
    if z_l == 0:
        raise click.UsageError("--zl must be non-zero: a shorted pulled state has no finite depth")
    if not 0.0 < min_depth_db < math.inf:
        raise click.UsageError(f"--min-depth-db must be finite and above 0, got {min_depth_db}")
    kwargs = {"min_depth_db": min_depth_db}
    if n_values:
        kwargs["n_values"] = tuple(n_values)
    result = run_budget(z_h, z_l, z_p=z_p, **kwargs)
    click.echo(json.dumps(result.to_dict(), indent=2))


_TRACE_CHUNK_ROWS = 1024


def _write_traces(path: str, traces: dict) -> None:
    import numpy as np

    keys = list(traces)
    cols = [np.asarray(traces[k]) for k in keys]
    # float64 columns (their values are Python floats) print .9g, int columns str
    fmts = ["{:.9g}".format if issubclass(c.dtype.type, float) else str for c in cols]
    n_rows = min((len(c) for c in cols), default=0)
    try:
        with open(path, "w") as fh:
            fh.write("# schema_version: 1\n")
            fh.write(",".join(keys) + "\n")
            # a column at a time within each chunk of rows, so memory stays bounded
            for i in range(0, n_rows, _TRACE_CHUNK_ROWS):
                rows = slice(i, i + _TRACE_CHUNK_ROWS)
                texts = [list(map(fmt, c[rows].tolist())) for c, fmt in zip(cols, fmts)]
                fh.writelines(",".join(row) + "\n" for row in zip(*texts))
    except OSError as exc:
        raise _cannot_write(path, exc) from None


def _echo_summary(metrics, err: bool) -> None:
    """One line per monitored bus line, then the transaction count."""
    for line in sorted(metrics.bit_errors):
        click.echo(
            f"{line}: depth {metrics.depth_db[line]:.2f} dB, "
            f"{metrics.bit_errors[line]} bit errors / {metrics.bits_checked[line]} checked, "
            f"eye margin {metrics.eye_margin_v[line] * 1e3:.1f} mV",
            err=err,
        )
    click.echo(
        f"transactions: {metrics.transactions_completed}/{metrics.transactions_attempted} completed",
        err=err,
    )


@main.command()
@click.argument("scenario", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Metrics JSON path.")
@click.option("--seed", type=int, default=None, help="Override the scenario seed.")
@click.option("--strict", is_flag=True, help="Escalate link warnings to errors.")
@click.option("--traces", type=click.Path(dir_okay=False), default=None,
              help="Write per-sample detector/reference traces as CSV.")
def simulate(scenario: str, out: str | None, seed: int | None, strict: bool, traces: str | None) -> None:
    """Run a scenario file end to end and report link metrics."""
    import warnings

    from .simulate import load_scenario

    sc = load_scenario(scenario)
    _check_output(out)
    _check_output(traces)
    sink: dict | None = {} if traces else None
    try:
        with warnings.catch_warnings():
            if strict:
                warnings.simplefilter("error")
            metrics, _ = sc.run(seed=seed, trace_sink=sink)
    except Warning as exc:
        _fail(1, f"strict: {exc}")
        return

    if traces and sink:
        _write_traces(traces, sink)

    payload = metrics.to_json()
    if out:
        _write_text(out, payload)
    else:
        click.echo(payload, nl=False)
    _echo_summary(metrics, err=out is None)
    if not metrics.error_free:
        sys.exit(1)


@main.command()
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Metrics JSON path.")
@click.option("--emit-configs", type=click.Path(file_okay=False), default=None,
              help="Copy the packaged scenario files into this directory.")
@click.option("--seed", type=int, default=None)
def demo(out: str | None, emit_configs: str | None, seed: int | None) -> None:
    """Run the packaged two-carrier, eight-slave reference scenario."""
    from importlib import resources

    data = resources.files("fdmlink") / "data"
    _check_output(out)
    if emit_configs:
        dest = Path(emit_configs)
        try:
            dest.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise _cannot_write(dest, exc) from None
        for name in ("filter_a.yaml", "filter_b.yaml", "demo_scenario.yaml", "demo_script.i2c"):
            _write_text(str(dest / name), (data / name).read_text())
        click.echo(f"wrote configs to {dest}")
        if out is None:
            return
    from .simulate import load_scenario

    metrics, _ = load_scenario(Path(str(data / "demo_scenario.yaml"))).run(seed=seed)
    if out:
        _write_text(out, metrics.to_json())
        click.echo(f"wrote {out}")
    _echo_summary(metrics, err=False)
    if not metrics.error_free:
        sys.exit(1)


if __name__ == "__main__":
    main()
