"""Mutated input files exit 0, 1 or 2, and on 2 print one error that names the key.

Each case takes a shipped input (the demo scenario, a spec file, a saved
design), changes one or two of its keys and runs the command that reads it
through ``CliRunner``.  A change is a deletion, a value of another kind
(null, a bool, a list, a mapping, a string, numbers at the edges of the
float range, bare and with the field's unit), a string in the wrong unit,
or a key the file does not have.
"""

import copy
import json
import math
import shutil
from importlib.resources import files

import pytest
import yaml
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from fdmlink.cli import main
from fdmlink.synthesis import InfeasibleConfigError, SynthesisError
from fdmlink.units import UnitError, parse_quantity

DATA = files("fdmlink") / "data"
DELETE = "<delete>"
UNKNOWN = "zzz"


def _unit(value):
    if not isinstance(value, str):
        return ""
    for unit in ("Hz", "H", "F", "ohm", "V"):
        try:
            parse_quantity(value, unit)
            return unit
        except UnitError:
            continue
    return ""


def _values(value):
    """The replacements for one present key holding ``value``."""
    unit = _unit(value)
    out = [DELETE, None, True, [1], {"a": 1}, "abc", 0, -1, math.nan, math.inf, 1e300,
           "1Hz" if unit == "V" else "1V"]
    if unit:
        out += [f"0{unit}", f"-1{unit}", f"1e300{unit}"]
    return out


class _Index(int):
    """A list index in a key path (an int key is a mapping's)."""


def _paths(doc, path=()):
    """The path of every key in ``doc`` and of one unknown key per mapping."""
    if isinstance(doc, dict):
        yield path + (UNKNOWN,)
        for key, value in doc.items():
            yield path + (key,)
            yield from _paths(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _paths(value, path + (_Index(i),))


def mutations(doc):
    """Every (path, value) that changes one key of ``doc``."""
    for path in _paths(doc):
        for value in [1] if path[-1] == UNKNOWN else _values(_at(doc, path)):
            yield path, value


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutate(doc, changes):
    doc = copy.deepcopy(doc)
    for path, value in changes:
        try:
            parent = _at(doc, path[:-1])
        except (KeyError, IndexError, TypeError):
            continue  # an earlier change removed or replaced the parent
        if not isinstance(parent, dict):
            continue
        if value == DELETE:
            parent.pop(path[-1], None)
        else:
            parent[path[-1]] = value
    return doc


def key_name(path):
    """``nodes[3].address`` for ``("nodes", _Index(3), "address")``."""
    text = ""
    for key in path:
        text += f"[{key}]" if isinstance(key, _Index) else f".{key}" if text else str(key)
    return text


# (command, input file name, its document, extra arguments)
def _cases(tmp):
    demo = yaml.safe_load((DATA / "demo_scenario.yaml").read_text())
    shutil.copy(str(DATA / "demo_script.i2c"), tmp / "demo_script.i2c")
    cases = [("simulate", "scenario.yaml", demo, [])]
    for name in ("filter_a.yaml", "filter_b.yaml"):
        cases.append(("design", name, yaml.safe_load((DATA / name).read_text()), []))
    saved = tmp / "saved.json"
    r = CliRunner().invoke(main, ["design", str(DATA / "filter_a.yaml"), "--out", str(saved)])
    assert r.exit_code == 0, r.output
    cases.append(("sweep", "saved.json", json.loads(saved.read_text()), ["--points", "11"]))
    return cases


def run_mutated(tmp, case, changes):
    """Write the mutated file, run its command; returns the ``CliRunner`` result."""
    command, name, doc, extra = case
    path = tmp / name
    text = mutate(doc, changes)
    path.write_text(json.dumps(text) if name.endswith(".json") else yaml.safe_dump(text))
    return CliRunner().invoke(main, [command, str(path), *extra])


def check(result, changes, file):
    """Exit 0, 1 or 2; on 2 exactly one ``error:`` line that names a changed key.

    The line holds the key's name.  When the design equations reject a
    filter's values together, it names a mapping that holds the key instead,
    or the file for a spec file's own keys.
    """
    assert isinstance(result.exception, (SystemExit, type(None))), (changes, result.exception)
    assert result.exit_code in (0, 1, 2), (changes, result.output)
    if result.exit_code == 2:
        errors = [line for line in result.output.splitlines() if line.startswith("error:")]
        assert len(errors) == 1, (changes, result.output)
        together = isinstance(result.exception.__context__, (InfeasibleConfigError, SynthesisError))
        assert any(_names(errors[0], path, together, file) for path, _ in changes), (changes, errors[0])


def _names(line, path, together, file):
    if not together:
        return str(path[-1]) in line
    if len(path) == 1:
        return line.startswith(f"error: {file}: ")
    return any(f"{key_name(path[:i])}: " in line for i in range(1, len(path)))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    return tmp, {case[1]: case for case in _cases(tmp)}


@pytest.mark.parametrize("name", ["scenario.yaml", "filter_a.yaml", "filter_b.yaml", "saved.json"])
@settings(max_examples=50, derandomize=True, deadline=None)
@given(data=st.data())
def test_mutated_input_files_exit_with_one_named_error(inputs, name, data):
    tmp, cases = inputs
    case = cases[name]
    changes = data.draw(st.lists(st.sampled_from(list(mutations(case[2]))), min_size=1, max_size=2),
                        label="changes")
    check(run_mutated(tmp, case, changes), changes, tmp / name)
