"""Self-test of the benchmark itself.

    python3 fdmbench/selftest.py

Checks that the input generators are deterministic per seed, that a
perturbed decoded byte or design value is counted as a failed operation,
that one run prints a well-formed result line, and that the command fails
without printing a result where no program sources are present.
Exits non-zero on the first failure.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import NullTracer  # noqa: E402
from workloads import WORKLOADS, DesignBatch, LinkInput, LinkNoisy, LinkQuiet, same  # noqa: E402


def input_key(inp):
    if isinstance(inp, LinkInput):
        from fdmlink.protocol import script_line

        regs = tuple(tuple(sorted(n.slave.registers.items())) for n in inp.topology.nodes if n.slave)
        return (tuple(script_line(t) for t in inp.transactions), regs, inp.noise_rms, inp.noise_seed)
    return inp


def test_generators_deterministic():
    for cls in WORKLOADS.values():
        wl = cls()
        for seed in (0, 7):
            for i in (0, 3):
                assert input_key(wl.make(seed, i)) == input_key(wl.make(seed, i)), cls.name
        assert input_key(wl.make(0, 0)) != input_key(wl.make(1, 0)), cls.name
        assert input_key(wl.make(0, 0)) != input_key(wl.make(0, 1)), cls.name


def test_quiet_script_mix_is_fixed():
    wl = LinkQuiet()
    sizes = [sorted((t.direction, len(t.payload) or t.read_length) for t in wl.make(s, 0).transactions)
             for s in (0, 1)]
    assert sizes[0] == sizes[1] and len(wl.make(0, 0).transactions) == 100


class ShortQuiet(LinkQuiet):
    """The first transactions of op 0, up to and including its first present read."""

    def make(self, seed, i):
        inp = super().make(seed, i)
        k = next(k for k, t in enumerate(inp.transactions)
                 if t.direction == "read" and t.address in self.addresses)
        return dataclasses.replace(inp, transactions=inp.transactions[: k + 1])


class FlippedByte(ShortQuiet):
    def run(self, inp, tracer):
        metrics, results = super().run(inp, tracer)
        last = results[-1]
        assert last.completed and last.payload
        flipped = dataclasses.replace(last, payload=bytes([last.payload[0] ^ 0x01]) + last.payload[1:])
        return metrics, results[:-1] + [flipped]


class TruncatedRead(LinkNoisy):
    def run(self, inp, tracer):
        metrics, results = super().run(inp, tracer)
        return metrics, [dataclasses.replace(r, payload=r.payload[:1], completed=True)
                         if r.direction == "read" else r for r in results]


def perturbed_design(key):
    class Perturbed(DesignBatch):
        def run(self, spec, tracer):
            d, exact, snapped, sw = super().run(spec, tracer)
            values = dict(d.exact, **{key: d.exact[key] * 1.01})
            return dataclasses.replace(d, exact=values), exact, snapped, sw
    return Perturbed


class NoInnerZero(DesignBatch):
    def run(self, spec, tracer):
        d, exact, snapped, sw = super().run(spec, tracer)
        return d, dataclasses.replace(exact, h_zeros=()), snapped, sw


def failures(wl, seed=0, i=0) -> int:
    tally = run.Tally()
    run.do_op(wl, seed, i, NullTracer(), tally)
    assert tally.attempted == 1
    return tally.failed


def test_perturbed_outputs_fail():
    assert failures(ShortQuiet()) == 0
    assert failures(FlippedByte()) == 1
    assert failures(LinkNoisy()) == 0
    assert failures(TruncatedRead()) == 1
    assert failures(DesignBatch()) == 0
    spec = DesignBatch().make(0, 0)
    for key in DesignBatch().run(spec, NullTracer())[0].exact:
        assert failures(perturbed_design(key)()) == 1, key
    assert failures(NoInnerZero()) == 1


def test_golden_comparison():
    wl = DesignBatch()
    spec = wl.make(0, 0)
    rec = wl.digest(spec, wl.run(spec, NullTracer()))
    golden = json.loads((BENCH / "golden.json").read_text())
    assert same(rec, golden["design_batch"][0])
    nudged = dict(rec, exact={k: v * (1 + 1e-5) for k, v in rec["exact"].items()})
    assert not same(nudged, golden["design_batch"][0])
    assert same(dict(rec, h_poles=[p * (1 + 1e-9) for p in rec["h_poles"]]), rec)


def test_command_result_line():
    seed = 999_999
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", "design_batch", "--seed",
             str(seed), "--seconds", "1"], cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
    finally:
        (BENCH / "out" / f"design_batch-seed{seed}-trace0.json").unlink(missing_ok=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)


def test_fails_without_sources():
    bare = BENCH / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{BENCH.name}/run.py", "--workload", "link_quiet", "--seed", "0",
             "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode != 0 and "correct" not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    tests = [v for k, v in globals().items() if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    print(f"{len(tests)} self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
