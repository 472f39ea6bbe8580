"""Tests of the benchmark itself: seeded inputs, checks, metric names, counts.

    python3 -m pytest bench -q
"""
import json
import re
import shutil
import subprocess
import sys
from math import prod
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, EvalStream, clear_caches  # noqa: E402
from msproots import cli, cyclotomic, msp, verify  # noqa: E402
from msproots.msp import EvalInstance, closed_form_value  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def bench_run(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_and_other_seed_other_inputs(name):
    cls = WORKLOADS[name]
    assert cls(7).ops == cls(7).ops
    assert cls(7).ops != cls(8).ops


def test_eval_inputs_keep_their_shape_for_many_seeds():
    for seed in range(25):
        wl = EvalStream(seed)
        assert len({op[:3] for op in wl.ops}) == EvalStream.queries
        closed = 0
        for n, k, parts, method in wl.ops:
            assert len(parts) == k * n and all(1 <= p <= n for p in parts) and sum(parts) % n == 0
            matched = closed_form_value(EvalInstance(parts, n, k)) is not None
            assert matched == (method == "closed")
            closed += matched
            if method == "dp":
                assert prod(parts.count(v) + 1 for v in set(parts)) <= EvalStream.max_states
        assert closed == EvalStream.queries // EvalStream.closed_every


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_another_seed_passes_every_check(name):
    class Args:
        seed, seconds, trace = 12345, 0, 0

    bench = run.Run(WORKLOADS[name], Args)
    times, _ = bench.run_pass()
    errors = bench.wl.deep_check()
    assert bench.failed == 0 and not errors, bench.errors + errors
    assert len(times) == len(bench.wl.ops)


def test_checks_catch_a_wrong_output():
    wl = WORKLOADS["expand_sweep"](1)
    code, out, err = wl.run((8, 1))
    assert wl.check((8, 1), (code, out, err)) == []
    shifted = "".join(f"{text}\t{int(c) + 1}\n" for text, c in (l.split("\t") for l in out.splitlines()))
    assert wl.check((8, 1), (code, shifted, err))
    wl.outputs = {(8, 1): shifted}
    assert any("msp_value_dp gives" in e for e in wl.deep_check())


def test_tracer_restores_every_patched_name():
    before = {(id(owner), attr): getattr(owner, attr) for owner, attr, _ in tracing.TRACED}
    bound = (verify.msp_value_dp, cli.msp_value_dp, msp.msp_value_dp, cyclotomic.CyclotomicInt.to_integer)
    t = tracing.Tracer()
    t.begin_pass()
    with t:
        assert verify.msp_value_dp is not bound[0] and cli.msp_value_dp is not bound[1]
        clear_caches()
        verify.check_theorems(4, 1)
    after = {(id(owner), attr): getattr(owner, attr) for owner, attr, _ in tracing.TRACED}
    assert before == after
    assert (verify.msp_value_dp, cli.msp_value_dp, msp.msp_value_dp,
            cyclotomic.CyclotomicInt.to_integer) == bound
    self_s, counts = t.pass_self_s(), t.pass_counts()
    assert set(self_s) >= {"verify.theorems", "verify.thm11", "msp.dp", "cyclotomic.readout"}
    assert all(v >= 0 for v in self_s.values())
    assert counts["msp.dp_calls"] > 0 and counts["cyclotomic.readouts"] >= counts["groupdet.accumulator_keys"] > 0
    parents = [t.names[t.name[p]] for p in t.parent if p >= 0]
    assert "verify.thm32" in parents


def test_benchmark_json_is_well_formed():
    s = spec()
    assert set(s) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert set(s["paths"]) == {"bench"} and s["command"][:2] == ["python3", "bench/run.py"]
    assert 1 <= s["run_seconds"] <= 60 and isinstance(s["run_seconds"], int)
    assert {w["name"] for w in s["workloads"]} <= set(WORKLOADS)
    names = [m["name"] for m in s["end_to_end"] + s["per_layer"]] + [w["name"] for w in s["workloads"]]
    assert len(names) == len(set(names))
    for m in s["end_to_end"] + s["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    for m in s["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in s["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in s["end_to_end"])
    for w in s["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]


def test_both_modes_print_the_declared_metrics_and_counts_repeat():
    s = spec()
    results, records = {}, {}
    for trace in (0, 1):
        proc = bench_run("verify_sweep", 3, trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        records[trace], results[trace] = json.loads(lines[-2]), json.loads(lines[-1])
    for trace, declared in ((0, s["end_to_end"]), (1, s["per_layer"])):
        result = results[trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in declared}
    assert records[0]["passes"] == 1 and records[1]["passes"] == 4  # --seconds 0: the minimum
    assert records[0]["op_tail"]["samples"] == len(WORKLOADS["verify_sweep"].calls)
    assert records[0]["counts"] == records[1]["counts"]
    assert records[1]["counts_repeat"]
    metrics = results[1]["metrics"]
    assert metrics["msp.dp_calls"]["value"] > 0 and metrics["cyclotomic.readouts"]["value"] > 0
    assert metrics["trace.overhead_ratio"]["value"] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench_run("expand_sweep", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
