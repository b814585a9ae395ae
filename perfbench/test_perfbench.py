"""The benchmark's own tests.  Run from the repository root with
``python3 -m pytest perfbench`` (the tier-1 suite does not collect them)."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
MODS = workloads.load_package(ROOT)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def smoke(name, trace, seed=3):
    proc = bench("--workload", name, "--seed", str(seed), "--seconds", "0",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("size", [False, True], ids=["full", "smoke"])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_inputs_depend_only_on_the_seed(name, size):
    calls = workloads.build_calls(name, 7, MODS, smoke=size)
    assert calls == workloads.build_calls(name, 7, MODS, smoke=size)
    other = workloads.build_calls(name, 8, MODS, smoke=size)
    assert other != calls
    assert sorted(map(workloads.label, other)) == sorted(map(workloads.label, calls))


def test_every_call_has_a_reference():
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    for name in workloads.NAMES:
        for size in (False, True):
            for call in workloads.build_calls(name, 0, MODS, smoke=size):
                assert workloads.label(call) in reference, call


def test_a_reference_mismatch_is_a_failed_call():
    call = ("count_Anu", 9, 3)
    dt, reason, digest = workloads.execute(call, MODS)
    key = workloads.label(call)
    assert reason is None
    assert workloads.check(call, reason, digest, {key: digest}) is None
    assert workloads.check(call, reason, digest, {key: [0, False]}) == "reference_mismatch"
    assert workloads.check(call, reason, digest, {}) == "reference_missing"


def test_a_call_that_passed_at_the_reference_must_pass():
    call = ("solve", "F2:1,0,0,0", "", 0)
    key = workloads.label(call)
    assert workloads.check(call, None, True, {key: True}) is None
    assert workloads.check(call, "census_mismatch", None, {key: None}) == "census_mismatch"
    assert workloads.check(call, None, True, {key: None}) is None
    failed = workloads.check(call, "exception:ValueError", None, {key: True})
    assert failed == "reference_failed:exception:ValueError"
    exit_call = ("cli", ("table", "--max-degree", "200"))
    assert workloads.check(exit_call, "exit:2", None, {workloads.label(exit_call): "ab"}) == (
        "reference_failed:exit:2"
    )


def test_cli_failures_are_named_by_exit_code_and_error_type():
    _, reason, _ = workloads.execute(("cli", ("families", "--seed", "F2:1,0,0,0")), MODS)
    assert reason == "exit:1:NoFamilyRecordedError"


def test_tracer_patches_every_namespace_and_restores_it():
    cli, bn = MODS["cli"], MODS["belyi_numeric"]
    originals = (cli.shabat_for_derivation, bn.shabat_for_derivation, bn.shabat_solve)
    tracer = tracing.Tracer(MODS)
    tracer.install()
    try:
        assert cli.shabat_for_derivation is bn.shabat_for_derivation
        assert cli.shabat_for_derivation is not originals[0]
        workloads.execute(("solve", "F1:0,1", "a", 0), MODS)
    finally:
        tracer.uninstall()
    assert (cli.shabat_for_derivation, bn.shabat_for_derivation, bn.shabat_solve) == originals
    rec = tracer.collect()
    metrics = tracing.layer_metrics(rec)
    assert metrics["belyi_numeric.solves"][0] == 2  # prefixes '' and 'a'
    assert metrics["tree_realization.surgeries"][0] == 2  # final tree, then prefix a
    assert all(parent is None or parent < sid for sid, parent, *_ in rec["spans"])


def test_quantile_is_a_smooth_order_statistic():
    xs = [float(i) for i in range(1, 102)]
    assert run.quantile(xs, 50) == pytest.approx(51.0, rel=1e-3)
    assert run.quantile(xs, 90) == pytest.approx(91.0, rel=1e-2)
    assert 1.0 < run.quantile([1.0] * 5 + [2.0] * 6, 50) < 2.0
    assert run.tail_percentile(271) == 96 and run.tail_percentile(36) == 72


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_run_reports_every_end_to_end_metric(name):
    result = smoke(name, 0)
    assert result["correct"] and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["end_to_end"]
    }


@pytest.mark.parametrize("name", workloads.NAMES)
def test_counts_repeat_exactly_across_invocations(name):
    first, second = smoke(name, 1), smoke(name, 1)
    assert {k: v["unit"] for k, v in first["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["per_layer"]
    }
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    for key, entry in first["metrics"].items():
        if entry["unit"] in ("count", "ratio"):
            assert entry == second["metrics"][key], key


def test_refuses_to_run_without_the_package():
    bare = ROOT / "perfbench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in (ROOT / "perfbench").iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    try:
        proc = bench("--workload", "surface", "--seed", "1", "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
