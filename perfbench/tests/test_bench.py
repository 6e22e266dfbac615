"""Tests of the benchmark itself: seeded generation, seed-independent
fingerprints, tracer clean-up, live negative controls and the output
contract.  Run with `python3 -m pytest perfbench/tests -q` from the root
of the repository (about a minute)."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
import tracer as tracing
import workloads
from dgforge import dgcat, linalg, sheaf
from expected import FINGERPRINTS

ROOT = Path(__file__).resolve().parents[2]
NAMES = sorted(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def runs():
    """Inputs, verdicts and fingerprint per (workload, seed)."""
    out = {}
    for name in NAMES:
        generate, run = workloads.WORKLOADS[name]
        for seed in (101, 202):
            inputs = generate(seed)
            v, fp = run(inputs, tracing.Tracer())
            out[(name, seed)] = (inputs, v, fp)
    return out


@pytest.mark.parametrize("name", NAMES)
def test_generation_is_deterministic_per_seed(name, runs):
    generate, _ = workloads.WORKLOADS[name]
    assert generate(101) == runs[(name, 101)][0]
    assert bench.digest(generate(101)) == bench.digest(runs[(name, 101)][0])
    assert runs[(name, 101)][0] != runs[(name, 202)][0]


@pytest.mark.parametrize("name", NAMES)
def test_fingerprint_does_not_depend_on_the_seed(name, runs):
    assert runs[(name, 101)][2] == runs[(name, 202)][2] == FINGERPRINTS[name]


@pytest.mark.parametrize("name", NAMES)
def test_every_verdict_passes_and_controls_are_live(name, runs):
    for seed in (101, 202):
        v = runs[(name, seed)][1]
        assert v.items and v.failed == []
        controls = [item for item in v.items if "control" in item[0]]
        assert len(controls) == 1 and controls[0][1:] == (False, False)


@pytest.mark.parametrize("name", NAMES)
def test_switching_in_the_negative_control_raises_fail_ratio(name, runs):
    generate, run = workloads.WORKLOADS[name]
    v, _ = run(runs[(name, 101)][0], tracing.Tracer(), swap=True)
    assert len(v.failed) == 1 and "control" in v.failed[0][0]
    assert len(v.failed) / len(v.items) > 0


def test_no_wrapper_remains_after_a_traced_run():
    originals = (linalg.Matrix.__init__, linalg.smith_normal_form, dgcat.solve,
                 sheaf.FiniteSite.as_open, workloads.pretr.tensor_pair)
    generate, run = workloads.WORKLOADS["sheaf_hypercoh"]
    tr = tracing.Tracer()
    with tr.installed():
        assert tracing.wrappers_in_place()
        assert dgcat.solve is not originals[2]
        v, _ = run(generate(7), tr)
    assert v.failed == []
    assert tracing.wrappers_in_place() == []
    assert (linalg.Matrix.__init__, linalg.smith_normal_form, dgcat.solve,
            sheaf.FiniteSite.as_open, workloads.pretr.tensor_pair) == originals
    assert tr.calls["sheaf.as_open"] > 0 and tr.calls["linalg.snf"] > 0


def test_wrappers_are_removed_when_the_traced_code_raises():
    host, _ = dgcat.build_vertex_cubes(ring="Q", top=1, objects=(1,))
    original = host.mor_tensor
    tr = tracing.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tr.installed():
            tr.host(host)
            assert host.mor_tensor is not original
            1 / 0
    assert tracing.wrappers_in_place() == []
    assert host.mor_tensor is original


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(NAMES)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.UNITS
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_rel", "setup_s", "peak_rss_mb"}


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_the_contract_json(trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pretr_laws", "--seed", "5",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }


def test_command_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pretr_laws", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert out.stdout == ""
