"""Self-test of the benchmark at tiny grid sizes.

    python3 -m pytest perfbench/test_perfbench.py -q

Runs every workload once untraced and once traced, and checks that the
result line carries exactly the metrics BENCHMARK.json names, with their
units; that a wrong reference is reported as a failed operation with a
non-zero exit; and that a checkout without the library sources exits
non-zero without printing a result.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY_K = {"circuit-index2": 201, "multibody-forms": 41, "tv-index1": 101}


def tiny(name):
    workload = copy.copy(workloads.WORKLOADS[name])
    workload.K = TINY_K[name]
    return {name: workload}


def invoke(capsys, name, trace, table=None):
    code = run.main(["--workload", name, "--seed", "7", "--seconds", "0.01",
                     "--trace", str(trace)], workloads=table or tiny(name))
    lines = capsys.readouterr().out.splitlines()
    return code, lines


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_metric_is_emitted_with_its_unit(capsys, name, trace):
    code, lines = invoke(capsys, name, trace)
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["record"]
    assert code == 0, record["errors"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    assert record["K"] == TINY_K[name] and record["seed"] == 7
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)


def test_traced_circuit_shows_the_fallback_and_idle_layers(capsys):
    code, lines = invoke(capsys, "circuit-index2", 1)
    metrics = {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}
    assert code == 0
    assert metrics["reduce.reconstruct_s"] > 0
    assert metrics["reduce.reconstruct_calls"] == TINY_K["circuit-index2"]
    assert metrics["reduce.failed_attempts"] == 1 and metrics["reduce.wasted_s"] > 0
    assert metrics["canonical.self_s"] == 0 and metrics["factor.self_s"] == 0
    assert metrics["flow.steps"] == 2 * (TINY_K["circuit-index2"] - 1)


def test_wrong_reference_fails_the_run(capsys, monkeypatch):
    table = tiny("circuit-index2")
    workload = table["circuit-index2"]
    true_reference = workload.reference
    monkeypatch.setattr(workload, "reference", lambda inp: true_reference(inp) + 1e-6)
    code, lines = invoke(capsys, "circuit-index2", 0, table)
    result = json.loads(lines[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_missing_sources_exit_nonzero_without_result(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "tv-index1", "--seed", "0", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_untraced_layer_fails_the_attribution_check(capsys, monkeypatch):
    import spans

    # without the flow layer, simulate_phdae and certify_flow run unwrapped
    monkeypatch.setattr(spans, "LAYERS", tuple(x for x in spans.LAYERS if x != "flow"))
    code, lines = invoke(capsys, "circuit-index2", 1)
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["record"]
    assert code != 0 and result["failed"] >= 1
    assert any("of the traced wall time" in e for e in record["errors"])
