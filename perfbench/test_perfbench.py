"""Smoke test of the benchmark itself, on tiny sizes.

Every workload runs once untraced and once traced: each prints every named
metric with its unit, the result line carries exactly the metrics
BENCHMARK.json lists, and afterwards every layer attribute is the original
function again, so tracing cannot leak into an untraced pass.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import bench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def layer_attributes():
    out = {}
    for layer in tracer.LAYERS:
        module = importlib.import_module(f"{tracer.PACKAGE}.{layer}")
        out.update({(layer, k): v for k, v in vars(module).items() if callable(v)})
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_reports_every_metric(name, trace, tmp_path):
    before = layer_attributes()
    workload = workloads.make(name, seed=3, workdir=str(tmp_path), tiny=True)
    workload.setup()
    lines = []
    result = bench.run(workload, 3, 0.0, trace, [0.25, 0.5, 0.75], out=lines.append)

    after = layer_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert result["correct"]
    assert result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    text = "\n".join(lines)
    for metric, unit in bench.GATED + bench.ACCURACY:
        assert f"  {metric} " in text
    assert "canonical_sha256=" in text


def test_tracer_restores_after_an_error():
    before = layer_attributes()
    with pytest.raises(RuntimeError, match="inside"):
        with tracer.Tracer():
            assert tracer.patched_attributes()
            raise RuntimeError("inside the traced block")
    assert tracer.patched_attributes() == []
    assert all(layer_attributes()[k] is v for k, v in before.items())
