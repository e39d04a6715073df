import json
from pathlib import Path

import pytest

import layertrace
import workloads


def _bindings(modules):
    out = {}
    for module_name, attrs in layertrace.TRACED_FUNCTIONS.items():
        for attr in attrs:
            out[(module_name, attr)] = getattr(modules[module_name], attr)
    out[("numcore.Tensor", "__init__")] = modules["numcore"].Tensor.__dict__["__init__"]
    return out


def test_every_wrapper_restores_the_attribute_it_replaced():
    modules = workloads.load_modules()
    before = _bindings(modules)
    tracer = layertrace.Tracer(modules).install()
    during = _bindings(modules)
    assert all(during[key] is not before[key] for key in before)
    tracer.uninstall()
    after = _bindings(modules)
    assert all(after[key] is before[key] for key in before)


def test_spans_nest_and_survive_exceptions():
    modules = workloads.load_modules()
    smiles = modules["smiles"]
    tracer = layertrace.Tracer(modules).install()
    try:
        tracer.phase = "loop"
        smiles.canonicalize(smiles.parse("CC(C)C"))
        with pytest.raises(smiles.SmilesSyntaxError):
            smiles.parse("C1CC")
    finally:
        tracer.uninstall()
    names = [s[1] for s in tracer.spans]
    assert names.count("smiles.parse") == 2
    canonicalize = next(s for s in tracer.spans if s[1] == "smiles.canonicalize")
    writes = [s for s in tracer.spans if s[1] == "smiles.write"]
    assert writes and all(s[4] == canonicalize[0] for s in writes)
    assert tracer._stack == []
    metrics = layertrace.per_layer_metrics(tracer, {})
    assert metrics["smiles.write_calls_per_canonicalize"] == len(writes)
    spec = json.loads((Path(workloads.__file__).parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
