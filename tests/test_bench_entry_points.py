import importlib.util
import io
import json
import pathlib
import sys
from types import SimpleNamespace

import fgl.cli  # loads every fgl module the benchmark traces

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_layers():
    return _load("perfbench_layers", PERFBENCH / "layers.py")


def test_every_traced_entry_point_resolves():
    # the traced benchmark wraps these names; a rename would break it
    layers = load_layers()
    targets = [target for _, _, group in layers.LAYERS for target in group]
    assert len(targets) == 29
    for target in targets:
        assert callable(layers.resolve(target)), target


def test_small_tate_job_calls_every_gated_tate_layer(monkeypatch):
    # the benchmark fails a traced pass on which a gated counter reads zero;
    # one small tate job must already reach every one of them
    layers = load_layers()
    monkeypatch.setitem(sys.modules, "layers", layers)  # run.py imports it by name
    run = _load("perfbench_run", PERFBENCH / "run.py")
    trace = layers.LayerTrace()
    trace.install()
    try:
        fgl.cli.run_job({"command": "tate", "law": "multiplicative", "p": 3, "type": "2"})
    finally:
        trace.uninstall()
    metrics = trace.metrics()
    assert run._TATE
    assert [name for name in run._TATE if not metrics[name]] == []


def test_one_job_suite_calls_every_always_gated_layer(tmp_path, monkeypatch):
    # a traced pass is one cold and one warm run_suite call, every workload is
    # gated on the _ALWAYS counters, and cli.cache_hits comes from run.py itself
    layers = load_layers()
    monkeypatch.setitem(sys.modules, "layers", layers)
    run = _load("perfbench_run", PERFBENCH / "run.py")
    jobs = [{"command": "level", "law": "multiplicative", "p": 2, "type": "2"}]
    config = tmp_path / "jobs.json"
    config.write_text(json.dumps(jobs))
    trace = layers.LayerTrace()
    trace.install()
    try:
        for _ in range(2):
            assert fgl.cli.run_suite(str(config), cache=str(tmp_path / "cache"),
                                     out=io.StringIO()) == 0
    finally:
        trace.uninstall()
    passes = [{"traced": True, "layers": trace.metrics(), "pass_s": 1.0},
              {"traced": False, "pass_s": 1.0}]
    metrics = run.per_layer(SimpleNamespace(jobs=jobs), passes)
    assert run._ALWAYS
    assert [name for name in run._ALWAYS if not metrics[name][0]] == []
