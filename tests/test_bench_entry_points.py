import importlib.util
import pathlib

import fgl.cli  # noqa: F401  (loads every fgl module the benchmark traces)

LAYERS_PY = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves():
    # the traced benchmark wraps these names; a rename would break it
    layers = load_layers()
    targets = [target for _, _, group in layers.LAYERS for target in group]
    assert len(targets) == 29
    for target in targets:
        assert callable(layers.resolve(target)), target
