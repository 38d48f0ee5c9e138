"""The benchmark's layer list names functions that the package still has."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_layer_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for mod, names in tracing.LAYERS.items():
        module = importlib.import_module(f"{tracing.PACKAGE}.{mod}")
        missing += [f"{mod}.{name}" for name in names if not callable(getattr(module, name, None))]
    assert not missing
