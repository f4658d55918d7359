"""Every function the benchmark's layer table names must exist in the
package: `bench/run.py` only warns about a missing one and reports its
metric as 0, so a rename or deletion would silently zero a metric."""

import importlib
import importlib.util
from pathlib import Path

LAYERS_PY = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def test_every_function_the_bench_layers_name_exists():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS_PY)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    names = set(layers.PER_ITEM) | set(layers.COUNTERS) | set(layers.INCLUSIVE_TIME.values())
    for functions in layers.SELF_TIME.values():
        names.update(functions)
    missing = []
    for qualified in sorted(names):
        module, name = qualified.split(".")
        if not callable(getattr(importlib.import_module(f"reldistill.{module}"), name, None)):
            missing.append(qualified)
    assert len(names) >= 55 and missing == []
