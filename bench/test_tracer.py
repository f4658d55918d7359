"""Tests of the benchmark's tracer on the reldistill package.

Run from the root of the repository:

    PYTHONPATH=src:bench python3 -m pytest -q bench/test_tracer.py
"""

import sys
import time
import types

import layers
import pytest
import reldistill
from reldistill import benchmark, evaluation, mentions, pipeline, propagation, training
from tracer import Tracer


def _layer_modules():
    import reldistill.cli  # noqa: F401  (binds pipeline names at import)

    return [getattr(reldistill, name) for name in layers.LAYERS]


def _bind_modules():
    return [m for n, m in sys.modules.items() if n.split(".")[0] == "reldistill"]


@pytest.fixture
def tracer():
    t = Tracer()
    t.install(_layer_modules(), _bind_modules(), layers.PER_ITEM, layers.COUNTERS)
    yield t
    t.uninstall()


def _is_traced(fn):
    return hasattr(fn, "__wrapped__")


def test_names_bound_at_import_are_rebound(tracer):
    assert _is_traced(evaluation.classify_scored)
    assert _is_traced(pipeline.build_graph)
    assert _is_traced(benchmark.multirankwalk)
    assert all(_is_traced(stage) for stage in pipeline.STAGES.values())


def test_no_public_layer_function_escapes(tracer):
    layer_modules = {f"reldistill.{name}" for name in layers.LAYERS}
    for mod in _bind_modules():
        for attr, obj in vars(mod).items():
            if not isinstance(obj, types.FunctionType) or obj.__module__ not in layer_modules:
                continue
            name = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"
            if obj.__name__.startswith("_") or name in layers.PER_ITEM:
                continue
            assert _is_traced(obj), f"{mod.__name__}.{attr} escapes its span"


def test_function_level_import_sees_the_wrapper(tracer):
    # expand_concept_mentions imports multirankwalk inside its body
    from reldistill.propagation import multirankwalk

    assert _is_traced(multirankwalk)
    assert "propagation.multirankwalk" in tracer.wrapped


def test_uninstall_restores_originals():
    before = (evaluation.classify_scored, dict(pipeline.STAGES), propagation.multirankwalk)
    t = Tracer()
    t.install(_layer_modules(), _bind_modules(), layers.PER_ITEM, layers.COUNTERS)
    t.uninstall()
    assert (evaluation.classify_scored, dict(pipeline.STAGES), propagation.multirankwalk) == before


def test_per_item_helpers_are_not_wrapped(tracer):
    assert not _is_traced(mentions.mention_to_dict)
    assert "corpus.map_pos" not in tracer.wrapped


def test_self_times_subtract_children():
    t = Tracer()
    root = t.open("root")
    time.sleep(0.01)
    child = t.open("a.child")
    time.sleep(0.02)
    grandchild = t.open("a.child")
    time.sleep(0.01)
    t.close(grandchild)
    t.close(child)
    t.close(root)
    self_t = t.self_times(root, t.n_spans)
    incl = t.inclusive_times(root, t.n_spans)
    assert sum(self_t.values()) == pytest.approx(t.duration(root), abs=1e-9)
    assert self_t["a.child"] == pytest.approx(t.duration(child), abs=1e-9)
    assert self_t["root"] == pytest.approx(t.duration(root) - t.duration(child), abs=1e-9)
    # the nested span of the same name is not counted twice
    assert incl["a.child"] == pytest.approx(t.duration(child), abs=1e-9)


def test_counters_record_work(tracer):
    training.classify_scored(
        training.LinearModel({}, None, training.TrainConfig()),
        types.SimpleNamespace(feature_counts=dict),
    )
    assert tracer.sums["training.classify_calls"] == 1
