"""The readers of every input format: the typed JSON decoder behind the
run config, `schema.json` and `model.json`, and the JSONL and TSV line
readers."""

import json
from dataclasses import asdict, is_dataclass
from typing import get_type_hints

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from reldistill.decode import InputError, jsonl, lines, tsv
from reldistill.evaluation import read_predictions
from reldistill.features import FeatureConfig
from reldistill.kb import load_schema
from reldistill.pipeline import RunConfig
from reldistill.propagation import read_ranking
from reldistill.training import TrainConfig, load_model

# every JSON value, the non-finite numbers that json reads and writes included
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5)
    | st.sampled_from([float("nan"), float("inf"), -float("inf")]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)

PATHS = ("structured_corpus", "target_corpus", "eval_corpus", "schema", "triples",
         "concept_seeds", "gold")


def _keys(cls, prefix=()):
    """The key path of every field of `cls` and of its nested sections."""
    for name, hint in get_type_hints(cls).items():
        yield (*prefix, name)
        if is_dataclass(hint):
            yield from _keys(hint, (*prefix, name))


RUN_CONFIG_KEYS = sorted(_keys(RunConfig))

SCHEMA_KEYS = [
    ("concepts",), ("relations",), ("relations", 0), ("relations", 0, "name"),
    ("relations", 0, "range_concept"), ("relations", 0, "section_titles"),
    ("relations", 0, "bogus"), ("bogus",),
]


def _put(obj, path, value):
    for key in path[:-1]:
        obj = obj.setdefault(key, {}) if isinstance(obj, dict) else obj[key]
    obj[path[-1]] = value


def test_every_run_config_section_key_is_drawn():
    assert ("propagation", "alpha") in RUN_CONFIG_KEYS
    assert ("training", "reg_lambda") in RUN_CONFIG_KEYS
    assert ("features", "window") in RUN_CONFIG_KEYS


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(RUN_CONFIG_KEYS), value=json_values)
def test_any_json_value_at_a_run_config_key_decodes_or_is_refused(key, value):
    cfg = {name: f"{name}.path" for name in PATHS}
    _put(cfg, key, value)
    try:
        config = RunConfig.from_dict(cfg)
    except ValueError as exc:
        # InputError from the decoder, ValueError from a section's range check:
        # both exit 1; a TypeError or KeyError here would exit 2
        assert isinstance(exc, InputError) or key[0] in ("propagation", "features", "training")
    else:
        json.dumps(asdict(config), allow_nan=False)  # no NaN or infinity got through


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(key=st.sampled_from(SCHEMA_KEYS), value=json_values)
def test_any_json_value_at_a_schema_key_loads_or_is_refused(tmp_path, key, value):
    obj = {"concepts": ["C"], "relations": [{"name": "a", "range_concept": "C"}]}
    _put(obj, key, value)
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(obj))
    try:
        load_schema(str(path))
    except InputError:
        pass


@pytest.mark.parametrize(
    "patch, message",
    [
        pytest.param({"training": {"reg_lambda": float("inf")}},
                     "run config: 'training.reg_lambda' must be a finite number, got inf",
                     id="inf"),
        pytest.param({"training": {"negatives": float("-inf")}},
                     "run config: 'training.negatives' must be an integer or null, got -inf",
                     id="minus-inf"),
        pytest.param({"variant": "RsRt"},
                     "run config: 'variant' must be a list of strings, got 'RsRt'", id="variant"),
        pytest.param({"propagation": 3},
                     "run config: 'propagation' must be a JSON object, got 3", id="section"),
        pytest.param({"training": {"reg_lambda": 10**400}},
                     "run config: 'training.reg_lambda' must be a finite number, got "
                     "100000000000000000...0000000000000000000", id="huge-int"),
    ],
)
def test_run_config_message_names_the_key(patch, message):
    cfg = {name: f"{name}.path" for name in PATHS} | patch
    with pytest.raises(InputError) as err:
        RunConfig.from_dict(json.loads(json.dumps(cfg)))
    assert str(err.value) == message


def test_schema_keys_default_to_empty(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps({"concepts": ["C"], "relations": [{"name": "a",
                                                                 "range_concept": "C"}]}))
    schema = load_schema(str(path))
    assert schema.relation("a").section_titles == frozenset()
    path.write_text("{}")
    assert load_schema(str(path)).relation_names() == []


def _saved_model(tmp_path, key=None, value=None):
    obj = {
        "feature_config": asdict(FeatureConfig()),
        "train_config": asdict(TrainConfig()),
        "relations": {"rel": {"bias": 0.5, "weights": {"tok=a": 1.0}}},
    }
    if key:
        _put(obj, key, value)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_load_model_refuses_json_that_is_not_an_object(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("[]")
    with pytest.raises(ValueError) as err:
        load_model(str(path))
    assert str(err.value) == f"model {str(path)!r} must be a JSON object, got a list"


def test_load_model_decodes_its_configs(tmp_path):
    model = load_model(_saved_model(tmp_path, ("train_config", "negatives"), 4))
    assert model.feature_config == FeatureConfig()
    assert model.train_config == TrainConfig(negatives=4)


@pytest.mark.parametrize(
    "key, value, message",
    [
        pytest.param(("feature_config", "window"), "3",
                     "'feature_config.window' must be an integer, got '3'", id="str"),
        pytest.param(("feature_config", "bogus"), 1,
                     "unknown key 'feature_config.bogus'", id="unknown"),
        pytest.param(("train_config", "reg_lambda"), float("nan"),
                     "'train_config.reg_lambda' must be a finite number, got nan", id="nan"),
        pytest.param(("relations", "rel", "weights", "tok=a"), "1.0",
                     "'relations.rel.weights.tok=a' must be a finite number, got '1.0'",
                     id="weight"),
        pytest.param(("relations", "rel", "platt"), [1.0, 2.0],
                     "'relations.rel.platt' must be an object or null, got [1.0, 2.0]",
                     id="platt"),
        pytest.param(("relations", "rel", "bogus"), 1,
                     "unknown key 'relations.rel.bogus'", id="relation-key"),
        pytest.param(("train_config", "n"), 0,
                     "'train_config': n must be >= 1, got 0", id="range"),
        pytest.param(("relations", "rel", "bias"), 10**400,
                     "'relations.rel.bias' must be a finite number, got "
                     "100000000000000000...0000000000000000000", id="huge-int"),
    ],
)
def test_load_model_names_an_ill_typed_config_key(tmp_path, key, value, message):
    path = _saved_model(tmp_path, key, value)
    with pytest.raises(ValueError) as err:
        load_model(path)
    assert str(err.value) == f"model {path!r}: {message}"


@pytest.mark.parametrize(
    "reader, good, bad",
    [
        pytest.param(read_ranking, "rel\t1\td1|s0|t0|0-1\t0.5\n", "rel\t2\td1|s0|t0|2-3\n",
                     id="ranking"),
        pytest.param(read_predictions, "d1\trel\tpain\t0.5\n", "d1\trel\tpain\t0.5\textra\n",
                     id="predictions"),
    ],
)
def test_tsv_artifact_line_with_wrong_field_count_is_named(tmp_path, reader, good, bad):
    path = tmp_path / "artifact.tsv"
    path.write_text(good + "\n" + bad)
    with pytest.raises(ValueError) as err:
        reader(str(path))
    assert str(err.value) == f"{path}: line 3: expected 4 tab-separated fields"


def test_tsv_skips_blank_lines_and_numbers_the_rest(tmp_path):
    path = tmp_path / "rows.tsv"
    path.write_text("a\tb\n\n  \nc\td")
    assert tsv(str(path), 2, lambda *row: row) == [("a", "b"), ("c", "d")]
    path.write_text("a\tb\n\n  \nc\td\ne\n")
    with pytest.raises(InputError) as err:
        tsv(str(path), 2, lambda *row: row)
    assert str(err.value) == f"{path}: line 5: expected 2 tab-separated fields"


def test_jsonl_names_the_line_that_is_not_json(tmp_path):
    path = tmp_path / "lines.jsonl"
    path.write_text('{"a": 1}\n\n[1, 2]\n{"a": \n')
    seen = []
    with pytest.raises(InputError) as err:
        jsonl(str(path), seen.append)
    assert seen == [{"a": 1}, [1, 2]]
    assert str(err.value).startswith(f"{path}: line 4: invalid JSON (")


def _refuse_b(line: str) -> str:
    if line.startswith("b"):
        raise InputError("no b")
    return line


def test_lines_skip_blank_lines_but_count_them(tmp_path):
    # text mode: "\r\n" and a lone "\r" end a line as "\n" does
    path = tmp_path / "lines.txt"
    path.write_text("a\r\n\r\n \t\ra\n\nb\n", newline="")
    with pytest.raises(InputError) as err:
        lines(str(path), _refuse_b)
    assert str(err.value) == f"{path}: line 6: no b"
    path.write_text("a\r\n\r\n \t\ra", newline="")
    assert lines(str(path), _refuse_b) == ["a\n", "a"]


def test_lines_prefix_an_input_error_with_the_file_and_line(tmp_path):
    path = tmp_path / "lines.txt"
    path.write_text("a\nb\n")
    with pytest.raises(InputError) as err:
        lines(str(path), _refuse_b)
    assert str(err.value) == f"{path}: line 2: no b"


@pytest.mark.parametrize("exc", [TypeError("a bug"), ValueError("not an input error")],
                         ids=["TypeError", "ValueError"])
def test_lines_pass_any_other_exception_through_unchanged(tmp_path, exc):
    path = tmp_path / "lines.txt"
    path.write_text("a\n")

    def parse(line):
        raise exc

    with pytest.raises(type(exc)) as err:
        lines(str(path), parse)
    assert err.value is exc
    assert str(err.value) == str(exc)


def test_lines_name_a_file_that_is_not_utf8(tmp_path):
    # the text is decoded in blocks, so only the file is named, not the line
    path = tmp_path / "lines.txt"
    path.write_bytes(b"a\nb\n\xff\n")
    with pytest.raises(InputError) as err:
        lines(str(path), str.strip)
    assert str(err.value) == f"{path}: not UTF-8 text (invalid start byte)"
