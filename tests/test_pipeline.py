"""The run-config codec against the README, the hashing done by
`Workspace` in an in-process run, and the corpus check that the stages
and the benchmark harness share."""

import json
from collections import Counter
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

from reldistill import benchmark, pipeline
from reldistill.pipeline import RunConfig, StageError
from reldistill.synthetic import generate_benchmark

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_run_config_names_every_key_with_its_default():
    text = README.read_text(encoding="utf-8").split("### Run config", 1)[1]
    block = json.loads(text.split("```json\n", 1)[1].split("```", 1)[0])
    config = RunConfig.from_dict(block)
    assert set(block) == {f.name for f in fields(RunConfig)}
    for key in block:
        section = getattr(config, key)
        if is_dataclass(section):
            assert set(block[key]) == {f.name for f in fields(section)}, key
    paths = {f.name: block[f.name] for f in fields(RunConfig) if isinstance(block[f.name], str)}
    assert len(paths) == 7
    defaults = RunConfig(**paths)
    assert config == defaults
    assert config.config_hash() == defaults.config_hash()  # 0.0 is not 0


def test_run_hashes_each_artifact_once_per_stage(run_config_file, tmp_path, monkeypatch):
    """Within a stage, each artifact in the output directory is hashed
    once: when the stage verifies it as an input or writes it as an
    output. The manifest record reuses that hash."""
    out = tmp_path / "out"
    current = [None]
    hashed = []
    sha256 = pipeline._sha256

    def counting_sha256(path):
        hashed.append((current[0], Path(path)))
        return sha256(path)

    def entered(name, stage):
        def run(ws):
            current[0] = name
            stage(ws)

        return run

    monkeypatch.setattr(pipeline, "_sha256", counting_sha256)
    for name, stage in list(pipeline.STAGES.items()):
        monkeypatch.setitem(pipeline.STAGES, name, entered(name, stage))
    pipeline.run_all(pipeline.Workspace(str(out), pipeline.load_run_config(str(run_config_file))))

    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["stages"]) == {s for s, _ in hashed}
    for stage, record in manifest["stages"].items():
        got = Counter(p.name for s, p in hashed if s == stage and p.parent == out)
        recorded = [n for n in (*record["inputs"], *record["outputs"]) if (out / n).is_file()]
        assert got == Counter(recorded), stage


def test_harness_refuses_a_doc_id_of_both_graph_corpora(tmp_path):
    paths = generate_benchmark(str(tmp_path), seed=0, n_target=20, k_true=20, n_eval=5)
    target = Path(paths.target_corpus)
    text = target.read_text(encoding="utf-8")
    assert '"doc_id": "t-drug000"' in text
    assert '"doc_id": "s-drug000"' in Path(paths.structured_corpus).read_text(encoding="utf-8")
    target.write_text(text.replace('"doc_id": "t-drug000"', '"doc_id": "s-drug000"'))
    with pytest.raises(StageError) as err:
        benchmark.prepare(paths)
    assert str(err.value) == (
        f"doc_id 's-drug000' is in both {paths.structured_corpus} and {paths.target_corpus}"
    )
