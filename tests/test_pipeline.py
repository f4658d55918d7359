"""The run-config codec against the README, the hashing done by
`Workspace` in an in-process run, and the corpus check and Rs seed rule
that the stages and the benchmark harness share."""

import json
from collections import Counter
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path

import pytest

from reldistill import benchmark, pipeline
from reldistill.decode import InputError
from reldistill.features import FeatureConfig, Mention
from reldistill.mentions import LabeledMention, MentionSets, VariantSpec
from reldistill.pipeline import RunConfig
from reldistill.propagation import PropagationConfig, build_graph, read_ranking
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


def test_a_workspace_decodes_the_manifest_and_hashes_the_config_once(
    run_config_file, tmp_path, monkeypatch
):
    """`run_all` into a fresh directory decodes no manifest.json and hashes
    the run config once; a staged `train` in that directory, on a new
    workspace as each CLI command makes, decodes the manifest once."""
    calls = Counter()
    decode, config_hash = pipeline.decode, RunConfig.config_hash

    def counting_decode(cls, *args):
        calls[cls.__name__] += 1
        return decode(cls, *args)

    def counting_config_hash(self):
        calls["config_hash"] += 1
        return config_hash(self)

    monkeypatch.setattr(pipeline, "decode", counting_decode)
    monkeypatch.setattr(RunConfig, "config_hash", counting_config_hash)
    config = pipeline.load_run_config(str(run_config_file))
    out = str(tmp_path / "out")
    pipeline.run_all(pipeline.Workspace(out, config))
    assert (calls["Manifest"], calls["config_hash"]) == (0, 1)
    pipeline.stage_train(pipeline.Workspace(out, config))
    assert (calls["Manifest"], calls["config_hash"]) == (1, 2)


def test_a_read_after_run_changes_no_stage_record(run_config_file, tmp_path):
    """A read outside any stage is recorded in no stage: neither in the
    workspace's manifest nor in the file the next stage writes."""
    ws = pipeline.Workspace(str(tmp_path / "out"), pipeline.load_run_config(str(run_config_file)))
    pipeline.run_all(ws)
    recorded = json.loads(ws.manifest_path.read_text())
    assert "ranking.tsv" not in recorded["stages"]["eval"]["inputs"]
    ws.read("ranking.tsv", "propagate", read_ranking)
    assert asdict(ws.manifest) == recorded
    pipeline.stage_extract(ws)  # the same files again, and the manifest rewritten
    assert json.loads(ws.manifest_path.read_text()) == recorded


def test_harness_refuses_a_doc_id_of_both_graph_corpora(tmp_path):
    paths = generate_benchmark(str(tmp_path), seed=0, n_target=20, k_true=20, n_eval=5)
    target = Path(paths.target_corpus)
    text = target.read_text(encoding="utf-8")
    assert '"doc_id": "t-drug000"' in text
    assert '"doc_id": "s-drug000"' in Path(paths.structured_corpus).read_text(encoding="utf-8")
    target.write_text(text.replace('"doc_id": "t-drug000"', '"doc_id": "s-drug000"'))
    with pytest.raises(InputError) as err:
        benchmark.prepare(paths)
    assert str(err.value) == (
        f"doc_id 's-drug000' is in both {paths.structured_corpus} and {paths.target_corpus}"
    )


def test_a_failed_stage_leaks_no_file_into_the_next_record(
    run_config_file, tmp_path, monkeypatch
):
    """A stage records only the files it read and wrote itself, and only
    once it completes: an `ingest` after a `mentions` that failed on the
    same workspace records what the first `ingest` did."""
    ws = pipeline.Workspace(str(tmp_path / "out"), pipeline.load_run_config(str(run_config_file)))
    pipeline.stage_ingest(ws)
    first = json.loads(ws.manifest_path.read_text())["stages"]["ingest"]

    def failing_write(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(pipeline, "write_mentions", failing_write)
    with pytest.raises(OSError):
        pipeline.stage_mentions(ws)  # fails after the four set files are written
    assert "mentions" not in json.loads(ws.manifest_path.read_text())["stages"]
    pipeline.stage_ingest(ws)
    assert json.loads(ws.manifest_path.read_text())["stages"]["ingest"] == first


def _labeled(mention_id: str, features: dict, source_set: str) -> LabeledMention:
    mention = Mention(
        mention_id=mention_id,
        doc_id=mention_id.split("|")[0],
        title_entity="x",
        section_title="overview",
        kind="singleton",
        item_surfaces=("x",),
        features=tuple(sorted(features.items())),
        corpus_tag="structured" if source_set == "Rs" else "target",
    )
    return LabeledMention(mention, "sideEffect", source_set)


def test_propagation_refuses_a_graph_without_an_rs_seed():
    """The only Rs mention has one feature, which every mention has: its
    idf is 0, so the mention has no edge and is not a node of the graph.
    The `propagate` stage and the harness refuse it by the same rule."""
    sets = MentionSets(
        Rs=[_labeled("s1|s0|t0|0-1", {"f": 1}, "Rs")],
        Rt=[_labeled("t1|s0|t0|0-1", {"f": 1, "g": 1}, "Rt")],
    )
    variant = ["Rs", "Rt"]
    graph = build_graph(sets, VariantSpec.parse(variant))
    assert graph.mention_nodes == ["t1|s0|t0|0-1"]  # the walk has a graph, but no seed in it
    message = r"^no Rs seed mentions survive in the propagation graph$"
    with pytest.raises(ValueError, match=message):
        pipeline.propagate(sets, VariantSpec.parse(variant), PropagationConfig())
    art = benchmark.BenchmarkArtifacts(
        schema=None,
        sets=sets,
        pool=[],
        labeled_ids=sets.labeled_ids(),
        eval_docs=[],
        gold=[],
        feature_config=FeatureConfig(),
        prop_config=PropagationConfig(),
    )
    with pytest.raises(ValueError, match=message):
        benchmark.ranking_for(art, variant)
    assert art.rankings == {}
