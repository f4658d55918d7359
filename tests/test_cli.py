import json

import pytest

from reldistill import pipeline
from reldistill.cli import main
from reldistill.pipeline import RunConfig
from reldistill.synthetic import generate_benchmark


def run(config, out, *args):
    return main(["--config", str(config), "--out", str(out), *args])


@pytest.fixture(scope="module")
def bench0_config(tmp_path_factory):
    """The run config scripts/make_benchmark.py writes for seed 0."""
    tmp = tmp_path_factory.mktemp("bench0")
    paths = generate_benchmark(str(tmp), seed=0)
    config = {
        key: getattr(paths, key)
        for key in (
            "structured_corpus", "target_corpus", "eval_corpus", "schema",
            "triples", "concept_seeds", "gold",
        )
    }
    config_path = tmp / "config.json"
    config_path.write_text(json.dumps({**config, "variant": ["Rs", "Rt"]}))
    return config_path


class TestFullPipeline:
    def test_run_produces_all_artifacts(self, run_config_file, tmp_path):
        out = tmp_path / "out"
        assert run(run_config_file, out, "run") == 0
        for name in (
            "documents_structured.jsonl",
            "documents_target.jsonl",
            "documents_eval.jsonl",
            "mentions_Rs.jsonl",
            "mentions_Rt.jsonl",
            "mentions_Cs.jsonl",
            "mentions_Ct.jsonl",
            "pool_structured.jsonl",
            "pool_target.jsonl",
            "ranking.tsv",
            "graph.tsv",
            "model.json",
            "predictions.tsv",
            "report.json",
            "pr_curve.csv",
            "manifest.json",
        ):
            assert (out / name).is_file(), name

    def test_staged_commands_match_run(self, run_config_file, bench0_config, tmp_path):
        # one command per stage decodes every artifact it reads; `run`
        # hands the decoded records on: both must write the same bytes
        for key, config in (("toy", run_config_file), ("seed0", bench0_config)):
            staged, whole = tmp_path / key / "staged", tmp_path / key / "whole"
            for cmd in ("ingest", "mentions", "propagate", "train", "extract", "eval"):
                assert run(config, staged, cmd) == 0
            assert run(config, whole, "run") == 0
            names = sorted(p.name for p in whole.iterdir())
            assert names == sorted(p.name for p in staged.iterdir())
            for name in names:
                assert (staged / name).read_bytes() == (whole / name).read_bytes(), name

    def test_rerun_is_byte_identical(self, run_config_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(run_config_file, a, "run") == 0
        assert run(run_config_file, b, "run") == 0
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_report_content(self, run_config_file, tmp_path):
        out = tmp_path / "out"
        assert run(run_config_file, out, "run") == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report) >= {"micro", "per_relation", "macro_f1"}
        assert 0.0 <= report["micro"]["f1"] <= 1.0

    def test_manifest_tracks_stages_and_hashes(self, run_config_file, tmp_path):
        out = tmp_path / "out"
        assert run(run_config_file, out, "run") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["stages"]) == {
            "ingest",
            "mentions",
            "propagate",
            "train",
            "extract",
            "eval",
        }
        assert len(manifest["config_hash"]) == 64
        for stage in manifest["stages"].values():
            assert stage["config_hash"] == manifest["config_hash"]
            for digest in {**stage["inputs"], **stage["outputs"]}.values():
                assert len(digest) == 64


class TestStaging:
    def test_train_before_propagate(self, run_config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(run_config_file, out, "ingest") == 0
        assert run(run_config_file, out, "mentions") == 0
        assert run(run_config_file, out, "train") == 1
        err = capsys.readouterr().err
        assert "ranking.tsv" in err
        assert "propagate" in err

    def test_mentions_before_ingest(self, run_config_file, tmp_path, capsys):
        assert run(run_config_file, tmp_path / "out", "mentions") == 1
        assert "ingest" in capsys.readouterr().err

    def test_truncated_artifact_is_refused(self, run_config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(run_config_file, out, "ingest") == 0
        assert run(run_config_file, out, "mentions") == 0
        path = out / "mentions_Ct.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        assert len(lines) > 1
        path.write_text("".join(lines[:-1]))
        assert run(run_config_file, out, "propagate") == 1
        err = capsys.readouterr().err
        assert "mentions_Ct.jsonl" in err and "'mentions'" in err and "sha256" in err

    def test_artifact_without_manifest_record_is_refused(self, run_config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(run_config_file, out, "ingest") == 0
        (out / "manifest.json").unlink()
        assert run(run_config_file, out, "mentions") == 1
        err = capsys.readouterr().err
        assert "documents_structured.jsonl" in err and "not recorded" in err

    def test_config_change_invalidates_artifacts(self, run_config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(run_config_file, out, "run") == 0
        cfg = json.loads(run_config_file.read_text())
        cfg["training"]["n"] = 2
        run_config_file.write_text(json.dumps(cfg))
        assert run(run_config_file, out, "train") == 1
        assert "different config" in capsys.readouterr().err


class TestAtomicWrites:
    @pytest.mark.parametrize(
        "stage, writer",
        [
            ("ingest", "write_corpus"),
            ("mentions", "write_labeled_mentions"),
            ("mentions", "write_mentions"),
            ("propagate", "write_ranking"),
            ("propagate", "write_graph_dump"),
            ("train", "save_model"),
            ("extract", "write_predictions"),
            ("eval", "write_pr_curve"),
        ],
    )
    def test_failed_write_keeps_previous_artifact(
        self, run_config_file, tmp_path, monkeypatch, stage, writer
    ):
        out = tmp_path / "out"
        assert run(run_config_file, out, "run") == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        partial_writes = []

        def fail_partway(records, path, encoder=None):  # mention writers take an encoder
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("partial line")
            partial_writes.append(path)
            raise OSError("No space left on device")

        monkeypatch.setattr(pipeline, writer, fail_partway)
        assert run(run_config_file, out, stage) == 2
        assert partial_writes  # failed in the writer, not before it
        assert not list(out.glob("*.tmp"))
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


class TestSweep:
    def test_sweep_rows(self, run_config_file, tmp_path):
        out = tmp_path / "out"
        assert run(run_config_file, out, "run") == 0
        assert run(run_config_file, out, "sweep") == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "variant,strategy,n,precision,recall,f1"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 6  # 2 strategies x sweep_n [1, 2, 3]
        assert {r[0] for r in rows} == {"RsRt"}
        assert {r[1] for r in rows} == {"Both", "Target"}
        assert sorted(int(r[2]) for r in rows if r[1] == "Both") == [1, 2, 3]
        for r in rows:
            assert 0.0 <= float(r[5]) <= 1.0


class TestErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        assert run(tmp_path / "no.json", tmp_path / "out", "run") == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_corpus_path(self, run_config_file, tmp_path, capsys):
        cfg = json.loads(run_config_file.read_text())
        cfg["target_corpus"] = str(tmp_path / "missing.jsonl")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert run(bad, tmp_path / "out", "run") == 1
        assert "target_corpus" in capsys.readouterr().err

    def test_unknown_nested_key(self, run_config_file, tmp_path, capsys):
        cfg = json.loads(run_config_file.read_text())
        cfg["propagation"] = {"alpah": 0.2}
        run_config_file.write_text(json.dumps(cfg))
        assert run(run_config_file, tmp_path / "out", "run") == 1
        assert "'propagation.alpah'" in capsys.readouterr().err

    def test_missing_required_path(self, run_config_file, tmp_path, capsys):
        cfg = json.loads(run_config_file.read_text())
        del cfg["gold"]
        run_config_file.write_text(json.dumps(cfg))
        assert run(run_config_file, tmp_path / "out", "run") == 1
        assert "'gold'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "patch, named",
        [
            pytest.param({"propagation": {"alpha": "0.2"}}, "'propagation.alpha'", id="alpha-str"),
            pytest.param({"propagation": {"max_iters": 10.5}}, "'propagation.max_iters'", id="max_iters-float"),
            pytest.param({"training": {"reg_lambda": True}}, "'training.reg_lambda'", id="reg_lambda-bool"),
            pytest.param({"training": {"negatives": "5"}}, "'training.negatives'", id="negatives-str"),
            pytest.param(
                {"features": {"dependency_features": "yes"}},
                "'features.dependency_features'",
                id="dependency_features-str",
            ),
            pytest.param({"variant": "RsRt"}, "'variant'", id="variant-str"),
            pytest.param({"variant": ["Rs", 1]}, "'variant'", id="variant-int-item"),
            pytest.param({"sweep_n": [5, 0]}, "'sweep_n'", id="sweep_n-zero"),
            pytest.param({"sweep_n": [5, True]}, "'sweep_n'", id="sweep_n-bool"),
            pytest.param({"schema": 3}, "'schema'", id="path-int"),
            # json writes and reads Infinity and NaN
            pytest.param({"training": {"reg_lambda": float("inf")}},
                         "'training.reg_lambda'", id="reg_lambda-inf"),
            pytest.param({"propagation": {"concept_score_floor": float("nan")}},
                         "'propagation.concept_score_floor'", id="concept_score_floor-nan"),
        ],
    )
    def test_wrongly_typed_value(self, run_config_file, tmp_path, capsys, patch, named):
        cfg = json.loads(run_config_file.read_text())
        cfg.update(patch)
        run_config_file.write_text(json.dumps(cfg))
        assert run(run_config_file, tmp_path / "out", "run") == 1
        err = capsys.readouterr().err
        assert named in err and "must be" in err

    @pytest.mark.parametrize(
        "section, values, message",
        [
            pytest.param("features", {"window": -2}, "window must be >= 0, got -2", id="window"),
            pytest.param("features", {"affix_min": 0}, "affix_min must be >= 1, got 0", id="affix_min"),
            pytest.param("features", {"affix_max": -1}, "affix_max must be >= 0, got -1", id="affix_max"),
            pytest.param("training", {"epochs": 0}, "epochs must be >= 1, got 0", id="epochs-0"),
            pytest.param("training", {"epochs": -3}, "epochs must be >= 1, got -3", id="epochs-neg"),
            pytest.param("training", {"negatives": -2}, "negatives must be >= 0, got -2", id="negatives"),
            pytest.param("training", {"rng_seed": -1}, "rng_seed must be >= 0, got -1", id="rng_seed"),
            pytest.param(
                "propagation", {"concept_top_k": -5}, "concept_top_k must be >= 0, got -5",
                id="concept_top_k",
            ),
        ],
    )
    def test_out_of_range_feature_config(
        self, run_config_file, tmp_path, capsys, section, values, message
    ):
        cfg = json.loads(run_config_file.read_text())
        cfg[section] = {**cfg.get(section, {}), **values}
        cfg["variant"] = ["Rs", "Cs", "Rt", "Ct"]  # concept_top_k cuts Ct
        run_config_file.write_text(json.dumps(cfg))
        assert run(run_config_file, tmp_path / "out", "run") == 1
        assert message in capsys.readouterr().err

    def test_negative_seed_flag_exits_1(self, run_config_file, tmp_path, capsys):
        assert run(run_config_file, tmp_path / "out", "--seed", "-1", "run") == 1
        assert "rng_seed must be >= 0, got -1" in capsys.readouterr().err

    def test_json_number_kinds_accepted(self, run_config_file):
        cfg = json.loads(run_config_file.read_text())
        cfg["training"] = {"negatives": None, "reg_lambda": 1}
        cfg["propagation"] = {"concept_score_floor": 0, "alpha": 0.2}
        config = RunConfig.from_dict(cfg)
        assert config.training.negatives is None and config.training.reg_lambda == 1
        assert config.propagation.alpha == 0.2

    def test_unconverged_propagation(self, run_config_file, tmp_path, capsys):
        cfg = json.loads(run_config_file.read_text())
        cfg["propagation"] = {"max_iters": 1}
        run_config_file.write_text(json.dumps(cfg))
        assert run(run_config_file, tmp_path / "out", "run") == 1
        assert "did not converge in 1 iterations" in capsys.readouterr().err

    def test_empty_positive_side_names_strategy_and_shortfall(
        self, bench0_config, tmp_path, capsys
    ):
        # no Cs mention of this relation comes from the target corpus
        cfg = json.loads(bench0_config.read_text())
        cfg["variant"] = ["Rs", "Cs"]
        cfg["training"] = {"strategy": "Target"}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg))
        assert run(config, tmp_path / "out", "run") == 1
        err = capsys.readouterr().err
        assert "relation 'conditionsThisMayPrevent' has an empty positive side" in err
        assert "found 0 of n=20 positives with strategy 'Target'" in err

    @pytest.mark.parametrize(
        "schema_obj, named",
        [
            pytest.param({"concepts": ["C"], "relations": [{"name": "a"}]},
                         "schema: missing required key 'relations[0].range_concept'",
                         id="no-range_concept"),
            pytest.param([], "schema must be a JSON object", id="list"),
            # the toy schema with a misspelt key: read as absent, it would
            # leave sideEffect without seeds and without a classifier
            pytest.param({"concepts": ["DiseaseOrMedicalCondition", "Symptom"], "relations": [
                {"name": "usedToTreat", "range_concept": "DiseaseOrMedicalCondition",
                 "section_titles": ["Uses"]},
                {"name": "conditionsThisMayPrevent", "range_concept": "DiseaseOrMedicalCondition",
                 "section_titles": ["Prevention"]},
                {"name": "sideEffect", "range_concept": "Symptom",
                 "section_title": ["Side Effects"]},
            ]}, "schema: unknown key 'relations[2].section_title'", id="key-typo"),
        ],
    )
    def test_malformed_schema_exits_1(self, run_config_file, tmp_path, capsys, schema_obj, named):
        cfg = json.loads(run_config_file.read_text())
        cfg["schema"] = str(tmp_path / "schema.json")
        (tmp_path / "schema.json").write_text(json.dumps(schema_obj))
        run_config_file.write_text(json.dumps(cfg))
        assert run(run_config_file, tmp_path / "out", "run") == 1
        assert named in capsys.readouterr().err

    def test_doc_id_in_both_corpora_exits_1(self, run_config_file, data_dir, tmp_path, capsys):
        target = tmp_path / "target.jsonl"
        target.write_text((data_dir / "target.jsonl").read_text().replace('"t2"', '"s2"'))
        cfg = json.loads(run_config_file.read_text())
        cfg["target_corpus"] = str(target)
        run_config_file.write_text(json.dumps(cfg))
        assert run(run_config_file, tmp_path / "out", "ingest") == 1
        assert (
            f"doc_id 's2' is in both {data_dir / 'structured.jsonl'} and {target}"
            in capsys.readouterr().err
        )
        assert not (tmp_path / "out" / "documents_structured.jsonl").exists()

    def test_ill_typed_token_exits_1(self, run_config_file, data_dir, tmp_path, capsys):
        doc = json.loads((data_dir / "target.jsonl").read_text().splitlines()[0])
        doc["sections"][0]["sentences"][0]["tokens"][2]["pos"] = 7
        (tmp_path / "target.jsonl").write_text(json.dumps(doc) + "\n")
        cfg = json.loads(run_config_file.read_text())
        cfg["target_corpus"] = str(tmp_path / "target.jsonl")
        run_config_file.write_text(json.dumps(cfg))
        assert run(run_config_file, tmp_path / "out", "ingest") == 1
        assert "line 1: token 2 field 'pos' must be a string, got 7" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, named",
        [
            pytest.param(lambda doc: doc["sections"][0]["sentences"][0]["tokens"].append("x"),
                         "line 2: token 5 must be an object, got 'x'", id="token"),
            pytest.param(lambda doc: doc.update(sections="Overview"),
                         "line 2: field 'sections' must be a list, got 'Overview'",
                         id="sections"),
            pytest.param(lambda doc: doc.update(title_entity=5),
                         "line 2: field 'title_entity' must be a string, got 5",
                         id="title_entity"),
            pytest.param(lambda doc: doc["sections"][0]["sentences"][0].update(
                np_chunks=[[3, 4]], coordinate_lists=[{"items": [[3, 4], [3, 4]],
                                                       "head": [5, 9]}]),
                         "line 2: coordinate list 0 field 'head' must be a span inside the "
                         "5-token sentence, got [5, 9]", id="list-head"),
        ],
    )
    def test_ill_shaped_corpus_exits_1(self, run_config_file, data_dir, tmp_path, capsys,
                                       edit, named):
        lines = (data_dir / "target.jsonl").read_text().splitlines()
        doc = json.loads(lines[0])
        doc["doc_id"] = "bad"
        edit(doc)
        (tmp_path / "target.jsonl").write_text("\n".join([lines[0], json.dumps(doc)]) + "\n")
        cfg = json.loads(run_config_file.read_text())
        cfg["target_corpus"] = str(tmp_path / "target.jsonl")
        run_config_file.write_text(json.dumps(cfg))
        assert run(run_config_file, tmp_path / "out", "run") == 1
        assert named in capsys.readouterr().err

    def test_unknown_command_exits_nonzero(self, run_config_file, tmp_path):
        with pytest.raises(SystemExit):
            run(run_config_file, tmp_path / "out", "bogus")


def test_seed_override_recorded_in_model(run_config_file, tmp_path):
    out = tmp_path / "out"
    assert run(run_config_file, out, "--seed", "99", "run") == 0
    model = json.loads((out / "model.json").read_text())
    assert model["train_config"]["rng_seed"] == 99
