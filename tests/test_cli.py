import json

import pytest

from reldistill.cli import main
from reldistill.pipeline import RunConfig


def run(config, out, *args):
    return main(["--config", str(config), "--out", str(out), *args])


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

    def test_staged_commands_match_run(self, run_config_file, tmp_path):
        staged, whole = tmp_path / "staged", tmp_path / "whole"
        for cmd in ("ingest", "mentions", "propagate", "train", "extract", "eval"):
            assert run(run_config_file, staged, cmd) == 0
        assert run(run_config_file, whole, "run") == 0
        for name in ("ranking.tsv", "model.json", "predictions.tsv", "report.json"):
            assert (staged / name).read_bytes() == (whole / name).read_bytes()

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

    def test_config_change_invalidates_artifacts(self, run_config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(run_config_file, out, "run") == 0
        cfg = json.loads(run_config_file.read_text())
        cfg["training"]["n"] = 2
        run_config_file.write_text(json.dumps(cfg))
        assert run(run_config_file, out, "train") == 1
        assert "different config" in capsys.readouterr().err


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
        ],
    )
    def test_wrongly_typed_value(self, run_config_file, tmp_path, capsys, patch, named):
        cfg = json.loads(run_config_file.read_text())
        cfg.update(patch)
        run_config_file.write_text(json.dumps(cfg))
        assert run(run_config_file, tmp_path / "out", "run") == 1
        err = capsys.readouterr().err
        assert named in err and "must be" in err

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

    def test_unknown_command_exits_nonzero(self, run_config_file, tmp_path):
        with pytest.raises(SystemExit):
            run(run_config_file, tmp_path / "out", "bogus")


def test_seed_override_recorded_in_model(run_config_file, tmp_path):
    out = tmp_path / "out"
    assert run(run_config_file, out, "--seed", "99", "run") == 0
    model = json.loads((out / "model.json").read_text())
    assert model["train_config"]["rng_seed"] == 99
