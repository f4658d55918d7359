import hashlib
import json
import shutil
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from reldistill import pipeline
from reldistill.cli import main
from reldistill.mentions import LEGAL_VARIANTS, VariantSpec
from reldistill.pipeline import RunConfig
from reldistill.synthetic import generate_benchmark

from test_decode import json_values


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


def _json_edit(change):
    """The JSONL line edited as its decoded value."""
    return lambda line: json.dumps(change(json.loads(line)))


def _without(obj: dict, key: str) -> dict:
    return {k: v for k, v in obj.items() if k != key}


def _score(line: str, score: str) -> str:
    """A TSV artifact line with `score` as its last field."""
    return "\t".join([*line.split("\t")[:-1], score])


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

    def test_rerun_on_changed_inputs_retires_the_records_that_read_the_old_files(
        self, run_config_file, data_dir, tmp_path, capsys
    ):
        # `mentions` on two of the six triples writes other mention sets:
        # the `propagate` record read the old ones, and every later record
        # read a file that a retired stage wrote
        triples = tmp_path / "triples.tsv"
        shutil.copy(data_dir / "triples.tsv", triples)
        cfg = json.loads(run_config_file.read_text())
        run_config_file.write_text(json.dumps({**cfg, "triples": str(triples)}))
        out = tmp_path / "out"
        assert run(run_config_file, out, "run") == 0
        triples.write_text("".join(triples.read_text().splitlines(keepends=True)[:2]))
        assert run(run_config_file, out, "mentions") == 0
        capsys.readouterr()
        for command, filename, producer in (
            ("train", "ranking.tsv", "propagate"),
            ("sweep", "ranking.tsv", "propagate"),
            ("extract", "model.json", "train"),
        ):
            assert run(run_config_file, out, command) == 1
            assert capsys.readouterr().err == (
                f"error: artifact {filename!r} is not recorded as an output of the "
                f"{producer!r} stage in manifest.json; re-run {producer!r}\n"
            )
        for command in ("propagate", "train", "extract", "eval"):
            assert run(run_config_file, out, command) == 0

    def test_rerun_with_the_same_outputs_retires_nothing(self, run_config_file, tmp_path):
        out = tmp_path / "out"
        assert run(run_config_file, out, "run") == 0
        manifest = (out / "manifest.json").read_text()
        assert run(run_config_file, out, "mentions") == 0
        assert (out / "manifest.json").read_text() == manifest
        assert run(run_config_file, out, "train") == 0
        assert set(json.loads((out / "manifest.json").read_text())["stages"]) == {
            "ingest", "mentions", "propagate", "train", "extract", "eval"
        }

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
    @pytest.mark.parametrize(
        "spec", [VariantSpec(v) for v in LEGAL_VARIANTS], ids=lambda spec: spec.name
    )
    def test_sweep_rows(self, run_config_file, tmp_path, spec):
        # after a successful run, sweep succeeds on every legal variant: one
        # row per strategy the variant can feed and N of sweep_n, in order
        cfg = json.loads(run_config_file.read_text())
        cfg["variant"] = sorted(spec.include)
        run_config_file.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run(run_config_file, out, "run") == 0
        assert run(run_config_file, out, "sweep") == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "variant,strategy,n,precision,recall,f1"
        rows = [line.split(",") for line in lines[1:]]
        cells = product(spec.strategies, cfg["sweep_n"])
        assert [tuple(r[:3]) for r in rows] == [(spec.name, s, str(n)) for s, n in cells]
        for r in rows:
            assert 0.0 <= float(r[5]) <= 1.0

    def test_failed_cell_is_named(self, run_config_file, tmp_path, capsys):
        # the toy fixture has far fewer than 5000 unlabeled mentions
        cfg = json.loads(run_config_file.read_text())
        run_config_file.write_text(json.dumps({**cfg, "sweep_n": [5000]}))
        out = tmp_path / "out"
        assert run(run_config_file, out, "run") == 0
        capsys.readouterr()
        assert run(run_config_file, out, "sweep") == 1
        assert capsys.readouterr().err.startswith(
            "error: sweep cell RsRt/Both/N=5000: need 5000 negatives but only "
        )
        assert not (out / "sweep.csv").exists()


class TestErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        assert run(tmp_path / "no.json", tmp_path / "out", "run") == 1
        assert "error:" in capsys.readouterr().err

    def test_config_that_is_a_directory_exits_1(self, tmp_path, capsys):
        assert run(tmp_path, tmp_path / "out", "run") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(tmp_path) in err

    @pytest.mark.parametrize(
        "content, message",
        [
            pytest.param(b"{not json}\n", "invalid JSON (Expecting property name", id="syntax"),
            pytest.param(b'{"variant": "\xff"}\n', "invalid JSON ('utf-8' codec",
                         id="not-utf8"),
        ],
    )
    def test_config_that_is_not_json_exits_1(self, tmp_path, capsys, content, message):
        config = tmp_path / "config.json"
        config.write_bytes(content)
        assert run(config, tmp_path / "out", "run") == 1
        assert capsys.readouterr().err.startswith(f"error: run config {str(config)!r}: {message}")

    def test_corrupt_manifest_exits_1(self, run_config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(run_config_file, out, "ingest") == 0
        manifest = out / "manifest.json"
        manifest.write_text(manifest.read_text()[:-10])
        assert run(run_config_file, out, "mentions") == 1
        assert capsys.readouterr().err.startswith(
            f"error: manifest {str(manifest)!r}: invalid JSON ("
        )

    def test_corrupt_manifest_stops_ingest_before_it_writes(
        self, run_config_file, tmp_path, capsys
    ):
        out = tmp_path / "out"
        out.mkdir()
        manifest = out / "manifest.json"
        manifest.write_text("{")
        assert run(run_config_file, out, "ingest") == 1
        assert capsys.readouterr().err.startswith(
            f"error: manifest {str(manifest)!r}: invalid JSON ("
        )
        assert [p.name for p in out.iterdir()] == ["manifest.json"]

    def test_manifest_that_is_not_an_object_exits_1(self, run_config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(run_config_file, out, "ingest") == 0
        manifest = out / "manifest.json"
        manifest.write_text("[]\n")
        assert run(run_config_file, out, "mentions") == 1
        assert capsys.readouterr().err == (
            f"error: manifest {str(manifest)!r} must be a JSON object, got a list\n"
        )

    def test_mutated_manifest_or_model_exits_0_or_1(self, run_config_file, tmp_path, capsys):
        # one value or key of a file `run` wrote is replaced, dropped or
        # renamed; `extract` reads the manifest, its ingest and train records
        # and model.json, whose new sha256 goes into the manifest so that
        # the mutation reaches `load_model`
        done = tmp_path / "done"
        assert run(run_config_file, done, "run") == 0
        written = {name: json.loads((done / name).read_text())
                   for name in ("manifest.json", "model.json")}

        @st.composite
        def mutations(draw):
            name = draw(st.sampled_from(sorted(written)))
            obj = json.loads(json.dumps(written[name]))
            node = obj
            while True:
                key = draw(st.sampled_from(sorted(node)))
                if not (isinstance(node[key], dict) and node[key] and draw(st.booleans())):
                    break
                node = node[key]
            how = draw(st.sampled_from(["value", "drop", "rename"]))
            if how == "value":
                node[key] = draw(json_values)
            else:
                value = node.pop(key)
                if how == "rename":
                    node[key + "x"] = value
            return name, obj

        other_features = json.loads(json.dumps(written["model.json"]))
        other_features["feature_config"]["window"] += 1

        @example(("manifest.json", {}))
        @example(("manifest.json", {"stages": []}))
        @example(("manifest.json", {"stages": {"ingest": []}}))
        @example(("model.json", {}))
        @example(("model.json", other_features))  # well formed, but not the run config's
        @settings(max_examples=40, derandomize=True, deadline=None)
        @given(mutations())
        def check(mutation):
            name, obj = mutation
            out = tmp_path / "out"
            shutil.rmtree(out, ignore_errors=True)
            shutil.copytree(done, out)
            (out / name).write_text(json.dumps(obj))
            if name == "model.json":
                manifest = json.loads((out / "manifest.json").read_text())
                digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
                manifest["stages"]["train"]["outputs"][name] = digest
                (out / "manifest.json").write_text(json.dumps(manifest))
            code = run(run_config_file, out, "extract")
            err = capsys.readouterr().err
            assert code in (0, 1), err
            assert code == 0 or name in err, err

        check()

    @pytest.mark.parametrize(
        "filename, command, edit, named",
        [
            pytest.param("mentions_Rs.jsonl", "propagate",
                         _json_edit(lambda o: _without(o, "features")),
                         "line 1: missing key 'features'", id="no-features"),
            pytest.param("mentions_Rs.jsonl", "propagate",
                         _json_edit(lambda o: {**o, "features": list(o["features"])}),
                         "line 1: key 'features' must be an object of integer counts, got [",
                         id="features-list"),
            pytest.param("mentions_Rs.jsonl", "propagate",
                         _json_edit(lambda o: {**o, "features": {f: str(c) for f, c in
                                                                 o["features"].items()}}),
                         "line 1: key 'features' must be an object of integer counts, got {",
                         id="count-string"),
            # a feature table holds int64 counts
            pytest.param("mentions_Rs.jsonl", "propagate",
                         _json_edit(lambda o: {**o, "features": {f: 2**63 for f in o["features"]}}),
                         "line 1: key 'features' must be an object of integer counts, got {",
                         id="count-past-int64"),
            pytest.param("mentions_Rs.jsonl", "propagate", _json_edit(lambda o: {**o, "label": 1}),
                         "line 1: key 'label' must be a string, got 1", id="label-number"),
            pytest.param("mentions_Rs.jsonl", "propagate", _json_edit(lambda o: [o]),
                         "line 1: a mention must be an object, got [", id="line-list"),
            pytest.param("mentions_Rs.jsonl", "propagate",
                         _json_edit(lambda o: {**o, "surfaces": "x"}),
                         "line 1: key 'surfaces' must be a list of strings, got 'x'",
                         id="surfaces-string"),
            pytest.param("mentions_Rs.jsonl", "propagate", lambda line: line[:-1],
                         "line 1: invalid JSON (", id="not-json"),
            pytest.param("pool_target.jsonl", "train",
                         _json_edit(lambda o: _without(o, "mention_id")),
                         "line 1: missing key 'mention_id'", id="pool-no-mention-id"),
            pytest.param("ranking.tsv", "train", lambda line: _score(line, "abc"),
                         "line 1: expected a finite number, got 'abc'", id="ranking-word"),
            pytest.param("ranking.tsv", "train", lambda line: _score(line, "inf"),
                         "line 1: expected a finite number, got 'inf'", id="ranking-inf"),
            pytest.param("predictions.tsv", "eval", lambda line: _score(line, "abc"),
                         "line 1: expected a finite number, got 'abc'", id="predictions-word"),
            pytest.param("predictions.tsv", "eval", lambda line: _score(line, "nan"),
                         "line 1: expected a finite number, got 'nan'", id="predictions-nan"),
        ],
    )
    def test_malformed_artifact_line_exits_1(self, run_config_file, tmp_path, capsys,
                                             filename, command, edit, named):
        # the first line is rewritten and its file's new sha256 recorded, so
        # the line reaches the artifact's reader
        out = tmp_path / "out"
        assert run(run_config_file, out, "run") == 0
        path = out / filename
        first, *rest = path.read_text().splitlines(keepends=True)
        path.write_text("".join([edit(first.rstrip("\n")) + "\n", *rest]))
        manifest = json.loads((out / "manifest.json").read_text())
        producer = next(s for s in manifest["stages"].values() if filename in s["outputs"])
        producer["outputs"][filename] = hashlib.sha256(path.read_bytes()).hexdigest()
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert run(run_config_file, out, command) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: {named}")

    @pytest.mark.parametrize(
        "key, text, message",
        [
            # the concept seeds and gold are TSV too: only the path tells which is bad
            pytest.param("triples", "treats\taspirin\n",
                         "{path}: line 1: expected 3 tab-separated fields", id="triples-fields"),
            pytest.param("triples", "sideEffect\t \tnausea\n",
                         "{path}: line 1: empty subject or object", id="triples-empty-subject"),
            pytest.param("triples", "sideEffect\tmeloxicam\t\n",
                         "{path}: line 1: empty subject or object", id="triples-empty-object"),
            pytest.param("concept_seeds", "Symptom\t \n",
                         "{path}: line 1: empty instance", id="seeds-empty-instance"),
            pytest.param("gold", "t1\tcures\tnausea\n",
                         "{path}: line 1: unknown relation 'cures'", id="gold-unknown-relation"),
            pytest.param("gold", "", "{path}: gold set is empty", id="gold-empty"),
            # no drug of the corpora has a triple: Rs and Rt are both empty
            pytest.param("triples", "sideEffect\tnodrug\tnausea\n",
                         "{path}: Rs is empty: 0 of 1 triples have a subject that is a "
                         "structured document's title entity", id="triples-match-nothing"),
        ],
    )
    def test_bad_kb_or_gold_file_exits_1(self, run_config_file, tmp_path, capsys,
                                         key, text, message):
        path = tmp_path / f"{key}.tsv"
        path.write_text(text)
        cfg = json.loads(run_config_file.read_text())
        run_config_file.write_text(json.dumps({**cfg, key: str(path)}))
        assert run(run_config_file, tmp_path / "out", "run") == 1
        assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"

    def test_bad_structured_line_names_its_file(self, run_config_file, data_dir, tmp_path, capsys):
        # the target and eval corpora are well formed: only the path tells which is bad
        first, second = (data_dir / "structured.jsonl").read_text().splitlines()
        corpus = tmp_path / "structured.jsonl"
        bad = {**json.loads(second), "sections": "Overview"}
        corpus.write_text(first + "\n" + json.dumps(bad) + "\n")
        cfg = json.loads(run_config_file.read_text())
        run_config_file.write_text(json.dumps({**cfg, "structured_corpus": str(corpus)}))
        assert run(run_config_file, tmp_path / "out", "run") == 1
        assert capsys.readouterr().err == (
            f"error: {corpus}: line 2: field 'sections' must be a list, got 'Overview'\n"
        )

    @pytest.mark.parametrize("key", ["target_corpus", "triples", "concept_seeds", "gold"])
    def test_input_that_is_not_utf8_names_its_file(self, run_config_file, tmp_path, capsys,
                                                   key):
        cfg = json.loads(run_config_file.read_text())
        bad = tmp_path / f"bad-{key}"
        bad.write_bytes(Path(cfg[key]).read_bytes() + b"\xff")
        run_config_file.write_text(json.dumps({**cfg, key: str(bad)}))
        assert run(run_config_file, tmp_path / "out", "run") == 1
        assert capsys.readouterr().err == f"error: {bad}: not UTF-8 text (invalid start byte)\n"

    def test_artifact_that_is_not_utf8_names_its_file(self, run_config_file, tmp_path, capsys):
        # the new sha256 is recorded, so the bytes reach the artifact's reader
        out = tmp_path / "out"
        assert run(run_config_file, out, "run") == 0
        path = out / "ranking.tsv"
        path.write_bytes(path.read_bytes() + b"\xff")
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["stages"]["propagate"]["outputs"]["ranking.tsv"] = (
            hashlib.sha256(path.read_bytes()).hexdigest()
        )
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert run(run_config_file, out, "train") == 1
        assert capsys.readouterr().err == f"error: {path}: not UTF-8 text (invalid start byte)\n"

    def test_two_inputs_of_one_stage_with_one_file_name_exit_1(
        self, run_config_file, tmp_path, capsys
    ):
        # the stage record keys its inputs by file name, so one hash would be lost
        cfg = json.loads(run_config_file.read_text())
        for key, folder in (("triples", "a"), ("concept_seeds", "b")):
            (tmp_path / folder).mkdir()
            shutil.copy(cfg[key], tmp_path / folder / "kb.tsv")
            cfg[key] = str(tmp_path / folder / "kb.tsv")
        run_config_file.write_text(json.dumps(cfg))
        assert run(run_config_file, tmp_path / "out", "run") == 1
        assert capsys.readouterr().err == (
            "error: two different inputs of one stage are named 'kb.tsv'; rename one\n"
        )

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_out_that_is_a_file_exits_1(self, run_config_file, tmp_path, capsys, under):
        blocker = tmp_path / "out"
        blocker.write_text("kept\n")
        out = blocker / "sub" if under else blocker
        assert run(run_config_file, out, "run") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(out) in err
        assert blocker.read_text() == "kept\n"

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
            # an empty grid would write a header-only sweep.csv
            pytest.param({"sweep_n": []}, "'sweep_n'", id="sweep_n-empty"),
            # a repeated N fits every cell and writes every row twice
            pytest.param({"sweep_n": [3, 3]}, "'sweep_n'", id="sweep_n-repeated"),
            # a repeated set name would run as RsRt under a config hash of its own
            pytest.param({"variant": ["Rs", "Rs", "Rt"]}, "'variant'", id="variant-repeated"),
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

    @pytest.mark.parametrize("command", ["ingest", "mentions", "propagate", "eval", "sweep"])
    def test_illegal_variant_refused_by_every_command(
        self, run_config_file, tmp_path, capsys, command
    ):
        # the run config is refused as it is decoded, before any artifact is looked for
        cfg = json.loads(run_config_file.read_text())
        cfg["variant"] = ["Rt", "Ct"]
        run_config_file.write_text(json.dumps(cfg))
        assert run(run_config_file, tmp_path / "out", command) == 1
        err = capsys.readouterr().err
        assert "'variant' must be" in err and "['Rt', 'Ct']" in err

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
            pytest.param("propagation", {"alpha": 1.0}, "alpha must be in (0,1), got 1.0", id="alpha"),
            pytest.param("propagation", {"max_iters": 0}, "max_iters must be >=1 and tolerance > 0",
                         id="max_iters"),
            pytest.param("propagation", {"tolerance": 0.0},
                         "max_iters must be >=1 and tolerance > 0", id="tolerance"),
            pytest.param("training", {"strategy": "Neither"}, "unknown strategy 'Neither'",
                         id="strategy"),
            pytest.param("training", {"calibration": "sigmoid"}, "unknown calibration 'sigmoid'",
                         id="calibration"),
            pytest.param("training", {"reg_lambda": 0.0}, "reg_lambda must be > 0", id="reg_lambda"),
            # every step size's denominator overflows; 1/5e-324 is already inf
            pytest.param("training", {"reg_lambda": 1e308},
                         "reg_lambda 1e+308 makes the SGD step sizes overflow or vanish over 50 "
                         "epochs of n=", id="reg_lambda-overflow"),
            pytest.param("training", {"reg_lambda": 5e-324},
                         "reg_lambda 5e-324 makes the SGD step sizes overflow or vanish over 50 "
                         "epochs of n=", id="reg_lambda-vanish"),
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
            # the toy schema with its first relation appended again
            pytest.param({"concepts": ["DiseaseOrMedicalCondition", "Symptom"], "relations": [
                {"name": "usedToTreat", "range_concept": "DiseaseOrMedicalCondition"},
                {"name": "sideEffect", "range_concept": "Symptom"},
                {"name": "usedToTreat", "range_concept": "DiseaseOrMedicalCondition"},
            ]}, "schema: 'relations[2].name': duplicate relation 'usedToTreat'",
                id="duplicate-relation"),
        ],
    )
    def test_malformed_schema_exits_1(self, run_config_file, tmp_path, capsys, schema_obj, named):
        cfg = json.loads(run_config_file.read_text())
        cfg["schema"] = str(tmp_path / "schema.json")
        (tmp_path / "schema.json").write_text(json.dumps(schema_obj))
        run_config_file.write_text(json.dumps(cfg))
        assert run(run_config_file, tmp_path / "out", "run") == 1
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, stage", [("schema", "mentions"), ("gold", "eval"), ("gold", "sweep")]
    )
    def test_input_that_became_a_directory_exits_1(
        self, run_config_file, tmp_path, capsys, name, stage
    ):
        # every stage that reads a run-config input checks it, not only ingest
        cfg = json.loads(run_config_file.read_text())
        path = tmp_path / Path(cfg[name]).name
        shutil.copy(cfg[name], path)
        cfg[name] = str(path)
        run_config_file.write_text(json.dumps(cfg))
        assert run(run_config_file, tmp_path / "out", "run") == 0
        path.unlink()
        path.mkdir()
        capsys.readouterr()
        assert run(run_config_file, tmp_path / "out", stage) == 1
        assert f"error: config path {name} does not exist: {path}" in capsys.readouterr().err

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
            pytest.param(lambda doc: doc["sections"][0]["sentences"][0].update(
                np_chunks=[[0, 1], [3, 4]], coordinate_lists=[{"items": [[3, 4], [0, 1]]}]),
                         "line 2: coordinate list 0 field 'items' must be ascending np_chunks "
                         "that do not overlap, got [[3, 4], [0, 1]]", id="list-items-descending"),
            pytest.param(lambda doc: doc["sections"][0]["sentences"][0].pop("tokens"),
                         "line 2: sentence missing 'tokens'", id="no-tokens"),
            pytest.param(lambda doc: doc["sections"][0]["sentences"][0]["tokens"][0].pop("surface"),
                         "line 2: token 0 missing 'surface'", id="no-surface"),
            pytest.param(lambda doc: doc["sections"][0]["sentences"][0]["tokens"][0].update(
                dep_head=9), "line 2: token 0 has invalid dep_head 9", id="dep_head"),
            pytest.param(lambda doc: doc["sections"][0]["sentences"][0].update(np_chunks=[[3, 9]]),
                         "line 2: np_chunk (3,9) out of range", id="np_chunk-range"),
            pytest.param(lambda doc: doc.pop("title_entity"),
                         "line 2: missing 'title_entity'", id="no-title_entity"),
            pytest.param(lambda doc: doc.update(title_entity=" "),
                         "line 2: empty title_entity", id="empty-title_entity"),
            pytest.param(lambda doc: doc["sections"][0].update(title=" "),
                         "line 2: empty section title", id="empty-section-title"),
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

