import copy
import gc
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from corefrank import cli, corpus, feats, score, synth
from corefrank.cli import ExperimentConfig, FeatureTypeGroup

import reference_ablation as ref
from conftest import make_doc


def run(argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def small_corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "corpus.jsonl"
    docs = synth.synth_corpus(30, seed=13)
    corpus.save_corpus(docs, str(path))
    return str(path)


class TestBasicCommands:
    def test_synth_and_validate(self, tmp_path, capsys):
        out = tmp_path / "c.jsonl"
        assert run(["synth", "--docs", 8, "--seed", 3, "--out", out]) == 0
        assert run(["validate", out]) == 0
        captured = capsys.readouterr().out
        assert "ok: 8 documents" in captured

    def test_synth_deterministic(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        run(["synth", "--docs", 6, "--seed", 9, "--out", a])
        run(["synth", "--docs", 6, "--seed", 9, "--out", b])
        assert a.read_bytes() == b.read_bytes()

    def test_validate_bad_file_machine_readable_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert run(["validate", bad]) == 1
        err = capsys.readouterr().err
        record = json.loads(err)
        assert record["error"] == "CorpusError"

    def test_score_identical_files(self, small_corpus_path, capsys, tmp_path):
        assert run(["score", small_corpus_path, small_corpus_path]) == 0
        out = capsys.readouterr().out
        assert "bcubed   R=1.0000 P=1.0000 F=1.0000" in out
        assert "ceaf     R=1.0000 P=1.0000 F=1.0000" in out

    def test_score_single_metric_flag(self, small_corpus_path, capsys, tmp_path):
        assert run(["score", "--metric", "bcubed", small_corpus_path, small_corpus_path,
                    "--out", tmp_path / "r.json"]) == 0
        out = capsys.readouterr().out
        assert "bcubed   R=1.0000 P=1.0000 F=1.0000" in out
        assert "ceaf" not in out

    def test_parser_keeps_no_state_between_calls(self, small_corpus_path, capsys):
        """One parser serves every call: a --metric of one call does not
        carry over to the next."""
        outputs = []
        for metric_flags in (["--metric", "ceaf"], []):
            assert run(["score", *metric_flags, small_corpus_path, small_corpus_path]) == 0
            out = capsys.readouterr().out
            outputs.append(["bcubed   R=1.0000" in out, "ceaf     R=1.0000" in out])
        assert outputs == [[False, True], [True, True]]

    def test_import_loads_no_scipy(self):
        """The CLI's import path leaves scipy unloaded and loads numpy.random
        itself, so no command pays for a first import."""
        code = ("import sys\nimport corefrank.cli\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), 'numpy.random' in sys.modules)")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1])),
            capture_output=True, text=True, timeout=120, check=True,
        )
        assert proc.stdout.split() == ["[]", "True"]


class TestScoreAndValidateInputs:
    @pytest.mark.parametrize(
        "clusters, value",
        [([[0, 2, 5], [True], [3], [4]], "True"), ([[0.0, 2.0, 5.0], [1.0], [3.0], [4.0]], "0.0")],
        ids=["bool", "float"],
    )
    def test_validate_rejects_non_integer_cluster_member(self, fig1, tmp_path, capsys, clusters, value):
        path = tmp_path / "bad.jsonl"
        rec = {**corpus.doc_to_record(fig1), "clusters": clusters}
        path.write_text(json.dumps(corpus.doc_to_record(fig1)) + "\n" + json.dumps(rec) + "\n")
        assert run(["validate", path]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record == {
            "error": "CorpusError",
            "detail": f"line 2: doc 'fig1': invariant 'cluster members are integers' violated: {value}",
        }

    def test_score_rejects_non_integer_response_member(self, fig1, tmp_path, capsys):
        key = tmp_path / "key.jsonl"
        corpus.save_corpus([fig1], str(key))
        rec = corpus.partition_doc_to_record(corpus.key_partition_doc(fig1))
        rec["clusters"] = [[0, 2, 5], [True], [3], [4]]
        response = tmp_path / "response.jsonl"
        response.write_text(json.dumps(rec) + "\n")
        assert run(["score", key, response]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "CorpusError"
        assert record["detail"].startswith("line 1: doc 'fig1': invariant 'cluster members are integers'")

    @pytest.mark.parametrize("first", ["5", "{bad"], ids=["number", "broken-json"])
    def test_score_malformed_first_key_line_names_the_line(self, fig1, tmp_path, capsys, first):
        key = tmp_path / "key.jsonl"
        key.write_text(first + "\n" + json.dumps(corpus.doc_to_record(fig1)) + "\n")
        response = tmp_path / "response.jsonl"
        corpus.save_partition_file([corpus.key_partition_doc(fig1)], str(response))
        assert run(["score", key, response]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "CorpusError"
        assert record["detail"].startswith("line 1: ")

    def test_score_key_corpus_after_blank_line_is_checked_as_a_corpus(self, fig1, tmp_path, capsys):
        rec = corpus.doc_to_record(fig1)
        rec["mentions"][1]["mtype"] = "BOGUS"
        key = tmp_path / "key.jsonl"
        key.write_text("\n" + json.dumps(rec) + "\n")
        response = tmp_path / "response.jsonl"
        corpus.save_partition_file([corpus.key_partition_doc(fig1)], str(response))
        assert run(["score", key, response]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "CorpusError"
        assert record["detail"].startswith("line 2: doc 'fig1': invariant 'mtype is a known value'")

    def test_validate_rejects_repeated_doc_id(self, fig1, tmp_path, capsys):
        path = tmp_path / "corpus.jsonl"
        line = json.dumps(corpus.doc_to_record(fig1)) + "\n"
        path.write_text(line + "\n" + line)
        assert run(["validate", path]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record == {"error": "CorpusError", "detail": "line 3: doc 'fig1': doc_id already used on line 1"}

    def test_score_rejects_repeated_response_doc_id(self, tmp_path, capsys):
        d = make_doc("d", [("Acme", "PROPER", {}), ("Acme", "PROPER", {})], [[0, 1]])
        e = make_doc("e", [("Bolt", "PROPER", {}), ("it", "PRONOUN", {})], [[0], [1]])
        key = tmp_path / "key.jsonl"
        corpus.save_corpus([d, e], str(key))
        response = tmp_path / "response.jsonl"
        corpus.save_partition_file([corpus.key_partition_doc(d)] * 2, str(response))
        assert run(["score", key, response]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record == {"error": "CorpusError", "detail": "line 2: doc 'd': doc_id already used on line 1"}

    def test_score_rejects_key_document_missing_from_response(self, tmp_path, capsys):
        d = make_doc("d", [("Acme", "PROPER", {}), ("Acme", "PROPER", {})], [[0, 1]])
        e = make_doc("e", [("Bolt", "PROPER", {}), ("it", "PRONOUN", {})], [[0], [1]])
        key = tmp_path / "key.jsonl"
        corpus.save_corpus([d, e], str(key))
        response = tmp_path / "response.jsonl"
        corpus.save_partition_file([corpus.key_partition_doc(d)], str(response))
        assert run(["score", key, response]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record == {"error": "ValueError", "detail": "key document 'e' missing from the response file"}

    def test_repeated_mention_id_in_partition_record_rejected(self, tmp_path, capsys):
        rec = {"doc_id": "d", "mentions": [{"id": 0, "sent": 0, "start": 0, "end": 1},
                                           {"id": 0, "sent": 0, "start": 1, "end": 2}], "clusters": [[0]]}
        response = tmp_path / "response.jsonl"
        response.write_text(json.dumps(rec) + "\n")
        assert run(["score", response, response]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record == {"error": "CorpusError", "detail": "line 1: doc 'd': mention id 0 is used twice"}

    def test_validate_rejects_two_mentions_on_one_span(self, fig1, tmp_path, capsys):
        rec = corpus.doc_to_record(make_doc("d", [("Acme", "PROPER", {}), ("Acme", "PROPER", {})]))
        rec["mentions"][1]["sent"] = 0
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps(corpus.doc_to_record(fig1)) + "\n" + json.dumps(rec) + "\n")
        assert run(["validate", path]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record == {
            "error": "CorpusError",
            "detail": "line 2: doc 'd': invariant 'mention spans are distinct' violated at mention 1: "
                      "span (0, 0, 1) is also mention 0",
        }

    def test_score_rejects_two_partition_mentions_on_one_span(self, tmp_path, capsys):
        rec = {"doc_id": "d", "mentions": [{"id": 0, "sent": 0, "start": 0, "end": 1},
                                           {"id": 1, "sent": 0, "start": 0, "end": 1}], "clusters": [[0], [1]]}
        response = tmp_path / "response.jsonl"
        response.write_text(json.dumps(rec) + "\n")
        assert run(["score", response, response]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record == {
            "error": "CorpusError",
            "detail": "line 1: doc 'd': invariant 'mention spans are distinct' violated at mention 1: "
                      "span (0, 0, 1) is also mention 0",
        }

    @pytest.mark.parametrize("field, value, span", [
        ("start", -1, (1, -1, 1)), ("end", -1, (1, 0, -1)), ("end", 0, (1, 0, 0)), ("start", 2, (1, 2, 1)),
        ("sent", -1, (-1, 0, 1)),
    ], ids=["start-negative", "end-negative", "empty", "reversed", "sent-negative"])
    def test_score_rejects_response_span_out_of_range(self, tmp_path, capsys, field, value, span):
        d = make_doc("d", [("Acme", "PROPER", {}), ("Acme", "PROPER", {})], [[0, 1]])
        key = tmp_path / "key.jsonl"
        corpus.save_corpus([d], str(key))
        rec = corpus.partition_doc_to_record(corpus.key_partition_doc(d))
        rec["mentions"][1][field] = value
        response = tmp_path / "response.jsonl"
        response.write_text(json.dumps(rec) + "\n")
        assert run(["score", key, response]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record == {
            "error": "CorpusError",
            "detail": f"line 1: doc 'd': invariant 'span is a non-empty token range' violated at mention 1: {span}",
        }


class TestExperimentFlagsChecked:
    """--c, --epochs, --seed and --unseen-rate are checked for every command
    and family, not only where a trainer or the unseen marking reads them."""

    @pytest.mark.parametrize("family", sorted(cli.FAMILY_CODES))
    @pytest.mark.parametrize("command", ["train", "crossval"])
    @pytest.mark.parametrize("flag, value, detail", [
        ("--unseen-rate", "5", "unseen_rate must be in [0, 1], got 5.0"),
        ("--c", "-1", "C must be a positive finite number, got -1.0"),
        ("--epochs", "0", "epochs must be >= 1, got 0"),
        ("--seed", "-1", "seed must be >= 0, got -1"),
    ], ids=["unseen-rate", "c", "epochs", "seed"])
    def test_bad_value_rejected(self, small_corpus_path, tmp_path, capsys, family, command, flag, value, detail):
        out = tmp_path / "out.json"
        argv = [command, small_corpus_path, "--family", family, "--features", "conventional", flag, value]
        assert run([*argv, "--out", out]) == 1
        assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "detail": detail}
        assert not out.exists()

    @pytest.mark.parametrize("family, c, detail", [
        ("mp", "1e308", "C = 1e+308 over 95 training units gives the regularization 1/(C*units) = 0.0, "
                        "not a positive finite number"),
        ("mp", "1e-320", "C = 1e-320 over 95 training units gives the regularization 1/(C*units) = inf, "
                         "not a positive finite number"),
        ("mp", "1e305", "training diverged with C = 1e+305 over 95 training units: no finite objective"),
        ("cr", "1e305", "training diverged with C = 1e+305 over 95 training units: no finite objective"),
    ], ids=["lam-zero", "lam-inf", "objective-inf", "objective-nan"])
    def test_extreme_c_rejected_by_the_trainer(self, tmp_path, capsys, family, c, detail):
        """A C that passes the positive-finite check, but whose 1/(C*units)
        is 0 or infinite, or whose steps overflow so that no epoch's
        objective is finite (inf for mp's anaphoricity model, NaN for cr)."""
        data, out = tmp_path / "s10.jsonl", tmp_path / "model.json"
        assert run(["synth", "--docs", 10, "--seed", 1, "--out", data]) == 0
        capsys.readouterr()
        argv = ["train", data, "--family", family, "--loss", "log", "--features", "conventional", "--epochs", 2]
        assert run([*argv, "--c", c, "--out", out]) == 1
        assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "detail": detail}
        assert not out.exists()

    @pytest.mark.parametrize("family", ["mp", "cr"])
    def test_diverging_training_writes_one_error_line(self, tmp_path, family):
        """The overflowing steps print no RuntimeWarning before the error
        record, with Python's default warning filters."""
        data = tmp_path / "s10.jsonl"
        assert run(["synth", "--docs", 10, "--seed", 1, "--out", data]) == 0
        argv = ["train", str(data), "--family", family, "--loss", "log", "--features", "conventional",
                "--epochs", "2", "--c", "1e305", "--out", str(tmp_path / "model.json")]
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-m", "corefrank.cli", *argv],
            env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1])),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        (line,) = proc.stderr.splitlines()
        assert json.loads(line)["detail"].startswith("training diverged with C = 1e+305")


class TestTrainResolveScore:
    def test_full_pipeline(self, small_corpus_path, tmp_path, capsys):
        bundle_path = tmp_path / "model.json"
        resp_path = tmp_path / "resp.jsonl"
        report_path = tmp_path / "report.json"
        assert run([
            "train", small_corpus_path, "--family", "cr", "--features", "combined",
            "--anaph", "joint", "--epochs", 20, "--seed", 4, "--out", bundle_path,
        ]) == 0
        assert run(["resolve", small_corpus_path, "--model", bundle_path, "--out", resp_path]) == 0
        assert run([
            "score", small_corpus_path, resp_path, "--out", report_path,
        ]) == 0
        report = json.loads(report_path.read_text())
        assert report["bcubed"]["f1"] > 0.9  # trained and tested on the same docs
        assert len(report["per_doc"]) == 30

    def test_resolve_independent_of_hash_seed(self, tmp_path):
        """The train bundles, the resolve and ilp-resolve outputs and the
        ablate report are byte-identical under two string-hash seeds: cr
        and mr decode from string-keyed model tables, and ilp-resolve from
        an mp one."""
        docs = [*synth.synth_corpus(12, seed=21), *synth.synth_corpus(1, seed=8, mentions_low=30, mentions_high=30)]
        corpus_path = tmp_path / "c.jsonl"
        corpus.save_corpus(docs, str(corpus_path))
        src = Path(cli.__file__).resolve().parents[1]
        outputs = []
        names = ("m.json", "r.jsonl", "a.json", "mp.json", "ilp.jsonl", "mr.json", "mr.jsonl")
        for hash_seed in ("1", "2"):
            bundle, out, ablate, mp, ilp_out, mr, mr_out = (tmp_path / f"{name}{hash_seed}" for name in names)
            commands = [["train", corpus_path, "--epochs", 5, "--out", bundle],
                        ["resolve", corpus_path, "--model", bundle, "--out", out],
                        ["ablate", corpus_path, "--epochs", 2, "--folds", 3, "--out", ablate],
                        ["train", corpus_path, "--family", "mp", "--loss", "log", "--features", "conventional",
                         "--epochs", 5, "--out", mp],
                        ["ilp-resolve", corpus_path, "--model", mp, "--out", ilp_out],
                        ["train", corpus_path, "--family", "mr", "--epochs", 5, "--out", mr],
                        ["resolve", corpus_path, "--model", mr, "--out", mr_out]]
            # one process per hash seed runs every command
            script = "import json, sys\nfrom corefrank import cli\nfor argv in json.loads(sys.argv[1]):\n" \
                     "    assert cli.main(argv) == 0"
            subprocess.run(
                [sys.executable, "-c", script, json.dumps([[str(a) for a in argv] for argv in commands])],
                env=dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(src)),
                check=True,
                capture_output=True,
            )
            outputs.append([path.read_bytes() for path in (bundle, out, ablate, mp, ilp_out, mr, mr_out)])
        assert outputs[0] == outputs[1]

    def test_memory_flat_across_repeated_resolves(self):
        docs = synth.synth_corpus(40, seed=7)
        bundle = cli.train_bundle(docs[:20], ExperimentConfig(family="cr", features=feats.COMBINED, epochs=3))
        blocks = []
        for _ in range(5):
            cli.resolve_docs(docs[20:], bundle)
            gc.collect()
            blocks.append(sys.getallocatedblocks())
        assert blocks[4] - blocks[1] < 1000, blocks

    def test_input_files_not_mutated(self, small_corpus_path, tmp_path):
        before = Path(small_corpus_path).read_bytes()
        bundle_path = tmp_path / "m.json"
        run(["train", small_corpus_path, "--family", "mp", "--features", "conventional",
             "--epochs", 5, "--out", bundle_path])
        assert Path(small_corpus_path).read_bytes() == before

    def test_pipeline_architecture_bundle(self, small_corpus_path, tmp_path):
        bundle_path = tmp_path / "mr.json"
        assert run([
            "train", small_corpus_path, "--family", "mr", "--features", "conventional",
            "--anaph", "pipeline", "--epochs", 10, "--out", bundle_path,
        ]) == 0
        bundle = cli.load_bundle(str(bundle_path))
        assert bundle.anaph_model is not None
        spec = bundle.resolver_spec()
        assert spec.anaph_model is not None

    def test_dump_instances(self, small_corpus_path, tmp_path):
        bundle_path = tmp_path / "m.json"
        dump_path = tmp_path / "instances.jsonl"
        run(["train", small_corpus_path, "--family", "mp", "--features", "conventional",
             "--epochs", 2, "--out", bundle_path, "--dump-instances", dump_path])
        lines = dump_path.read_text().splitlines()
        assert lines
        record = json.loads(lines[0])
        assert set(record) == {"group", "label", "features"}

    def test_dump_instances_head_match_rejected_before_writing(self, small_corpus_path, tmp_path, capsys):
        bundle_path = tmp_path / "m.json"
        dump_path = tmp_path / "instances.jsonl"
        assert run(["train", small_corpus_path, "--family", "hm", "--out", bundle_path,
                    "--dump-instances", dump_path]) == 1
        assert "not trainable" in json.loads(capsys.readouterr().err)["detail"]
        assert not bundle_path.exists()
        assert not dump_path.exists()

    def test_dump_instances_match_model_vocabulary(self, tmp_path):
        # every common noun replaced: the training vocabulary is empty, and
        # the dump must still carry the replaced (UNSEEN) features
        specs = [("the airline", "COMMON", {}), ("the carrier", "COMMON", {}), ("the airline", "COMMON", {})]
        docs = [make_doc(f"d{i}", specs, clusters=[[0, 2], [1]]) for i in range(3)]
        corpus_path = tmp_path / "common.jsonl"
        corpus.save_corpus(docs, str(corpus_path))
        bundle_path = tmp_path / "m.json"
        dump_path = tmp_path / "instances.jsonl"
        assert run(["train", corpus_path, "--family", "mr", "--features", "lexical", "--unseen-rate", 1.0,
                    "--epochs", 2, "--out", bundle_path, "--dump-instances", dump_path]) == 0
        vocab = set(cli.load_bundle(str(bundle_path)).coref_model.meta["feature_vocab"])
        dumped = {name for line in dump_path.read_text().splitlines()
                  for name, _ in json.loads(line)["features"]}
        assert dumped
        assert dumped <= vocab

    def test_ilp_resolve(self, tmp_path, capsys):
        docs = synth.synth_corpus(12, seed=6, mentions_low=3, mentions_high=6)
        corpus_path = tmp_path / "small.jsonl"
        corpus.save_corpus(docs, str(corpus_path))
        bundle_path = tmp_path / "mp.json"
        resp_path = tmp_path / "resp.jsonl"
        assert run([
            "train", corpus_path, "--family", "mp", "--loss", "log",
            "--features", "conventional", "--epochs", 20, "--out", bundle_path,
        ]) == 0
        assert run([
            "ilp-resolve", corpus_path, "--model", bundle_path, "--out", resp_path,
        ]) == 0
        responses = corpus.load_partition_file(str(resp_path))
        assert len(responses) == 12

    def test_ilp_resolve_default_flags(self, small_corpus_path, tmp_path, capsys):
        bundle_path = tmp_path / "mp.json"
        resp_path = tmp_path / "resp.jsonl"
        assert run([
            "train", small_corpus_path, "--family", "mp", "--loss", "log",
            "--features", "conventional", "--epochs", 5, "--out", bundle_path,
        ]) == 0
        assert run([
            "ilp-resolve", small_corpus_path, "--model", bundle_path, "--out", resp_path,
        ]) == 0
        assert len(corpus.load_partition_file(str(resp_path))) == 30
        capsys.readouterr()
        assert run([
            "ilp-resolve", small_corpus_path, "--model", bundle_path, "--max-vars", 5,
            "--out", resp_path,
        ]) == 1
        record = json.loads(capsys.readouterr().err)
        first_doc = corpus.load_corpus(small_corpus_path)[0].doc_id
        assert first_doc in record["detail"]

    @pytest.mark.parametrize("value", [0, -3])
    def test_synth_docs_below_one_rejected(self, value, tmp_path, capsys):
        out = tmp_path / "c.jsonl"
        with pytest.raises(SystemExit) as exc:
            run(["synth", "--docs", value, "--out", out])
        assert exc.value.code == 2
        assert "--docs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--pronoun-rate", -1), ("--alias-rate", 7), ("--alias-rate", "nan")])
    def test_synth_rate_outside_unit_interval_rejected(self, flag, value, tmp_path, capsys):
        out = tmp_path / "c.jsonl"
        with pytest.raises(SystemExit) as exc:
            run(["synth", "--docs", 2, flag, value, "--out", out])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["crossval", "ablate", "adapt"])
    @pytest.mark.parametrize("folds", [0, -2, 1])
    def test_folds_below_two_rejected(self, small_corpus_path, tmp_path, capsys, command, folds):
        out = tmp_path / "report.json"
        assert run([command, small_corpus_path, "--family", "mp", "--features", "conventional",
                    "--epochs", 1, "--folds", folds, "--out", out]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ValueError"
        assert record["detail"] == f"folds must be >= 2, got {folds}"
        assert not out.exists()

    @pytest.mark.parametrize("value", [0, -5])
    def test_ilp_max_vars_below_one_rejected(self, value, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["ilp-resolve", tmp_path / "c.jsonl", "--model", tmp_path / "m.json",
                 "--max-vars", value, "--out", tmp_path / "r.jsonl"])
        assert exc.value.code == 2
        assert "--max-vars" in capsys.readouterr().err

    def test_ilp_requires_log_mention_pair(self, small_corpus_path, tmp_path):
        bundle_path = tmp_path / "cr.json"
        run(["train", small_corpus_path, "--family", "cr", "--features", "conventional",
             "--epochs", 2, "--out", bundle_path])
        assert run([
            "ilp-resolve", small_corpus_path, "--model", bundle_path, "--out", tmp_path / "r.jsonl",
        ]) == 1

    def test_classes_command(self, small_corpus_path, tmp_path, capsys):
        bundle_path = tmp_path / "m.json"
        run(["train", small_corpus_path, "--family", "mp", "--features", "conventional",
             "--epochs", 10, "--out", bundle_path])
        out_path = tmp_path / "classes.json"
        assert run(["classes", small_corpus_path, "--model", bundle_path, "--out", out_path]) == 0
        rows = json.loads(out_path.read_text())["classes"]
        assert set(rows) == set(score.RESOLUTION_CLASSES)


class TestCrossval:
    def test_fold_structure(self):
        docs = synth.synth_corpus(30, seed=2)
        assignment = cli.stratified_folds(docs, 5, seed=1)
        assert len(assignment) == len(docs)
        by_source = {}
        for doc, fold in zip(docs, assignment):
            by_source.setdefault(doc.source, []).append(fold)
        for source, folds in by_source.items():
            sizes = [folds.count(f) for f in range(5)]
            assert max(sizes) - min(sizes) <= 1

    def test_every_doc_in_exactly_one_test_fold(self):
        docs = synth.synth_corpus(23, seed=3)
        assignment = cli.stratified_folds(docs, 4, seed=8)
        assert all(0 <= f < 4 for f in assignment)

    def test_too_few_documents(self):
        docs = synth.synth_corpus(3, seed=1)
        with pytest.raises(ValueError, match="fewer than"):
            cli.stratified_folds(docs, 5, seed=0)

    def test_two_identical_separable_docs_perfect(self):
        # two copies of a name-repeat doc, two folds: each fold learns the
        # string-match rule from the other and resolves its twin exactly
        base = synth.synth_corpus(1, seed=55, pronoun_rate=0.0, alias_rate=0.0)[0]
        twin = corpus.doc_from_record({**corpus.doc_to_record(base), "doc_id": "twin"})
        cfg = ExperimentConfig(family="mp", features=feats.CONVENTIONAL, epochs=20,
                               seed=2, folds=2)
        report = cli.run_crossval([base, twin], cfg)
        assert report["bcubed"]["f1"] == pytest.approx(1.0)
        assert report["ceaf"]["f1"] == pytest.approx(1.0)

    def test_crossval_runs_and_reports(self, small_corpus_path, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert run([
            "crossval", small_corpus_path, "--family", "mp", "--features", "conventional",
            "--loss", "log", "--epochs", 8, "--folds", 3, "--seed", 5, "--out", report_path,
        ]) == 0
        report = json.loads(report_path.read_text())
        assert set(report) >= {"bcubed", "ceaf", "folds", "anaphoricity"}
        assert len(report["folds"]) == 3

    def test_byte_identical_reruns(self, small_corpus_path, tmp_path):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        out1.mkdir(), out2.mkdir()
        args = ["crossval", small_corpus_path, "--family", "mr", "--features", "lexical",
                "--epochs", 6, "--folds", 3, "--seed", 11]
        run(args + ["--out", out1 / "report.json", "--models-dir", out1])
        run(args + ["--out", out2 / "report.json", "--models-dir", out2])
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        for fold in range(3):
            name = f"fold{fold}.bundle.json"
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestAblation:
    def test_dead_group_eliminated_first(self):
        # two groups: one holding every informative feature, one that never
        # fires; dropping the former collapses the model, so the dead group
        # must go first (its removal cannot hurt)
        docs = synth.synth_corpus(18, seed=7, mentions_low=4, mentions_high=8)
        cfg = ExperimentConfig(family="mp", features=feats.CONVENTIONAL, epochs=8,
                               seed=2, folds=3)
        groups = [
            FeatureTypeGroup("everything", lambda name: not name.startswith("XYZZY")),
            FeatureTypeGroup("never-fires", lambda name: name.startswith("XYZZY")),
        ]
        trace = cli.run_ablation(docs, cfg, groups)
        assert trace["elimination_order"] == ["never-fires"]
        scores = trace["rounds"][0]["scores"]
        assert scores["never-fires"] == pytest.approx(trace["full_score"])
        assert scores["everything"] < scores["never-fires"]

    def test_lexical_default_groups(self):
        names = [g.name for g in cli.default_groups(feats.LEXICAL)]
        assert names == ["unseen", "lexical", "semi-lexical", "distance", "alias"]

    def test_combined_default_groups(self):
        names = [g.name for g in cli.default_groups(feats.COMBINED)]
        assert len(names) == 7
        assert "string-matching" in names and "grammatical" in names and "semantic" in names

    def test_trace_is_triangular(self, small_corpus_path, tmp_path):
        docs = corpus.load_corpus(small_corpus_path)[:18]
        cfg = ExperimentConfig(family="mp", features=feats.LEXICAL, epochs=5, seed=3, folds=3)
        trace = cli.run_ablation(docs, cfg)
        assert len(trace["rounds"]) == 4  # five groups -> four elimination rounds
        sizes = [len(r["scores"]) for r in trace["rounds"]]
        assert sizes == [5, 4, 3, 2]

    def test_group_partition_property(self):
        # every produced feature belongs to exactly one default group
        docs = synth.synth_corpus(4, seed=9)
        groups = cli.default_groups(feats.COMBINED)
        seen = set()
        for doc in docs:
            n = len(doc.mentions)
            for k in range(1, min(n, 4)):
                seen |= set(feats.pair_features(doc, 0, k, feats.COMBINED))
                seen |= set(feats.cluster_features(doc, list(range(k)), k, feats.COMBINED))
                seen |= set(feats.null_option(doc, k, feats.COMBINED))
        for name in seen:
            owners = [g.name for g in groups if g.predicate(name)]
            assert len(owners) == 1, (name, owners)


class TestAblationMatchesReference:
    """`run_ablation` retrains only the coreference model; the reference
    retrains the whole bundle per step through a feature filter."""

    @pytest.fixture(scope="class")
    def docs(self):
        return synth.synth_corpus(9, seed=5, mentions_low=3, mentions_high=6)

    @staticmethod
    def same_report(docs, cfg, groups=None):
        expected = json.dumps(ref.run_ablation(docs, cfg, groups), sort_keys=True)
        assert json.dumps(cli.run_ablation(docs, cfg, groups), sort_keys=True) == expected

    @pytest.mark.parametrize("loss", ["hinge", "log"])
    @pytest.mark.parametrize("features", feats.FEATURE_SETS)
    @pytest.mark.parametrize("family", ["mp", "em", "mr", "cr"])
    def test_family_features_loss(self, docs, family, features, loss):
        self.same_report(docs, ExperimentConfig(family=family, features=features, loss=loss, epochs=2,
                                                seed=3, folds=3))

    @pytest.mark.parametrize("family", ["mr", "cr"])
    def test_pipeline_rankers(self, docs, family):
        # the shared anaphoricity model gates every retrain's resolver
        self.same_report(docs, ExperimentConfig(family=family, features=feats.COMBINED, anaph="pipeline",
                                                epochs=2, seed=4, folds=3))

    def test_head_match(self, docs):
        self.same_report(docs, ExperimentConfig(family="hm", features=feats.LEXICAL, folds=3))

    def test_custom_groups(self):
        docs = synth.synth_corpus(18, seed=7, mentions_low=4, mentions_high=8)
        groups = [
            FeatureTypeGroup("everything", lambda name: not name.startswith("XYZZY")),
            FeatureTypeGroup("never-fires", lambda name: name.startswith("XYZZY")),
        ]
        self.same_report(docs, ExperimentConfig(family="mp", features=feats.CONVENTIONAL, epochs=8, seed=2,
                                                folds=3), groups)

    @pytest.mark.parametrize("anaph", ["joint", "pipeline"])
    @pytest.mark.parametrize("family", sorted(cli.FAMILY_CODES))
    def test_train_bundle_record(self, docs, family, anaph):
        cfg = ExperimentConfig(family=family, features=feats.COMBINED, anaph=anaph, epochs=3, seed=6)
        expected = cli.bundle_to_record(ref.train_bundle(docs, cfg))
        assert cli.bundle_to_record(cli.train_bundle(docs, cfg)) == expected


class TestAdaptability:
    def test_matrix_structure(self):
        docs = synth.synth_corpus(36, seed=4, mentions_low=4, mentions_high=8)
        cfg = ExperimentConfig(family="mp", features=feats.CONVENTIONAL, epochs=6,
                               seed=1, folds=3)
        result = cli.run_adaptability(docs, cfg)
        sources = result["sources"]
        assert len(sources) >= 2
        for train_source in sources:
            assert set(result["matrix"][train_source]) == set(sources)

    def test_stddev_row_recomputed(self):
        docs = synth.synth_corpus(36, seed=4, mentions_low=4, mentions_high=8)
        cfg = ExperimentConfig(family="mp", features=feats.CONVENTIONAL, epochs=6,
                               seed=1, folds=3)
        result = cli.run_adaptability(docs, cfg)
        from statistics import pstdev

        for test_source in result["sources"]:
            column = [result["matrix"][t][test_source] for t in result["sources"]]
            assert result["std_dev"][test_source] == pytest.approx(pstdev(column))
            assert result["max_min"][test_source] == pytest.approx(max(column) - min(column))

    def test_single_source_rejected(self):
        docs = [make_doc(f"d{i}", [("Acme", "PROPER", {})], source="NW") for i in range(6)]
        cfg = ExperimentConfig(family="mp", features=feats.CONVENTIONAL)
        with pytest.raises(ValueError, match="two data sources"):
            cli.run_adaptability(docs, cfg)


class TestBundleRecordChecks:
    @pytest.fixture(scope="class")
    def bundle_record(self, small_corpus_path, tmp_path_factory):
        path = tmp_path_factory.mktemp("bundle") / "m.json"
        assert run(["train", small_corpus_path, "--anaph", "pipeline", "--epochs", 2, "--out", path]) == 0
        return json.loads(path.read_text())

    @pytest.mark.parametrize("field, mutate", [
        ("'unseen_vocab'", lambda rec: rec.update(unseen_vocab="abc")),
        ("'unseen_vocab'", lambda rec: rec.update(unseen_vocab=["a", 1])),
        ("'version'", lambda rec: rec.update(version=99)),
        ("'family'", lambda rec: rec.update(family="BOGUS")),
        ("'features'", lambda rec: rec.update(features=None)),
        ("'loss'", lambda rec: rec.update(loss="BOGUS")),
        ("'linking'", lambda rec: rec.pop("linking")),
        ("'anaph'", lambda rec: rec.update(anaph="JOINTLY")),
        ("'coref_model'", lambda rec: rec.update(coref_model=[])),
        ("'config'", lambda rec: rec.pop("config")),
        ("'coref_model': model field 'kind'", lambda rec: rec["coref_model"].update(kind="BOGUS")),
        ("'coref_model': model field 'loss'", lambda rec: rec["coref_model"].update(loss="BOGUS")),
        ("'coref_model': model field 'weights'", lambda rec: rec["coref_model"]["weights"].append([5, 1.0])),
        ("'coref_model': model field 'weights'", lambda rec: rec["coref_model"]["weights"][0].__setitem__(1, "1.5")),
        ("'coref_model': model field 'weights'", lambda rec: rec["coref_model"]["weights"][0].__setitem__(1, True)),
        ("'coref_model': model field 'weights'", lambda rec: rec["coref_model"]["weights"][0].__setitem__(1, math.nan)),
        ("'anaph_model': model record has no 'bias'", lambda rec: rec["anaph_model"].pop("bias")),
    ])
    def test_resolve_rejects_bad_field(self, bundle_record, small_corpus_path, tmp_path, capsys, field, mutate):
        rec = copy.deepcopy(bundle_record)
        mutate(rec)
        bundle_path = tmp_path / "bad.json"
        bundle_path.write_text(json.dumps(rec))
        out = tmp_path / "r.jsonl"
        assert run(["resolve", small_corpus_path, "--model", bundle_path, "--out", out]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ValueError"
        assert record["detail"].startswith(f"bundle field {field}") or record["detail"].startswith(
            f"bundle record has no {field}"
        ), record["detail"]
        assert not out.exists()

    def test_valid_bundle_reloads_byte_identically(self, bundle_record, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(bundle_record, ensure_ascii=False, indent=1, sort_keys=True) + "\n")
        again = tmp_path / "again.json"
        cli.save_bundle(cli.load_bundle(str(path)), str(again))
        assert again.read_bytes() == path.read_bytes()
