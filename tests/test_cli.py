"""Command-line tests: the full pipeline on a synthetic corpus, error paths."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import synthetic_squad, toy_corpus, toy_vocab, write_squad
from unansqgen import cli, data, metrics, text
from unansqgen.cli import main
from unansqgen.decode import load_generations
from unansqgen.fileio import atomic_write
from unansqgen.model import ModelParams
from unansqgen.tensor import CHECKPOINT_VERSION, load_checkpoint, save_checkpoint


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """align + train once on a synthetic corpus; tests share the artifacts."""
    root = tmp_path_factory.mktemp("pipeline")
    paths = {
        "squad": write_squad(root / "train.json", synthetic_squad(5, 2, seed=3)),
        "pairs": str(root / "train.pairs"),
        "holdout": str(root / "holdout.pairs"),
        "vocab": str(root / "vocab.txt"),
        "ckpt": str(root / "model.ckpt"),
        "root": root,
    }
    rc = main(["align", "--squad", paths["squad"], "--out-pairs", paths["pairs"],
               "--out-holdout", paths["holdout"], "--out-vocab", paths["vocab"],
               "--min-count", "1", "--holdout-fraction", "0.2"])
    assert rc == 0
    rc = main(["train", "--pairs", paths["pairs"], "--holdout", paths["holdout"],
               "--vocab", paths["vocab"], "--out", paths["ckpt"],
               "--epochs", "2", "--batch-size", "4", "--dropout", "0.0",
               "--dims-override", "6/3"])
    assert rc == 0
    return paths


def test_align_outputs_and_stats(pipeline, capsys):
    train_pairs = data.load_pairs(pipeline["pairs"])
    holdout_pairs = data.load_pairs(pipeline["holdout"])
    assert train_pairs and holdout_pairs
    vocab = text.load_vocab(pipeline["vocab"])
    assert len(vocab) > len(text.SPECIAL_TOKENS)
    # every synthetic paragraph pairs its two questions exactly once
    assert len(train_pairs) + len(holdout_pairs) == 10


def test_train_checkpoint_sidecar(pipeline):
    params, sidecar = ModelParams.load(pipeline["ckpt"])
    assert params.mode == "seq2seq"
    assert (params.word_dim, params.enc_hidden) == (6, 3)
    assert sidecar["extra"]["vocab_size"] == len(text.load_vocab(pipeline["vocab"]))
    assert sidecar["extra"]["train_config"]["epochs"] == 2


def test_generate_from_squad_and_pairs(pipeline, capsys):
    out_squad = str(pipeline["root"] / "gen_squad.tsv")
    rc = main(["generate", "--checkpoint", pipeline["ckpt"], "--vocab", pipeline["vocab"],
               "--input", pipeline["squad"], "--out", out_squad,
               "--beam", "2", "--nbest", "2", "--max-len", "4"])
    assert rc == 0
    stdout = capsys.readouterr().out
    rows = load_generations(out_squad)
    assert rows, "expected at least one generation"
    assert f"inputs=10" in stdout
    assert len(rows) <= 2 * 10  # nbest bound
    qids = {qid for qid, _, _ in rows}
    assert all(qid.startswith("q") for qid in qids)

    out_pairs = str(pipeline["root"] / "gen_pairs.tsv")
    rc = main(["generate", "--checkpoint", pipeline["ckpt"], "--vocab", pipeline["vocab"],
               "--input", pipeline["pairs"], "--out", out_pairs,
               "--beam", "2", "--nbest", "1", "--max-len", "4"])
    assert rc == 0
    rows = load_generations(out_pairs)
    assert all(qid.startswith("pair-") for qid, _, _ in rows)


def test_evaluate_from_pairs(pipeline, capsys):
    gen = str(pipeline["root"] / "eval_gen.tsv")
    rc = main(["generate", "--checkpoint", pipeline["ckpt"], "--vocab", pipeline["vocab"],
               "--input", pipeline["pairs"], "--out", gen,
               "--beam", "2", "--nbest", "1", "--max-len", "4"])
    assert rc == 0
    capsys.readouterr()
    report_path = str(pipeline["root"] / "report.txt")
    rc = main(["evaluate", "--generations", gen, "--pairs", pipeline["pairs"],
               "--out", report_path])
    assert rc == 0
    stdout = capsys.readouterr().out
    lines = [ln for ln in stdout.splitlines() if ln]
    assert len(lines) == 13
    for line in lines:
        key, value = line.split("=")
        assert 0.0 <= float(value) <= 1.0
    with open(report_path, encoding="utf-8") as fh:
        assert fh.read() == stdout


def test_evaluate_self_scores_perfectly(pipeline, capsys):
    # generations equal to the references must reach every metric's ceiling
    pairs = data.load_pairs(pipeline["pairs"])
    gen = str(pipeline["root"] / "gold_gen.tsv")
    with open(gen, "w", encoding="utf-8") as fh:
        for k, pair in enumerate(pairs, start=1):
            fh.write(f"pair-{k}\t{' '.join(pair.unanswerable_tokens)}\t0.0\n")
    rc = main(["evaluate", "--generations", gen, "--pairs", pipeline["pairs"]])
    assert rc == 0
    report = dict(line.split("=") for line in capsys.readouterr().out.splitlines())
    assert float(report["bleu_4"]) == 1.0
    assert float(report["gleu_4"]) == 1.0
    assert float(report["rouge_l_f1"]) == 1.0


def test_augment_round_trip(pipeline, capsys):
    gen = str(pipeline["root"] / "aug_gen.tsv")
    rc = main(["generate", "--checkpoint", pipeline["ckpt"], "--vocab", pipeline["vocab"],
               "--input", pipeline["squad"], "--out", gen,
               "--beam", "2", "--nbest", "1", "--max-len", "4"])
    assert rc == 0
    capsys.readouterr()
    out = str(pipeline["root"] / "augment.json")
    rc = main(["augment", "--generations", gen, "--squad", pipeline["squad"],
               "--out", out])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "unmatched=0" in stdout
    result = data.parse_squad(out)
    assert result.dropped_records == 0
    for rec in result.records:
        for qa in rec.qas:
            assert qa.is_impossible
            assert qa.id.split("-unansq-")[0].startswith("q")


def test_pipeline_determinism(tmp_path):
    squad = write_squad(tmp_path / "c.json", synthetic_squad(4, 2, seed=8))
    outputs = []
    for run in ("one", "two"):
        d = tmp_path / run
        d.mkdir()
        assert main(["align", "--squad", squad, "--out-pairs", str(d / "p"),
                     "--out-holdout", str(d / "h"), "--out-vocab", str(d / "v"),
                     "--min-count", "1", "--seed", "21",
                     "--holdout-fraction", "0.25"]) == 0
        assert main(["train", "--pairs", str(d / "p"), "--holdout", str(d / "h"),
                     "--vocab", str(d / "v"), "--out", str(d / "m.ckpt"),
                     "--epochs", "2", "--batch-size", "4", "--dims-override", "6/3",
                     "--seed", "21"]) == 0
        assert main(["generate", "--checkpoint", str(d / "m.ckpt"),
                     "--vocab", str(d / "v"), "--input", str(d / "p"),
                     "--out", str(d / "g"), "--beam", "2", "--max-len", "4"]) == 0
        outputs.append({name: (d / name).read_bytes()
                        for name in ("p", "h", "v", "m.ckpt", "g")})
    assert outputs[0] == outputs[1]


def test_config_file_resolution(tmp_path, capsys):
    squad = write_squad(tmp_path / "c.json", synthetic_squad(3, 1, seed=5))
    cfg = tmp_path / "align.cfg"
    cfg.write_text("# comment line\nseed = 7\nmin_count=1\n", encoding="utf-8")

    def align(tag, *extra):
        out = tmp_path / tag
        out.mkdir()
        rc = main(["align", "--squad", squad, "--out-pairs", str(out / "p"),
                   "--out-holdout", str(out / "h"), "--out-vocab", str(out / "v"),
                   *extra])
        assert rc == 0
        return (out / "p").read_bytes() + (out / "h").read_bytes()

    from_file = align("file", "--config", str(cfg))
    from_flag = align("flag", "--seed", "7", "--min-count", "1")
    assert from_file == from_flag
    # a flag on the command line wins over the same key in the file
    override = align("override", "--config", str(cfg), "--seed", "9")
    plain_nine = align("nine", "--seed", "9", "--min-count", "1")
    assert override == plain_nine


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    squad = write_squad(tmp_path / "c.json", synthetic_squad(2, 1, seed=5))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus=1\n", encoding="utf-8")
    rc = main(["align", "--squad", squad, "--out-pairs", str(tmp_path / "p"),
               "--out-holdout", str(tmp_path / "h"), "--out-vocab", str(tmp_path / "v"),
               "--config", str(cfg)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bogus" in err and "bad.cfg:1" in err
    assert err.count("\n") == 1


def test_config_file_rejects_unparsable_value(tmp_path, capsys):
    squad = write_squad(tmp_path / "c.json", synthetic_squad(2, 1, seed=5))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("seed=abc\n", encoding="utf-8")
    rc = main(["align", "--squad", squad, "--out-pairs", str(tmp_path / "p"),
               "--out-holdout", str(tmp_path / "h"), "--out-vocab", str(tmp_path / "v"),
               "--config", str(cfg)])
    assert rc == 1
    assert "seed" in capsys.readouterr().err


def test_missing_input_is_single_line_error(tmp_path, capsys):
    rc = main(["align", "--squad", str(tmp_path / "missing.json"),
               "--out-pairs", str(tmp_path / "p"),
               "--out-holdout", str(tmp_path / "h"),
               "--out-vocab", str(tmp_path / "v")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_empty_corpus_yields_valid_empty_outputs(tmp_path, capsys):
    squad = write_squad(tmp_path / "empty.json", {"version": "v2.0", "data": []})
    rc = main(["align", "--squad", squad, "--out-pairs", str(tmp_path / "p"),
               "--out-holdout", str(tmp_path / "h"),
               "--out-vocab", str(tmp_path / "v"), "--min-count", "1"])
    assert rc == 0
    assert "pairs=0" in capsys.readouterr().out
    assert data.load_pairs(tmp_path / "p") == []
    assert len(text.load_vocab(tmp_path / "v")) == len(text.SPECIAL_TOKENS)


@pytest.mark.parametrize("keep", [12, 40, -4])
def test_generate_truncated_checkpoint_is_one_error_line(pipeline, tmp_path, capsys, keep):
    blob = open(pipeline["ckpt"], "rb").read()
    ckpt = tmp_path / "cut.ckpt"
    ckpt.write_bytes(blob[:keep])
    (tmp_path / "cut.ckpt.json").write_bytes(open(pipeline["ckpt"] + ".json", "rb").read())
    out = tmp_path / "g"
    rc = main(["generate", "--checkpoint", str(ckpt), "--vocab", pipeline["vocab"],
               "--input", pipeline["pairs"], "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "truncated" in err
    assert not out.exists()


@pytest.mark.parametrize("change,named", [
    ("missing", "'dec_Wo'"),
    ("fewer-rows", "version-1 gate tensors do not join"),
    ("fewer-columns", "'enc_Wx'"),
])
def test_generate_version_1_checkpoint_with_a_bad_gate_tensor_is_one_error_line(
        tmp_path, capsys, change, named):
    fixture = Path(__file__).parent / "fixtures" / "toy-seq2seq.ckpt"
    _, arrays = load_checkpoint(fixture)
    if change == "missing":
        del arrays["dec_Wo"]
    else:
        w = arrays["enc_bw_Wf"]
        arrays["enc_bw_Wf"] = w[:-1] if change == "fewer-rows" else w[:, :-1]
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, arrays)
    blob = bytearray(ckpt.read_bytes())
    blob[8] = 1  # a version-1 header, as the sidecar says
    ckpt.write_bytes(bytes(blob))
    (tmp_path / "m.ckpt.json").write_bytes(Path(f"{fixture}.json").read_bytes())
    vocab, pairs, out = tmp_path / "vocab.txt", tmp_path / "pairs.tsv", tmp_path / "g"
    text.save_vocab(vocab, toy_vocab())
    data.save_pairs(pairs, toy_corpus()[0])
    rc = main(["generate", "--checkpoint", str(ckpt), "--vocab", str(vocab),
               "--input", str(pairs), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert named in err
    assert not out.exists()


@pytest.mark.parametrize("header,sidecar", [(1, 2), (2, 1)])
def test_generate_header_and_sidecar_versions_disagreeing_is_one_error_line(
        tmp_path, capsys, header, sidecar):
    fixture = Path(__file__).parent / "fixtures" / "toy-seq2seq.ckpt"  # version 1
    ckpt = tmp_path / "m.ckpt"
    blob = bytearray(fixture.read_bytes())
    blob[8] = header
    ckpt.write_bytes(bytes(blob))
    meta = json.loads(Path(f"{fixture}.json").read_text())
    meta["format_version"] = sidecar
    Path(f"{ckpt}.json").write_text(json.dumps(meta), encoding="utf-8")
    vocab, pairs, out = tmp_path / "vocab.txt", tmp_path / "pairs.tsv", tmp_path / "g"
    text.save_vocab(vocab, toy_vocab())
    data.save_pairs(pairs, toy_corpus()[0])
    rc = main(["generate", "--checkpoint", str(ckpt), "--vocab", str(vocab),
               "--input", str(pairs), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"{ckpt}: format version {header} in the header, but {ckpt}.json says {sidecar}" in err
    assert not out.exists()


@pytest.mark.parametrize("key,value,where", [
    ("paragraphs", 5, "data[0]"),
    ("qas", 5, "data[0].paragraphs[0]"),
    ("question", 5, "data[0].paragraphs[0].qas[0]"),
    ("is_impossible", "false", "data[0].paragraphs[0].qas[0]"),
    ("title", 5, "data[0]"),
    ("title", ["article"], "data[0]"),
])
def test_align_mistyped_squad_field_is_one_error_line(tmp_path, capsys, key, value, where):
    doc = synthetic_squad(2, 1, seed=5)
    article = doc["data"][0]
    paragraph = article["paragraphs"][0]
    {"paragraphs": article, "title": article,
     "qas": paragraph}.get(key, paragraph["qas"][0])[key] = value
    squad = write_squad(tmp_path / "c.json", doc)
    outs = [tmp_path / "p", tmp_path / "h", tmp_path / "v"]
    rc = main(["align", "--squad", squad, "--out-pairs", str(outs[0]),
               "--out-holdout", str(outs[1]), "--out-vocab", str(outs[2])])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"c.json: {where}: " in err and repr(key) in err
    assert not any(path.exists() for path in outs)


def test_generate_non_finite_checkpoint_value_is_one_error_line(tmp_path, capsys):
    fixture = Path(__file__).parent / "fixtures" / "toy-seq2seq.ckpt"  # version 1
    _, arrays = load_checkpoint(fixture)
    arrays["out_W"][1, 2] = np.nan
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, arrays)
    blob = bytearray(ckpt.read_bytes())
    blob[8] = 1  # a version-1 header, as the sidecar says
    ckpt.write_bytes(bytes(blob))
    (tmp_path / "m.ckpt.json").write_bytes(Path(f"{fixture}.json").read_bytes())
    vocab, pairs, out = tmp_path / "vocab.txt", tmp_path / "pairs.tsv", tmp_path / "g"
    text.save_vocab(vocab, toy_vocab())
    data.save_pairs(pairs, toy_corpus()[0])
    rc = main(["generate", "--checkpoint", str(ckpt), "--vocab", str(vocab),
               "--input", str(pairs), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == f"error: {ckpt}: parameter 'out_W' holds a non-finite value\n"
    assert not out.exists()


def test_generate_non_finite_value_past_every_writer_is_one_error_line(tmp_path, capsys,
                                                                      monkeypatch):
    # load verifies what it read, so a NaN written afterwards is not scanned on
    # read: the output check of the first primitive that reads it catches it
    real = ModelParams.load

    def load_then_poison(path):
        params, sidecar = real(path)
        assert params["out_W"].verified
        params["out_W"].data[1, 2] = np.nan
        return params, sidecar

    monkeypatch.setattr(ModelParams, "load", staticmethod(load_then_poison))
    fixture = Path(__file__).parent / "fixtures" / "toy-seq2seq.ckpt"
    vocab, pairs, out = tmp_path / "vocab.txt", tmp_path / "pairs.tsv", tmp_path / "g"
    text.save_vocab(vocab, toy_vocab())
    data.save_pairs(pairs, toy_corpus()[0])
    rc = main(["generate", "--checkpoint", str(fixture), "--vocab", str(vocab),
               "--input", str(pairs), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == "error: matmul: produced a non-finite output\n"
    assert not out.exists()


@pytest.mark.parametrize("reader", ["squad", "pairs", "vocab", "config", "generations",
                                    "sidecar"])
def test_input_that_is_not_utf8_names_its_file_and_line(pipeline, tmp_path, capsys, reader):
    p = {key: Path(value) for key, value in pipeline.items()}
    ckpt, out = tmp_path / "m.ckpt", tmp_path / "out"
    ckpt.write_bytes(p["ckpt"].read_bytes())
    sources = {"squad": p["squad"], "pairs": p["pairs"], "vocab": p["vocab"],
               "sidecar": Path(f"{p['ckpt']}.json")}
    (tmp_path / "config").write_text("seed=13\nmin_count=1\n", encoding="utf-8")
    (tmp_path / "generations").write_text("pair-1\twhy ?\t-1.0\npair-2\twhat ?\t-2.0\n",
                                          encoding="utf-8")
    bad = Path(f"{ckpt}.json") if reader == "sidecar" else tmp_path / reader
    blob = sources.get(reader, bad).read_bytes()
    cut = blob.find(b"\n") + 1  # the second line's start, or the first's in a one-line file
    bad.write_bytes(blob[:cut] + b"\xff" + blob[cut:])
    if reader != "sidecar":
        Path(f"{ckpt}.json").write_bytes(Path(f"{p['ckpt']}.json").read_bytes())
    files = {**{key: str(p[key]) for key in ("squad", "pairs", "vocab")}, reader: str(bad)}
    argv = {
        "squad": ["align", "--squad", files["squad"], "--out-pairs", str(out),
                  "--out-holdout", str(tmp_path / "h"), "--out-vocab", str(tmp_path / "v")],
        "pairs": ["train", "--pairs", files["pairs"], "--holdout", str(p["holdout"]),
                  "--vocab", files["vocab"], "--out", str(out), "--dims-override", "6/3"],
        "generations": ["evaluate", "--generations", str(bad), "--pairs", files["pairs"],
                        "--out", str(out)],
    }
    argv["config"] = argv["squad"] + ["--config", str(bad)]
    argv["vocab"] = argv["sidecar"] = ["generate", "--checkpoint", str(ckpt), "--vocab",
                                       files["vocab"], "--input", files["pairs"],
                                       "--out", str(out)]
    rc = main(argv[reader])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == f"error: {bad}:{1 + (cut > 0)}: not valid UTF-8 (byte 0xff)\n"
    assert not out.exists()


def test_generate_vocab_size_mismatch(pipeline, tmp_path, capsys):
    other = text.Vocab(["only", "three", "tokens"])
    path = tmp_path / "other_vocab.txt"
    text.save_vocab(path, other)
    rc = main(["generate", "--checkpoint", pipeline["ckpt"], "--vocab", str(path),
               "--input", pipeline["pairs"], "--out", str(tmp_path / "g")])
    assert rc == 1
    err = capsys.readouterr().err
    vocab_size = len(text.load_vocab(pipeline["vocab"]))
    assert str(vocab_size) in err and str(len(other)) in err


@pytest.mark.parametrize("command", ["train", "generate"])
@pytest.mark.parametrize("extra,problem", [("\n", ": blank vocabulary entry"),
                                           ("<sep>\n", ": duplicate token '<sep>'")])
def test_malformed_vocab_is_one_error_line(pipeline, tmp_path, capsys, command, extra, problem):
    vocab = tmp_path / "vocab.txt"
    lines = open(pipeline["vocab"], encoding="utf-8").read()
    vocab.write_text(lines + extra, encoding="utf-8")
    line = lines.count("\n") + 1
    out = tmp_path / "out"
    if command == "train":
        argv = ["train", "--pairs", pipeline["pairs"], "--holdout", pipeline["holdout"],
                "--dims-override", "6/3"]
    else:
        argv = ["generate", "--checkpoint", pipeline["ckpt"], "--input", pipeline["pairs"]]
    rc = main(argv + ["--vocab", str(vocab), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {vocab}:{line}{problem}") and err.count("\n") == 1
    assert not out.exists()


def test_evaluate_requires_reference_source(pipeline, tmp_path, capsys):
    gen = tmp_path / "g.tsv"
    gen.write_text("q1\twhy ?\t-1.0\n", encoding="utf-8")
    rc = main(["evaluate", "--generations", str(gen)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_evaluate_line_files_and_count_mismatch(tmp_path, capsys):
    # references need 4-grams, or a zero four-gram count floors BLEU-4 at 0
    gen = tmp_path / "g.tsv"
    gen.write_text("q1\twhy is this here ?\t-1.0\nq2\twhen was that ?\t-2.0\n",
                   encoding="utf-8")
    (tmp_path / "src.txt").write_text("why is that here ?\nwhere was that ?\n",
                                      encoding="utf-8")
    (tmp_path / "ref.txt").write_text("why is this here ?\nwhen was that ?\n",
                                      encoding="utf-8")
    rc = main(["evaluate", "--generations", str(gen),
               "--sources", str(tmp_path / "src.txt"),
               "--references", str(tmp_path / "ref.txt")])
    assert rc == 0
    report = dict(line.split("=") for line in capsys.readouterr().out.splitlines())
    assert float(report["bleu_4"]) == 1.0

    (tmp_path / "short.txt").write_text("why there ?\n", encoding="utf-8")
    rc = main(["evaluate", "--generations", str(gen),
               "--sources", str(tmp_path / "short.txt"),
               "--references", str(tmp_path / "ref.txt")])
    assert rc == 1
    assert "2 generations vs 1 sources" in capsys.readouterr().err


@pytest.mark.parametrize("char", ["\x0c", "\x1c", "\u2028"])
def test_evaluate_splits_lines_only_at_line_ends(tmp_path, capsys, char):
    gen = tmp_path / "g.tsv"
    gen.write_text("q1\twhy is it here ?\t-1.0\nq2\twhen was that ?\t-2.0\n",
                   encoding="utf-8")
    sources = [f"why is{char}it there ?", "where was that ?"]
    references = ["why is it here ?", f"when{char}was that ?"]
    (tmp_path / "src.txt").write_text("\r\n".join(sources) + "\r", encoding="utf-8")
    (tmp_path / "ref.txt").write_text("\n".join(references), encoding="utf-8")
    rc = main(["evaluate", "--generations", str(gen), "--sources", str(tmp_path / "src.txt"),
               "--references", str(tmp_path / "ref.txt")])
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    triples = [(text.tokenize(src), tokens, text.tokenize(ref)) for src, tokens, ref in
               zip(sources, [["why", "is", "it", "here", "?"], ["when", "was", "that", "?"]],
                   references)]
    assert captured.out == metrics.format_report(metrics.metric_report(triples))


def test_train_validation_failure_leaves_no_checkpoint(pipeline, tmp_path, capsys):
    out = tmp_path / "m.ckpt"
    rc = main(["train", "--pairs", pipeline["pairs"], "--holdout", pipeline["holdout"],
               "--vocab", pipeline["vocab"], "--out", str(out),
               "--epochs", "0", "--dims-override", "6/3"])
    assert rc == 1
    assert "epochs" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "m.ckpt.json").exists()


@pytest.mark.parametrize("option,message", [
    ("--lr=nan", "learning_rate must be finite and > 0, got nan"),
    ("--lr=inf", "learning_rate must be finite and > 0, got inf"),
    ("--clip=-1", "clip_norm must be finite and > 0, got -1.0"),
    ("--clip=0", "clip_norm must be finite and > 0, got 0.0"),
    ("--clip=nan", "clip_norm must be finite and > 0, got nan"),
    ("--max-target-len=0", "max_target_len must be >= 1, got 0"),
])
def test_train_rejects_a_setting_that_cannot_train(pipeline, tmp_path, capsys, option, message):
    out = tmp_path / "m.ckpt"
    rc = main(["train", "--pairs", pipeline["pairs"], "--holdout", pipeline["holdout"],
               "--vocab", pipeline["vocab"], "--out", str(out), "--epochs", "1",
               "--dims-override", "6/3", option])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    # `message` is TrainConfig.validate's; the line names the flag typed in its place
    flag = option.split("=")[0]
    assert captured.err == f"error: {flag} {message.split(' ', 1)[1]}\n"
    assert not out.exists() and not (tmp_path / "m.ckpt.json").exists()


def test_train_overflowing_pretrained_row_is_one_error_line(pipeline, tmp_path, capsys):
    # 1.7e308 is finite, but dropout's 1/keep scaling takes it past the float64 range
    token = text.load_vocab(pipeline["vocab"]).id_to_token[len(text.SPECIAL_TOKENS)]
    vectors = tmp_path / "vectors.txt"
    vectors.write_text(token + " 1.7e308" * 6 + "\n", encoding="utf-8")
    out = tmp_path / "m.ckpt"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["train", "--pairs", pipeline["pairs"], "--holdout", pipeline["holdout"],
                   "--vocab", pipeline["vocab"], "--out", str(out), "--epochs", "1",
                   "--dims-override", "6/3", "--dropout", "0.2", "--pretrained", str(vectors)])
    captured = capsys.readouterr()
    assert rc == 1 and "RuntimeWarning" not in captured.err
    assert captured.err.startswith("error: epoch 1 batch ") and captured.err.count("\n") == 1
    assert captured.err.endswith(": dropout: produced a non-finite output\n")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists() and not (tmp_path / "m.ckpt.json").exists()


def test_atomic_write_keeps_old_file_on_error(tmp_path):
    target = tmp_path / "partial.out"
    target.write_text("old", encoding="utf-8")
    with pytest.raises(RuntimeError):
        with atomic_write(target) as fh:
            fh.write("half-written")
            raise RuntimeError("simulated failure")
    assert target.read_text(encoding="utf-8") == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["partial.out"]
    with atomic_write(target) as fh:
        fh.write("done")
    assert target.read_text(encoding="utf-8") == "done"
    assert [p.name for p in tmp_path.iterdir()] == ["partial.out"]
    missing = tmp_path / "no-such-dir" / "x.out"
    with pytest.raises(FileNotFoundError) as exc:
        with atomic_write(missing):
            pass
    assert exc.value.filename == str(missing)


def test_failed_train_keeps_existing_checkpoint(pipeline, tmp_path, capsys):
    out = tmp_path / "existing.ckpt"
    out.write_bytes(open(pipeline["ckpt"], "rb").read())
    (tmp_path / "existing.ckpt.json").write_text("{}\n", encoding="utf-8")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    rc = main(["train", "--pairs", pipeline["pairs"], "--holdout", pipeline["holdout"],
               "--vocab", pipeline["vocab"], "--out", str(out), "--lr", "-1",
               "--dims-override", "6/3"])
    assert rc == 1
    assert capsys.readouterr().err == "error: --lr must be finite and > 0, got -1.0\n"
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_failed_generate_keeps_existing_output(pipeline, tmp_path, capsys):
    out = tmp_path / "existing.tsv"
    out.write_text("pair-1\told output\t-1.000000\n", encoding="utf-8")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    rc = main(["generate", "--checkpoint", pipeline["ckpt"], "--vocab", pipeline["vocab"],
               "--input", pipeline["pairs"], "--out", str(out), "--beam", "0"])
    assert rc == 1
    assert "beam_size" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("flag,value,name", [("--nbest", "0", "nbest"),
                                             ("--nbest", "-1", "nbest"),
                                             ("--max-len", "0", "max_len")])
def test_generate_rejects_out_of_range_counts(pipeline, tmp_path, capsys, flag, value, name):
    out = tmp_path / "existing.tsv"
    out.write_text("pair-1\told output\t-1.000000\n", encoding="utf-8")
    rc = main(["generate", "--checkpoint", pipeline["ckpt"], "--vocab", pipeline["vocab"],
               "--input", pipeline["pairs"], "--out", str(out), flag, value])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"{name} must be >= 1, got {value}" in err
    assert out.read_text(encoding="utf-8") == "pair-1\told output\t-1.000000\n"


@pytest.mark.parametrize("flag,name", [("--beam", "beam_size"), ("--max-len", "max_len"),
                                       ("--nbest", "nbest")])
def test_generate_checks_counts_before_reading_input(pipeline, tmp_path, capsys, flag, name):
    # an empty pair file gives no input to decode, so only an up-front check can fail
    empty = tmp_path / "empty.pairs"
    empty.write_text("", encoding="utf-8")
    out = tmp_path / "existing.tsv"
    out.write_text("pair-1\told output\t-1.000000\n", encoding="utf-8")
    rc = main(["generate", "--checkpoint", pipeline["ckpt"], "--vocab", pipeline["vocab"],
               "--input", str(empty), "--out", str(out), flag, "0"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert f"{name} must be >= 1, got 0" in captured.err
    assert out.read_text(encoding="utf-8") == "pair-1\told output\t-1.000000\n"


@pytest.mark.parametrize("answers", [[{"text": "beta", "answer_start": "6"}], ["beta"]],
                         ids=["string-answer-start", "bare-string-answer"])
def test_align_malformed_answer_is_one_error_line(tmp_path, capsys, answers):
    squad = tmp_path / "odd.json"
    squad.write_text(json.dumps({"version": "v2.0", "data": [{
        "title": "T",
        "paragraphs": [{"context": "alpha beta gamma",
                        "qas": [{"id": "q-odd", "question": "q?", "answers": answers}]}],
    }]}), encoding="utf-8")
    rc = main(["align", "--squad", str(squad), "--out-pairs", str(tmp_path / "p"),
               "--out-holdout", str(tmp_path / "h"), "--out-vocab", str(tmp_path / "v")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "'q-odd'" in err


def test_generate_has_no_seed_option(pipeline, tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("seed=7\n", encoding="utf-8")
    rc = main(["generate", "--checkpoint", pipeline["ckpt"], "--vocab", pipeline["vocab"],
               "--input", pipeline["pairs"], "--out", str(tmp_path / "g"),
               "--config", str(cfg)])
    assert rc == 1
    assert "unknown key 'seed'" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["generate", "--checkpoint", pipeline["ckpt"], "--vocab", pipeline["vocab"],
              "--input", pipeline["pairs"], "--out", str(tmp_path / "g"), "--seed", "7"])


def test_generate_has_no_mode_option(pipeline, tmp_path, capsys):
    # the checkpoint's sidecar fixes the mode
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("mode=seq2seq\n", encoding="utf-8")
    rc = main(["generate", "--checkpoint", pipeline["ckpt"], "--vocab", pipeline["vocab"],
               "--input", pipeline["pairs"], "--out", str(tmp_path / "g"),
               "--config", str(cfg)])
    assert rc == 1
    assert "unknown key 'mode'" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["generate", "--checkpoint", pipeline["ckpt"], "--vocab", pipeline["vocab"],
              "--input", pipeline["pairs"], "--out", str(tmp_path / "g"), "--mode", "seq2seq"])


def test_gradcheck_small_fixture(capsys):
    rc = main(["gradcheck", "--vocab-size", "12", "--dims-override", "4/2"])
    assert rc == 0
    stdout = capsys.readouterr().out
    value = float(stdout.split("max_relative_error=")[1].split()[0])
    assert value < 1e-4


def test_bad_dims_override_rejected(capsys):
    for bad in ("8", "a/b", "0/4"):
        rc = main(["gradcheck", "--dims-override", bad, "--vocab-size", "8"])
        assert rc == 1
        assert "dims-override" in capsys.readouterr().err


def test_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "align" in capsys.readouterr().out


# each command's option table drives both its flags and its config-file keys

_REQUIRED = {
    "align": ["--squad", "s.json", "--out-pairs", "p", "--out-holdout", "h", "--out-vocab", "v"],
    "train": ["--pairs", "p", "--holdout", "h", "--vocab", "v", "--out", "m"],
    "generate": ["--checkpoint", "m", "--vocab", "v", "--input", "p", "--out", "g"],
    "evaluate": ["--generations", "g"],
    "augment": ["--generations", "g", "--squad", "s.json", "--out", "a"],
    "gradcheck": [],
}
_SAMPLE = {int: "3", float: "0.25", str: "6/3", cli._mode: "pair2seq"}


def _table_keys():
    return [(command, key) for command, spec in cli._OPTIONS.items() for key in spec]


@pytest.mark.parametrize("command,key", _table_keys())
def test_option_table_flag_and_config_key_agree(tmp_path, command, key):
    kind, default, _ = cli._OPTIONS[command][key]
    raw = _SAMPLE[kind]
    parser = cli._build_parser()
    from_flag = parser.parse_args([command, *_REQUIRED[command],
                                   "--" + key.replace("_", "-"), raw])
    cli._resolve_options(from_flag, command)
    cfg = tmp_path / "opts.cfg"
    cfg.write_text(f"{key} = {raw}\n", encoding="utf-8")
    from_file = parser.parse_args([command, *_REQUIRED[command], "--config", str(cfg)])
    cli._resolve_options(from_file, command)
    assert getattr(from_flag, key) == getattr(from_file, key) == kind(raw)
    assert getattr(from_flag, key) != default
    unset = parser.parse_args([command, *_REQUIRED[command]])
    cli._resolve_options(unset, command)
    assert getattr(unset, key) == default


def test_unknown_mode_rejected_on_command_line_and_in_config(pipeline, tmp_path, capsys):
    train_args = ["train", "--pairs", pipeline["pairs"], "--holdout", pipeline["holdout"],
                  "--vocab", pipeline["vocab"], "--out", str(tmp_path / "m.ckpt"),
                  "--dims-override", "6/3", "--epochs", "1"]
    with pytest.raises(SystemExit) as exc:
        main(train_args + ["--mode", "foo"])
    assert exc.value.code == 2
    assert "mode must be one of" in capsys.readouterr().err
    cfg = tmp_path / "train.cfg"
    cfg.write_text("mode=foo\n", encoding="utf-8")
    rc = main(train_args + ["--config", str(cfg)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "train.cfg:1" in err and "'mode'" in err
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("sidecar,key", [
    ([], "sidecar must be a JSON object"),
    ({"format_version": 1, "model": []}, "'model'"),
    ({"format_version": 1, "model": {"mode": "seq2seq", "vocab_size": "7", "word_dim": 6,
                                     "enc_hidden": 3}}, "'model.vocab_size'"),
    ({"format_version": 1, "model": {"mode": "seq2seq", "vocab_size": 7, "word_dim": 4.0,
                                     "enc_hidden": 3}}, "'model.word_dim'"),
    ({"format_version": 1, "model": {"mode": "seq2seq", "vocab_size": 7, "word_dim": 6,
                                     "enc_hidden": True}}, "'model.enc_hidden'"),
    ({"format_version": 1, "model": {"mode": "seq2seq", "vocab_size": 0, "word_dim": 6,
                                     "enc_hidden": 3}}, "'model.vocab_size'"),
    ({"format_version": 1, "model": {"mode": "seq2seq", "vocab_size": 3, "word_dim": 6,
                                     "enc_hidden": 3}},
     "m.ckpt.json: key 'model.vocab_size' must be an integer >= 5, got 3\n"),
    ({"format_version": 1, "model": {"vocab_size": 7, "word_dim": 6, "enc_hidden": 3}},
     "missing key 'model.mode'"),
    ({"format_version": 1, "model": {"mode": "seq2seq", "word_dim": 6, "enc_hidden": 3}},
     "missing key 'model.vocab_size'"),
    ({"model": {"mode": "seq2seq", "vocab_size": 7, "word_dim": 6, "enc_hidden": 3}},
     "missing key 'format_version'"),
    ({"format_version": CHECKPOINT_VERSION + 1, "model": {"mode": "seq2seq", "vocab_size": 7,
                                                          "word_dim": 6, "enc_hidden": 3}},
     "'format_version'"),
    # well-formed, but the binary's parameters do not fit the model it describes
    (lambda real: {**real, "model": {**real["model"], "vocab_size": real["model"]["vocab_size"]
                                     + 3}}, "m.ckpt: parameter 'word_emb': shape"),
    (lambda real: {**real, "model": {**real["model"], "mode": "pair2seq"}},
     "m.ckpt: parameter 'dec_Wh': shape"),
], ids=["list", "model-list", "string-vocab-size", "float-word-dim", "bool-enc-hidden",
        "zero-vocab-size", "vocab-size-below-specials", "no-mode", "no-vocab-size",
        "no-format-version", "next-version", "other-vocab-size", "other-mode"])
def test_generate_malformed_sidecar_is_one_error_line(pipeline, tmp_path, capsys,
                                                      sidecar, key):
    ckpt = tmp_path / "m.ckpt"
    ckpt.write_bytes(open(pipeline["ckpt"], "rb").read())
    if callable(sidecar):
        sidecar = sidecar(json.loads(open(pipeline["ckpt"] + ".json", "rb").read()))
    (tmp_path / "m.ckpt.json").write_text(json.dumps(sidecar), encoding="utf-8")
    out = tmp_path / "g"
    rc = main(["generate", "--checkpoint", str(ckpt), "--vocab", pipeline["vocab"],
               "--input", pipeline["pairs"], "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "m.ckpt.json" in err and key in err
    assert str(ckpt) in err
    assert not out.exists()
