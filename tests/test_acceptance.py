"""Acceptance checks, one per numbered criterion, each printing a verdict line.

Verdict lines are written past pytest's capture, so they show up in any run
mode. Checks that need the real SQuAD 2.0 files look under
$UNANSQGEN_SQUAD_DIR, then ./data/, and print a SKIP line with the reason
when the files are absent.
"""

import itertools
import math
import time

import numpy as np
import pytest

from conftest import make_pair, real_squad_paths, synthetic_squad, write_squad
from test_decode import enumerate_finished
from unansqgen import data, text
from unansqgen.cli import main
from unansqgen.decode import beam_search, greedy_decode
from unansqgen.metrics import bleu, gleu, lcs_length, rouge_l, rouge_n
from unansqgen.model import (
    ModelParams,
    decode_step,
    encode_input,
    extended_vocab,
    final_distribution,
    init_decoder,
)
from unansqgen.tensor import Tape
from unansqgen.text import Vocab
from unansqgen.train import TrainConfig, perplexity, train


_CAPTURE = None


@pytest.fixture(autouse=True)
def _verdict_capture(capsys):
    # lets report()/skip() print past capture in any run mode
    global _CAPTURE
    _CAPTURE = capsys
    yield
    _CAPTURE = None


def report(n, ok, detail):
    with _CAPTURE.disabled():
        print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n}: {detail}"


def skip(n, reason):
    with _CAPTURE.disabled():
        print(f"criterion {n}: SKIP ({reason})")
    pytest.skip(reason)


NO_SQUAD = "SQuAD 2.0 files not found under $UNANSQGEN_SQUAD_DIR or ./data/"


def test_criterion_1_gradient_correctness(capsys):
    ok = True
    details = []
    for mode in ("seq2seq", "pair2seq"):
        started = time.monotonic()
        rc = main(["gradcheck", "--mode", mode])  # defaults: vocab 20, dims 8/4
        elapsed = time.monotonic() - started
        out = capsys.readouterr().out
        worst = float(out.split("max_relative_error=")[1].split()[0])
        ok = ok and rc == 0 and worst < 1e-4 and elapsed < 60.0
        details.append(f"{mode} max rel err {worst:.2e} in {elapsed:.0f}s")
    report(1, ok, "; ".join(details) + "; bound 1e-4, budget 60s per run")


def test_criterion_2_distribution_soundness():
    bank = ["ash", "birch", "cedar", "dune", "elm", "fern", "oov1", "oov2"]
    vocab = Vocab(sorted(bank[:6]))
    steps = 0
    worst = 0.0
    for mode in ("seq2seq", "pair2seq"):
        for seed in range(1, 51):
            params = ModelParams(len(vocab), mode, word_dim=6, enc_hidden=3, seed=seed)
            rng = np.random.default_rng((7, seed))
            for _ in range(2):
                n = int(rng.integers(3, 7))
                paragraph = [bank[int(i)] for i in rng.integers(0, len(bank), n)]
                start = int(rng.integers(0, n))
                end = int(rng.integers(start + 1, n + 1))
                question = [bank[int(i)] for i in rng.integers(0, 6, 3)]
                tape = Tape()
                enc = encode_input(tape, params, vocab, paragraph, start, end, question)
                state = init_decoder(tape, params, enc)
                prev = text.BOS_ID
                for _ in range(5):
                    step = decode_step(tape, params, enc, state, prev)
                    dist, _ = final_distribution(step, enc, vocab)
                    worst = max(worst, abs(float(dist.sum()) - 1.0))
                    steps += 1
                    state = step.state
                    prev = int(rng.integers(0, len(vocab)))
    unk_clean = 0
    for seed in range(1, 11):
        params = ModelParams(len(vocab), "seq2seq", word_dim=6, enc_hidden=3, seed=seed)
        tape = Tape()
        enc = encode_input(tape, params, vocab, ["ash", "oov1", "elm"], 1, 2,
                           ["fern", "ash"])
        outputs = [h.tokens for h in beam_search(tape, params, enc, vocab,
                                                 beam_size=5, max_len=6)]
        outputs.append(greedy_decode(tape, params, enc, vocab, max_len=6))
        if all(text.UNK not in seq for seq in outputs):
            unk_clean += 1
    report(2, steps >= 1000 and worst <= 1e-8 and unk_clean == 10,
           f"{steps} random decode steps, worst |sum-1| {worst:.2e} (bound 1e-8); "
           f"UNK absent from {unk_clean}/10 decoded models")


def test_criterion_3_beam_oracle():
    vocab = Vocab(["aa", "bb", "cc"])  # 3 content tokens; EOS sits in the specials
    oracle_ok = True
    oracle_sizes = []
    for mode in ("seq2seq", "pair2seq"):
        params = ModelParams(len(vocab), mode, word_dim=6, enc_hidden=3, seed=13)
        tape = Tape()
        enc = encode_input(tape, params, vocab, ["aa", "zz", "bb"], 1, 2, ["cc", "aa"])
        max_len = 3
        finished = enumerate_finished(tape, params, enc, vocab, max_len)
        width = len(vocab) + len(extended_vocab(enc, vocab)[0])
        full = (width - 1) * (width - 2) ** (max_len - 1)
        hyps = beam_search(tape, params, enc, vocab, beam_size=full, max_len=max_len)
        got = sorted((round(h.score, 9), tuple(h.surface())) for h in hyps)
        want = sorted((round(s, 9), toks) for s, toks in finished)
        best_score, best_tokens = max(finished, key=lambda r: (r[0], r[1]))
        oracle_ok = (oracle_ok and got == want
                     and hyps[0].score == pytest.approx(best_score, abs=1e-9)
                     and tuple(hyps[0].surface()) == best_tokens)
        oracle_sizes.append(len(finished))

    wins = 0
    for seed in range(1, 101):
        params = ModelParams(len(vocab), "seq2seq", word_dim=6, enc_hidden=3, seed=seed)
        tape = Tape()
        enc = encode_input(tape, params, vocab, ["aa", "zz", "bb"], 1, 2, ["cc", "aa"])
        greedy = greedy_decode(tape, params, enc, vocab, max_len=4)
        b1 = beam_search(tape, params, enc, vocab, beam_size=1, max_len=4)[0]
        b5 = beam_search(tape, params, enc, vocab, beam_size=5, max_len=4)[0]
        if b1.surface() == greedy and b5.score >= b1.score - 1e-9:
            wins += 1
    report(3, oracle_ok and wins == 100,
           f"full-width beam equals exhaustive enumeration "
           f"({'/'.join(str(s) for s in oracle_sizes)} finished sequences, both modes); "
           f"beam-5 top >= greedy on {wins}/100 random models")


def test_criterion_4_memorization():
    words = ["ash", "birch", "cedar", "dune", "elm", "fern", "gorse", "hazel",
             "iris", "juniper"]
    vocab = Vocab(sorted(words))
    pairs = []
    for k in range(8):
        w = lambda i: words[(k + i) % len(words)]
        pairs.append(make_pair([w(0), w(1), w(2), w(3)], 1, 3,
                               [w(4), w(1), w(5)], [w(5), w(2), w(0)], k=k))
    config = TrainConfig(mode="pair2seq", epochs=200, batch_size=8, dropout=0.0,
                         learning_rate=0.3, word_dim=16, enc_hidden=8, seed=13)
    started = time.monotonic()
    params, history = train(config, pairs, pairs, vocab)
    nll = math.log(min(h["holdout_ppl"] for h in history))
    exact = 0
    for pair in pairs:
        tape = Tape()
        enc = encode_input(tape, params, vocab, pair.paragraph_tokens,
                           pair.answer_start, pair.answer_end, pair.answerable_tokens)
        if greedy_decode(tape, params, enc, vocab) == pair.unanswerable_tokens:
            exact += 1
    elapsed = time.monotonic() - started
    report(4, nll < 0.05 and exact == 8 and elapsed < 300.0,
           f"pair2seq, 8 pairs, {config.epochs} epochs: per-token NLL {nll:.4f} "
           f"(bound 0.05), greedy exact {exact}/8, {elapsed:.0f}s (budget 300s)")


def _aligned_corpus_from_squad(path, limit_pairs=None):
    result = data.parse_squad(path)
    pairs, _ = data.align_pairs(result.records)
    if limit_pairs is not None:
        pairs = pairs[:limit_pairs]
    corpora = [text.tokenize(rec.context) for rec in result.records]
    for rec in result.records:
        for qa in rec.qas:
            corpora.append(text.tokenize(qa.question))
    return pairs, corpora


def test_criterion_5_learning_smoke(tmp_path):
    started = time.monotonic()
    paths = real_squad_paths()
    if paths:
        pairs, corpora = _aligned_corpus_from_squad(paths[0], limit_pairs=500)
        vocab = text.build_vocab(corpora, min_frequency=9)
        source = "500 real aligned pairs"
        dims = (50, 25)
    else:
        squad = write_squad(tmp_path / "c.json", synthetic_squad(250, 2, seed=17))
        pairs, corpora = _aligned_corpus_from_squad(squad)
        vocab = text.build_vocab(corpora, min_frequency=1)
        source = "500 synthetic aligned pairs (no SQuAD files found)"
        dims = (12, 6)
    assert len(pairs) == 500
    train_pairs, holdout = pairs[:450], pairs[450:]
    config = TrainConfig(mode="seq2seq", epochs=1, batch_size=32, dropout=0.2,
                         learning_rate=0.15, word_dim=dims[0], enc_hidden=dims[1],
                         seed=13)
    params = ModelParams(len(vocab), "seq2seq", word_dim=dims[0],
                         enc_hidden=dims[1], seed=13)
    untrained = perplexity(params, holdout, vocab)
    _, history = train(config, train_pairs, holdout, vocab, params=params)
    after = history[0]["holdout_ppl"]
    elapsed = time.monotonic() - started
    report(5, after < untrained and elapsed < 900.0,
           f"{source}: holdout ppl {untrained:.2f} -> {after:.2f} after one epoch, "
           f"{elapsed:.0f}s (budget 900s)")


def test_criterion_6_alignment_statistics():
    paths = real_squad_paths()
    if not paths:
        skip(6, NO_SQUAD)
    records = []
    for path in paths:
        records.extend(data.parse_squad(path).records)
    pairs, _ = data.align_pairs(records)
    n = len(pairs)
    mean_distance = sum(p.distance for p in pairs) / n
    train_pairs, holdout = data.split_holdout(pairs, 13)
    fraction = len(holdout) / n
    once = (len({p.answerable_id for p in pairs}) == n
            and len({p.unanswerable_id for p in pairs}) == n)
    ok = (abs(n - 20240) <= 2024 and 2.8 <= mean_distance <= 4.2
          and 0.08 <= fraction <= 0.12 and once)
    report(6, ok, f"{n} pairs (band 20240 +/- 10%), mean distance "
                  f"{mean_distance:.2f} (band [2.8, 4.2]), holdout fraction "
                  f"{fraction:.3f} (band [0.08, 0.12]), ids paired once: {once}")


def oracle_levenshtein(a, b):
    memo = {}

    def rec(i, j):
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        if (i, j) in memo:
            return memo[i, j]
        out = min(rec(i + 1, j) + 1, rec(i, j + 1) + 1,
                  rec(i + 1, j + 1) + (a[i] != b[j]))
        memo[i, j] = out
        return out

    return rec(0, 0)


def oracle_lcs_recursive(a, b):
    memo = {}

    def rec(i, j):
        if i == len(a) or j == len(b):
            return 0
        if (i, j) in memo:
            return memo[i, j]
        if a[i] == b[j]:
            out = 1 + rec(i + 1, j + 1)
        else:
            out = max(rec(i + 1, j), rec(i, j + 1))
        memo[i, j] = out
        return out

    return rec(0, 0)


def oracle_lcs_enumeration(a, b):
    best = 0
    for mask in range(1 << len(a)):
        sub = [a[i] for i in range(len(a)) if mask >> i & 1]
        it = iter(b)
        if all(tok in it for tok in sub):
            best = max(best, len(sub))
    return best


def test_criterion_7_metric_oracles():
    checks = []

    s = ["the", "cat", "sat", "down"]
    checks.append(bleu([(s, s)]) == 1.0)
    hyp = ["a", "b"]
    ref = ["a", "b", "c"]
    checks.append(bleu([(hyp, ref)], max_n=1) == pytest.approx(math.exp(1 - 3 / 2)))
    checks.append(bleu([(["x", "y", "z", "w"], ["p", "q", "r", "v"])]) == 0.0)
    checks.append(bleu([(["a", "a", "a"], ["a", "a", "b"])], max_n=1)
                  == pytest.approx((2 / 3) * 1.0))

    checks.append(gleu([(s, s, s)]) == 1.0)
    # sentences long enough to share 4-grams, so plain BLEU stays positive
    src = ["the", "dog", "ran", "to", "the", "park", "today"]
    ref2 = ["the", "dog", "ran", "to", "the", "park", "yesterday"]
    parrot = gleu([(src, src, ref2)])
    plain = bleu([(src, ref2)])
    checks.append(0.0 < parrot < plain)
    no_overlap = [(["u", "v"], ["a", "b", "c", "d"], ["a", "b", "c", "d"])]
    checks.append(gleu(no_overlap) == bleu([(h, r) for _, h, r in no_overlap]))
    rng = np.random.default_rng(3)
    for _ in range(30):
        triples = []
        for _ in range(4):
            length = int(rng.integers(4, 9))
            pick = lambda: [str(rng.integers(0, 6)) for _ in range(length)]
            triples.append((pick(), pick(), pick()))
        checks.append(gleu(triples) <= bleu([(h, r) for _, h, r in triples]) + 1e-12)

    r, p, f = rouge_l(["the", "cat", "sat"], ["the", "cat", "sat", "down"])
    checks.append((r, p, f) == (pytest.approx(0.75), pytest.approx(1.0),
                                pytest.approx(6 / 7)))
    checks.append(rouge_n(s, s, 2) == (1.0, 1.0, 1.0))
    checks.append(rouge_n(["a", "b"], ["c", "d"], 1) == (0.0, 0.0, 0.0))
    checks.append(rouge_n(["a"], ["a"], 3) == (0.0, 0.0, 0.0))
    metric_ok = all(bool(c) for c in checks)

    lev_checked = 0
    lev_ok = True
    strings3 = []
    for m in range(0, 5):
        strings3.extend(itertools.product("abc", repeat=m))
    for a in strings3:
        for b in strings3:
            lev_ok = lev_ok and data.levenshtein(list(a), list(b)) == oracle_levenshtein(a, b)
            lev_checked += 1

    lcs_checked = 0
    lcs_ok = True
    strings2 = []
    for m in range(0, 9):
        strings2.extend(itertools.product("ab", repeat=m))
    for a in strings2:
        for b in strings2:
            lcs_ok = lcs_ok and lcs_length(list(a), list(b)) == oracle_lcs_recursive(a, b)
            lcs_checked += 1
    # the subsequence-enumeration route is a second, definition-level oracle
    enum_ok = True
    short2 = [s for s in strings2 if len(s) <= 4]
    for a in short2:
        for b in short2:
            enum_ok = enum_ok and lcs_length(list(a), list(b)) == oracle_lcs_enumeration(a, b)

    report(7, metric_ok and lev_ok and lcs_ok and enum_ok,
           f"{len(checks)} BLEU/GLEU/ROUGE example checks; levenshtein exhaustive "
           f"{lev_checked} pairs (len<=4, alphabet 3); LCS exhaustive {lcs_checked} "
           f"pairs (len<=8) plus enumeration cross-check (len<=4)")


def test_criterion_8_augmentation_round_trip(tmp_path, capsys):
    squad = write_squad(tmp_path / "c.json", synthetic_squad(5, 2, seed=3))
    base = dict(pairs=str(tmp_path / "p"), holdout=str(tmp_path / "h"),
                vocab=str(tmp_path / "v"), ckpt=str(tmp_path / "m.ckpt"),
                gen=str(tmp_path / "g.tsv"), aug=str(tmp_path / "aug.json"))
    assert main(["align", "--squad", squad, "--out-pairs", base["pairs"],
                 "--out-holdout", base["holdout"], "--out-vocab", base["vocab"],
                 "--min-count", "1", "--holdout-fraction", "0.2"]) == 0
    assert main(["train", "--pairs", base["pairs"], "--holdout", base["holdout"],
                 "--vocab", base["vocab"], "--out", base["ckpt"], "--epochs", "1",
                 "--batch-size", "4", "--dropout", "0.0",
                 "--dims-override", "6/3"]) == 0
    assert main(["generate", "--checkpoint", base["ckpt"], "--vocab", base["vocab"],
                 "--input", squad, "--out", base["gen"], "--beam", "2",
                 "--nbest", "1", "--max-len", "6"]) == 0
    assert main(["augment", "--generations", base["gen"], "--squad", squad,
                 "--out", base["aug"]]) == 0
    capsys.readouterr()
    reparsed = data.parse_squad(base["aug"])
    written = sum(len(rec.qas) for rec in reparsed.records)
    round_trip = reparsed.dropped_records == 0 and written >= 1
    impossible = all(qa.is_impossible for rec in reparsed.records for qa in rec.qas)

    paths = real_squad_paths()
    if paths:
        inputs, _ = __import__("unansqgen.cli", fromlist=["_squad_generation_inputs"]) \
            ._squad_generation_inputs(paths[0])
        capacity = len(inputs)
        count_ok = abs(capacity - 69090) <= 6909
        count_note = f"full-set generation capacity {capacity} (band 69090 +/- 10%)"
    else:
        count_ok = True
        count_note = "69,090-record count check skipped (no SQuAD files)"
    report(8, round_trip and impossible and count_ok,
           f"re-parse dropped 0 of {written} generated records, all impossible; "
           + count_note)


def test_criterion_9_determinism(tmp_path, capsys):
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
                     "--epochs", "2", "--batch-size", "4",
                     "--dims-override", "6/3", "--seed", "21"]) == 0
        assert main(["generate", "--checkpoint", str(d / "m.ckpt"),
                     "--vocab", str(d / "v"), "--input", str(d / "p"),
                     "--out", str(d / "g"), "--beam", "2", "--max-len", "6"]) == 0
        outputs.append({name: (d / name).read_bytes()
                        for name in ("p", "h", "v", "m.ckpt", "g")})
    capsys.readouterr()
    same = [name for name in outputs[0] if outputs[0][name] == outputs[1][name]]
    report(9, len(same) == 5,
           f"{len(same)}/5 artifacts byte-identical across seeded runs "
           "(pairs, holdout, vocab, checkpoint, generations)")
