"""Decoding tests: beam search vs exhaustive enumeration, greedy, filtering."""

import math

import numpy as np
import pytest

from unansqgen import decode, text
from unansqgen.data import AlignedPair
from unansqgen.decode import (
    BeamHypothesis,
    _ranked,
    _top_k,
    beam_search,
    filter_outputs,
    generate_for_example,
    greedy_decode,
    load_generations,
    save_generations,
    score_sequence,
)
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


def toy_setup(mode="seq2seq", seed=13, scale=1.0):
    vocab = Vocab(["aa", "bb"])
    params = ModelParams(len(vocab), mode, word_dim=6, enc_hidden=3, seed=seed)
    for _, t in params.items():
        t.data *= scale
    tape = Tape()
    enc = encode_input(tape, params, vocab, ["aa", "zz", "bb"], 1, 2, ["bb", "aa"])
    return tape, params, enc, vocab


def enumerate_finished(tape, params, enc, vocab, max_len):
    """Every finished sequence of length <= max_len with its exact log score.

    Independent route: teacher-forced probabilities read off the final
    mixture, UNK excluded, recursion over all candidate indices.
    """
    extra = extended_vocab(enc, vocab)[0]
    width = len(vocab) + len(extra)
    results = []

    def rec(state, prev_id, tokens, score, depth):
        if depth == max_len:
            return
        step = decode_step(tape, params, enc, state, prev_id)
        dist, _ = final_distribution(step, enc, vocab)
        for idx in range(width):
            if idx == text.UNK_ID or dist[idx] <= 0.0:
                continue
            s = score + math.log(dist[idx])
            if idx == text.EOS_ID:
                results.append((s, tuple(tokens)))
            else:
                surface = vocab.token(idx) if idx < len(vocab) else extra[idx - len(vocab)]
                rec(step.state, idx if idx < len(vocab) else text.UNK_ID,
                    tokens + [surface], s, depth + 1)

    rec(init_decoder(tape, params, enc), text.BOS_ID, [], 0.0, 0)
    return results


@pytest.mark.parametrize("mode", ["seq2seq", "pair2seq"])
@pytest.mark.parametrize("seed", [13, 99])
def test_beam_full_width_matches_enumeration(mode, seed):
    tape, params, enc, vocab = toy_setup(mode, seed)
    max_len = 3
    oracle = enumerate_finished(tape, params, enc, vocab, max_len)
    assert oracle, "toy model must be able to finish within max_len"
    width = len(vocab) + len(extended_vocab(enc, vocab)[0])
    # the last step fans out widest: every surviving parent offers width - 1
    # finite candidates (UNK excluded), parents branch by width - 2 (EOS retires)
    full = (width - 1) * (width - 2) ** (max_len - 1)
    hyps = beam_search(tape, params, enc, vocab, beam_size=full, max_len=max_len)
    assert all(h.finished for h in hyps)
    # with no pruning the beam must recover the oracle set exactly
    got = sorted((round(h.score, 9), tuple(h.surface())) for h in hyps)
    want = sorted((round(s, 9), toks) for s, toks in oracle)
    assert got == want
    best_score, best_tokens = max(oracle, key=lambda r: (r[0], r[1]))
    assert hyps[0].score == pytest.approx(best_score, abs=1e-9)


def serial_beam_search(tape, params, enc, vocab, beam_size, max_len):
    """Reference: the per-hypothesis beam loop, one single-row decoder step
    and one full stable sort per step, each hypothesis carrying its own
    decoder state."""
    extended = extended_vocab(enc, vocab)[0]
    width = len(vocab) + len(extended)
    beams = [BeamHypothesis([], 0.0, init_decoder(tape, params, enc), text.BOS_ID)]
    finished = []
    for _ in range(max_len):
        if not beams or len(finished) >= beam_size:
            break
        scores = np.full((len(beams), width), -np.inf)
        next_states = []
        for bi, hyp in enumerate(beams):
            step = decode_step(tape, params, enc, hyp.state, hyp.prev_id)
            next_states.append(step.state)
            dist, _ = final_distribution(step, enc, vocab)
            with np.errstate(divide="ignore"):
                logp = np.log(dist)
            logp[text.UNK_ID] = -np.inf
            scores[bi] = hyp.score + logp
        flat = scores.ravel()
        new_beams = []
        for slot in np.argsort(-flat, kind="stable")[:beam_size]:
            if not math.isfinite(flat[slot]):
                break
            parent, idx = divmod(int(slot), width)
            surface = vocab.token(idx) if idx < len(vocab) else extended[idx - len(vocab)]
            hyp = BeamHypothesis(beams[parent].tokens + [surface], float(flat[slot]),
                                 next_states[parent],
                                 idx if idx < len(vocab) else text.UNK_ID)
            if idx == text.EOS_ID:
                hyp.finished = True
                finished.append(hyp)
            else:
                new_beams.append(hyp)
        beams = new_beams
    return _ranked(finished or beams)


@pytest.mark.parametrize("mode", ["seq2seq", "pair2seq"])
@pytest.mark.parametrize("seed", [1, 7, 13, 99])
def test_batched_beam_equals_per_hypothesis_reference(mode, seed):
    tape, params, enc, vocab = toy_setup(mode, seed)
    width = len(vocab) + len(extended_vocab(enc, vocab)[0])
    for beam_size, max_len in ((1, 6), (2, 6), (5, 6), ((width - 1) * (width - 2) ** 2, 3)):
        got = beam_search(tape, params, enc, vocab, beam_size=beam_size, max_len=max_len)
        want = serial_beam_search(tape, params, enc, vocab, beam_size, max_len)
        assert [h.surface() for h in got] == [h.surface() for h in want]
        assert [h.finished for h in got] == [h.finished for h in want]
        np.testing.assert_allclose([h.score for h in got], [h.score for h in want],
                                   rtol=0, atol=1e-12)


def test_top_k_equals_stable_argsort():
    rng = np.random.default_rng(5)
    grids = [
        rng.integers(0, 4, size=60).astype(float),  # many exact ties
        np.where(rng.random(80) < 0.5, -np.inf, rng.integers(0, 3, size=80).astype(float)),
        np.full(12, -np.inf),
        np.array([0.0, -0.0, 0.0, -1.0, -np.inf]),
        rng.normal(size=200),
    ]
    for flat in grids:
        for k in (1, 2, 3, 5, 17, flat.size - 1, flat.size, flat.size + 4):
            want = np.argsort(-flat, kind="stable")[:k]
            np.testing.assert_array_equal(_top_k(flat, k), want)


def reference_greedy(tape, params, enc, vocab, max_len):
    """Reference: the argmax loop, one single-row decoder step at a time,
    UNK zeroed and ties to the lowest index."""
    state = init_decoder(tape, params, enc)
    prev_id = text.BOS_ID
    extended = extended_vocab(enc, vocab)[0]
    tokens = []
    for _ in range(max_len):
        step = decode_step(tape, params, enc, state, prev_id)
        state = step.state
        dist, _ = final_distribution(step, enc, vocab)
        dist[text.UNK_ID] = 0.0
        idx = int(np.argmax(dist))
        if idx == text.EOS_ID:
            break
        tokens.append(vocab.token(idx) if idx < len(vocab) else extended[idx - len(vocab)])
        prev_id = idx if idx < len(vocab) else text.UNK_ID
    return tokens


def test_beam_size_one_equals_greedy(memorized_toy):
    # a widened init makes the greedy path differ from wider beams' best
    cases = [toy_setup(mode, seed, scale) for mode in ("seq2seq", "pair2seq")
             for seed in (1, 7, 13) for scale in (1.0, 10.0)]
    params, vocab, pairs = memorized_toy
    for pair in pairs:
        tape = Tape()
        cases.append((tape, params, encode_input(tape, params, vocab, pair.paragraph_tokens,
                                                 pair.answer_start, pair.answer_end,
                                                 pair.answerable_tokens), vocab))
    for tape, params, enc, vocab in cases:
        for max_len in (1, 3, 6):
            want = reference_greedy(tape, params, enc, vocab, max_len)
            assert greedy_decode(tape, params, enc, vocab, max_len=max_len) == want
            top = beam_search(tape, params, enc, vocab, beam_size=1, max_len=max_len)[0]
            assert top.surface() == want


def test_unk_never_emitted():
    for seed in (1, 2, 3, 4, 5):
        tape, params, enc, vocab = toy_setup("seq2seq", seed)
        for h in beam_search(tape, params, enc, vocab, beam_size=5, max_len=6):
            assert text.UNK not in h.tokens
        assert text.UNK not in greedy_decode(tape, params, enc, vocab, max_len=6)


def test_beam_rejects_bad_size():
    tape, params, enc, vocab = toy_setup()
    with pytest.raises(ValueError, match="beam_size"):
        beam_search(tape, params, enc, vocab, beam_size=0)
    with pytest.raises(ValueError, match="max_len"):
        beam_search(tape, params, enc, vocab, max_len=0)


def test_hypothesis_scores_recompute_by_teacher_forcing():
    for max_len in (2, 6):
        tape, params, enc, vocab = toy_setup("pair2seq")
        for h in beam_search(tape, params, enc, vocab, beam_size=4, max_len=max_len):
            again = score_sequence(tape, params, enc, vocab, h.surface(),
                                   include_eos=h.finished)
            assert h.score == pytest.approx(again, abs=1e-9)


def test_beam_monotone_in_width_and_beats_greedy(memorized_toy):
    # a trained model terminates on its own, making the score space honest
    params, vocab, pairs = memorized_toy
    for pair in pairs:
        tape = Tape()
        enc = encode_input(tape, params, vocab, pair.paragraph_tokens,
                           pair.answer_start, pair.answer_end, pair.answerable_tokens)
        greedy = greedy_decode(tape, params, enc, vocab, max_len=8)
        assert len(greedy) < 8, "trained decode must terminate via EOS"
        greedy_score = score_sequence(tape, params, enc, vocab, greedy)
        prev = -math.inf
        for width in (1, 2, 3, 5, 8):
            top = beam_search(tape, params, enc, vocab, beam_size=width, max_len=8)[0]
            assert top.finished
            assert top.score >= prev - 1e-9
            prev = top.score
        assert prev >= greedy_score - 1e-9


def test_greedy_reproduces_memorized_targets(memorized_toy):
    params, vocab, pairs = memorized_toy
    for pair in pairs:
        tape = Tape()
        enc = encode_input(tape, params, vocab, pair.paragraph_tokens,
                           pair.answer_start, pair.answer_end, pair.answerable_tokens)
        assert greedy_decode(tape, params, enc, vocab) == pair.unanswerable_tokens


def test_greedy_is_deterministic_and_bounded():
    tape, params, enc, vocab = toy_setup()
    a = greedy_decode(tape, params, enc, vocab, max_len=4)
    b = greedy_decode(Tape(), params, enc, vocab, max_len=4)
    assert a == b
    assert len(a) <= 4


def test_score_sequence_unreachable_token():
    for mode in ("seq2seq", "pair2seq"):
        tape, params, enc, vocab = toy_setup(mode)
        assert score_sequence(tape, params, enc, vocab, ["nowhere"]) == -math.inf
        assert score_sequence(tape, params, enc, vocab, ["aa", "nowhere", "bb"]) == -math.inf
        assert score_sequence(tape, params, enc, vocab, [], include_eos=False) == 0.0
        # a saturated copy gate gives the copy-only token "zz" probability exactly 0
        params["gate_b"].data[:] = 50.0
        assert score_sequence(tape, params, enc, vocab, ["zz"]) == -math.inf
        assert score_sequence(tape, params, enc, vocab, ["aa"]) > -math.inf


class CountingVocab(Vocab):
    """A vocabulary that counts its membership tests."""
    lookups = 0

    def __contains__(self, token):
        self.lookups += 1
        return super().__contains__(token)


@pytest.mark.parametrize("mode", ["seq2seq", "pair2seq"])
def test_keys_and_copy_map_are_built_once_per_encoded_input(mode, monkeypatch):
    vocab = CountingVocab(["aa", "bb"])
    params = ModelParams(len(vocab), mode, word_dim=6, enc_hidden=3, seed=13)
    params["out_b"].data[0, text.EOS_ID] = -50.0  # nothing finishes: every step runs
    tape = Tape()
    enc = encode_input(tape, params, vocab, ["aa", "zz", "bb", "zz"], 1, 2, ["bb", "qq"])
    assert vocab.lookups == len(enc.copy_tokens)  # one membership test per copy position
    assert enc.extra == {"seq2seq": ["zz", "qq"], "pair2seq": ["qq", "zz"]}[mode]
    steps = []
    real_step = decode.decode_step
    monkeypatch.setattr(decode, "decode_step",
                        lambda *args, **kw: steps.append(1) or real_step(*args, **kw))
    hyps = beam_search(tape, params, enc, vocab, beam_size=3, max_len=4)
    assert len(steps) == 4 and not any(h.finished for h in hyps)
    assert vocab.lookups == len(enc.copy_tokens)
    keys = [e for e in tape.entries if e.kind == "matmul"
            and any(t is params["attn_W"] or t is params["copy_W"] for t in e.inputs)]
    assert len(keys) == params.n_contexts + 1


def reference_score_sequence(tape, params, enc, vocab, surface_tokens, include_eos):
    """Reference: one single-row decoder step per token, log-probabilities
    added in token order."""
    extra = extended_vocab(enc, vocab)[0]
    index = {tok: len(vocab) + k for k, tok in enumerate(extra)}
    state = init_decoder(tape, params, enc)
    prev_id = text.BOS_ID
    total = 0.0
    for tok in list(surface_tokens) + ([text.EOS] if include_eos else []):
        step = decode_step(tape, params, enc, state, prev_id)
        state = step.state
        dist, _ = final_distribution(step, enc, vocab)
        idx = vocab.id(tok) if tok in vocab else index[tok]
        total += math.log(dist[idx])
        prev_id = idx if idx < len(vocab) else text.UNK_ID
    return total


@pytest.mark.parametrize("mode", ["seq2seq", "pair2seq"])
def test_score_sequence_equals_stepwise_reference(mode):
    kinds = set()
    for seed in (1, 7, 13, 99):
        tape, params, enc, vocab = toy_setup(mode, seed)
        # the toy beams never copy the out-of-vocabulary "zz"; this sequence does
        sequences = [(["zz", "bb", "zz", "aa"], True), (["zz", "zz"], False)]
        for beam_size, max_len in ((4, 2), (4, 6), (16, 6)):
            for h in beam_search(tape, params, enc, vocab, beam_size=beam_size,
                                 max_len=max_len):
                kinds.add(h.finished)
                sequences.append((h.surface(), h.finished))
        for tokens, finished in sequences:
            got = score_sequence(tape, params, enc, vocab, tokens, include_eos=finished)
            want = reference_score_sequence(tape, params, enc, vocab, tokens, finished)
            assert abs(got - want) <= 1e-12
    assert kinds == {True, False}


def test_partial_hypotheses_returned_when_nothing_finishes():
    tape, params, enc, vocab = toy_setup()
    hyps = beam_search(tape, params, enc, vocab, beam_size=2, max_len=1)
    assert hyps
    for h in hyps:
        if not h.finished:
            assert len(h.tokens) == 1
            again = score_sequence(tape, params, enc, vocab, h.tokens, include_eos=False)
            assert h.score == pytest.approx(again, abs=1e-9)


def test_filter_outputs_exact_source_match():
    source = ["what", "is", "it", "?"]
    same = BeamHypothesis(source + [text.EOS], -1.0, None, 0, finished=True)
    near = BeamHypothesis(["what", "was", "it", "?", text.EOS], -2.0, None, 0,
                          finished=True)
    dup = BeamHypothesis(["what", "was", "it", "?", text.EOS], -3.0, None, 0,
                         finished=True)
    kept = filter_outputs([same, near, dup], source)
    assert kept == [near, dup]  # order preserved, duplicates kept
    assert filter_outputs([same], source) == []


def test_generate_for_example_filters_and_bounds():
    vocab = Vocab(["aa", "bb"])
    params = ModelParams(len(vocab), "seq2seq", word_dim=6, enc_hidden=3, seed=13)
    pair = AlignedPair(title="t", paragraph_tokens=["aa", "zz", "bb"],
                       answer_start=1, answer_end=2,
                       answerable_tokens=["bb", "aa"], unanswerable_tokens=["aa"])
    out = generate_for_example(params, vocab, pair, beam_size=4, max_len=5, nbest=2)
    assert len(out) <= 2
    for h in out:
        assert h.surface() != pair.answerable_tokens
    again = generate_for_example(params, vocab, pair, beam_size=4, max_len=5, nbest=2)
    assert [(h.surface(), h.score) for h in out] == \
        [(h.surface(), h.score) for h in again]


@pytest.mark.parametrize("mode", ["seq2seq", "pair2seq"])
def test_non_recording_tape_decodes_and_scores_bit_identically(mode):
    vocab = Vocab(["aa", "bb"])
    params = ModelParams(len(vocab), mode, word_dim=6, enc_hidden=3, seed=13)
    pair = AlignedPair(title="t", paragraph_tokens=["zz", "aa", "zz", "yy"], answer_start=1,
                       answer_end=2, answerable_tokens=["zz", "yy", "bb"],
                       unanswerable_tokens=["aa"])  # zz and yy are out of vocabulary
    runs = []
    for record in (True, False):
        tape = Tape(record=record)
        enc = encode_input(tape, params, vocab, pair.paragraph_tokens, pair.answer_start,
                           pair.answer_end, pair.answerable_tokens)
        hyps = beam_search(tape, params, enc, vocab, beam_size=6, max_len=4)
        scores = [score_sequence(tape, params, enc, vocab, h.tokens, include_eos=False)
                  for h in hyps]
        scores.append(score_sequence(tape, params, enc, vocab, ["yy", "bb", "zz"]))
        runs.append(([(h.tokens, h.score, h.finished) for h in hyps], scores, hyps, tape))
    (want, want_scores, hyps, recorded), (got, got_scores, _, skipped) = runs
    assert got == want and got_scores == want_scores  # float equality: bit for bit
    assert any("zz" in tokens for tokens, _, _ in got)
    assert len(recorded.entries) > 100 and skipped.entries == []
    generated = generate_for_example(params, vocab, pair, beam_size=6, max_len=4, nbest=6)
    assert [(h.tokens, h.score) for h in generated] == \
        [(h.tokens, h.score) for h in filter_outputs(hyps, pair.answerable_tokens)]


def test_generation_file_round_trip(tmp_path):
    rows = [("q1", ["why", "not", "?"], -3.25), ("q2", ["when", "?"], -0.5)]
    path = tmp_path / "gen.tsv"
    save_generations(path, rows)
    loaded = load_generations(path)
    assert [(q, t) for q, t, _ in loaded] == [(q, t) for q, t, _ in rows]
    for (_, _, a), (_, _, b) in zip(loaded, rows):
        assert a == pytest.approx(b, abs=1e-6)


def test_generation_file_rejects_bad_rows(tmp_path):
    path = tmp_path / "gen.tsv"
    path.write_text("q1\tonly two fields\n", encoding="utf-8")
    with pytest.raises(ValueError, match="gen.tsv:1"):
        load_generations(path)
    # a score that is not a number, or not finite, names its file and line
    for bad in ("x", "nan", "inf", "-inf", ""):
        path.write_text(f"q1\tfine\t-1.0\nq2\tbad score\t{bad}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"gen.tsv:2: score {bad!r}"):
            load_generations(path)
