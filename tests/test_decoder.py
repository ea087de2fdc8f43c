"""The gate-fused, row-state decoder against the four-matrix reference.

The reference (`conftest._reference_decode` and its helpers, run by the
`reference_model` fixture) keeps checkpoint version 1's decoder: a [rows x
S] row state, each gate multiplying the joined [word; contexts; hidden] row
by its own matrix, one entry point for k teacher-forced steps of one row
and one for a single step of many rows. On `_join_gates` of the same
per-gate arrays, `model.decode_step` must give the same losses, gradients
and beams.
"""

import numpy as np
import pytest

from conftest import assert_joined_grads_match, gate_twin, make_pair, toy_vocab
from unansqgen import decode, model, text, train
from unansqgen.model import (DecoderState, DropStream, ModelParams, decode_step, encode_input,
                             init_decoder)
from unansqgen.tensor import Tape, backward


# targets: lengths 1 and 12, OOV tokens ("xx" is copied from the source, "zz"
# is nowhere in it), and a 12-token target truncated by a max_len of 6
TARGETS = {
    "length-1": (["bb"], 50),
    "length-12": (["aa", "bb", "cc", "dd", "ee", "ff"] * 2, 50),
    "oov": (["dd", "xx", "zz", "bb"], 50),
    "truncated": (["cc", "xx", "aa", "zz"] * 3, 6),
}


@pytest.mark.parametrize("mode", ["seq2seq", "pair2seq"])
@pytest.mark.parametrize("case", sorted(TARGETS))
def test_example_loss_matches_four_matrix_decoder(mode, case, reference_model):
    vocab = toy_vocab()
    params, twin = gate_twin(len(vocab), mode, word_dim=16, enc_hidden=8, seed=len(case))
    target, max_len = TARGETS[case]
    pair = make_pair(["aa", "xx", "cc", "dd", "bb"], 1, 3, ["ee", "xx", "aa"], target)

    def run(p):
        drops = DropStream((7, len(case)), keep=0.8)
        tape, loss, steps = train._example_loss(p, vocab, pair, max_len, drops=drops)
        return float(loss.data), steps, backward(loss, tape)

    loss, steps, grads = run(params)
    want_loss, want_steps, want_grads = reference_model(lambda: run(twin))
    assert steps == want_steps == min(len(target), max_len - 1) + 1
    assert loss == pytest.approx(want_loss, rel=1e-12, abs=0)
    assert_joined_grads_match(grads, want_grads, twin)


@pytest.mark.parametrize("mode", ["seq2seq", "pair2seq"])
def test_beams_and_scores_match_four_matrix_decoder(mode, reference_model):
    vocab = toy_vocab()
    params, twin = gate_twin(len(vocab), mode, word_dim=8, enc_hidden=4, seed=29)
    pair = make_pair(["aa", "xx", "cc", "dd"], 0, 2, ["ee", "xx"], ["ee", "bb"])

    def run(p):
        tape = Tape()
        enc = encode_input(tape, p, vocab, pair.paragraph_tokens, pair.answer_start,
                           pair.answer_end, pair.answerable_tokens)
        hyps = decode.beam_search(tape, p, enc, vocab, beam_size=4, max_len=5)
        return [(h.tokens, h.score, decode.score_sequence(tape, p, enc, vocab, h.surface(),
                                                           include_eos=h.finished))
                for h in hyps]

    got = run(params)
    want = reference_model(lambda: run(twin))
    assert [tokens for tokens, _, _ in got] == [tokens for tokens, _, _ in want]
    for (_, score, rescored), (_, want_score, want_rescored) in zip(got, want):
        assert score == pytest.approx(want_score, rel=0, abs=1e-12)
        assert rescored == pytest.approx(want_rescored, rel=0, abs=1e-12)
        assert rescored == pytest.approx(score, rel=0, abs=1e-9)


@pytest.mark.parametrize("mode", ["seq2seq", "pair2seq"])
def test_beam_rows_equal_single_row_steps(mode):
    # three distinct one-row states advanced four steps as the rows of one
    # state: step-major ids, so id t*3 + r feeds row r at step t
    vocab = toy_vocab()
    params = ModelParams(len(vocab), mode, word_dim=8, enc_hidden=4, seed=3)
    tape = Tape()
    enc = encode_input(tape, params, vocab, ["aa", "xx", "cc"], 1, 2, ["dd", "aa"])
    states = [init_decoder(tape, params, enc)]
    for prev in (text.BOS_ID, vocab.id("aa")):
        states.append(decode_step(tape, params, enc, states[-1], prev).state)
    ids = [[text.BOS_ID, 6, 7, 8], [9, 10, text.UNK_ID, 6], [7, 7, 8, 9]]
    stacked = DecoderState(tape.stack_rows([s.hidden for s in states]),
                           tape.stack_rows([s.cell for s in states]),
                           [tape.stack_rows(list(c)) for c in zip(*(s.contexts for s in states))])
    batch = decode_step(tape, params, enc, stacked, [row[t] for t in range(4) for row in ids])
    for r, (state, row_ids) in enumerate(zip(states, ids)):
        one = decode_step(tape, params, enc, state, row_ids)
        for got, want in [(batch.gate, one.gate), (batch.p_vocab, one.p_vocab),
                          (batch.copy_attn, one.copy_attn)]:
            np.testing.assert_allclose(got.data[r::3], want.data, rtol=0, atol=1e-12)
        pairs = [(batch.state.hidden, one.state.hidden), (batch.state.cell, one.state.cell)]
        for got, want in pairs + list(zip(batch.state.contexts, one.state.contexts)):
            np.testing.assert_allclose(got.data[r:r + 1], want.data, rtol=0, atol=1e-12)


def test_teacher_forced_decode_records_fewer_entries_than_the_four_matrix_decoder():
    # 12 pair2seq steps with dropout: the four-matrix decoder recorded 341
    # entries (26 per step plus a 13-entry output layer and 16 more); the
    # fused one records 22 per step and hoists the word side of the gates
    vocab = toy_vocab()
    params = ModelParams(len(vocab), "pair2seq", word_dim=6, enc_hidden=3)
    tape = Tape()
    drops = DropStream((1, 2), 0.8)
    enc = encode_input(tape, params, vocab, ["aa", "bb", "cc"], 0, 1, ["dd", "ee"], drops=drops)
    state = init_decoder(tape, params, enc)
    before = len(tape.entries)
    decode_step(tape, params, enc, state, [text.BOS_ID] + [6] * 11, drops=drops)
    assert len(tape.entries) - before < 341


def test_one_cell_serves_encoder_and_decoder(monkeypatch):
    # seq2seq encodes paragraph, separator and question as one sequence:
    # one cell call per position, then one per decoder step
    vocab = toy_vocab()
    params = ModelParams(len(vocab), "seq2seq", word_dim=6, enc_hidden=3)
    calls = []
    real = model._lstm_cell

    def counted(tape, pre, c_prev):
        calls.append(pre.shape)
        return real(tape, pre, c_prev)

    monkeypatch.setattr(model, "_lstm_cell", counted)
    pair = make_pair(["aa", "bb", "cc"], 0, 1, ["dd", "ee"], ["bb", "cc", "dd"])
    train._example_loss(params, vocab, pair, 50)
    h, s = params.enc_hidden, params.state_size
    assert calls == [(8 * h, 1)] * 6 + [(4 * s, 1)] * 4


@pytest.mark.parametrize("mode", ["seq2seq", "pair2seq"])
def test_state_moves_read_no_constant_matrix(mode, monkeypatch):
    # every state moves by a gather or a slice: no matmul recorded by the
    # encoder, the decoder or the beam's row gather reads a constant (a tensor
    # that is neither a parameter nor a tape output), and the BiLSTM records
    # at most 14 entries per further position
    vocab = toy_vocab()
    params = ModelParams(len(vocab), mode, word_dim=6, enc_hidden=3, seed=4)
    spans, bilstm = [], []  # (tape, first entry, end, args) of each watched call

    def watch(fn, log):
        def run(tape, *args, **kwargs):
            start = len(tape.entries)
            out = fn(tape, *args, **kwargs)
            log.append((tape, start, len(tape.entries), args))
            return out
        return run

    for owner in (train, decode):
        monkeypatch.setattr(owner, "encode_input", watch(encode_input, spans))
        monkeypatch.setattr(owner, "decode_step", watch(decode_step, spans))
    monkeypatch.setattr(decode, "_gather_rows", watch(decode._gather_rows, spans))
    monkeypatch.setattr(model, "_run_bilstm", watch(model._run_bilstm, bilstm))

    for paragraph in (["aa", "xx", "cc"], ["aa", "xx", "cc", "bb", "ee"]):
        pair = make_pair(paragraph, 1, 2, ["dd", "aa"], ["dd", "xx", "bb"])
        train._example_loss(params, vocab, pair, 50, drops=DropStream((1, 2), 0.8))
        tape = Tape()
        enc = decode.encode_input(tape, params, vocab, paragraph, 1, 2, ["dd", "aa"])
        assert decode.beam_search(tape, params, enc, vocab, beam_size=3, max_len=4)
    watched = {e.kind for tape, start, end, _ in spans for e in tape.entries[start:end]}
    assert "matmul" in watched and "embedding-lookup" in watched
    for tape, start, end, _ in spans:
        born = {id(e.output) for e in tape.entries}
        for e in tape.entries[start:end]:
            if e.kind == "matmul":
                assert all(t.requires_grad or id(t) in born for t in e.inputs)
    sizes = {(args[1].shape[0], end - start) for _, start, end, args in bilstm}
    counts = dict(sizes)  # positions -> entries, the same at every call
    assert len(sizes) == len(counts)
    (n_low, low), (n_high, high) = min(counts.items()), max(counts.items())
    assert n_high > n_low and high - low <= 14 * (n_high - n_low)
