"""The gate-fused, column-state decoder against the four-matrix reference.

`_reference_step`, `_reference_decode_steps` and `_reference_decode_step`
keep the earlier decoder: a [rows x S] row state, each gate multiplying the
joined [word; contexts; hidden] row by its own matrix, one entry point for k
teacher-forced steps of one row and one for a single step of many rows.
`model.decode_step` must give the same losses, gradients and beams.
"""

import numpy as np
import pytest

from conftest import make_pair, toy_vocab
from test_encoder import _reference_lstm_step, assert_grads_match
from unansqgen import decode, model, text, train
from unansqgen.model import (DecoderState, DecoderStepOutput, DropStream, ModelParams,
                             decode_step, encode_input, init_decoder)
from unansqgen.tensor import Tape, Tensor, backward


def _reference_init_decoder(tape, params, enc):
    s0 = tape.tanh(tape.add(
        tape.matmul(tape.concat_cols([enc.final_fw, enc.final_bw]), params["init_W"]),
        params["init_b"]))
    zero = Tensor(np.zeros((1, params.state_size)))
    return DecoderState(s0, zero, [zero] * params.n_contexts)


def _rows(tape, tensors):
    return tensors[0] if len(tensors) == 1 else tape.stack_rows(tensors)


def _reference_step(tape, params, enc, state, y, drops):
    x = tape.concat_cols([y] + state.contexts)
    hidden, cell = _reference_lstm_step(tape, params, "dec", x, state.hidden, state.cell)
    out_hidden = model._maybe_drop(tape, hidden, drops)
    contexts = []
    for states in enc.attn_states:
        keys = tape.matmul(states, params["attn_W"])
        gamma = tape.row_softmax(tape.matmul(hidden, keys, transpose_b=True))
        contexts.append(tape.matmul(gamma, states))
    return DecoderState(hidden, cell, contexts), out_hidden


def _reference_output_layer(tape, params, enc, states, out_hiddens):
    features = tape.concat_cols([_rows(tape, out_hiddens)]
                                + [_rows(tape, c) for c in zip(*(s.contexts for s in states))])
    p_vocab = tape.row_softmax(tape.add(tape.matmul(features, params["out_W"]),
                                        params["out_b"]))
    gate = tape.sigmoid(tape.add(tape.matmul(features, params["gate_W"]), params["gate_b"]))
    copy_keys = tape.matmul(enc.copy_states, params["copy_W"])
    copy_attn = tape.row_softmax(tape.matmul(_rows(tape, [s.hidden for s in states]),
                                             copy_keys, transpose_b=True))
    return DecoderStepOutput(states[-1], gate, p_vocab, copy_attn)


def _reference_decode_steps(tape, params, enc, state, prev_token_ids, drops=None):
    k = len(prev_token_ids)
    ys = tape.embedding(params["word_emb"], prev_token_ids)
    states, out_hiddens = [], []
    for t in range(k):
        y = ys if k == 1 else tape.slice_rows(ys, t, t + 1)
        state, out_hidden = _reference_step(tape, params, enc, state, y, drops)
        states.append(state)
        out_hiddens.append(out_hidden)
    return _reference_output_layer(tape, params, enc, states, out_hiddens)


def _reference_decode_step(tape, params, enc, state, prev_token_ids, drops=None):
    y = tape.embedding(params["word_emb"], prev_token_ids)
    state, out_hidden = _reference_step(tape, params, enc, state, y, drops)
    return _reference_output_layer(tape, params, enc, [state], [out_hidden])


def _reference_decode(tape, params, enc, state, prev_ids, drops=None):
    """The earlier entry points: k steps for a one-row state, else one step per row."""
    ids = [prev_ids] if np.ndim(prev_ids) == 0 else list(prev_ids)
    run = _reference_decode_steps if state.hidden.shape[0] == 1 else _reference_decode_step
    return run(tape, params, enc, state, ids, drops)


def _reference_gather_rows(tape, state, rows):
    def take(t):
        return tape.embedding(t, rows)
    return DecoderState(take(state.hidden), take(state.cell), [take(c) for c in state.contexts])


@pytest.fixture
def reference_decoder(monkeypatch):
    """Call `reference_decoder(fn)` to run `fn()` with the four-matrix decoder."""
    def run(fn):
        with monkeypatch.context() as m:
            for owner in (train, decode):
                m.setattr(owner, "init_decoder", _reference_init_decoder)
                m.setattr(owner, "decode_step", _reference_decode)
            m.setattr(decode, "_gather_rows", _reference_gather_rows)
            return fn()
    return run


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
def test_example_loss_matches_four_matrix_decoder(mode, case, reference_decoder):
    vocab = toy_vocab()
    params = ModelParams(len(vocab), mode, word_dim=16, enc_hidden=8, seed=len(case))
    target, max_len = TARGETS[case]
    pair = make_pair(["aa", "xx", "cc", "dd", "bb"], 1, 3, ["ee", "xx", "aa"], target)

    def run():
        drops = DropStream((7, len(case)), keep=0.8)
        tape, loss, steps = train._example_loss(params, vocab, pair, max_len, drops=drops)
        return float(loss.data), steps, backward(loss, tape)

    loss, steps, grads = run()
    want_loss, want_steps, want_grads = reference_decoder(run)
    assert steps == want_steps == min(len(target), max_len - 1) + 1
    assert loss == pytest.approx(want_loss, rel=1e-12, abs=0)
    assert_grads_match(grads, want_grads)


@pytest.mark.parametrize("mode", ["seq2seq", "pair2seq"])
def test_beams_and_scores_match_four_matrix_decoder(mode, reference_decoder):
    vocab = toy_vocab()
    params = ModelParams(len(vocab), mode, word_dim=8, enc_hidden=4, seed=29)
    pair = make_pair(["aa", "xx", "cc", "dd"], 0, 2, ["ee", "xx"], ["ee", "bb"])

    def run():
        tape = Tape()
        enc = encode_input(tape, params, vocab, pair.paragraph_tokens, pair.answer_start,
                           pair.answer_end, pair.answerable_tokens)
        hyps = decode.beam_search(tape, params, enc, vocab, beam_size=4, max_len=5)
        return [(h.tokens, h.score, decode.score_sequence(tape, params, enc, vocab, h.surface(),
                                                           include_eos=h.finished))
                for h in hyps]

    got = run()
    want = reference_decoder(run)
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
    stacked = DecoderState(tape.concat_cols([s.hidden for s in states]),
                           tape.concat_cols([s.cell for s in states]),
                           [tape.concat_cols(list(c)) for c in zip(*(s.contexts for s in states))])
    batch = decode_step(tape, params, enc, stacked, [row[t] for t in range(4) for row in ids])
    for r, (state, row_ids) in enumerate(zip(states, ids)):
        one = decode_step(tape, params, enc, state, row_ids)
        for got, want in [(batch.gate, one.gate), (batch.p_vocab, one.p_vocab),
                          (batch.copy_attn, one.copy_attn)]:
            np.testing.assert_allclose(got.data[r::3], want.data, rtol=0, atol=1e-12)
        pairs = [(batch.state.hidden, one.state.hidden), (batch.state.cell, one.state.cell)]
        for got, want in pairs + list(zip(batch.state.contexts, one.state.contexts)):
            np.testing.assert_allclose(got.data[:, r:r + 1], want.data, rtol=0, atol=1e-12)


def test_teacher_forced_decode_records_fewer_entries_than_the_four_matrix_decoder():
    # 12 pair2seq steps with dropout: the four-matrix decoder recorded 341
    # entries (26 per step plus a 13-entry output layer and 16 more); the
    # fused one records 23 per step and hoists the word side of the gates
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
