"""The fused two-direction encoder against the per-direction reference.

`_reference_lstm_step` and `_reference_run_bilstm` keep the earlier
encoder: each direction steps on its own, and each gate multiplies the
joined [input; state] row by its own [E+H x H] matrix. The fused
`model._run_bilstm` must give the same states, losses and gradients.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import make_pair, toy_corpus, toy_vocab
from unansqgen import model, train
from unansqgen.decode import generate_for_example
from unansqgen.model import DropStream, ModelParams, _bilstm_cell, _run_bilstm, encode_input
from unansqgen.tensor import Tape, Tensor, backward

FIXTURES = Path(__file__).parent / "fixtures"


def _reference_lstm_step(tape, params, prefix, x, h_prev, c_prev):
    z = tape.concat_cols([x, h_prev])
    gi = tape.sigmoid(tape.add(tape.matmul(z, params[f"{prefix}_Wi"]), params[f"{prefix}_bi"]))
    gf = tape.sigmoid(tape.add(tape.matmul(z, params[f"{prefix}_Wf"]), params[f"{prefix}_bf"]))
    go = tape.sigmoid(tape.add(tape.matmul(z, params[f"{prefix}_Wo"]), params[f"{prefix}_bo"]))
    gc = tape.tanh(tape.add(tape.matmul(z, params[f"{prefix}_Wc"]), params[f"{prefix}_bc"]))
    c = tape.add(tape.mul(gf, c_prev), tape.mul(gi, gc))
    h = tape.mul(go, tape.tanh(c))
    return h, c


def _reference_run_bilstm(tape, params, emb):
    n = emb.shape[0]
    h0 = Tensor(np.zeros((1, params.enc_hidden)))
    rows = [tape.slice_rows(emb, i, i + 1) for i in range(n)]

    def run(prefix, xs):
        h, c = h0, h0
        out = []
        for x in xs:
            h, c = _reference_lstm_step(tape, params, prefix, x, h, c)
            out.append(h)
        return out

    fw = run("enc_fw", rows)
    bw = run("enc_bw", reversed(rows))[::-1]
    states = tape.concat_cols([tape.stack_rows(fw), tape.stack_rows(bw)])
    return states, fw[-1], bw[0]


@pytest.fixture
def reference_encoder(monkeypatch):
    """Call `reference_encoder(fn)` to run `fn()` with the per-direction encoder."""
    def run(fn):
        with monkeypatch.context() as m:
            m.setattr(model, "_bilstm_cell", lambda tape, params: params)
            m.setattr(model, "_run_bilstm", _reference_run_bilstm)
            return fn()
    return run


def assert_grads_match(grads, want):
    assert set(grads) == set(want)
    for t, g in want.items():
        assert np.max(np.abs(grads[t] - g)) <= 1e-12 * np.max(np.abs(g)), t.name


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("n", [1, 2, 11, 120])
def test_fused_bilstm_matches_per_direction_reference(n, reference_encoder):
    params = ModelParams(9, "seq2seq", word_dim=16, enc_hidden=8, seed=n)
    x = Tensor(np.random.default_rng(n).uniform(-1, 1, (n, 16)), requires_grad=True, name="x")
    probe = Tensor(np.random.default_rng(n + 1).uniform(-1, 1, (n, 16)))

    def run():
        tape = Tape()
        emb = tape.tanh(x)  # a tracked non-leaf input, as the encoder gets
        states, final_fw, final_bw = model._run_bilstm(tape, model._bilstm_cell(tape, params), emb)
        loss = tape.add(tape.sum(tape.mul(states, probe)),
                        tape.sum(tape.tanh(tape.concat_cols([final_fw, final_bw]))))
        return [a.data for a in (states, final_fw, final_bw, loss)], backward(loss, tape)

    got, grads = run()
    want, want_grads = reference_encoder(run)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert_close(a, b)
    assert_grads_match(grads, want_grads)


def _oov_pair(paragraph_len, question_len):
    # paragraphs of 3+ tokens and questions of 2+ hold the OOV token "xx",
    # which the target copies; the target's "zz" is in no input
    words = ["aa", "bb", "cc", "dd", "ee", "ff", "xx"]
    paragraph = [words[(3 * i) % 7] for i in range(paragraph_len)]
    question = [words[(5 * i + 1) % 7] for i in range(question_len)]
    return make_pair(paragraph, 0, 1, question, question[:1] + ["xx", "zz", "bb"])


@pytest.mark.parametrize("mode", ["seq2seq", "pair2seq"])
@pytest.mark.parametrize("paragraph_len,question_len", [(1, 1), (2, 2), (11, 11), (120, 2)])
def test_example_loss_matches_per_direction_reference(mode, paragraph_len, question_len,
                                                      reference_encoder):
    vocab = toy_vocab()
    params = ModelParams(len(vocab), mode, word_dim=16, enc_hidden=8, seed=paragraph_len)
    pair = _oov_pair(paragraph_len, question_len)

    def run():
        drops = DropStream((7, paragraph_len), keep=0.8)
        tape, loss, _ = train._example_loss(params, vocab, pair, 50, drops=drops)
        return float(loss.data), backward(loss, tape)

    loss, grads = run()
    want_loss, want_grads = reference_encoder(run)
    assert loss == pytest.approx(want_loss, rel=1e-12, abs=0)
    assert_grads_match(grads, want_grads)


@pytest.mark.parametrize("n", [1, 7, 120])
def test_bilstm_records_at_most_16_entries_per_position(n):
    # both directions step together: 15 entries per position plus a fixed
    # count per sequence; stepping each direction alone records 35 per position
    params = ModelParams(9, "seq2seq", word_dim=6, enc_hidden=3)
    tape = Tape()
    _run_bilstm(tape, _bilstm_cell(tape, params), Tensor(np.ones((n, 6))))
    assert len(tape.entries) <= 16 * n + 64


def test_pair2seq_builds_the_recurrent_matrix_once():
    vocab = toy_vocab()
    params = ModelParams(len(vocab), "pair2seq", word_dim=6, enc_hidden=3)
    tape = Tape()
    encode_input(tape, params, vocab, ["aa", "bb", "cc"], 0, 1, ["dd", "ee"])
    h = params.enc_hidden
    blocks = [e for e in tape.entries
              if e.kind == "stack-rows" and e.output.shape == (2 * h, 8 * h)]
    assert len(blocks) == 1


@pytest.mark.parametrize("mode", ["seq2seq", "pair2seq"])
def test_checkpoint_saved_by_the_per_direction_encoder_decodes_the_same(mode):
    # toy-<mode>.ckpt and the beams in toy-beams.json were written by the
    # per-direction encoder: 40 epochs over the toy corpus at 6/3 dims, then
    # beam 3, max_len 6, nbest 3 over the probes below
    params, _ = ModelParams.load(FIXTURES / f"toy-{mode}.ckpt")
    vocab = toy_vocab()
    assert params.vocab_size == len(vocab)
    pairs, holdout = toy_corpus()
    probes = pairs + holdout + [make_pair(["zz", "bb", "cc", "qq"], 1, 2, ["dd", "zz"],
                                          ["dd", "qq"], k=7)]
    want = json.loads((FIXTURES / "toy-beams.json").read_text())[mode]
    assert len(want) == len(probes)
    for pair, beams in zip(probes, want):
        hyps = generate_for_example(params, vocab, pair, beam_size=3, max_len=6, nbest=3)
        assert [h.tokens for h in hyps] == [tokens for tokens, _ in beams]
        for h, (_, score) in zip(hyps, beams):
            assert h.score == pytest.approx(score, rel=0, abs=1e-9)
