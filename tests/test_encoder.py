"""The fused two-direction encoder against the per-direction reference.

The reference (`conftest._reference_run_bilstm`, run by the
`reference_model` fixture) keeps checkpoint version 1's encoder: each
direction steps on its own, and each gate multiplies the joined [input;
state] row by its own [E+H x H] matrix. On `_join_gates` of the same
per-gate arrays, the fused `model._run_bilstm` must give the same states,
losses and gradients.
"""

import json
import struct
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_joined_grads_match, gate_twin, make_pair, toy_corpus, toy_vocab
from unansqgen import model, train
from unansqgen.decode import generate_for_example
from unansqgen.model import (DropStream, ModelParams, _bilstm_cell, _join_gates, _run_bilstm,
                             encode_input)
from unansqgen.tensor import Tape, Tensor, backward, load_checkpoint

FIXTURES = Path(__file__).parent / "fixtures"


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("n", [1, 2, 11, 120])
def test_fused_bilstm_matches_per_direction_reference(n, reference_model):
    params, twin = gate_twin(9, "seq2seq", word_dim=16, enc_hidden=8, seed=n)
    x = Tensor(np.random.default_rng(n).uniform(-1, 1, (n, 16)), requires_grad=True, name="x")
    probe = Tensor(np.random.default_rng(n + 1).uniform(-1, 1, (n, 16)))

    def run(p):
        tape = Tape()
        emb = tape.tanh(x)  # a tracked non-leaf input, as the encoder gets
        states, final = model._run_bilstm(tape, model._bilstm_cell(tape, p), emb)
        loss = tape.add(tape.sum(tape.mul(states, probe)), tape.sum(tape.tanh(final)))
        return [a.data for a in (states, final, loss)], backward(loss, tape)

    got, grads = run(params)
    want, want_grads = reference_model(lambda: run(twin))
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert_close(a, b)
    assert_joined_grads_match(grads, want_grads, twin)


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
                                                      reference_model):
    vocab = toy_vocab()
    params, twin = gate_twin(len(vocab), mode, word_dim=16, enc_hidden=8, seed=paragraph_len)
    pair = _oov_pair(paragraph_len, question_len)

    def run(p):
        drops = DropStream((7, paragraph_len), keep=0.8)
        tape, loss, _ = train._example_loss(p, vocab, pair, 50, drops=drops)
        return float(loss.data), backward(loss, tape)

    loss, grads = run(params)
    want_loss, want_grads = reference_model(lambda: run(twin))
    assert loss == pytest.approx(want_loss, rel=1e-12, abs=0)
    assert_joined_grads_match(grads, want_grads, twin)


@pytest.mark.parametrize("n", [1, 7, 120])
def test_bilstm_records_at_most_16_entries_per_position(n):
    # both directions step together: 14 entries per position plus a fixed
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
    # beam 3, max_len 6, nbest 3 over the probes below. They stay version-1
    # files, so that reading version 1 stays covered.
    path = FIXTURES / f"toy-{mode}.ckpt"
    assert struct.unpack_from("<I", path.read_bytes(), 8) == (1,)
    assert json.loads(Path(f"{path}.json").read_text())["format_version"] == 1
    params, _ = ModelParams.load(path)
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


@pytest.mark.parametrize("mode", ["seq2seq", "pair2seq"])
def test_version_1_checkpoint_resaves_as_version_2_bit_for_bit(mode, tmp_path):
    path = FIXTURES / f"toy-{mode}.ckpt"
    params, sidecar = ModelParams.load(path)
    version, arrays = load_checkpoint(path)
    assert version == 1
    joined = _join_gates(arrays, params.word_dim)
    assert len(params.tensors) == {"seq2seq": 17, "pair2seq": 22}[mode]
    saved = tmp_path / "v2.ckpt"
    params.save(saved, extra=sidecar["extra"])
    assert struct.unpack_from("<I", saved.read_bytes(), 8) == (2,)
    assert json.loads(Path(f"{saved}.json").read_text())["format_version"] == 2
    again, _ = ModelParams.load(saved)
    for name, t in again.items():
        assert t.data.tobytes() == params[name].data.tobytes() == joined[name].tobytes(), name
