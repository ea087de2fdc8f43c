"""Model architecture tests: embeddings, encoders, interaction, decode step."""

from pathlib import Path

import numpy as np
import pytest

from conftest import gate_twin
from unansqgen import model
from unansqgen.model import (
    ENC_HIDDEN,
    MODES,
    WORD_DIM,
    DecoderState,
    DecoderStepOutput,
    EncodedInput,
    ModelError,
    ModelParams,
    _bilstm_cell,
    _run_bilstm,
    decode_step,
    embed_inputs,
    encode_input,
    extended_vocab,
    final_distribution,
    init_decoder,
    interact,
    load_pretrained_vectors,
)
from unansqgen.tensor import Tape, TapeError, Tensor, backward, grad_check, load_checkpoint
from unansqgen.text import (
    BOS_ID,
    TYPE_ANSWER,
    TYPE_PARAGRAPH,
    TYPE_QUESTION,
    Vocab,
)


def small_params(mode, vocab_size=9, word_dim=6, enc_hidden=3, seed=13):
    return ModelParams(vocab_size, mode, word_dim=word_dim, enc_hidden=enc_hidden, seed=seed)


def small_vocab():
    return Vocab(["aa", "bb", "cc", "dd"])  # ids 5..8


def np_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def np_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


# parameter shapes


def test_params_shapes_at_reference_dims():
    p = ModelParams(10, "seq2seq")
    assert p["word_emb"].shape == (10, WORD_DIM)
    assert p["char_emb"].shape == (97, WORD_DIM)
    assert p["type_emb"].shape == (3, WORD_DIM)
    assert p["enc_Wx"].shape == (WORD_DIM, 8 * ENC_HIDDEN)
    assert p["enc_Wh"].shape == (ENC_HIDDEN, 8 * ENC_HIDDEN)
    assert p["enc_b"].shape == (1, 8 * ENC_HIDDEN)
    s = 2 * ENC_HIDDEN
    assert p["dec_Wx"].shape == (WORD_DIM, 4 * s)
    assert p["dec_Wh"].shape == (s + s, 4 * s)
    assert p["dec_b"].shape == (1, 4 * s)
    assert p["attn_W"].shape == (s, s)
    assert p["copy_W"].shape == (s, s)
    assert p["out_W"].shape == (2 * s, 10)
    assert p["gate_W"].shape == (2 * s, 1)
    assert p["init_W"].shape == (s, s)
    assert p["init_b"].shape == (s, 1)
    assert "interact_W" not in dict(p.items())
    assert len(p.parameters()) == 17


def test_pair2seq_interaction_shapes_and_shared_encoder():
    p = ModelParams(10, "pair2seq")
    s = 2 * ENC_HIDDEN
    assert p["interact_W"].shape == (s, s)
    assert p["interact_Wp"].shape == (2 * s, s)
    assert p["interact_bp"].shape == (1, s)
    assert p["dec_Wh"].shape == (2 * s + s, 4 * s)
    assert p["out_W"].shape == (3 * s, 10)
    # one encoder weight set only, shared by paragraph and question
    assert [n for n, _ in p.items() if n.startswith("enc_")] == ["enc_Wx", "enc_Wh", "enc_b"]
    assert len(p.parameters()) == 22


def test_params_reject_bad_mode_and_vocab():
    with pytest.raises(ModelError):
        ModelParams(10, "transformer")
    with pytest.raises(ModelError):
        ModelParams(3, "seq2seq")


# embeddings


def test_embed_zero_matrices_give_zeros():
    p = small_params("seq2seq")
    for name in ("word_emb", "char_emb", "type_emb"):
        p[name].data[:] = 0.0
    tape = Tape()
    out = embed_inputs(tape, p, [5, 6], [[2, 3], [4]], [TYPE_ANSWER, TYPE_QUESTION])
    np.testing.assert_array_equal(out.data, np.zeros((2, 6)))


def test_embed_single_char_pool_equals_char_row():
    p = small_params("seq2seq")
    tape = Tape()
    out = embed_inputs(tape, p, [5], [[7]], [TYPE_PARAGRAPH])
    expected = (p["word_emb"].data[5] + p["char_emb"].data[7]
                + p["type_emb"].data[TYPE_PARAGRAPH])
    np.testing.assert_allclose(out.data[0], expected)


def test_embed_empty_char_list_contributes_zero():
    p = small_params("seq2seq")
    tape = Tape()
    out = embed_inputs(tape, p, [5], [[]], [TYPE_QUESTION])
    expected = p["word_emb"].data[5] + p["type_emb"].data[TYPE_QUESTION]
    np.testing.assert_allclose(out.data[0], expected)


def test_embed_char_pool_is_columnwise_max():
    p = small_params("seq2seq")
    tape = Tape()
    out = embed_inputs(tape, p, [5], [[2, 9, 30]], [TYPE_QUESTION])
    pooled = p["char_emb"].data[[2, 9, 30]].max(axis=0)
    expected = p["word_emb"].data[5] + pooled + p["type_emb"].data[TYPE_QUESTION]
    np.testing.assert_allclose(out.data[0], expected)


def test_embed_rejects_bad_inputs():
    p = small_params("seq2seq")
    tape = Tape()
    with pytest.raises(ModelError):
        embed_inputs(tape, p, [5, 6], [[1]], [TYPE_ANSWER, TYPE_ANSWER])
    with pytest.raises(ModelError):
        embed_inputs(tape, p, [5], [[1]], [7])


# encoding


def test_encode_seq2seq_shapes_and_copy_candidates():
    p = small_params("seq2seq")
    vocab = small_vocab()
    tape = Tape()
    para = ["aa", "bb", "cc"]
    question = ["dd", "aa"]
    enc = encode_input(tape, p, vocab, para, 1, 2, question)
    L = len(para) + 1 + len(question)
    assert len(enc.attn_states) == 1
    assert enc.attn_states[0].shape == (L, p.state_size)
    assert enc.copy_states.shape == (len(para) + len(question), p.state_size)
    assert enc.copy_tokens == para + question
    assert enc.final.shape == (p.state_size, 1)


def test_encode_pair2seq_shapes_and_copy_order():
    p = small_params("pair2seq")
    vocab = small_vocab()
    tape = Tape()
    para = ["aa", "bb", "cc"]
    question = ["dd", "aa"]
    enc = encode_input(tape, p, vocab, para, 0, 1, question)
    assert len(enc.attn_states) == 2
    assert enc.attn_states[0].shape == (len(para), p.state_size)
    assert enc.attn_states[1].shape == (len(question), p.state_size)
    # question positions first: copying from the question is first-class
    assert enc.copy_tokens == question + para
    assert enc.copy_states.shape == (len(question) + len(para), p.state_size)


def test_encode_rejects_empty_and_bad_span():
    p = small_params("seq2seq")
    vocab = small_vocab()
    with pytest.raises(ModelError):
        encode_input(Tape(), p, vocab, [], 0, 1, ["aa"])
    with pytest.raises(ModelError):
        encode_input(Tape(), p, vocab, ["aa"], 0, 0, ["bb"])
    with pytest.raises(ModelError):
        encode_input(Tape(), p, vocab, ["aa"], 0, 2, ["bb"])


def test_token_types_answer_span_and_separator():
    # gradient of the type embedding reveals which types were looked up
    vocab = small_vocab()

    def type_grad(mode, answer_end):
        p = small_params(mode)
        tape = Tape()
        enc = encode_input(tape, p, vocab, ["aa", "bb"], 0, answer_end, ["cc"])
        loss = tape.sum(enc.attn_states[0]) if mode == "seq2seq" else \
            tape.add(tape.sum(enc.attn_states[0]), tape.sum(enc.attn_states[1]))
        grads = backward(loss, tape)
        return grads[p["type_emb"]]

    g = type_grad("seq2seq", answer_end=1)
    assert np.any(g[TYPE_ANSWER] != 0) and np.any(g[TYPE_PARAGRAPH] != 0)
    assert np.any(g[TYPE_QUESTION] != 0)

    # whole paragraph is the answer: only the separator keeps type P alive
    g = type_grad("seq2seq", answer_end=2)
    assert np.any(g[TYPE_PARAGRAPH] != 0)

    # pair2seq has no separator, so type P vanishes with a full-span answer
    g = type_grad("pair2seq", answer_end=2)
    assert np.all(g[TYPE_PARAGRAPH] == 0)
    assert np.any(g[TYPE_ANSWER] != 0) and np.any(g[TYPE_QUESTION] != 0)


def bilstm(params, emb):
    tape = Tape()
    return _run_bilstm(tape, _bilstm_cell(tape, params), emb)


def test_bilstm_same_weights_same_states():
    p = small_params("pair2seq")
    rng = np.random.default_rng(3)
    emb = Tensor(rng.uniform(-1, 1, (4, p.word_dim)))
    s1, f1 = bilstm(p, emb)
    s2, f2 = bilstm(p, emb)
    np.testing.assert_array_equal(s1.data, s2.data)
    np.testing.assert_array_equal(f1.data, f2.data)
    # the final state is [last forward state; first backward state]
    np.testing.assert_array_equal(f1.data[:, 0], np.concatenate([s1.data[-1, :p.enc_hidden],
                                                                 s1.data[0, p.enc_hidden:]]))


def test_bilstm_reversal_semantics():
    p = small_params("seq2seq")
    rng = np.random.default_rng(4)
    emb = rng.uniform(-1, 1, (5, p.word_dim))
    rev = emb[::-1].copy()
    h = p.enc_hidden

    states, _ = bilstm(p, Tensor(emb))
    states_r, _ = bilstm(p, Tensor(rev))
    # directions hold distinct weights: reversal changes the forward half
    assert not np.allclose(states.data[:, :h], states_r.data[::-1, :h])

    # tie the directions (copy each gate's forward columns over its backward
    # ones): reversal then mirrors positions and swaps halves
    for name in ("enc_Wx", "enc_Wh", "enc_b"):
        blocks = p[name].data.reshape(len(p[name].data), 4, 2, h)  # gate, direction, unit
        blocks[:, :, 1] = blocks[:, :, 0]
    states, _ = bilstm(p, Tensor(emb))
    states_r, _ = bilstm(p, Tensor(rev))
    swapped = np.concatenate([states.data[:, h:], states.data[:, :h]], axis=1)
    np.testing.assert_allclose(states_r.data, swapped[::-1], atol=1e-12)


# interaction layer


def test_interact_matches_numpy_oracle():
    p = small_params("pair2seq")
    rng = np.random.default_rng(5)
    hp = rng.uniform(-1, 1, (4, p.state_size))
    hq = rng.uniform(-1, 1, (3, p.state_size))
    fused_p, fused_q = interact(Tape(), p, Tensor(hp), Tensor(hq))

    w = p["interact_W"].data
    alpha = np_softmax(hp @ w @ hq.T)
    want_p = np.tanh(np.concatenate([hp, alpha @ hq], axis=1)
                     @ p["interact_Wp"].data + p["interact_bp"].data)
    beta = np_softmax(hq @ w.T @ hp.T)
    want_q = np.tanh(np.concatenate([hq, beta @ hp], axis=1)
                     @ p["interact_Wq"].data + p["interact_bq"].data)
    np.testing.assert_allclose(fused_p.data, want_p, atol=1e-12)
    np.testing.assert_allclose(fused_q.data, want_q, atol=1e-12)
    assert np.allclose(alpha.sum(axis=1), 1.0) and np.allclose(beta.sum(axis=1), 1.0)


def test_interact_singleton_question():
    p = small_params("pair2seq")
    rng = np.random.default_rng(6)
    hp = rng.uniform(-1, 1, (3, p.state_size))
    hq = rng.uniform(-1, 1, (1, p.state_size))
    fused_p, _ = interact(Tape(), p, Tensor(hp), Tensor(hq))
    # alpha rows are [1.0]: every paragraph position attends the lone question state
    attended = np.repeat(hq, 3, axis=0)
    want = np.tanh(np.concatenate([hp, attended], axis=1)
                   @ p["interact_Wp"].data + p["interact_bp"].data)
    np.testing.assert_allclose(fused_p.data, want, atol=1e-12)


def test_interact_zero_projection_gives_zeros():
    p = small_params("pair2seq")
    p["interact_Wp"].data[:] = 0.0
    p["interact_bp"].data[:] = 0.0
    rng = np.random.default_rng(7)
    hp = Tensor(rng.uniform(-1, 1, (3, p.state_size)))
    hq = Tensor(rng.uniform(-1, 1, (2, p.state_size)))
    fused_p, fused_q = interact(Tape(), p, hp, hq)
    np.testing.assert_array_equal(fused_p.data, np.zeros((3, p.state_size)))
    assert np.any(fused_q.data != 0)


# decoder


def encode_example(p, vocab, tape=None):
    tape = tape or Tape()
    enc = encode_input(tape, p, vocab, ["aa", "bb", "zz", "cc"], 1, 3, ["dd", "aa"])
    return tape, enc


def test_decode_step_matches_numpy_oracle():
    # the oracle steps the per-gate (checkpoint version 1) weights that
    # `p` holds joined
    p, twin = gate_twin(9, "seq2seq", word_dim=6, enc_hidden=3, seed=13)
    vocab = small_vocab()
    tape, enc = encode_example(p, vocab)
    state = init_decoder(tape, p, enc)
    step = decode_step(tape, p, enc, state, BOS_ID)

    arr = {name: t.data for name, t in twin.items()}
    h_prev, c_prev = state.hidden.data, np.zeros((1, p.state_size))
    x = np.concatenate([arr["word_emb"][[BOS_ID]], np.zeros((1, p.state_size))], axis=1)
    z = np.concatenate([x, h_prev], axis=1)
    gi = np_sigmoid(z @ arr["dec_Wi"] + arr["dec_bi"])
    gf = np_sigmoid(z @ arr["dec_Wf"] + arr["dec_bf"])
    go = np_sigmoid(z @ arr["dec_Wo"] + arr["dec_bo"])
    gc = np.tanh(z @ arr["dec_Wc"] + arr["dec_bc"])
    c = gf * c_prev + gi * gc
    h = go * np.tanh(c)
    H = enc.attn_states[0].data
    gamma = np_softmax(h @ (H @ arr["attn_W"]).T)
    ctx = gamma @ H
    features = np.concatenate([h, ctx], axis=1)
    np.testing.assert_allclose(step.state.hidden.data, h, atol=1e-12)
    np.testing.assert_allclose(step.state.contexts[0].data, ctx, atol=1e-12)
    np.testing.assert_allclose(
        step.p_vocab.data, np_softmax(features @ arr["out_W"] + arr["out_b"]), atol=1e-12)
    np.testing.assert_allclose(
        step.gate.data, np_sigmoid(features @ arr["gate_W"] + arr["gate_b"]), atol=1e-12)
    copy = np_softmax(h @ (enc.copy_states.data @ arr["copy_W"]).T)
    np.testing.assert_allclose(step.copy_attn.data, copy, atol=1e-12)


def test_decoder_distributions_normalized_both_modes():
    vocab = small_vocab()
    for mode in ("seq2seq", "pair2seq"):
        for seed in (1, 2, 3):
            p = small_params(mode, seed=seed)
            tape, enc = encode_example(p, vocab)
            state = init_decoder(tape, p, enc)
            prev = BOS_ID
            for _ in range(3):
                step = decode_step(tape, p, enc, state, prev)
                assert abs(float(step.p_vocab.data.sum()) - 1.0) < 1e-9
                assert abs(float(step.copy_attn.data.sum()) - 1.0) < 1e-9
                g = float(step.gate.data[0, 0])
                assert 0.0 < g < 1.0
                dist, extra = final_distribution(step, enc, vocab)
                assert abs(dist.sum() - 1.0) < 1e-8
                assert np.all(dist >= 0.0)
                assert extra == ["zz"]
                state = step.state
                prev = int(np.argmax(dist[:len(vocab)]))


@pytest.mark.parametrize("mode", ["seq2seq", "pair2seq"])
def test_row_batched_step_equals_single_row_steps(mode):
    vocab = small_vocab()
    p = small_params(mode, seed=5)
    tape, enc = encode_example(p, vocab)
    # four distinct states: the initial one and three steps along a path
    states = [init_decoder(tape, p, enc)]
    for prev in (BOS_ID, vocab.id("aa"), vocab.id("cc")):
        states.append(decode_step(tape, p, enc, states[-1], prev).state)
    ids = [vocab.id("bb"), BOS_ID, vocab.id("dd"), vocab.id("aa")]
    stacked = DecoderState(tape.stack_rows([s.hidden for s in states]),
                           tape.stack_rows([s.cell for s in states]),
                           [tape.stack_rows(list(c)) for c in zip(*(s.contexts for s in states))])
    batch = decode_step(tape, p, enc, stacked, ids)
    dists, _ = final_distribution(batch, enc, vocab)
    assert dists.shape == (4, len(vocab) + 1)
    for r, (state, prev) in enumerate(zip(states, ids)):
        one = decode_step(tape, p, enc, state, prev)
        for got, want in [(batch.gate, one.gate), (batch.p_vocab, one.p_vocab),
                          (batch.copy_attn, one.copy_attn)]:
            np.testing.assert_allclose(got.data[r], want.data[0], rtol=0, atol=1e-12)
        for got, want in [(batch.state.hidden, one.state.hidden),
                          (batch.state.cell, one.state.cell)]:
            np.testing.assert_allclose(got.data[r], want.data[0], rtol=0, atol=1e-12)
        for got, want in zip(batch.state.contexts, one.state.contexts):
            np.testing.assert_allclose(got.data[r], want.data[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(dists[r], final_distribution(one, enc, vocab)[0],
                                   rtol=0, atol=1e-12)
    with pytest.raises(TapeError):
        decode_step(tape, p, enc, stacked, ids[:3])


def test_extended_vocab_first_occurrence_order():
    vocab = small_vocab()
    enc = EncodedInput([], [], None, None, ["zz", "aa", "yy", "zz"], None, vocab)
    extra, targets = extended_vocab(enc, vocab)
    assert extra == ["zz", "yy"]
    assert targets == [len(vocab), vocab.id("aa"), len(vocab) + 1, len(vocab)]


def test_final_distribution_gate_endpoints():
    vocab = small_vocab()
    V = len(vocab)
    enc = EncodedInput([], [], None, None, ["aa", "bb", "aa"], None, vocab)
    p_vocab = np.full((1, V), 1.0 / V)
    step = DecoderStepOutput(None, Tensor([[1.0]]), Tensor(p_vocab),
                             Tensor([[0.2, 0.5, 0.3]]))
    dist, extra = final_distribution(step, enc, vocab)
    assert extra == []
    np.testing.assert_allclose(dist, p_vocab[0])

    step = DecoderStepOutput(None, Tensor([[0.0]]), Tensor(p_vocab),
                             Tensor([[0.2, 0.5, 0.3]]))
    dist, _ = final_distribution(step, enc, vocab)
    # occurrence sum: P(aa) = 0.2 + 0.3, P(bb) = 0.5
    assert dist[vocab.id("aa")] == pytest.approx(0.5)
    assert dist[vocab.id("bb")] == pytest.approx(0.5)
    assert dist.sum() == pytest.approx(1.0)


def test_final_distribution_mixture_midpoint():
    vocab = small_vocab()
    V = len(vocab)
    enc = EncodedInput([], [], None, None, ["aa", "qq"], None, vocab)
    p_vocab = np.zeros((1, V))
    p_vocab[0, vocab.id("aa")] = 1.0
    step = DecoderStepOutput(None, Tensor([[0.25]]), Tensor(p_vocab),
                             Tensor([[0.4, 0.6]]))
    dist, extra = final_distribution(step, enc, vocab)
    assert extra == ["qq"]
    # vocab route 0.25 * 1 plus copy route 0.75 * 0.4 merge into the vocab slot
    assert dist[vocab.id("aa")] == pytest.approx(0.25 + 0.75 * 0.4)
    assert dist[V] == pytest.approx(0.75 * 0.6)
    # a token in neither vocabulary nor source has no slot: exact zero mass
    assert "absent" not in extra and "absent" not in vocab
    assert dist.sum() == pytest.approx(1.0)


def test_init_decoder_zero_projection_and_determinism():
    vocab = small_vocab()
    p = small_params("seq2seq")
    p["init_W"].data[:] = 0.0
    p["init_b"].data[:] = 0.0
    tape, enc = encode_example(p, vocab, Tape())
    state = init_decoder(tape, p, enc)
    np.testing.assert_array_equal(state.hidden.data, np.zeros((1, p.state_size)))
    np.testing.assert_array_equal(state.cell.data, np.zeros((1, p.state_size)))
    assert all(np.all(c.data == 0) for c in state.contexts)

    p2 = small_params("pair2seq")
    s_a = init_decoder(*(lambda t: (t, p2, encode_example(p2, vocab, t)[1]))(Tape()))
    s_b = init_decoder(*(lambda t: (t, p2, encode_example(p2, vocab, t)[1]))(Tape()))
    np.testing.assert_array_equal(s_a.hidden.data, s_b.hidden.data)


def test_pair2seq_init_state_ignores_paragraph():
    vocab = small_vocab()
    p = small_params("pair2seq")

    def s0(para):
        tape = Tape()
        enc = encode_input(tape, p, vocab, para, 0, 1, ["dd", "aa"])
        return init_decoder(tape, p, enc).hidden.data

    np.testing.assert_array_equal(s0(["aa", "bb"]), s0(["cc", "cc", "dd"]))

    q = small_params("seq2seq")

    def s0_packed(para):
        tape = Tape()
        enc = encode_input(tape, q, vocab, para, 0, 1, ["dd", "aa"])
        return init_decoder(tape, q, enc).hidden.data

    assert not np.array_equal(s0_packed(["aa", "bb"]), s0_packed(["cc", "cc", "dd"]))


def test_one_step_nll_gradients_both_modes():
    vocab = small_vocab()
    target_id = vocab.id("bb")
    for mode in ("seq2seq", "pair2seq"):
        p = small_params(mode, seed=13)
        for _, t in p.items():
            t.data *= 6.0  # keep every connected gradient above the FD noise floor

        def build_loss(_params):
            tape = Tape()
            enc = encode_input(tape, p, vocab, ["aa", "bb", "zz"], 1, 2, ["dd", "aa"])
            state = init_decoder(tape, p, enc)
            step = decode_step(tape, p, enc, state, BOS_ID)
            one_hot = np.zeros((len(vocab), 1))
            one_hot[target_id, 0] = 1.0
            indicator = np.array([[1.0] if tok == "bb" else [0.0] for tok in enc.copy_tokens])
            vocab_mass = tape.matmul(step.p_vocab, Tensor(one_hot))
            copy_mass = tape.matmul(step.copy_attn, Tensor(indicator))
            inv_gate = tape.add(Tensor(np.ones((1, 1))), tape.scale(step.gate, -1.0))
            prob = tape.add(tape.mul(step.gate, vocab_mass), tape.mul(inv_gate, copy_mass))
            return tape.scale(tape.sum(tape.log(prob)), -1.0), tape

        worst = grad_check(build_loss, p.parameters(), step=1e-4)
        assert worst < 1e-4, f"{mode}: {worst}"


# checkpoints and pretrained vectors


def test_checkpoint_round_trip(tmp_path):
    p = small_params("pair2seq", seed=21)
    path = tmp_path / "model.ckpt"
    p.save(path, extra={"note": 1})
    loaded, sidecar = ModelParams.load(path)
    assert sidecar["model"] == p.config()
    assert sidecar["extra"] == {"note": 1}
    for name, t in p.items():
        np.testing.assert_array_equal(loaded[name].data, t.data)


def test_checkpoint_missing_sidecar(tmp_path):
    p = small_params("seq2seq")
    path = tmp_path / "model.ckpt"
    p.save(path)
    (tmp_path / "model.ckpt.json").unlink()
    with pytest.raises(ModelError):
        ModelParams.load(path)


def test_checkpoint_parameter_set_mismatch(tmp_path):
    p = small_params("seq2seq")
    path = tmp_path / "model.ckpt"
    p.save(path)
    # drop one tensor from the binary, keep the sidecar
    from unansqgen.tensor import load_checkpoint, save_checkpoint

    _, arrays = load_checkpoint(path)
    del arrays["attn_W"]
    save_checkpoint(path, arrays)
    with pytest.raises(ModelError):
        ModelParams.load(path)


@pytest.mark.parametrize("mode", MODES)
def test_load_wraps_the_read_arrays_and_draws_no_init(tmp_path, monkeypatch, mode):
    path = tmp_path / "model.ckpt"
    saved = small_params(mode, seed=21)
    saved.save(path)
    read = {}

    def reading(p):
        version, arrays = load_checkpoint(p)
        read[str(p)] = arrays
        return version, arrays

    def refuse(*args, **kwargs):
        raise AssertionError("ModelParams.load drew from numpy.random.default_rng")

    monkeypatch.setattr(model, "load_checkpoint", reading)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    loaded, _ = ModelParams.load(path)
    assert list(loaded.tensors) == list(saved.tensors)
    for name, t in loaded.items():
        assert t.data is read[str(path)][name] and t.requires_grad
        np.testing.assert_array_equal(t.data, saved[name].data)
    toy, _ = ModelParams.load(Path(__file__).parent / "fixtures" / f"toy-{mode}.ckpt")
    assert toy.mode == mode and list(toy._shapes()) == list(toy.tensors)


def test_load_pretrained_vectors(tmp_path):
    vocab = small_vocab()
    p = small_params("seq2seq", vocab_size=len(vocab))
    before = p["word_emb"].data.copy()
    vec = " ".join(str(0.5 * k) for k in range(p.word_dim))
    path = tmp_path / "vectors.txt"
    path.write_text(
        f"aa {vec}\n"
        f"notinvocab {vec}\n"
        "bb 1.0 2.0\n"  # wrong dimension: ignored
        f"cc {'x ' * (p.word_dim - 1)}y\n"  # unparsable numbers: ignored
        f"bb {'1.0 ' * (p.word_dim - 1)}nan\n"  # non-finite numbers: ignored
        f"cc inf {'1.0 ' * (p.word_dim - 2)}-inf\n",
        encoding="utf-8")
    matched = load_pretrained_vectors(path, vocab, p)
    assert matched == 1
    np.testing.assert_allclose(p["word_emb"].data[vocab.id("aa")],
                               [0.5 * k for k in range(p.word_dim)])
    untouched = [i for i in range(len(vocab)) if i != vocab.id("aa")]
    np.testing.assert_array_equal(p["word_emb"].data[untouched], before[untouched])
