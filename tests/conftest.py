"""Shared fixtures: toy corpora, a memorized model, synthetic SQuAD files,
and reference implementations the engine and the model are checked against."""

import copy
import json
import os
import random

import numpy as np
import pytest

from unansqgen import decode, model, tensor, text
from unansqgen import train as train_module
from unansqgen.data import AlignedPair
from unansqgen.model import DecoderState, DecoderStepOutput, ModelParams, _join_gates
from unansqgen.tensor import Tensor, parameter
from unansqgen.text import Vocab
from unansqgen.train import TrainConfig, train


def make_pair(paragraph, start, end, question, target, k=0, title="t"):
    return AlignedPair(
        title=title, paragraph_tokens=paragraph, answer_start=start, answer_end=end,
        answerable_tokens=question, unanswerable_tokens=target,
        answerable_id=f"a{k}", unanswerable_id=f"u{k}")


def toy_vocab():
    return Vocab(["aa", "bb", "cc", "dd", "ee", "ff"])


def toy_corpus():
    pairs = [
        make_pair(["aa", "bb", "cc"], 0, 1, ["dd", "aa"], ["dd", "bb"], k=0),
        make_pair(["bb", "cc", "dd"], 1, 2, ["ee", "bb"], ["ee", "cc"], k=1),
        make_pair(["cc", "dd", "ee"], 2, 3, ["ff", "cc"], ["ff", "dd"], k=2),
        make_pair(["dd", "ee", "ff"], 0, 2, ["aa", "dd"], ["aa", "ee"], k=3),
    ]
    holdout = [make_pair(["ee", "ff", "aa"], 1, 2, ["bb", "ee"], ["bb", "ff"], k=9)]
    return pairs, holdout


@pytest.fixture(scope="session")
def memorized_toy():
    """A small model trained to recall the toy corpus; decodes terminate."""
    vocab = toy_vocab()
    pairs, _ = toy_corpus()
    config = TrainConfig(mode="seq2seq", epochs=150, batch_size=4, dropout=0.0,
                         learning_rate=0.3, word_dim=6, enc_hidden=3, seed=13)
    params, _ = train(config, pairs, pairs, vocab)
    return params, vocab, pairs


# synthetic SQuAD-format corpus: every paragraph carries an answerable and an
# unanswerable question sharing the same pivot span

_WORDS = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
          "hotel", "india", "juliet", "kilo", "lima", "mike", "november"]


def synthetic_squad(n_articles=4, paragraphs_per=2, seed=0, title_prefix="article"):
    rng = random.Random(seed)
    data = []
    qid = 0
    for a in range(n_articles):
        paragraphs = []
        for _ in range(paragraphs_per):
            tokens = [rng.choice(_WORDS) for _ in range(rng.randint(8, 14))]
            context = " ".join(tokens)
            t = rng.randrange(len(tokens))
            answer = tokens[t]
            start = len(" ".join(tokens[:t])) + (1 if t else 0)
            head = rng.choice(["what", "which", "where"])
            body = [rng.choice(_WORDS) for _ in range(rng.randint(2, 4))]
            answerable = f"{head} is {' '.join(body)} ?"
            swapped = body[:]
            swapped[rng.randrange(len(swapped))] = rng.choice(_WORDS)
            unanswerable = f"{head} is {' '.join(swapped)} never ?"
            span = {"text": answer, "answer_start": start}
            paragraphs.append({"context": context, "qas": [
                {"id": f"q{qid}", "question": answerable,
                 "is_impossible": False, "answers": [span]},
                {"id": f"q{qid + 1}", "question": unanswerable,
                 "is_impossible": True, "answers": [],
                 "plausible_answers": [span]},
            ]})
            qid += 2
        data.append({"title": f"{title_prefix}_{a}", "paragraphs": paragraphs})
    return {"version": "v2.0", "data": data}


def write_squad(path, corpus):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(corpus, fh)
    return str(path)


def real_squad_paths():
    """(train, dev) SQuAD 2.0 file paths if present, else None.

    Looked up under $UNANSQGEN_SQUAD_DIR, then ./data/.
    """
    roots = []
    if os.environ.get("UNANSQGEN_SQUAD_DIR"):
        roots.append(os.environ["UNANSQGEN_SQUAD_DIR"])
    roots.append(os.path.join(os.path.dirname(__file__), os.pardir, "data"))
    for root in roots:
        train_path = os.path.join(root, "train-v2.0.json")
        dev_path = os.path.join(root, "dev-v2.0.json")
        if os.path.exists(train_path) and os.path.exists(dev_path):
            return train_path, dev_path
    return None


# Dense per-use reference vjps: each matmul, embedding lookup and row slice
# hands `backward` a complete dense gradient for every input, as the engine
# did before their gradients were deferred to one sum per tensor.

def _dense_matmul(arrays, meta):
    a, b = arrays
    ta, tb = meta.get("transpose_a", False), meta.get("transpose_b", False)
    aop = a.T if ta else a
    bop = b.T if tb else b

    def vjp(g):
        da_op = g @ bop.T
        db_op = aop.T @ g
        return [da_op.T if ta else da_op, db_op.T if tb else db_op]

    return aop @ bop, vjp


def _dense_embedding(arrays, meta):
    table = arrays[0]
    ids = np.asarray(meta["ids"], dtype=np.int64)

    def vjp(g):
        dt = np.zeros_like(table)
        np.add.at(dt, ids, g)
        return [dt]

    return table[ids], vjp


def _dense_slice_rows(arrays, meta):
    x = arrays[0]
    start, stop, transpose = meta["start"], meta["stop"], meta.get("transpose", False)

    def vjp(g):
        dx = np.zeros_like(x)
        dx[start:stop] = g.T if transpose else g
        return [dx]

    return (x[start:stop].T if transpose else x[start:stop]), vjp


@pytest.fixture
def dense_vjps(monkeypatch):
    """Call `dense_vjps(fn)` to run `fn()` with the dense reference vjps recorded."""
    def run(fn):
        with monkeypatch.context() as m:
            m.setitem(tensor._FORWARD, "matmul", _dense_matmul)
            m.setitem(tensor._FORWARD, "embedding-lookup", _dense_embedding)
            m.setitem(tensor._FORWARD, "slice-rows", _dense_slice_rows)
            return fn()
    return run


# The version-1 reference model: the model as it stepped checkpoint version
# 1's per-gate weights (`enc_{fw,bw}_{W,b}{i,f,o,c}`, `dec_{W,b}{i,f,o,c}` and
# a [1 x S] `init_b`). Each direction of the encoder steps on its own, and each
# gate multiplies the joined [input; state] row by its own [in x H] matrix.
# The decoder keeps a [rows x S] row state, with one entry point for k
# teacher-forced steps of one row and one for a single step of many rows.

def gate_twin(vocab_size, mode, word_dim, enc_hidden, seed):
    """(params, twin): `twin` holds the version-1 arrays that ModelParams drew
    at `seed` while it stored per-gate weights (the same draws, in the same
    order), and `params` holds them joined by `model._join_gates`."""
    params = ModelParams(vocab_size, mode, word_dim=word_dim, enc_hidden=enc_hidden, seed=seed)
    e, h, s, n = word_dim, enc_hidden, params.state_size, params.n_contexts
    shapes = [("word_emb", vocab_size, e), ("char_emb", text.CHAR_INVENTORY_SIZE, e),
              ("type_emb", 3, e)]
    for lstm, rows, cols in [("enc_fw", e + h, h), ("enc_bw", e + h, h), ("dec", e + n * s + s, s)]:
        shapes += [(f"{lstm}_{kind}{gate}", r, cols) for gate in "ifoc"
                   for kind, r in [("W", rows), ("b", 1)]]
    shapes += [("attn_W", s, s), ("copy_W", s, s)]
    if mode == "pair2seq":
        shapes += [("interact_W", s, s), ("interact_Wp", 2 * s, s), ("interact_bp", 1, s),
                   ("interact_Wq", 2 * s, s), ("interact_bq", 1, s)]
    shapes += [("out_W", (1 + n) * s, vocab_size), ("out_b", 1, vocab_size),
               ("gate_W", (1 + n) * s, 1), ("gate_b", 1, 1), ("init_W", s, s), ("init_b", 1, s)]
    rng = np.random.default_rng(seed)
    arrays = {name: rng.uniform(-0.1, 0.1, size=(r, c)) for name, r, c in shapes}
    twin = copy.copy(params)
    twin.tensors = {name: parameter(a.copy(), name=name) for name, a in arrays.items()}
    params.set_arrays(_join_gates(arrays, word_dim))
    return params, twin


def assert_joined_grads_match(grads, want, twin):
    """`grads` equal the twin's gradients `want` joined by `_join_gates`, each
    within 1e-12 of its largest magnitude; a leaf absent from either has none."""
    full = {n: np.zeros_like(t.data) for n, t in twin.items()}
    full.update((t.name, g) for t, g in want.items())
    got = {t.name: g for t, g in grads.items()}
    joined = _join_gates(full, twin.word_dim)
    assert set(got) <= set(joined)
    for name, g in joined.items():
        if name not in got:
            assert not np.any(g), name
        else:
            assert np.max(np.abs(got[name] - g)) <= 1e-12 * np.max(np.abs(g)), name


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
    final = tape.matmul(tape.concat_cols([fw[-1], bw[0]]), Tensor(np.ones((1, 1))),
                        transpose_a=True)  # the [2H x 1] column `EncodedInput.final` holds
    return states, final


def _reference_init_decoder(tape, params, enc):
    s0 = tape.tanh(tape.add(tape.matmul(enc.final, params["init_W"], transpose_a=True),
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
def reference_model(monkeypatch):
    """Call `reference_model(fn)` to run `fn()` with the version-1 reference
    model, which reads a `gate_twin` twin's per-gate weights."""
    def run(fn):
        with monkeypatch.context() as m:
            m.setattr(model, "_bilstm_cell", lambda tape, params: params)
            m.setattr(model, "_run_bilstm", _reference_run_bilstm)
            for owner in (train_module, decode):
                m.setattr(owner, "init_decoder", _reference_init_decoder)
                m.setattr(owner, "decode_step", _reference_decode)
            m.setattr(decode, "_gather_rows", _reference_gather_rows)
            return fn()
    return run
