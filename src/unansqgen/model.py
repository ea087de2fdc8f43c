"""Generation model: shared input embedding, recurrent encoders, the
paragraph/question interaction layer, and the attention/copy decoder.

Both architectures run on the tape from `tensor`; every forward pass builds
a fresh Tape so gradients fall out of `backward` with no model-side code.
Parameters live in a name -> Tensor mapping so the optimizer and the
checkpoint format stay agnostic of the architecture.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import text
from .fileio import atomic_write
from .tensor import (CHECKPOINT_VERSION, Tape, Tensor, load_checkpoint,
                     parameter, save_checkpoint)

WORD_DIM = 300
ENC_HIDDEN = 150

MODES = ("seq2seq", "pair2seq")

_GATES = ("i", "f", "o", "c")


class ModelError(ValueError):
    """Raised for invalid model configuration or malformed checkpoints."""


class DropStream:
    """Deterministic per-call dropout seeds derived from one base tuple.

    Every dropout site consumes the next counter value, so a forward pass
    rebuilt with the same stream reproduces every mask bit for bit.
    """

    def __init__(self, seed_parts, keep):
        self.base = tuple(int(x) for x in seed_parts)
        self.keep = float(keep)
        self.count = 0

    def take(self):
        self.count += 1
        return self.base + (self.count,)


def _maybe_drop(tape, x, drops):
    if drops is not None and drops.keep < 1.0:
        return tape.dropout(x, drops.keep, drops.take())
    return x


class ModelParams:
    """All trainable tensors for one mode, keyed by stable names."""

    def __init__(self, vocab_size, mode, word_dim=WORD_DIM, enc_hidden=ENC_HIDDEN, seed=13):
        if mode not in MODES:
            raise ModelError(f"unknown mode {mode!r}, expected one of {MODES}")
        if vocab_size < len(text.SPECIAL_TOKENS):
            raise ModelError(f"vocab_size {vocab_size} smaller than the special-token set")
        self.mode = mode
        self.vocab_size = vocab_size
        self.word_dim = word_dim
        self.enc_hidden = enc_hidden
        self.state_size = 2 * enc_hidden
        self.n_contexts = 1 if mode == "seq2seq" else 2
        self.tensors = {}

        rng = np.random.default_rng(seed)

        def add(name, rows, cols):
            data = rng.uniform(-0.1, 0.1, size=(rows, cols))
            self.tensors[name] = parameter(data, name=name)

        e, h, s = word_dim, enc_hidden, self.state_size
        add("word_emb", vocab_size, e)
        add("char_emb", text.CHAR_INVENTORY_SIZE, e)
        add("type_emb", 3, e)
        for direction in ("enc_fw", "enc_bw"):
            for gate in _GATES:
                add(f"{direction}_W{gate}", e + h, h)
                add(f"{direction}_b{gate}", 1, h)
        dec_in = e + self.n_contexts * s
        for gate in _GATES:
            add(f"dec_W{gate}", dec_in + s, s)
            add(f"dec_b{gate}", 1, s)
        add("attn_W", s, s)
        add("copy_W", s, s)
        if mode == "pair2seq":
            add("interact_W", s, s)
            add("interact_Wp", 2 * s, s)
            add("interact_bp", 1, s)
            add("interact_Wq", 2 * s, s)
            add("interact_bq", 1, s)
        feat = (1 + self.n_contexts) * s
        add("out_W", feat, vocab_size)
        add("out_b", 1, vocab_size)
        add("gate_W", feat, 1)
        add("gate_b", 1, 1)
        add("init_W", s, s)
        add("init_b", 1, s)

    def __getitem__(self, name):
        return self.tensors[name]

    def items(self):
        return self.tensors.items()

    def parameters(self):
        return list(self.tensors.values())

    def config(self):
        return {
            "mode": self.mode,
            "vocab_size": self.vocab_size,
            "word_dim": self.word_dim,
            "enc_hidden": self.enc_hidden,
        }

    def copy_arrays(self):
        return {name: t.data.copy() for name, t in self.tensors.items()}

    def set_arrays(self, arrays):
        for name, t in self.tensors.items():
            if name not in arrays:
                raise ModelError(f"missing parameter {name!r}")
            if arrays[name].shape != t.data.shape:
                raise ModelError(f"parameter {name!r}: shape {arrays[name].shape} "
                                 f"does not match {t.data.shape}")
            t.data = np.array(arrays[name], dtype=np.float64)

    def save(self, path, extra=None):
        save_checkpoint(path, self.tensors)
        sidecar = {
            "format_version": CHECKPOINT_VERSION,
            "model": self.config(),
            "extra": extra or {},
        }
        with atomic_write(str(path) + ".json") as fh:
            json.dump(sidecar, fh, sort_keys=True, indent=1)
            fh.write("\n")

    @staticmethod
    def load(path):
        """Rebuild (params, sidecar dict) from a checkpoint plus its sidecar.

        The sidecar must be an object holding `format_version` equal to
        CHECKPOINT_VERSION and a `model` object with a known `mode` and
        integer `vocab_size`, `word_dim` and `enc_hidden` of at least 1.
        Anything else raises ModelError naming the sidecar and the key.
        """
        where = f"{path}.json"
        try:
            with open(where, encoding="utf-8") as fh:
                sidecar = json.load(fh)
        except FileNotFoundError:
            raise ModelError(f"{where}: checkpoint sidecar not found") from None
        except json.JSONDecodeError as exc:
            raise ModelError(f"{where}: invalid sidecar ({exc})") from None
        if not isinstance(sidecar, dict):
            raise ModelError(f"{where}: sidecar must be a JSON object")

        def field(table, name, valid, expected):
            key = name.rpartition(".")[2]
            if key not in table:
                raise ModelError(f"{where}: missing key {name!r}")
            if not valid(table[key]):
                raise ModelError(f"{where}: key {name!r} must be {expected}, got {table[key]!r}")
            return table[key]

        field(sidecar, "format_version", lambda v: type(v) is int and v == CHECKPOINT_VERSION,
              str(CHECKPOINT_VERSION))
        cfg = field(sidecar, "model", lambda v: isinstance(v, dict), "an object")
        mode = field(cfg, "model.mode", lambda v: v in MODES, f"one of {MODES}")
        vocab_size, word_dim, enc_hidden = (
            field(cfg, f"model.{key}", lambda v: type(v) is int and v >= 1, "an integer >= 1")
            for key in ("vocab_size", "word_dim", "enc_hidden"))
        params = ModelParams(vocab_size, mode, word_dim=word_dim, enc_hidden=enc_hidden, seed=0)
        arrays = load_checkpoint(path)
        params.set_arrays(arrays)
        if set(arrays) != set(params.tensors):
            extra = sorted(set(arrays) - set(params.tensors))
            raise ModelError(f"{path}: unexpected parameters {extra}")
        return params, sidecar


def load_pretrained_vectors(path, vocab, params):
    """Overwrite word-embedding rows from a text file of token + numbers.

    Lines whose token is out of vocabulary, whose dimension differs from
    the embedding width, or whose values are not all finite numbers are
    ignored. Returns the number of rows replaced.
    """
    dim = params.word_dim
    table = params["word_emb"].data
    matched = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.rstrip("\n").split(" ")
            if len(parts) != dim + 1:
                continue
            token = parts[0]
            if token not in vocab:
                continue
            try:
                row = [float(x) for x in parts[1:]]
            except ValueError:
                continue
            if not all(map(math.isfinite, row)):
                continue
            table[vocab.id(token)] = row
            matched += 1
    return matched


# ---------------------------------------------------------------------------
# forward pieces


def _lstm_step(tape, params, prefix, x, h_prev, c_prev):
    z = tape.concat_cols([x, h_prev])
    gi = tape.sigmoid(tape.add(tape.matmul(z, params[f"{prefix}_Wi"]), params[f"{prefix}_bi"]))
    gf = tape.sigmoid(tape.add(tape.matmul(z, params[f"{prefix}_Wf"]), params[f"{prefix}_bf"]))
    go = tape.sigmoid(tape.add(tape.matmul(z, params[f"{prefix}_Wo"]), params[f"{prefix}_bo"]))
    gc = tape.tanh(tape.add(tape.matmul(z, params[f"{prefix}_Wc"]), params[f"{prefix}_bc"]))
    c = tape.add(tape.mul(gf, c_prev), tape.mul(gi, gc))
    h = tape.mul(go, tape.tanh(c))
    return h, c


def _run_bilstm(tape, params, emb):
    """Per-position [forward; backward] states plus each direction's final state."""
    n = emb.shape[0]
    h0 = Tensor(np.zeros((1, params.enc_hidden)))
    rows = [tape.slice_rows(emb, i, i + 1) for i in range(n)]

    def run(prefix, xs):
        h, c = h0, h0
        out = []
        for x in xs:
            h, c = _lstm_step(tape, params, prefix, x, h, c)
            out.append(h)
        return out

    fw = run("enc_fw", rows)
    bw = run("enc_bw", reversed(rows))[::-1]
    states = tape.concat_cols([tape.stack_rows(fw), tape.stack_rows(bw)])
    return states, fw[-1], bw[0]


def embed_inputs(tape, params, token_ids, char_id_lists, type_ids):
    """Sum of word, pooled-character, and token-type embeddings, one row per token."""
    n = len(token_ids)
    if not (n == len(char_id_lists) == len(type_ids)):
        raise ModelError("embed_inputs: id sequences must have equal lengths")
    if any(t not in (text.TYPE_ANSWER, text.TYPE_PARAGRAPH, text.TYPE_QUESTION) for t in type_ids):
        raise ModelError("embed_inputs: invalid token type id")
    word = tape.embedding(params["word_emb"], token_ids)
    types = tape.embedding(params["type_emb"], type_ids)
    zero_row = Tensor(np.zeros((1, params.word_dim)))
    pooled = []
    for chars in char_id_lists:
        if chars:
            pooled.append(tape.max_pool_rows(tape.embedding(params["char_emb"], chars)))
        else:
            pooled.append(zero_row)
    return tape.add(tape.add(word, tape.stack_rows(pooled)), types)


@dataclass
class EncodedInput:
    """Encoder-side states plus the copy-candidate bookkeeping.

    attn_states: one state matrix for seq2seq (the packed sequence), two for
    pair2seq (paragraph first, question second). copy_states rows align with
    copy_tokens, the surface forms a decoder step may copy.
    """
    mode: str
    attn_states: list
    copy_states: Tensor
    copy_tokens: list
    final_fw: Tensor
    final_bw: Tensor
    cache: dict = field(default_factory=dict)


def _paragraph_fields(vocab, paragraph_tokens, answer_start, answer_end):
    ids = vocab.encode(paragraph_tokens)
    chars = [text.char_ids(t) for t in paragraph_tokens]
    types = [text.TYPE_ANSWER if answer_start <= i < answer_end else text.TYPE_PARAGRAPH
             for i in range(len(paragraph_tokens))]
    return ids, chars, types


def encode_input(tape, params, vocab, paragraph_tokens, answer_start, answer_end,
                 question_tokens, drops=None):
    """Run the mode's encoder over one example.

    seq2seq packs [paragraph, <sep>, question] into a single sequence whose
    separator is typed as paragraph; pair2seq encodes the two sequences with
    the shared cell weights and applies the interaction layer.
    """
    if not paragraph_tokens or not question_tokens:
        raise ModelError("encode_input: empty paragraph or question")
    if not 0 <= answer_start < answer_end <= len(paragraph_tokens):
        raise ModelError(f"encode_input: answer span [{answer_start}, {answer_end}) "
                         f"invalid for {len(paragraph_tokens)} paragraph tokens")
    p_ids, p_chars, p_types = _paragraph_fields(vocab, paragraph_tokens, answer_start, answer_end)
    q_ids = vocab.encode(question_tokens)
    q_chars = [text.char_ids(t) for t in question_tokens]
    q_types = [text.TYPE_QUESTION] * len(question_tokens)

    if params.mode == "seq2seq":
        ids = p_ids + [text.SEP_ID] + q_ids
        chars = p_chars + [[]] + q_chars
        types = p_types + [text.TYPE_PARAGRAPH] + q_types
        emb = _maybe_drop(tape, embed_inputs(tape, params, ids, chars, types), drops)
        states, final_fw, final_bw = _run_bilstm(tape, params, emb)
        states = _maybe_drop(tape, states, drops)
        # copy candidates cover the real source tokens, not the separator
        np_ = len(paragraph_tokens)
        copy_states = tape.stack_rows([
            tape.slice_rows(states, 0, np_),
            tape.slice_rows(states, np_ + 1, states.shape[0]),
        ])
        return EncodedInput("seq2seq", [states], copy_states,
                            list(paragraph_tokens) + list(question_tokens),
                            final_fw, final_bw)

    emb_p = _maybe_drop(tape, embed_inputs(tape, params, p_ids, p_chars, p_types), drops)
    emb_q = _maybe_drop(tape, embed_inputs(tape, params, q_ids, q_chars, q_types), drops)
    raw_p, _, _ = _run_bilstm(tape, params, emb_p)
    raw_q, final_fw, final_bw = _run_bilstm(tape, params, emb_q)
    raw_p = _maybe_drop(tape, raw_p, drops)
    raw_q = _maybe_drop(tape, raw_q, drops)
    states_p, states_q = interact(tape, params, raw_p, raw_q)
    copy_states = tape.stack_rows([states_q, states_p])
    return EncodedInput("pair2seq", [states_p, states_q], copy_states,
                        list(question_tokens) + list(paragraph_tokens),
                        final_fw, final_bw)


def interact(tape, params, states_p, states_q):
    """Cross-attention fusion of paragraph and question encoder states.

    Scores use a bilinear form with its own weights; rows of the score
    matrix normalize over question positions (paragraph side), columns over
    paragraph positions (question side).
    """
    scores_pq = tape.matmul(tape.matmul(states_p, params["interact_W"]), states_q,
                            transpose_b=True)
    alpha = tape.row_softmax(scores_pq)
    attended_p = tape.matmul(alpha, states_q)
    fused_p = tape.tanh(tape.add(
        tape.matmul(tape.concat_cols([states_p, attended_p]), params["interact_Wp"]),
        params["interact_bp"]))

    scores_qp = tape.matmul(tape.matmul(states_q, params["interact_W"], transpose_b=True),
                            states_p, transpose_b=True)
    beta = tape.row_softmax(scores_qp)
    attended_q = tape.matmul(beta, states_p)
    fused_q = tape.tanh(tape.add(
        tape.matmul(tape.concat_cols([states_q, attended_q]), params["interact_Wq"]),
        params["interact_bq"]))
    return fused_p, fused_q


@dataclass
class DecoderState:
    hidden: Tensor
    cell: Tensor
    contexts: list


@dataclass
class DecoderStepOutput:
    state: DecoderState
    gate: Tensor  # [rows,1], in (0,1)
    p_vocab: Tensor  # [rows,|V|], rows sum to 1
    copy_attn: Tensor  # [rows,Lc], rows sum to 1


def init_decoder(tape, params, enc):
    """Initial decoder state from the (question) encoder's final states."""
    s0 = tape.tanh(tape.add(
        tape.matmul(tape.concat_cols([enc.final_fw, enc.final_bw]), params["init_W"]),
        params["init_b"]))
    cell0 = Tensor(np.zeros((1, params.state_size)))
    contexts = [Tensor(np.zeros((1, params.state_size))) for _ in range(params.n_contexts)]
    return DecoderState(s0, cell0, contexts)


def _cached_keys(tape, enc, name, states, weight):
    if name not in enc.cache:
        enc.cache[name] = tape.matmul(states, weight)
    return enc.cache[name]


def _rows(tape, tensors):
    return tensors[0] if len(tensors) == 1 else tape.stack_rows(tensors)


def _step(tape, params, enc, state, y, drops):
    """The recurrence of one decoder step over the rows of `state`.

    Row r of `y` is the word embedding of row r's previous token. The LSTM
    reads [y; previous context(s)]; attention is bilinear in the new hidden
    state. Returns the new state and the output-layer copy of its hidden
    state, the only one that dropout touches (never the recurrent carry).
    """
    x = tape.concat_cols([y] + state.contexts)
    hidden, cell = _lstm_step(tape, params, "dec", x, state.hidden, state.cell)
    out_hidden = _maybe_drop(tape, hidden, drops)
    contexts = []
    for j, states in enumerate(enc.attn_states):
        keys = _cached_keys(tape, enc, f"attn_keys_{j}", states, params["attn_W"])
        gamma = tape.row_softmax(tape.matmul(hidden, keys, transpose_b=True))
        contexts.append(tape.matmul(gamma, states))
    return DecoderState(hidden, cell, contexts), out_hidden


def _output_layer(tape, params, enc, states, out_hiddens):
    """Vocabulary softmax, copy gate and copy attention over the stacked rows
    of `states` (one per step); the returned state is the last one."""
    features = tape.concat_cols([_rows(tape, out_hiddens)]
                                + [_rows(tape, c) for c in zip(*(s.contexts for s in states))])
    p_vocab = tape.row_softmax(tape.add(tape.matmul(features, params["out_W"]),
                                        params["out_b"]))
    gate = tape.sigmoid(tape.add(tape.matmul(features, params["gate_W"]),
                                 params["gate_b"]))
    copy_keys = _cached_keys(tape, enc, "copy_keys", enc.copy_states, params["copy_W"])
    copy_attn = tape.row_softmax(tape.matmul(_rows(tape, [s.hidden for s in states]),
                                             copy_keys, transpose_b=True))
    return DecoderStepOutput(states[-1], gate, p_vocab, copy_attn)


def decode_steps(tape, params, enc, state, prev_token_ids, drops=None):
    """k teacher-forced decoder steps of one row, one per id in `prev_token_ids`.

    Only the recurrence runs step by step. The word embeddings of all k
    previous ids are looked up at once, and the output layer runs once over
    the k stacked steps, since none of it feeds the recurrence. Row t of the
    returned gate, p_vocab and copy_attn belongs to step t; the state is the
    one after the last step.
    """
    k = len(prev_token_ids)
    if k < 1:
        raise ModelError("decode_steps: no previous token ids")
    ys = tape.embedding(params["word_emb"], prev_token_ids)
    states, out_hiddens = [], []
    for t in range(k):
        y = ys if k == 1 else tape.slice_rows(ys, t, t + 1)
        state, out_hidden = _step(tape, params, enc, state, y, drops)
        states.append(state)
        out_hiddens.append(out_hidden)
    return _output_layer(tape, params, enc, states, out_hiddens)


def decode_step(tape, params, enc, state, prev_token_id, drops=None):
    """One decoder step over every row of `state`.

    `prev_token_id` is one id for a one-row state, or a sequence of one id
    per row: beam search advances all live hypotheses as the rows of one
    state. Row r of the output belongs to row r of the state.
    """
    ids = [prev_token_id] if np.ndim(prev_token_id) == 0 else prev_token_id
    y = tape.embedding(params["word_emb"], ids)
    state, out_hidden = _step(tape, params, enc, state, y, drops)
    return _output_layer(tape, params, enc, [state], [out_hidden])


def extended_vocab(enc, vocab):
    """(extra surface forms, per-copy-position target index) for one input.

    Copy positions holding in-vocabulary tokens point at the vocabulary id;
    out-of-vocabulary surfaces get ids |V|, |V|+1, ... in first-occurrence
    order.
    """
    if "extvocab" not in enc.cache:
        index = {}  # out-of-vocabulary surface -> its id, in first-occurrence order
        targets = []
        for tok in enc.copy_tokens:
            if tok in vocab:
                targets.append(vocab.id(tok))
            else:
                targets.append(index.setdefault(tok, len(vocab) + len(index)))
        enc.cache["extvocab"] = (list(index), targets)
    return enc.cache["extvocab"]


def final_distribution(step, enc, vocab):
    """Mixture distribution over the vocabulary plus this input's extra tokens.

    P(w) = g * P_v(w) + (1-g) * sum of copy attention over w's source
    occurrences; in-vocabulary copies merge into their vocabulary entry.
    Returns (probabilities, extra surface forms): a 1-D array for a one-row
    step, else one row per step row. Detached numpy; inference only.
    """
    extra, targets = extended_vocab(enc, vocab)
    g = step.gate.data
    dist = np.zeros((g.shape[0], len(vocab) + len(extra)))
    dist[:, :len(vocab)] = g * step.p_vocab.data
    # adding into the transposed grid keeps each row's accumulation order
    np.add.at(dist.T, targets, ((1.0 - g) * step.copy_attn.data).T)
    return (dist[0] if g.shape[0] == 1 else dist), extra
