"""Generation model: shared input embedding, recurrent encoders, the
paragraph/question interaction layer, and the attention/copy decoder.

Both architectures run on the tape from `tensor`; every forward pass builds
a fresh Tape so gradients fall out of `backward` with no model-side code.
Parameters live in a name -> Tensor mapping so the optimizer and the
checkpoint format stay agnostic of the architecture.

Each LSTM has one input weight, one recurrent weight and one bias, with
gate-major columns, and steps `_lstm_cell` over [4H x rows] gate
pre-activations in the row blocks i, f, o, c. Every state is [rows x H] and
moves by row gathers and row slices. The BiLSTM runs both directions as one
recurrence over a [1 x 2H] state: step t reads position t forward and
position n-1-t backward, with gate columns [i_fw i_bw f_fw f_bw o_fw o_bw
c_fw c_bw]. The decoder's recurrent weight reads [contexts, hidden], and its
[rows x S] state holds one row per beam row.
`encode_input` records the attention and copy keys and builds the copy map
once per input; decoder steps, beam search's `final_distribution` and the
taped `gold_probability` of training and scoring all read that record.
"""

from __future__ import annotations

import json
import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from . import text
from .fileio import atomic_write, open_text
from .tensor import (CHECKPOINT_VERSION, TapeError, Tensor, load_checkpoint, parameter,
                     save_checkpoint)

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
    """All trainable tensors for one mode, keyed by the names of `_shapes`."""

    def __init__(self, vocab_size, mode, word_dim=WORD_DIM, enc_hidden=ENC_HIDDEN, seed=13):
        self._configure(vocab_size, mode, word_dim, enc_hidden)
        rng = np.random.default_rng(seed)
        self.tensors = {name: parameter(rng.uniform(-0.1, 0.1, size=shape), name=name)
                        for name, shape in self._shapes().items()}
        for t in self.tensors.values():
            t.verified = True  # uniform(-0.1, 0.1) is finite by construction: no scan

    def _configure(self, vocab_size, mode, word_dim, enc_hidden):
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

    def _shapes(self):
        """The one table of parameter name -> shape, in init and checkpoint order."""
        e, h, s, v = self.word_dim, self.enc_hidden, self.state_size, self.vocab_size
        table = dict(word_emb=(v, e), char_emb=(text.CHAR_INVENTORY_SIZE, e), type_emb=(3, e),
                     enc_Wx=(e, 8 * h), enc_Wh=(h, 8 * h), enc_b=(1, 8 * h), dec_Wx=(e, 4 * s),
                     dec_Wh=((self.n_contexts + 1) * s, 4 * s), dec_b=(1, 4 * s),
                     attn_W=(s, s), copy_W=(s, s))
        if self.mode == "pair2seq":
            table.update(interact_W=(s, s), interact_Wp=(2 * s, s), interact_bp=(1, s),
                         interact_Wq=(2 * s, s), interact_bq=(1, s))
        feat = (1 + self.n_contexts) * s
        table.update(out_W=(feat, v), out_b=(1, v), gate_W=(feat, 1), gate_b=(1, 1),
                     init_W=(s, s), init_b=(s, 1))
        return table

    def _matched(self, arrays):
        """(name, array) in `_shapes` order; ModelError at one missing or misshapen."""
        for name, shape in self._shapes().items():
            if name not in arrays:
                raise ModelError(f"missing parameter {name!r}")
            if arrays[name].shape != shape:
                raise ModelError(f"parameter {name!r}: shape {arrays[name].shape} "
                                 f"does not match {shape}")
            yield name, arrays[name]

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
        for name, array in self._matched(arrays):
            t = self.tensors[name]
            t.data = np.array(array, dtype=np.float64)
            t.verified = bool(np.isfinite(t.data).all())  # if not, each tape checks it

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

        The sidecar must be an object holding `format_version` 1 (see
        `_join_gates`) or 2 and a `model` object with a known `mode`, an
        integer `vocab_size` of at least the special-token count, and integer
        `word_dim` and `enc_hidden` of at least 1.
        Anything else raises ModelError naming the sidecar and the key, and a
        header version or a parameter that disagrees with it one naming both.
        The arrays `load_checkpoint` reads become the parameters, uncopied
        and with no init drawn; a non-finite value raises ModelError naming
        the checkpoint and the parameter. That one scan verifies them.
        """
        where = f"{path}.json"
        try:
            with open_text(where, ModelError) as fh:
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

        version = field(sidecar, "format_version",
                        lambda v: type(v) is int and v in (1, CHECKPOINT_VERSION),
                        f"1 or {CHECKPOINT_VERSION}")
        cfg = field(sidecar, "model", lambda v: isinstance(v, dict), "an object")
        mode = field(cfg, "model.mode", lambda v: v in MODES, f"one of {MODES}")
        vocab_size, word_dim, enc_hidden = (
            field(cfg, f"model.{key}", lambda v: type(v) is int and v >= low,
                  f"an integer >= {low}")
            for key, low in (("vocab_size", len(text.SPECIAL_TOKENS)), ("word_dim", 1),
                             ("enc_hidden", 1)))
        params = object.__new__(ModelParams)
        params._configure(vocab_size, mode, word_dim, enc_hidden)
        header, arrays = load_checkpoint(path)
        if header != version:
            raise ModelError(f"{path}: format version {header} in the header, "
                             f"but {where} says {version}")
        try:
            arrays = _join_gates(arrays, word_dim) if version == 1 else arrays
        except (KeyError, ValueError) as exc:
            raise ModelError(f"{path}: version-1 gate tensors do not join: {exc}") from None
        try:
            params.tensors = {name: parameter(array, name=name)
                              for name, array in params._matched(arrays)}
        except ModelError as exc:
            raise ModelError(f"{path}: {exc} (the model {where} describes)") from None
        if set(arrays) != set(params.tensors):
            extra = sorted(set(arrays) - set(params.tensors))
            raise ModelError(f"{path}: unexpected parameters {extra}")
        for name, t in params.items():
            if not np.isfinite(t.data).all():
                raise ModelError(f"{path}: parameter {name!r} holds a non-finite value")
            t.verified = True
        return params, sidecar


def _join_gates(arrays, e):
    """Version-1 arrays in this layout: each LSTM's per-gate [in x H] weights
    and [1 x H] biases become gate-major column blocks, `init_b` a column."""
    arrays = dict(arrays)
    enc, enc_b, dec, dec_b = (
        np.concatenate([arrays.pop(f"{d}_{kind}{g}") for g in _GATES for d in lstm], axis=1)
        for lstm in (("enc_fw", "enc_bw"), ("dec",)) for kind in "Wb")
    arrays.update(enc_Wx=enc[:e], enc_Wh=enc[e:], enc_b=enc_b, dec_Wx=dec[:e], dec_Wh=dec[e:],
                  dec_b=dec_b, init_b=arrays["init_b"].T)
    return arrays


def load_pretrained_vectors(path, vocab, params):
    """Overwrite word-embedding rows from a text file of token + numbers.

    Lines whose token is out of vocabulary, whose dimension differs from
    the embedding width, or whose values are not all finite numbers are
    ignored, so a verified table stays verified. Returns the number of rows
    replaced.
    """
    dim = params.word_dim
    table = params["word_emb"].data
    matched = 0
    with open_text(path) as fh:
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


def _lstm_cell(tape, pre, c_prev):
    """[rows x H] (hidden, cell) after one LSTM step, from the [rows x H] cell
    and [4H x rows] gate pre-activations in the row blocks i, f, o, c, each
    read as a transposed row slice; the sigmoid's c block goes unread."""
    h = pre.shape[0] // 4
    sig = tape.sigmoid(pre)
    i, f, o = (tape.slice_rows(sig, k * h, (k + 1) * h, transpose=True) for k in range(3))
    cand = tape.tanh(tape.slice_rows(pre, 3 * h, 4 * h, transpose=True))
    c = tape.add(tape.mul(f, c_prev), tape.mul(i, cand))
    return tape.mul(o, tape.tanh(c)), c


def _bilstm_cell(tape, params):
    """The encoder's input weight, [2H x 8H] recurrent matrix (block-diagonal
    by direction, built once per `encode_input`), bias and the 0/1 [1 x 8H]
    masks of the forward and the backward gate columns."""
    fw = np.repeat(np.tile([1.0, 0.0], 4), params.enc_hidden)[None, :]
    masks = Tensor(fw), Tensor(1.0 - fw)
    recurrent = tape.stack_rows([tape.mul(params["enc_Wh"], m) for m in masks])
    return params["enc_Wx"], recurrent, params["enc_b"], masks


def _run_bilstm(tape, cell, emb):
    """Per-position [forward, backward] [n x 2H] states plus the last step's
    state as a [2H x 1] column, which is each direction's final state.

    Both directions step together, as the module docstring lays out. The
    input side, bias included, is projected once per sequence, its backward
    columns from the projection's row reversal; step t reads its row t. The
    backward halves of the states come from the step states' row reversal.
    """
    w_x, recurrent, bias, (fw_cols, bw_cols) = cell
    n, two_h = emb.shape[0], recurrent.shape[0]
    reverse = range(n - 1, -1, -1)
    xw = tape.matmul(emb, w_x)
    proj = tape.add(tape.add(tape.mul(xw, fw_cols),
                             tape.mul(tape.embedding(xw, reverse), bw_cols)), bias)
    h = c = Tensor(np.zeros((1, two_h)))
    hs = []
    for t in range(n):
        pre = tape.slice_rows(proj, t, t + 1, transpose=True)
        if t:  # the zero initial state adds nothing
            pre = tape.add(pre, tape.matmul(recurrent, h, transpose_a=True, transpose_b=True))
        h, c = _lstm_cell(tape, pre, c)
        hs.append(h)
    fw_half = np.repeat([[1.0, 0.0]], two_h // 2, axis=1)
    steps = tape.stack_rows(hs)
    states = tape.add(tape.mul(steps, Tensor(fw_half)),
                      tape.mul(tape.embedding(steps, reverse), Tensor(1.0 - fw_half)))
    return states, tape.slice_rows(h, 0, 1, transpose=True)


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
    """Everything a decoder step reads of one encoded input, built once.

    attn_states: one state matrix for seq2seq (the packed sequence), two for
    pair2seq (paragraph first, question second), keyed by attn_keys[j] =
    attn_states[j] @ attn_W. copy_states rows, keyed by copy_keys =
    copy_states @ copy_W, align with copy_tokens, the surface forms a decoder
    step may copy. The copy map, built from `vocab`: `extra` holds the
    out-of-vocabulary copy surfaces in first-occurrence order, and copy_ids
    each position's extended id, its vocabulary id or |V| + its `extra` index.
    """
    attn_states: list
    attn_keys: list
    copy_states: Tensor
    copy_keys: Tensor
    copy_tokens: list
    final: Tensor  # [2H x 1]: the (question) encoder's final [forward; backward] state
    vocab: InitVar[text.Vocab]
    extra: list = field(init=False)
    copy_ids: list = field(init=False)

    def __post_init__(self, vocab):
        oov = {}  # out-of-vocabulary surface -> its extended id
        self.copy_ids = [vocab.id(tok) if tok in vocab else
                         oov.setdefault(tok, len(vocab) + len(oov)) for tok in self.copy_tokens]
        self.extra = list(oov)


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
    the shared cell weights and applies the interaction layer. Both end in
    one place, which records the keys and builds the copy map.
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
        states, final = _run_bilstm(tape, _bilstm_cell(tape, params), emb)
        states = _maybe_drop(tape, states, drops)
        sep = len(paragraph_tokens)  # copy candidates skip the separator
        copy_states = tape.embedding(states, [i for i in range(len(ids)) if i != sep])
        attn_states, copy_tokens = [states], list(paragraph_tokens) + list(question_tokens)
    else:
        emb_p = _maybe_drop(tape, embed_inputs(tape, params, p_ids, p_chars, p_types), drops)
        emb_q = _maybe_drop(tape, embed_inputs(tape, params, q_ids, q_chars, q_types), drops)
        cell = _bilstm_cell(tape, params)
        raw_p, _ = _run_bilstm(tape, cell, emb_p)
        raw_q, final = _run_bilstm(tape, cell, emb_q)
        raw_p = _maybe_drop(tape, raw_p, drops)
        raw_q = _maybe_drop(tape, raw_q, drops)
        attn_states = list(interact(tape, params, raw_p, raw_q))
        copy_states = tape.stack_rows(attn_states[::-1])
        copy_tokens = list(question_tokens) + list(paragraph_tokens)
    attn_keys = [tape.matmul(states, params["attn_W"]) for states in attn_states]
    return EncodedInput(attn_states, attn_keys, copy_states,
                        tape.matmul(copy_states, params["copy_W"]), copy_tokens, final, vocab)


def interact(tape, params, states_p, states_q):
    """Cross-attention fusion of paragraph and question encoder states.

    Scores use a bilinear form with its own weights; rows of the score
    matrix normalize over question positions (paragraph side), columns over
    paragraph positions (question side).
    """
    def fuse(own, other, side):  # the question side scores through interact_W's transpose
        scores = tape.matmul(tape.matmul(own, params["interact_W"], transpose_b=side == "q"),
                             other, transpose_b=True)
        attended = tape.matmul(tape.row_softmax(scores), other)
        return tape.tanh(tape.add(tape.matmul(tape.concat_cols([own, attended]),
                                              params[f"interact_W{side}"]),
                                  params[f"interact_b{side}"]))

    return fuse(states_p, states_q, "p"), fuse(states_q, states_p, "q")


@dataclass
class DecoderState:
    """The decoder recurrence, one row per beam row: each tensor is [rows x S]."""
    hidden: Tensor
    cell: Tensor
    contexts: list


@dataclass
class DecoderStepOutput:
    state: DecoderState
    gate: Tensor  # [steps*rows,1], in (0,1)
    p_vocab: Tensor  # [steps*rows,|V|], rows sum to 1
    copy_attn: Tensor  # [steps*rows,Lc], rows sum to 1


def init_decoder(tape, params, enc):
    """Initial one-row decoder state from the (question) encoder's final state."""
    pre = tape.add(tape.matmul(params["init_W"], enc.final, transpose_a=True), params["init_b"])
    zero = Tensor(np.zeros((1, params.state_size)))
    hidden = tape.tanh(tape.slice_rows(pre, 0, params.state_size, transpose=True))
    return DecoderState(hidden, zero, [zero] * params.n_contexts)


def _rows(tape, tensors):
    return tensors[0] if len(tensors) == 1 else tape.stack_rows(tensors)


def decode_step(tape, params, enc, state, prev_ids, drops=None):
    """Decoder steps over every row of `state`, fed step-major `prev_ids`.

    `prev_ids` holds one id per state row per step: one id, one per live
    hypothesis of a beam step, or the k previous ids of a one-row
    teacher-forced pass. Only the recurrence runs step by step: the word side
    of every gate, bias included, is projected once, and the output layer
    runs once over all steps. Attention is bilinear in the new hidden state;
    dropout touches only the output layer's copy of it, never the carry.
    Row t*rows + r of the returned gate, p_vocab and copy_attn belongs to step
    t of row r; the state is the last step's.
    """
    ids = [prev_ids] if np.ndim(prev_ids) == 0 else list(prev_ids)
    rows = state.hidden.shape[0]
    if not ids or len(ids) % rows:
        raise TapeError(f"decode_step: {len(ids)} previous ids for {rows} state rows")
    w_word, w_state, bias = params["dec_Wx"], params["dec_Wh"], params["dec_b"]
    words = tape.add(tape.matmul(tape.embedding(params["word_emb"], ids), w_word), bias)
    hidden, cell, contexts = state.hidden, state.cell, state.contexts
    hiddens, out_hiddens, step_contexts = [], [], []
    for at in range(0, len(ids), rows):  # one step's rows of `words`, as columns
        pre = tape.add(tape.slice_rows(words, at, at + rows, transpose=True),
                       tape.matmul(w_state, tape.concat_cols(contexts + [hidden]),
                                   transpose_a=True, transpose_b=True))
        hidden, cell = _lstm_cell(tape, pre, cell)
        contexts = []
        for states, key in zip(enc.attn_states, enc.attn_keys):
            gamma = tape.row_softmax(tape.matmul(hidden, key, transpose_b=True))
            contexts.append(tape.matmul(gamma, states))
        hiddens.append(hidden)
        out_hiddens.append(_maybe_drop(tape, hidden, drops))
        step_contexts.append(contexts)
    features = tape.concat_cols([_rows(tape, out_hiddens)]
                                + [_rows(tape, c) for c in zip(*step_contexts)])
    p_vocab = tape.row_softmax(tape.add(tape.matmul(features, params["out_W"]), params["out_b"]))
    gate = tape.sigmoid(tape.add(tape.matmul(features, params["gate_W"]), params["gate_b"]))
    copy_attn = tape.row_softmax(tape.matmul(_rows(tape, hiddens), enc.copy_keys,
                                             transpose_b=True))
    return DecoderStepOutput(DecoderState(hidden, cell, contexts), gate, p_vocab, copy_attn)


def extended_vocab(enc, vocab):
    """(extra surface forms, per-copy-position extended id): the copy map
    `encode_input` built for `enc` from `vocab` (see `EncodedInput`)."""
    return enc.extra, enc.copy_ids


def final_distribution(step, enc, vocab):
    """Mixture distribution over the vocabulary plus this input's extra tokens.

    P(w) = g * P_v(w) + (1-g) * sum of copy attention over w's source
    occurrences; in-vocabulary copies merge into their vocabulary entry.
    Returns (probabilities, extra surface forms): a 1-D array for a one-row
    step, else one row per step row. Detached numpy; inference only.
    """
    g = step.gate.data
    dist = np.zeros((g.shape[0], len(vocab) + len(enc.extra)))
    dist[:, :len(vocab)] = g * step.p_vocab.data
    # adding into the transposed grid keeps each row's accumulation order
    np.add.at(dist.T, enc.copy_ids, ((1.0 - g) * step.copy_attn.data).T)
    return (dist[0] if g.shape[0] == 1 else dist), enc.extra


def gold_probability(tape, step, enc, vocab, tokens):
    """Taped [steps x 1] mixture probability of tokens[t] at row t of `step`.

    `final_distribution`'s value, read through one-hot and copy-indicator rows
    that mark each token's extended id; a token in neither part gets 0.
    """
    n_vocab, n_copy = len(vocab), len(enc.copy_ids)
    ids = np.array([[vocab.id(tok) if tok in vocab else
                     n_vocab + enc.extra.index(tok) if tok in enc.extra else -1]
                    for tok in tokens])
    onehot = Tensor((ids == np.arange(n_vocab)).astype(np.float64))
    indicator = Tensor((ids == np.array(enc.copy_ids)).astype(np.float64))
    vocab_mass = tape.matmul(tape.mul(step.p_vocab, onehot), Tensor(np.ones((n_vocab, 1))))
    copy_mass = tape.matmul(tape.mul(step.copy_attn, indicator), Tensor(np.ones((n_copy, 1))))
    inv_gate = tape.add(Tensor(np.ones((1, 1))), tape.scale(step.gate, -1.0))
    return tape.add(tape.mul(step.gate, vocab_mass), tape.mul(inv_gate, copy_mass))
